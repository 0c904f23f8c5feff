"""Snapshot forward compatibility and summary-value coercion.

Satellites of the encode-once PR: (a) ``from_dict`` must tolerate stats
JSON from a *newer* server instead of crashing on unknown keys, and (b)
``parse_summary`` must coerce values without corrupting strings that merely
look numeric.
"""

import pytest

from repro.server.protocol import coerce_scalar, parse_summary
from repro.server.stats import ServiceStats, ShardStats


def test_shard_stats_drop_unknown_keys_with_a_counter():
    data = ShardStats(shard=2, races=3).as_dict()
    data["races_per_fortnight"] = 1
    data["quantum_flux"] = {"a": 1}
    snap = ShardStats.from_dict(data)
    assert (snap.shard, snap.races) == (2, 3)
    assert snap.unknown_fields == 2


def test_service_stats_drop_unknown_keys_at_both_levels():
    stats = ServiceStats(
        events_ingested=10, shards=[ShardStats(shard=0), ShardStats(shard=1)]
    )
    data = stats.as_dict()
    data["new_toplevel_gauge"] = 5
    data["shards"][1]["new_shard_gauge"] = 7
    # keys older servers wrote (the removed object transport's counters)
    data["transport"] = "object"
    data["sync_decoded"] = 640
    data["shards"][0]["sync_decoded"] = 640
    snap = ServiceStats.from_dict(data)
    assert snap.events_ingested == 10
    assert snap.unknown_fields == 3
    assert [s.unknown_fields for s in snap.shards] == [1, 1]


def test_stats_json_round_trip_is_lossless_for_known_fields():
    stats = ServiceStats(
        events_ingested=4,
        queue_bytes=123,
        edge_allocs=2,
        shards=[ShardStats(shard=0, races=9)],
    )
    back = ServiceStats.from_json(stats.to_json())
    assert back == stats


@pytest.mark.parametrize(
    "text,expected",
    [
        ("42", 42),
        ("-5", -5),
        ("0", 0),
        ("09", "09"),  # leading zero: not an exact int round trip
        ("+5", "+5"),
        ("--5", "--5"),  # crashed the old isdigit heuristic's int() call
        ("1_0", "1_0"),
        ("", ""),
        ("4.5", "4.5"),
    ],
)
def test_coerce_scalar_cases(text, expected):
    assert coerce_scalar(text) == expected


def test_parse_summary_applies_the_coercion():
    command, info = parse_summary("eof events=09 races=3 note=--5")
    assert command == "eof"
    assert info == {"events": "09", "races": 3, "note": "--5"}
