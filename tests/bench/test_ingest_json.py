"""The service-ingest benchmark artifact: schema, wire agreement, parity."""

import json
import os

from repro.bench.__main__ import main as bench_main
from repro.bench.ingest import bench_ingest, render_ingest

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

REQUIRED_MODE_FIELDS = {
    "wire",
    "events",
    "races",
    "queue_bytes",
    "edge_allocs",
    "detector_work",
    "cost",
    "cost_per_event",
    "elapsed_sec",
    "events_per_sec",
}


def validate_payload(payload):
    assert payload["benchmark"] == "service_ingest"
    assert payload["trace"]["events"] > 0
    assert payload["n_shards"] == 4
    assert set(payload["modes"]) == {"text-packed", "binary-packed"}
    for name, row in payload["modes"].items():
        assert REQUIRED_MODE_FIELDS <= set(row), name
    # Both wires encode to the same records, so every deterministic counter
    # agrees between them.
    text, binary = payload["modes"]["text-packed"], payload["modes"]["binary-packed"]
    for key in ("queue_bytes", "edge_allocs", "detector_work", "cost"):
        assert text[key] == binary[key], key
    # Parity: every mode reported the identical race lines (seq included).
    assert payload["parity"]["identical_race_lines"] is True
    assert payload["parity"]["races"] > 0
    for row in payload["modes"].values():
        assert row["parse_errors"] == 0
        assert row["events"] == payload["trace"]["events"]


def test_bench_ingest_payload_shape_and_acceptance_bar():
    payload = bench_ingest()
    validate_payload(payload)
    # Counters are deterministic: a second run reproduces them exactly.
    again = bench_ingest()
    for name, row in payload["modes"].items():
        for key in ("events", "races", "queue_bytes", "edge_allocs",
                    "detector_work", "cost"):
            assert again["modes"][name][key] == row[key], (name, key)
    text = render_ingest(payload)
    for name in payload["modes"]:
        assert name in text


def test_cli_writes_the_json_artifact(tmp_path, capsys):
    path = tmp_path / "ingest.json"
    assert bench_main(["ingest", "--json", str(path)]) == 0
    captured = capsys.readouterr()
    assert str(path) in captured.out
    validate_payload(json.loads(path.read_text()))


def test_committed_artifact_matches_the_schema():
    """The repo-root artifact is regenerated each perf PR; keep it honest."""
    path = os.path.join(REPO_ROOT, "BENCH_service_ingest.json")
    with open(path, "r", encoding="utf-8") as fh:
        validate_payload(json.load(fh))
