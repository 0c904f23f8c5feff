"""The observability-overhead artifact: schema, the zero-overhead bar."""

import json
import os

from repro.bench.__main__ import main as bench_main
from repro.bench.obs import MODES, bench_obs, render_obs

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

REQUIRED_MODE_FIELDS = {
    "mode",
    "events",
    "races",
    "detector_work",
    "queue_bytes",
    "edge_allocs",
    "ingest_cost",
    "spans_sampled",
    "stage_counts",
    "elapsed_sec",
    "events_per_sec",
}


def validate_payload(payload):
    assert payload["benchmark"] == "obs_overhead"
    assert payload["trace"]["events"] > 0
    assert set(payload["modes"]) == set(MODES)
    for name, row in payload["modes"].items():
        assert REQUIRED_MODE_FIELDS <= set(row), name
        assert row["events"] == payload["trace"]["events"]
    # The PR's acceptance bar: instrumentation adds ZERO deterministic
    # detector work and zero ingest cost -- it only reads clocks.
    assert payload["deterministic_overhead_is_zero"] is True
    overhead = payload["overhead_vs_all_off"]
    for mode in MODES:
        assert overhead["added_detector_work"][mode] == 0, mode
        assert overhead["added_ingest_cost"][mode] == 0, mode
    # Parity: every mode reported the identical race lines, seq included.
    assert payload["parity"]["identical_race_lines"] is True
    assert payload["parity"]["races"] > 0
    # The ablation switches actually switch: only spans-on samples spans.
    assert payload["modes"]["all-off"]["spans_sampled"] == 0
    assert payload["modes"]["counters-on"]["spans_sampled"] == 0
    assert payload["modes"]["spans-on"]["spans_sampled"] > 0
    # all-off means all off: no stage counters accumulated either.
    assert all(v == 0 for v in payload["modes"]["all-off"]["stage_counts"].values())
    assert any(v > 0 for v in payload["modes"]["counters-on"]["stage_counts"].values())
    # counters-on observes the ingest stage per batch, yet counts every event
    counts = payload["modes"]["counters-on"]["stage_counts"]
    assert counts["ingest"] == payload["trace"]["events"]
    # The wall-clock row: shape only here -- tier-1 asserts no live timing.
    wall = payload["wall_overhead_vs_all_off"]
    assert wall["mode"] == "counters-on"
    assert wall["repeats"] >= 7
    for mode in ("all-off", "counters-on"):
        spread = wall["elapsed_sec"][mode]
        assert 0 < spread["min"] <= spread["median"] <= spread["max"]
    medians = {m: wall["elapsed_sec"][m]["median"] for m in ("all-off", "counters-on")}
    assert abs(wall["ratio"] - medians["counters-on"] / medians["all-off"]) < 1e-3
    assert 0 < wall["ratio_min"] <= wall["ratio_max"]
    assert {"python", "implementation", "machine", "nproc"} <= set(wall["host"])


def test_bench_obs_payload_shape_and_zero_overhead():
    payload = bench_obs()
    validate_payload(payload)
    text = render_obs(payload)
    for name in MODES:
        assert name in text
    assert "zero deterministic overhead = True" in text


def test_cli_writes_the_json_artifact(tmp_path, capsys):
    path = tmp_path / "obs.json"
    assert bench_main(["obs", "--json", str(path)]) == 0
    captured = capsys.readouterr()
    assert str(path) in captured.out
    validate_payload(json.loads(path.read_text()))


#: Bound on the committed counters-on / all-off wall-clock ratio, chosen
#: from measurement (2 CPUs, Python 3.11.7): ten medians of 15
#: interleaved passes read 0.93-1.05 with ingest observed per batch, and
#: 1.04-1.26 (median 1.16) when it was observed per line.  Checked
#: against the committed artifact only.
WALL_OVERHEAD_BOUND = (0.85, 1.15)


def test_committed_artifact_matches_the_schema():
    """The repo-root artifact is regenerated with this PR; keep it honest."""
    path = os.path.join(REPO_ROOT, "BENCH_obs_overhead.json")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    validate_payload(payload)
    low, high = WALL_OVERHEAD_BOUND
    assert low <= payload["wall_overhead_vs_all_off"]["ratio"] <= high
