"""Observability-overhead ablation: what does instrumentation cost?

``python -m repro.bench obs --json`` replays the fixed ingest-benchmark
trace through the streaming service under three observability
configurations and writes ``BENCH_obs_overhead.json`` (committed at the
repo root, like the other benchmark artifacts):

* ``all-off``       -- tracer disabled, flight rings off: the bare engine;
* ``counters-on``   -- the defaults: stage counters, per-batch latency
  histograms, and the flight recorder rings (no dump directory);
* ``spans-on``      -- counters plus 1-in-N span sampling to a JSONL log;
* ``provenance-on`` -- counters plus per-race lockset-transfer chain
  capture (the chain derivation replays the anchor window, but only when
  a race fires -- never on the clean path);
* ``trace-on``      -- counters plus trace-context stamping on spans.

The claim the suite asserts is deterministic: **observability must add
zero detector work**.  Every mode runs the identical trace, so per-shard ``detector_work`` (the kernel's deterministic
cost counter), the ingest cost model ``queue_bytes + 64 * edge_allocs``,
and the race lines (including seq tags) must be byte-identical across
modes -- instrumentation only ever reads clocks and appends to
side-channel structures, never touches the detection path.  The per-mode
wall-clock fields (``elapsed_sec``, ``events_per_sec``) are best-of
``--repeats`` and only indicative.  What the counters cost in time is
``wall_overhead_vs_all_off``: the median ``counters-on`` pass over the
median ``all-off`` pass, from at least :data:`WALL_REPEATS` interleaved
passes of each, with the per-round spread and the host it ran on.  The
cost model cannot see clock reads or histogram updates; this ratio can.
"""

from __future__ import annotations

import io
import json
import os
import platform
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from ..obs.tracing import ObsConfig
from ..server.service import RaceDetectionService, ServiceConfig
from .ingest import ALLOC_COST_BYTES, TRACE_PARAMS, TRACE_SEED, generate_trace_text

N_SHARDS = 4
#: 1-in-N batch sampling rate for the spans-on mode
SPAN_SAMPLE = 8
#: interleaved all-off / counters-on passes behind the wall-clock ratio
WALL_REPEATS = 15

#: mode names in presentation order; all-off first -- it is the baseline
#: every overhead number is measured against
MODES: Tuple[str, ...] = (
    "all-off",
    "counters-on",
    "spans-on",
    "provenance-on",
    "trace-on",
)


def _obs_config(mode: str, span_log: Optional[str]) -> ObsConfig:
    if mode == "all-off":
        return ObsConfig(counters=False, span_sample=0, flightrec=False)
    if mode == "counters-on":
        return ObsConfig(counters=True, span_sample=0)
    if mode == "spans-on":
        return ObsConfig(counters=True, span_sample=SPAN_SAMPLE, span_log=span_log)
    if mode == "provenance-on":
        return ObsConfig(counters=True, span_sample=0, provenance=True)
    if mode == "trace-on":
        return ObsConfig(counters=True, span_sample=0, trace=True, node="bench")
    raise ValueError(f"unknown obs bench mode {mode!r}")


def _one_pass(mode: str, text: str):
    """One fresh service over the trace; returns (elapsed, output, stats, stage counts)."""
    span_log = None
    if mode == "spans-on":
        fd, span_log = tempfile.mkstemp(suffix=".jsonl", prefix="repro-obs-")
        os.close(fd)
    try:
        service = RaceDetectionService(
            ServiceConfig(
                n_shards=N_SHARDS,
                workers="inline",
                flush_interval=0,
                obs=_obs_config(mode, span_log),
            )
        )
        out = io.StringIO()
        started = time.perf_counter()
        service.handle_stream(io.StringIO(text), out)
        elapsed = time.perf_counter() - started
        stats = service.stats()
        stage_counts = service.tracer.stage_counts()
        service.close()
    finally:
        if span_log is not None:
            os.unlink(span_log)
    return elapsed, out.getvalue(), stats, stage_counts


def _run_mode(mode: str, text: str, repeats: int) -> Tuple[Dict[str, object], List[str]]:
    """One mode's pass over the trace; returns (counters row, race lines)."""
    best = None
    races: List[str] = []
    row: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        elapsed, output, stats, stage_counts = _one_pass(mode, text)
        if best is not None and elapsed >= best:
            continue
        best = elapsed
        races = sorted(
            line for line in output.splitlines() if line.startswith("race ")
        )
        events = stats.events_ingested
        row = {
            "mode": mode,
            "events": events,
            "races": stats.races_reported,
            "detector_work": sum(s.detector_work for s in stats.shards),
            "queue_bytes": stats.queue_bytes,
            "edge_allocs": stats.edge_allocs,
            "ingest_cost": stats.queue_bytes + ALLOC_COST_BYTES * stats.edge_allocs,
            "spans_sampled": stats.spans_sampled,
            "stage_counts": stage_counts,
        }
    row["elapsed_sec"] = round(best, 6)
    row["events_per_sec"] = round(row["events"] / best) if best > 0 else None
    return row, races


def _spread(samples: List[float]) -> Dict[str, float]:
    return {
        "median": round(statistics.median(samples), 6),
        "min": round(min(samples), 6),
        "max": round(max(samples), 6),
    }


def wall_overhead(text: str, repeats: int = WALL_REPEATS) -> Dict[str, object]:
    """The default-on counters' wall-clock cost, as a ratio against all-off.

    After one untimed warm-up pass of each, ``all-off`` and
    ``counters-on`` passes are interleaved, ``repeats`` of each, with the
    order swapped every round so neither mode always runs second.  The
    ratio is the median counters-on ``elapsed_sec`` over the median
    all-off one; ``ratio_min``/``ratio_max`` span the per-round ratios.
    """
    pair = ("all-off", "counters-on")
    for mode in pair:
        _one_pass(mode, text)
    samples: Dict[str, List[float]] = {mode: [] for mode in pair}
    for i in range(repeats):
        for mode in pair if i % 2 == 0 else pair[::-1]:
            samples[mode].append(_one_pass(mode, text)[0])
    off, on = samples["all-off"], samples["counters-on"]
    rounds = [b / a for a, b in zip(off, on)]
    return {
        "mode": "counters-on",
        "repeats": len(off),
        "ratio": round(statistics.median(on) / statistics.median(off), 4),
        "ratio_min": round(min(rounds), 4),
        "ratio_max": round(max(rounds), 4),
        "elapsed_sec": {"all-off": _spread(off), "counters-on": _spread(on)},
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
    }


def bench_obs(repeats: int = 1) -> Dict[str, object]:
    """Run the ablation on the fixed trace; returns the JSON payload."""
    text = generate_trace_text()
    modes: Dict[str, Dict[str, object]] = {}
    race_lines: Dict[str, List[str]] = {}
    for mode in MODES:
        modes[mode], race_lines[mode] = _run_mode(mode, text, repeats)
    baseline = modes["all-off"]
    added_work = {
        mode: modes[mode]["detector_work"] - baseline["detector_work"]
        for mode in MODES
    }
    added_cost = {
        mode: modes[mode]["ingest_cost"] - baseline["ingest_cost"] for mode in MODES
    }
    reference = race_lines["all-off"]
    wall = wall_overhead(text, max(WALL_REPEATS, repeats))
    return {
        "benchmark": "obs_overhead",
        "trace": {
            "generator": TRACE_PARAMS,
            "seed": TRACE_SEED,
            "events": baseline["events"],
        },
        "n_shards": N_SHARDS,
        "span_sample": SPAN_SAMPLE,
        "cost_model": f"queue_bytes + {ALLOC_COST_BYTES} * edge_allocs",
        "modes": modes,
        "overhead_vs_all_off": {
            "added_detector_work": added_work,
            "added_ingest_cost": added_cost,
        },
        "wall_overhead_vs_all_off": wall,
        "deterministic_overhead_is_zero": all(
            added_work[mode] == 0 and added_cost[mode] == 0 for mode in MODES
        ),
        "parity": {
            "identical_race_lines": all(
                lines == reference for lines in race_lines.values()
            ),
            "races": len(reference),
        },
    }


def render_obs(payload: Dict[str, object]) -> str:
    """Human-readable table for terminal output."""
    lines = [
        f"Observability overhead on {payload['trace']['events']} events, "
        f"{payload['n_shards']} shards:",
        f"{'mode':<13} {'events/sec':>12} {'detector work':>14} "
        f"{'ingest cost':>12} {'spans':>6}",
    ]
    for name, row in payload["modes"].items():
        lines.append(
            f"{name:<13} {row['events_per_sec']:>12} {row['detector_work']:>14} "
            f"{row['ingest_cost']:>12} {row['spans_sampled']:>6}"
        )
    lines.append(
        "deterministic overhead (work, cost) vs all-off: "
        + ", ".join(
            f"{mode}=+{payload['overhead_vs_all_off']['added_detector_work'][mode]}"
            f"/+{payload['overhead_vs_all_off']['added_ingest_cost'][mode]}"
            for mode in payload["modes"]
        )
    )
    wall = payload["wall_overhead_vs_all_off"]
    lines.append(
        f"wall-clock counters-on / all-off: {wall['ratio']:.3f}x "
        f"(median of {wall['repeats']} interleaved passes each, per-round "
        f"{wall['ratio_min']:.3f}-{wall['ratio_max']:.3f}x)"
    )
    parity = payload["parity"]
    lines.append(
        f"parity: {parity['races']} races, identical across modes = "
        f"{parity['identical_race_lines']}; zero deterministic overhead = "
        f"{payload['deterministic_overhead_is_zero']}"
    )
    return "\n".join(lines)


def write_obs_json(path: str, repeats: int = 1) -> Dict[str, object]:
    """Run the ablation and write the JSON artifact; returns the payload."""
    payload = bench_obs(repeats=repeats)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
