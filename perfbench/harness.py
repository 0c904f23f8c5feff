"""Drive the race-detection service through one benchmark run.

A run generates its workload's stream from the seed, then repeats *passes*
until ``seconds`` have been measured.  A pass builds a fresh
:class:`~repro.server.service.RaceDetectionService` (its construction time
is one ``setup_s`` sample), feeds it the whole stream through
:meth:`~repro.server.service.RaceDetectionService.handle_stream` from this
process, and closes it.  Every window of the stream ends in ``!flush``, the
service's barrier.  The reader timestamps each event as it is handed over
and the writer timestamps each line the service writes, which gives the
race-line and window latencies.

After the passes, the stream is replayed offline through
:class:`~repro.core.lazy.LazyGoldilocks`.  Every pass's sorted race lines
must equal that reference byte for byte, seq included.  The replay runs
after the passes so that its memory stays out of ``peak_rss_mib``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.core.lazy import LazyGoldilocks
from repro.core.stats import detector_work_of, short_circuit_rate_of
from repro.server.protocol import (
    FRAME_CONTROL,
    FRAME_EVENTS,
    format_race,
    pack_frame,
    parse_summary,
)
from repro.server.service import RaceDetectionService, ServiceConfig
from repro.trace.io import iter_packed_frames, parse_event

from .spans import LAYER_METRICS, SpanRecorder, instrumented
from .workloads import WORKLOADS, Workload

#: end-to-end metrics printed by an untraced run, with their units.  The
#: p99 latencies go to the detail record only: on a shared 2-CPU host the
#: tail moves with the neighbours' load by far more than any bound allows.
END_TO_END = {
    "events_per_s": "1/s",
    "race_latency_p50_ms": "ms",
    "window_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: counted work that must repeat exactly for one seed: none of it depends
#: on when the background flusher cuts a batch
DETERMINISTIC_COUNTS = (
    "encode.edge_allocs",
    "encode.interner_size",
    "engine.sync_broadcast",
    "engine.data_routed",
    "kernel.cells_traversed",
    "kernel.rule_applications",
    "kernel.full_lockset_computations",
    "kernel.short_circuit_rate",
    "kernel.memo_shared_hits",
    "kernel.cells_collected",
    "kernel.partial_evaluations",
    "kernel.detector_work",
)

#: counted work that depends on batch boundaries, which the service's
#: time-driven flusher moves from run to run; reported as a median
TIMING_COUNTS = (
    "engine.batches_flushed",
    "engine.queue_bytes",
    "engine.backpressure_stalls",
    "obs.observe_calls",
)

#: per-layer metrics printed by a traced run, with their units
PER_LAYER = {
    **{name: "s" for name in LAYER_METRICS if name != "trace.unattributed_s"},
    **{name: "count" for name in DETERMINISTIC_COUNTS + TIMING_COUNTS},
    "kernel.short_circuit_rate": "ratio",
    "engine.queue_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}

#: passes measured at the least, however short ``seconds`` is
MIN_PASSES = 3


class _Writer:
    """The text stream the service answers on; timestamps every line."""

    def __init__(self) -> None:
        self.races: List[Tuple[float, str]] = []
        self.flushes: List[float] = []
        self.errors: List[str] = []
        self.summary = ""

    def write(self, text: str) -> int:
        now = time.perf_counter()
        if text.startswith("race "):
            self.races.append((now, text))
        elif text.startswith("ok flush"):
            self.flushes.append(now)
        elif text.startswith("ok eof"):
            self.summary = text
        elif text.startswith("error"):
            self.errors.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _text_feed(lines: List[str], window: int, handed: array):
    """Yield the stream's lines, each window closed by ``!flush``."""
    clock = time.perf_counter
    append = handed.append
    for start in range(0, len(lines), window):
        for line in lines[start : start + window]:
            append(clock())
            yield line
        yield "!flush"


class _FrameFeed:
    """The byte stream behind ``!binary``: one events frame plus ``!flush`` per read."""

    def __init__(self, chunks: List[Tuple[bytes, int]], handed: array) -> None:
        self._chunks = chunks
        self._handed = handed
        self._next = 0
        self._chunk = b""
        self._pos = 0

    def read(self, n: int) -> bytes:
        if self._pos >= len(self._chunk):
            if self._next >= len(self._chunks):
                return b""
            self._chunk, events = self._chunks[self._next]
            self._next += 1
            self._pos = 0
            self._handed.extend(repeat(time.perf_counter(), events))
        data = self._chunk[self._pos : self._pos + n]
        self._pos += len(data)
        return data


def binary_chunks(lines: List[str], window: int) -> List[Tuple[bytes, int]]:
    """Client-side encoding: packed ``!binary`` frames of ``window`` events."""
    flush = pack_frame(FRAME_CONTROL, b"!flush")
    chunks = []
    start = 0
    for payload in iter_packed_frames(lines, events_per_frame=window):
        events = min(window, len(lines) - start)
        chunks.append((pack_frame(FRAME_EVENTS, payload) + flush, events))
        start += events
    return chunks


@dataclass
class PassResult:
    """What one pass measured and what it got wrong."""

    setup_s: float
    wall_s: float
    race_latency_s: array
    window_s: array
    race_lines: List[str]
    failed: int
    attempted: int
    counts: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)


def counted_work(service: RaceDetectionService, obs_calls: int = 0) -> Dict[str, float]:
    """Per-layer counts from the public ``stats()`` snapshot."""
    snapshot = service.stats()
    merged: Counter = Counter()
    for shard in snapshot.shards:
        merged.update(shard.detector)
    return {
        "encode.edge_allocs": snapshot.edge_allocs,
        "encode.interner_size": service.engine.interner_version(),
        "engine.sync_broadcast": snapshot.sync_broadcast,
        "engine.data_routed": snapshot.data_routed,
        "kernel.cells_traversed": merged["cells_traversed"],
        "kernel.rule_applications": merged["rule_applications"],
        "kernel.full_lockset_computations": merged["full_lockset_computations"],
        "kernel.short_circuit_rate": short_circuit_rate_of(merged),
        "kernel.memo_shared_hits": merged["memo_shared_hits"],
        "kernel.cells_collected": merged["cells_collected"],
        "kernel.partial_evaluations": merged["partial_evaluations"],
        "kernel.detector_work": detector_work_of(merged),
        "engine.batches_flushed": snapshot.batches_flushed,
        "engine.queue_bytes": snapshot.queue_bytes,
        "engine.backpressure_stalls": snapshot.backpressure_stalls,
        "obs.observe_calls": obs_calls,
    }


def run_pass(
    workload: Workload,
    lines: List[str],
    chunks: Optional[List[Tuple[bytes, int]]],
    recorder: Optional[SpanRecorder] = None,
) -> PassResult:
    """Feed the whole stream to a fresh service; ``recorder`` traces it."""
    n_events = len(lines)
    n_windows = -(-n_events // workload.window)
    handed = array("d")
    writer = _Writer()
    config = ServiceConfig(n_shards=workload.n_shards, workers=workload.workers)
    t0 = time.perf_counter()
    service = RaceDetectionService(config)
    setup_s = time.perf_counter() - t0
    try:
        if chunks is None:
            reader = _text_feed(lines, workload.window, handed)
            binary = None
        else:
            reader = iter(["!binary"])
            binary = _FrameFeed(chunks, handed)
        failed = 0
        if recorder is None:
            try:
                service.handle_stream(reader, writer, binary=binary)
            except TimeoutError:
                failed += 1  # a barrier gave up on a shard
            end = time.perf_counter()
        else:
            if chunks is None:
                reader = _traced(reader, recorder)
            else:
                binary.read = recorder.wrap(binary.read, "bench.client")
            writer.write = recorder.wrap(writer.write, "bench.client")
            with instrumented(recorder):
                root = recorder.open("bench.pass")
                try:
                    service.handle_stream(reader, writer, binary=binary)
                except TimeoutError:
                    failed += 1
                recorder.close(root)
            end = time.perf_counter()
        obs_calls = 0
        layers: Dict[str, float] = {}
        if recorder is not None:
            layers, obs_calls = recorder.ledger()
        counts = counted_work(service, obs_calls)
    finally:
        service.close()
    wall_s = end - handed[0] if handed else 0.0
    first_line: Dict[int, float] = {}
    for stamp, text in writer.races:
        seq = int(text[text.rindex("=") + 1 :])
        first_line.setdefault(seq, stamp)
    # a seq the stream never handed over is left to the correctness gate
    race_latency = array(
        "d",
        (stamp - handed[seq] for seq, stamp in first_line.items() if seq < len(handed)),
    )
    windows = array(
        "d",
        (
            stamp - handed[i * workload.window]
            for i, stamp in enumerate(writer.flushes[:n_windows])
        ),
    )
    _, summary = parse_summary(writer.summary[3:]) if writer.summary else ("", {})
    # an event is lost when the eof summary does not count it
    failed += len(writer.errors) + max(0, n_events - int(summary.get("events", 0)))
    failed += max(0, n_windows - len(writer.flushes))
    return PassResult(
        setup_s=setup_s,
        wall_s=wall_s,
        race_latency_s=race_latency,
        window_s=windows,
        race_lines=sorted(text.rstrip("\n") for _, text in writer.races),
        failed=failed,
        attempted=n_events + n_windows,
        counts=counts,
        layers=layers,
    )


def _traced(reader, recorder: SpanRecorder):
    """The reader with its own work recorded as ``bench.client`` spans."""
    while True:
        idx = recorder.open("bench.client")
        try:
            item = next(reader)
        except StopIteration:
            recorder.close(idx)
            return
        recorder.close(idx)
        yield item


def reference_lines(lines: List[str]) -> List[str]:
    """The offline verdict: ``LazyGoldilocks`` over the same stream, sorted."""
    detector = LazyGoldilocks()
    out = []
    for seq, line in enumerate(lines):
        for report in detector.process(parse_event(line)):
            out.append(format_race(seq, report))
    return sorted(out)


def mismatched(got: List[str], want: List[str]) -> int:
    """Race lines in one sorted list but not the other (multiset difference)."""
    if got == want:
        return 0
    have, need = Counter(got), Counter(want)
    return sum(((have - need) + (need - have)).values())


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples.

    No samples happen only when the service lost every race or barrier,
    which the correctness gate already fails.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def middle_mean(samples: List[float]) -> float:
    """The mean of the samples between the first and third quartile.

    The run's timings are per-pass values averaged this way.  A pass that a
    neighbour's burst stalled falls in the top quarter and drops out.  On a
    shared host the same pass also runs up to 1.8x slower for tens of
    seconds at a time; a slow phase that covers many passes counts in
    proportion here, where a median over all windows of the run would jump
    whole from the fast mode to the slow one as the phase crosses half the run.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def peak_rss_mib() -> float:
    """Peak RSS so far of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return (own + children) / scale


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: str) -> Dict[str, object]:
    from repro.core import batch_backend

    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "numpy_importable": has_numpy,
        "batch_backend": batch_backend(),
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "git_commit": git_commit(root),
    }


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    events: Optional[int] = None,
    root: str = ".",
    spans_path: Optional[str] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One benchmark run; returns (result line, detail record).

    ``events`` overrides the workload's pass size (the smoke test uses it).
    With ``trace`` the run alternates untraced and traced passes and
    reports the per-layer ledger, writing the last traced pass's spans to
    ``spans_path`` when given; otherwise every pass is untraced and the
    end-to-end metrics are reported.
    """
    workload = WORKLOADS[name]
    lines = workload.generate(seed, events or workload.events)
    chunks = binary_chunks(lines, workload.window) if workload.wire == "binary" else None
    # A run keeps every pass, so each pass must keep little: one shared list
    # per distinct race-line outcome and packed samples.  Otherwise the
    # ingest process (and every worker forked from it) grows with the
    # number of passes, and peak_rss_mib with the host's speed.
    outcomes: Dict[Tuple[str, ...], List[str]] = {}

    def measure(recorder: Optional[SpanRecorder] = None) -> PassResult:
        result = run_pass(workload, lines, chunks, recorder)
        result.race_lines = outcomes.setdefault(tuple(result.race_lines), result.race_lines)
        return result

    warmup = measure()
    passes: List[PassResult] = []
    traced: List[PassResult] = []
    recorder: Optional[SpanRecorder] = None
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(passes) < MIN_PASSES
        or (trace and len(traced) < MIN_PASSES)
    ):
        if trace and len(traced) < len(passes):
            recorder = SpanRecorder()
            traced.append(measure(recorder))
        else:
            passes.append(measure())
    rss = peak_rss_mib()

    want = reference_lines(lines)
    every = [warmup, *passes, *traced]
    gate_failures = sum(mismatched(p.race_lines, want) for p in every)
    failed = sum(p.failed for p in every) + gate_failures
    attempted = sum(p.attempted for p in every)
    unsteady = sorted(
        key
        for key in DETERMINISTIC_COUNTS
        if len({p.counts[key] for p in every}) > 1
    )
    correct = failed == 0 and not unsteady

    race_latency = [s for p in passes for s in p.race_latency_s]
    windows = [s for p in passes for s in p.window_s]
    if trace:
        values = {
            key: statistics.median(p.layers[key] for p in traced) for key in LAYER_METRICS
        }
        for key in DETERMINISTIC_COUNTS + TIMING_COUNTS:
            source = traced if key == "obs.observe_calls" else every
            values[key] = statistics.median(p.counts[key] for p in source)
        values["trace.overhead"] = statistics.median(
            p.wall_s for p in traced
        ) / statistics.median(p.wall_s for p in passes)
        units = PER_LAYER
    else:
        values = {
            "events_per_s": len(lines) / middle_mean([p.wall_s for p in passes]),
            "race_latency_p50_ms": 1e3
            * middle_mean([percentile(p.race_latency_s, 50) for p in passes]),
            "window_p50_ms": 1e3 * middle_mean([percentile(p.window_s, 50) for p in passes]),
            "setup_s": statistics.median(p.setup_s for p in passes),
            "peak_rss_mib": rss,
        }
        units = END_TO_END
    metrics = {key: _metric(values[key], unit) for key, unit in units.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_fingerprint(root),
        "events_per_pass": len(lines),
        "window_events": workload.window,
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_s": [p.wall_s for p in passes],
        "traced_wall_s": [p.wall_s for p in traced],
        "race_latency_samples": len(race_latency),
        "window_samples": len(windows),
        # reported by name but not gated: see README.md
        "ungated": {
            "race_latency_p99_ms": _metric(1e3 * percentile(race_latency, 99), "ms"),
            "window_p99_ms": _metric(1e3 * percentile(windows, 99), "ms"),
            "error_rate": _metric(failed / attempted, "ratio"),
        },
        "reference_race_lines": len(want),
        "race_line_mismatches": gate_failures,
        "counted_work": {key: every[0].counts[key] for key in DETERMINISTIC_COUNTS},
        "counted_work_unsteady": unsteady,
    }
    if recorder is not None and spans_path is not None:
        recorder.write_tsv(spans_path)
    return result, detail
