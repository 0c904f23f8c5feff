"""In-memory span recording around the service's layer entry points.

The traced run wraps each layer's public entry point from this file (class
attributes and module-level names are patched for the duration of one pass
and restored afterwards); nothing under ``src/`` is edited.  Every call
becomes one span ``(name, start, end, parent)``.  Spans live in per-thread
arrays until the pass ends, so recording costs two clock reads and four
array appends per call.

A layer's self time is its span's duration minus the durations of its child
spans.  The service's background flusher runs on its own thread; a span
opened there while its own stack is empty takes the ingest thread's open
span as its parent.  Under the interpreter lock the flusher only runs while
the ingest thread is paused, so this subtracts the flusher's work from the
span it interrupted instead of counting that time twice.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: span name -> the per-layer metric its self time is charged to
SPAN_LAYER: Dict[str, str] = {
    "bench.pass": "trace.unattributed_s",
    "bench.client": "bench.client_s",
    "service.handle_stream": "service.stream_s",
    "service.poll_reports": "service.stream_s",
    "service.barrier": "service.stream_s",
    "service.submit_line": "service.submit_s",
    "engine.submit_line": "engine.route_s",
    "engine.submit_wire_frame": "engine.route_s",
    "engine.flush": "engine.route_s",
    "engine.barrier": "engine.barrier_s",
    "engine.poll_reports": "engine.poll_s",
    "encode.encode_line": "encode.parse_s",
    "encode.encode_frame": "encode.frame_s",
    "protocol.read_frame": "protocol.read_frame_s",
    "protocol.format_race": "protocol.format_race_s",
    "obs.observe": "obs.observe_s",
    "obs.observe_elapsed": "obs.observe_s",
    "kernel.apply_packed": "kernel.apply_s",
    "kernel.collect": "kernel.collect_s",
}

#: every self-time metric the ledger reports, zero when its layer never ran
LAYER_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(SPAN_LAYER.values()))

_OBS_SPANS = ("obs.observe", "obs.observe_elapsed")


class _ThreadSpans:
    """One thread's spans, in the order they were opened."""

    __slots__ = ("name", "start", "end", "parent", "stack")

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        #: >= 0: index in this buffer; -1: root; <= -2: ingest-thread
        #: span ``-2 - parent`` (the span this thread interrupted)
        self.parent = array("l")
        self.stack: List[int] = []


class SpanRecorder:
    """Collects spans from every thread that calls a wrapped entry point."""

    def __init__(self) -> None:
        self.names: List[str] = list(SPAN_LAYER)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = _ThreadSpans()
        self._local.spans = self._main
        self._threads: List[_ThreadSpans] = [self._main]

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
            return spans

    def open(self, name: str) -> int:
        """Open a span on the calling thread; returns the handle for :meth:`close`."""
        spans = self._spans()
        stack = spans.stack
        if stack:
            parent = stack[-1]
        elif spans is self._main:
            parent = -1
        else:
            main_stack = self._main.stack
            parent = -2 - main_stack[-1] if main_stack else -1
        idx = len(spans.start)
        spans.name.append(self._ids[name])
        spans.parent.append(parent)
        spans.end.append(0.0)
        stack.append(idx)
        spans.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        spans = self._spans()
        spans.end[idx] = time.perf_counter()
        spans.stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as one span per call."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Iterator[Tuple[int, str, float, float, int]]:
        """Every span as ``(id, name, start, end, parent id)``, threads merged.

        Ingest-thread spans keep their indices; other threads' spans follow,
        offset so each id is unique.  A parent of -1 marks a root.  A span
        still open (a flusher call caught mid-way) reads as ending at its start.
        """
        offset = 0
        for spans in self._threads:
            for i in range(len(spans.start)):
                parent = spans.parent[i]
                if parent >= 0:
                    parent += offset
                elif parent <= -2:
                    parent = -2 - parent
                yield (
                    offset + i,
                    self.names[spans.name[i]],
                    spans.start[i],
                    spans.end[i] or spans.start[i],
                    parent,
                )
            offset += len(spans.start)

    def ledger(self) -> Tuple[Dict[str, float], int]:
        """Self seconds per layer metric, and the number of outermost obs calls."""
        rows = list(self.spans())
        child = [0.0] * len(rows)
        for _id, _name, start, end, parent in rows:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYER_METRICS, 0.0)
        obs_calls = 0
        for sid, name, start, end, parent in rows:
            self_s[SPAN_LAYER[name]] += end - start - child[sid]
            if name in _OBS_SPANS and (parent < 0 or rows[parent][1] not in _OBS_SPANS):
                obs_calls += 1
        return self_s, obs_calls

    def write_tsv(self, path: str) -> None:
        """Write the spans out: one ``id name start end parent`` row each."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\n")
            for sid, name, start, end, parent in self.spans():
                handle.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for each wrapped layer entry point."""
    from repro.core.encode import EventEncoder
    from repro.core.kernel import EncodedGoldilocks
    from repro.obs.tracing import LifecycleTracer
    from repro.server import engine as engine_module
    from repro.server import service as service_module
    from repro.server.engine import ShardedEngine
    from repro.server.service import RaceDetectionService

    return [
        (RaceDetectionService, "handle_stream", "service.handle_stream"),
        (RaceDetectionService, "submit_line", "service.submit_line"),
        (RaceDetectionService, "poll_reports", "service.poll_reports"),
        (RaceDetectionService, "barrier", "service.barrier"),
        (ShardedEngine, "submit_line", "engine.submit_line"),
        (ShardedEngine, "submit_wire_frame", "engine.submit_wire_frame"),
        (ShardedEngine, "flush", "engine.flush"),
        (ShardedEngine, "barrier", "engine.barrier"),
        (ShardedEngine, "poll_reports", "engine.poll_reports"),
        (EventEncoder, "encode_line", "encode.encode_line"),
        # module-level functions are patched where the caller looks them up
        (engine_module, "encode_frame", "encode.encode_frame"),
        (service_module, "read_frame", "protocol.read_frame"),
        (service_module, "format_race", "protocol.format_race"),
        (LifecycleTracer, "observe", "obs.observe"),
        (LifecycleTracer, "observe_elapsed", "obs.observe_elapsed"),
        (EncodedGoldilocks, "apply_packed", "kernel.apply_packed"),
        (EncodedGoldilocks, "collect", "kernel.collect"),
    ]


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every layer entry point to record into ``recorder``; undo on exit."""
    saved = []
    try:
        for owner, attr, name in _entry_points():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
