"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same text lines, so the service receives only generated inputs and two
runs of one seed see byte-identical streams.  The lines use the trace text
format of :mod:`repro.trace.io` (``<tid> <index> <kind> <args...>``).

* :func:`text_churn` -- 8 producer threads, mostly thread-private field
  accesses with Zipf-skewed object popularity and a steady arrival of new
  objects, a lock-protected shared access every few dozen steps, small
  transactions, and unprotected writes to one hot field (the races).
* :func:`binary_sync` -- a lock-, volatile-, fork/join- and commit-heavy
  trace over shared variables, long enough that a single shard's sync list
  crosses the default ``gc_threshold`` (50 000 cells).
* :func:`windows_mix` -- default-mix :class:`repro.trace.gen.RandomTraceGenerator`
  traces, concatenated until the requested event count is reached.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List


class _Threads:
    """Per-thread program-order counters, rendering one line per event."""

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self.lines: List[str] = []

    def emit(self, tid: int, body: str) -> None:
        index = self._index.get(tid, 0)
        self._index[tid] = index + 1
        self.lines.append(f"{tid} {index} {body}")


def _zipf_cdf(n: int, s: float) -> List[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


def text_churn(seed: int, n_events: int) -> List[str]:
    """The ``text-churn`` stream: edge-bound, kernel mostly short-circuits."""
    rng = random.Random(seed)
    out = _Threads()
    n_threads = 8
    hot_obj = 1
    shared_objs = [2, 3, 4, 5]  # shared_objs[k] is guarded by lock 10 + k
    txn_objs = list(range(20, 28))  # touched only inside transactions
    fields = ("f0", "f1", "f2", "f3")
    pool_cap = 256
    cdf = _zipf_cdf(pool_cap, 1.1)
    next_obj = 1000
    pools: Dict[int, List[int]] = {}
    for obj in [hot_obj, *shared_objs, *txn_objs]:
        out.emit(0, f"alloc {obj}")
    for tid in range(1, n_threads + 1):
        out.emit(0, f"fork {tid}")
        pools[tid] = []
    while len(out.lines) < n_events:
        tid = rng.randint(1, n_threads)
        pool = pools[tid]
        roll = rng.random()
        if roll < 0.03 or not pool:
            # object churn: a fresh thread-private object
            obj = next_obj
            next_obj += 1
            out.emit(tid, f"alloc {obj}")
            pool.append(obj)
            if len(pool) > pool_cap:
                del pool[0]
        elif roll < 0.06:
            k = rng.randrange(len(shared_objs))
            kind = "write" if rng.random() < 0.5 else "read"
            out.emit(tid, f"acq {10 + k}")
            out.emit(tid, f"{kind} {shared_objs[k]} {rng.choice(fields)}")
            out.emit(tid, f"rel {10 + k}")
        elif roll < 0.075:
            read, write = rng.sample(txn_objs, 2)
            out.emit(
                tid,
                f"commit R {read}.{rng.choice(fields)} W {write}.{rng.choice(fields)}",
            )
        elif roll < 0.095:
            out.emit(tid, f"write {hot_obj} hot")
        else:
            rank = bisect.bisect_left(cdf, rng.random() * cdf[-1])
            obj = pool[-1 - min(rank, len(pool) - 1)]
            kind = "write" if rng.random() < 0.3 else "read"
            out.emit(tid, f"{kind} {obj} {rng.choice(fields)}")
    return out.lines


def binary_sync(seed: int, n_events: int) -> List[str]:
    """The ``binary-sync`` stream: sync-list append, traversal and GC bound."""
    rng = random.Random(seed)
    out = _Threads()
    n_locks = 6
    locks = [50 + k for k in range(n_locks)]
    # shared object o is guarded by lock locks[o % n_locks]
    shared_objs = list(range(200, 392))
    guarded: Dict[int, List[int]] = {lock: [] for lock in locks}
    for obj in shared_objs:
        guarded[locks[obj % n_locks]].append(obj)
    txn_objs = list(range(500, 532))
    volatiles = ("v0", "v1", "v2", "v3")
    fields = ("f0", "f1", "f2", "f3")
    racy_obj = 7
    for obj in [racy_obj, *shared_objs, *txn_objs]:
        out.emit(0, f"alloc {obj}")
    live = list(range(1, 9))
    next_tid = 9
    for tid in live:
        out.emit(0, f"fork {tid}")
    while len(out.lines) < n_events:
        tid = rng.choice(live)
        roll = rng.random()
        if roll < 0.45:
            lock = rng.choice(locks)
            out.emit(tid, f"acq {lock}")
            for _ in range(rng.randint(1, 3)):
                obj = rng.choice(guarded[lock])
                kind = "write" if rng.random() < 0.4 else "read"
                out.emit(tid, f"{kind} {obj} {rng.choice(fields)}")
            out.emit(tid, f"rel {lock}")
        elif roll < 0.70:
            kind = "vwrite" if rng.random() < 0.5 else "vread"
            out.emit(tid, f"{kind} 300 {rng.choice(volatiles)}")
        elif roll < 0.85:
            picks = rng.sample(txn_objs, rng.randint(2, 3))
            reads = " ".join(f"{obj}.{rng.choice(fields)}" for obj in picks[:-1])
            out.emit(tid, f"commit R {reads} W {picks[-1]}.{rng.choice(fields)}")
        elif roll < 0.89:
            # fork/join churn: a worker ends, main joins it and forks a fresh one
            live.remove(tid)
            out.emit(0, f"join {tid}")
            out.emit(0, f"fork {next_tid}")
            live.append(next_tid)
            next_tid += 1
        elif roll < 0.93:
            obj = rng.choice(shared_objs)
            lock = locks[obj % n_locks]
            out.emit(tid, f"acq {lock}")
            out.emit(tid, f"alloc {obj}")
            out.emit(tid, f"rel {lock}")
        else:
            out.emit(tid, f"write {racy_obj} {rng.choice(fields)}")
    return out.lines


def windows_mix(seed: int, n_events: int) -> List[str]:
    """Default-mix generated traces, concatenated to ``n_events`` lines."""
    from repro.trace.gen import RandomTraceGenerator
    from repro.trace.io import format_event

    generator = RandomTraceGenerator()
    lines: List[str] = []
    for sub_seed in itertools.count(seed * 100_003):
        lines.extend(format_event(event) for event in generator.generate(sub_seed))
        if len(lines) >= n_events:
            return lines[:n_events]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its stream, how it is framed, and the service shape."""

    generate: Callable[[int, int], List[str]]
    #: events in the stream one pass feeds to a fresh service
    events: int
    #: events per window; every window ends in a ``!flush`` barrier
    window: int
    #: "text" lines, or "binary" packed frames of one window each
    wire: str
    n_shards: int
    workers: str


#: the reason for each mix is in README.md
WORKLOADS: Dict[str, Workload] = {
    "text-churn": Workload(text_churn, 40_000, 512, "text", 4, "inline"),
    "binary-sync": Workload(binary_sync, 93_000, 512, "binary", 1, "inline"),
    "windows-process": Workload(windows_mix, 2_048, 64, "text", 1, "process"),
}
