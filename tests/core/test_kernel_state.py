"""The encoded kernel's integer-keyed state.

``write_info`` and ``read_info`` are keyed by interned variable ids (and
readers by ``(tid_id << 1) | xact``).  These tests pin down what that
bookkeeping must preserve:

* checkpoints written while the state was keyed by ``DataVar`` and
  ``(Tid, xact)`` still restore, reach the same verdicts, and re-checkpoint
  byte-stably in the integer-keyed form;
* allocation churn (with commits) leaves no info behind for a reallocated
  object, the per-object index matches the live infos, and the event
  list's segment refcounts equal the number of live infos.

The two ``data/legacy_*.ckpt`` fixtures were written by the DataVar-keyed
kernel: ``EncodedGoldilocks(segment_size=16)`` after ``TRACE[:200]`` through
``process``, and ``PartitionedGoldilocks(0, 2, segment_size=16)`` after the
first ten ``packed_frames(TRACE, batch=20)`` frames through ``apply_packed``.
"""

import os
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bench.throughput import packed_frames
from repro.core import EncodedGoldilocks
from repro.core.actions import Alloc
from repro.server.engine import PartitionedGoldilocks
from repro.trace import RandomTraceGenerator

DATA = os.path.join(os.path.dirname(__file__), "data")

TRACE = RandomTraceGenerator(
    max_threads=5, steps_per_thread=50, p_discipline=0.3, n_objects=6, n_fields=3
).generate(seed=9)


def _legacy(name):
    with open(os.path.join(DATA, name), "rb") as handle:
        return handle.read()


def _lines(reports):
    return [str(report) for report in reports]


def _resolved(detector):
    """Infos by element rather than by id (ids differ between id spaces)."""
    resolve = detector.interner.resolve

    def info(i):
        return (resolve(i.owner_id), i.index, i.kind, i.xact, i.pos)

    writes = {resolve(v): info(i) for v, i in detector.write_info.items()}
    reads = {
        (resolve(v), resolve(slot >> 1), bool(slot & 1)): info(i)
        for v, readers in detector.read_info.items()
        for slot, i in readers.items()
    }
    return writes, reads


class TestLegacyCheckpoints:
    def test_event_path_checkpoint_restores_to_the_same_verdicts(self):
        reference = EncodedGoldilocks(segment_size=16)
        reference.process_all(TRACE[:200])

        restored = pickle.loads(_legacy("legacy_event_path.ckpt"))
        assert _resolved(restored) == _resolved(reference)
        assert all(type(key) is int for key in restored.write_info)
        assert all(
            type(slot) is int
            for readers in restored.read_info.values()
            for slot in readers
        )
        expected = reference.process_all(TRACE[200:])
        assert _lines(restored.process_all(TRACE[200:])) == _lines(expected)
        assert restored.stats.races == reference.stats.races
        assert restored.stats.accesses_checked == reference.stats.accesses_checked

    def test_packed_path_checkpoint_restores_to_the_same_verdicts(self):
        frames = packed_frames(TRACE, batch=20)
        reference = PartitionedGoldilocks(0, 2, segment_size=16)
        for frame in frames[:10]:
            reference.apply_packed(frame)
        restored = pickle.loads(_legacy("legacy_packed_path.ckpt"))
        assert _resolved(restored) == _resolved(reference)
        for frame in frames[10:]:
            got, _ = restored.apply_packed(frame)
            expected, _ = reference.apply_packed(frame)
            assert [(s, str(r)) for s, r in got] == [(s, str(r)) for s, r in expected]
        assert restored.stats.as_dict() == reference.stats.as_dict()

    @pytest.mark.parametrize(
        "name", ["legacy_event_path.ckpt", "legacy_packed_path.ckpt"]
    )
    def test_recheckpointing_a_legacy_state_is_byte_stable(self, name):
        first = pickle.loads(_legacy(name)).checkpoint()
        second = pickle.loads(first).checkpoint()
        assert first == second


def _live_infos(detector):
    return len(detector.write_info) + sum(
        len(readers) for readers in detector.read_info.values()
    )


def _check_invariants(detector, allocated=None):
    resolve = detector.interner.resolve
    live = set(detector.write_info) | set(detector.read_info)
    indexed = set()
    for obj, var_ids in detector._by_obj.items():
        assert var_ids, "an empty per-object entry outlived its variables"
        for var_id in var_ids:
            assert resolve(var_id).obj == obj
        indexed |= var_ids
    assert indexed == live
    assert all(detector.read_info.values()), "an empty reader map survived"
    if allocated is not None:
        assert all(resolve(var_id).obj != allocated for var_id in live)
    assert sum(detector.events._refs.values()) == _live_infos(detector)


CHURN = RandomTraceGenerator(
    max_threads=5, steps_per_thread=40, p_discipline=0.4, n_objects=3, n_fields=2
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_alloc_churn_leaves_no_stale_infos(seed):
    events = CHURN.generate(seed)
    assume(any(isinstance(event.action, Alloc) for event in events[5:]))

    detector = EncodedGoldilocks(segment_size=8, gc_threshold=40)
    for event in events:
        detector.process(event)
        action = event.action
        _check_invariants(detector, action.obj if isinstance(action, Alloc) else None)

    packed = EncodedGoldilocks(segment_size=8, gc_threshold=40)
    for event, frame in zip(events, packed_frames(events, batch=1)):
        packed.apply_packed(frame)
        action = event.action
        _check_invariants(packed, action.obj if isinstance(action, Alloc) else None)
