"""Unit tests for the sharded detection engine."""

import time

import pytest

from repro.core import LazyGoldilocks, Obj, Tid
from repro.core.actions import DataVar
from repro.server.engine import (
    EngineConfig,
    PartitionedGoldilocks,
    ShardedEngine,
    shard_of,
)
from repro.trace import RandomTraceGenerator, TraceBuilder
from repro.trace.io import format_event

RACY = RandomTraceGenerator(
    max_threads=6, steps_per_thread=60, p_discipline=0.3, n_objects=8, n_fields=4
).generate(seed=11)
DISCIPLINED = RandomTraceGenerator(
    max_threads=6, steps_per_thread=60, p_discipline=0.95, n_objects=8, n_fields=4
).generate(seed=1)


def offline(events):
    return LazyGoldilocks().process_all(events)


def test_shard_of_is_stable_and_in_range():
    vars_ = [DataVar(Obj(o), f"f{f}") for o in range(20) for f in range(5)]
    for n in (1, 2, 3, 8):
        shards = [shard_of(v, n) for v in vars_]
        assert all(0 <= s < n for s in shards)
        # deterministic across calls (hash() would be salted per process)
        assert shards == [shard_of(v, n) for v in vars_]
    assert len({shard_of(v, 4) for v in vars_}) == 4, "partitions should spread"


def test_partitioned_detector_ignores_foreign_variables():
    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")
    tb.write(Tid(2), Obj(1), "data")  # a race on o1.data
    events = tb.build()
    var = DataVar(Obj(1), "data")
    n = 4
    owner = shard_of(var, n)
    for shard in range(n):
        detector = PartitionedGoldilocks(shard, n)
        reports = detector.process_all(events)
        if shard == owner:
            assert [r.var for r in reports] == [var]
        else:
            assert reports == []
            assert detector.stats.accesses_checked == 0


def test_partitioned_commit_checks_only_owned_footprint_vars():
    a, b = DataVar(Obj(1), "x"), DataVar(Obj(2), "y")
    n = 64  # large shard count so the two vars land apart with certainty
    assert shard_of(a, n) != shard_of(b, n)
    tb = TraceBuilder()
    tb.commit(Tid(1), writes=[a, b])
    events = tb.build()
    detector = PartitionedGoldilocks(shard_of(a, n), n)
    detector.process_all(events)
    assert detector.stats.accesses_checked == 1  # only `a`, not `b`
    assert detector.stats.sync_events == 1  # the commit itself is enqueued


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_inline_engine_matches_offline_detector(n_shards):
    expected = offline(RACY)
    with ShardedEngine(EngineConfig(n_shards=n_shards, workers="inline")) as engine:
        for event in RACY:
            engine.submit(event)
        reports = [r for _, r in engine.barrier()]
    assert set(reports) == set(expected)
    assert len(reports) == len(expected)


def test_single_shard_preserves_report_order():
    expected = offline(RACY)
    with ShardedEngine(n_shards=1, workers="inline") as engine:
        for event in RACY:
            engine.submit(event)
        reports = [r for _, r in engine.barrier()]
    assert reports == expected


def test_inline_engine_clean_trace_reports_nothing():
    assert offline(DISCIPLINED) == []
    with ShardedEngine(n_shards=3, workers="inline") as engine:
        for event in DISCIPLINED:
            engine.submit(event)
        assert engine.barrier() == []


def test_report_seq_tags_point_at_the_completing_access():
    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")   # seq 0
    tb.read(Tid(1), Obj(2), "other")   # seq 1 (unrelated)
    tb.write(Tid(2), Obj(1), "data")   # seq 2: completes the race
    with ShardedEngine(n_shards=2, workers="inline") as engine:
        for event in tb.build():
            engine.submit(event)
        [(seq, report)] = engine.barrier()
    assert seq == 2
    assert report.var == DataVar(Obj(1), "data")


def test_engine_stats_counters_and_shard_snapshots():
    with ShardedEngine(n_shards=2, workers="inline", batch_size=8) as engine:
        for event in RACY:
            engine.submit(event)
        reports = engine.barrier()
        stats = engine.stats()
    assert stats.events_ingested == len(RACY)
    assert stats.sync_broadcast + stats.data_routed == len(RACY)
    assert stats.races_reported == len(reports)
    assert stats.n_shards == 2 and len(stats.shards) == 2
    # every shard saw every broadcast event plus its own partition
    for shard in stats.shards:
        assert shard.events_processed >= stats.sync_broadcast
        assert shard.queue_depth == 0
        assert 0.0 <= shard.short_circuit_rate <= 1.0
    assert sum(s.events_processed for s in stats.shards) == (
        2 * stats.sync_broadcast + stats.data_routed
    )
    assert 0.0 <= stats.short_circuit_rate <= 1.0


def test_engine_reset_restarts_the_execution():
    with ShardedEngine(n_shards=2, workers="inline") as engine:
        for event in RACY:
            engine.submit(event)
        first = engine.barrier()
        assert first
        engine.reset()
        for event in RACY:
            engine.submit(event)
        second = engine.barrier()
    assert {r for _, r in second} == {r for _, r in first}


def test_engine_checkpoint_blobs_resume_the_stream():
    mid = len(RACY) // 2
    expected = offline(RACY)
    with ShardedEngine(n_shards=2, workers="inline") as engine:
        for event in RACY[:mid]:
            engine.submit(event)
        prefix_reports = {r for _, r in engine.barrier()}
        blobs = engine.checkpoint()
    resumed = [PartitionedGoldilocks.restore(blob) for blob in blobs]
    suffix_reports = set()
    for detector in resumed:
        for event in RACY[mid:]:
            suffix_reports.update(detector.process(event))
    assert prefix_reports | suffix_reports == set(expected)


def test_bad_config_is_rejected():
    with pytest.raises(ValueError):
        ShardedEngine(n_shards=0)
    with pytest.raises(ValueError):
        ShardedEngine(workers="threads")


# -- multiprocessing workers ---------------------------------------------------


def test_process_engine_matches_offline_detector():
    expected = offline(RACY)
    with ShardedEngine(
        EngineConfig(n_shards=2, workers="process", batch_size=32)
    ) as engine:
        for event in RACY:
            engine.submit(event)
        reports = [r for _, r in engine.barrier()]
        stats = engine.stats()
    assert set(reports) == set(expected)
    assert stats.events_ingested == len(RACY)


def test_process_engine_backpressure_blocks_instead_of_buffering():
    # One-event batches against a depth-1 queue: the router outruns the
    # worker (which is still booting) immediately, so ingestion must block
    # at least once -- and still deliver everything.
    with ShardedEngine(
        EngineConfig(n_shards=1, workers="process", batch_size=1, queue_depth=1)
    ) as engine:
        for event in RACY[:120]:
            engine.submit(event)
        engine.barrier()
        stats = engine.stats()
    assert stats.backpressure_stalls >= 1
    assert stats.shards[0].events_processed == 120


# -- the result path costs per batch, not per event ----------------------------


def _count_result_reads(engine):
    """Wrap the engine's result-queue ``get``; returns the call counter."""
    calls = [0]
    get = engine._result_q.get

    def counted(*args, **kwargs):
        calls[0] += 1
        return get(*args, **kwargs)

    engine._result_q.get = counted
    return calls


def test_process_engine_polls_no_queue_while_nothing_is_in_flight():
    lines = [format_event(e) for e in RACY]
    expected = offline(RACY)
    assert expected
    with ShardedEngine(
        EngineConfig(n_shards=1, workers="process", batch_size=len(lines) + 1)
    ) as engine:
        reads = _count_result_reads(engine)
        for line in lines:
            engine.submit_line(line)
            assert engine.poll_reports() == []
        engine.stats()
        # no batch was pushed, so no ack can be waiting: not one queue read
        assert reads[0] == 0
        reports = [r for _, r in engine.barrier()]
        assert reads[0] >= 1
    assert reports == expected


def test_race_in_a_pushed_batch_surfaces_from_poll_before_any_barrier():
    batch_size = 4
    detector = LazyGoldilocks()
    first = next(
        seq for seq, event in enumerate(RACY) if detector.process(event)
    )
    # submit through the end of the batch that holds the racy access
    upto = (first // batch_size + 1) * batch_size
    assert upto < len(RACY), "the race must complete before the trace ends"
    with ShardedEngine(
        EngineConfig(n_shards=1, workers="process", batch_size=batch_size)
    ) as engine:
        surfaced = []
        for event in RACY[:upto]:
            engine.submit(event)
            surfaced.extend(engine.poll_reports())
        deadline = time.monotonic() + 30.0
        while not surfaced and time.monotonic() < deadline:
            surfaced.extend(engine.poll_reports())
            time.sleep(0.001)
        assert surfaced, "a race in an acknowledged batch must not wait for barrier()"
        assert min(seq for seq, _ in surfaced) == first
        engine.barrier()


def test_process_checkpoint_and_reset_after_gated_drains():
    lines = [format_event(e) for e in RACY]
    mid = len(lines) // 2
    expected = offline(RACY)
    with ShardedEngine(
        EngineConfig(n_shards=1, workers="process", batch_size=len(lines) + 1)
    ) as engine:
        for line in lines[:mid]:
            engine.submit_line(line)
            engine.poll_reports()
        prefix = engine.barrier()
        [blob] = engine.checkpoint()
        for line in lines[mid:]:
            engine.submit_line(line)
            engine.poll_reports()
        suffix = engine.barrier()
        assert [r for _, r in prefix + suffix] == expected
        engine.reset()
        for line in lines:
            engine.submit_line(line)
            engine.poll_reports()
        again = engine.barrier()
        assert [r for _, r in again] == expected
        assert [seq for seq, _ in again] == [
            seq + len(lines) for seq, _ in prefix + suffix
        ]
    resumed = PartitionedGoldilocks.restore(blob)
    tail = [r for event in RACY[mid:] for r in resumed.process(event)]
    assert [r for _, r in prefix] + tail == expected
