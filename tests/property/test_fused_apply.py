"""Property tests: the fused inline apply path equals the framed one.

Inline shards hand the engine's record arrays straight to
``ingest_delta`` + ``apply_records``; process workers receive the same
records as a framed byte buffer through ``apply_packed``.  On random
packed frames (admission sentinels included) the two entry points must
leave a kernel in the same state: the same reports, the same counters,
and byte-identical checkpoints.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.bench.throughput import packed_frames
from repro.core import EncodedGoldilocks
from repro.core.encode import (
    FILTERED_VAR,
    OP_ALLOC,
    OP_COMMIT,
    OP_READ,
    OP_WRITE,
    decode_frame,
    encode_frame,
)
from repro.server.engine import PartitionedGoldilocks
from repro.trace import RandomTraceGenerator

GENERATOR = RandomTraceGenerator(
    max_threads=5, steps_per_thread=60, p_discipline=0.4, n_objects=4, n_fields=2
)
seeds = st.integers(min_value=0, max_value=10**9)


def filtered_frames(seed, batch, stride):
    """Frames for trace ``seed`` with every ``stride``-th filterable id
    (data var, alloc target, commit footprint entry) replaced by the
    admission sentinel -- the shape an edge filter actually produces."""
    frames = []
    tick = 0
    for frame in packed_frames(GENERATOR.generate(seed), batch=batch):
        base, delta, records, extras = decode_frame(frame)
        for i in range(0, len(records), 6):
            op = records[i]
            if op in (OP_READ, OP_WRITE, OP_ALLOC):
                tick += 1
                if tick % stride == 0:
                    records[i + 4] = FILTERED_VAR
            elif op == OP_COMMIT:
                offset = records[i + 4]
                n_vars = extras[offset]
                for j in range(offset + 1, offset + 1 + 2 * n_vars, 2):
                    tick += 1
                    if tick % stride == 0:
                        extras[j] = FILTERED_VAR
        frames.append(encode_frame(base, delta, records, extras))
    return frames


def _lines(reports):
    return [(seq, str(report)) for seq, report in reports]


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    batch=st.integers(min_value=1, max_value=96),
    stride=st.integers(min_value=2, max_value=9),
    n_shards=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_fused_apply_matches_framed_apply(seed, batch, stride, n_shards, data):
    shard = data.draw(st.integers(min_value=0, max_value=n_shards - 1))
    factories = (
        EncodedGoldilocks,
        lambda: PartitionedGoldilocks(shard, n_shards),
    )
    frames = [decode_frame(frame) for frame in filtered_frames(seed, batch, stride)]
    for factory in factories:
        framed, fused = factory(), factory()
        for base, delta, records, extras in frames:
            expected = framed.apply_packed(encode_frame(base, delta, records, extras))
            fused.ingest_delta(base, delta)
            got = fused.apply_records(records, extras)
            assert _lines(got[0]) == _lines(expected[0])
            assert got[1] == expected[1]
        assert fused.stats.as_dict() == framed.stats.as_dict()
        assert pickle.dumps(fused) == pickle.dumps(framed)
