"""The binary wire path: parity with text, encode-once counters, client.

Text and binary ingestion must produce the race lines of an offline
:class:`~repro.core.lazy.LazyGoldilocks` replay -- same races *and the same
seq tags* -- with inline and with process workers.  Malformed frames land
in the parse-error ring instead of killing anything.
"""

import io
import socket
import threading

import pytest

from repro.server import RaceDetectionService, ServiceConfig
from repro.server.client import ServiceClient, detect_over_socket
from repro.server.protocol import FRAME_EVENTS, FRAME_TEXT, pack_frame
from repro.server.service import serve_tcp
from repro.trace import RandomTraceGenerator
from repro.trace.io import format_event, iter_packed_frames, parse_event

from ..helpers import offline_race_lines

TRACE = RandomTraceGenerator(max_threads=4, n_objects=6, steps_per_thread=40)


def trace_text(seed=11):
    events = TRACE.generate(seed=seed)
    return "\n".join(format_event(e) for e in events) + "\n"


def run_service(text, wire, workers="inline", n_shards=4):
    """One fresh service pass; returns (race lines incl. seq, stats)."""
    config = ServiceConfig(
        n_shards=n_shards, workers=workers, batch_size=16, flush_interval=0,
    )
    out = io.StringIO()
    with RaceDetectionService(config) as service:
        if wire == "text":
            service.handle_stream(io.StringIO(text), out)
        else:
            buf = io.BytesIO()
            if wire == "frames":
                for frame in iter_packed_frames(io.StringIO(text), 32):
                    buf.write(pack_frame(FRAME_EVENTS, frame))
            else:  # "frame-text": the FRAME_TEXT escape hatch
                buf.write(pack_frame(FRAME_TEXT, text.encode("utf-8")))
            buf.seek(0)
            service.handle_stream(iter(["!binary\n"]), out, binary=buf)
        stats = service.stats()
    races = sorted(
        line for line in out.getvalue().splitlines() if line.startswith("race ")
    )
    return races, stats


@pytest.fixture(scope="module")
def reference():
    """The trace and its offline race lines (seq = trace index), sorted."""
    text = trace_text()
    races = offline_race_lines(TRACE.generate(seed=11))
    assert races, "a parity matrix over a race-free trace proves nothing"
    return text, races


@pytest.mark.parametrize("wire", ["text", "frames", "frame-text"])
def test_parity_matrix_inline(reference, wire):
    text, expected = reference
    races, _ = run_service(text, wire)
    assert races == expected  # same races, same seq tags


@pytest.mark.parametrize("wire", ["text", "frames", "frame-text"])
def test_parity_with_process_workers(reference, wire):
    text, expected = reference
    races, _ = run_service(text, wire, workers="process", n_shards=2)
    assert races == expected


def test_packed_counters_prove_encode_once(reference):
    text, _ = reference
    n_events = len(text.strip().splitlines())

    _, packed = run_service(text, "frames")
    assert packed.queue_bytes > 0
    # edge allocations are per *new element*, far below one per event
    assert 0 < packed.edge_allocs < n_events / 4


def test_binary_request_on_text_only_stream_is_an_error():
    text = trace_text()
    out = io.StringIO()
    with RaceDetectionService(ServiceConfig(n_shards=2, workers="inline",
                                            flush_interval=0)) as service:
        reader = io.StringIO("!binary\n" + text)
        service.handle_stream(reader, out)  # binary=None: stdin mode
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("error")
    assert any(line.startswith("ok eof") for line in lines)  # stream continued


def test_tcp_client_binary_round_trip():
    events = TRACE.generate(seed=11)
    with RaceDetectionService(ServiceConfig(n_shards=2, workers="inline",
                                            flush_interval=0)) as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.tcp("127.0.0.1", port) as client:
                assert client.enable_binary() is True
                assert client.enable_binary() is True  # idempotent
                client.stream(events)
                client.flush()
                assert client.ping()
                binary_races = sorted(map(repr, (r[:3] for r in client.races)))
                binary_seqs = sorted(r.seq for r in client.races)

            one_shot = detect_over_socket(events, "127.0.0.1", port, binary=True)
            assert sorted(map(repr, (r[:3] for r in one_shot))) == binary_races

            with ServiceClient.tcp("127.0.0.1", port) as client:
                client.reset()  # seq keeps counting; compare *relative* tags
                client.stream(events)
                client.flush()
                text_races = sorted(map(repr, (r[:3] for r in client.races)))
                text_seqs = sorted(r.seq for r in client.races)
        finally:
            server.shutdown()
            server.server_close()
    assert text_races == binary_races
    offset = text_seqs[0] - binary_seqs[0]
    assert [s - offset for s in text_seqs] == binary_seqs


def test_enable_binary_downgrades_against_an_old_server():
    """A pre-binary server answers `!binary` with an error line; the client
    must report False and keep the connection usable in text mode."""
    ours, theirs = socket.socketpair()

    def old_server():
        with theirs, theirs.makefile("rw", encoding="utf-8") as stream:
            line = stream.readline()
            assert line.strip() == "!binary"
            stream.write("race 1.f write:1:0:0 write:2:0:0 seq=9\n")
            stream.write("error unknown control command 'binary'\n")
            stream.flush()

    thread = threading.Thread(target=old_server, daemon=True)
    thread.start()
    with ServiceClient(ours) as client:
        assert client.enable_binary() is False
        assert not client.binary
        assert len(client.races) == 1  # races seen mid-negotiation are kept
    thread.join(timeout=2)


def test_iter_packed_frames_round_trip(tmp_path):
    text = trace_text(seed=5)
    events = [parse_event(line) for line in text.strip().splitlines()]

    from repro.core.encode import FrameDecoder

    frames = list(iter_packed_frames(io.StringIO(text), events_per_frame=16))
    assert len(frames) == -(-len(events) // 16)  # ceil division
    decoder = FrameDecoder()
    decoded = [pair for frame in frames for pair in decoder.decode_payload(frame)]
    from tests.core.test_encode import normalize

    assert [e for _, e in decoded] == [normalize(e) for e in events]
    assert [seq for seq, _ in decoded] == list(range(len(events)))

    # .gz paths stream through the same path
    import gzip

    path = tmp_path / "trace.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("# comment\n\n" + text)
    gz_frames = list(iter_packed_frames(str(path), events_per_frame=16))
    assert gz_frames == frames


def test_corrupt_wire_frame_lands_in_the_parse_error_ring(reference):
    """A junk opcode inside a binary FRAME_EVENTS payload must be rejected
    at the edge as bad input -- connection and shards keep going."""
    text, expected = reference
    frames = list(iter_packed_frames(io.StringIO(text), 32))
    from repro.core.encode import decode_frame, encode_frame

    base, delta, records, extras = decode_frame(frames[0])
    records[0] = 99
    corrupt = encode_frame(base, delta, records, extras)

    config = ServiceConfig(n_shards=2, workers="inline", batch_size=16,
                           flush_interval=0)
    out = io.StringIO()
    buf = io.BytesIO()
    buf.write(pack_frame(FRAME_EVENTS, corrupt))  # rejected up front
    for frame in frames:
        buf.write(pack_frame(FRAME_EVENTS, frame))  # then the real stream
    buf.seek(0)
    with RaceDetectionService(config) as service:
        service.handle_stream(iter(["!binary\n"]), out, binary=buf)
        stats = service.stats()
        health = service.health()
    races = sorted(
        line for line in out.getvalue().splitlines() if line.startswith("race ")
    )
    assert races == expected  # the good frames all still applied
    assert stats.parse_errors == 1
    assert any("opcode" in line for line in health["last_parse_errors"])


def test_worker_apply_errors_drain_into_the_parse_error_ring(reference):
    """``engine.apply_errors`` (worker 'err' acks / inline-apply faults) are
    folded into the service's parse-error accounting at snapshot time."""
    text, _ = reference
    config = ServiceConfig(n_shards=1, workers="inline", batch_size=16,
                           flush_interval=0)
    out = io.StringIO()
    with RaceDetectionService(config) as service:
        service.handle_stream(io.StringIO(text), out)
        before = service.stats().parse_errors
        service.engine.apply_errors.append(
            "shard 0: unknown opcode 99 at record 7 (0/16 records applied)"
        )
        stats = service.stats()
        health = service.health()
    assert stats.parse_errors == before + 1
    assert service.engine.apply_errors == []  # drained, not re-counted
    assert any("unknown opcode" in line for line in health["last_parse_errors"])
