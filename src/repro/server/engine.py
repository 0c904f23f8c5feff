"""The sharded detection engine behind the streaming service.

The paper's own data layout makes Goldilocks shardable: all inter-thread
ordering flows through the single synchronization-event list, while each
data variable's race state (its last-write/last-read ``Info`` records and
their locksets) is private to that variable.  So the engine

* **broadcasts** synchronization events (acquire/release, volatile ops,
  fork/join, commits) and allocations to every shard -- each shard keeps an
  identical replica of the synchronization-event list;
* **hash-partitions** data reads/writes by variable across ``n_shards``
  workers, each worker owning the detector state for its partition.

A shard's verdicts are then *identical* to an unsharded detector's: a data
access for variable ``v`` never mutates anything another variable's checks
read, so deleting the other partitions' accesses from a shard's input
changes nothing for ``v``.  Commits are the one action in both worlds --
they are broadcast (synchronization role), and every shard checks only the
footprint variables it owns (data role) via
:meth:`PartitionedGoldilocks._commit_vars`.

Workers run either **in-process** (``workers="inline"``, deterministic and
dependency-free: ideal for tests and the cost-model benchmark) or as
**separate processes** (``workers="process"``, ``multiprocessing`` queues,
sidestepping the GIL so detection scales with cores).  Batching amortizes
queue overhead; bounded task queues give backpressure: when a shard falls
behind, ``submit`` blocks instead of buffering unboundedly.  The result
path costs per batch, not per event: the router looks at the workers'
result queue once per pushed batch and on each poll, and only while some
batch is still unacknowledged.

Every shard runs :class:`~repro.core.kernel.EncodedGoldilocks` and every
batch travels in one packed form.  Events are translated once at the edge
(:class:`~repro.core.encode.EventEncoder`) into flat integer records.
Inline shards receive each batch's interner delta and record arrays
directly (:meth:`EncodedGoldilocks.ingest_delta` + ``apply_records``);
process workers receive it as one immutable frame ``bytes`` (sync records
broadcast as the same buffer content, never N pickled copies) through
:meth:`EncodedGoldilocks.apply_packed`.  Either way sync records are
appended verbatim, and races from process workers come back as packed int
rows reconstituted to :class:`RaceReport` only here at the edge.  Inline
versus process is the only axis; the offline :class:`~repro.core.lazy.
LazyGoldilocks` stays the reference the tests compare against.

Variable-to-shard routing uses CRC32, not ``hash()``: Python string hashes
are salted per process, and the router and workers must agree.  In packed
mode the route is computed from the interned ints (cached per variable id),
never by re-deriving strings per event.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import time
import zlib
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.actions import (
    OP_ALLOC,
    OP_COMMIT,
    OP_JOIN,
    OP_READ,
    OP_WRITE,
    Commit,
    DataVar,
    Event,
    Read,
    Write,
)
from ..core.encode import (
    FILTERED_VAR,
    RECORD_WIDTH,
    EventEncoder,
    FrameFormatError,
    decode_frame,
    decode_interner_snapshot,
    encode_frame,
    encode_interner_snapshot,
    format_trace_id,
    make_trace_id,
    pack_report,
    split_trace,
    unpack_reports,
)
from ..core.kernel import EncodedGoldilocks
from ..core.report import RaceReport
from ..core.stats import detector_work_of, short_circuit_rate_of
from ..obs.flightrec import FlightRecorder
from ..obs.tracing import LifecycleTracer, ObsConfig
from .protocol import format_race
from .stats import ServiceStats, ShardStats

#: a race report tagged with the ingestion sequence number that completed it
SeqReport = Tuple[int, RaceReport]


def shard_of(var: DataVar, n_shards: int) -> int:
    """Stable variable-to-shard mapping (identical across processes)."""
    if n_shards <= 1:
        return 0
    key = f"{var.obj.value}.{var.field}".encode("utf-8")
    return zlib.crc32(key) % n_shards


class PartitionedGoldilocks(EncodedGoldilocks):
    """One hash partition of the variables, on the integer-encoded kernel.

    Synchronization events must be fed to every partition (they are cheap:
    one list append); data accesses only to the owning one.  Accesses that
    slip through for foreign variables are ignored rather than mis-checked.

    ``name`` stays "goldilocks" (inherited) so reports are byte-identical to
    the offline detector's; the partition is carried in ``label`` instead.
    """

    def __init__(self, shard_id: int = 0, n_shards: int = 1, **kwargs) -> None:
        super().__init__(**kwargs)
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.label = f"shard {shard_id}/{n_shards}"
        self._own_cache: Dict[int, bool] = {}

    def owns(self, var: DataVar) -> bool:
        return shard_of(var, self.n_shards) == self.shard_id

    def process(self, event: Event) -> List[RaceReport]:
        action = event.action
        if isinstance(action, (Read, Write)) and not self.owns(action.var):
            return []
        return super().process(event)

    def _commit_vars(self, action: Commit) -> List[DataVar]:
        return [var for var in super()._commit_vars(action) if self.owns(var)]

    def _packed_owns(self, var_id: int) -> bool:
        # Same crc32 partition, but decided once per variable *id*: packed
        # frames guarantee stable ids, so the route is a dict hit and the
        # variable is resolved only on a miss.
        cached = self._own_cache.get(var_id)
        if cached is None:
            var = self.interner.resolve(var_id)
            cached = self._own_cache[var_id] = self.owns(var)
        return cached

    # The base reset() re-invokes __init__ from the stored detector kwargs;
    # prepend our partition coordinates.
    def reset(self) -> None:
        self.__init__(self.shard_id, self.n_shards, **self._config)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["partition"] = (self.shard_id, self.n_shards)
        return state

    def __setstate__(self, state: dict) -> None:
        self.shard_id, self.n_shards = state.pop("partition")
        super().__setstate__(state)
        self.label = f"shard {self.shard_id}/{self.n_shards}"
        self._own_cache = {}


@dataclass
class EngineConfig:
    """Tunables for :class:`ShardedEngine`."""

    n_shards: int = 1
    #: events buffered per shard before a batch is pushed
    batch_size: int = 64
    #: bound on in-flight (unacknowledged) batches per shard; full = block
    queue_depth: int = 8
    #: "process" for multiprocessing workers, "inline" for in-process shards
    workers: str = "process"
    #: forwarded to each shard's detector
    commit_sync: str = "footprint"
    gc_threshold: Optional[int] = 50_000
    #: observability tunables; None means the :class:`ObsConfig` defaults
    #: (stage counters on, span sampling off, flight recorder ring on but
    #: not writing files)
    obs: Optional[ObsConfig] = None
    #: cluster node mode: the *global* partition count of the cluster this
    #: engine is a node of.  When set, hosted shards are global partitions
    #: ``(group, n_groups)``, wire frames keep their sender-assigned seq and
    #: interner ids, and groups can be adopted/retired at runtime.
    n_groups: Optional[int] = None
    #: global partitions hosted from the start (node mode; may be empty --
    #: a coordinator assigns groups via ``adopt_group``)
    groups: Tuple[int, ...] = ()
    #: static admission filter (:class:`repro.analysis.admission.AdmissionFilter`)
    #: consulted at the ingestion edge: data accesses it proves race-free are
    #: dropped before they reach a queue, a shard, or the kernel.  Sync
    #: events always pass.  ``None`` admits everything.
    admit: Optional[object] = None

    @property
    def node_mode(self) -> bool:
        return self.n_groups is not None

    def detector_kwargs(self) -> dict:
        kwargs = {"commit_sync": self.commit_sync, "gc_threshold": self.gc_threshold}
        if self.obs is not None and self.obs.provenance:
            kwargs["provenance"] = True
        return kwargs


class _PackedBuffer:
    """One shard's pending records before they are framed and pushed."""

    __slots__ = ("records", "extras", "count")

    def __init__(self) -> None:
        self.records = array("q")
        self.extras = array("q")
        self.count = 0


class WireIngest:
    """Per-connection state for ingesting binary wire frames.

    Wire frames carry *client-assigned* interner ids.  Each newly announced
    element is interned once into the engine's master interner and the id
    translation is remembered, so records are rewritten int-for-int --
    still no ``Event`` objects.

    In cluster node mode no remapping happens at all -- the node adopts the
    coordinator's id space verbatim -- and ``replay_group``, when set by the
    ``!replay`` verb, targets every record of subsequent frames at exactly
    one hosted group (the migration delta-replay path).
    """

    __slots__ = ("remap", "replay_group")

    def __init__(self) -> None:
        self.remap: List[int] = [0]  # client id 0 is TL on both sides
        self.replay_group: Optional[int] = None


def _shard_worker(
    shard_id, n_shards, detector_kwargs, blob, task_q, result_q, timed=False
):
    """Worker-process main loop: apply frames, acknowledge with results.

    With ``timed`` (set when the engine's lifecycle tracer is enabled) each
    batch ack carries the wall-clock apply duration as its last element, so
    the router can fill the ``apply`` stage histogram without a second
    cross-process round trip.
    """
    if blob is not None:
        detector = pickle.loads(blob)
    else:
        detector = PartitionedGoldilocks(shard_id, n_shards, **detector_kwargs)
    try:
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "frame":
                t_apply = time.perf_counter() if timed else 0.0
                try:
                    reports, n = detector.apply_packed(msg[1])
                except FrameFormatError as exc:
                    # A malformed frame must not kill the worker (the
                    # router would hang at the next barrier waiting for
                    # this ack).  Acknowledge the batch as an error;
                    # ``applied`` says how much of it took effect.
                    result_q.put(
                        (
                            "ack",
                            shard_id,
                            exc.applied or 0,
                            ("err", (str(exc), exc.kind, exc.record,
                                     exc.applied or 0)),
                            detector.stats.as_dict(),
                            time.perf_counter() - t_apply if timed else 0.0,
                        )
                    )
                    continue
                payload = (
                    "packed",
                    [
                        pack_report(seq, report, detector.interner)
                        for seq, report in reports
                    ],
                )
                apply_sec = time.perf_counter() - t_apply if timed else 0.0
                result_q.put(
                    (
                        "ack",
                        shard_id,
                        n,
                        payload,
                        detector.stats.as_dict(),
                        apply_sec,
                    )
                )
            elif kind == "checkpoint":
                result_q.put(("checkpoint", shard_id, detector.checkpoint()))
            elif kind == "reset":
                detector.reset()
                result_q.put(
                    (
                        "ack",
                        shard_id,
                        0,
                        ("packed", []),
                        detector.stats.as_dict(),
                        0.0,
                    )
                )
            elif kind == "stop":
                result_q.put(("stopped", shard_id))
                break
    except KeyboardInterrupt:
        # A terminal Ctrl-C is delivered to the whole foreground process
        # group; the router handles the shutdown -- die quietly instead of
        # spraying one traceback per shard.
        pass


class ShardedEngine:
    """Routes an event stream across detection shards; collects reports.

    The engine is *not* thread-safe by itself -- the service serializes
    access with one ingestion lock.  Reports come back asynchronously
    (tagged with ingestion sequence numbers); :meth:`poll_reports` drains
    whatever has arrived, :meth:`barrier` waits until every submitted event
    is fully processed.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        checkpoints: Optional[Sequence[bytes]] = None,
        seq_start: int = 0,
        **kwargs,
    ) -> None:
        self.config = config or EngineConfig(**kwargs)
        node_mode = self.config.node_mode
        if not node_mode and self.config.n_shards < 1:
            raise ValueError("need at least one shard")
        if self.config.workers not in ("process", "inline"):
            raise ValueError(f"unknown worker mode {self.config.workers!r}")
        if node_mode and self.config.n_groups < 1:
            raise ValueError("node mode needs at least one global group")
        #: the global partition count: cluster-wide groups in node mode,
        #: local shards otherwise (variable -> partition is crc32 % this)
        self._partitions = (
            self.config.n_groups if node_mode else self.config.n_shards
        )
        #: global partition id hosted at each local slot; all per-shard
        #: state below is indexed by *slot*.  Normal mode: slot == shard id.
        self._slot_groups: List[int] = (
            list(self.config.groups) if node_mode else list(range(self.config.n_shards))
        )
        for g in self._slot_groups:
            if not 0 <= g < self._partitions:
                raise ValueError(f"group {g} out of range [0, {self._partitions})")
        if len(set(self._slot_groups)) != len(self._slot_groups):
            raise ValueError("duplicate hosted groups")
        self._slot_of: Dict[int, int] = {
            g: i for i, g in enumerate(self._slot_groups)
        }
        n = len(self._slot_groups)
        self._seq = seq_start
        self._started = time.monotonic()
        self._closed = False
        self._checkpoints: Dict[int, bytes] = {}
        self._reports: List[SeqReport] = []
        self._buffers: List[_PackedBuffer] = [_PackedBuffer() for _ in range(n)]
        self._encoder = EventEncoder(self._partitions, admit=self.config.admit)
        self._cursors = [1] * n  # every replica interner starts with just TL
        #: node mode: data records for groups this node does not host
        self.foreign_dropped = 0
        restored = None
        if checkpoints is not None:
            if node_mode:
                raise ValueError(
                    "node mode restores per group via adopt_group(blob)"
                )
            if len(checkpoints) != n:
                raise ValueError(
                    f"{len(checkpoints)} checkpoint blobs for {n} shards"
                )
            restored = [pickle.loads(blob) for blob in checkpoints]
            # Re-prime the edge encoder from the longest shard replica (after
            # the pre-checkpoint barrier they are all equal to the master),
            # so the restored engine reuses the original id assignments, and
            # re-sync every shard cursor from its *checkpointed* position
            # instead of 1 -- a restored shard gets an empty delta on its
            # first frame rather than a full interner re-send.
            master = max((d.interner for d in restored), key=len)
            self._encoder.prime(master)
            self._cursors = [
                max(1, min(len(d.interner), len(master))) for d in restored
            ]
        self._sent_batches = [0] * n
        self._acked_batches = [0] * n
        self._sent_events = [0] * n
        self._acked_events = [0] * n
        self._shard_stats: List[Dict[str, int]] = [{} for _ in range(n)]
        # ingestion counters surfaced in ServiceStats
        self.events_ingested = 0
        self.sync_broadcast = 0
        self.data_routed = 0
        #: data accesses past the admission filter / dropped by it at the edge
        self.data_admitted = 0
        self.data_filtered = 0
        self.batches_flushed = 0
        self.backpressure_stalls = 0
        #: bytes shipped to shards (frame bytes; the fused inline path
        #: counts the raw record/extra ints it hands over, so the meaning
        #: -- payload shipped to a shard -- is the same in both worker modes)
        self.queue_bytes = 0
        #: frame-application faults (malformed frames a shard rejected);
        #: drained by the service into its parse-error ring
        self.apply_errors: List[str] = []
        #: structured mirror of ``apply_errors``: the typed
        #: :class:`FrameFormatError` detail (kind/record/applied) the
        #: service surfaces through ``!health`` and ``repro-obs errors``
        self.apply_faults: List[dict] = []
        #: reports that arrived carrying a provenance chain
        self.provenance_attached = 0
        #: trace context adopted from the most recent traced wire frame
        #: (a coordinator-minted id); None until one arrives, in which
        #: case locally pushed batches mint their own ids when tracing
        self._trace_ctx: Optional[int] = None
        # -- observability: lifecycle tracer plus the race flight recorder.
        # The tracer degrades to no-ops when fully disabled; the recorder
        # stores packed frames verbatim and never writes files unless a
        # dump directory is configured.  Node
        # mode skips the recorder: its per-shard rings assume a fixed shard
        # count, and hosted groups come and go with migrations.
        self.obs_config = self.config.obs or ObsConfig()
        self.tracer = LifecycleTracer(self.obs_config)
        self.recorder: Optional[FlightRecorder] = None
        if self.obs_config.flightrec and not node_mode:
            self.recorder = FlightRecorder(
                n,
                self._encoder.interner,
                capacity=self.obs_config.flightrec_capacity,
                directory=self.obs_config.flightrec_dir,
                max_dumps=self.obs_config.flightrec_max_dumps,
                commit_sync=self.config.commit_sync,
            )
        #: per-shard FIFO of in-flight batches: (ordinal, events, sent-at,
        #: span dict or None); acknowledgments pop in push order
        self._inflight: List[Deque[Tuple[int, int, float, Optional[dict]]]] = [
            deque() for _ in range(n)
        ]
        if self.config.workers == "inline":
            if restored is not None:
                self._detectors = restored
            else:
                self._detectors = [
                    PartitionedGoldilocks(
                        g, self._partitions, **self.config.detector_kwargs()
                    )
                    for g in self._slot_groups
                ]
        else:
            ctx = mp.get_context()
            self._result_q = ctx.Queue()
            self._task_qs = [
                ctx.Queue(maxsize=self.config.queue_depth) for _ in range(n)
            ]
            self._procs = [
                ctx.Process(
                    target=_shard_worker,
                    args=(
                        g,
                        self._partitions,
                        self.config.detector_kwargs(),
                        checkpoints[i] if checkpoints is not None else None,
                        self._task_qs[i],
                        self._result_q,
                        self.obs_config.enabled,
                    ),
                    daemon=True,
                )
                for i, g in enumerate(self._slot_groups)
            ]
            for proc in self._procs:
                proc.start()

    # -- ingestion -------------------------------------------------------------

    @property
    def edge_allocs(self) -> int:
        """Per-event allocation proxy: what ingestion *had* to materialize.

        One per newly seen element, so ~0 per event in steady state.
        """
        return self._encoder.cache_misses

    def submit(self, event: Event, seq: Optional[int] = None) -> int:
        """Route one event; returns its ingestion sequence number.

        Data accesses go to their owning shard's batch buffer; everything
        else (synchronization, commits, allocations) is appended to every
        shard's buffer.  Full buffers are pushed; a full task queue blocks
        (backpressure) until the shard catches up.
        """
        op, tid_id, index, a, b, extras = self._encoder.encode_event(event)
        return self._ingest_record(op, tid_id, index, a, b, extras, seq)

    def submit_line(self, line: str) -> int:
        """Ingest one trace text line.

        This is the encode-once fast path: the line becomes an integer
        record directly, constructing zero dataclasses in steady state.
        Raises on malformed input (before any caches are touched),
        mirroring :func:`repro.trace.io.parse_event`.
        """
        op, tid_id, index, a, b, extras = self._encoder.encode_line(line)
        return self._ingest_record(op, tid_id, index, a, b, extras, None)

    def _ingest_record(
        self,
        op: int,
        tid_id: int,
        index: int,
        a: int,
        b: int,
        extras: Optional[List[int]],
        seq: Optional[int],
        only_slot: Optional[int] = None,
    ) -> int:
        if seq is None:
            seq = self._seq
        self._seq = seq + 1
        self.events_ingested += 1
        if only_slot is not None:
            # Migration delta replay: every record of the frame -- data and
            # the window's sync tail alike -- is targeted at exactly the
            # adopted group's slot, never broadcast (the other slots already
            # saw those sync records through the normal stream).
            targets: Sequence[int] = (only_slot,)
            if op == OP_READ or op == OP_WRITE:
                if a < 0:
                    self.data_filtered += 1
                    return seq
                self.data_routed += 1
            else:
                self.sync_broadcast += 1
        elif op == OP_READ or op == OP_WRITE:
            if a < 0:
                # admission-filtered access: consumes its sequence number
                # (race-line parity with unfiltered runs) but ships nowhere
                self.data_filtered += 1
                return seq
            self.data_routed += 1
            self.data_admitted += 1
            slot = self._slot_of.get(self._encoder.shard_of_var(a))
            if slot is None:
                # node mode: the owning group lives on some other node
                self.foreign_dropped += 1
                return seq
            targets = (slot,)
        else:
            self.sync_broadcast += 1
            targets = range(len(self._slot_groups))
        for shard in targets:
            buffer = self._buffers[shard]
            if extras is None:
                local_a = a
            else:
                local_a = len(buffer.extras)
                buffer.extras.extend(extras)
            buffer.records.extend((op, seq, tid_id, index, local_a, b))
            buffer.count += 1
            if buffer.count >= self.config.batch_size:
                self._push(shard)
        return seq

    def submit_wire_frame(self, payload: bytes, state: WireIngest) -> int:
        """Ingest one client-encoded binary frame; returns events accepted.

        Client interner ids are rewritten to engine ids through the
        connection's :class:`WireIngest` remap (each element decoded and
        interned exactly once per connection); the client's local sequence
        numbers are discarded -- the engine assigns its own, so binary and
        text ingestion of the same stream produce identical ``seq`` tags.

        Cluster node mode inverts both choices: the sender is the
        coordinator, whose id space and sequence numbers are *the* cluster
        truth, so ids are adopted verbatim (the node's interner is a prefix
        replica of the coordinator's master) and each record keeps its wire
        ``seq`` -- race lines come out tagged exactly as a single-node run
        would tag them.
        """
        # A trace envelope (frame version 2) is peeled off before any
        # decoding: downstream consumers -- decoders, shards, the flight
        # recorder -- always see plain v1 bytes, so traced and untraced
        # ingestion of the same stream stay byte-identical past this line.
        trace_id, payload = split_trace(payload)
        if trace_id is not None:
            self._trace_ctx = trace_id
        if self.config.node_mode:
            return self._ingest_node_frame(payload, state)
        base, delta, records, extras = decode_frame(payload)
        remap = state.remap
        if len(remap) < base:
            raise ValueError(
                f"frame assumes {base} announced elements, connection has {len(remap)}"
            )
        for i, element in enumerate(delta):
            if base + i < len(remap):
                continue
            remap.append(self._encoder.intern_element(element))
        def wire_id(cid: int, record: int, applied: int) -> int:
            """Remap one client id; typed error on ids never announced."""
            if not 0 <= cid < len(remap):
                raise FrameFormatError(
                    f"wire frame references unannounced client id {cid} "
                    f"at record {record}",
                    record=record,
                    applied=applied,
                )
            return remap[cid]

        count = 0
        for i in range(0, len(records), RECORD_WIDTH):
            record = i // RECORD_WIDTH
            op, _seq, tid_id, index, a, b = records[i : i + RECORD_WIDTH]
            tid_id = wire_id(tid_id, record, count)
            local_extras: Optional[List[int]] = None
            if op <= OP_JOIN:
                a = wire_id(a, record, count)
                b = wire_id(b, record, count)
            elif op == OP_COMMIT:
                n_vars = extras[a]
                local_extras = [n_vars]
                for j in range(a + 1, a + 1 + 2 * n_vars, 2):
                    cid = extras[j]
                    # A filtered footprint entry travels as FILTERED_VAR;
                    # remapping it would silently alias the *last* announced
                    # element (remap[-1]) -- preserve the sentinel instead.
                    local_extras.append(
                        cid if cid < 0 else wire_id(cid, record, count)
                    )
                    local_extras.append(extras[j + 1])
                a = b = 0
            elif op in (OP_READ, OP_WRITE, OP_ALLOC):
                # Same sentinel rule: an already-filtered access stays
                # filtered; only real ids go through the remap.
                if a >= 0:
                    a = wire_id(a, record, count)
                    if op != OP_ALLOC and not self._encoder.admit_var_id(a):
                        a = FILTERED_VAR
            else:
                raise FrameFormatError(
                    f"unknown opcode {op} in wire frame at record {record}",
                    kind=op,
                    record=record,
                    applied=count,
                )
            self._ingest_record(op, tid_id, index, a, b, local_extras, None)
            count += 1
        return count

    def _ingest_node_frame(self, payload: bytes, state: WireIngest) -> int:
        """Node-mode frame ingestion: coordinator ids and seq pass through.

        The delta is interned through the encoder's caches (not appended
        raw) so the variable-to-group route stays a dict hit; because the
        delta arrives in id order and this replica is a prefix of the
        sender's master, the assigned ids must line up exactly -- a mismatch
        means the connection does not share our id space and is an error,
        not something to remap around.
        """
        base, delta, records, extras = decode_frame(payload)
        interner = self._encoder.interner
        if len(interner) < base:
            raise ValueError(
                f"frame assumes {base} interned elements, node has {len(interner)}"
            )
        for i, element in enumerate(delta):
            if base + i < len(interner):
                continue
            got = self._encoder.intern_element(element)
            if got != base + i:
                raise ValueError(
                    f"node interner diverged: element {base + i} interned as {got}"
                )
        only_slot: Optional[int] = None
        if state.replay_group is not None:
            only_slot = self._slot_of.get(state.replay_group)
            if only_slot is None:
                raise ValueError(
                    f"replay target group {state.replay_group} is not hosted here"
                )
        count = 0
        for i in range(0, len(records), RECORD_WIDTH):
            op, seq, tid_id, index, a, b = records[i : i + RECORD_WIDTH]
            local_extras: Optional[List[int]] = None
            if op == OP_COMMIT:
                n_vars = extras[a]
                local_extras = list(extras[a : a + 1 + 2 * n_vars])
                a = b = 0
            elif (
                (op == OP_READ or op == OP_WRITE)
                and a >= 0
                and not self._encoder.admit_var_id(a)
            ):
                # defense in depth: a coordinator with the same filter
                # already dropped these, so this normally never fires
                a = FILTERED_VAR
            self._ingest_record(
                op, tid_id, index, a, b, local_extras, seq, only_slot=only_slot
            )
            count += 1
        return count

    def wire_state(self) -> WireIngest:
        """Fresh per-connection state for :meth:`submit_wire_frame`."""
        return WireIngest()

    def flush(self) -> None:
        """Push every non-empty batch buffer to its shard."""
        for shard in range(len(self._slot_groups)):
            if self._buffers[shard].count:
                self._push(shard)
        self._drain(block=False)

    def _make_span(
        self, ordinal: int, n_events: int, route_sec: float
    ) -> Optional[dict]:
        """A sampled batch's span seed, trace-tagged when tracing is on.

        The trace id is the adopted wire context when one exists (cluster
        node: every node stamps the coordinator's id, so the spans stitch),
        otherwise minted locally from (node label, batch ordinal).  The
        trace fields ride the span dict and are popped back out in
        :meth:`_finish_batch` before the rest becomes ``stage_sec``.
        """
        if not self.tracer.should_sample(ordinal):
            return None
        span = {"batch": ordinal, "events": n_events, "route": route_sec}
        if self.obs_config.trace:
            ctx = self._trace_ctx
            if ctx is None:
                ctx = make_trace_id(self.obs_config.node, ordinal)
            span["trace_id"] = format_trace_id(ctx)
            if self.obs_config.node:
                span["node"] = self.obs_config.node
        return span

    def _push(self, shard: int) -> None:
        self.batches_flushed += 1
        ordinal = self.batches_flushed
        self._sent_batches[shard] += 1
        tracer = self.tracer
        t_route = tracer.clock()
        buffer, self._buffers[shard] = self._buffers[shard], _PackedBuffer()
        n_events = buffer.count
        inline = self.config.workers == "inline"
        cursor = self._cursors[shard]
        delta = self._encoder.interner.elements_since(cursor)
        self._cursors[shard] = len(self._encoder.interner)
        # Fused routing+apply: an in-process shard consumes raw record
        # arrays, so building (and immediately re-parsing) a framed byte
        # buffer is pure overhead -- hand the interner delta and the arrays
        # over directly.  Process workers need bytes.
        if inline:
            self.queue_bytes += 8 * (len(buffer.records) + len(buffer.extras))
            frame = None
        else:
            frame = encode_frame(cursor, delta, buffer.records, buffer.extras)
            self.queue_bytes += len(frame)
        self._sent_events[shard] += n_events
        if self.recorder is not None:
            # The buffer's arrays would be garbage after this point;
            # the flight recorder adopts them instead (no copy).  On
            # the fused path this happens *before* apply, so a frame
            # the kernel later faults on is still in the ring.
            self.recorder.record(shard, buffer.records, buffer.extras)
        route_sec = tracer.clock() - t_route
        tracer.observe_elapsed("route", route_sec)
        span = self._make_span(ordinal, n_events, route_sec)
        self._inflight[shard].append((ordinal, n_events, tracer.clock(), span))
        if inline:
            detector = self._detectors[shard]
            t_apply = tracer.clock()
            # Never raise between the in-flight append and the ack --
            # an escaped exception would wedge the next barrier().
            try:
                detector.ingest_delta(cursor, delta)
                reports, n = detector.apply_records(buffer.records, buffer.extras)
            except FrameFormatError as exc:
                self.apply_errors.append(
                    f"<frame rejected by shard {self._slot_groups[shard]}: "
                    f"{exc} ({exc.applied or 0}/{n_events} records applied)>"
                )
                self.apply_faults.append(
                    {
                        "message": str(exc),
                        "kind": exc.kind,
                        "record": exc.record,
                        "applied": exc.applied or 0,
                        "shard": self._slot_groups[shard],
                    }
                )
                reports, n = [], exc.applied or 0
            apply_sec = tracer.clock() - t_apply
            self._apply_ack_inline(shard, n, reports, detector, apply_sec)
            return
        message = ("frame", frame)
        task_q = self._task_qs[shard]
        try:
            task_q.put_nowait(message)
        except queue_mod.Full:
            self.backpressure_stalls += 1
            while True:
                try:
                    task_q.put(message, timeout=0.05)
                    break
                except queue_mod.Full:
                    # Keep acknowledgments moving while we wait, so a slow
                    # shard cannot wedge the whole ingestion path.
                    self._drain(block=False)
        # One look at the result queue per pushed batch keeps acks (and the
        # worker's pipe) moving even when nobody polls for reports.
        self._drain(block=False)

    # -- results ---------------------------------------------------------------

    def _apply_ack_inline(
        self, shard, n_events, reports, detector, apply_sec=0.0
    ) -> None:
        self._acked_batches[shard] += 1
        self._acked_events[shard] += n_events
        self._shard_stats[shard] = detector.stats.as_dict()
        if reports:
            self._reports.extend(reports)
            self.provenance_attached += sum(
                1 for _seq, r in reports if r.provenance is not None
            )
            self._dump_on_race(shard, reports)
        self._finish_batch(shard, apply_sec)

    def _apply_ack(self, shard, n_events, payload, stats_dict, apply_sec=0.0) -> None:
        self._acked_batches[shard] += 1
        self._acked_events[shard] += n_events
        tag, rows = payload
        if tag == "err":
            message, kind, record, applied = rows
            self.apply_errors.append(
                f"<frame rejected by shard {self._slot_groups[shard]}: "
                f"{message} (record {record}, {applied} applied)>"
            )
            self.apply_faults.append(
                {
                    "message": message,
                    "kind": kind,
                    "record": record,
                    "applied": applied,
                    "shard": self._slot_groups[shard],
                }
            )
            rows = []
        else:
            rows = unpack_reports(rows, self._encoder.interner)
        self._shard_stats[shard] = stats_dict
        if rows:
            self._reports.extend(rows)
            self.provenance_attached += sum(
                1 for _seq, r in rows if r.provenance is not None
            )
            self._dump_on_race(shard, rows)
        self._finish_batch(shard, apply_sec)

    def _finish_batch(self, shard: int, apply_sec: float) -> None:
        """Close the queue/apply stages for the oldest in-flight batch."""
        try:
            ordinal, _events, sent_at, span = self._inflight[shard].popleft()
        except IndexError:  # pragma: no cover - defensive; pushes pair acks
            return
        if ordinal < 0:
            return  # reset sentinel: no stage measurements for it
        tracer = self.tracer
        queue_sec = tracer.clock() - sent_at
        tracer.observe_elapsed("queue", queue_sec)
        tracer.observe_elapsed("apply", apply_sec)
        if span is not None:
            trace_id = span.pop("trace_id", None)
            node = span.pop("node", None)
            span["queue"] = queue_sec
            span["apply"] = apply_sec
            tracer.emit_span(
                span.pop("batch"),
                shard,
                span.pop("events"),
                span,
                trace_id=trace_id,
                node=node,
            )

    def _dump_on_race(self, shard: int, reports: List[SeqReport]) -> None:
        """Snapshot the shard's flight ring the moment it reports races."""
        recorder = self.recorder
        if recorder is None or recorder.directory is None:
            return
        lines = [format_race(seq, report) for seq, report in reports]
        provenance = [report.provenance for _seq, report in reports]
        if not any(p is not None for p in provenance):
            provenance = None
        recorder.dump(shard, lines, "race", provenance=provenance)

    def _drain(self, block: bool) -> None:
        """Apply whatever the workers have sent back.

        Every ``ack`` pairs with one in-flight batch (reset sentinels
        included), so once each slot has ``acked == sent`` a non-blocking
        look at the result queue can only come back empty: it returns
        without touching the queue, and the ``poll()`` syscall behind
        ``Queue.get`` is paid only while batches are in flight.
        ``checkpoint`` and ``stopped`` replies are awaited by the blocking
        loops alone.
        """
        if self.config.workers == "inline":
            return  # inline acks are applied synchronously in _push
        while block or self._acked_batches != self._sent_batches:
            try:
                msg = self._result_q.get(block=block, timeout=0.5 if block else None)
            except queue_mod.Empty:
                return
            if msg[0] == "ack":
                # Workers identify themselves by *global* partition id;
                # translate to the hosting slot (identity in normal mode).
                self._apply_ack(self._slot_of[msg[1]], msg[2], msg[3], msg[4], msg[5])
                if block:
                    return
            elif msg[0] == "checkpoint":
                self._checkpoints[msg[1]] = msg[2]
                if block:
                    return

    def poll_reports(self) -> List[SeqReport]:
        """Drain already-arrived reports without waiting (seq-tagged).

        Cheap enough to call after every event: with no batch in flight it
        does not touch the workers' result queue at all.
        """
        self._drain(block=False)
        out, self._reports = self._reports, []
        return out

    def barrier(self, timeout: float = 60.0) -> List[SeqReport]:
        """Flush, then wait until every submitted event is acknowledged.

        Returns all reports that arrived since the last drain, sorted by the
        sequence number of the access that completed the race.
        """
        self.flush()
        deadline = time.monotonic() + timeout
        while any(
            self._acked_batches[i] < self._sent_batches[i]
            for i in range(len(self._slot_groups))
        ):
            if time.monotonic() > deadline:
                raise TimeoutError("shard(s) failed to drain before the deadline")
            self._drain(block=True)
        out, self._reports = self._reports, []
        out.sort(key=lambda pair: pair[0])
        return out

    # -- control ---------------------------------------------------------------

    def reset(self) -> None:
        """Restart detection from an empty execution (counters survive)."""
        self.barrier()
        if self.config.workers == "inline":
            for detector in self._detectors:
                detector.reset()
        else:
            for shard, task_q in enumerate(self._task_qs):
                self._sent_batches[shard] += 1
                # A reset ack pops the in-flight FIFO like any batch; the
                # negative ordinal marks it as not a measurable stage.
                self._inflight[shard].append((-1, 0, 0.0, None))
                task_q.put(("reset",))
            self.barrier()
        # Shard interner replicas restarted from scratch: the edge encoder
        # and its per-shard delta cursors must restart with them (sequence
        # numbers keep counting -- the execution restarts, the stream not).
        n = len(self._slot_groups)
        self._encoder = EventEncoder(self._partitions, admit=self.config.admit)
        self._cursors = [1] * n
        self._buffers = [_PackedBuffer() for _ in range(n)]
        self._shard_stats = [{} for _ in range(n)]
        if self.recorder is not None:
            self.recorder.rebind(self._encoder.interner)

    def set_admission(self, admit) -> None:
        """Install (or clear, with ``None``) the admission filter mid-stream.

        Takes effect from the next submitted event; variables already
        interned stay interned, their accesses simply start or stop being
        dropped.  Installing a sound filter mid-stream is itself sound:
        it only removes accesses to variables that can never race.
        """
        self.config.admit = admit
        self._encoder.set_admission(admit)

    def checkpoint(self) -> List[bytes]:
        """Serialize every shard's detector state (drains first)."""
        self.barrier()
        if self.config.workers == "inline":
            return [detector.checkpoint() for detector in self._detectors]
        self._checkpoints = {}
        for task_q in self._task_qs:
            task_q.put(("checkpoint",))
        deadline = time.monotonic() + 60.0
        while len(self._checkpoints) < len(self._slot_groups):
            if time.monotonic() > deadline:
                raise TimeoutError("checkpoint collection timed out")
            self._drain(block=True)
        return [self._checkpoints[g] for g in self._slot_groups]

    # -- cluster node mode: dynamic shard-group hosting -------------------------

    def hosted_groups(self) -> List[int]:
        """The global partition ids this engine currently detects for."""
        return sorted(self._slot_groups)

    def interner_version(self) -> int:
        """This engine's replica version (master interner length)."""
        return len(self._encoder.interner)

    def interner_snapshot(self, since: int = 1) -> bytes:
        """A versioned snapshot of the master interner from ``since``."""
        return encode_interner_snapshot(self._encoder.interner, since)

    def adopt_interner_snapshot(self, blob: bytes) -> int:
        """Fast-forward the edge interner from a snapshot; returns version.

        Elements go through :meth:`EventEncoder.intern_element` (not raw
        interning) so the variable-to-group route cache stays coherent, and
        ids are verified against the snapshot's -- a divergent id space is
        an error, exactly as in :meth:`_ingest_node_frame`.
        """
        since, _total, elements = decode_interner_snapshot(blob)
        have = len(self._encoder.interner)
        if have < since:
            raise ValueError(
                f"snapshot starts at version {since}, node is at {have}"
            )
        for i, element in enumerate(elements):
            if since + i < have:
                continue
            got = self._encoder.intern_element(element)
            if got != since + i:
                raise ValueError(
                    f"node interner diverged: element {since + i} interned as {got}"
                )
        return len(self._encoder.interner)

    def export_group(self, group: int) -> bytes:
        """Checkpoint exactly one hosted group's detector (drains first)."""
        slot = self._slot_of.get(group)
        if slot is None:
            raise ValueError(f"group {group} is not hosted here")
        self.barrier()
        if self.config.workers == "inline":
            return self._detectors[slot].checkpoint()
        self._checkpoints.pop(group, None)
        self._task_qs[slot].put(("checkpoint",))
        deadline = time.monotonic() + 60.0
        while group not in self._checkpoints:
            if time.monotonic() > deadline:
                raise TimeoutError("group checkpoint timed out")
            self._drain(block=True)
        return self._checkpoints.pop(group)

    def adopt_group(self, group: int, blob: Optional[bytes] = None) -> None:
        """Start hosting a global partition, fresh or from a checkpoint.

        The restored detector's interner and this node's master are both
        prefixes of the coordinator's, so the new slot's delta cursor is
        simply the shorter of the two -- the first frame fills whichever
        side is behind, and :func:`extend_interner`'s overlap skip absorbs
        whichever side is ahead.
        """
        if not self.config.node_mode:
            raise ValueError("adopt_group requires cluster node mode")
        if not 0 <= group < self._partitions:
            raise ValueError(f"group {group} out of range [0, {self._partitions})")
        if group in self._slot_of:
            raise ValueError(f"group {group} is already hosted")
        detector = pickle.loads(blob) if blob is not None else None
        cursor = 1
        if detector is not None:
            cursor = max(
                1, min(len(detector.interner), len(self._encoder.interner))
            )
        slot = len(self._slot_groups)
        self._slot_groups.append(group)
        self._slot_of[group] = slot
        self._buffers.append(_PackedBuffer())
        self._cursors.append(cursor)
        self._sent_batches.append(0)
        self._acked_batches.append(0)
        self._sent_events.append(0)
        self._acked_events.append(0)
        self._shard_stats.append({})
        self._inflight.append(deque())
        if self.config.workers == "inline":
            if detector is None:
                detector = PartitionedGoldilocks(
                    group, self._partitions, **self.config.detector_kwargs()
                )
            self._detectors.append(detector)
        else:
            ctx = mp.get_context()
            task_q = ctx.Queue(maxsize=self.config.queue_depth)
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    group,
                    self._partitions,
                    self.config.detector_kwargs(),
                    blob,
                    task_q,
                    self._result_q,
                    self.obs_config.enabled,
                ),
                daemon=True,
            )
            self._task_qs.append(task_q)
            self._procs.append(proc)
            proc.start()

    def retire_group(self, group: int) -> None:
        """Stop hosting a global partition (drains its in-flight work first).

        The migration driver calls this on the source the moment the
        checkpoint is exported: commits are broadcast, so a lingering copy
        of the group would double-report every footprint race during the
        hand-off window.
        """
        if not self.config.node_mode:
            raise ValueError("retire_group requires cluster node mode")
        slot = self._slot_of.get(group)
        if slot is None:
            raise ValueError(f"group {group} is not hosted here")
        self.barrier()
        if self.config.workers == "inline":
            del self._detectors[slot]
        else:
            task_q = self._task_qs.pop(slot)
            proc = self._procs.pop(slot)
            try:
                task_q.put(("stop",), timeout=1.0)
            except queue_mod.Full:  # pragma: no cover - drained by barrier
                pass
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        del self._buffers[slot]
        del self._cursors[slot]
        del self._sent_batches[slot]
        del self._acked_batches[slot]
        del self._sent_events[slot]
        del self._acked_events[slot]
        del self._shard_stats[slot]
        del self._inflight[slot]
        self._slot_groups.pop(slot)
        self._slot_of = {g: i for i, g in enumerate(self._slot_groups)}

    def stats(self) -> ServiceStats:
        """A snapshot from the router's bookkeeping and the latest shard acks."""
        self._drain(block=False)
        shards = []
        for i, group in enumerate(self._slot_groups):
            det = self._shard_stats[i]
            shards.append(
                ShardStats(
                    shard=group,
                    queue_depth=self._sent_batches[i] - self._acked_batches[i],
                    events_processed=self._acked_events[i],
                    races=det.get("races", 0),
                    short_circuit_rate=short_circuit_rate_of(det),
                    detector_work=detector_work_of(det),
                    detector=det,
                )
            )
        admit = self.config.admit
        snapshot = ServiceStats(
            events_ingested=self.events_ingested,
            sync_broadcast=self.sync_broadcast,
            data_routed=self.data_routed,
            data_admitted=self.data_admitted,
            data_filtered=self.data_filtered,
            admit=admit.policy if admit is not None else "off",
            admit_prefilter_hits=admit.prefilter_hits if admit is not None else 0,
            admit_prefilter_misses=admit.prefilter_misses if admit is not None else 0,
            batches_flushed=self.batches_flushed,
            backpressure_stalls=self.backpressure_stalls,
            races_reported=sum(s.races for s in shards),
            n_shards=len(self._slot_groups),
            queue_bytes=self.queue_bytes,
            edge_allocs=self.edge_allocs,
            spans_sampled=self.tracer.spans_written,
            flightrec_dumps=self.recorder.dumps_written if self.recorder else 0,
            provenance_attached=self.provenance_attached,
            shards=shards,
        )
        snapshot.derive_rates(time.monotonic() - self._started)
        return snapshot

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.tracer.close()
        if self.config.workers == "process":
            try:
                self.barrier(timeout=10.0)
            except TimeoutError:
                pass
            for shard, task_q in enumerate(self._task_qs):
                try:
                    task_q.put(("stop",), timeout=1.0)
                except queue_mod.Full:
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
