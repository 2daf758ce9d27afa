"""The five traffic shapes: their inputs, references and layer replays.

Every input is generated from the run's seed; the server only ever
receives the generated rows and queries.  Each workload computes its
expected replies locally, before the run, with the library's own
reference paths (``identify_batch``, ``detect_members_batch``,
``LogicNetBatch.evaluate``), and ``check`` compares every reply against
them bit for bit.

``replay`` times each layer a request of the workload passes through,
in process, by calling the layer's public function on the workload's
own rows and frames.  Every layer is replayed on every workload so a
traced run always reports the whole per-layer table; README.md says on
which workload each number is on the request path.
"""

from __future__ import annotations

import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.backend.batch import SpikeTrainBatch
from repro.backend.shared import SharedArena
from repro.hyperspace.basis import HyperspaceBasis
from repro.logic.correlator import CoincidenceCorrelator
from repro.logic.netbatch import LogicNetBatch
from repro.pipeline.corpus import CorpusStore
from repro.pipeline.runner import Runner
from repro.serving import dispatch, protocol
from repro.serving.server import ServerConfig, build_serving_basis

#: Latency limit behind ``slo_miss_ratio`` (the rpc_small_open SLO).
SLO_SECONDS = 0.025

#: The logicnet_pool network shape (also what other workloads replay).
LOGICNET_SHAPE = dict(n_networks=32, n_gates=64, depth=4, n_shards=2)


@dataclass
class Item:
    """One distinct request of a workload and its expected reply."""

    args: Tuple[Any, ...]
    expected: Any
    rows: SpikeTrainBatch  # the rows one shard's kernel runs on


@dataclass
class Workload:
    """One traffic shape.

    ``connections`` and ``rate`` pick the load: ``rate`` 0 is a closed
    loop on one connection, otherwise an open loop at ``rate`` req/s
    spread over ``connections`` pipelined connections.  ``route`` is
    the DONE ``transport`` every reply must report, and ``tail`` the
    percentile behind ``latency_tail_ms``.
    """

    name: str
    why: str
    n_samples: int
    route: str
    tail: int
    flags: Tuple[str, ...] = ()
    rate: float = 0.0
    connections: int = 1
    parallel_shards: bool = True  # False: chunks stream one after another
    setup_seconds: float = field(default=0.0, init=False)

    # -- inputs ---------------------------------------------------------

    def basis(self) -> HyperspaceBasis:
        """The serving basis, rebuilt locally from the server's knobs."""
        return build_serving_basis(ServerConfig(n_samples=self.n_samples))

    def server_flags(self, tmp: pathlib.Path) -> List[str]:
        return ["--n-samples", str(self.n_samples), *self.flags]

    def prepare(
        self, seed: int, basis: HyperspaceBasis, tmp: pathlib.Path
    ) -> List[Item]:
        raise NotImplementedError

    # -- one request ----------------------------------------------------

    def call(self, client, item: Item):
        raise NotImplementedError

    async def acall(self, client, item: Item):
        raise NotImplementedError

    def check(self, reply, item: Item) -> bool:
        raise NotImplementedError

    # -- layer replay pieces --------------------------------------------

    def encode(self, item: Item, request_id: int) -> List[bytes]:
        """The client-side request encoding, as the client performs it."""
        raise NotImplementedError

    def parse(self, frame: protocol.Frame):
        raise NotImplementedError


def _residency_clean(reply) -> bool:
    return reply.summary["server_residency"]["raster"] is False


class IdentifyWorkload(Workload):
    """``identify`` of ``n_wires`` basis rows shipped as a bitset."""

    def __init__(
        self, *, n_wires: int, n_shards: int = 0, distinct: int = 4, **kw
    ) -> None:
        super().__init__(**kw)
        self.n_wires = n_wires
        self.n_shards = n_shards
        self.distinct = distinct

    def prepare(self, seed, basis, tmp):
        rng = np.random.default_rng(seed)
        correlator = CoincidenceCorrelator(basis)
        shard_rows = self.n_wires // max(1, self.n_shards)
        items = []
        for _ in range(self.distinct):
            elements = rng.integers(len(basis.labels), size=self.n_wires)
            batch = basis.as_batch().select_rows(elements)
            batch.packbits()  # cache the transport form, as a client would
            expected = correlator.identify_batch(batch, missing="none")
            items.append(
                Item(
                    args=(batch,),
                    expected=expected,
                    rows=batch.select_rows(np.arange(shard_rows)),
                )
            )
        return items

    def call(self, client, item):
        return client.identify(item.args[0], n_shards=self.n_shards)

    async def acall(self, client, item):
        return await client.identify(item.args[0], n_shards=self.n_shards)

    def check(self, reply, item):
        expected = item.expected
        return (
            np.array_equal(reply.elements, expected.elements)
            and np.array_equal(reply.decision_slots, expected.decision_slots)
            and np.array_equal(reply.spikes_inspected, expected.spikes_inspected)
            and _residency_clean(reply)
        )

    def encode(self, item, request_id):
        batch = item.args[0]
        return protocol.encode_request_parts(
            batch.packbits(), batch.grid.n_samples, batch.grid.dt,
            mode="identify", n_shards=self.n_shards, request_id=request_id,
        )

    def parse(self, frame):
        return protocol.parse_request(frame)


class CorpusWorkload(Workload):
    """``corpus_membership`` over every row of a server-hosted corpus.

    Rows are unions of 1 to 4 random basis elements, so the membership
    readout has real members to find.
    """

    def __init__(self, *, n_rows: int, chunk_rows: int, **kw) -> None:
        super().__init__(**kw)
        self.n_rows = n_rows
        self.chunk_rows = chunk_rows

    def corpus_dir(self, tmp: pathlib.Path) -> pathlib.Path:
        return tmp / "scan"

    def server_flags(self, tmp):
        return [
            *super().server_flags(tmp),
            "--corpus", str(self.corpus_dir(tmp)),
            "--corpus-chunk-rows", str(self.chunk_rows),
        ]

    def prepare(self, seed, basis, tmp):
        rng = np.random.default_rng(seed)
        members = np.zeros((self.n_rows, len(basis.labels)), dtype=bool)
        for row, k in enumerate(rng.integers(1, 5, size=self.n_rows)):
            members[row, rng.choice(len(basis.labels), size=k, replace=False)] = True
        element_bits = basis.as_batch().packbits()
        packed = np.zeros((self.n_rows, element_bits.shape[1]), dtype=np.uint8)
        for element in range(len(basis.labels)):
            packed[members[:, element]] |= element_bits[element]
        started = time.perf_counter()
        store = write_corpus(self.corpus_dir(tmp), packed, basis.grid)
        self.setup_seconds = time.perf_counter() - started
        rows = SpikeTrainBatch.from_packed(packed, basis.grid)
        expected = CoincidenceCorrelator(basis).detect_members_batch(rows)
        return [
            Item(
                args=("scan", 0, self.n_rows),
                expected=expected,
                rows=store.open_rows(0, min(self.chunk_rows, self.n_rows)),
            )
        ]

    def call(self, client, item):
        return client.corpus_membership(*item.args)

    async def acall(self, client, item):
        return await client.corpus_membership(*item.args)

    def check(self, reply, item):
        return (
            np.array_equal(reply.membership, item.expected.membership)
            and np.array_equal(reply.first_slots, item.expected.first_slots)
            and _residency_clean(reply)
        )

    def encode(self, item, request_id):
        return [
            protocol.encode_corpus_query(
                *item.args, mode="membership", request_id=request_id
            )
        ]

    def parse(self, frame):
        return protocol.parse_corpus_query(frame)


class LogicNetWorkload(Workload):
    """``logicnet`` over a seeded network family, cycling family seeds."""

    def __init__(
        self, *, n_networks: int, n_gates: int, depth: int, n_shards: int,
        distinct: int = 8, **kw,
    ) -> None:
        super().__init__(**kw)
        self.n_networks = n_networks
        self.n_gates = n_gates
        self.depth = depth
        self.n_shards = n_shards
        self.distinct = distinct

    def prepare(self, seed, basis, tmp):
        rng = np.random.default_rng(seed)
        lines = basis.as_batch()
        items = []
        for family in rng.integers(0, 2**31, size=self.distinct):
            nets = LogicNetBatch.random(
                self.n_networks, self.n_gates, self.depth,
                lines.n_trains, int(family),
            )
            expected = nets.evaluate(lines.packed_words(), self.n_samples)
            items.append(
                Item(args=(int(family),), expected=expected, rows=lines)
            )
        return items

    def _query(self, item):
        return (item.args[0], 0, self.n_networks)

    def _shape(self):
        return dict(n_gates=self.n_gates, depth=self.depth, n_shards=self.n_shards)

    def call(self, client, item):
        return client.logicnet(*self._query(item), **self._shape())

    async def acall(self, client, item):
        return await client.logicnet(*self._query(item), **self._shape())

    def check(self, reply, item):
        popcounts, checksums = item.expected
        return (
            np.array_equal(reply.popcounts, popcounts)
            and np.array_equal(reply.checksums, checksums)
            and _residency_clean(reply)
        )

    def encode(self, item, request_id):
        return [
            protocol.encode_logicnet_query(
                *self._query(item), request_id=request_id, **self._shape()
            )
        ]

    def parse(self, frame):
        return protocol.parse_logicnet_query(frame)


def workloads(tiny: bool = False) -> Dict[str, Workload]:
    """The five workloads; ``tiny`` shrinks every shape for smoke tests."""
    big_t = 4096 if tiny else 65536
    scan_t = 4096 if tiny else 16384
    specs = [
        IdentifyWorkload(
            name="rpc_large_serial",
            why="closed loop, 1 conn, identify 256 wires x T=65536 (2 MiB) on "
            "the fast path: wire, framing and copies dominate; tail = p99",
            n_samples=big_t, n_wires=256, route="fast-path", tail=99,
            flags=("--jobs", "1"), parallel_shards=False,
        ),
        IdentifyWorkload(
            name="rpc_large_sharded",
            why="closed loop, 1 conn, the same request with n_shards=2 on "
            "--jobs 2: arena export, pool dispatch and handoffs; tail = p99",
            n_samples=big_t, n_wires=256, n_shards=2, route="shared-arena",
            tail=99, flags=("--jobs", "2"),
        ),
        IdentifyWorkload(
            name="rpc_small_open",
            why="open loop at 2000 req/s over 2 pipelined conns, identify 16 "
            "wires, coalescing on: event loop, coalescer, GIL; tail = p99",
            n_samples=big_t, n_wires=16, distinct=64, route="coalesced",
            tail=99, rate=500.0 if tiny else 2000.0, connections=2,
            flags=("--coalesce-window-ms", "2", "--coalesce-max-wires", "128"),
            parallel_shards=False,
        ),
        CorpusWorkload(
            name="corpus_scan",
            why="closed loop, 1 conn, membership over a memmapped corpus of "
            "8192 rows x T=16384 in 512-row chunks: no bitset ingest; tail = p90",
            n_samples=scan_t, n_rows=1024 if tiny else 8192,
            chunk_rows=128 if tiny else 512, route="corpus-mmap", tail=90,
            parallel_shards=False,
        ),
        LogicNetWorkload(
            name="logicnet_pool",
            why="closed loop, 1 conn, 32 nets x 64 gates x depth 4 in 2 pool "
            "shards, 20-byte request: kernel and pool dispatch; tail = p90",
            n_samples=big_t, route="seed-rebuild", tail=90,
            flags=("--jobs", "2"), **LOGICNET_SHAPE,
        ),
    ]
    return {spec.name: spec for spec in specs}


def write_corpus(
    root: pathlib.Path, packed: np.ndarray, grid, segment_rows: int = 1024
) -> CorpusStore:
    """A fresh corpus at ``root`` holding ``packed`` rows."""
    if root.exists():
        shutil.rmtree(root)
    store = CorpusStore.create(root, grid)
    with store.writer() as writer:
        for lo in range(0, packed.shape[0], segment_rows):
            writer.append(
                SpikeTrainBatch.from_packed(packed[lo:lo + segment_rows], grid)
            )
    return CorpusStore(root)


# ---------------------------------------------------------------------------
# Layer replays
# ---------------------------------------------------------------------------


def median_us(
    fn: Callable[[], Any],
    name: str,
    spans: list,
    *,
    budget: float = 0.3,
    min_reps: int = 5,
) -> float:
    """Median wall time of ``fn()`` in microseconds.

    Repeats until ``budget`` seconds are spent (at least ``min_reps``,
    at most 500 calls) and appends each call to ``spans`` as
    ``(name, start, end)``.
    """
    times = []
    stop = time.perf_counter() + budget
    while len(times) < min_reps or (
        time.perf_counter() < stop and len(times) < 500
    ):
        started = time.perf_counter()
        fn()
        ended = time.perf_counter()
        times.append(ended - started)
        spans.append((name, started, ended))
    return statistics.median(times) * 1e6


def _trivial(value):
    return value


def _decode(data: bytes) -> None:
    """What the client does with one reply: frame, parse, merge."""
    shards = []
    for frame in protocol.FrameReader().feed(data):
        if frame.frame_type == protocol.FRAME_RESULT:
            shards.append(protocol.parse_result_frame(frame))
        else:
            protocol.parse_json_frame(frame)
    for key in shards[0]:
        if isinstance(shards[0][key], np.ndarray):
            np.concatenate([shard[key] for shard in shards])


def replay(
    workload: Workload,
    item: Item,
    reply,
    basis: HyperspaceBasis,
    tmp: pathlib.Path,
    spans: list,
) -> Dict[str, float]:
    """Time every layer on ``item`` in process; values in their units.

    ``reply`` is one real reply to ``item``: its shard payloads and DONE
    summary are re-encoded to replay the server's result encoding and the
    client's decoding of exactly what came over the wire.  Every timed
    call is appended to ``spans``.
    """
    def timed(name, fn, **kw):
        return median_us(fn, name, spans, **kw)

    out: Dict[str, float] = {}
    request = b"".join(bytes(part) for part in workload.encode(item, 1))
    frame = protocol.FrameReader().feed(request)[0]
    mode = reply.summary["mode"]
    out["client.encode_us"] = timed(
        "client.encode", lambda: workload.encode(item, 1)
    )
    out["protocol.parse_request_us"] = timed(
        "protocol.parse_request", lambda: workload.parse(frame)
    )

    def encode_result():
        return [
            protocol.encode_result_frame(1, shard, mode=mode)
            for shard in reply.shards
        ]

    out["protocol.encode_result_us"] = timed(
        "protocol.encode_result", encode_result
    )
    done = protocol.encode_json_frame(protocol.FRAME_DONE, 1, reply.summary)
    reply_bytes = b"".join(encode_result()) + done
    out["client.decode_us"] = timed(
        "client.decode", lambda: _decode(reply_bytes)
    )

    rows = item.rows
    packed = np.ascontiguousarray(rows.packbits())
    out["batch.from_packed_us"] = timed(
        "batch.from_packed",
        lambda: SpikeTrainBatch.from_packed(packed, rows.grid),
    )

    def export():
        with SharedArena() as arena:
            SpikeTrainBatch.from_packed(packed, rows.grid).to_shared(arena)

    out["backend.shared_export_us"] = timed("backend.shared_export", export)
    for kernel in ("identify", "membership"):
        out[f"kernel.{kernel}_us"] = timed(
            f"kernel.{kernel}",
            lambda kernel=kernel: dispatch.compute_shard(
                basis, SpikeTrainBatch.from_packed(packed, rows.grid),
                0, rows.n_trains, mode=kernel,
            ),
        )

    if isinstance(workload, CorpusWorkload):
        store = CorpusStore(workload.corpus_dir(tmp))
        out["corpus.build_s"] = workload.setup_seconds
    else:
        started = time.perf_counter()
        store = write_corpus(tmp / "replay", packed, rows.grid)
        out["corpus.build_s"] = time.perf_counter() - started
    window = min(rows.n_trains, store.n_rows)
    store.open_rows(0, window)  # first touch verifies the segment CRC
    out["corpus.open_rows_us"] = timed(
        "corpus.open_rows", lambda: store.open_rows(0, window)
    )

    nets = _replay_nets(workload, item, basis)
    lines = basis.as_batch()
    out["netbatch.build_us"] = timed(
        "netbatch.build",
        lambda: LogicNetBatch.random(
            nets.n_networks, nets.n_gates, nets.depth, lines.n_trains,
            _replay_seed(item),
        ),
    )
    out["netbatch.evaluate_us"] = timed(
        "netbatch.evaluate",
        lambda: nets.evaluate(lines.packed_words(), lines.grid.n_samples),
        budget=1.0, min_reps=3,
    )

    with Runner(jobs=2) as runner:
        runner.submit(_trivial, 0).get(60)  # fork the pool outside the timing
        out["runner.roundtrip_us"] = timed(
            "runner.roundtrip", lambda: runner.submit(_trivial, 1).get(60)
        )
    return out


def _replay_seed(item: Item) -> int:
    arg = item.args[0]
    return arg if isinstance(arg, int) else 2016


def _replay_nets(
    workload: Workload, item: Item, basis: HyperspaceBasis
) -> LogicNetBatch:
    """One pool shard's networks: the workload's own, else the logicnet shape."""
    shape = (
        {key: getattr(workload, key) for key in LOGICNET_SHAPE}
        if isinstance(workload, LogicNetWorkload)
        else LOGICNET_SHAPE
    )
    return LogicNetBatch.random(
        shape["n_networks"] // shape["n_shards"], shape["n_gates"],
        shape["depth"], basis.as_batch().n_trains, _replay_seed(item),
    )
