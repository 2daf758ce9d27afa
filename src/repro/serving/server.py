"""Asyncio serving front-end: stream packed-bitset wires into the shard pool.

:class:`SpikeServer` is the repo's network entry point — the layer the
ROADMAP called "stream wires into batches at an RPC boundary".  One
asyncio TCP server accepts length-prefixed protocol frames
(:mod:`repro.serving.protocol`), and each request flows through the
four existing layers without the payload ever unpacking to a raster:

1. the frame's bitset wraps as a *packed-primary*
   :class:`~repro.backend.batch.SpikeTrainBatch` (``from_packed`` —
   no CSR decode, no raster);
2. the batch exports into a per-request
   :class:`~repro.backend.shared.SharedArena`
   (``to_shared`` ships the word-aligned bitset; the row offsets come
   from a popcount pass, still no decode);
3. contiguous row-range :class:`~repro.serving.dispatch.ShardTask`\\ s
   fan out over the :class:`~repro.pipeline.runner.Runner`'s
   persistent pool (``Runner.gather``, supervised), where workers
   attach the mapped bitset and run the packed receiver kernels on it;
4. each shard's result streams back to the client as one binary
   ``RESULT`` frame, in shard order as results complete (a slow early
   shard delays the later shards' *frames*, never their compute),
   followed by a DONE summary frame recording wall time and the server
   batch's representation residency.

Single-job servers (or hosts without shared memory) run the same
shards in-process on a worker thread — bit-identical results, one code
path for the compute (:func:`~repro.serving.dispatch.compute_shard`).

Every compute frame — identify, membership, corpus query, logicnet
query — takes that one path.  A frame-type table picks the parser and
the *plan builder*; the plan carries only what differs between
workloads (validation, shard ranges, lazy shard callables, transport
name, extra DONE keys, budget bytes), and one serving loop owns the
rest: deadlines, budget admission and release, shard streaming,
residency, the DONE summary, the stats record and the error frame.

Three hot-path optimisations sit in front of that sharded pipeline,
all serving bit-identical results through the same
:func:`~repro.serving.dispatch.compute_shard` core:

* **fast path** — a request smaller than ``fast_path_bytes`` that does
  not ask for explicit sharding skips the arena export, the pool
  dispatch *and* the in-flight byte budget: the payload wraps
  ``from_packed`` and computes directly, answering in one result
  frame (transport ``"fast-path"``).  The budget exists to bound
  bytes pinned in per-request arenas; a fast-path request pins
  nothing beyond its own frame, so counting it would let a burst of
  tiny requests spuriously starve (or OVERLOAD) real arena work.
* **pipelining** — each request frame is served by its own asyncio
  task, so many requests per connection are in flight concurrently
  and responses interleave by request id (every frame is written in
  one ``write()`` call, keeping frames atomic on the stream).
* **coalescing** — with ``coalesce_window > 0``, fast-path-sized
  requests whose scan headers match (mode, ``start_slot``,
  ``limit``; the grid is already checked) accumulate for up to the
  window and compute as *one* wide batch — one ``from_packed``, one
  receiver pass — then split back per request id (transport
  ``"coalesced"``).  Many small clients thus amortise into the wide
  batched operations the packed kernels are built for.

Flow control is a bounded **in-flight byte budget**: sharded request
payloads (pinned in per-request arenas) and logicnet evaluation
working sets admit only while the bytes charged stay under
``max_inflight_bytes``; later requests wait (the TCP receive window
then pushes back on the client) instead of growing server memory.
Graceful shutdown drains in-flight requests, then releases every
worker's shared-memory attachments through the runner's end-of-run
broadcast and discards the installed basis.

Every server keeps a :class:`ServerStats` — request counts per path,
coalesced batches, error count and a rolling latency window — served
to any client as a JSON ``STATS`` reply and printed as the
``repro serve`` shutdown summary.

``ServerThread`` runs the whole server on a private event loop in a
daemon thread — the harness the tests, the benchmark, the example and
the CI smoke job all share.  ``serve_forever`` is the blocking entry
behind ``repro serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import pathlib
import socket
import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..backend.packed import row_chunk_bounds
from ..backend.shared import SharedArena
from ..errors import ProtocolError, ServingError
from ..hyperspace.basis import HyperspaceBasis
from ..logic.netbatch import working_set
from ..noise.synthesis import make_rng
from ..orthogonator.demux import DemuxOrthogonator
from ..pipeline.corpus import CorpusStore
from ..spikes.generators import poisson_train
from ..testing import faults
from ..units import paper_white_grid
from . import dispatch, log, protocol

if TYPE_CHECKING:
    from ..pipeline.runner import Runner

__all__ = [
    "ServerConfig",
    "ServerStats",
    "SpikeServer",
    "ServerThread",
    "build_serving_basis",
    "serve_forever",
]


@dataclass(frozen=True)
class ServerConfig:
    """Everything one serving process needs to know.

    The basis knobs (``seed``, ``basis_size``, ``source_isi_samples``,
    ``n_samples``) deterministically fix the hyperspace the server
    identifies against — the same synthesis path as the ``identify``
    experiment, so a client holding the same knobs can reproduce the
    server's basis exactly.  ``port`` 0 binds an ephemeral port
    (exposed as :attr:`SpikeServer.port` once started).

    ``fast_path_bytes`` caps the payload size served inline without an
    arena or pool dispatch (0 disables the fast path entirely — every
    request takes the sharded pipeline).  ``coalesce_window`` > 0
    turns on request coalescing: fast-path-sized requests with equal
    scan headers buffer up to that many seconds (or until
    ``coalesce_max_wires`` rows accumulate) and compute as one wide
    batch.

    ``workers`` > 1 turns ``repro serve`` into a process cluster: that
    many server processes accept on **one** ``SO_REUSEPORT`` port and
    report one aggregated STATS reply — see
    :mod:`repro.serving.cluster`.  A single :class:`SpikeServer`
    ignores the field.

    ``corpus`` names a :class:`~repro.pipeline.corpus.CorpusStore`
    directory to host read-only: the server then answers
    ``FRAME_CORPUS_QUERY`` requests against it (by the directory's
    basename), computing chunk-at-a-time straight off the memmap —
    ``corpus_chunk_rows`` caps the rows any one chunk maps and
    therefore the peak working set of a corpus scan, no matter how
    many rows the query spans.  The corpus must live on the serving
    basis's exact grid (checked at startup).  Cluster workers each
    open their own read-only mapping of the same files; the OS page
    cache is shared between them for free.
    """

    host: str = "127.0.0.1"
    port: int = 0
    seed: int = 2016
    basis_size: int = 16
    source_isi_samples: int = 28
    n_samples: int = 65536
    jobs: int = 1
    n_shards: int = 0  # per-request default: 0 → one shard per job
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES
    max_inflight_bytes: int = 256 * 1024 * 1024
    fast_path_bytes: int = 4 * 1024 * 1024
    coalesce_window: float = 0.0  # seconds; 0 → coalescing off
    coalesce_max_wires: int = 4096
    workers: int = 1
    corpus: Optional[str] = None
    corpus_chunk_rows: int = 4096
    #: Seconds a connection may sit with no bytes arriving and no
    #: request in flight before the server closes it (0: never) — a
    #: dead client must not pin receive buffers forever.
    idle_timeout: float = 0.0
    #: Per-attempt timeout awaiting one pool shard's result.  The
    #: backstop for a hung worker; a *dead* worker is detected within
    #: a probe interval regardless (see
    #: :meth:`repro.pipeline.runner.Runner.await_result`).
    shard_timeout: float = 120.0
    #: Pool attempts for a lost shard before it degrades to in-process
    #: execution (:meth:`repro.pipeline.runner.Runner.submit_supervised`).
    shard_retries: int = 2


def build_serving_basis(config: ServerConfig) -> HyperspaceBasis:
    """The server's reference basis, deterministic in the config knobs."""
    grid = paper_white_grid(n_samples=config.n_samples)
    rng = make_rng(config.seed)
    source = poisson_train(
        rate_hz=1.0 / (config.source_isi_samples * grid.dt),
        grid=grid,
        rng=rng,
    )
    output = DemuxOrthogonator.with_outputs(config.basis_size).transform(
        source
    )
    return HyperspaceBasis.from_orthogonator(output)


class ServerStats:
    """Per-server counters plus a rolling latency window.

    Updated on the event loop only (no locking).  ``snapshot()`` is
    the JSON payload of a ``STATS`` reply; ``summary()`` is the
    one-line shutdown log.  Latency quantiles are computed over the
    last ``window`` request wall times (arrival to DONE frame written),
    so a long-running server reports current behaviour, not its whole
    history.
    """

    def __init__(self, window: int = 1024) -> None:
        self._reset_counters()
        self._latencies: Deque[float] = deque(maxlen=int(window))

    def _reset_counters(self) -> None:
        """Zero every counter; subclasses backed by shared memory that
        must survive a process respawn override this to preserve the
        predecessor's counts (cluster STATS stays monotonic)."""
        self.requests_served = 0
        self.fast_path_requests = 0
        self.pool_path_requests = 0
        self.coalesced_requests = 0
        self.coalesced_batches = 0
        self.errors = 0

    def record(self, transport: str, seconds: float) -> None:
        """Count one served request and its wall time."""
        self.requests_served += 1
        if transport == "fast-path":
            self.fast_path_requests += 1
        elif transport == "coalesced":
            self.coalesced_requests += 1
        else:
            self.pool_path_requests += 1
        self._latencies.append(float(seconds))

    def _quantile(self, q: float) -> Optional[float]:
        if not self._latencies:
            return None
        return float(np.quantile(np.asarray(self._latencies), q))

    def snapshot(self) -> dict:
        """The JSON-ready stats payload served to STATS requests."""
        return {
            "kind": "stats",
            "requests_served": self.requests_served,
            "fast_path_requests": self.fast_path_requests,
            "pool_path_requests": self.pool_path_requests,
            "coalesced_requests": self.coalesced_requests,
            "coalesced_batches": self.coalesced_batches,
            "errors": self.errors,
            "latency_window": len(self._latencies),
            "latency_p50_seconds": self._quantile(0.50),
            "latency_p99_seconds": self._quantile(0.99),
        }

    def summary(self) -> str:
        """One human line for the shutdown log."""
        p50 = self._quantile(0.50)
        p99 = self._quantile(0.99)
        latency = (
            f"p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms "
            f"over last {len(self._latencies)}"
            if p50 is not None
            else "no latency samples"
        )
        return (
            f"served {self.requests_served} requests "
            f"({self.fast_path_requests} fast-path, "
            f"{self.pool_path_requests} pool, "
            f"{self.coalesced_requests} coalesced in "
            f"{self.coalesced_batches} batches), "
            f"{self.errors} errors, {latency}"
        )


@dataclass
class _Plan:
    """What one served workload does differently from the others.

    Built per request by the workload's plan builder (which also
    validates the request); :meth:`SpikeServer._serve` owns everything
    the workloads share.  ``shards`` runs once the request is admitted,
    with the request's resource stack — a shared-arena plan opens its
    arena there, so the arena closes before the DONE frame — and
    returns one zero-argument callable per shard, in row order.
    ``inline`` plans call theirs on the event loop (a callable may
    return a coroutine: the coalescer's micro-batch slice) and write
    every result frame behind the DONE frame's single drain; the others
    run each callable off-loop.  ``budget`` is the byte count charged to
    the in-flight budget (0: not charged).  ``done`` holds the
    workload's own DONE keys; the DONE residency is ``batch``'s, or the
    union of the shard residencies when there is no server-side batch.
    """

    transport: str
    done: dict
    shards: Callable[[contextlib.ExitStack], List[Callable[[], Any]]]
    budget: int = 0
    inline: bool = False
    batch: Optional[SpikeTrainBatch] = None


def _shard_ranges(
    start: int, n_rows: int, n_shards: int
) -> List[Tuple[int, int]]:
    """``[lo, hi)`` shard ranges of ``n_rows`` rows starting at ``start``.

    :func:`~repro.backend.packed.row_chunk_bounds` shifted to the
    request's first row: like every shard plan, a pure function of the
    request and the config, never of which workers pick the shards up.
    """
    return [
        (start + lo, start + hi)
        for lo, hi in row_chunk_bounds(n_rows, n_shards)
    ]


class _Coalescer:
    """Short-window accumulator stacking small requests into one batch.

    Requests routed here buffer per bucket — keyed by the scan header
    ``(mode, start_slot, limit)``; the grid was already checked against
    the basis — until either ``window`` seconds pass since the bucket
    opened or ``max_wires`` rows accumulate.  A flush concatenates the
    buckets' packed payloads row-wise (still packed — no decode), runs
    **one** ``compute_shard`` over the wide batch off-loop, and splits
    the per-row result arrays back per request id.  Both receiver modes
    are row-independent, so the split results are bit-identical to
    per-request serial computes — the tests assert it.
    """

    def __init__(
        self, server: "SpikeServer", window: float, max_wires: int
    ) -> None:
        self._server = server
        self._window = float(window)
        self._max_wires = int(max_wires)
        self._buckets: Dict[tuple, List[Tuple[protocol.Request, asyncio.Future]]] = {}
        self._timers: Dict[tuple, asyncio.TimerHandle] = {}
        self._flushes: Set[asyncio.Task] = set()

    async def submit(self, request: protocol.Request) -> dict:
        """Buffer one request; resolves to its slice of the batch result."""
        loop = asyncio.get_running_loop()
        key = (request.mode, request.start_slot, request.limit)
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.setdefault(key, [])
        bucket.append((request, future))
        if sum(r.n_wires for r, _ in bucket) >= self._max_wires:
            self._flush_now(key)
        elif len(bucket) == 1:
            self._timers[key] = loop.call_later(
                self._window, self._flush_now, key
            )
        return await future

    def _flush_now(self, key: tuple) -> None:
        """Detach one bucket and start its flush task."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        bucket = self._buckets.pop(key, None)
        if not bucket:
            return
        task = asyncio.create_task(self._flush(key, bucket))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(self, key, bucket) -> None:
        mode, start_slot, limit = key
        try:
            rows = [request.packed for request, _ in bucket]
            packed = rows[0] if len(rows) == 1 else np.concatenate(rows)
            batch = SpikeTrainBatch.from_packed(
                packed, self._server.basis.grid
            )
            compute = functools.partial(
                dispatch.compute_shard,
                self._server.basis,
                batch,
                0,
                int(packed.shape[0]),
                mode=mode,
                start_slot=start_slot,
                limit=limit,
            )
            if packed.nbytes <= self._server.config.fast_path_bytes:
                # Micro-batches are fast-path-sized by construction:
                # the receiver pass is cheaper than a thread handoff
                # (the same trade the fast path makes), so compute
                # inline on the loop.
                payload = compute()
            else:
                payload = await asyncio.to_thread(compute)
            self._server.stats.coalesced_batches += 1
            lo = 0
            for request, future in bucket:
                hi = lo + request.n_wires
                if not future.done():
                    future.set_result(self._slice(payload, mode, lo, hi))
                lo = hi
        except Exception as exc:  # noqa: BLE001 - handed to each waiter
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)

    @staticmethod
    def _slice(payload: dict, mode: str, lo: int, hi: int) -> dict:
        """One request's rows of the wide batch payload, re-rooted at 0."""
        fields = (
            ("elements", "decision_slots", "spikes_inspected")
            if mode == "identify"
            else ("membership", "first_slots")
        )
        sub = {field: payload[field][lo:hi] for field in fields}
        sub.update(
            row_start=0,
            row_stop=hi - lo,
            wall_seconds=payload["wall_seconds"],
            residency=payload["residency"],
        )
        return sub

    async def close(self) -> None:
        """Flush everything buffered and wait for the flush tasks."""
        for key in list(self._buckets):
            self._flush_now(key)
        while self._flushes:
            await asyncio.gather(
                *list(self._flushes), return_exceptions=True
            )


class _InflightBudget:
    """Async byte budget bounding the arenas pinned by live requests.

    Admission is FIFO: a waiter is admitted only when it is at the
    head of the arrival queue *and* its bytes fit — without the queue,
    a stream of small requests could starve a large one forever (each
    small acquire would slip into the headroom the large waiter is
    waiting for).
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        self.in_flight = 0
        self._queue: Deque[int] = deque()
        self._next_ticket = 0
        self._condition: Optional[asyncio.Condition] = None

    @property
    def _changed(self) -> asyncio.Condition:
        # Created lazily inside the running loop: constructing an
        # asyncio primitive outside one misbinds on Python 3.9.
        if self._condition is None:
            self._condition = asyncio.Condition()
        return self._condition

    async def acquire(self, nbytes: int) -> None:
        """Wait until ``nbytes`` fits under the cap, then claim it.

        A single payload larger than the whole budget can never fit —
        that is rejected immediately as OVERLOADED instead of
        deadlocking the connection.
        """
        if nbytes > self.max_bytes:
            raise ServingError(
                protocol.ERR_OVERLOADED,
                f"request pins {nbytes} bytes, over the server's "
                f"{self.max_bytes}-byte in-flight budget",
            )
        async with self._changed:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._queue.append(ticket)
            try:
                await self._changed.wait_for(
                    lambda: self._queue[0] == ticket
                    and self.in_flight + nbytes <= self.max_bytes
                )
            except BaseException:
                # Cancellation (a dropped connection) must not leave a
                # dead ticket blocking the queue head.
                self._queue.remove(ticket)
                self._changed.notify_all()
                raise
            self._queue.popleft()
            self.in_flight += nbytes
            self._changed.notify_all()

    async def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget and wake waiters."""
        async with self._changed:
            self.in_flight -= nbytes
            self._changed.notify_all()

    async def drained(self) -> None:
        """Block until no request bytes are in flight."""
        async with self._changed:
            await self._changed.wait_for(lambda: self.in_flight == 0)


class _Connection(asyncio.BufferedProtocol):
    """One accepted connection: transport bytes straight into frames.

    A hand-rolled :class:`asyncio.BufferedProtocol` instead of the
    stream reader/writer pair: the transport ``recv_into``\\ s the
    :class:`~repro.serving.protocol.FrameReader`'s own buffers, so a
    large request's payload lands **in place** in an exact-size frame
    buffer — zero user-space copies between the socket and
    ``np.frombuffer``, where the stream-reader path cost three (stream
    buffer append, ``read()`` slice, join) plus small-chunk reads.
    At multi-megabyte requests that copy tax was a measurable slice of
    the serving overhead this module exists to delete.

    Connections are **pipelined**: every complete frame starts its own
    task, so a connection may have many requests in flight and
    response frames from different requests interleave — each carries
    its request id, and each is written atomically (one ``write()``
    per frame).  Framing errors (bad magic / version / length) poison
    the byte stream: in-flight requests finish answering, then one
    connection-scope error frame (request id 0) closes the connection.
    Request-level errors are answered upstream and keep the connection
    alive.

    The object doubles as the writer handed to the request handlers:
    ``write``/``drain`` front the transport with its high-water flow
    control, and ``close``/``wait_closed``/``get_extra_info`` mirror
    the ``StreamWriter`` surface the shutdown path expects.
    """

    def __init__(self, server: "SpikeServer") -> None:
        self._server = server
        self._frames = protocol.FrameReader(server.config.max_frame_bytes)
        self._transport: Optional[asyncio.Transport] = None
        self._tasks: Set[asyncio.Task] = set()
        self._can_write = asyncio.Event()
        self._can_write.set()
        self._closed = asyncio.get_running_loop().create_future()
        self._poisoned = False
        self._idle_timer: Optional[asyncio.TimerHandle] = None

    # -- transport callbacks -------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Shard frames are small and latency-bound: never Nagle them.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Multi-megabyte requests should fit the kernel buffer in
            # one piece: every extra exchange is a scheduler round trip
            # between the client and this loop.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * 1024 * 1024
            )
        self._server._writers.add(self)
        self._touch_idle()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._frames.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        self._touch_idle()
        if self._poisoned:
            return
        try:
            complete = self._frames.buffer_updated(nbytes)
        except ProtocolError as exc:
            self._poison(exc)
            return
        for frame in complete:
            self._spawn(self._server._handle_frame(frame, self))
        poison = self._frames.pending_error
        if poison is not None:
            self._poison(poison)

    def eof_received(self) -> bool:
        # Half-close: the client is done sending but still expects the
        # responses for requests already in flight.
        self._spawn(self._finish_and_close())
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        self._server._writers.discard(self)
        self._can_write.set()  # unblock drains; they raise on the check
        if not self._closed.done():
            self._closed.set_result(None)

    # -- idle-connection reaping ---------------------------------------

    def _touch_idle(self) -> None:
        """(Re)arm the idle timer: bytes arrived or the check deferred."""
        timeout = self._server.config.idle_timeout
        if timeout <= 0:
            return
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self._idle_timer = asyncio.get_running_loop().call_later(
            timeout, self._idle_expired
        )

    def _idle_expired(self) -> None:
        """Close the connection unless a request is still in flight.

        A slow *response* (long shard compute, flow-controlled write)
        keeps its task alive — only a connection with nothing in
        flight and nothing arriving is dead weight pinning its receive
        buffers, which is exactly what the timeout exists to reap.
        """
        self._idle_timer = None
        if self._tasks:
            self._touch_idle()
            return
        self.close()

    def pause_writing(self) -> None:
        self._can_write.clear()

    def resume_writing(self) -> None:
        self._can_write.set()

    # -- frame dispatch ------------------------------------------------

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        self._server._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(self._server._tasks.discard)

    def _poison(self, exc: ProtocolError) -> None:
        self._poisoned = True
        self._spawn(self._answer_poison(exc))

    async def _answer_poison(self, exc: ProtocolError) -> None:
        # Frames completed before the violation are already in flight;
        # let them answer, then report the violation and drop the
        # connection — the stream boundary is lost.
        await self._settle()
        try:
            self.write(protocol.encode_error(0, exc.code, str(exc)))
            await self.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self.close()

    async def _finish_and_close(self) -> None:
        await self._settle()
        self.close()

    async def _settle(self) -> None:
        """Wait for every other in-flight task on this connection."""
        while True:
            others = self._tasks - {asyncio.current_task()}
            if not others:
                return
            await asyncio.gather(*others, return_exceptions=True)

    # -- the writer surface handed to request handlers -----------------

    def write(self, data: bytes) -> None:
        if self._transport is None or self._transport.is_closing():
            raise ConnectionResetError("connection is closed")
        self._transport.write(data)

    async def drain(self) -> None:
        await self._can_write.wait()
        if self._transport is None or self._transport.is_closing():
            raise ConnectionResetError("connection is closed")

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    async def wait_closed(self) -> None:
        await self._closed

    def get_extra_info(self, name: str, default=None):
        if self._transport is None:
            return default
        return self._transport.get_extra_info(name, default)


class SpikeServer:
    """The packed-bitset RPC server (see the module docstring).

    Construct, ``await start()``, and either hold onto it (tests) or
    ``await`` :meth:`wait_closed`.  ``runner=None`` makes the server
    own a :class:`~repro.pipeline.runner.Runner` with ``config.jobs``
    workers when it will shard over a pool
    (:func:`~repro.serving.dispatch.uses_pool`), and close it on
    shutdown; otherwise it runs every shard in-process and loads no
    :mod:`multiprocessing`.  Passing a runner shares an existing pool
    (the caller keeps ownership).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runner: Optional[Runner] = None,
        *,
        sock=None,
        stats: Optional[ServerStats] = None,
        stats_aggregator=None,
        basis: Optional[HyperspaceBasis] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._runner = runner
        self._owns_runner = runner is None
        self._server: Optional[asyncio.AbstractServer] = None
        self._basis: Optional[HyperspaceBasis] = basis
        self._basis_token: Optional[str] = None
        self._budget = _InflightBudget(self.config.max_inflight_bytes)
        self._writers: Set["_Connection"] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._coalescer: Optional[_Coalescer] = None
        self._closing = False
        # The cluster tier injects all three: a pre-bound SO_REUSEPORT
        # socket (every worker accepts on one port), a stats object
        # mirroring into the cluster's shared block, and the aggregator
        # answering cluster-scope STATS from that block.
        self._sock = sock
        self.stats = stats if stats is not None else ServerStats()
        self._stats_aggregator = stats_aggregator
        self._corpus = None  # CorpusStore once start() opens config.corpus
        self._corpus_name: Optional[str] = None

    @property
    def requests_served(self) -> int:
        """Total requests answered successfully (all transports)."""
        return self.stats.requests_served

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``config.port == 0``)."""
        if self._server is None:
            raise ServingError(protocol.ERR_INTERNAL, "server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def basis(self) -> HyperspaceBasis:
        """The reference basis requests are identified against."""
        if self._basis is None:
            raise ServingError(protocol.ERR_INTERNAL, "server not started")
        return self._basis

    def _use_pool(self) -> bool:
        """True when shards go to the worker pool (vs in-process)."""
        return self._runner is not None and dispatch.uses_pool(
            self._runner.jobs
        )

    async def start(self) -> None:
        """Build the basis, warm the pool, bind the socket."""
        if self._runner is None and dispatch.uses_pool(self.config.jobs):
            from ..pipeline.runner import Runner

            self._runner = Runner(jobs=self.config.jobs)
        if self._basis is None:
            # Cluster workers inject a basis attached from the shared
            # startup arena instead of re-running the synthesis.
            self._basis = build_serving_basis(self.config)
        table = dispatch.export_basis(self._basis)
        self._basis_token = table.token
        dispatch.install_basis(table)
        # The broadcast installs the basis in the pool workers:
        # ``repro serve`` forks its pool before this runs, so they
        # cannot inherit it.  It is sticky, so a restarted pool gets it
        # too.
        if self._use_pool():
            self._runner.broadcast(dispatch.install_basis, table)
        if self.config.corpus is not None:
            self._open_corpus()
        if self.config.coalesce_window > 0:
            self._coalescer = _Coalescer(
                self,
                self.config.coalesce_window,
                self.config.coalesce_max_wires,
            )
        loop = asyncio.get_running_loop()
        if self._sock is not None:
            self._server = await loop.create_server(
                lambda: _Connection(self), sock=self._sock
            )
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), self.config.host, self.config.port
            )

    def _open_corpus(self) -> None:
        """Open the configured corpus read-only and pin its identity.

        Startup-time validation: the corpus must live on the serving
        basis's exact grid, so a query can never silently score mapped
        rows against a basis from a different geometry.  The corpus is
        addressed by its directory basename in ``FRAME_CORPUS_QUERY``
        frames (also advertised in PONG replies).
        """
        root = pathlib.Path(self.config.corpus)
        store = CorpusStore(root)
        grid = self.basis.grid
        corpus_grid = store.grid()
        if corpus_grid != grid:
            raise ServingError(
                protocol.ERR_BAD_GRID,
                f"corpus at {root} lives on n_samples="
                f"{corpus_grid.n_samples}, dt={corpus_grid.dt}; the serving "
                f"basis needs n_samples={grid.n_samples}, dt={grid.dt}",
            )
        self._corpus = store
        self._corpus_name = root.name

    @property
    def corpus_name(self) -> Optional[str]:
        """Name the hosted corpus answers to (None: no corpus hosted)."""
        return self._corpus_name

    async def wait_closed(self) -> None:
        """Block until the listening socket shuts down."""
        if self._server is not None:
            await self._server.wait_closed()

    async def close(self, drain_timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, release worker attachments, stop.

        Stops accepting, waits up to ``drain_timeout`` seconds for
        in-flight requests (their arenas) to finish — then **forcibly
        cancels** whatever is still running (logging a summary of what
        was cut down) rather than leaking stuck tasks: shutdown must
        terminate even when a request hangs.  Closes the remaining
        connections, then broadcasts the basis discard and the
        end-of-run attachment release over the pool so workers drop
        every mapping of this serving session before the runner (if
        owned) tears down.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._coalescer is not None:
            await self._coalescer.close()
        if self._tasks:
            _done, stuck = await asyncio.wait(
                list(self._tasks), timeout=drain_timeout
            )
            if stuck:
                # Forced cancel: a request that did not finish inside
                # the drain window is cut down so shutdown terminates;
                # its budget bytes release through the cancel's finally.
                for task in stuck:
                    task.cancel()
                await asyncio.gather(*stuck, return_exceptions=True)
                log.get_logger("server").warning(
                    "shutdown drain expired after %.1fs: force-cancelled "
                    "%d in-flight request task(s)",
                    drain_timeout,
                    len(stuck),
                )
        try:
            await asyncio.wait_for(self._budget.drained(), drain_timeout)
        except asyncio.TimeoutError:
            log.get_logger("server").warning(
                "shutdown proceeding with %d byte(s) still pinned in the "
                "in-flight budget (stuck shard work)",
                self._budget.in_flight,
            )
        for writer in list(self._writers):
            writer.close()
        if self._runner is not None:
            if self._use_pool() and self._basis_token is not None:
                try:
                    self._runner.broadcast(
                        dispatch.discard_basis, self._basis_token
                    )
                except Exception:  # pragma: no cover - dying pool
                    pass
            self._runner.release_worker_attachments()
            if self._owns_runner:
                self._runner.close()
        if self._basis_token is not None:
            dispatch.discard_basis(self._basis_token)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _send(self, writer: "_Connection", frame: bytes) -> None:
        """Write one encoded frame and respect the transport's flow control."""
        fault = faults.maybe_fire("serving.send_frame")
        if fault is not None and fault.action == "truncate":
            # Chaos harness: deliver a prefix of the frame and drop the
            # connection — the mid-write crash a client must survive.
            writer.write(bytes(frame[: fault.param_int]))
            writer.close()
            raise ConnectionResetError("fault injected: frame truncated")
        writer.write(frame)
        await writer.drain()

    async def _handle_frame(
        self, frame: protocol.Frame, writer: "_Connection"
    ) -> None:
        """Answer one frame: STATS and PING inline, compute frames
        through :meth:`_serve`.

        Every compute frame takes the same path: the frame-type table
        picks its parser and plan builder, the plan builder validates
        the request and describes its shards, and one error handler
        answers any failure — parse, validation or compute — with a
        typed error frame on the request's id.
        """
        if frame.frame_type == protocol.FRAME_STATS:
            # Clustered workers answer cluster-wide counters unless the
            # client explicitly asked for this worker's ("local").  A
            # plain server has no aggregator and always answers itself.
            scope = protocol.stats_scope(frame)
            if self._stats_aggregator is not None and scope != "local":
                payload = self._stats_aggregator()
            else:
                payload = self.stats.snapshot()
            await self._send(
                writer,
                protocol.encode_json_frame(
                    protocol.FRAME_STATS_REPLY, frame.request_id, payload
                ),
            )
            return
        if frame.frame_type == protocol.FRAME_PING:
            # The load-balancer probe: answered inline on the event
            # loop, no compute, no pool, no aggregation — a server that
            # answers PONG is accepting and parsing frames.  The reply
            # advertises the hosted corpus (if any) so a probe doubles
            # as discovery.
            await self._send(
                writer,
                protocol.encode_json_frame(
                    protocol.FRAME_PONG,
                    frame.request_id,
                    {
                        "kind": "pong",
                        "ready": not self._closing,
                        "protocol_version": protocol.PROTOCOL_VERSION,
                        "corpus": self._corpus_name,
                        "corpus_rows": (
                            self._corpus.n_rows
                            if self._corpus is not None
                            else None
                        ),
                    },
                ),
            )
            return
        if self._closing:
            # A typed refusal instead of silence: the request is
            # retryable by definition (it never started computing), and
            # answering it is what lets a client fail over to a healthy
            # worker instead of hanging until its own timeout.
            try:
                await self._send(
                    writer,
                    protocol.encode_error(
                        frame.request_id,
                        protocol.ERR_RETRYABLE,
                        "server is draining for shutdown; retry the request",
                    ),
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            return
        faults.maybe_fire("serving.handle_frame")
        parse, build_plan = self._ROUTES.get(
            frame.frame_type, self._ROUTES[protocol.FRAME_IDENTIFY]
        )
        try:
            request = parse(frame)
            deadline = self._deadline_at(request.deadline_ms)
            plan = build_plan(self, request)
            await self._serve(request, plan, writer, deadline)
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self.stats.errors += 1
            if isinstance(exc, ServingError):
                code, message = exc.code, str(exc)
            else:
                code = protocol.ERR_INTERNAL
                message = f"{type(exc).__name__}: {exc}"
            await self._send(
                writer, protocol.encode_error(frame.request_id, code, message)
            )

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------

    @staticmethod
    def _deadline_at(deadline_ms: int) -> Optional[float]:
        """The request's absolute loop-time deadline (None: none).

        The budget starts the moment the server looks at the request —
        client and server clocks are never compared, only the duration
        crosses the wire.
        """
        if not deadline_ms:
            return None
        return asyncio.get_running_loop().time() + deadline_ms / 1000.0

    async def _acquire_budget(
        self, nbytes: int, deadline: Optional[float]
    ) -> None:
        """Budget admission bounded by the request deadline.

        A request whose deadline expires while *queued* is the cheapest
        possible deadline miss — nothing was computed, nothing pinned
        (the cancelled acquire retracts its ticket), and the waiters
        behind it move up.
        """
        if deadline is None:
            await self._budget.acquire(nbytes)
            return
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining > 0:
            try:
                await asyncio.wait_for(
                    self._budget.acquire(nbytes), remaining
                )
                return
            except asyncio.TimeoutError:
                pass
        raise ServingError(
            protocol.ERR_DEADLINE,
            "request deadline expired waiting for the in-flight budget",
        )

    # ------------------------------------------------------------------
    # The one serving loop
    # ------------------------------------------------------------------

    async def _serve(
        self,
        request,
        plan: _Plan,
        writer: "_Connection",
        deadline: Optional[float],
    ) -> None:
        """Admit one request, stream its shards, close with DONE.

        Owns everything the workloads share.  A plan with a ``budget``
        is admitted through the in-flight byte budget (bounded by the
        deadline) and releases it after the DONE frame, on every exit
        path.  The deadline is checked before each shard, never inside
        a kernel: once it passes, no further shard is computed, awaited
        or streamed, and the client gets the typed
        :data:`~repro.serving.protocol.ERR_DEADLINE` instead of a result
        it has stopped waiting for.
        Result frames go out in shard order as results complete (a slow
        early shard delays the later shards' *frames*, never their
        compute); the shard resources (a shared arena) close before the
        DONE summary, which is counted in :attr:`stats` before it is
        written — a client that holds the reply must find the request
        in the counters, even when its next STATS lands on a clustered
        sibling.
        """
        if plan.budget:
            await self._acquire_budget(plan.budget, deadline)
        try:
            loop = asyncio.get_running_loop()
            started = loop.time()
            shards = []
            with contextlib.ExitStack() as resources:
                for index, get in enumerate(plan.shards(resources)):
                    if deadline is not None and loop.time() >= deadline:
                        raise ServingError(
                            protocol.ERR_DEADLINE,
                            f"request deadline expired before shard {index}",
                        )
                    if plan.inline:
                        payload = get()
                        if asyncio.iscoroutine(payload):
                            payload = await payload
                    else:
                        payload = await asyncio.to_thread(get)
                    shards.append(payload)
                    frame = protocol.encode_result_frame(
                        request.request_id, payload, mode=request.mode
                    )
                    if plan.inline:
                        # One drain covers the result and the DONE frame.
                        writer.write(frame)
                    else:
                        await self._send(writer, frame)
            summary = {
                "kind": "done",
                "mode": request.mode,
                **plan.done,
                "n_shards": len(shards),
                "labels": list(self.basis.labels),
                "transport": plan.transport,
                "wall_seconds": loop.time() - started,
                "server_residency": (
                    dispatch.residency(plan.batch)
                    if plan.batch is not None
                    else {
                        key: any(s["residency"][key] for s in shards)
                        for key in ("packed", "csr", "raster")
                    }
                ),
            }
            self.stats.record(plan.transport, summary["wall_seconds"])
            await self._send(
                writer,
                protocol.encode_json_frame(
                    protocol.FRAME_DONE, request.request_id, summary
                ),
            )
        finally:
            if plan.budget:
                await self._budget.release(plan.budget)

    def _gather(self, fn, tasks) -> List[Callable[[], dict]]:
        """Supervised pool getters for one request's shard tasks."""
        return self._runner.gather(
            fn,
            tasks,
            timeout=self.config.shard_timeout,
            retries=self.config.shard_retries,
        )

    # ------------------------------------------------------------------
    # Workload plans: what differs between the served frame types
    # ------------------------------------------------------------------

    def _route(self, request: protocol.Request) -> str:
        """Pick the transport for one bitset request.

        Explicit sharding (a nonzero request or config shard count)
        always takes the sharded pipeline; below that, payloads within
        ``fast_path_bytes`` go to the coalescer when one is running,
        else straight to the fast path.
        """
        wants_shards = bool(request.n_shards or self.config.n_shards)
        if wants_shards or request.packed.nbytes > self.config.fast_path_bytes:
            return "sharded"
        if (
            self._coalescer is not None
            and request.n_wires <= self.config.coalesce_max_wires
        ):
            return "coalesced"
        return "fast-path"

    def _bitset_plan(self, request: protocol.Request) -> _Plan:
        """Identify/membership frames over a shipped packed bitset.

        The request must live on the server basis's exact grid.  Only
        the two sharded routes pin an arena's worth of bytes, so only
        they charge the in-flight budget: fast-path and coalesced
        requests pin nothing beyond their own frame, and charging them
        would let a burst of tiny requests queue behind (or spuriously
        OVERLOAD) real arena work.  The default shard count is one
        shard per worker of the runner *actually dispatching* — which
        may be a shared runner with more jobs than the config names.
        """
        grid = self.basis.grid
        if request.n_samples != grid.n_samples or request.dt != grid.dt:
            raise ServingError(
                protocol.ERR_BAD_GRID,
                f"request grid (n_samples={request.n_samples}, "
                f"dt={request.dt}) does not match the serving basis grid "
                f"(n_samples={grid.n_samples}, dt={grid.dt})",
            )
        done = {"n_wires": request.n_wires}
        route = self._route(request)
        if route == "coalesced":
            # The response's residency is the *wide* batch's: the
            # request's rows were computed inside it, never as their
            # own batch.
            return _Plan(
                "coalesced",
                done,
                lambda _: [lambda: self._coalescer.submit(request)],
                inline=True,
            )
        batch = SpikeTrainBatch.from_packed(request.packed, request.grid())
        scan = dict(
            mode=request.mode,
            start_slot=request.start_slot,
            limit=request.limit,
        )
        if route == "fast-path":
            # Below the fast-path size cap a receiver pass is far
            # cheaper than a thread handoff, and the packed kernels
            # release no locks a worker thread could exploit anyway.
            compute = functools.partial(
                dispatch.compute_shard,
                self.basis, batch, 0, request.n_wires, **scan,
            )
            return _Plan(
                "fast-path", done, lambda _: [compute], inline=True,
                batch=batch,
            )
        ranges = _shard_ranges(
            0,
            request.n_wires,
            request.n_shards
            or self.config.n_shards
            or (self._runner.jobs if self._runner is not None else 1),
        )
        if self._use_pool():

            def pool_shards(resources):
                # Workers attach the request arena's bitset; a lost
                # shard re-runs while the arena is still alive, so the
                # recovered shard reads the same operands.
                arena = resources.enter_context(SharedArena())
                handle = batch.to_shared(arena)
                return self._gather(
                    dispatch.run_shard,
                    [
                        dispatch.ShardTask(
                            self._basis_token, handle, lo, hi, **scan
                        )
                        for lo, hi in ranges
                    ],
                )

            return _Plan(
                "shared-arena", done, pool_shards,
                budget=request.packed.nbytes, batch=batch,
            )
        return _Plan(
            "in-process",
            done,
            lambda _: [
                functools.partial(
                    dispatch.compute_shard,
                    self.basis,
                    batch
                    if (lo, hi) == (0, request.n_wires)
                    else batch.select_rows(np.arange(lo, hi)),
                    lo, hi, **scan,
                )
                for lo, hi in ranges
            ],
            budget=request.packed.nbytes,
            batch=batch,
        )

    def _corpus_plan(self, query: protocol.CorpusQuery) -> _Plan:
        """Corpus queries: chunked scans of the hosted memmap.

        The query must name the hosted corpus and fit inside it.  The
        scan splits into at least enough chunks that none maps more
        than ``corpus_chunk_rows`` rows — the peak-memory contract —
        and at least as many as the client asked for.  Chunks compute
        and stream strictly one at a time, so at no point is more than
        one window's pages plus one result frame in flight.
        """
        if self._corpus is None:
            raise ServingError(
                protocol.ERR_NO_CORPUS,
                "this server hosts no corpus (start it with --corpus)",
            )
        if query.corpus != self._corpus_name:
            raise ServingError(
                protocol.ERR_NO_CORPUS,
                f"no corpus named {query.corpus!r} here "
                f"(hosting {self._corpus_name!r})",
            )
        if query.row_stop > self._corpus.n_rows:
            raise ServingError(
                protocol.ERR_BAD_FRAME,
                f"row range [{query.row_start}, {query.row_stop}) outside "
                f"corpus of {self._corpus.n_rows} rows",
            )
        # The same check parse_request makes of a bitset request, so a
        # corpus reply stays bit-identical to shipping the rows.
        n_samples = self.basis.grid.n_samples
        if query.start_slot > n_samples:
            raise ServingError(
                protocol.ERR_BAD_FRAME,
                f"start_slot {query.start_slot} outside grid of "
                f"{n_samples} samples",
            )
        chunk_rows = max(1, self.config.corpus_chunk_rows)
        n_chunks = max(query.n_shards, -(-query.n_wires // chunk_rows))
        chunks = [
            functools.partial(self._compute_corpus_chunk, query, lo, hi)
            for lo, hi in _shard_ranges(
                query.row_start, query.n_wires, n_chunks
            )
        ]
        done = {
            "n_wires": query.n_wires,
            "corpus": self._corpus_name,
            "row_start": query.row_start,
            "row_stop": query.row_stop,
        }
        return _Plan("corpus-mmap", done, lambda _: chunks)

    def _compute_corpus_chunk(
        self, query: protocol.CorpusQuery, lo: int, hi: int
    ) -> dict:
        """Map one row window and run the receiver pass on it.

        Runs off-loop: the kernels compute straight on the mapped
        words, so this is where the file pages actually fault in — and
        the mapping is dropped with the chunk batch, keeping the scan's
        working set at one window.
        """
        rows = self._corpus.open_rows(lo, hi)
        return dispatch.compute_shard(
            self.basis,
            rows,
            lo,
            hi,
            mode=query.mode,
            start_slot=query.start_slot,
            limit=query.limit,
        )

    #: Cap on evaluated gates per logicnet request (networks × depth ×
    #: gates) — bounds the compute the way the frame size cap bounds
    #: bitset requests.
    _LOGICNET_MAX_GATES = 1 << 24

    def _logicnet_plan(self, query: protocol.LogicNetQuery) -> _Plan:
        """Logicnet queries: network ranges of a seeded family.

        The request ships no payload and needs no arena: each shard
        task is a few integers, and pool workers rebuild their networks
        from spawn keys against the basis they already hold installed.
        Evaluation still allocates its block buffers, wiring tables
        and accumulators, so each shard's
        :func:`~repro.logic.netbatch.working_set` is charged to the
        in-flight budget: a query that could never fit answers
        OVERLOADED, and concurrent large queries queue.  The split
        defaults to ``--shards``, else one shard.
        """
        total = query.n_networks * query.depth * query.n_gates
        if total > self._LOGICNET_MAX_GATES:
            raise ServingError(
                protocol.ERR_OVERLOADED,
                f"logicnet query evaluates {total} gates, over this "
                f"server's cap of {self._LOGICNET_MAX_GATES}; "
                f"split the network range across requests",
            )
        ranges = _shard_ranges(
            query.net_start,
            query.n_networks,
            query.n_shards or self.config.n_shards or 1,
        )
        tasks = [
            dispatch.LogicNetShardTask(
                token=self._basis_token,
                seed=query.seed,
                n_gates=query.n_gates,
                depth=query.depth,
                net_start=lo,
                net_stop=hi,
            )
            for lo, hi in ranges
        ]
        done = {
            "n_networks": query.n_networks,
            "n_gates": query.n_gates,
            "depth": query.depth,
            "row_start": query.net_start,
            "row_stop": query.net_stop,
        }
        budget = sum(
            working_set(
                hi - lo,
                query.n_gates,
                query.depth,
                self.basis.size,
                self.basis.grid.n_samples,
            ).nbytes
            for lo, hi in ranges
        )
        if self._use_pool():
            return _Plan(
                "seed-rebuild",
                done,
                lambda _: self._gather(dispatch.run_logicnet_shard, tasks),
                budget=budget,
            )
        # In-process shards call the compute core directly: the pool
        # entry point would fire the pool-only ``serving.run_shard``
        # fault inside the server process.
        return _Plan(
            "in-process",
            done,
            lambda _: [
                functools.partial(
                    dispatch.compute_logicnet_shard,
                    self.basis,
                    seed=task.seed,
                    n_gates=task.n_gates,
                    depth=task.depth,
                    net_start=task.net_start,
                    net_stop=task.net_stop,
                )
                for task in tasks
            ],
            budget=budget,
        )

    #: frame type → (parser, plan builder).  Any other frame type goes
    #: through ``parse_request``, which rejects it with ERR_BAD_TYPE.
    _ROUTES = {
        protocol.FRAME_IDENTIFY: (protocol.parse_request, _bitset_plan),
        protocol.FRAME_MEMBERSHIP: (protocol.parse_request, _bitset_plan),
        protocol.FRAME_CORPUS_QUERY: (
            protocol.parse_corpus_query, _corpus_plan,
        ),
        protocol.FRAME_LOGICNET: (
            protocol.parse_logicnet_query, _logicnet_plan,
        ),
    }


class ServerThread:
    """A :class:`SpikeServer` on a private event loop in a daemon thread.

    The embedding harness shared by the tests, the benchmark, the
    example and the CI smoke job::

        with ServerThread(ServerConfig(n_samples=4096)) as handle:
            client = ServingClient(handle.host, handle.port)
            ...

    ``close()`` (or leaving the ``with`` block) performs the server's
    graceful shutdown and joins the thread.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runner: Optional[Runner] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._runner = runner
        self.server: Optional[SpikeServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.port: Optional[int] = None

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self.config.host

    def start(self) -> "ServerThread":
        """Start the loop thread and block until the socket is bound."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serving",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise ServingError(
                protocol.ERR_INTERNAL, "server thread failed to start in 60s"
            )
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = SpikeServer(self.config, self._runner)
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.close()

    def close(self) -> None:
        """Gracefully shut the server down and join the thread."""
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


async def _serve_until_signal(
    config: ServerConfig, out, runner: Optional[Runner]
) -> None:
    """Run one server until SIGINT/SIGTERM (or cancellation)."""
    import signal

    logger = log.configure(stream=out)
    server = SpikeServer(config, runner)
    await server.start()
    logger.info(
        "repro serve: listening on %s:%d (M=%d, n_samples=%d, jobs=%d, "
        "seed=%d)",
        config.host,
        server.port,
        config.basis_size,
        config.n_samples,
        config.jobs,
        config.seed,
    )
    if server.corpus_name is not None:
        logger.info(
            "repro serve: hosting corpus %r (%d rows, chunk window %d rows)",
            server.corpus_name,
            server._corpus.n_rows,
            config.corpus_chunk_rows,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    try:
        await stop.wait()
    finally:
        logger.info("repro serve: shutting down")
        await server.close()
        logger.info("repro serve: %s", server.stats.summary())


def serve_forever(
    config: ServerConfig, out=sys.stdout, runner: Optional[Runner] = None
) -> int:
    """Blocking entry point behind ``repro serve``.

    ``config.workers > 1`` hands off to the multi-process cluster
    (:func:`repro.serving.cluster.serve_cluster`); otherwise one
    in-process server runs until a signal, on ``runner``'s pool when
    one is given (the caller keeps ownership).
    """
    if config.workers > 1:
        from .cluster import serve_cluster

        return serve_cluster(config, out=out)
    try:
        asyncio.run(_serve_until_signal(config, out, runner))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0
