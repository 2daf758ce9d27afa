"""Reference clients for the packed-bitset serving protocol.

:class:`ServingClient` is the canonical consumer of
:mod:`repro.serving.protocol` — a small blocking-socket client used by
the integration tests, ``benchmarks/bench_serving.py``,
``examples/serve_and_query.py`` and the CI smoke job, and the
copy-pasteable starting point documented in ``docs/serving.md``.
:class:`AsyncServingClient` is its asyncio sibling for **pipelined**
use: many requests in flight on one connection, responses demuxed by
request id as the server interleaves them.

Neither client ever touches spike indices: both take a
:class:`~repro.backend.batch.SpikeTrainBatch` (or an already-packed
bitset), frame its ``packbits`` transport form — packed straight from
the CSR, no raster, and handed to the socket as buffer views without
an intermediate concatenation copy — and merge the per-shard response
frames the server streams back into whole-batch result arrays.  Every
request is stamped :data:`~repro.serving.protocol.PROTOCOL_VERSION`,
the one version the wire has, and results return as binary frames
(:func:`~repro.serving.protocol.parse_result_frame`).

The request API is written once (``_ClientCore``) over an I/O-free
response accumulator; the two clients are thin transports that only
connect, send, receive and retry.

The *corpus* methods (``corpus_identify`` / ``corpus_membership``)
ship no bitset: they name a corpus the server hosts (``repro serve
--corpus``) plus a row range, and the server streams back chunk
results computed straight off its memmap — the reply merges exactly
like a bitset request's.  ``logicnet()`` sends a 20-byte query naming
a seeded network family and a network range; the server rebuilds and
evaluates the networks against its own basis and streams back
per-network summaries.  ``ping()`` is the one-frame health probe.

Usage::

    with ServingClient(host, port) as client:
        reply = client.identify(batch)
        reply.elements          # (N,) identified element per wire
        reply.shards            # per-shard payloads, wall times included
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend.batch import SpikeTrainBatch
from ..errors import ConnectionLostError, ProtocolError, ServingError
from ..units import SimulationGrid
from . import protocol

__all__ = [
    "ServingClient",
    "AsyncServingClient",
    "RetryPolicy",
    "IdentifyReply",
    "MembershipReply",
    "LogicNetReply",
]


@dataclass(frozen=True)
class RetryPolicy:
    """When and how a client re-issues a failed request.

    Retries apply only to failures that are *typed retryable*: a
    :class:`~repro.errors.ServingError` whose
    :attr:`~repro.errors.ServingError.retryable` is True (the server
    said "try again" — draining, deadline pressure), a
    :class:`~repro.errors.ConnectionLostError` (the channel died, the
    request was never refuted), or an ``OSError``/``EOFError`` from the
    transport (reset, refused, timed out).  Structural failures — bad
    grids, malformed frames, unknown corpora — raise immediately; they
    would fail identically forever.

    Every request this library's clients issue is idempotent (pure
    reads of a deterministic function), so re-issuing is always safe;
    the policy still lives behind an explicit opt-in (``retry=``)
    because retrying multiplies worst-case latency.

    Delays follow capped exponential backoff with full-range jitter::

        delay(k) = uniform(0, min(max_delay, base_delay * factor**k))

    — the standard decorrelation so a fleet of clients that failed
    together does not reconnect together.
    """

    attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0

    def delay(self, retry_index: int) -> float:
        """The sleep before retry ``retry_index`` (0-based), jittered."""
        ceiling = min(
            float(self.max_delay),
            float(self.base_delay) * float(self.factor) ** retry_index,
        )
        return random.random() * ceiling


def _retryable(exc: BaseException) -> bool:
    """Is ``exc`` a failure a fresh attempt could outlive?"""
    if isinstance(exc, ServingError):
        return exc.retryable
    return isinstance(exc, (OSError, EOFError))


@dataclass(frozen=True)
class IdentifyReply:
    """A merged identify response.

    The arrays are the concatenation of the per-shard results in row
    order — the same triplet
    :class:`~repro.logic.correlator.BatchIdentification` carries, so
    equality against a local ``identify_batch`` run is one array
    compare.
    """

    elements: np.ndarray
    decision_slots: np.ndarray
    spikes_inspected: np.ndarray
    labels: List[str]
    shards: List[dict]
    summary: dict


@dataclass(frozen=True)
class MembershipReply:
    """A merged membership response (``(N, M)`` matrices, row order)."""

    membership: np.ndarray
    first_slots: np.ndarray
    labels: List[str]
    shards: List[dict]
    summary: dict


@dataclass(frozen=True)
class LogicNetReply:
    """A merged logicnet response (network order).

    ``popcounts`` is the ``(N, G)`` int64 matrix of output spike
    counts and ``checksums`` the ``(N,)`` uint64 XOR folds — the same
    summaries :meth:`~repro.logic.netbatch.LogicNetBatch.evaluate`
    returns locally, so served-vs-local equality is two array
    compares.
    """

    popcounts: np.ndarray
    checksums: np.ndarray
    labels: List[str]
    shards: List[dict]
    summary: dict


def _server_error(frame: protocol.Frame) -> ServingError:
    """The typed error an ERROR frame carries."""
    payload = protocol.parse_json_frame(frame)
    return ServingError(
        int(payload.get("code", protocol.ERR_INTERNAL)),
        f"server error {payload.get('error', 'UNKNOWN')}: "
        f"{payload.get('message', '')}",
    )


def _merged(shards: List[dict], key: str) -> np.ndarray:
    """Concatenate one per-shard array field in row order."""
    if not shards:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [np.asarray(shard[key], dtype=np.int64) for shard in shards]
    )


def _identify_reply(shards: List[dict], summary: dict) -> IdentifyReply:
    return IdentifyReply(
        elements=_merged(shards, "elements"),
        decision_slots=_merged(shards, "decision_slots"),
        spikes_inspected=_merged(shards, "spikes_inspected"),
        labels=list(summary.get("labels", [])),
        shards=shards,
        summary=summary,
    )


def _membership_reply(shards: List[dict], summary: dict) -> MembershipReply:
    return MembershipReply(
        membership=_merged(shards, "membership").astype(bool),
        first_slots=_merged(shards, "first_slots"),
        labels=list(summary.get("labels", [])),
        shards=shards,
        summary=summary,
    )


def _logicnet_reply(shards: List[dict], summary: dict) -> LogicNetReply:
    n_gates = int(summary.get("n_gates", 0))
    if shards:
        popcounts = np.concatenate(
            [np.asarray(s["popcounts"], dtype=np.int64) for s in shards]
        )
        checksums = np.concatenate(
            [np.asarray(s["checksums"], dtype=np.uint64) for s in shards]
        )
    else:
        popcounts = np.empty((0, n_gates), dtype=np.int64)
        checksums = np.empty(0, dtype=np.uint64)
    return LogicNetReply(
        popcounts=popcounts,
        checksums=checksums,
        labels=list(summary.get("labels", [])),
        shards=shards,
        summary=summary,
    )


def _summary_only(_shards: List[dict], summary: dict) -> dict:
    """Reply of the one-frame exchanges (PING, STATS): the JSON payload."""
    return summary


def _transport_form(wires, grid):
    """``(packed bitset, grid)`` of the caller's batch."""
    if isinstance(wires, SpikeTrainBatch):
        return wires.packbits(), wires.grid
    if grid is None:
        raise ServingError(
            protocol.ERR_BAD_FRAME,
            "a raw packed array needs an explicit grid",
        )
    return np.asarray(wires, dtype=np.uint8), grid


class _Response:
    """One request's response stream, merged without any I/O.

    Both transports drive one per request — the blocking client from
    its socket loop, the async client from its demux — so the reply
    semantics cannot drift apart.  :meth:`feed` takes the request's
    frames in arrival order and returns True once the ``expect``\\ ed
    terminal frame (``DONE``, ``PONG`` or ``STATS_REPLY``) ends the
    request; an ``ERROR`` frame raises the server's typed
    :class:`~repro.errors.ServingError`, and any other frame is a
    protocol violation.
    """

    def __init__(self, expect: int) -> None:
        self.expect = expect
        self.shards: List[dict] = []
        self.summary: Optional[dict] = None

    def feed(self, frame: protocol.Frame) -> bool:
        """Absorb one frame; True when it completed the response."""
        if frame.frame_type == protocol.FRAME_ERROR:
            raise _server_error(frame)
        if frame.frame_type == self.expect:
            self.summary = protocol.parse_json_frame(frame)
            self.shards.sort(key=lambda shard: shard["row_start"])
            return True
        if (
            self.expect == protocol.FRAME_DONE
            and frame.frame_type == protocol.FRAME_RESULT
        ):
            self.shards.append(protocol.parse_result_frame(frame))
            return False
        raise ProtocolError(
            protocol.ERR_BAD_TYPE,
            f"unexpected frame type 0x{frame.frame_type:02x} "
            f"(awaiting 0x{self.expect:02x})",
        )


class _ClientCore:
    """The request API, written once for both transports.

    Each method builds its request encoder, names the terminal frame
    it expects and the reply builder, and hands all three to the
    transport's ``_call(encode, expect, finish)``.  ``encode`` maps a
    fresh request id to the frame's buffer parts (run per attempt, so
    a retried request is a brand-new request); ``finish`` maps the
    merged ``(shards, summary)`` to the reply.  :class:`ServingClient`
    returns the reply; on :class:`AsyncServingClient` every method
    returns an awaitable of it.
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int,
        retry: Optional[RetryPolicy],
        deadline_ms: int,
    ) -> None:
        self._deadline_ms = protocol._check_deadline_ms(deadline_ms)
        self._retry = retry
        self._max_frame_bytes = int(max_frame_bytes)
        self._request_ids = itertools.count(1)

    def identify(
        self,
        wires: Union[SpikeTrainBatch, np.ndarray],
        grid: Optional[SimulationGrid] = None,
        *,
        start_slot: int = 0,
        n_shards: int = 0,
    ) -> IdentifyReply:
        """Identify every wire in ``wires`` against the server's basis."""
        return self._bitset_call(
            wires, grid, _identify_reply,
            mode="identify", start_slot=start_slot, n_shards=n_shards,
        )

    def membership(
        self,
        wires: Union[SpikeTrainBatch, np.ndarray],
        grid: Optional[SimulationGrid] = None,
        *,
        until_slot: Optional[int] = None,
        n_shards: int = 0,
    ) -> MembershipReply:
        """Set-membership readout of every wire against the basis."""
        return self._bitset_call(
            wires, grid, _membership_reply,
            mode="membership", limit=until_slot, n_shards=n_shards,
        )

    def corpus_identify(
        self,
        corpus: str,
        row_start: int,
        row_stop: int,
        *,
        start_slot: int = 0,
        n_shards: int = 0,
    ) -> IdentifyReply:
        """Identify rows ``[row_start, row_stop)`` of a server-hosted corpus.

        No bitset leaves this process — the request names the corpus
        and the row range, the server computes chunk-at-a-time off its
        memmap, and the merged reply is bit-identical to fetching those
        rows locally and calling :meth:`identify`.
        """
        return self._corpus_call(
            corpus, row_start, row_stop, _identify_reply,
            mode="identify", start_slot=start_slot, n_shards=n_shards,
        )

    def corpus_membership(
        self,
        corpus: str,
        row_start: int,
        row_stop: int,
        *,
        until_slot: Optional[int] = None,
        n_shards: int = 0,
    ) -> MembershipReply:
        """Set-membership readout of a server-hosted corpus row range."""
        return self._corpus_call(
            corpus, row_start, row_stop, _membership_reply,
            mode="membership", limit=until_slot, n_shards=n_shards,
        )

    def logicnet(
        self,
        seed: int,
        net_start: int,
        net_stop: int,
        *,
        n_gates: int,
        depth: int,
        n_shards: int = 0,
    ) -> LogicNetReply:
        """Evaluate networks ``[net_start, net_stop)`` of a seeded family.

        The request is 20 bytes — no bitset leaves this process.  The
        server rebuilds each network from its ``spawn_rng(seed, i)``
        spawn key, evaluates it against the serving basis's packed
        input lines, and streams per-network output popcounts and
        checksums; the merged reply is bit-identical to building and
        evaluating the same range locally.
        """
        return self._call(
            lambda request_id: [
                protocol.encode_logicnet_query(
                    seed,
                    net_start,
                    net_stop,
                    n_gates=n_gates,
                    depth=depth,
                    n_shards=n_shards,
                    request_id=request_id,
                    deadline_ms=self._deadline_ms,
                )
            ],
            protocol.FRAME_DONE,
            _logicnet_reply,
        )

    def ping(self) -> dict:
        """One PING/PONG health round-trip (the load-balancer probe).

        Returns the PONG payload — ``{"ready": true, ...}`` plus the
        served protocol version and the hosted corpus name (if any).
        The cheapest possible liveness check: no compute, no STATS
        aggregation.
        """
        return self._call(
            lambda request_id: [protocol.encode_ping(request_id)],
            protocol.FRAME_PONG,
            _summary_only,
        )

    def stats(self, scope: Optional[str] = None) -> dict:
        """The server's :class:`~repro.serving.server.ServerStats` snapshot.

        ``scope`` is forwarded on the wire (see
        :func:`~repro.serving.protocol.encode_stats_request`): against
        a ``--workers N`` cluster, the default answers cluster-wide
        aggregated counters and ``"local"`` answers only the worker
        this connection landed on.  Single servers ignore it.
        """
        return self._call(
            lambda request_id: [
                protocol.encode_stats_request(request_id, scope=scope)
            ],
            protocol.FRAME_STATS_REPLY,
            _summary_only,
        )

    def _bitset_call(self, wires, grid, finish, **scan):
        """One identify/membership request over the caller's bitset."""

        def encode(request_id):
            packed, wire_grid = _transport_form(wires, grid)
            # Two parts — header and the caller's own bitset buffer —
            # so no transport ever concatenates (copies) the payload.
            return protocol.encode_request_parts(
                packed,
                wire_grid.n_samples,
                wire_grid.dt,
                request_id=request_id,
                deadline_ms=self._deadline_ms,
                **scan,
            )

        return self._call(encode, protocol.FRAME_DONE, finish)

    def _corpus_call(self, corpus, row_start, row_stop, finish, **scan):
        """One corpus query over a server-hosted row range."""
        return self._call(
            lambda request_id: [
                protocol.encode_corpus_query(
                    corpus,
                    row_start,
                    row_stop,
                    request_id=request_id,
                    deadline_ms=self._deadline_ms,
                    **scan,
                )
            ],
            protocol.FRAME_DONE,
            finish,
        )


class ServingClient(_ClientCore):
    """Blocking client for one serving endpoint.

    One TCP connection, reused across requests; close with
    :meth:`close` or a ``with`` block.  Not thread-safe — use one
    client per thread (the benchmark does exactly that).

    ``retry`` opts into re-issuing failed requests per
    :class:`RetryPolicy` — every retry reconnects first, so a crashed
    (and respawned) serving worker is transparent to the caller.
    ``deadline_ms`` stamps every compute request with a server-side
    deadline (0: none).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: int = 0,
    ) -> None:
        super().__init__(
            max_frame_bytes=max_frame_bytes,
            retry=retry,
            deadline_ms=deadline_ms,
        )
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._sock: Optional[socket.socket] = None
        self._connect()

    def _connect(self) -> None:
        """(Re)establish the TCP connection with a fresh frame parser."""
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # Request/response frames are latency-bound: never Nagle them,
        # and let a whole multi-megabyte request enter the send buffer
        # in few calls instead of draining it in scheduler round trips.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4 * 1024 * 1024
        )
        self._reader = protocol.FrameReader(self._max_frame_bytes)
        self._pending: Deque[protocol.Frame] = deque()

    def _call(self, encode, expect, finish):
        """Issue one request under the retry policy; return its reply.

        Each attempt draws a fresh request id, so a retried request is
        a brand-new request on a brand-new connection (every retry
        reconnects first), never a replay into a half-dead stream.
        Only typed-retryable failures loop; anything else propagates
        on the spot.
        """
        attempts = self._retry.attempts if self._retry is not None else 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._retry.delay(attempt - 1))
                try:
                    self.close()
                    self._connect()
                except OSError as exc:
                    if attempt + 1 >= attempts:
                        raise ConnectionLostError(
                            protocol.ERR_RETRYABLE,
                            f"reconnect failed after {attempts} attempts: "
                            f"{exc}",
                        ) from exc
                    continue
            try:
                request_id = next(self._request_ids)
                self._send(encode(request_id))
                response = _Response(expect)
                while not response.feed(self._next_frame(request_id)):
                    pass
                return finish(response.shards, response.summary)
            except Exception as exc:  # noqa: BLE001 - classified below
                if attempt + 1 >= attempts or not _retryable(exc):
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _send(self, parts) -> None:
        """Send every byte of ``parts``, scatter-gathered from the
        callers' own buffers.

        One ``sendmsg`` sends only what fits the kernel's send buffer
        (a timeout-mode socket never loops for us), so a large request
        takes several calls: each resumes at the first unsent byte by
        slicing memoryviews — no payload copy on the way out.
        """
        views = [memoryview(part).cast("B") for part in parts]
        while views:
            sent = self._sock.sendmsg(views)
            while views and sent >= views[0].nbytes:
                sent -= views.pop(0).nbytes
            if views:
                views[0] = views[0][sent:]

    def _next_frame(self, request_id: int) -> protocol.Frame:
        """Read from the socket until one complete frame arrives.

        ``feed`` may complete several frames from one ``recv``; the
        surplus queues in ``_pending`` for the following calls.  Only
        this request's frames (or a connection-scope one, id 0) may
        arrive on a blocking connection.
        """
        while not self._pending:
            data = self._sock.recv(1024 * 1024)
            if not data:
                raise ConnectionLostError(
                    protocol.ERR_RETRYABLE,
                    "connection closed mid-response",
                )
            self._pending.extend(self._reader.feed(data))
        frame = self._pending.popleft()
        if frame.request_id not in (0, request_id):
            raise ProtocolError(
                protocol.ERR_BAD_FRAME,
                f"response for request {frame.request_id}, "
                f"expected {request_id}",
            )
        return frame

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class AsyncServingClient(_ClientCore):
    """Pipelined asyncio client: many requests in flight per connection.

    A background reader task demuxes the server's interleaved response
    frames by request id, so concurrent ``identify`` / ``membership``
    coroutines share one connection::

        client = await AsyncServingClient.open(host, port)
        replies = await asyncio.gather(
            *[client.identify(batch) for batch in batches]
        )
        await client.aclose()

    This is what makes the server's coalescing window reachable from a
    single process: requests issued together arrive together.  The
    request API is :class:`ServingClient`'s (same replies, same
    defaults — including ``retry`` / ``deadline_ms``), each method
    returning an awaitable.

    A retried request reconnects first; because the connection is
    shared, one reconnect serves every concurrent coroutine whose
    request died with it (each observes its own typed-retryable
    failure and re-issues on the fresh connection — a connection
    *generation* counter keeps N failed coroutines from reconnecting
    N times).
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: int = 0,
    ) -> None:
        super().__init__(
            max_frame_bytes=max_frame_bytes,
            retry=retry,
            deadline_ms=deadline_ms,
        )
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._frames = protocol.FrameReader(self._max_frame_bytes)
        #: request id → (its response accumulator, the future resolved
        #: when the accumulator completes or fails).
        self._inflight: Dict[int, Tuple[_Response, asyncio.Future]] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._generation = 0
        self._conn_lock: Optional[asyncio.Lock] = None

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: int = 0,
    ) -> "AsyncServingClient":
        """Connect and start the demux reader."""
        client = cls(
            max_frame_bytes=max_frame_bytes,
            retry=retry,
            deadline_ms=deadline_ms,
        )
        client._host, client._port = host, int(port)
        client._conn_lock = asyncio.Lock()
        await client._establish()
        return client

    async def _establish(self) -> None:
        """Open the connection and start a fresh demux reader."""
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._frames = protocol.FrameReader(self._max_frame_bytes)
        self._reader_task = asyncio.create_task(self._read_loop())
        self._generation += 1

    async def _reconnect(self, seen_generation: int) -> None:
        """Tear down and re-open, once per connection generation.

        Concurrent coroutines whose requests died together all call
        this; whoever wins the lock reconnects, the rest observe the
        advanced generation and reuse the new connection.
        """
        async with self._conn_lock:
            if self._generation != seen_generation:
                return  # a sibling coroutine already reconnected
            await self._teardown()
            await self._establish()

    async def _teardown(self) -> None:
        """Stop the demux reader and close the connection."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None

    async def _call(self, encode, expect, finish):
        """Issue one request under the retry policy; return its reply.

        A typed-retryable failure reconnects (once per connection
        generation, shared with every sibling whose request died on the
        same connection) and re-issues with a fresh request id.
        """
        attempts = self._retry.attempts if self._retry is not None else 1
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(self._retry.delay(attempt - 1))
            generation = self._generation
            try:
                return finish(*await self._issue(encode, expect))
            except Exception as exc:  # noqa: BLE001 - classified below
                if attempt + 1 >= attempts or not _retryable(exc):
                    raise
                try:
                    await self._reconnect(generation)
                except OSError:
                    continue  # next attempt backs off and retries
        raise AssertionError("unreachable")  # pragma: no cover

    async def _issue(self, encode, expect):
        """One attempt: send the request, await its merged response.

        The request is encoded *before* it is registered in flight, so
        a request the encoder rejects leaves nothing behind for
        :meth:`aclose` to fail.
        """
        request_id = next(self._request_ids)
        parts = encode(request_id)
        if self._writer is None:
            raise ServingError(
                protocol.ERR_INTERNAL,
                "client is not connected (use AsyncServingClient.open)",
            )
        if self._reader_task is not None and self._reader_task.done():
            # The demux died while idle (server idle-timeout, reset):
            # fail typed-retryable *before* writing into a dead stream,
            # so the retry path reconnects instead of hanging.
            raise ConnectionLostError(
                protocol.ERR_RETRYABLE, "connection lost while idle"
            )
        response = _Response(expect)
        future = asyncio.get_running_loop().create_future()
        self._inflight[request_id] = (response, future)
        try:
            # writelines enqueues every part in one synchronous call,
            # so concurrent requests cannot interleave their bytes.
            self._writer.writelines(parts)
            await self._writer.drain()
            await future
        finally:
            # An abandoned request (send failed, caller cancelled) stays
            # registered so its late frames are absorbed, but nothing
            # awaits its future any more: settle it quietly.
            if not future.done():
                future.cancel()
            elif not future.cancelled():
                future.exception()
        return response.shards, response.summary

    async def aclose(self) -> None:
        """Stop the reader, close the socket, fail anything still pending."""
        await self._teardown()
        self._fail_all(
            ProtocolError(protocol.ERR_BAD_FRAME, "client closed")
        )

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def _read_loop(self) -> None:
        """Demux every inbound frame to its request's accumulator."""
        try:
            while True:
                data = await self._reader.read(1024 * 1024)
                if not data:
                    raise ConnectionLostError(
                        protocol.ERR_RETRYABLE,
                        "connection closed with requests in flight",
                    )
                for frame in self._frames.feed(data):
                    self._dispatch(frame)
                poison = self._frames.pending_error
                if poison is not None:
                    raise poison
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - delivered to waiters
            self._fail_all(exc)

    def _dispatch(self, frame: protocol.Frame) -> None:
        """Feed one frame to its request; resolve it once complete."""
        if frame.request_id == 0 and frame.frame_type == protocol.FRAME_ERROR:
            # Connection-scope error: the stream is done for.
            raise _server_error(frame)
        entry = self._inflight.get(frame.request_id)
        if entry is None:
            raise ProtocolError(
                protocol.ERR_BAD_FRAME,
                f"response for unknown request {frame.request_id}",
            )
        response, future = entry
        try:
            if not response.feed(frame):
                return
        except ServingError as exc:
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(None)
        del self._inflight[frame.request_id]

    def _fail_all(self, exc: Exception) -> None:
        inflight, self._inflight = self._inflight, {}
        for _response, future in inflight.values():
            if not future.done():
                future.set_exception(exc)
