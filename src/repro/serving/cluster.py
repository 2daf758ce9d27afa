"""Multi-worker serving: N server processes behind one port.

``repro serve --workers N`` forks N full :class:`~repro.serving.server.
SpikeServer` processes from one parent.  The parent does the expensive,
shared work exactly once before forking:

* it builds the serving basis and exports it into a cluster-lifetime
  :class:`~repro.backend.shared.SharedArena`; every worker *attaches*
  the same read-only pages
  (:meth:`~repro.hyperspace.basis.HyperspaceBasis.from_artifact`)
  instead of re-running the synthesis pipeline;
* it binds N ``SO_REUSEPORT`` sockets on **one** concrete port, so the
  kernel load-balances incoming connections across the workers with no
  user-space hop.  That is the only way a cluster shares its port: a
  host without ``SO_REUSEPORT`` gets a typed
  :class:`~repro.errors.ServingError` instead of a cluster;
* it allocates one fork-inherited :class:`ClusterStatsBlock` — a
  shared counter matrix plus per-worker latency rings.  Each worker's
  :class:`WorkerStats` mirrors every :class:`~repro.serving.server.
  ServerStats` update into its own row (single writer per row, no
  locks), and *any* worker can answer a cluster-scope ``STATS``
  request by summing the block — the aggregated reply documented in
  ``docs/protocol.md``.

Shutdown is coordinated: the parent signals every worker, each worker
runs its own graceful :meth:`~repro.serving.server.SpikeServer.close`
(drain in-flight requests, release pool attachments), the parent joins
them all, and **only then** unlinks the startup arena — a worker never
sees its basis pages disappear mid-drain.

Embedding (tests and the ``--workers 2`` bench) uses
:class:`ServerCluster` directly; the blocking CLI path is
:func:`serve_cluster`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import sys
import threading
from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..backend.shared import SharedArena
from ..errors import ServingError
from ..hyperspace.basis import BasisArtifact, HyperspaceBasis
from . import log, protocol
from .server import ServerConfig, ServerStats, SpikeServer, build_serving_basis

__all__ = [
    "ClusterStatsBlock",
    "WorkerStats",
    "ServerCluster",
    "serve_cluster",
]

#: Fork start method: workers must inherit the pre-bound sockets, the
#: attached basis artifact metadata and the stats block by address
#: space, not by pickle.
_MP = multiprocessing.get_context("fork")

#: Columns of the shared counter matrix, in ServerStats field order.
_COUNTER_FIELDS = (
    "requests_served",
    "fast_path_requests",
    "pool_path_requests",
    "coalesced_requests",
    "coalesced_batches",
    "errors",
)

#: True when the kernel can fan one port out to many listeners.
HAVE_REUSEPORT = hasattr(socket, "SO_REUSEPORT")


class ClusterStatsBlock:
    """Fork-shared per-worker counters and latency rings.

    One int64 row of :data:`_COUNTER_FIELDS` per worker plus a float64
    latency ring (write position in ``positions``), all backed by
    anonymous shared mappings (``multiprocessing.RawArray``) that every
    forked worker inherits writable.  Each worker writes only its own
    row — the single-writer discipline that makes the lock-free
    aggregation sound — and any process may :meth:`aggregate`.
    """

    def __init__(self, workers: int, window: int = 1024) -> None:
        if workers < 1:
            raise ServingError(
                protocol.ERR_INTERNAL, f"workers must be >= 1, got {workers}"
            )
        self.workers = int(workers)
        self.window = int(window)
        self._counters_raw = _MP.RawArray("q", self.workers * len(_COUNTER_FIELDS))
        self._latencies_raw = _MP.RawArray("d", self.workers * self.window)
        self._positions_raw = _MP.RawArray("q", self.workers)
        self._pids_raw = _MP.RawArray("q", self.workers)
        self._respawns_raw = _MP.RawArray("q", 1)
        self.counters = np.frombuffer(self._counters_raw, dtype=np.int64).reshape(
            self.workers, len(_COUNTER_FIELDS)
        )
        self.latencies = np.frombuffer(
            self._latencies_raw, dtype=np.float64
        ).reshape(self.workers, self.window)
        self.positions = np.frombuffer(self._positions_raw, dtype=np.int64)
        self.pids = np.frombuffer(self._pids_raw, dtype=np.int64)
        # How many worker respawns the supervisor performed, cluster
        # lifetime.  Written by the parent's monitor thread, read by
        # any worker answering a cluster-scope STATS request.
        self.respawns = np.frombuffer(self._respawns_raw, dtype=np.int64)

    def record_latency(self, index: int, seconds: float) -> None:
        """Push one request wall time onto worker ``index``'s ring."""
        pos = int(self.positions[index])
        self.latencies[index, pos % self.window] = float(seconds)
        self.positions[index] = pos + 1

    def _pooled_latencies(self) -> np.ndarray:
        """Every valid ring entry across workers, as one array."""
        parts = []
        for index in range(self.workers):
            valid = min(int(self.positions[index]), self.window)
            if valid:
                parts.append(np.asarray(self.latencies[index, :valid]))
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(parts)

    def aggregate(self) -> dict:
        """The cluster-wide STATS payload.

        Same counter keys as a single server's snapshot (summed), with
        latency quantiles over the pooled rings, plus the additive
        cluster keys ``scope``/``workers``/``per_worker`` — clients
        already tolerate unknown STATS keys, so a client pointed at a
        cluster just sees bigger numbers.
        """
        counters = self.counters.copy()
        totals = counters.sum(axis=0)
        pooled = self._pooled_latencies()
        payload = {"kind": "stats"}
        payload.update(
            {
                field: int(totals[column])
                for column, field in enumerate(_COUNTER_FIELDS)
            }
        )
        payload.update(
            {
                "latency_window": int(pooled.size),
                "latency_p50_seconds": (
                    float(np.quantile(pooled, 0.50)) if pooled.size else None
                ),
                "latency_p99_seconds": (
                    float(np.quantile(pooled, 0.99)) if pooled.size else None
                ),
                "scope": "cluster",
                "workers": self.workers,
                "respawns": int(self.respawns[0]),
                "per_worker": [
                    dict(
                        {"pid": int(self.pids[index])},
                        **{
                            field: int(counters[index, column])
                            for column, field in enumerate(_COUNTER_FIELDS)
                        },
                    )
                    for index in range(self.workers)
                ],
            }
        )
        return payload

    def summary(self) -> str:
        """One human line for the cluster shutdown log."""
        stats = self.aggregate()
        p50 = stats["latency_p50_seconds"]
        p99 = stats["latency_p99_seconds"]
        latency = (
            f"p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms "
            f"over last {stats['latency_window']}"
            if p50 is not None
            else "no latency samples"
        )
        return (
            f"served {stats['requests_served']} requests across "
            f"{stats['workers']} workers "
            f"({stats['fast_path_requests']} fast-path, "
            f"{stats['pool_path_requests']} pool, "
            f"{stats['coalesced_requests']} coalesced in "
            f"{stats['coalesced_batches']} batches), "
            f"{stats['errors']} errors, {stats['respawns']} worker "
            f"respawn(s), {latency}"
        )


class WorkerStats(ServerStats):
    """A :class:`ServerStats` mirroring into one stats-block row.

    The server updates its stats three ways — :meth:`record`, and
    direct ``+= 1`` bumps of ``errors`` and ``coalesced_batches`` — so
    every counter is a property backed by this worker's row of the
    shared block: any mutation path lands in shared memory without the
    server knowing it runs clustered.  The latency deque stays local
    (it feeds the *local*-scope snapshot); :meth:`record` additionally
    pushes onto the shared ring for cluster aggregation.

    ``preserve=True`` (a *respawned* worker taking over a dead
    sibling's row) skips the counter zeroing in
    :meth:`~repro.serving.server.ServerStats._reset_counters` — the
    predecessor's served-request counts survive the crash, keeping the
    cluster-wide STATS aggregate monotonic across respawns.
    """

    def __init__(
        self,
        block: ClusterStatsBlock,
        index: int,
        *,
        preserve: bool = False,
    ) -> None:
        self._block = block
        self._index = int(index)
        self._preserve = bool(preserve)
        super().__init__(window=block.window)

    def _reset_counters(self) -> None:
        if self._preserve:
            return
        super()._reset_counters()

    def record(self, transport: str, seconds: float) -> None:
        super().record(transport, seconds)
        self._block.record_latency(self._index, seconds)


def _counter_property(column: int):
    def getter(self: WorkerStats) -> int:
        return int(self._block.counters[self._index, column])

    def setter(self: WorkerStats, value: int) -> None:
        self._block.counters[self._index, column] = int(value)

    return property(getter, setter)


for _column, _field in enumerate(_COUNTER_FIELDS):
    setattr(WorkerStats, _field, _counter_property(_column))
del _column, _field


def _reuseport_sockets(host: str, port: int, count: int) -> List[socket.socket]:
    """``count`` sockets bound to one ``(host, port)`` via SO_REUSEPORT.

    With ``port == 0`` the first bind picks the ephemeral port and the
    rest join it.  Every socket must exist before the first worker
    forks, so each worker inherits (and keeps exactly) its own.
    """
    sockets: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
            if port == 0:
                port = sock.getsockname()[1]
            sockets.append(sock)
    except BaseException:
        for sock in sockets:
            sock.close()
        raise
    return sockets


def _worker_main(
    index: int,
    config: ServerConfig,
    artifact: BasisArtifact,
    sockets: List[socket.socket],
    block: ClusterStatsBlock,
    ready,
    preserve_stats: bool = False,
) -> None:
    """Process entry of worker ``index`` (runs in the forked child)."""
    # Each worker serves exactly one of the pre-bound listeners; the
    # sibling fds close here so this child cannot accept a connection
    # the kernel hashed to another worker's socket.  (The *parent*
    # keeps every fd open on purpose — same kernel socket, never
    # accepted on — so a respawned child can inherit the dead worker's
    # listener and drain what queued on it.)
    sock = sockets[index]
    for other_index, other in enumerate(sockets):
        if other_index != index:
            other.close()
    log.configure()  # rebind the handler to this pid
    try:
        asyncio.run(
            _worker_serve(
                index, config, artifact, sock, block, ready, preserve_stats
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass


async def _worker_serve(
    index: int,
    config: ServerConfig,
    artifact: BasisArtifact,
    sock: socket.socket,
    block: ClusterStatsBlock,
    ready,
    preserve_stats: bool = False,
) -> None:
    """One worker's lifetime: attach, serve until signalled, drain."""
    logger = log.get_logger("worker")
    basis = HyperspaceBasis.from_artifact(artifact)
    server = SpikeServer(
        config,
        sock=sock,
        stats=WorkerStats(block, index, preserve=preserve_stats),
        stats_aggregator=block.aggregate,
        basis=basis,
    )
    await server.start()
    block.pids[index] = os.getpid()
    ready.set()
    logger.debug("worker %d: accepting on port %d", index, server.port)
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
        await server.close()
        logger.info("worker %d: %s", index, server.stats.summary())


class ServerCluster:
    """N forked :class:`SpikeServer` processes behind one address.

    Usable embedded (tests, the bench) or from :func:`serve_cluster`::

        with ServerCluster(ServerConfig(workers=2, ...)) as cluster:
            client = ServingClient(cluster.host, cluster.port)
            ...

    Every worker accepts on its own ``SO_REUSEPORT`` listener bound to
    the one public port; a host without ``SO_REUSEPORT`` cannot run a
    cluster, and construction raises a typed
    :class:`~repro.errors.ServingError`.
    """

    def __init__(
        self, config: ServerConfig, workers: Optional[int] = None
    ) -> None:
        self.config = config
        self.workers = int(workers if workers is not None else config.workers)
        if self.workers < 1:
            raise ServingError(
                protocol.ERR_INTERNAL,
                f"workers must be >= 1, got {self.workers}",
            )
        if not HAVE_REUSEPORT:
            raise ServingError(
                protocol.ERR_INTERNAL,
                "a multi-worker cluster needs socket.SO_REUSEPORT, which "
                "this host lacks; run a single server instead",
            )
        self._arena: Optional[SharedArena] = None
        self._processes: List = []
        self._port: Optional[int] = None
        self.block = ClusterStatsBlock(self.workers)
        # Respawn machinery: the spawn inputs outlive start() so the
        # monitor thread can fork a replacement worker at any time.
        self._worker_config: Optional[ServerConfig] = None
        self._artifact: Optional[BasisArtifact] = None
        self._sockets: Optional[List[socket.socket]] = None
        self._monitor: Optional[threading.Thread] = None
        self._closing = threading.Event()

    @property
    def host(self) -> str:
        """The public bind host."""
        return self.config.host

    @property
    def port(self) -> int:
        """The one public port every worker is reachable through."""
        if self._port is None:
            raise ServingError(protocol.ERR_INTERNAL, "cluster not started")
        return self._port

    def _spawn_worker(self, index: int, *, preserve_stats: bool = False):
        """Fork worker ``index`` and return its readiness event.

        Used both at start-up and by the monitor thread respawning a
        crashed worker: a respawn re-forks from the parent, so the
        child re-inherits the pre-fork basis arena pages, its stats-row
        (preserved, not zeroed) and the dead worker's still-open
        listener fd.
        """
        ready = _MP.Event()
        process = _MP.Process(
            target=_worker_main,
            args=(
                index,
                self._worker_config,
                self._artifact,
                self._sockets,
                self.block,
                ready,
                preserve_stats,
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        return process, ready

    def start(self, ready_timeout: float = 120.0) -> "ServerCluster":
        """Build shared state, fork the workers, wait for readiness."""
        self._arena = SharedArena()
        self._closing.clear()
        try:
            basis = build_serving_basis(self.config)
            self._artifact = basis.to_artifact(self._arena)
            self._worker_config = replace(self.config, workers=1)
            # The parent keeps these fds open for the cluster's whole
            # life: they are the same kernel sockets the children
            # accept on (never accepted on here), and a respawned child
            # can only inherit a listener that still exists.
            self._sockets = _reuseport_sockets(
                self.config.host, self.config.port, self.workers
            )
            self._port = self._sockets[0].getsockname()[1]
            events = []
            for index in range(self.workers):
                process, ready = self._spawn_worker(index)
                self._processes.append(process)
                events.append(ready)
            for index, event in enumerate(events):
                if not event.wait(timeout=ready_timeout):
                    raise ServingError(
                        protocol.ERR_INTERNAL,
                        f"worker {index} failed to start within "
                        f"{ready_timeout:.0f}s",
                    )
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-serve-monitor",
                daemon=True,
            )
            self._monitor.start()
        except BaseException:
            self.close()
            raise
        return self

    def _monitor_loop(self, poll_interval: float = 0.2) -> None:
        """Supervise the workers: respawn any that die unexpectedly.

        Runs in a parent daemon thread.  A worker exiting while the
        cluster is not shutting down (crash, OOM kill, SIGKILL) is
        replaced at the same index — re-forked from the parent so it
        re-attaches the pre-fork basis arena and takes over the dead
        worker's stats row without zeroing it.  Every respawn bumps the
        shared ``respawns`` counter that cluster STATS reports.
        """
        logger = log.get_logger("cluster")
        while not self._closing.wait(poll_interval):
            for index, process in enumerate(self._processes):
                if process.is_alive() or self._closing.is_set():
                    continue
                logger.warning(
                    "worker %d (pid %s) died with exitcode %s; respawning",
                    index,
                    process.pid,
                    process.exitcode,
                )
                replacement, ready = self._spawn_worker(
                    index, preserve_stats=True
                )
                self._processes[index] = replacement
                self.block.respawns[0] += 1
                if not ready.wait(timeout=60.0):
                    logger.error(
                        "respawned worker %d failed to become ready in 60s",
                        index,
                    )
                else:
                    logger.info(
                        "worker %d respawned as pid %d", index, replacement.pid
                    )

    def aggregate(self) -> dict:
        """The cluster-wide STATS payload (parent-side convenience)."""
        return self.block.aggregate()

    def close(self, join_timeout: float = 60.0) -> dict:
        """Coordinated shutdown; returns the final aggregated stats.

        Order matters: stop supervising (or the monitor would respawn
        the workers being shut down), signal every worker, let each
        drain gracefully, join them all, and only then unlink the
        startup arena the workers' bases were attached to.
        """
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=30.0)
            self._monitor = None
        for process in self._processes:
            if process.is_alive() and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover - exited
                    pass
        for process in self._processes:
            process.join(timeout=join_timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        # The kept listener fds close only now, with every worker gone.
        for sock in self._sockets or ():
            sock.close()
        self._sockets = None
        stats = self.block.aggregate()
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        return stats

    def __enter__(self) -> "ServerCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve_cluster(config: ServerConfig, out=sys.stdout) -> int:
    """Blocking multi-worker entry behind ``repro serve --workers N``."""
    logger = log.configure(stream=out)
    cluster = ServerCluster(config)
    cluster.start()
    logger.info(
        "repro serve: listening on %s:%d (M=%d, n_samples=%d, jobs=%d, "
        "seed=%d, workers=%d)",
        cluster.host,
        cluster.port,
        config.basis_size,
        config.n_samples,
        config.jobs,
        config.seed,
        cluster.workers,
    )
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:  # noqa: ARG001 - signal API
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - double Ctrl-C
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        logger.info("repro serve: shutting down")
        cluster.close()
        logger.info("repro serve: %s", cluster.block.summary())
    return 0
