"""The server's compute threads, and a start that fails.

Every step a :class:`~repro.serving.server.SpikeServer` runs off its
event loop — in-process shards, corpus chunks, coalesced batches above
``fast_path_bytes``, its own share of a pool plan and the waits on
worker replies — runs on a thread the server owns, and the threads end
with ``close()``.  Steps that follow one another run on one thread;
concurrent requests compute at once; a request's deadline bounds its
wait for a step.  A start that raises undoes what it did: no install
stays in a shared runner's replay log, no worker of a runner the
server made outlives it, and no compute thread is left.
"""

import asyncio
import functools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.errors import ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.pipeline.corpus import CorpusStore
from repro.serving import dispatch, protocol
from repro.serving import server as server_module
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)
from repro.units import paper_white_grid

from .live_server import process_tree

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
CORPUS_ROWS = 100
CHUNK_ROWS = 16
#: Bytes of one packed wire on the ``SMALL`` grid.
ROW_BYTES = SMALL["n_samples"] // 8


@pytest.fixture(scope="module")
def small_basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory, small_basis):
    """An on-disk corpus of basis rows, scanned in several chunks."""
    root = tmp_path_factory.mktemp("compute") / "library"
    store = CorpusStore.create(
        root, paper_white_grid(n_samples=SMALL["n_samples"])
    )
    rng = np.random.default_rng(29)
    elements = rng.integers(SMALL["basis_size"], size=CORPUS_ROWS)
    with store.writer() as writer:
        writer.append(small_basis.as_batch().select_rows(elements))
    return root


@pytest.fixture()
def compute_calls(monkeypatch):
    """The threads this process ran ``compute_shard`` and
    ``run_logicnet_shard`` on, as ``(name, thread)`` in call order.

    The wrappers keep their targets' names, so a pool still pickles
    them by reference; a forked worker records into its own copy.
    """
    calls = []
    here = os.getpid()

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == here:
                calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("compute_shard", "run_logicnet_shard"):
        monkeypatch.setattr(
            dispatch, name, recording(name, getattr(dispatch, name))
        )
    return calls


def _compute_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-compute")
    ]


def _one_compute_thread(calls, handle):
    """The one thread every recorded call ran on; never the loop's."""
    threads = {thread for _name, thread in calls}
    assert len(threads) == 1, threads
    (thread,) = threads
    assert thread is not handle._thread
    assert thread.name.startswith("repro-compute"), thread.name
    return thread


def _assert_identify(reply, basis, wires):
    local = CoincidenceCorrelator(basis).identify_batch(wires, missing="none")
    for name in ("elements", "decision_slots", "spikes_inspected"):
        assert np.array_equal(getattr(reply, name), getattr(local, name)), name


class TestComputeThreads:
    def test_every_off_loop_step_of_a_single_job_server(
        self, compute_calls, corpus_root, small_basis
    ):
        """A multi-chunk corpus scan, a 2-shard in-process identify and
        a coalesced batch above ``fast_path_bytes``, one after another,
        all compute on one thread that is not the loop's."""
        config = ServerConfig(
            jobs=1,
            corpus=str(corpus_root),
            corpus_chunk_rows=CHUNK_ROWS,
            # Two 3-wire requests fill a bucket and flush at once, as
            # one 6-wire batch twice the fast-path size.
            coalesce_window=5.0,
            coalesce_max_wires=6,
            fast_path_bytes=3 * ROW_BYTES,
            **SMALL,
        )
        wires = small_basis.as_batch().select_rows([3, 1, 4, 1])
        pairs = [
            small_basis.as_batch().select_rows(rows)
            for rows in ([0, 2, 5], [7, 6, 1])
        ]
        with ServerThread(config) as handle:
            with ServingClient(handle.host, handle.port) as client:
                scan = client.corpus_membership("library", 0, CORPUS_ROWS)
                sharded = client.identify(wires, n_shards=2)

            async def coalesce():
                client = await AsyncServingClient.open(
                    handle.host, handle.port
                )
                try:
                    return await asyncio.gather(
                        *[client.identify(pair) for pair in pairs]
                    )
                finally:
                    await client.aclose()

            coalesced = asyncio.run(coalesce())
            thread = _one_compute_thread(compute_calls, handle)
        n_chunks = -(-CORPUS_ROWS // CHUNK_ROWS)
        assert scan.summary["transport"] == "corpus-mmap"
        assert scan.summary["n_shards"] == n_chunks
        assert sharded.summary["transport"] == "in-process"
        _assert_identify(sharded, small_basis, wires)
        for pair, reply in zip(pairs, coalesced):
            assert reply.summary["transport"] == "coalesced"
            _assert_identify(reply, small_basis, pair)
        # Chunks, two shards, and one coalesced batch.
        assert [name for name, _ in compute_calls] == (
            ["compute_shard"] * (n_chunks + 3)
        )
        assert not thread.is_alive()

    @pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    )
    def test_the_servers_pool_share_and_waits(
        self, compute_calls, small_basis
    ):
        """At ``jobs=2`` the server's own share of a shared-arena
        identify and of a seed-rebuild logicnet computes on the same one
        thread."""
        wires = small_basis.as_batch().select_rows([3, 1, 4, 1])
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                arena = client.identify(wires, n_shards=2)
                nets = client.logicnet(5, 0, 6, n_gates=4, depth=2, n_shards=2)
            _one_compute_thread(compute_calls, handle)
        assert arena.summary["transport"] == "shared-arena"
        _assert_identify(arena, small_basis, wires)
        assert nets.summary["transport"] == "seed-rebuild"
        assert sorted(name for name, _ in compute_calls) == [
            "compute_shard", "run_logicnet_shard",
        ]

    def test_start_stop_cycles_leave_no_compute_thread(
        self, compute_calls, small_basis
    ):
        wires = small_basis.as_batch().select_rows([2, 7])
        before = set(_compute_threads())
        for _cycle in range(3):
            compute_calls.clear()
            with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
                with ServingClient(handle.host, handle.port) as client:
                    client.identify(wires, n_shards=2)
                thread = _one_compute_thread(compute_calls, handle)
                assert thread.is_alive()
            assert not thread.is_alive()
            assert set(_compute_threads()) == before

    def test_concurrent_corpus_scans_are_bit_identical(
        self, corpus_root, small_basis
    ):
        """Two connections scan the corpus at once; both replies match
        a local scan."""
        store = CorpusStore(corpus_root)
        local = CoincidenceCorrelator(small_basis).detect_members_batch(
            store.open_rows(0, CORPUS_ROWS)
        )
        config = ServerConfig(
            jobs=1, corpus=str(corpus_root), corpus_chunk_rows=CHUNK_ROWS,
            **SMALL,
        )
        start = threading.Barrier(2, timeout=30)
        replies = [[], []]

        def scan(index):
            with ServingClient(handle.host, handle.port) as client:
                start.wait()
                for _ in range(3):
                    replies[index].append(
                        client.corpus_membership("library", 0, CORPUS_ROWS)
                    )

        with ServerThread(config) as handle:
            scanners = [
                threading.Thread(target=scan, args=(index,))
                for index in range(2)
            ]
            for scanner in scanners:
                scanner.start()
            for scanner in scanners:
                scanner.join(60)
            assert not any(scanner.is_alive() for scanner in scanners)
        assert [len(own) for own in replies] == [3, 3]
        for reply in replies[0] + replies[1]:
            assert np.array_equal(reply.membership, local.membership)
            assert np.array_equal(reply.first_slots, local.first_slots)

    def test_concurrent_requests_compute_at_once(
        self, monkeypatch, small_basis
    ):
        """Each of two concurrent in-process identifies blocks its first
        shard until the other's has started too: they pass only if the
        server runs them on two threads at once."""
        both = threading.Barrier(2, timeout=10)
        calls = []

        def meet():
            calls.append(threading.current_thread())
            if len(calls) <= 2:
                both.wait()

        _before_compute(monkeypatch, meet)
        wires = small_basis.as_batch().select_rows([3, 1, 4, 1])
        replies = [None, None]

        def identify(index):
            with ServingClient(handle.host, handle.port, timeout=60) as client:
                replies[index] = client.identify(wires, n_shards=2)

        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            clients = [
                threading.Thread(target=identify, args=(index,))
                for index in range(2)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(60)
        assert not both.broken
        assert len({thread for thread in calls[:2]}) == 2
        for reply in replies:
            assert reply.summary["transport"] == "in-process"
            _assert_identify(reply, small_basis, wires)


def _before_compute(monkeypatch, before):
    """Make every ``compute_shard`` call in this process run ``before``
    first."""
    compute = dispatch.compute_shard

    @functools.wraps(compute)
    def wrapper(*args, **kwargs):
        before()
        return compute(*args, **kwargs)

    monkeypatch.setattr(dispatch, "compute_shard", wrapper)


def _wait_for(predicate, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def test_compute_threads_under_load_and_cancellation():
    """Sequential steps share one thread; a burst of callers, more than
    the cap and the cores, never runs more than the cap at once; and
    callers cancelled while waiting or running leak no slot: afterwards
    ``limit`` steps still run at once."""
    limit = 3
    running, peak = [0], [0]
    count = threading.Lock()

    def step(value, hold=0.002):
        with count:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(hold)
        with count:
            running[0] -= 1
        return value, threading.current_thread()

    async def main():
        threads = server_module._ComputeThreads(limit)
        try:
            sequential = [
                await threads.run(functools.partial(step, n))
                for n in range(50)
            ]
            burst = await asyncio.gather(
                *[threads.run(functools.partial(step, n)) for n in range(64)]
            )
            cancelled = await asyncio.gather(
                *[
                    asyncio.wait_for(
                        threads.run(functools.partial(step, n, 0.01)), 0.005
                    )
                    for n in range(16)
                ],
                return_exceptions=True,
            )
            meet = threading.Barrier(limit, timeout=10)
            together = await asyncio.wait_for(
                asyncio.gather(
                    *[threads.run(meet.wait) for _ in range(limit)]
                ),
                30,
            )
        finally:
            await threads.close()
        return sequential, burst, cancelled, together

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sequential, burst, cancelled, together = asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
    assert [value for value, _ in sequential] == list(range(50))
    assert len({thread for _, thread in sequential}) == 1
    assert [value for value, _ in burst] == list(range(64))
    assert len({thread for _, thread in sequential + burst}) == limit
    assert peak[0] == limit
    assert all(isinstance(error, asyncio.TimeoutError) for error in cancelled)
    assert sorted(together) == list(range(limit))
    assert running[0] == 0
    assert not any(thread.is_alive() for _, thread in sequential + burst)


def test_a_step_that_ends_at_once_still_frees_its_thread_first():
    """Steps that end while ``run`` is still handing them over (the
    loop's debug mode widens that window) return their thread before
    the caller resumes: 300 sequential steps run on one thread."""

    async def main():
        threads = server_module._ComputeThreads(3)
        try:
            return [
                await threads.run(threading.current_thread)
                for _ in range(300)
            ]
        finally:
            await threads.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert len(set(asyncio.run(main(), debug=True))) == 1
    finally:
        sys.setswitchinterval(interval)


class TestDeadlineBoundsTheWait:
    """A deadline that passes while a request's step waits for a
    compute thread, or runs on one, answers DEADLINE at once; the slow
    step is never awaited.  A step that runs on still holds the
    request's frame, so the request's bytes stay charged to the
    in-flight budget until the step ends, after a forced-shutdown
    cancel too."""

    def test_a_step_queued_for_a_thread_never_starts(
        self, monkeypatch, small_basis
    ):
        monkeypatch.setattr(server_module, "_COMPUTE_THREADS", 1)
        release = threading.Event()
        calls = []

        def hold_the_first():
            calls.append(threading.current_thread())
            if len(calls) == 1:
                release.wait(30)

        _before_compute(monkeypatch, hold_the_first)
        wires = small_basis.as_batch().select_rows([3, 1, 4, 1])
        slow = []
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as first:
                holder = threading.Thread(
                    target=lambda: slow.append(
                        first.identify(wires, n_shards=2)
                    )
                )
                holder.start()
                _wait_for(lambda: calls)
                # The one compute thread is held; the next request's
                # first step waits for it past the deadline.
                with ServingClient(
                    handle.host, handle.port, timeout=10, deadline_ms=200
                ) as second:
                    with pytest.raises(ServingError) as info:
                        second.identify(wires, n_shards=2)
                release.set()
                holder.join(30)
        assert info.value.code == protocol.ERR_DEADLINE
        # The held request finished; the expired one computed nothing.
        assert len(calls) == 2
        _assert_identify(slow[0], small_basis, wires)

    def test_a_step_that_outlives_the_deadline_is_not_awaited(
        self, monkeypatch, small_basis
    ):
        release = threading.Event()
        calls = []

        def hold():
            calls.append(threading.current_thread())
            release.wait(30)

        _before_compute(monkeypatch, hold)
        wires = small_basis.as_batch().select_rows([3, 1, 4, 1])
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            budget = handle.server._budget
            try:
                with ServingClient(
                    handle.host, handle.port, timeout=10, deadline_ms=200
                ) as client:
                    with pytest.raises(ServingError) as info:
                        client.identify(wires, n_shards=2)
                # Answered, but the held shard still views the frame.
                held = budget.in_flight
            finally:
                release.set()
            _wait_for(lambda: budget.in_flight == 0)
        assert info.value.code == protocol.ERR_DEADLINE
        assert held == 4 * ROW_BYTES
        # The running shard finished on its thread; the next never ran.
        assert len(calls) == 1

    def test_a_forced_shutdown_keeps_the_bytes_until_the_step_ends(
        self, monkeypatch, small_basis
    ):
        release = threading.Event()
        calls = []

        def hold():
            calls.append(threading.current_thread())
            release.wait(30)

        _before_compute(monkeypatch, hold)
        wires = small_basis.as_batch().select_rows([3, 1, 4, 1])

        async def until(predicate):
            deadline = time.monotonic() + 30
            while not predicate():
                assert time.monotonic() < deadline, "timed out"
                await asyncio.sleep(0.005)

        async def main():
            server = server_module.SpikeServer(ServerConfig(jobs=1, **SMALL))
            await server.start()
            client = await AsyncServingClient.open("127.0.0.1", server.port)
            request = asyncio.ensure_future(client.identify(wires, n_shards=2))
            try:
                await until(lambda: calls)
                closing = asyncio.ensure_future(server.close(drain_timeout=1.0))
                # The drain window expires and the request is cancelled.
                await until(lambda: not server._tasks)
                held = server._budget.in_flight
                release.set()
                await asyncio.wait_for(closing, 30)
                return held, server._budget.in_flight
            finally:
                release.set()
                request.cancel()
                await asyncio.gather(request, return_exceptions=True)
                await client.aclose()

        held, after_close = asyncio.run(main())
        assert held == 4 * ROW_BYTES
        # close() drained the bytes the step gave back as it ended.
        assert after_close == 0
        assert len(calls) == 1


@pytest.fixture(scope="module")
def other_grid_corpus(tmp_path_factory):
    """A corpus the ``SMALL`` server must refuse: another grid length."""
    root = tmp_path_factory.mktemp("mismatch") / "library"
    CorpusStore.create(root, paper_white_grid(n_samples=2048))
    return root


def _failing_start(root):
    """A ``jobs=2`` server whose start fails after it took its basis.

    The handle is returned, not dropped: its startup error keeps the
    server reachable, so only the failed start itself can have cleaned
    up.
    """
    thread = ServerThread(ServerConfig(jobs=2, corpus=str(root), **SMALL))
    with pytest.raises(ServingError) as info:
        thread.start()
    assert info.value.code == protocol.ERR_BAD_GRID
    return thread


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestFailedStart:
    def test_own_runner_leaves_no_process_or_thread(self, other_grid_corpus):
        parent = os.getpid()
        children = set(process_tree(parent))
        threads = set(_compute_threads())
        handles = [_failing_start(other_grid_corpus) for _ in range(3)]
        assert set(process_tree(parent)) == children
        assert set(_compute_threads()) == threads
        assert all(handle.server is None for handle in handles)
