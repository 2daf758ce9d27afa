"""Client ↔ server integration: bit-identity, residency, flow control.

The acceptance contract of the serving layer:

* served identify results are **bit-identical** to what the serial
  compute path (the same packed receivers a serial
  :class:`~repro.pipeline.runner.Runner` shard executes) produces for
  the same batch — and, aggregated, reproduce the Runner's ``identify``
  experiment result exactly;
* the payload is **never unpacked to a raster** on the server or in
  any worker — asserted through the residency blocks every shard and
  summary frame reports;
* malformed or mismatched requests answer with the documented error
  codes, and overload answers OVERLOADED instead of growing memory.
"""

import contextlib
import os
import signal
import socket

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch
from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.errors import ProtocolError, ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.pipeline.runner import Runner
from repro.serving import dispatch, protocol
from repro.serving import server as server_module
from repro.serving.client import ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)

#: Small, fast serving universe shared by most tests in this module.
SMALL = dict(
    n_samples=4096, basis_size=8, source_isi_samples=16, seed=7
)


@pytest.fixture(scope="module")
def inline_server():
    """One in-process (jobs=1) server for the whole module."""
    with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
        yield handle


@pytest.fixture(scope="module")
def small_basis():
    """The basis the module's servers serve (this process's memoised
    one, which the in-process servers hold)."""
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module", params=[4096, 4001], ids=["aligned", "ragged"])
def served_grid(request):
    """An in-process server on a word-aligned grid and on a grid whose
    byte rows are not whole words, with the basis it serves."""
    config = dict(SMALL, n_samples=request.param)
    with ServerThread(ServerConfig(jobs=1, **config)) as handle:
        yield handle, build_serving_basis(ServerConfig(**config))


@pytest.fixture(scope="module")
def small_wires(small_basis):
    """A wire batch drawn from the basis, every element represented."""
    rng = np.random.default_rng(99)
    elements = rng.integers(small_basis.size, size=24)
    return small_basis.as_batch().select_rows(elements), elements


class TestInlineServing:
    def test_identify_bit_identical_to_serial_compute(
        self, inline_server, small_basis, small_wires
    ):
        wires, _elements = small_wires
        local = CoincidenceCorrelator(small_basis).identify_batch(
            wires, missing="none"
        )
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = client.identify(wires, n_shards=3)
        assert np.array_equal(reply.elements, local.elements)
        assert np.array_equal(reply.decision_slots, local.decision_slots)
        assert np.array_equal(
            reply.spikes_inspected, local.spikes_inspected
        )
        assert reply.labels == list(small_basis.labels)
        assert reply.summary["transport"] == "in-process"
        assert reply.summary["n_shards"] == 3

    def test_start_slot_honoured(
        self, inline_server, small_basis, small_wires
    ):
        wires, _elements = small_wires
        start = 1500
        local = CoincidenceCorrelator(small_basis).identify_batch(
            wires, start_slot=start, missing="none"
        )
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = client.identify(wires, start_slot=start)
        assert np.array_equal(reply.elements, local.elements)
        assert np.array_equal(reply.decision_slots, local.decision_slots)
        assert np.array_equal(
            reply.spikes_inspected, local.spikes_inspected
        )

    def test_membership_matches_local(
        self, inline_server, small_basis, small_wires
    ):
        wires, _elements = small_wires
        limit = 2000
        local = CoincidenceCorrelator(small_basis).detect_members_batch(
            wires, until_slot=limit
        )
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = client.membership(wires, until_slot=limit, n_shards=2)
        assert np.array_equal(reply.membership, local.membership)
        assert np.array_equal(reply.first_slots, local.first_slots)

    def test_payload_never_unpacked_to_raster(
        self, inline_server, small_wires
    ):
        """The acceptance residency check, inline flavour."""
        wires, _elements = small_wires
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = client.identify(wires, n_shards=4)
        server_residency = reply.summary["server_residency"]
        assert server_residency["packed"] is True
        assert server_residency["raster"] is False
        assert server_residency["csr"] is False
        assert len(reply.shards) == 4
        for shard in reply.shards:
            assert shard["residency"]["packed"] is True
            assert shard["residency"]["raster"] is False
            assert shard["residency"]["csr"] is False

    def test_sequential_requests_reuse_one_connection(
        self, inline_server, small_wires
    ):
        wires, _elements = small_wires
        with ServingClient(inline_server.host, inline_server.port) as client:
            first = client.identify(wires)
            second = client.identify(wires)
        assert np.array_equal(first.elements, second.elements)
        assert first.summary["mode"] == second.summary["mode"] == "identify"

    def test_single_wire_request(self, inline_server, small_basis):
        wire = small_basis.as_batch().select_rows([2])
        with ServingClient(inline_server.host, inline_server.port) as client:
            reply = client.identify(wire, n_shards=8)  # clamped to 1 wire
        assert reply.elements.tolist() == [2]
        assert reply.summary["n_shards"] == 1

    @pytest.mark.parametrize("sizes", [(12, 13), (8, 8, 9)])
    @pytest.mark.parametrize(
        "mode, fields",
        [
            ("identify", ("elements", "decision_slots", "spikes_inspected")),
            ("membership", ("membership", "first_slots")),
        ],
    )
    def test_shards_are_row_views_equal_to_one_pass(
        self, served_grid, mode, fields, sizes, monkeypatch
    ):
        """In-process shards wrap the frame's rows and copy none with
        ``select_rows``: 25 wires split raggedly answer exactly as the
        unsharded request, and identify names the elements sent."""
        server, basis = served_grid
        elements = np.random.default_rng(5).integers(basis.size, size=25)
        wires = basis.as_batch().select_rows(elements)

        def copy_rows(self, rows):
            raise AssertionError("a served shard copied its rows")

        monkeypatch.setattr(SpikeTrainBatch, "select_rows", copy_rows)
        with ServingClient(server.host, server.port) as client:
            whole = getattr(client, mode)(wires)
            sharded = getattr(client, mode)(wires, n_shards=len(sizes))
        assert sharded.summary["transport"] == "in-process"
        assert tuple(
            shard["row_stop"] - shard["row_start"] for shard in sharded.shards
        ) == sizes
        for name in fields:
            assert np.array_equal(getattr(sharded, name), getattr(whole, name))
        if mode == "identify":
            assert sharded.elements.tolist() == elements.tolist()


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestPooledServing:
    """The zero-copy path: shards attach the request arena's bitset."""

    @pytest.fixture(scope="class")
    def pooled_server(self):
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            yield handle

    def test_pooled_identify_bit_identical_and_packed_resident(
        self, pooled_server, small_basis, small_wires
    ):
        wires, _elements = small_wires
        local = CoincidenceCorrelator(small_basis).identify_batch(
            wires, missing="none"
        )
        with ServingClient(pooled_server.host, pooled_server.port) as client:
            reply = client.identify(wires, n_shards=2)
        assert np.array_equal(reply.elements, local.elements)
        assert np.array_equal(reply.decision_slots, local.decision_slots)
        assert np.array_equal(
            reply.spikes_inspected, local.spikes_inspected
        )
        assert reply.summary["transport"] == "shared-arena"
        # Residency holds across the process boundary: the workers
        # computed on the mapped bitset, decoding nothing.
        for shard in reply.shards:
            assert shard["residency"]["packed"] is True
            assert shard["residency"]["raster"] is False
            assert shard["residency"]["csr"] is False

    def test_pooled_equals_inline(
        self, pooled_server, inline_server, small_wires
    ):
        wires, _elements = small_wires
        with ServingClient(inline_server.host, inline_server.port) as client:
            inline_reply = client.identify(wires, n_shards=2)
        with ServingClient(pooled_server.host, pooled_server.port) as client:
            pooled_reply = client.identify(wires, n_shards=2)
        assert np.array_equal(inline_reply.elements, pooled_reply.elements)
        assert np.array_equal(
            inline_reply.decision_slots, pooled_reply.decision_slots
        )
        assert np.array_equal(
            inline_reply.spikes_inspected, pooled_reply.spikes_inspected
        )

    def test_pooled_membership_matches_local(
        self, pooled_server, small_basis, small_wires
    ):
        wires, _elements = small_wires
        local = CoincidenceCorrelator(small_basis).detect_members_batch(
            wires
        )
        with ServingClient(pooled_server.host, pooled_server.port) as client:
            reply = client.membership(wires, n_shards=2)
        assert np.array_equal(reply.membership, local.membership)
        assert np.array_equal(reply.first_slots, local.first_slots)


class TestServedResultsReproduceRunnerExperiment:
    """Aggregating served replies reproduces a serial Runner S1 run."""

    def test_identify_experiment_reproduced_over_rpc(self):
        from repro.experiments.identify import IdentifyConfig, _workload
        from repro.pipeline.runner import Runner

        overrides = dict(
            n_wires=24, basis_size=8, n_trials=3, n_shards=2,
            source_isi_samples=16,
        )
        report = Runner().run("identify", seed=123, overrides=overrides)
        assert report.ok
        serial = report.result

        # Serve the *same* workload: the identify experiment runs on
        # the paper grid, so the server does too (default n_samples).
        config = IdentifyConfig(seed=123, **overrides)
        basis, wires, elements, start_slots = _workload(config)
        served = ServerConfig(
            jobs=1,
            seed=123,
            basis_size=8,
            source_isi_samples=16,
        )
        identifications = correct = misses = 0
        latencies = []
        with ServerThread(served) as handle:
            assert handle.server.basis.labels == basis.labels
            with ServingClient(handle.host, handle.port) as client:
                for start in start_slots.tolist():
                    reply = client.identify(
                        wires, start_slot=int(start), n_shards=2
                    )
                    found = reply.elements >= 0
                    identifications += reply.elements.size
                    misses += int(np.count_nonzero(~found))
                    correct += int(
                        np.count_nonzero(
                            reply.elements[found] == elements[found]
                        )
                    )
                    latencies.append(reply.decision_slots[found] - start)
        stacked = np.concatenate(latencies)
        hits = identifications - misses
        assert identifications == serial.identifications
        assert correct == serial.correct
        assert misses == serial.misses
        assert correct / hits == serial.accuracy
        assert float(np.median(stacked)) == serial.median_latency_samples
        assert (
            float(np.percentile(stacked, 90)) == serial.p90_latency_samples
        )


class TestErrors:
    def test_mismatched_grid_rejected(self, inline_server):
        rng = np.random.default_rng(1)
        packed = (rng.random((2, 8)) < 0.2).astype(np.uint8)
        wire = protocol.encode_request(packed, 64, 1e-9, request_id=5)
        with socket.create_connection(
            (inline_server.host, inline_server.port), timeout=30
        ) as sock:
            sock.sendall(wire)
            reader = protocol.FrameReader()
            frames = []
            while not frames:
                frames = reader.feed(sock.recv(65536))
        payload = protocol.parse_json_frame(frames[0])
        assert frames[0].frame_type == protocol.FRAME_ERROR
        assert payload["code"] == protocol.ERR_BAD_GRID

    def test_client_raises_serving_error_on_bad_grid(self, inline_server):
        from repro.units import SimulationGrid

        grid = SimulationGrid(n_samples=64, dt=1e-9)
        packed = np.zeros((1, 8), dtype=np.uint8)
        packed[0, 0] = 0x80
        with ServingClient(inline_server.host, inline_server.port) as client:
            with pytest.raises(ServingError) as err:
                client.identify(packed, grid)
        assert err.value.code == protocol.ERR_BAD_GRID

    @pytest.mark.parametrize(
        "stream, code",
        [("garbage", protocol.ERR_BAD_MAGIC),
         ("version-4", protocol.ERR_BAD_VERSION)],
        ids=["garbage", "version-4"],
    )
    def test_garbage_bytes_answered_with_error_and_close(
        self, inline_server, small_wires, stream, code
    ):
        if stream == "garbage":
            sent = (32).to_bytes(4, "little") + b"G" * 32
        else:
            # A request the server would serve, stamped version 4.
            wires, _ = small_wires
            sent = bytearray(
                protocol.encode_request(
                    wires.packbits(), wires.grid.n_samples, wires.grid.dt,
                    request_id=1,
                )
            )
            sent[8] = 4
        with socket.create_connection(
            (inline_server.host, inline_server.port), timeout=30
        ) as sock:
            sock.sendall(bytes(sent))
            received = b""
            data = sock.recv(65536)
            while data:
                received += data
                data = sock.recv(65536)
        # One connection-scope error frame arrived before the close,
        # stamped the one protocol version.
        (frame,) = protocol.FrameReader().feed(received)
        assert received[8] == protocol.PROTOCOL_VERSION
        assert frame.frame_type == protocol.FRAME_ERROR
        assert frame.request_id == 0
        assert protocol.parse_json_frame(frame)["code"] == code

    def test_oversized_frame_rejected(self):
        config = ServerConfig(jobs=1, max_frame_bytes=2048, **SMALL)
        with ServerThread(config) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall((4096).to_bytes(4, "little"))
                reader = protocol.FrameReader()
                frames = []
                data = sock.recv(65536)
                while data:
                    frames.extend(reader.feed(data))
                    data = sock.recv(65536)
        payload = protocol.parse_json_frame(frames[0])
        assert payload["code"] == protocol.ERR_FRAME_TOO_LARGE

    def test_request_over_inflight_budget_is_overloaded(self, small_basis):
        # fast_path_bytes=0: the budget only governs arena-pinning
        # (sharded) requests, so force this tiny payload onto that path.
        config = ServerConfig(
            jobs=1, max_inflight_bytes=64, fast_path_bytes=0, **SMALL
        )
        wires = small_basis.as_batch().select_rows([0, 1])
        with ServerThread(config) as handle:
            with ServingClient(handle.host, handle.port) as client:
                with pytest.raises(ServingError) as err:
                    client.identify(wires)
        assert err.value.code == protocol.ERR_OVERLOADED

    def test_connection_closed_mid_response_raises(self, inline_server):
        client = ServingClient(inline_server.host, inline_server.port)
        client.close()
        rng = np.random.default_rng(2)
        with pytest.raises((ProtocolError, OSError)):
            grid_samples = SMALL["n_samples"]
            packed = (
                rng.random((1, (grid_samples + 7) // 8)) < 0.1
            ).astype(np.uint8)
            from repro.units import paper_white_grid

            client.identify(packed, paper_white_grid(grid_samples))


class TestInflightBudgetFairness:
    def test_fifo_admission_prevents_starvation(self):
        """A big waiter is not starved by smaller later arrivals."""
        import asyncio

        from repro.serving.server import _InflightBudget

        async def scenario():
            budget = _InflightBudget(100)
            order = []

            async def claim(name, nbytes):
                await budget.acquire(nbytes)
                order.append(name)

            await budget.acquire(60)
            big = asyncio.ensure_future(claim("big", 50))
            await asyncio.sleep(0.01)  # big is queued first
            small = asyncio.ensure_future(claim("small", 10))
            await asyncio.sleep(0.01)
            # 10 bytes would fit, but FIFO holds it behind the big one.
            assert order == []
            await budget.release(60)
            await asyncio.gather(big, small)
            assert order == ["big", "small"]

        asyncio.run(scenario())

    def test_cancelled_waiter_unblocks_the_queue(self):
        import asyncio

        from repro.serving.server import _InflightBudget

        async def scenario():
            budget = _InflightBudget(100)
            await budget.acquire(90)
            blocked = asyncio.ensure_future(budget.acquire(50))
            await asyncio.sleep(0.01)
            blocked.cancel()
            await asyncio.gather(blocked, return_exceptions=True)
            later = asyncio.ensure_future(budget.acquire(10))
            await asyncio.sleep(0.01)
            assert later.done()  # the dead ticket did not wedge the head
            await later

        asyncio.run(scenario())


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestSharedRunnerEmbedding:
    def test_default_shards_follow_the_dispatching_runner(self):
        """A shared multi-worker runner sets the shard default, not the
        config's own (single-job) worker count."""
        from repro.pipeline.runner import Runner

        basis = build_serving_basis(ServerConfig(**SMALL))
        wires = basis.as_batch().select_rows([0, 1, 2, 3, 4, 5])
        with Runner(jobs=2) as runner:
            with ServerThread(
                ServerConfig(jobs=1, fast_path_bytes=0, **SMALL),
                runner=runner,
            ) as handle:
                with ServingClient(handle.host, handle.port) as client:
                    reply = client.identify(wires)  # n_shards unset
        assert reply.summary["transport"] == "shared-arena"
        assert reply.summary["n_shards"] == 2
        assert reply.elements.tolist() == [0, 1, 2, 3, 4, 5]


class TestUsesPool:
    """``--jobs`` is the one compute knob: a pool only above one job."""

    def test_one_job_serves_in_process(self):
        assert dispatch.uses_pool(1) is False

    def test_more_jobs_shard_over_a_pool_given_shared_memory(self):
        assert dispatch.uses_pool(2) is HAVE_SHARED_MEMORY


class TestGracefulShutdown:
    def test_server_thread_close_is_idempotent_and_releases(self):
        handle = ServerThread(ServerConfig(jobs=1, **SMALL)).start()
        basis = build_serving_basis(ServerConfig(**SMALL))
        wires = basis.as_batch().select_rows([1, 2])
        with ServingClient(handle.host, handle.port) as client:
            reply = client.identify(wires)
        assert reply.elements.tolist() == [1, 2]
        handle.close()
        handle.close()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection(
                (handle.host, handle.port), timeout=0.5
            )

    @pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    )
    def test_idle_workers_hold_no_request_segment(self):
        """Once a sharded reply is in, no worker holds the request's
        segments: neither a descriptor nor a mapping, and no later
        message or shutdown is needed to make it so."""
        from .live_server import arena_mappings, arena_segments

        runner = Runner(jobs=3)
        try:
            config = ServerConfig(jobs=3, fast_path_bytes=0, **SMALL)
            with ServerThread(config, runner=runner) as handle:
                basis = build_serving_basis(ServerConfig(**SMALL))
                wires = basis.as_batch().select_rows([0, 3, 5, 6])
                with ServingClient(handle.host, handle.port) as client:
                    # The server computes shard 0, each worker one other.
                    reply = client.identify(wires, n_shards=3)
                assert reply.summary["transport"] == "shared-arena"
                assert reply.elements.tolist() == [0, 3, 5, 6]
                workers = runner.worker_pids()
                assert len(workers) == 2
                held = {
                    pid: (arena_segments(pid), arena_mappings(pid))
                    for pid in workers
                }
                assert held == {pid: (set(), set()) for pid in workers}
        finally:
            runner.close()


def _worker_basis(recipe):
    """Gather target: this process's pid, whether it built the basis of
    ``recipe`` for this call, and that basis as plain data."""
    misses = dispatch.serving_basis.cache_info().misses
    basis = dispatch.serving_basis(recipe)
    built = dispatch.serving_basis.cache_info().misses > misses
    return (
        os.getpid(),
        built,
        basis.labels,
        basis.grid,
        [train.indices for train in basis.trains],
    )


def _recipe_of(knobs):
    """The basis recipe of a server on ``knobs``."""
    return server_module._recipe(ServerConfig(**knobs))


def _assert_serves(client, basis, rows, n_shards):
    """One identify and one logicnet request, each answered on the pool
    and bit-identical to a pass over ``basis`` in this process."""
    wires = basis.as_batch().select_rows(rows)
    reply = client.identify(wires, n_shards=n_shards)
    assert reply.summary["transport"] == "shared-arena"
    expected = dispatch.compute_shard(
        basis, wires, 0, len(rows), mode="identify"
    )
    for name in ("elements", "decision_slots", "spikes_inspected"):
        assert np.array_equal(getattr(reply, name), expected[name]), name
    assert reply.elements.tolist() == list(rows)
    nets = client.logicnet(13, 0, 6, n_gates=6, depth=3, n_shards=n_shards)
    assert nets.summary["transport"] == "seed-rebuild"
    expected = dispatch.compute_logicnet_shard(
        basis, seed=13, n_gates=6, depth=3, net_start=0, net_stop=6
    )
    for name in ("popcounts", "checksums"):
        assert np.array_equal(getattr(nets, name), expected[name]), name


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)
class TestSharedRunner:
    """Pool tasks name their basis by recipe: a worker takes the basis
    from its own memo, inherited from the process it forked from or
    built on first use, so servers on any recipes can share one
    runner and a replacement worker needs nothing sent to it."""

    @pytest.mark.parametrize(
        "change",
        [dict(seed=11), dict(basis_size=5), dict(n_samples=4001)],
        ids=["seed", "basis-size", "ragged-grid"],
    )
    def test_a_pool_worker_builds_the_servers_basis(self, change):
        knobs = dict(SMALL, **change)
        recipe = _recipe_of(knobs)
        # Forked before the server takes its basis, from an empty memo:
        # the worker must build the basis itself.
        dispatch.serving_basis.cache_clear()
        with Runner(jobs=2) as runner:
            runner.ensure_pool()
            config = ServerConfig(jobs=2, **knobs)
            with ServerThread(config, runner=runner) as handle:
                basis = handle.server.basis
                getters = runner.gather(_worker_basis, [recipe] * 2)
                _here, (pid, built, labels, grid, trains) = [
                    get() for get in getters
                ]
            assert pid in runner.worker_pids()
        assert built
        assert labels == basis.labels
        assert grid == basis.grid
        assert len(trains) == basis.size
        for got, held in zip(trains, basis.trains):
            assert np.array_equal(got, held.indices)

    def test_servers_on_two_recipes_share_one_runner(self):
        """Interleaved requests to two servers on different recipes, on
        one ``jobs=3`` runner, each answer on their own basis; so they
        do after an idle worker is killed and replaced."""
        from .live_server import alive, wait_until

        universes = [SMALL, dict(SMALL, seed=11, basis_size=5, n_samples=4001)]
        # Fresh builds, not the memo's objects the servers hold.
        bases = [_recipe_of(knobs).build() for knobs in universes]
        rows = [[4, 1, 6, 0, 7], [3, 0, 4, 2, 1]]
        with Runner(jobs=3) as runner, contextlib.ExitStack() as stack:
            clients = []
            for knobs in universes:
                config = ServerConfig(jobs=3, fast_path_bytes=0, **knobs)
                handle = stack.enter_context(ServerThread(config, runner))
                clients.append(
                    stack.enter_context(
                        ServingClient(handle.host, handle.port)
                    )
                )
            for _round in range(2):
                for client, basis, wanted in zip(clients, bases, rows):
                    _assert_serves(client, basis, wanted, n_shards=3)
            victim = min(runner.worker_pids())
            os.kill(victim, signal.SIGKILL)
            assert wait_until(lambda: not alive(victim), 10)
            for client, basis, wanted in zip(clients, bases, rows):
                _assert_serves(client, basis, wanted, n_shards=3)
            assert victim not in runner.worker_pids()
            assert len(runner.worker_pids()) == 2

    def test_workers_forked_after_the_build_never_build(self, monkeypatch):
        """A server's own runner forks its worker in ``start()``, after
        the server took its basis, and every replacement forks later:
        each inherits the basis and builds nothing.  After ``start()``
        the builder refuses, and a replacement inherits the refusal."""
        from .live_server import alive, wait_until

        basis = _recipe_of(SMALL).build()

        def refuse(recipe):
            raise RuntimeError("a forked worker built its basis")

        config = ServerConfig(jobs=2, fast_path_bytes=0, **SMALL)
        with ServerThread(config) as handle:
            runner = handle.server._runner
            (first,) = runner.worker_pids()
            getters = runner.gather(_worker_basis, [_recipe_of(SMALL)] * 2)
            assert [get()[:2] for get in getters] == [
                (os.getpid(), False),
                (first, False),
            ]
            monkeypatch.setattr(dispatch.BasisRecipe, "build", refuse)
            with ServingClient(handle.host, handle.port) as client:
                _assert_serves(client, basis, [2, 5, 1], n_shards=2)
                os.kill(first, signal.SIGKILL)
                assert wait_until(lambda: not alive(first), 10)
                _assert_serves(client, basis, [7, 0, 3], n_shards=2)
                assert first not in runner.worker_pids()
                assert len(runner.worker_pids()) == 1
            assert handle.server.stats.errors == 0

    def test_more_recipes_than_the_memo_holds_answer_bit_identically(self):
        """One more server than the memo holds bases, on one runner:
        every process drops and rebuilds bases as the requests cycle
        through the recipes, and every answer stays bit-identical."""
        held = dispatch.serving_basis.cache_info().maxsize
        universes = [dict(SMALL, seed=100 + i) for i in range(held + 1)]
        bases = [_recipe_of(knobs).build() for knobs in universes]
        with Runner(jobs=2) as runner, contextlib.ExitStack() as stack:
            clients = []
            for knobs in universes:
                config = ServerConfig(jobs=2, fast_path_bytes=0, **knobs)
                handle = stack.enter_context(ServerThread(config, runner))
                clients.append(
                    stack.enter_context(
                        ServingClient(handle.host, handle.port)
                    )
                )
            for _round in range(2):
                for client, basis in zip(clients, bases):
                    _assert_serves(client, basis, [6, 3, 0, 5], n_shards=2)
        assert dispatch.serving_basis.cache_info().currsize == held
