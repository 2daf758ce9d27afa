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

import socket

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.errors import ProtocolError, ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.serving import protocol
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
    """The basis the module's servers serve (rebuilt deterministically)."""
    return build_serving_basis(ServerConfig(**SMALL))


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


@pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
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
    not HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
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
        not HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
    )
    def test_pooled_shutdown_releases_worker_attachments(self):
        from repro.pipeline.runner import Runner

        runner = Runner(jobs=2)
        try:
            with ServerThread(
                ServerConfig(jobs=2, **SMALL), runner=runner
            ) as handle:
                basis = build_serving_basis(ServerConfig(**SMALL))
                wires = basis.as_batch().select_rows([0, 3, 5, 6])
                with ServingClient(handle.host, handle.port) as client:
                    client.identify(wires, n_shards=2)
            # Shutdown broadcast the release: no worker still maps a
            # serving arena segment.
            counts = runner.broadcast(len_of_process_cache, None)
            assert counts == [0, 0]
        finally:
            runner.close()


def len_of_process_cache(_payload):
    """Broadcast target: this worker's resident attachment count."""
    from repro.backend.shared import process_cache

    return len(process_cache())
