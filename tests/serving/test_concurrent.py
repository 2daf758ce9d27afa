"""Fast path, pipelining, coalescing: equivalence under concurrency.

The tentpole contract of the optimised serving paths: whatever route a
request takes — fast path, coalesced micro-batch, sharded pool, any
mix of protocol versions, any interleaving of pipelined request ids —
the merged reply is **bit-identical** to the serial compute path, and
the payload never materialises a raster server-side.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.errors import ServingError
from repro.logic.correlator import CoincidenceCorrelator
from repro.serving import protocol
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)


@pytest.fixture(scope="module")
def small_basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def fast_server():
    """Fast path on (default threshold), no coalescing."""
    with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
        yield handle


@pytest.fixture(scope="module")
def coalescing_server():
    """Coalescing on with a wide-open window."""
    config = ServerConfig(jobs=1, coalesce_window=0.05, **SMALL)
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture(scope="module")
def request_batches(small_basis):
    """Several small wire batches with known element rows."""
    rng = np.random.default_rng(11)
    batches = []
    for _ in range(8):
        elements = rng.integers(small_basis.size, size=3)
        batches.append(
            (small_basis.as_batch().select_rows(elements), elements)
        )
    return batches


def local_identify(basis, wires):
    return CoincidenceCorrelator(basis).identify_batch(
        wires, missing="none"
    )


def gather(coroutine):
    return asyncio.run(coroutine)


def raw_stats(host, port, payload):
    """The JSON reply to one STATS frame carrying ``payload``."""
    wire = protocol.encode_frame(protocol.FRAME_STATS, 9, payload)
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(wire)
        reader = protocol.FrameReader()
        frames = []
        while not frames:
            frames = reader.feed(sock.recv(65536))
    (frame,) = frames
    assert frame.frame_type == protocol.FRAME_STATS_REPLY
    return protocol.parse_json_frame(frame)


class TestFastPath:
    def test_fast_path_bit_identical_to_pool_path(
        self, small_basis, request_batches
    ):
        """The same request served fast-path and sharded answers equal."""
        wires, _ = request_batches[0]
        local = local_identify(small_basis, wires)
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                fast = client.identify(wires)  # n_shards unset -> fast path
                sharded = client.identify(wires, n_shards=2)
        assert fast.summary["transport"] == "fast-path"
        assert sharded.summary["transport"] == "in-process"
        for reply in (fast, sharded):
            assert np.array_equal(reply.elements, local.elements)
            assert np.array_equal(
                reply.decision_slots, local.decision_slots
            )
            assert np.array_equal(
                reply.spikes_inspected, local.spikes_inspected
            )

    def test_fast_path_requests_skip_the_inflight_budget(
        self, small_basis, request_batches
    ):
        """A budget far below the payload size still serves fast-path
        requests — they pin no arena, so they are never OVERLOADED."""
        wires, _ = request_batches[0]
        config = ServerConfig(jobs=1, max_inflight_bytes=64, **SMALL)
        with ServerThread(config) as handle:
            with ServingClient(handle.host, handle.port) as client:
                reply = client.identify(wires)
                assert reply.summary["transport"] == "fast-path"
                # The sharded route must still hit the budget wall.
                with pytest.raises(ServingError) as err:
                    client.identify(wires, n_shards=2)
        assert err.value.code == protocol.ERR_OVERLOADED

    def test_fast_path_never_materialises_raster_or_csr(
        self, fast_server, request_batches
    ):
        wires, _ = request_batches[1]
        with ServingClient(fast_server.host, fast_server.port) as client:
            reply = client.identify(wires)
        assert reply.summary["server_residency"]["raster"] is False
        assert reply.summary["server_residency"]["csr"] is False
        assert reply.summary["server_residency"]["packed"] is True
        for shard in reply.shards:
            assert shard["residency"]["raster"] is False
            assert shard["residency"]["csr"] is False

    def test_membership_on_the_fast_path(
        self, fast_server, small_basis, request_batches
    ):
        wires, _ = request_batches[2]
        local = CoincidenceCorrelator(small_basis).detect_members_batch(
            wires
        )
        with ServingClient(fast_server.host, fast_server.port) as client:
            reply = client.membership(wires)
        assert reply.summary["transport"] == "fast-path"
        assert np.array_equal(reply.membership, local.membership)
        assert np.array_equal(reply.first_slots, local.first_slots)


class TestPipelining:
    def test_interleaved_request_ids_all_answer_correctly(
        self, fast_server, small_basis, request_batches
    ):
        """Many concurrent requests on one connection, demuxed by id."""

        async def run():
            client = await AsyncServingClient.open(
                fast_server.host, fast_server.port
            )
            try:
                return await asyncio.gather(
                    *[
                        client.identify(wires)
                        for wires, _ in request_batches
                    ]
                )
            finally:
                await client.aclose()

        replies = gather(run())
        for (wires, _), reply in zip(request_batches, replies):
            local = local_identify(small_basis, wires)
            assert np.array_equal(reply.elements, local.elements)
            assert np.array_equal(
                reply.decision_slots, local.decision_slots
            )
            assert np.array_equal(
                reply.spikes_inspected, local.spikes_inspected
            )

    def test_pipelined_mixed_modes_share_a_connection(
        self, fast_server, small_basis, request_batches
    ):
        wires, _ = request_batches[5]
        local_id = local_identify(small_basis, wires)
        local_mem = CoincidenceCorrelator(small_basis).detect_members_batch(
            wires
        )

        async def run():
            async with await AsyncServingClient.open(
                fast_server.host, fast_server.port
            ) as client:
                return await asyncio.gather(
                    client.identify(wires),
                    client.membership(wires),
                    client.stats(),
                )

        identify_reply, membership_reply, stats = gather(run())
        assert np.array_equal(identify_reply.elements, local_id.elements)
        assert np.array_equal(
            membership_reply.membership, local_mem.membership
        )
        assert stats["kind"] == "stats"
        assert stats["requests_served"] >= 2


class TestCoalescing:
    def test_coalesced_responses_bit_identical_to_serial(
        self, coalescing_server, small_basis, request_batches
    ):
        """Concurrent small requests coalesce into one wide batch and
        still split back to each request's exact serial answer."""

        async def run():
            client = await AsyncServingClient.open(
                coalescing_server.host, coalescing_server.port
            )
            try:
                return await asyncio.gather(
                    *[
                        client.identify(wires)
                        for wires, _ in request_batches
                    ]
                )
            finally:
                await client.aclose()

        replies = gather(run())
        coalesced = 0
        for (wires, _), reply in zip(request_batches, replies):
            local = local_identify(small_basis, wires)
            assert np.array_equal(reply.elements, local.elements)
            assert np.array_equal(
                reply.decision_slots, local.decision_slots
            )
            assert reply.summary["transport"] == "coalesced"
            assert reply.shards[0]["row_start"] == 0
            assert reply.shards[0]["row_stop"] == wires.n_trains
            coalesced += 1
        assert coalesced == len(request_batches)

    def test_coalesced_batches_counted_and_smaller_than_requests(
        self, small_basis, request_batches
    ):
        config = ServerConfig(jobs=1, coalesce_window=0.05, **SMALL)
        with ServerThread(config) as handle:

            async def run():
                client = await AsyncServingClient.open(
                    handle.host, handle.port
                )
                try:
                    await asyncio.gather(
                        *[
                            client.identify(wires)
                            for wires, _ in request_batches
                        ]
                    )
                    return await client.stats()
                finally:
                    await client.aclose()

            stats = gather(run())
        assert stats["coalesced_requests"] == len(request_batches)
        assert 1 <= stats["coalesced_batches"] < len(request_batches)
        assert stats["errors"] == 0

    def test_coalescing_keeps_residency_packed_only(
        self, coalescing_server, request_batches
    ):
        wires, _ = request_batches[6]
        with ServingClient(
            coalescing_server.host, coalescing_server.port
        ) as client:
            reply = client.identify(wires)
        assert reply.summary["transport"] == "coalesced"
        assert reply.summary["server_residency"]["raster"] is False
        assert reply.shards[0]["residency"]["raster"] is False

    def test_membership_coalesces_separately_from_identify(
        self, coalescing_server, small_basis, request_batches
    ):
        """Different scan headers never share a micro-batch."""
        wires, _ = request_batches[7]
        local_mem = CoincidenceCorrelator(small_basis).detect_members_batch(
            wires
        )

        async def run():
            async with await AsyncServingClient.open(
                coalescing_server.host, coalescing_server.port
            ) as client:
                return await asyncio.gather(
                    client.identify(wires),
                    client.membership(wires),
                )

        identify_reply, membership_reply = gather(run())
        assert identify_reply.summary["transport"] == "coalesced"
        assert membership_reply.summary["transport"] == "coalesced"
        assert np.array_equal(
            membership_reply.membership, local_mem.membership
        )
        assert np.array_equal(
            membership_reply.first_slots, local_mem.first_slots
        )


class TestStats:
    def test_stats_frame_counts_paths(self, small_basis, request_batches):
        wires, _ = request_batches[0]
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                client.identify(wires)
                client.identify(wires, n_shards=2)
                stats = client.stats()
            # The payload is ignored: a scoped or undecodable STATS
            # frame gets the same plain snapshot.
            for payload in (b'{"scope":"cluster"}', b"\xffnot json"):
                reply = raw_stats(handle.host, handle.port, payload)
                assert reply == stats
                assert not {"scope", "workers", "per_worker"} & set(reply)
        assert stats["requests_served"] == 2
        assert stats["fast_path_requests"] == 1
        assert stats["pool_path_requests"] == 1
        assert stats["coalesced_requests"] == 0
        assert stats["latency_window"] == 2
        assert stats["latency_p50_seconds"] > 0
        assert stats["latency_p99_seconds"] >= stats["latency_p50_seconds"]

    def test_errors_counted(self, small_basis, request_batches):
        wires, _ = request_batches[0]
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                bad_grid_packed = np.zeros((2, 8), dtype=np.uint8)
                from repro.units import SimulationGrid

                with pytest.raises(ServingError):
                    client.identify(
                        bad_grid_packed,
                        SimulationGrid(n_samples=64, dt=1e-9),
                    )
                stats = client.stats()
        assert stats["errors"] == 1
        assert stats["requests_served"] == 0
