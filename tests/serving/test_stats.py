"""The STATS counters of one server: the data structure and the wire.

Two layers: :class:`ServerStats` itself (every mutation path lands in
the snapshot, the latency window rolls, the reply's key set is pinned),
and a live :class:`ServerThread`, checking that requests over separate
connections and pipelined on one connection are all counted, and that
STATS round trips are not.
"""

import asyncio
import json
import socket

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.pipeline.corpus import CorpusStore
from repro.serving import protocol
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerStats,
    ServerThread,
    build_serving_basis,
)

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)

#: Every key a STATS reply carries; clients may rely on each of them.
STATS_KEYS = {
    "kind",
    "requests_served",
    "fast_path_requests",
    "pool_path_requests",
    "coalesced_requests",
    "coalesced_batches",
    "requests_by_route",
    "errors",
    "latency_window",
    "latency_p50_seconds",
    "latency_p99_seconds",
}

PATH_COUNTERS = (
    "fast_path_requests",
    "pool_path_requests",
    "coalesced_requests",
)

#: Every route a served request can take (the DONE frame's transport).
ROUTES = (
    "fast-path",
    "coalesced",
    "shared-arena",
    "in-process",
    "corpus-mmap",
    "seed-rebuild",
)


@pytest.fixture(scope="module")
def wires():
    basis = build_serving_basis(ServerConfig(**SMALL))
    return basis.as_batch().select_rows([1, 3, 5])


class TestServerStats:
    def test_fresh_snapshot_counts_nothing(self):
        snapshot = ServerStats().snapshot()
        assert snapshot["kind"] == "stats"
        assert snapshot["requests_served"] == 0
        assert all(snapshot[key] == 0 for key in PATH_COUNTERS)
        assert snapshot["coalesced_batches"] == 0
        assert snapshot["errors"] == 0
        assert snapshot["latency_window"] == 0
        assert snapshot["latency_p50_seconds"] is None
        assert snapshot["latency_p99_seconds"] is None
        assert snapshot["requests_by_route"] == {}

    def test_snapshot_keys_are_pinned(self):
        stats = ServerStats()
        assert set(stats.snapshot()) == STATS_KEYS
        stats.record("fast-path", 0.01)
        assert set(stats.snapshot()) == STATS_KEYS

    @pytest.mark.parametrize(
        "transport, counter",
        [
            ("fast-path", "fast_path_requests"),
            ("coalesced", "coalesced_requests"),
            ("shared-arena", "pool_path_requests"),
            ("in-process", "pool_path_requests"),
            ("corpus-mmap", "pool_path_requests"),
            ("seed-rebuild", "pool_path_requests"),
        ],
    )
    def test_each_transport_lands_in_one_path_counter(
        self, transport, counter
    ):
        stats = ServerStats()
        stats.record(transport, 0.01)
        snapshot = stats.snapshot()
        assert snapshot["requests_served"] == 1
        assert snapshot[counter] == 1
        assert sum(snapshot[key] for key in PATH_COUNTERS) == 1
        assert snapshot["latency_window"] == 1

    def test_each_route_is_counted_on_its_own(self):
        stats = ServerStats()
        for count, route in enumerate(ROUTES, start=1):
            for _ in range(count):
                stats.record(route, 0.01)
        snapshot = stats.snapshot()
        assert snapshot["requests_by_route"] == {
            route: count for count, route in enumerate(ROUTES, start=1)
        }
        assert sum(snapshot["requests_by_route"].values()) == (
            snapshot["requests_served"]
        )
        # The lumped counter keeps its meaning: every route but the two
        # loop-only ones.
        assert snapshot["pool_path_requests"] == 3 + 4 + 5 + 6
        # The snapshot is a copy: a later request does not change it.
        stats.record("fast-path", 0.01)
        assert snapshot["requests_by_route"]["fast-path"] == 1

    def test_counters_bumped_outside_record_reach_the_snapshot(self):
        # The server bumps these two directly, not through record().
        stats = ServerStats()
        stats.errors += 2
        stats.coalesced_batches += 1
        snapshot = stats.snapshot()
        assert snapshot["errors"] == 2
        assert snapshot["coalesced_batches"] == 1
        assert snapshot["requests_served"] == 0

    def test_quantiles_cover_the_window(self):
        stats = ServerStats(window=8)
        for seconds in (0.1, 0.2, 0.3):
            stats.record("fast-path", seconds)
        snapshot = stats.snapshot()
        assert snapshot["latency_window"] == 3
        assert snapshot["latency_p50_seconds"] == pytest.approx(0.2)
        assert 0.2 < snapshot["latency_p99_seconds"] <= 0.3

    def test_window_keeps_only_the_latest_samples(self):
        stats = ServerStats(window=4)
        for seconds in range(10):
            stats.record("fast-path", float(seconds))
        snapshot = stats.snapshot()
        # Counters keep the whole history; quantiles see samples 6..9.
        assert snapshot["requests_served"] == 10
        assert snapshot["latency_window"] == 4
        assert snapshot["latency_p50_seconds"] == pytest.approx(7.5)

    def test_summary_without_samples(self):
        line = ServerStats().summary()
        assert line.startswith("served 0 requests")
        assert "by route: none" in line
        assert "no latency samples" in line

    def test_summary_with_samples(self):
        stats = ServerStats()
        stats.record("fast-path", 0.002)
        stats.record("shared-arena", 0.004)
        stats.errors += 1
        line = stats.summary()
        assert "served 2 requests (1 fast-path, 1 pool" in line
        assert "by route: fast-path 1, shared-arena 1)" in line
        assert "1 errors" in line
        assert "p50=3.00ms" in line
        assert "over last 2" in line

    def test_instances_share_no_state(self):
        first, second = ServerStats(), ServerStats()
        first.record("fast-path", 0.01)
        second.errors += 3
        assert first.snapshot()["requests_served"] == 1
        assert first.snapshot()["errors"] == 0
        assert second.snapshot()["requests_served"] == 0
        assert second.snapshot()["latency_window"] == 0

    def test_snapshot_survives_a_json_round_trip(self):
        stats = ServerStats()
        stats.record("coalesced", 0.01)
        snapshot = stats.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


def _window_samples(seed, count, ties):
    """``count`` wall times: exponential, or drawn from five values."""
    rng = np.random.default_rng(seed)
    if ties:
        return rng.choice([1e-4, 2.5e-4, 2.5e-4, 1e-3, 0.0123], count).tolist()
    return rng.exponential(2e-3, count).tolist()


class TestQuantilesEqualNumpy:
    """The window quantiles are ``np.quantile``'s, bit for bit."""

    @given(
        window=st.integers(min_value=1, max_value=1024),
        recorded=st.integers(min_value=1, max_value=2100),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ties=st.booleans(),
    )
    def test_p50_and_p99(self, window, recorded, seed, ties):
        """Windows of 1–1024 samples, with and without ties, partly
        filled, full, and wrapped (more samples recorded than kept)."""
        samples = _window_samples(seed, recorded, ties)
        stats = ServerStats(window=window)
        for seconds in samples:
            stats.record("fast-path", seconds)
        kept = np.asarray(samples[-window:])
        snapshot = stats.snapshot()
        assert snapshot["latency_window"] == kept.size
        assert snapshot["latency_p50_seconds"] == float(np.quantile(kept, 0.5))
        assert snapshot["latency_p99_seconds"] == float(
            np.quantile(kept, 0.99)
        )

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=64
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_any_quantile_of_small_windows(self, samples, q):
        stats = ServerStats()
        for seconds in samples:
            stats.record("fast-path", seconds)
        assert stats._quantile(q) == float(np.quantile(np.asarray(samples), q))

    @pytest.mark.parametrize("count", [1, 2, 3, 1023, 1024])
    def test_window_sizes_at_the_edges(self, count):
        samples = _window_samples(count, count, ties=False)
        stats = ServerStats()
        for seconds in samples:
            stats.record("fast-path", seconds)
        for key, q in (("latency_p50_seconds", 0.5),
                       ("latency_p99_seconds", 0.99)):
            assert stats.snapshot()[key] == float(np.quantile(samples, q))


def _identify_on_fresh_connections(handle, wires, count):
    for _ in range(count):
        with ServingClient(handle.host, handle.port) as client:
            assert client.identify(wires).elements.tolist() == [1, 3, 5]


class TestStatsOverTheWire:
    def test_requests_on_separate_connections_are_all_counted(self, wires):
        sent = 6
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            _identify_on_fresh_connections(handle, wires, sent)
            with ServingClient(handle.host, handle.port) as client:
                stats = client.stats()
        assert set(stats) == STATS_KEYS
        assert stats["requests_served"] == sent
        assert stats["fast_path_requests"] == sent
        assert stats["latency_window"] == sent

    def test_pipelined_and_blocking_requests_are_all_counted(self, wires):
        blocking, pipelined = 4, 5
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            _identify_on_fresh_connections(handle, wires, blocking)

            async def pipeline():
                async with await AsyncServingClient.open(
                    handle.host, handle.port
                ) as client:
                    replies = await asyncio.gather(
                        *(client.identify(wires) for _ in range(pipelined))
                    )
                    return replies, await client.stats()

            replies, stats = asyncio.run(pipeline())
        for reply in replies:
            assert reply.elements.tolist() == [1, 3, 5]
        assert stats["requests_served"] == blocking + pipelined

    @pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    )
    def test_one_request_on_each_route(self, tmp_path, wires):
        """Four routes on a one-job server, the two pool routes on a
        two-job one: each request lands in its own route's count."""
        store = CorpusStore.create(tmp_path / "library", wires.grid)
        with store.writer() as writer:
            writer.append(wires)
        single = ServerConfig(
            jobs=1,
            corpus=str(tmp_path / "library"),
            coalesce_window=0.005,
            coalesce_max_wires=2,
            **SMALL,
        )
        with ServerThread(single) as handle:
            with ServingClient(handle.host, handle.port) as client:
                replies = [
                    client.identify(wires),  # 3 wires: over the bucket cap
                    client.identify(wires.select_rows([0])),
                    client.identify(wires, n_shards=2),
                    client.corpus_identify("library", 0, 3),
                ]
                loop_stats = client.stats()
        with ServerThread(ServerConfig(jobs=2, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                replies += [
                    client.identify(wires, n_shards=2),
                    client.logicnet(5, 0, 4, n_gates=4, depth=2, n_shards=2),
                ]
                pool_stats = client.stats()
        transports = [reply.summary["transport"] for reply in replies]
        assert sorted(transports) == sorted(ROUTES)
        assert loop_stats["requests_by_route"] == dict.fromkeys(
            transports[:4], 1
        )
        assert pool_stats["requests_by_route"] == dict.fromkeys(
            ("shared-arena", "seed-rebuild"), 1
        )
        for stats in (loop_stats, pool_stats):
            assert sum(stats["requests_by_route"].values()) == (
                stats["requests_served"]
            )
        assert loop_stats["pool_path_requests"] == 2
        assert pool_stats["pool_path_requests"] == 2

    def test_stats_round_trips_are_not_counted(self):
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with ServingClient(handle.host, handle.port) as client:
                first = client.stats()
                second = client.stats()
        assert first == second
        assert second["requests_served"] == 0
        assert second["errors"] == 0

    def test_reply_answers_the_request_id(self):
        wire = protocol.encode_stats_request(0xBEEF)
        with ServerThread(ServerConfig(jobs=1, **SMALL)) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall(wire)
                reader = protocol.FrameReader()
                frames = []
                while not frames:
                    frames = reader.feed(sock.recv(65536))
        (frame,) = frames
        assert frame.frame_type == protocol.FRAME_STATS_REPLY
        assert frame.request_id == 0xBEEF
        assert set(protocol.parse_json_frame(frame)) == STATS_KEYS
