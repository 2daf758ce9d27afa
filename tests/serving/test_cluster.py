"""Tests for the multi-worker serving tier.

Three layers: the fork-shared stats block (pure data structure), the
WorkerStats mirror (every ServerStats mutation path must land in the
block), and end-to-end SO_REUSEPORT clusters, checking that blocking
and pipelined requests are served by worker processes and that any
worker answers a STATS request with the cluster-wide aggregate.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.cluster import (
    HAVE_REUSEPORT,
    ClusterStatsBlock,
    ServerCluster,
    WorkerStats,
)
from repro.serving.server import ServerConfig, build_serving_basis
from repro.errors import ServingError

pytestmark = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no POSIX shared memory on this host"
)

CONFIG = ServerConfig(
    host="127.0.0.1", port=0, n_samples=4096, basis_size=8, workers=2
)


@pytest.fixture(scope="module")
def basis():
    return build_serving_basis(CONFIG)


@pytest.fixture(scope="module")
def wires(basis):
    return basis.as_batch().select_rows([1, 3, 5])


class TestClusterStatsBlock:
    def test_rejects_zero_workers(self):
        with pytest.raises(ServingError):
            ClusterStatsBlock(0)

    def test_aggregate_sums_rows(self):
        block = ClusterStatsBlock(3)
        block.counters[0, 0] = 5  # requests_served
        block.counters[2, 0] = 2
        block.counters[1, 5] = 1  # errors
        stats = block.aggregate()
        assert stats["requests_served"] == 7
        assert stats["errors"] == 1
        assert stats["scope"] == "cluster"
        assert stats["workers"] == 3
        assert [w["requests_served"] for w in stats["per_worker"]] == [5, 0, 2]

    def test_empty_latency_quantiles_are_none(self):
        stats = ClusterStatsBlock(2).aggregate()
        assert stats["latency_window"] == 0
        assert stats["latency_p50_seconds"] is None
        assert stats["latency_p99_seconds"] is None

    def test_latencies_pool_across_workers(self):
        block = ClusterStatsBlock(2, window=8)
        for value in (0.1, 0.2):
            block.record_latency(0, value)
        block.record_latency(1, 0.3)
        stats = block.aggregate()
        assert stats["latency_window"] == 3
        assert stats["latency_p50_seconds"] == pytest.approx(0.2)

    def test_latency_ring_wraps(self):
        block = ClusterStatsBlock(1, window=4)
        for value in range(10):
            block.record_latency(0, float(value))
        stats = block.aggregate()
        # Only the window's worth of samples remain valid.
        assert stats["latency_window"] == 4
        assert int(block.positions[0]) == 10

    def test_summary_mentions_worker_count(self):
        block = ClusterStatsBlock(4)
        assert "across 4 workers" in block.summary()


class TestWorkerStats:
    def test_record_mirrors_into_block_row(self):
        block = ClusterStatsBlock(2)
        stats = WorkerStats(block, 1)
        stats.record("fast-path", 0.01)
        stats.record("pool", 0.02)
        stats.record("coalesced", 0.03)
        assert block.counters[1, 0] == 3  # requests_served
        assert block.counters[1, 1] == 1  # fast_path
        assert block.counters[1, 2] == 1  # pool_path
        assert block.counters[1, 3] == 1  # coalesced
        assert block.counters[0].sum() == 0  # sibling row untouched
        assert int(block.positions[1]) == 3

    def test_direct_increment_paths_mirror(self):
        # The server bumps these two counters without going through
        # record(); the property mirror must catch them.
        block = ClusterStatsBlock(1)
        stats = WorkerStats(block, 0)
        stats.errors += 1
        stats.coalesced_batches += 1
        assert block.counters[0, 5] == 1
        assert block.counters[0, 4] == 1

    def test_snapshot_reads_the_shared_row(self):
        block = ClusterStatsBlock(1)
        stats = WorkerStats(block, 0)
        stats.record("fast-path", 0.01)
        snapshot = stats.snapshot()
        assert snapshot["requests_served"] == 1
        assert snapshot["fast_path_requests"] == 1
        # A write from "another process" (same mapping) is visible.
        block.counters[0, 0] = 41
        assert stats.snapshot()["requests_served"] == 41

    def test_two_workers_do_not_interfere(self):
        block = ClusterStatsBlock(2)
        first, second = WorkerStats(block, 0), WorkerStats(block, 1)
        first.record("fast-path", 0.01)
        second.errors += 3
        assert first.requests_served == 1
        assert second.requests_served == 0
        assert second.errors == 3
        assert first.errors == 0


def _roundtrip(port, wires, count):
    """``count`` sequential one-connection identify requests."""
    for _ in range(count):
        with ServingClient("127.0.0.1", port) as client:
            reply = client.identify(wires)
            assert list(reply.elements) == [1, 3, 5]


@pytest.mark.skipif(not HAVE_REUSEPORT, reason="no SO_REUSEPORT")
class TestReuseportCluster:
    def test_aggregated_stats_count_all_workers(self, wires):
        sent = 6
        with ServerCluster(CONFIG) as cluster:
            _roundtrip(cluster.port, wires, sent)
            with ServingClient("127.0.0.1", cluster.port) as client:
                stats = client.stats()
            assert stats["requests_served"] == sent
            assert stats["scope"] == "cluster"
            assert stats["workers"] == 2
            per_worker = stats["per_worker"]
            assert len(per_worker) == 2
            assert sum(w["requests_served"] for w in per_worker) == sent
            assert all(w["pid"] > 0 for w in per_worker)
            assert all(w["pid"] != os.getpid() for w in per_worker)

    def test_local_scope_returns_one_worker(self, wires):
        with ServerCluster(CONFIG) as cluster:
            _roundtrip(cluster.port, wires, 4)
            with ServingClient("127.0.0.1", cluster.port) as client:
                local = client.stats(scope="local")
            assert "scope" not in local
            assert "per_worker" not in local
            assert 0 <= local["requests_served"] <= 4

    def test_close_returns_final_aggregate_and_reaps_workers(self, wires):
        cluster = ServerCluster(CONFIG).start()
        pids = []
        try:
            _roundtrip(cluster.port, wires, 2)
            pids = [int(p) for p in cluster.block.pids]
        finally:
            final = cluster.close()
        assert final["requests_served"] == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_pipelined_requests_aggregate(self, wires):
        sent_blocking, sent_pipelined = 4, 5
        with ServerCluster(CONFIG) as cluster:
            _roundtrip(cluster.port, wires, sent_blocking)

            async def pipelined():
                client = await AsyncServingClient.open(
                    "127.0.0.1", cluster.port
                )
                try:
                    replies = await asyncio.gather(
                        *(client.identify(wires) for _ in range(sent_pipelined))
                    )
                    for reply in replies:
                        assert list(reply.elements) == [1, 3, 5]
                finally:
                    await client.aclose()

            asyncio.run(pipelined())
            with ServingClient("127.0.0.1", cluster.port) as client:
                stats = client.stats()
            assert stats["requests_served"] == sent_blocking + sent_pipelined
            assert stats["workers"] == 2


class TestClusterConfig:
    def test_workers_must_be_positive(self):
        with pytest.raises(ServingError):
            ServerCluster(CONFIG, workers=0)

    def test_host_without_reuseport_gets_a_typed_error(self, monkeypatch):
        from repro.serving import cluster

        monkeypatch.setattr(cluster, "HAVE_REUSEPORT", False)
        with pytest.raises(ServingError, match="SO_REUSEPORT"):
            ServerCluster(CONFIG)

    def test_port_before_start_raises(self):
        cluster = ServerCluster(CONFIG)
        with pytest.raises(ServingError):
            cluster.port
