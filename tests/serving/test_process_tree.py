"""A ``repro serve --jobs 2`` runs only the processes its traffic needs.

The multiprocessing resource tracker is a separate interpreter whose
one job is to unlink ``/dev/shm`` segments if the server is SIGKILLed.
It starts with the first shared-memory segment, so a server answering
only LOGICNET (seed-rebuild shards) and corpus queries (memory-mapped
in-process) runs the server and its two pool workers, nothing more;
the first ``shared-arena`` identify adds exactly one tracker, and a
graceful stop still leaves it nothing to warn about.
"""

import os

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.pipeline.corpus import CorpusStore
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, build_serving_basis

from .live_server import LiveServer, is_resource_tracker

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc"),
    pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
    ),
]


@pytest.fixture(scope="module")
def batch():
    return build_serving_basis(
        ServerConfig(n_samples=4096, basis_size=8)
    ).as_batch()


def _trackers(pids):
    return [pid for pid in pids if is_resource_tracker(pid)]


def test_logicnet_and_corpus_traffic_start_no_tracker(tmp_path, batch):
    store = CorpusStore.create(tmp_path / "library", batch.grid)
    with store.writer() as writer:
        writer.append(batch)
    with LiveServer(
        tmp_path, "--jobs", "2", "--corpus", str(tmp_path / "library")
    ) as server:
        with ServingClient("127.0.0.1", server.port) as client:
            nets = client.logicnet(3, 0, 8, n_gates=6, depth=3, n_shards=2)
            rows = client.corpus_identify("library", 0, 8)
        assert nets.summary["transport"] == "seed-rebuild"
        assert rows.summary["transport"] == "corpus-mmap"
        np.testing.assert_array_equal(rows.elements, np.arange(8))
        tree = server.tree()
        assert not _trackers(tree), tree
        assert len(tree) == 3, tree  # the server and its two pool workers
        assert server.stop() == 0


def test_shared_arena_request_starts_one_tracker(tmp_path, batch):
    wires = batch.select_rows([5, 2, 7])
    with LiveServer(tmp_path, "--jobs", "2", "--fast-path-bytes", "0") as server:
        assert not _trackers(server.tree())
        with ServingClient("127.0.0.1", server.port) as client:
            reply = client.identify(wires, n_shards=2)
        assert reply.summary["transport"] == "shared-arena"
        assert reply.elements.tolist() == [5, 2, 7]
        assert len(_trackers(server.tree())) == 1
        assert server.stop() == 0
        stderr = server.stderr()
    assert "resource_tracker" not in stderr, stderr
    assert "leaked" not in stderr, stderr
