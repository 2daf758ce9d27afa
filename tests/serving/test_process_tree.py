"""A ``repro serve --jobs 2`` runs the server and its two pool workers.

Whatever the traffic: LOGICNET (seed-rebuild shards), corpus queries
(memory-mapped in-process) and ``shared-arena`` identifies alike.
Arena segments are anonymous memfds that nothing has to unlink, so no
multiprocessing resource tracker ever starts, and once a reply is in,
the server holds no segment: only the workers' attachments do.  The
pool forks before the server loads its front-end, so no worker maps
the extensions only the front-end uses.
"""

import os

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.pipeline.corpus import CorpusStore
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, build_serving_basis

from .live_server import LiveServer, arena_segments

#: Extension modules and libraries that only the asyncio front-end
#: loads (asyncio imports ``ssl``).
_FRONT_END_ONLY = ("_asyncio", "_ssl", "libssl")

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc"),
    pytest.mark.skipif(
        not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
    ),
]


@pytest.fixture(scope="module")
def batch():
    return build_serving_basis(
        ServerConfig(n_samples=4096, basis_size=8)
    ).as_batch()


def _front_end_mapped(pid):
    """Which of :data:`_FRONT_END_ONLY` ``pid`` has mapped."""
    with open(f"/proc/{pid}/maps") as maps:
        files = {
            os.path.basename(fields[5])
            for fields in (line.split() for line in maps)
            if len(fields) > 5
        }
    return {
        prefix
        for prefix in _FRONT_END_ONLY
        if any(name.startswith(prefix + ".") for name in files)
    }


def test_pool_workers_map_no_front_end_extension(tmp_path, batch):
    with LiveServer(tmp_path, "--jobs", "2", "--fast-path-bytes", "0") as server:
        with ServingClient("127.0.0.1", server.port) as client:
            nets = client.logicnet(3, 0, 8, n_gates=6, depth=3, n_shards=2)
            reply = client.identify(batch, n_shards=2)
        assert nets.summary["transport"] == "seed-rebuild"
        assert reply.summary["transport"] == "shared-arena"
        server_pid, *workers = server.tree()
        assert len(workers) == 2, workers
        front_end = _front_end_mapped(server_pid)
        if not front_end:
            pytest.skip("this interpreter links the front-end extensions in")
        for pid in workers:
            assert not _front_end_mapped(pid) & front_end, pid
        assert server.stop() == 0


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
        assert len(tree) == 3, tree  # the server and its two pool workers
        assert server.stop() == 0


def test_shared_arena_request_adds_no_process(tmp_path, batch):
    wires = batch.select_rows([5, 2, 7])
    with LiveServer(tmp_path, "--jobs", "2", "--fast-path-bytes", "0") as server:
        with ServingClient("127.0.0.1", server.port) as client:
            reply = client.identify(wires, n_shards=2)
        assert reply.summary["transport"] == "shared-arena"
        assert reply.elements.tolist() == [5, 2, 7]
        tree = server.tree()
        assert len(tree) == 3, tree  # the server and its two pool workers
        assert not arena_segments(server.proc.pid)  # closed before DONE
        assert server.stop() == 0
        stderr = server.stderr()
    assert "resource_tracker" not in stderr, stderr
    assert "leaked" not in stderr, stderr
