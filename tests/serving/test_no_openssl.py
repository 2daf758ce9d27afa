"""``repro serve`` maps no OpenSSL, in any process of its tree.

REPB is plain TCP and nothing served hashes, yet two importers would
map OpenSSL's ``libcrypto`` and ``libssl`` into the server and into
every worker it forks: asyncio imports ``ssl`` for its optional TLS
support, and ``numpy.random`` imports ``secrets``, whose ``hmac``
imports ``_hashlib``.  ``repro serve`` marks ``_ssl`` and ``_hashlib``
unimportable before it imports either, so neither library is mapped by
the server, by a pool worker, or by a worker forked later to replace a
killed one, and every reply stays bit-identical.  The block lives in
the CLI only: a process that embeds ``ServerThread`` imports ``ssl``
as before.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.logic.correlator import CoincidenceCorrelator
from repro.logic.netbatch import LogicNetBatch
from repro.pipeline.corpus import CorpusStore
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, build_serving_basis

from .live_server import _SRC, LiveServer, alive, wait_until

#: File-name prefixes of OpenSSL's libraries and of CPython's two
#: extension modules that bind them.
_OPENSSL = ("libssl", "libcrypto", "_ssl", "_hashlib")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc"
)


def _openssl_files(maps):
    """The OpenSSL files among the mappings of one ``/proc/<pid>/maps``."""
    files = {
        os.path.basename(fields[5])
        for fields in (line.split() for line in maps.splitlines())
        if len(fields) > 5
    }
    return sorted(name for name in files if name.startswith(_OPENSSL))


def openssl_mapped(pid):
    """The OpenSSL files ``pid`` has mapped."""
    with open(f"/proc/{pid}/maps") as maps:
        return _openssl_files(maps.read())


@pytest.fixture(scope="module")
def basis():
    return build_serving_basis(ServerConfig(n_samples=4096, basis_size=8))


@pytest.fixture(scope="module")
def library(tmp_path_factory, basis):
    """A hosted corpus holding the basis's own rows."""
    root = tmp_path_factory.mktemp("no_openssl") / "library"
    batch = basis.as_batch()
    store = CorpusStore.create(root, batch.grid)
    with store.writer() as writer:
        writer.append(batch)
    return root


def _serve_every_workload(client, basis, jobs):
    """An identify, a logicnet and a corpus query, each checked bit for
    bit against a local computation; every shard count is ``jobs``, so
    each pool worker computes one shard."""
    inputs = basis.as_batch()
    correlator = CoincidenceCorrelator(basis)
    wires = inputs.select_rows([5, 2, 7, 1, 0, 3])
    reply = client.identify(wires, n_shards=jobs)
    assert reply.summary["transport"] == (
        "in-process" if jobs == 1 else "shared-arena"
    )
    local = correlator.identify_batch(wires, missing="none")
    for name in ("elements", "decision_slots", "spikes_inspected"):
        assert np.array_equal(getattr(reply, name), getattr(local, name))
    nets = client.logicnet(21, 0, 8, n_gates=6, depth=2, n_shards=jobs)
    assert nets.summary["transport"] == (
        "in-process" if jobs == 1 else "seed-rebuild"
    )
    popcounts, checksums = LogicNetBatch.random(
        8, 6, 2, inputs.n_trains, 21
    ).evaluate(inputs.packed_words(), inputs.grid.n_samples)
    assert np.array_equal(nets.popcounts, popcounts)
    assert np.array_equal(nets.checksums, checksums)
    rows = client.corpus_membership("library", 0, inputs.n_trains)
    assert rows.summary["transport"] == "corpus-mmap"
    members = correlator.detect_members_batch(inputs)
    assert np.array_equal(rows.membership, members.membership)
    assert np.array_equal(rows.first_slots, members.first_slots)


@pytest.mark.parametrize(
    "jobs",
    [
        1,
        pytest.param(
            3,
            marks=pytest.mark.skipif(
                not HAVE_SHARED_MEMORY,
                reason="no memfd shared memory on this host",
            ),
        ),
    ],
)
def test_no_process_of_a_serve_tree_maps_openssl(
    tmp_path, basis, library, jobs
):
    with LiveServer(
        tmp_path, "--jobs", str(jobs), "--fast-path-bytes", "0",
        "--corpus", str(library),
    ) as server:
        with ServingClient("127.0.0.1", server.port, timeout=30) as client:
            _serve_every_workload(client, basis, jobs)
            _server_pid, *workers = server.tree()
            assert len(workers) == jobs - 1, workers
            if workers:
                # An idle worker killed from outside is replaced by a
                # fork of the running server the next time a shard
                # needs it.
                os.kill(workers[0], signal.SIGKILL)
                assert wait_until(lambda: not alive(workers[0]), 10)
                _serve_every_workload(client, basis, jobs)
                _server_pid, *successors = server.tree()
                assert len(successors) == jobs - 1, successors
                assert workers[0] not in successors
        tree = server.tree()
        assert {pid: openssl_mapped(pid) for pid in tree} == {
            pid: [] for pid in tree
        }
        assert server.stop() == 0


_EMBEDDED = """
import json
import sys

from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, ServerThread, build_serving_basis

small = dict(n_samples=4096, basis_size=8)
wires = build_serving_basis(ServerConfig(**small)).as_batch().select_rows([5, 2, 7])
with ServerThread(ServerConfig(jobs=1, **small)) as handle:
    with ServingClient(handle.host, handle.port) as client:
        elements = client.identify(wires).elements.tolist()
import asyncio.base_events
import ssl

with open("/proc/self/maps") as maps:
    text = maps.read()
print(json.dumps({
    "elements": elements,
    "asyncio_tls": asyncio.base_events.ssl is ssl,
    "ssl_extension": getattr(sys.modules["_ssl"], "__file__", None),
    "maps": text,
}))
"""


def test_embedding_server_thread_keeps_ssl(tmp_path):
    """The block is the CLI's: an embedding process serves as before,
    with asyncio's TLS support and OpenSSL loaded."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _EMBEDDED],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["elements"] == [5, 2, 7]
    assert report["asyncio_tls"]
    if report["ssl_extension"] is not None:
        # The same reading of the maps that finds nothing in a serve
        # tree finds OpenSSL here.
        assert "_ssl" in " ".join(_openssl_files(report["maps"]))
