"""The DONE contract of every serving route, pinned end to end.

One parametrized case per route the server can take — fast path,
coalesced micro-batch, in-process and shared-arena sharding, the
corpus memmap scan, and in-process and seed-rebuild logicnet (explicit
and default shard counts).  Each case asserts the reply's
``transport`` and ``n_shards``, the *exact* DONE key set
``docs/protocol.md`` ("DONE frame") documents for that transport, the
shard row ranges, the shard and server residency blocks, and
bit-identity with the local reference computation.
"""

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.logic.correlator import CoincidenceCorrelator
from repro.logic.netbatch import LogicNetBatch
from repro.pipeline.corpus import CorpusStore
from repro.serving.client import ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)
from repro.units import paper_white_grid

SMALL = dict(n_samples=4096, basis_size=8, source_isi_samples=16, seed=7)
N_WIRES = 24
CORPUS_ROWS = 64
FAMILY = dict(seed=21, n_gates=6, depth=3)

#: The DONE keys of each transport family (docs/protocol.md).
BITSET_KEYS = {
    "kind", "mode", "n_wires", "n_shards", "labels", "transport",
    "wall_seconds", "server_residency",
}
CORPUS_KEYS = BITSET_KEYS | {"corpus", "row_start", "row_stop"}
LOGICNET_KEYS = {
    "kind", "mode", "n_networks", "n_gates", "depth", "n_shards",
    "labels", "transport", "wall_seconds", "server_residency",
    "row_start", "row_stop",
}

PACKED_ONLY = {"packed": True, "csr": False, "raster": False}
#: Logicnet shards evaluate the basis batch, which is CSR-built and
#: packs its words on first use — still never a raster.
BASIS_RESIDENCY = {"packed": True, "csr": True, "raster": False}

SERVERS = {
    "inline": dict(jobs=1),
    "coalescing": dict(jobs=1, coalesce_window=0.001),
    "pooled": dict(jobs=2, fast_path_bytes=0),
    "corpus": dict(jobs=1, corpus_chunk_rows=16),
}

#: (id, server, request, transport, row ranges, DONE keys, residency)
CASES = [
    ("fast-path", "inline", dict(kind="identify"), "fast-path",
     [(0, 24)], BITSET_KEYS, PACKED_ONLY),
    ("coalesced", "coalescing", dict(kind="membership"), "coalesced",
     [(0, 24)], BITSET_KEYS, PACKED_ONLY),
    ("in-process", "inline", dict(kind="identify", n_shards=3), "in-process",
     [(0, 8), (8, 16), (16, 24)], BITSET_KEYS, PACKED_ONLY),
    ("shared-arena", "pooled", dict(kind="membership", n_shards=3),
     "shared-arena", [(0, 8), (8, 16), (16, 24)], BITSET_KEYS, PACKED_ONLY),
    ("shared-arena-default", "pooled", dict(kind="identify"), "shared-arena",
     [(0, 12), (12, 24)], BITSET_KEYS, PACKED_ONLY),
    ("corpus-mmap", "corpus", dict(kind="corpus", rows=(5, 55)),
     "corpus-mmap", [(5, 17), (17, 30), (30, 42), (42, 55)], CORPUS_KEYS,
     PACKED_ONLY),
    ("corpus-mmap-explicit", "corpus",
     dict(kind="corpus", rows=(0, 10), n_shards=3), "corpus-mmap",
     [(0, 3), (3, 6), (6, 10)], CORPUS_KEYS, PACKED_ONLY),
    ("logicnet-in-process", "inline",
     dict(kind="logicnet", nets=(2, 12), n_shards=3), "in-process",
     [(2, 5), (5, 8), (8, 12)], LOGICNET_KEYS, BASIS_RESIDENCY),
    ("logicnet-in-process-default", "inline",
     dict(kind="logicnet", nets=(0, 7)), "in-process", [(0, 7)],
     LOGICNET_KEYS, BASIS_RESIDENCY),
    ("logicnet-seed-rebuild", "pooled",
     dict(kind="logicnet", nets=(2, 12), n_shards=3), "seed-rebuild",
     [(2, 5), (5, 8), (8, 12)], LOGICNET_KEYS, BASIS_RESIDENCY),
    ("logicnet-seed-rebuild-default", "pooled",
     dict(kind="logicnet", nets=(0, 7)), "seed-rebuild", [(0, 7)],
     LOGICNET_KEYS, BASIS_RESIDENCY),
]


@pytest.fixture(scope="module")
def basis():
    return build_serving_basis(ServerConfig(**SMALL))


@pytest.fixture(scope="module")
def wires(basis):
    elements = np.random.default_rng(99).integers(basis.size, size=N_WIRES)
    return basis.as_batch().select_rows(elements)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, basis):
    """An on-disk corpus drawn from the serving basis, plus its rows."""
    root = tmp_path_factory.mktemp("contract") / "library"
    store = CorpusStore.create(root, paper_white_grid(SMALL["n_samples"]))
    elements = np.random.default_rng(13).integers(basis.size, size=CORPUS_ROWS)
    with store.writer() as writer:
        writer.append(basis.as_batch().select_rows(elements))
    return root, elements


@pytest.fixture(scope="module")
def servers(corpus):
    """One running server per entry of ``SERVERS``, started on demand."""
    running = {}

    def get(name):
        if name not in running:
            extra = dict(SERVERS[name])
            if name == "corpus":
                extra["corpus"] = str(corpus[0])
            running[name] = ServerThread(
                ServerConfig(**extra, **SMALL)
            ).start()
        return running[name]

    yield get
    for handle in running.values():
        handle.close()


def _serve_and_reference(request, handle, basis, wires, corpus):
    """``(reply, {field: expected array})`` for one case's request."""
    kind = request["kind"]
    n_shards = request.get("n_shards", 0)
    correlator = CoincidenceCorrelator(basis)
    with ServingClient(handle.host, handle.port) as client:
        if kind == "identify":
            reply = client.identify(wires, n_shards=n_shards)
            local = correlator.identify_batch(wires, missing="none")
            return reply, {
                "elements": local.elements,
                "decision_slots": local.decision_slots,
                "spikes_inspected": local.spikes_inspected,
            }
        if kind == "membership":
            reply = client.membership(wires, n_shards=n_shards)
            local = correlator.detect_members_batch(wires)
            return reply, {
                "membership": local.membership,
                "first_slots": local.first_slots,
            }
        if kind == "corpus":
            lo, hi = request["rows"]
            reply = client.corpus_membership(
                corpus[0].name, lo, hi, n_shards=n_shards
            )
            rows = basis.as_batch().select_rows(corpus[1][lo:hi])
            local = correlator.detect_members_batch(rows)
            return reply, {
                "membership": local.membership,
                "first_slots": local.first_slots,
            }
        lo, hi = request["nets"]
        reply = client.logicnet(
            FAMILY["seed"], lo, hi, n_gates=FAMILY["n_gates"],
            depth=FAMILY["depth"], n_shards=n_shards,
        )
        inputs = basis.as_batch()
        popcounts, checksums = LogicNetBatch.random(
            hi - lo, FAMILY["n_gates"], FAMILY["depth"], inputs.n_trains,
            FAMILY["seed"], net_start=lo,
        ).evaluate(inputs.packed_words(), inputs.grid.n_samples)
        return reply, {"popcounts": popcounts, "checksums": checksums}


@pytest.mark.parametrize(
    "server, request_, transport, ranges, keys, residency",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_done_contract(
    servers, basis, wires, corpus,
    server, request_, transport, ranges, keys, residency,
):
    if SERVERS[server]["jobs"] > 1 and not HAVE_SHARED_MEMORY:
        pytest.skip("no memfd shared memory on this host")
    reply, expected = _serve_and_reference(
        request_, servers(server), basis, wires, corpus
    )
    summary = reply.summary
    assert set(summary) == keys
    assert summary["kind"] == "done"
    assert summary["transport"] == transport
    assert summary["n_shards"] == len(ranges) == len(reply.shards)
    assert summary["labels"] == list(basis.labels)
    assert summary["server_residency"] == residency
    assert [
        (shard["row_start"], shard["row_stop"]) for shard in reply.shards
    ] == ranges
    for shard in reply.shards:
        assert shard["residency"] == residency
    kind = request_["kind"]
    if kind == "logicnet":
        assert summary["mode"] == "logicnet"
        assert summary["n_networks"] == ranges[-1][1] - ranges[0][0]
        assert (summary["n_gates"], summary["depth"]) == (
            FAMILY["n_gates"], FAMILY["depth"],
        )
    else:
        assert summary["mode"] == (
            "identify" if kind == "identify" else "membership"
        )
        assert summary["n_wires"] == ranges[-1][1] - ranges[0][0]
    if "row_start" in keys:
        assert (summary["row_start"], summary["row_stop"]) == (
            ranges[0][0], ranges[-1][1],
        )
    if kind == "corpus":
        assert summary["corpus"] == corpus[0].name
    for field, value in expected.items():
        np.testing.assert_array_equal(getattr(reply, field), value)
