"""Benchmark: out-of-core corpus scan vs full materialisation.

The corpus tier's claim is a *memory* contract, not a kernel speedup:
a :class:`~repro.pipeline.corpus.CorpusStore` many times larger than
the chunk budget can be scanned — identify and membership — with
results **bit-identical** to loading the whole corpus into RAM, while
the tracked working set stays bounded by one chunk window instead of
the corpus.  One gated entry:

* ``identify_corpus_stream`` — a 4096-row corpus (16x the 256-row
  chunk window, comfortably past the 4x the contract requires) built
  on disk, then scanned three ways:

  1. **full** — ``open_rows(0, n)`` materialises every segment into
     one in-RAM batch, then one batched identify + membership pass
     (the baseline and the bit-identity reference);
  2. **chunked** — ``iter_chunks`` maps one 256-row window at a time
     (single-segment windows are zero-copy views of the mapping) and
     concatenates per-chunk results.  Gates: results bit-identical to
     the full pass in both modes, and the tracemalloc peak of the
     chunked scan at most 1/4 of the full pass's peak;
  3. **served** — an embedded :class:`ServerThread` hosting the same
     directory read-only answers ``FRAME_CORPUS_QUERY`` round trips
     (no bitset payload on the wire) that must merge bit-identical to
     the full pass, with the server-side chunk count matching the
     budget and the raster never materialised.

``seconds`` is the best-of chunked scan wall time; ``speedup`` is
full/chunked — how close the out-of-core scan runs to the all-in-RAM
pass (1.0 means streaming from disk costs nothing).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.backend.batch import SpikeTrainBatch
from repro.logic.correlator import CoincidenceCorrelator
from repro.pipeline.corpus import CorpusStore
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, ServerThread, build_serving_basis
from repro.units import paper_white_grid

N_SAMPLES = 16384
BASIS_SIZE = 16
SOURCE_ISI_SAMPLES = 28
CORPUS_ROWS = 4096
CHUNK_ROWS = 256  # corpus is 16x the chunk window (contract needs >= 4x)


@pytest.fixture(scope="module")
def corpus_workload(tmp_path_factory):
    """A 4096-row corpus on disk plus the serving basis it was drawn from."""
    config = ServerConfig(
        seed=2016,
        basis_size=BASIS_SIZE,
        n_samples=N_SAMPLES,
        source_isi_samples=SOURCE_ISI_SAMPLES,
        jobs=1,
    )
    basis = build_serving_basis(config)
    grid = paper_white_grid(n_samples=N_SAMPLES)
    root = tmp_path_factory.mktemp("corpus") / "bench-corpus"
    store = CorpusStore.create(root, grid)
    rng = np.random.default_rng(2016)
    elements = rng.integers(BASIS_SIZE, size=CORPUS_ROWS)
    basis_batch = basis.as_batch()
    with store.writer() as writer:
        for lo in range(0, CORPUS_ROWS, CHUNK_ROWS):
            rows = elements[lo:lo + CHUNK_ROWS]
            writer.append(basis_batch.select_rows(rows))
    assert store.n_rows == CORPUS_ROWS
    return config, basis, root, elements


def _peak_bytes(fn):
    """Run ``fn`` under tracemalloc; return (result, peak_bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _unused, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _full_pass(root, basis):
    """Materialise the whole corpus in RAM and run both modes."""
    correlator = CoincidenceCorrelator(basis)
    batch = CorpusStore(root).open_rows(0, CORPUS_ROWS)
    identified = correlator.identify_batch(batch, missing="none")
    members = correlator.detect_members_batch(batch)
    return {
        "elements": np.asarray(identified.elements),
        "decision_slots": np.asarray(identified.decision_slots),
        "membership": np.asarray(members.membership),
        "first_slots": np.asarray(members.first_slots),
    }


def _chunked_pass(root, basis):
    """Scan the corpus one mapped chunk window at a time."""
    correlator = CoincidenceCorrelator(basis)
    store = CorpusStore(root)
    parts = {key: [] for key in
             ("elements", "decision_slots", "membership", "first_slots")}
    n_chunks = 0
    for _lo, _hi, window in store.iter_chunks(CHUNK_ROWS):
        n_chunks += 1
        assert window.packed_materialised and not window.raster_materialised
        identified = correlator.identify_batch(window, missing="none")
        members = correlator.detect_members_batch(window)
        parts["elements"].append(np.asarray(identified.elements))
        parts["decision_slots"].append(np.asarray(identified.decision_slots))
        parts["membership"].append(np.asarray(members.membership))
        parts["first_slots"].append(np.asarray(members.first_slots))
    assert n_chunks == CORPUS_ROWS // CHUNK_ROWS
    return {key: np.concatenate(values) for key, values in parts.items()}


def test_identify_corpus_stream(corpus_workload, archive, bench_record,
                                best_of):
    config, basis, root, elements = corpus_workload

    full, full_peak = _peak_bytes(lambda: _full_pass(root, basis))
    chunked, chunk_peak = _peak_bytes(lambda: _chunked_pass(root, basis))

    # Bit-identity: the out-of-core scan must answer exactly what the
    # all-in-RAM pass answers, in both modes.
    assert np.array_equal(full["elements"], elements)
    for key in ("elements", "decision_slots", "membership", "first_slots"):
        assert np.array_equal(chunked[key], full[key]), key

    # The memory contract: scanning a corpus 16x the chunk window must
    # track at most a quarter of the full materialisation's peak.
    assert chunk_peak * 4 <= full_peak, (
        f"chunked scan peaked at {chunk_peak} B, "
        f"full materialisation at {full_peak} B"
    )

    full_s = best_of(lambda: _full_pass(root, basis), repeats=3)
    chunked_s = best_of(lambda: _chunked_pass(root, basis), repeats=3)
    streaming_cost = full_s / chunked_s

    # The served path: the same directory hosted read-only, queried by
    # name + row range (no bitset ever crosses the wire), must merge
    # bit-identical to the full pass.
    serve_config = ServerConfig(
        seed=config.seed,
        basis_size=config.basis_size,
        n_samples=config.n_samples,
        source_isi_samples=config.source_isi_samples,
        jobs=1,
        corpus=str(root),
        corpus_chunk_rows=CHUNK_ROWS,
    )
    with ServerThread(serve_config) as handle:
        with ServingClient(handle.host, handle.port) as client:
            pong = client.ping()
            assert pong["corpus"] == root.name
            assert pong["corpus_rows"] == CORPUS_ROWS
            reply = client.corpus_identify(root.name, 0, CORPUS_ROWS)
            assert np.array_equal(reply.elements, full["elements"])
            assert np.array_equal(reply.decision_slots,
                                  full["decision_slots"])
            assert reply.summary["n_shards"] == CORPUS_ROWS // CHUNK_ROWS
            assert reply.summary["transport"] == "corpus-mmap"
            assert reply.summary["server_residency"]["raster"] is False
            started_rpc = best_of(
                lambda: client.corpus_identify(root.name, 0, CORPUS_ROWS),
                repeats=3,
            )
            members = client.corpus_membership(root.name, 0, CORPUS_ROWS)
            assert np.array_equal(members.membership, full["membership"])
            assert np.array_equal(members.first_slots, full["first_slots"])

    text = "\n".join(
        [
            "Out-of-core corpus scan "
            f"({CORPUS_ROWS} rows x T={N_SAMPLES}, M={BASIS_SIZE}, "
            f"chunk window {CHUNK_ROWS} rows = 1/{CORPUS_ROWS // CHUNK_ROWS} "
            "of the corpus)",
            f"  full pass      : {1e3 * full_s:8.3f} ms "
            f"(tracemalloc peak {full_peak / 1e6:7.2f} MB)",
            f"  chunked scan   : {1e3 * chunked_s:8.3f} ms "
            f"(tracemalloc peak {chunk_peak / 1e6:7.2f} MB, "
            f"{full_peak / max(chunk_peak, 1):.1f}x smaller)",
            f"  served query   : {1e3 * started_rpc:8.3f} ms "
            f"({CORPUS_ROWS // CHUNK_ROWS} chunks streamed, corpus-mmap)",
            f"  streaming cost : full/chunked = {streaming_cost:.2f} "
            "(1.0 = out-of-core is free)",
        ]
    )
    archive("identify_corpus_stream.txt", text)
    bench_record(
        "identify_corpus_stream",
        {
            "corpus_rows": CORPUS_ROWS,
            "chunk_rows": CHUNK_ROWS,
            "n_samples": N_SAMPLES,
            "basis_size": BASIS_SIZE,
            "full_seconds": round(full_s, 6),
            "rpc_seconds": round(started_rpc, 6),
            "full_peak_bytes": int(full_peak),
            "chunk_peak_bytes": int(chunk_peak),
        },
        seconds=chunked_s,
        speedup=streaming_cost,
    )
