"""Benchmark: batched logic-network evaluation vs the per-gate reference.

The ``logicnet`` tentpole's perf claim: evaluating N random 2-input
gate networks layer-by-layer on packed words
(:meth:`~repro.logic.netbatch.LogicNetBatch.evaluate`) beats the
obvious per-gate truth-table evaluator
(:func:`~repro.testing.differential.reference_evaluate` — one network,
one layer, one gate at a time on dense booleans).  Measured at the
serving-shaped scale from the issue: 256 networks × 256 gates
(4 layers × 64) over 16 shared input lines on the paper's
65 536-sample grid.  The acceptance bar is a ≥ 4× speedup, and the
batched pass must hold the packed-primary invariant — the input
batch's raster stays unmaterialised.

The reference walks in network chunks (a full dense ``(N, G, T)``
boolean would be ~4 GB) and reduces each chunk to popcounts — the same
summary the batched pass emits, compared for bit-identity before any
timing.  The ``tracemalloc`` peak of one batched
pass is recorded too, from its own untimed call: evaluation folds each
word block as it completes, so the peak is the call's working set, not
the ``(N, G, n_words)`` output.

Every bench records a machine-readable entry in
``benchmarks/BENCH_batch.json`` (schema: experiment, config, seconds,
speedup) so the perf trajectory is tracked across PRs.
"""

import tracemalloc

import numpy as np
import pytest

from repro.hyperspace.basis import HyperspaceBasis
from repro.logic.netbatch import LogicNetBatch
from repro.orthogonator.demux import DemuxOrthogonator
from repro.spikes.generators import poisson_train
from repro.testing import differential
from repro.units import paper_white_grid

N_NETWORKS = 256
N_GATES = 64
DEPTH = 4
BASIS_SIZE = 16
#: Mean inter-spike interval of the paper's white source (Table 2).
SOURCE_ISI_SAMPLES = 28
#: Networks per reference chunk — bounds the dense boolean working set.
REFERENCE_CHUNK = 16


@pytest.fixture(scope="module")
def workload():
    grid = paper_white_grid()
    rng = np.random.default_rng(2016)
    source = poisson_train(
        rate_hz=1.0 / (SOURCE_ISI_SAMPLES * grid.dt), grid=grid, rng=rng
    )
    output = DemuxOrthogonator.with_outputs(BASIS_SIZE).transform(source)
    basis = HyperspaceBasis.from_orthogonator(output)
    nets = LogicNetBatch.random(N_NETWORKS, N_GATES, DEPTH, BASIS_SIZE, 2016)
    return basis, nets


def _reference_popcounts(nets, raster):
    """Per-gate output popcounts via the single-gate reference path.

    Network-chunked so the dense boolean stays bounded; each chunk's
    ``(n, G, T)`` outputs reduce to the same ``(n, G)`` summary the
    batched pass emits.
    """
    chunks = []
    for lo in range(0, nets.n_networks, REFERENCE_CHUNK):
        sub = nets.select_networks(lo, lo + REFERENCE_CHUNK)
        chunks.append(
            differential.reference_evaluate(sub, raster).sum(
                axis=-1, dtype=np.int64
            )
        )
    return np.concatenate(chunks)


def test_logicnet_batched_speedup(workload, archive, bench_record, best_of):
    basis, nets = workload
    # The batched pipeline's natural input is the basis batch's packed
    # words; the reference reads the same lines as dense booleans,
    # unpacked from a words *copy* so no raster ever attaches to the
    # measured batch.
    hot = basis.as_batch()
    words = hot.packed_words()
    n_samples = hot.grid.n_samples
    raster = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=-1
    )[:, :n_samples].astype(bool)

    def batched_pass():
        return nets.evaluate(words, n_samples)

    outcome = {}

    def per_gate_reference():
        outcome["popcounts"] = _reference_popcounts(nets, raster)

    popcounts, checksums = batched_pass()
    reference_s = best_of(per_gate_reference, repeats=1)
    np.testing.assert_array_equal(
        popcounts,
        outcome["popcounts"],
        err_msg="batched logicnet pass diverged from the per-gate reference",
    )
    # Packed-primary invariant: the measured path never built a raster.
    assert not hot.raster_materialised

    batch_s = best_of(batched_pass, repeats=3)
    speedup = reference_s / batch_s
    tracemalloc.start()
    try:
        batched_pass()
        _current, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    total_gates = N_NETWORKS * N_GATES * DEPTH
    text = "\n".join(
        [
            "logicnet batched evaluation "
            f"({N_NETWORKS} nets x {DEPTH}x{N_GATES} gates, "
            f"{BASIS_SIZE} lines, {n_samples} slots)",
            f"  per-gate reference : {reference_s:.3f} s "
            f"({1e6 * reference_s / total_gates:.1f} us/gate)",
            f"  batched packed     : {batch_s:.3f} s "
            f"({1e6 * batch_s / total_gates:.2f} us/gate)",
            f"  speedup            : {speedup:.1f}x",
            f"  traced peak        : {peak_bytes / 2**20:.2f} MiB",
            f"  output spikes      : {int(popcounts.sum())}",
            f"  checksum fold      : 0x{int(np.bitwise_xor.reduce(checksums)):016x}",
        ]
    )
    archive("bench_logicnet.txt", text)
    bench_record(
        "logicnet_batched_bitwise_count",
        config={
            "n_networks": N_NETWORKS,
            "n_gates": N_GATES,
            "depth": DEPTH,
            "basis_size": BASIS_SIZE,
            "n_samples": n_samples,
            "reference_seconds": round(reference_s, 6),
            "evaluate_peak_bytes": peak_bytes,
        },
        seconds=batch_s,
        speedup=speedup,
    )
    assert speedup >= 4.0, (
        f"batched logicnet evaluation must be >= 4x the per-gate "
        f"reference, got {speedup:.2f}x"
    )
