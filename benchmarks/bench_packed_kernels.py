"""Benchmark: packed-word kernels vs the dense-raster path.

The tentpole claim of the packed backend: when a wire batch arrives in
its transport form (the ``np.packbits`` bitset — what
``SpikeTrainBatch.to_shared`` ships and shard workers attach), the
receivers should compute *on the bitset* rather than unpacking to a
``(N, n_samples)`` boolean raster first.  These benches measure both
pipelines end to end on the serving workload (256 wires, M=16,
T=65536):

* **raster path** — ``np.unpackbits`` + ``from_raster`` (CSR scatter)
  + the CSR receiver: what the code did before the packed kernels;
* **packed path** — adopt the words zero-copy (exactly what
  ``from_shared`` does with an attached segment) + the packed
  receiver: no unpack, no raster, no CSR.

The acceptance bar is a ≥ 4× wall-time improvement with a peak working
set (tracemalloc) ≤ 1/8 of the raster path's, asserted here and
recorded in ``BENCH_batch.json`` (bytes touched included) so
``compare_bench.py`` gates the trajectory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch
from repro.hyperspace.basis import HyperspaceBasis
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.spikes.generators import poisson_train
from repro.units import paper_white_grid

N_WIRES = 256
BASIS_SIZE = 16
#: Mean inter-spike interval of the paper's white source (Table 2).
SOURCE_ISI_SAMPLES = 28

#: Required wall-time improvement of the packed path.
MIN_SPEEDUP = 4.0
#: Required peak-working-set reduction of the packed path.
MIN_MEMORY_RATIO = 8.0


def _peak_bytes(fn):
    """Peak tracemalloc allocation of one invocation."""
    tracemalloc.start()
    fn()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def workload():
    """Basis, packed wire payload, and a warmed correlator.

    The payload is the batch's transport form: the word-aligned bitset
    (what a shared-memory handle carries) plus its trimmed packbits
    byte view (what the raster path would unpack).  Basis projections
    (owner vector, owned-words bitset) are warmed — in the serving
    system they are per-basis caches shared across every shard.
    """
    grid = paper_white_grid()
    rng = np.random.default_rng(2016)
    source = poisson_train(
        rate_hz=1.0 / (SOURCE_ISI_SAMPLES * grid.dt), grid=grid, rng=rng
    )
    output = DemuxOrthogonator.with_outputs(BASIS_SIZE).transform(source)
    basis = HyperspaceBasis.from_orthogonator(output)
    elements = rng.integers(BASIS_SIZE, size=N_WIRES)
    wires = basis.as_batch().select_rows(elements)
    words = np.ascontiguousarray(wires.packed_words())
    payload = np.ascontiguousarray(wires.packbits())
    correlator = CoincidenceCorrelator(basis)
    correlator.identify_batch(wires)
    correlator.detect_members_batch(wires)
    return basis, correlator, words, payload


def _raster_batch(payload, grid):
    """The pre-packed-kernel pipeline: unpack, scatter CSR, wrap."""
    raster = np.unpackbits(payload, axis=1, count=grid.n_samples).astype(bool)
    return SpikeTrainBatch.from_raster(raster, grid, copy=False)


def _packed_batch(words, grid):
    """The attach pipeline: adopt the shipped words zero-copy, exactly
    as ``from_shared`` wraps a mapped segment."""
    return SpikeTrainBatch._from_packed_words(words, grid, validate=False)


def _kernel_bench(
    name, archive, bench_record, best_of, raster_fn, packed_fn, equal, describe
):
    """Time + peak-measure one receiver on both pipelines and gate it."""
    assert equal(raster_fn(), packed_fn()), "paths disagree bit-for-bit"

    raster_s = best_of(raster_fn)
    packed_s = best_of(packed_fn)
    raster_peak = _peak_bytes(raster_fn)
    packed_peak = _peak_bytes(packed_fn)
    speedup = raster_s / packed_s
    memory_ratio = raster_peak / packed_peak

    text = "\n".join(
        [
            f"{describe} ({N_WIRES} wires, M={BASIS_SIZE}, T=65536)",
            f"  raster path (unpack+CSR) : {1e3 * raster_s:9.3f} ms, "
            f"peak {raster_peak:12,d} B",
            f"  packed path (on bitset)  : {1e3 * packed_s:9.3f} ms, "
            f"peak {packed_peak:12,d} B",
            f"  wall-time speedup        : {speedup:9.1f}x "
            f"(required: {MIN_SPEEDUP}x)",
            f"  working-set reduction    : {memory_ratio:9.1f}x "
            f"(required: {MIN_MEMORY_RATIO}x)",
        ]
    )
    archive(f"{name}.txt", text)
    bench_record(
        name,
        {
            "n_wires": N_WIRES,
            "basis_size": BASIS_SIZE,
            "n_samples": 65536,
            "raster_seconds": round(raster_s, 6),
            "raster_peak_bytes": raster_peak,
            "packed_peak_bytes": packed_peak,
        },
        packed_s,
        speedup,
    )

    assert speedup >= MIN_SPEEDUP, (
        f"packed {describe} only {speedup:.1f}x faster than the raster "
        f"path (required: {MIN_SPEEDUP}x)"
    )
    assert packed_peak * MIN_MEMORY_RATIO <= raster_peak, (
        f"packed peak {packed_peak:,} B exceeds 1/{MIN_MEMORY_RATIO:.0f} "
        f"of the raster path's {raster_peak:,} B"
    )


def test_packed_identify_kernel(workload, archive, bench_record, best_of):
    """First-coincidence identification from the transport bitset."""
    basis, correlator, words, payload = workload
    grid = basis.grid

    def raster_fn():
        return correlator.identify_batch(_raster_batch(payload, grid))

    def packed_fn():
        return correlator.identify_batch(_packed_batch(words, grid))

    _kernel_bench(
        "identify_packed_kernel",
        archive,
        bench_record,
        best_of,
        raster_fn,
        packed_fn,
        lambda a, b: a.results() == b.results(),
        "Packed-kernel identification",
    )


def test_packed_membership_kernel(workload, archive, bench_record, best_of):
    """Set-membership readout from the transport bitset."""
    basis, correlator, words, payload = workload
    grid = basis.grid

    def raster_fn():
        return correlator.detect_members_batch(_raster_batch(payload, grid))

    def packed_fn():
        return correlator.detect_members_batch(_packed_batch(words, grid))

    _kernel_bench(
        "membership_packed_kernel",
        archive,
        bench_record,
        best_of,
        raster_fn,
        packed_fn,
        lambda a, b: np.array_equal(a.first_slots, b.first_slots),
        "Packed-kernel membership",
    )


def test_packed_setops_throughput(workload, archive, bench_record, best_of):
    """Row-wise set algebra on the bitset vs the dense raster pass.

    Not part of the acceptance gate but recorded for the trajectory:
    one AND/OR over the whole batch touches 1/8 the bytes, and the
    result stays packed (no eager CSR decode).
    """
    basis, _correlator, words, payload = workload
    grid = basis.grid
    packed_a = _packed_batch(words, grid)
    packed_b = packed_a.select_rows(np.arange(N_WIRES)[::-1].copy())
    raster_a = _raster_batch(payload, grid)
    raster_b = raster_a.select_rows(np.arange(N_WIRES)[::-1].copy())
    raster_a.raster, raster_b.raster  # materialise the dense operands

    assert (packed_a & packed_b) == (raster_a & raster_b)

    packed_s = best_of(lambda: packed_a & packed_b)
    raster_s = best_of(lambda: raster_a & raster_b)
    text = "\n".join(
        [
            f"Packed set algebra ({N_WIRES} wires x 65536 slots, AND)",
            f"  raster pass : {1e3 * raster_s:8.3f} ms",
            f"  packed pass : {1e3 * packed_s:8.3f} ms",
            f"  speedup     : {raster_s / packed_s:8.1f}x",
        ]
    )
    archive("packed_setops.txt", text)
    bench_record(
        "setops_packed_kernel",
        {"n_wires": N_WIRES, "n_samples": 65536, "op": "and"},
        packed_s,
        raster_s / packed_s,
    )
    assert packed_s < raster_s
