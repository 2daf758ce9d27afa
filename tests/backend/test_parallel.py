"""Property tests for the pool-parallel packed-kernel dispatch layer.

The layer's whole contract is **parallel ≡ serial, bit-identically**:
each worker runs the unmodified serial kernel on a contiguous row
slice shipped through a SharedArena, and the slices concatenate in row
order.  These tests check that identity over randomized ragged row
splits (row counts that don't divide evenly across workers, grids with
partial tail words), plus every auto-fallback path the module
promises.
"""

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, packed, parallel
from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.pipeline.runner import Runner
from repro.units import SimulationGrid

pytestmark = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)

#: Ragged shapes: (n_rows, n_samples) pairs where neither the row axis
#: nor the slot axis divides evenly (partial words, odd splits).
RAGGED_SHAPES = [(5, 63), (17, 129), (33, 1000), (97, 257)]


def _random_words(rng, n_rows, n_samples, density=0.15):
    grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
    raster = rng.random((n_rows, n_samples)) < density
    return SpikeTrainBatch.from_raster(raster, grid).packed_words()


@pytest.fixture(scope="module")
def runner():
    with Runner(jobs=2) as pool:
        yield pool


@pytest.fixture(params=[0, 1])
def rng(request):
    return np.random.default_rng(request.param)


class TestRowChunkBounds:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 7, 64, 97])
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 5, 16, 200])
    def test_partition_properties(self, n_rows, n_chunks):
        bounds = packed.row_chunk_bounds(n_rows, n_chunks)
        # Contiguous cover of [0, n_rows), no empty ranges.
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n_rows
        for (lo, hi), (nlo, _unused) in zip(bounds, bounds[1:]):
            assert hi == nlo
        assert all(hi > lo for lo, hi in bounds)
        assert len(bounds) <= min(n_chunks, n_rows)
        # Even: ranges differ by at most one row.
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_pure_function_of_inputs(self):
        assert packed.row_chunk_bounds(97, 5) == packed.row_chunk_bounds(97, 5)


class TestParallelIdentity:
    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_pairwise_counts(self, rng, runner, shape):
        a = _random_words(rng, *shape)
        b = _random_words(rng, 11, shape[1])
        serial = packed.pairwise_counts(a, b)
        parallel_out = parallel.pairwise_counts(
            a, b, runner=runner, min_rows=1
        )
        assert parallel_out.dtype == serial.dtype
        assert np.array_equal(parallel_out, serial)

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_coincidence_any(self, rng, runner, shape):
        a = _random_words(rng, *shape)
        b = _random_words(rng, 7, shape[1])
        serial = packed.coincidence_any(a, b)
        parallel_out = parallel.coincidence_any(
            a, b, runner=runner, min_rows=1
        )
        assert parallel_out.dtype == serial.dtype
        assert np.array_equal(parallel_out, serial)

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_first_coincident_slots(self, rng, runner, shape):
        wires = _random_words(rng, *shape)
        refs = _random_words(rng, 9, shape[1])
        serial = packed.first_coincident_slots(wires, refs)
        parallel_out = parallel.first_coincident_slots(
            wires, refs, runner=runner, min_rows=1
        )
        assert parallel_out.dtype == serial.dtype
        assert np.array_equal(parallel_out, serial)

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_unpack_rows(self, rng, runner, shape):
        words = _random_words(rng, *shape)
        values, ptr = packed.unpack_rows(words)
        p_values, p_ptr = parallel.unpack_rows(words, runner=runner, min_rows=1)
        assert np.array_equal(p_values, values)
        assert np.array_equal(p_ptr, ptr)
        assert p_ptr.dtype == ptr.dtype

    def test_unpack_rows_with_empty_rows(self, runner):
        # Rows with no spikes exercise the CSR re-basing across slices.
        grid = SimulationGrid(n_samples=200, dt=1e-12)
        raster = np.zeros((12, 200), dtype=bool)
        raster[3, 17] = True
        raster[10, [5, 199]] = True
        words = SpikeTrainBatch.from_raster(raster, grid).packed_words()
        values, ptr = packed.unpack_rows(words)
        p_values, p_ptr = parallel.unpack_rows(words, runner=runner, min_rows=1)
        assert np.array_equal(p_values, values)
        assert np.array_equal(p_ptr, ptr)

    def test_batch_overlap_matrix_accepts_runner(self, rng, runner):
        grid = SimulationGrid(n_samples=257, dt=1e-12)
        raster = rng.random((40, 257)) < 0.2
        batch = SpikeTrainBatch.from_raster(raster, grid)
        assert np.array_equal(
            batch.pairwise_overlap_matrix(runner=runner),
            batch.pairwise_overlap_matrix(),
        )


class TestFallbacks:
    def test_no_runner_runs_in_process(self, rng):
        a = _random_words(rng, 20, 129)
        b = _random_words(rng, 5, 129)
        assert np.array_equal(
            parallel.pairwise_counts(a, b, runner=None, min_rows=1),
            packed.pairwise_counts(a, b),
        )

    def test_single_job_runner_runs_in_process(self, rng):
        a = _random_words(rng, 20, 129)
        b = _random_words(rng, 5, 129)
        with Runner(jobs=1) as pool:
            assert np.array_equal(
                parallel.pairwise_counts(a, b, runner=pool, min_rows=1),
                packed.pairwise_counts(a, b),
            )

    def test_small_batches_stay_in_process(self, rng, runner):
        a = _random_words(rng, 20, 129)
        b = _random_words(rng, 5, 129)
        # min_rows above the batch: the pool must not be touched, so a
        # poisoned submit would raise if dispatch were attempted.
        out = parallel.pairwise_counts(a, b, runner=runner, min_rows=64)
        assert np.array_equal(out, packed.pairwise_counts(a, b))

    def test_single_row_never_dispatches(self, rng, runner):
        a = _random_words(rng, 1, 129)
        b = _random_words(rng, 5, 129)
        out = parallel.pairwise_counts(a, b, runner=runner, min_rows=1)
        assert np.array_equal(out, packed.pairwise_counts(a, b))

    def test_default_threshold_exported(self):
        assert parallel.DEFAULT_MIN_ROWS >= 2
