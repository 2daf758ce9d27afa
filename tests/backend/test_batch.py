"""Tests for repro.backend.batch: the SpikeTrainBatch container."""

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.backend import SpikeTrainBatch
from repro.errors import SpikeTrainError
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

GRID = SimulationGrid(n_samples=128, dt=1e-12)


@pytest.fixture
def trains():
    return [
        SpikeTrain([0, 10, 20], GRID),
        SpikeTrain([5, 15], GRID),
        SpikeTrain.empty(GRID),
        SpikeTrain([127], GRID),
    ]


@pytest.fixture
def batch(trains):
    return SpikeTrainBatch.from_trains(trains)


class TestConstruction:
    def test_roundtrip_from_trains(self, batch, trains):
        assert batch.n_trains == 4
        assert batch.to_trains() == trains

    def test_counts_and_totals(self, batch):
        assert batch.counts().tolist() == [3, 2, 0, 1]
        assert batch.total_spikes == 6
        assert len(batch) == 4

    def test_from_train_adapter(self, trains):
        one = SpikeTrainBatch.from_train(trains[0])
        assert one.n_trains == 1
        assert one.row(0) == trains[0]
        assert trains[0].to_batch() == one

    def test_raster_roundtrip(self, batch):
        rebuilt = SpikeTrainBatch.from_raster(batch.raster, GRID)
        assert rebuilt == batch

    def test_packbits_roundtrip(self, batch):
        packed = batch.packbits()
        assert packed.shape == (4, 16)
        assert SpikeTrainBatch.from_packed(packed, GRID) == batch

    def test_empty_batch(self):
        empty = SpikeTrainBatch.empty(3, GRID)
        assert empty.total_spikes == 0
        assert all(len(t) == 0 for t in empty)

    def test_mixed_grids_rejected(self, trains):
        other = SimulationGrid(n_samples=128, dt=2e-12)
        with pytest.raises(SpikeTrainError):
            SpikeTrainBatch.from_trains([trains[0], SpikeTrain([1], other)])

    def test_no_trains_rejected(self):
        with pytest.raises(SpikeTrainError):
            SpikeTrainBatch.from_trains([])

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(SpikeTrainError):
            SpikeTrainBatch(
                np.array([200]), np.array([0, 1]), GRID
            )

    def test_bad_raster_shape_rejected(self):
        with pytest.raises(SpikeTrainError):
            SpikeTrainBatch.from_raster(np.zeros((2, 64), dtype=bool), GRID)


class TestAccessors:
    def test_row_negative_index(self, batch, trains):
        assert batch.row(-1) == trains[-1]

    def test_row_out_of_range(self, batch):
        with pytest.raises(SpikeTrainError):
            batch.row(4)

    def test_iteration_yields_trains(self, batch, trains):
        assert list(batch) == trains

    def test_select_rows(self, batch, trains):
        sub = batch.select_rows([3, 1])
        assert sub.to_trains() == [trains[3], trains[1]]

    def test_density(self, batch):
        assert batch.density() == pytest.approx(6 / (4 * 128))

    def test_raster_is_readonly(self, batch):
        with pytest.raises((ValueError, RuntimeError)):
            batch.raster[0, 0] = True


class TestSetAlgebra:
    def test_rowwise_ops_match_scalar(self, trains):
        a = SpikeTrainBatch.from_trains(trains)
        shifted = [t.shifted(1) for t in trains]
        b = SpikeTrainBatch.from_trains(shifted)
        for op in ("union", "intersection", "difference", "symmetric_difference"):
            got = getattr(a, op)(b).to_trains()
            want = [getattr(x, op)(y) for x, y in zip(trains, shifted)]
            assert got == want, op

    def test_broadcast_single_row(self, trains, batch):
        probe = SpikeTrainBatch.from_train(SpikeTrain([0, 5, 127], GRID))
        got = batch.intersection(probe).to_trains()
        want = [t & SpikeTrain([0, 5, 127], GRID) for t in trains]
        assert got == want

    def test_incompatible_rows_rejected(self, batch):
        other = SpikeTrainBatch.from_trains(
            [SpikeTrain([1], GRID), SpikeTrain([2], GRID)]
        )
        with pytest.raises(SpikeTrainError):
            batch | other

    def test_mismatched_grid_rejected(self, batch):
        other_grid = SimulationGrid(n_samples=128, dt=2e-12)
        other = SpikeTrainBatch.from_train(SpikeTrain([1], other_grid))
        with pytest.raises(SpikeTrainError):
            batch & other

    def test_any_union(self, batch, trains):
        want = trains[0]
        for t in trains[1:]:
            want = want | t
        assert batch.any_union() == want

    def test_overlap_counts(self, batch):
        counts = batch.overlap_counts(batch)
        assert counts.tolist() == [3, 2, 0, 1]

    def test_pairwise_overlap_matrix(self, batch):
        matrix = batch.pairwise_overlap_matrix()
        assert matrix.shape == (4, 4)
        assert np.array_equal(np.diag(matrix), [3, 2, 0, 1])
        assert matrix[0, 1] == 0

    def test_orthogonality_check(self, trains):
        assert SpikeTrainBatch.from_trains(trains).is_mutually_orthogonal()
        overlapping = SpikeTrainBatch.from_trains(
            [SpikeTrain([1, 2], GRID), SpikeTrain([2, 3], GRID)]
        )
        assert not overlapping.is_mutually_orthogonal()


@given(
    st.lists(
        st.sets(st.integers(0, GRID.n_samples - 1), max_size=40),
        min_size=1,
        max_size=6,
    )
)
def test_csr_any_union_equals_np_unique(rows):
    batch = SpikeTrainBatch.from_trains(
        [SpikeTrain(sorted(row), GRID) for row in rows]
    )
    union = batch.any_union().indices
    want = np.unique(np.array([slot for row in rows for slot in row], np.int64))
    assert union.dtype == want.dtype
    assert np.array_equal(union, want)
    assert not union.flags.writeable
