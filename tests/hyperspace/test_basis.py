"""Tests for repro.hyperspace.basis: HyperspaceBasis."""

import numpy as np
import pytest

from repro.errors import HyperspaceError
from repro.hyperspace.basis import HyperspaceBasis
from repro.orthogonator.demux import DemuxOrthogonator
from repro.spikes.generators import poisson_train
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid, paper_white_grid


@pytest.fixture
def grid():
    return SimulationGrid(n_samples=100, dt=1e-12)


@pytest.fixture
def basis(grid):
    return HyperspaceBasis(
        [
            SpikeTrain([0, 10, 20], grid),
            SpikeTrain([1, 11, 21], grid),
            SpikeTrain([2, 12, 22], grid),
        ],
        labels=["X", "Y", "Z"],
    )


class TestConstruction:
    def test_default_labels(self, grid):
        basis = HyperspaceBasis([SpikeTrain([0], grid), SpikeTrain([1], grid)])
        assert basis.labels == ("V1", "V2")

    def test_empty_rejected(self):
        with pytest.raises(HyperspaceError):
            HyperspaceBasis([])

    def test_overlap_rejected(self, grid):
        from repro.errors import OrthogonalityError

        with pytest.raises(OrthogonalityError):
            HyperspaceBasis([SpikeTrain([0, 1], grid), SpikeTrain([1, 2], grid)])

    def test_mixed_grids_rejected(self, grid):
        other = SimulationGrid(n_samples=100, dt=2e-12)
        with pytest.raises(HyperspaceError):
            HyperspaceBasis([SpikeTrain([0], grid), SpikeTrain([1], other)])

    def test_duplicate_labels_rejected(self, grid):
        with pytest.raises(HyperspaceError):
            HyperspaceBasis(
                [SpikeTrain([0], grid), SpikeTrain([1], grid)], labels=["A", "A"]
            )

    def test_label_count_mismatch(self, grid):
        with pytest.raises(HyperspaceError):
            HyperspaceBasis([SpikeTrain([0], grid)], labels=["A", "B"])

    def test_from_orthogonator(self, grid):
        source = SpikeTrain(np.arange(0, 100, 5), grid)
        output = DemuxOrthogonator.with_outputs(4).transform(source)
        basis = HyperspaceBasis.from_orthogonator(output)
        assert basis.size == 4
        assert basis.labels == ("W1", "W2", "W3", "W4")


class TestPoissonDemux:
    """The one demux recipe the serving basis and the experiments share."""

    @pytest.mark.parametrize("n_samples", [4096, 4001, 65536])
    def test_deals_one_source_cyclically(self, n_samples):
        grid = paper_white_grid(n_samples=n_samples)
        basis = HyperspaceBasis.from_poisson_demux(
            5, 16, grid, np.random.default_rng(7)
        )
        source = poisson_train(
            rate_hz=1.0 / (16 * grid.dt),
            grid=grid,
            rng=np.random.default_rng(7),
        )
        assert basis.size == 5
        assert basis.grid == grid
        for element, train in enumerate(basis.trains):
            assert np.array_equal(train.indices, source.indices[element::5])

    def test_leaves_the_generator_where_the_source_ended(self):
        """A caller goes on drawing its workload from the same stream."""
        grid = paper_white_grid(n_samples=4001)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        HyperspaceBasis.from_poisson_demux(8, 28, grid, rng)
        twin.random(grid.n_samples)
        assert rng.integers(1 << 30, size=4).tolist() == (
            twin.integers(1 << 30, size=4).tolist()
        )


class TestAccessors:
    def test_index_resolution(self, basis):
        assert basis.index_of(1) == 1
        assert basis.index_of("Y") == 1
        assert basis.label_of(2) == "Z"

    def test_unknown_label(self, basis):
        with pytest.raises(HyperspaceError):
            basis.index_of("Q")

    def test_index_out_of_range(self, basis):
        with pytest.raises(HyperspaceError):
            basis.index_of(3)

    def test_iteration(self, basis):
        labels = [label for label, _train in basis]
        assert labels == ["X", "Y", "Z"]

    def test_len(self, basis):
        assert len(basis) == 3


class TestEncodingAndClassification:
    def test_encode_returns_reference(self, basis):
        assert basis.encode("Y") == basis.trains[1]

    def test_encode_set_union(self, basis):
        wire = basis.encode_set(["X", "Z"])
        assert wire == basis.trains[0] | basis.trains[2]

    def test_encode_empty_set(self, basis):
        assert len(basis.encode_set([])) == 0

    def test_owner_of_slot(self, basis):
        assert basis.owner_of_slot(11) == 1
        assert basis.owner_of_slot(50) is None

    def test_classify_train(self, basis, grid):
        wire = SpikeTrain([0, 1, 50], grid)
        counts = basis.classify_train(wire)
        assert counts == {0: 1, 1: 1, -1: 1}

    def test_owners_of_out_of_range_slots(self, basis):
        # A wire from a longer record classifies gracefully: slots past
        # the basis grid are unowned, not an IndexError.
        longer = SimulationGrid(n_samples=200, dt=1e-12)
        wire = SpikeTrain([11, 150], longer)
        assert basis.owners_of(wire.indices).tolist() == [1, -1]
        assert basis.classify_train(wire) == {1: 1, -1: 1}

    def test_classify_pure_wire(self, basis):
        counts = basis.classify_train(basis.encode("Z"))
        assert counts == {2: 3}


class TestDiagnostics:
    def test_occupancy(self, basis):
        assert basis.occupancy() == pytest.approx(9 / 100)

    def test_rates(self, basis):
        rates = basis.rates()
        assert set(rates) == {"X", "Y", "Z"}
        assert all(r > 0 for r in rates.values())

    def test_min_spike_count(self, basis):
        assert basis.min_spike_count() == 3

    def test_describe(self, basis):
        assert "M=3" in basis.describe()
