"""Round-trip tests for the by-value basis table.

``dispatch.export_basis`` → ``install_basis`` → ``installed_basis`` is
how the serving basis reaches every pool worker: it must reproduce the
basis bit-for-bit (trains, labels, grid, owner vector) without
re-running the orthogonator or its orthogonality check, and the
installed basis must drive identification identically to the source.
"""

import pickle

import numpy as np
import pytest

from repro.hyperspace.basis import HyperspaceBasis
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.serving import dispatch
from repro.spikes.generators import poisson_train
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid


def _demux_basis(n_samples, n_outputs, seed):
    grid = SimulationGrid(n_samples=n_samples, dt=1e-10)
    rng = np.random.default_rng(seed)
    source = poisson_train(rate_hz=1.0 / (28 * grid.dt), grid=grid, rng=rng)
    output = DemuxOrthogonator.with_outputs(n_outputs).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


@pytest.fixture(scope="module")
def basis():
    return _demux_basis(16384, 8, seed=42)


@pytest.fixture
def install():
    """Install tables into this process's registry; discard them after."""
    tokens = []

    def install_table(table):
        tokens.append(dispatch.install_basis(table))
        return dispatch.installed_basis(tokens[-1])

    yield install_table
    for token in tokens:
        dispatch.discard_basis(token)


class TestBasisTableRoundTrip:
    def test_trains_labels_grid_identical(self, basis, install):
        back = install(dispatch.export_basis(basis))
        assert back.labels == basis.labels
        assert back.grid == basis.grid
        assert back.size == basis.size
        for original, installed in zip(basis.trains, back.trains):
            assert original == installed

    def test_owner_vector_bit_identical(self, basis, install):
        back = install(dispatch.export_basis(basis))
        assert np.array_equal(back.owner_vector, basis.owner_vector)
        assert back.cache_info()["owner_vector_builds"] == 1
        assert not back.owner_vector.flags.writeable

    def test_identification_identical_through_table(self, basis, install):
        back = install(pickle.loads(pickle.dumps(dispatch.export_basis(basis))))
        wires = basis.as_batch()
        original = CoincidenceCorrelator(basis).identify_batch(wires)
        installed = CoincidenceCorrelator(back).identify_batch(wires)
        assert original.elements.tolist() == installed.elements.tolist()
        assert (
            original.decision_slots.tolist()
            == installed.decision_slots.tolist()
        )

    def test_encode_paths_work_on_installed_basis(self, basis, install):
        back = install(dispatch.export_basis(basis))
        assert back.encode_set([0, 2]) == basis.encode_set([0, 2])
        assert back.encode_batch([[1], [0, 3]]) == basis.encode_batch(
            [[1], [0, 3]]
        )

    def test_table_pickles_as_its_arrays(self, basis):
        """The table is the element CSR and a few scalars: its pickle is
        the spike count, not the grid length."""
        table = dispatch.export_basis(basis)
        arrays = table.values.nbytes + table.ptr.nbytes
        payload = len(pickle.dumps(table))
        assert arrays <= payload < arrays + 1024, (payload, arrays)
        assert payload < basis.grid.n_samples
        assert len(table.labels) == basis.size

    def test_export_survives_source_mutation(self, install):
        """The table captures the basis as it was when exported."""
        mutable = _demux_basis(4096, 4, seed=3)
        table = dispatch.export_basis(mutable)
        snapshot = [t.indices.copy() for t in mutable.trains]
        first = mutable.trains[0]
        mutable.replace_element(
            0, SpikeTrain(first.indices[: len(first) // 2], first.grid)
        )  # the source moves on
        assert len(mutable.trains[0]) < len(snapshot[0])
        back = install(table)
        for original, installed in zip(snapshot, back.trains):
            assert np.array_equal(original, installed.indices)
