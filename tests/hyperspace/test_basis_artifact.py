"""Round-trip tests for basis shared-memory artifacts.

``to_artifact``/``from_artifact`` must reproduce the basis bit-for-bit
(trains, labels, owner vector) without re-running the orthogonator, and
the attached basis must drive identification identically to the source.
"""

import pickle

import numpy as np
import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY, SharedArena
from repro.hyperspace.basis import HyperspaceBasis
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.spikes.generators import poisson_train
from repro.units import SimulationGrid

pytestmark = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="no memfd shared memory on this host"
)


@pytest.fixture(scope="module")
def basis():
    grid = SimulationGrid(n_samples=16384, dt=1e-10)
    rng = np.random.default_rng(42)
    source = poisson_train(rate_hz=1.0 / (28 * grid.dt), grid=grid, rng=rng)
    output = DemuxOrthogonator.with_outputs(8).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


class TestBasisArtifactRoundTrip:
    def test_trains_labels_grid_identical(self, basis):
        with SharedArena() as arena:
            back = HyperspaceBasis.from_artifact(basis.to_artifact(arena))
            assert back.labels == basis.labels
            assert back.grid == basis.grid
            assert back.size == basis.size
            for original, attached in zip(basis.trains, back.trains):
                assert original == attached

    def test_owner_vector_bit_identical_and_zero_copy(self, basis):
        with SharedArena() as arena:
            back = HyperspaceBasis.from_artifact(basis.to_artifact(arena))
            assert np.array_equal(back.owner_vector, basis.owner_vector)
            # Attached, not rebuilt: no lazy build happened.
            assert back.cache_info()["owner_vector_builds"] == 0
            assert not back.owner_vector.flags.writeable

    def test_identification_identical_through_artifact(self, basis):
        with SharedArena() as arena:
            back = HyperspaceBasis.from_artifact(basis.to_artifact(arena))
            wires = basis.as_batch()
            original = CoincidenceCorrelator(basis).identify_batch(wires)
            attached = CoincidenceCorrelator(back).identify_batch(wires)
            assert original.elements.tolist() == attached.elements.tolist()
            assert (
                original.decision_slots.tolist()
                == attached.decision_slots.tolist()
            )

    def test_encode_paths_work_on_attached_basis(self, basis):
        with SharedArena() as arena:
            back = HyperspaceBasis.from_artifact(basis.to_artifact(arena))
            assert back.encode_set([0, 2]) == basis.encode_set([0, 2])
            assert back.encode_batch([[1], [0, 3]]) == basis.encode_batch(
                [[1], [0, 3]]
            )

    def test_artifact_is_metadata_only(self, basis):
        with SharedArena() as arena:
            artifact = basis.to_artifact(arena)
            payload = len(pickle.dumps(artifact))
            assert payload < 2048, f"artifact pickled to {payload} bytes"
            assert artifact.size == basis.size

    def test_artifact_snapshot_survives_source_mutation(self, basis):
        """The export captures the basis as of its current version."""
        grid = SimulationGrid(n_samples=4096, dt=1e-10)
        rng = np.random.default_rng(3)
        source = poisson_train(rate_hz=1.0 / (28 * grid.dt), grid=grid, rng=rng)
        output = DemuxOrthogonator.with_outputs(4).transform(source)
        mutable = HyperspaceBasis.from_orthogonator(output)
        with SharedArena() as arena:
            artifact = mutable.to_artifact(arena)
            snapshot = [t.indices.copy() for t in mutable.trains]
            mutable.invalidate_caches()  # source moves on
            back = HyperspaceBasis.from_artifact(artifact)
            for original, attached in zip(snapshot, back.trains):
                assert np.array_equal(original, attached.indices)
