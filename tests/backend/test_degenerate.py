"""Degenerate batch shapes: 0 wires, 1-slot grids, all-empty trains.

The representation-invisibility contract has to hold at the edges of
the shape space, not just on production-sized batches: a 0-wire batch
(an empty row selection, an empty corpus window), a 1-slot grid (one
word, 63 tail bits) and batches whose every row is silent must flow
through ``pack_rows``/``unpack_rows``/``select_rows`` and the batched
receivers in every residency, bit-identical across all three, and the
per-train set-algebra backends must agree on them.
"""

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, available_backends, get_backend
from repro.backend.packed import (
    check_tail_clean,
    n_packed_words,
    pack_rows,
    unpack_rows,
)
from repro.hyperspace.basis import HyperspaceBasis
from repro.hyperspace.superposition import decode_superposition_batch
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

from .residency import RESIDENCIES

GRID = SimulationGrid(n_samples=4096, dt=1e-12)
ONE_SLOT = SimulationGrid(n_samples=1, dt=1e-12)


@pytest.fixture(scope="module")
def basis():
    rng = np.random.default_rng(8)
    indices = np.sort(rng.choice(GRID.n_samples, size=256, replace=False))
    source = SpikeTrain(indices, GRID)
    output = DemuxOrthogonator.with_outputs(8).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


class TestZeroWireBatches:
    """N=0 is a legal silent batch on every path."""

    def test_select_no_rows_from_csr(self, basis):
        batch = basis.as_batch()
        empty = batch.select_rows([])
        assert empty.n_trains == 0
        assert empty.total_spikes == 0
        assert empty.counts().shape == (0,)
        values, ptr = empty.csr()
        assert values.size == 0 and ptr.tolist() == [0]
        words = empty.packed_words()
        assert words.shape == (0, n_packed_words(GRID.n_samples))
        assert empty.packbits().shape == (0, (GRID.n_samples + 7) // 8)
        # Selecting from the empty selection stays legal.
        assert empty.select_rows([]).n_trains == 0

    def test_select_no_rows_from_packed_primary(self, basis, tmp_path):
        path = basis.as_batch().to_memmap(tmp_path / "basis.npy")
        mapped = SpikeTrainBatch.from_memmap(path, GRID)
        assert mapped.packed_materialised and not mapped.csr_materialised
        empty = mapped.select_rows([])
        assert empty.n_trains == 0
        assert empty.packed_words().shape == (
            0, n_packed_words(GRID.n_samples),
        )
        # A 0-row window of the mapping is equally legal.
        window = SpikeTrainBatch.from_memmap(path, GRID, rows=(3, 3))
        assert window.n_trains == 0

    def test_pack_unpack_zero_rows(self):
        ptr = np.zeros(1, dtype=np.int64)
        words = pack_rows(np.empty(0, dtype=np.int64), ptr, GRID.n_samples)
        assert words.shape == (0, n_packed_words(GRID.n_samples))
        values, out_ptr = unpack_rows(words)
        assert values.size == 0 and out_ptr.tolist() == [0]

    def test_density_of_zero_rows_is_zero(self, basis):
        n_bytes = (GRID.n_samples + 7) // 8
        packed = SpikeTrainBatch.from_packed(
            np.zeros((0, n_bytes), dtype=np.uint8), GRID
        )
        assert packed.density() == 0.0
        assert basis.as_batch().select_rows([]).density() == 0.0

    def test_receivers_on_zero_wires(self, basis, as_residency):
        correlator = CoincidenceCorrelator(basis)
        empty = as_residency(basis.as_batch().select_rows([]))
        identified = correlator.identify_batch(empty, missing="none")
        members = correlator.detect_members_batch(empty)
        assert decode_superposition_batch(basis, empty) == []
        assert identified.elements.shape == (0,)
        assert identified.decision_slots.shape == (0,)
        assert identified.spikes_inspected.shape == (0,)
        assert members.membership.shape == (0, basis.size)
        assert members.first_slots.shape == (0, basis.size)


class TestOneSlotGrids:
    """n_samples=1: one word, 63 dead tail bits, slots are all 0."""

    def test_set_ops_agree_across_backends(self):
        hot = np.array([0], dtype=np.int64)
        cold = np.empty(0, dtype=np.int64)
        for name in available_backends():
            backend = get_backend(name)
            assert backend.union(hot, cold, 1).tolist() == [0], name
            assert backend.intersection(hot, cold, 1).size == 0, name
            assert backend.difference(hot, cold, 1).tolist() == [0], name
            assert backend.symmetric_difference(hot, hot, 1).size == 0, name

    def test_pack_unpack_round_trip(self):
        # Rows: {0}, {}, {0} on the 1-slot grid.
        values = np.array([0, 0], dtype=np.int64)
        ptr = np.array([0, 1, 1, 2], dtype=np.int64)
        words = pack_rows(values, ptr, 1)
        assert words.shape == (3, 1)
        assert check_tail_clean(words, 1)
        assert words[:, 0].tolist() == [128, 0, 128]  # MSB-first byte 0
        out_values, out_ptr = unpack_rows(words)
        assert np.array_equal(out_values, values)
        assert np.array_equal(out_ptr, ptr)

    def test_batch_round_trip_and_select(self, tmp_path):
        batch = SpikeTrainBatch.from_trains(
            [SpikeTrain([0], ONE_SLOT), SpikeTrain.empty(ONE_SLOT)]
        )
        raster = batch.raster
        assert raster.shape == (2, 1)
        again = SpikeTrainBatch.from_raster(raster, ONE_SLOT)
        assert again == batch
        flipped = batch.select_rows([1, 0])
        assert flipped.counts().tolist() == [0, 1]
        path = batch.to_memmap(tmp_path / "one_slot.npy")
        mapped = SpikeTrainBatch.from_memmap(path, ONE_SLOT)
        assert mapped.packed_materialised and not mapped.csr_materialised
        assert mapped == batch


class TestAllEmptyTrains:
    """Every row silent: packing is all zeros, receivers find nothing."""

    def test_pack_unpack_all_silent(self):
        batch = SpikeTrainBatch.empty(5, GRID)
        words = batch.packed_words()
        assert words.shape == (5, n_packed_words(GRID.n_samples))
        assert not words.any()
        values, ptr = unpack_rows(words)
        assert values.size == 0
        assert ptr.tolist() == [0] * 6

    def test_from_trains_of_empties(self):
        batch = SpikeTrainBatch.from_trains(
            [SpikeTrain.empty(GRID) for _unused in range(3)]
        )
        assert batch == SpikeTrainBatch.empty(3, GRID)
        assert batch.select_rows([2, 0]).total_spikes == 0

    def test_receivers_on_all_silent(self, basis, as_residency):
        correlator = CoincidenceCorrelator(basis)
        silent = as_residency(SpikeTrainBatch.empty(4, GRID))
        identified = correlator.identify_batch(silent, missing="none")
        members = correlator.detect_members_batch(silent)
        assert identified.elements.tolist() == [-1] * 4
        assert identified.decision_slots.tolist() == [-1] * 4
        assert identified.spikes_inspected.tolist() == [0] * 4
        assert not members.membership.any()

    def test_silent_receivers_bit_identical_across_residencies(self, basis):
        correlator = CoincidenceCorrelator(basis)
        silent = SpikeTrainBatch.empty(4, GRID)
        outcomes = {}
        for name, rebuild in RESIDENCIES.items():
            outcome = correlator.detect_members_batch(rebuild(silent))
            outcomes[name] = (outcome.membership, outcome.first_slots)
        reference = outcomes["csr"]
        for name, (membership, first_slots) in outcomes.items():
            assert np.array_equal(membership, reference[0]), name
            assert np.array_equal(first_slots, reference[1]), name
