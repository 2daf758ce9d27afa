"""Property tests for the packed-word kernel layer.

The packed kernels' contract is bit-identity with the raster and
sorted-merge implementations on *any* grid length — in particular the
ragged tails, where ``n_samples`` is not a multiple of 8 (partial final
byte) or of 64 (partial final word) and correctness hinges on the
tail-bit masking.  These tests randomize densities over a grid-length
sweep chosen to hit every alignment class, and drive each path by the
residency of its operands.
"""

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, get_backend, packed
from repro.errors import HyperspaceError, IdentificationError, SpikeTrainError
from repro.hyperspace.basis import HyperspaceBasis
from repro.hyperspace.superposition import (
    decode_superposition,
    decode_superposition_batch,
)
from repro.logic.correlator import CoincidenceCorrelator
from repro.orthogonator.demux import DemuxOrthogonator
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

from .residency import RESIDENCIES, packed_primary

#: Grid lengths covering every tail-alignment class: multiples of 64,
#: multiples of 8 only, and arbitrary ragged lengths (including a
#: single-slot grid and sub-byte/sub-word tails).
RAGGED_LENGTHS = [1, 5, 8, 9, 63, 64, 65, 120, 127, 128, 129, 1000, 4097]

DENSITIES = [0.0, 0.03, 0.3, 0.97]


def _random_batch(rng, n_trains, n_samples, density):
    grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
    raster = rng.random((n_trains, n_samples)) < density
    return SpikeTrainBatch.from_raster(raster, grid), raster


def _pack(raster):
    """Word-aligned packed rows of a boolean ``(N, n_samples)`` raster."""
    rows, cols = np.nonzero(raster)
    ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=raster.shape[0]))]
    )
    return packed.pack_rows(cols, ptr, raster.shape[1])


def _first_slots(raster):
    """Earliest set slot of each raster row (-1: empty row)."""
    return np.where(raster.any(axis=1), raster.argmax(axis=1), -1)


@pytest.fixture(params=[0, 1, 2])
def rng(request):
    return np.random.default_rng(request.param)


class TestRaggedPackRoundTrip:
    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_pack_rows_matches_packbits(self, rng, n_samples, density):
        raster = rng.random((4, n_samples)) < density
        rows, cols = np.nonzero(raster)
        ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=4))]
        )
        words = packed.pack_rows(cols, ptr, n_samples)
        assert packed.check_tail_clean(words, n_samples)
        as_bytes = words.view(np.uint8).reshape(4, -1)
        n_bytes = packed.n_packed_bytes(n_samples)
        assert np.array_equal(
            as_bytes[:, :n_bytes], np.packbits(raster, axis=1)
        )
        assert not as_bytes[:, n_bytes:].any()  # zero padding

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_unpack_rows_inverts_pack_rows(self, rng, n_samples, density):
        raster = rng.random((5, n_samples)) < density
        rows, cols = np.nonzero(raster)
        ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=5))]
        )
        values, back_ptr = packed.unpack_rows(
            packed.pack_rows(cols, ptr, n_samples)
        )
        assert np.array_equal(values, cols)
        assert np.array_equal(back_ptr, ptr)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_unpack_coords_matches_nonzero(self, rng, n_samples, density):
        raster = rng.random((5, n_samples)) < density
        exp_rows, exp_cols = np.nonzero(raster)
        ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(exp_rows, minlength=5))]
        )
        rows, slots = packed.unpack_coords(
            packed.pack_rows(exp_cols, ptr, n_samples)
        )
        assert np.array_equal(rows, exp_rows)
        assert np.array_equal(slots, exp_cols)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_scalar_pack_unpack(self, rng, n_samples):
        occupied = rng.random(n_samples) < 0.4
        assert np.array_equal(
            packed.unpack_indices(np.packbits(occupied)),
            np.flatnonzero(occupied),
        )


class TestPopcount:
    """``popcount`` and the row reductions built on it vs brute force."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_matches_python_bit_count(self, rng, dtype):
        values = rng.integers(
            0, np.iinfo(dtype).max, size=(13, 17), dtype=dtype, endpoint=True
        )
        expected = np.array(
            [[bin(int(v)).count("1") for v in row] for row in values]
        )
        got = packed.popcount(values)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)
        assert np.array_equal(packed.popcount(values[:, ::3]), expected[:, ::3])

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_row_and_coincidence_counts(self, rng, n_samples):
        raster_a = rng.random((6, n_samples)) < rng.uniform(0.05, 0.9)
        raster_b = rng.random((6, n_samples)) < rng.uniform(0.05, 0.9)
        a, b = _pack(raster_a), _pack(raster_b)
        assert np.array_equal(packed.row_popcounts(a), raster_a.sum(axis=1))
        assert np.array_equal(
            packed.coincidence_counts(a, b), (raster_a & raster_b).sum(axis=1)
        )
        assert np.array_equal(  # one reference row against every row
            packed.coincidence_counts(a, b[0]),
            (raster_a & raster_b[0]).sum(axis=1),
        )


class TestTailMask:
    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_mask_covers_exactly_the_grid(self, rng, n_samples):
        mask = packed.tail_mask_words(n_samples)
        assert mask.shape == (packed.n_packed_words(n_samples),)
        assert np.array_equal(
            packed.unpack_indices(mask.view(np.uint8)), np.arange(n_samples)
        )
        words = _pack(rng.random((3, n_samples)) < 0.5)
        assert packed.check_tail_clean(words, n_samples)
        assert np.array_equal(words & mask, words)
        beyond = np.arange(n_samples, mask.size * 64)
        if beyond.size:  # a grid that fills its last word has no tail
            slot = int(rng.choice(beyond))
            as_bytes = words.view(np.uint8).reshape(3, -1)
            as_bytes[int(rng.integers(3)), slot >> 3] |= 128 >> (slot & 7)
            assert not packed.check_tail_clean(words, n_samples)
            assert packed.check_tail_clean(words & mask, n_samples)


class TestSlotScans:
    """Slot-ordered scans vs the first set slot of the raster."""

    @staticmethod
    def _sparse_raster(rng, n_rows, n_samples):
        """Rows of very different densities, so first slots land in
        every word; row 0 is empty and row 1 holds only the last slot."""
        density = 10 ** rng.uniform(-4, -0.3, size=(n_rows, 1))
        raster = rng.random((n_rows, n_samples)) < density
        raster[:2] = False
        raster[1, -1] = True
        return raster

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_first_set_slots(self, rng, n_samples):
        raster = self._sparse_raster(rng, 8, n_samples)
        assert np.array_equal(
            packed.first_set_slots(_pack(raster)), _first_slots(raster)
        )

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_first_and_slots(self, rng, n_samples):
        raster_a = self._sparse_raster(rng, 8, n_samples)
        raster_b = rng.random((8, n_samples)) < 0.5
        raster_b[:, -1] = True
        a, b = _pack(raster_a), _pack(raster_b)
        starts = (0, int(rng.integers(1, n_samples + 1)), n_samples)
        for start in starts:
            for chunk_words in (1, 64):
                # one reference row broadcast, then one per row
                for ref, ref_raster in ((b[0], raster_b[0]), (b, raster_b)):
                    both = raster_a & ref_raster
                    both[:, :start] = False
                    got = packed.first_and_slots(
                        a, ref, start=start, chunk_words=chunk_words
                    )
                    assert np.array_equal(got, _first_slots(both)), (
                        start,
                        chunk_words,
                        ref.ndim,
                    )

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_clear_slots_from(self, rng, n_samples):
        raster = rng.random((4, n_samples)) < 0.6
        limits = (-1, 0, int(rng.integers(1, n_samples + 1)), n_samples + 9)
        for limit in limits:
            words = _pack(raster)
            packed.clear_slots_from(words, limit)
            kept = raster.copy()
            kept[:, max(limit, 0) :] = False
            assert np.array_equal(words, _pack(kept)), limit

    def test_le_word_masks(self):
        slots = np.arange(192)
        expected = [
            np.packbits(np.arange(64) <= s % 64).view(np.uint64)[0]
            for s in slots
        ]
        assert np.array_equal(packed.le_word_masks(slots), expected)


class TestPairwiseKernels:
    """Chunked cross-batch kernels vs brute force on ragged grids."""

    @staticmethod
    def _packed_pair(rng, n_samples, n_a=5, n_b=3):
        raster_a = rng.random((n_a, n_samples)) < rng.uniform(0.05, 0.6)
        raster_b = rng.random((n_b, n_samples)) < rng.uniform(0.05, 0.6)
        return raster_a, raster_b, _pack(raster_a), _pack(raster_b)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_pairwise_counts(self, rng, n_samples):
        raster_a, raster_b, a, b = self._packed_pair(rng, n_samples)
        expected = raster_a.astype(np.int64) @ raster_b.astype(np.int64).T
        assert np.array_equal(packed.pairwise_counts(a, b), expected)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_coincidence_any(self, rng, n_samples):
        raster_a, raster_b, a, b = self._packed_pair(rng, n_samples)
        expected = (raster_a.astype(np.int64) @ raster_b.astype(np.int64).T) > 0
        assert np.array_equal(packed.coincidence_any(a, b), expected)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_first_coincident_slots(self, rng, n_samples):
        raster_a, raster_b, a, b = self._packed_pair(rng, n_samples)
        got = packed.first_coincident_slots(a, b)
        for i in range(raster_a.shape[0]):
            for j in range(raster_b.shape[0]):
                both = np.flatnonzero(raster_a[i] & raster_b[j])
                assert got[i, j] == (both[0] if both.size else -1), (i, j)

    def test_chunking_boundaries(self, rng):
        """Many rows force multiple chunks; results must not depend on
        where the chunk boundaries fall."""
        n_samples = 130
        raster_a = rng.random((67, n_samples)) < 0.2
        a = _pack(raster_a)
        expected = raster_a.astype(np.int64) @ raster_a.astype(np.int64).T
        assert np.array_equal(packed.pairwise_counts(a, a), expected)
        assert np.array_equal(packed.coincidence_any(a, a), expected > 0)


class TestRowChunkBounds:
    """The one row-axis split every shard plan uses."""

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


#: (n_rows, n_samples) pairs where neither axis divides evenly: odd row
#: splits over grids with partial tail words.
RAGGED_SHAPES = [(5, 63), (17, 129), (33, 1000), (97, 257)]

#: Slice counts of the row-split identity: even, odd, and more slices
#: than the smallest shape has rows.
N_SLICES = (2, 3, 7)


class TestRowSliceIdentity:
    """A kernel run on contiguous row slices, its results concatenated
    in row order, equals one pass over every row.

    Every row split in the repo (serving shards, corpus chunks, logicnet
    network ranges) runs a kernel on row views taken by
    :func:`packed.row_chunk_bounds` and concatenates what comes back, so
    no kernel may depend on where a slice starts in its buffer.
    """

    @staticmethod
    def _operands(rng, n_rows, n_samples, n_refs):
        raster = rng.random((n_rows, n_samples)) < 0.15
        refs = rng.random((n_refs, n_samples)) < 0.15
        return raster, refs, _pack(raster), _pack(refs)

    @staticmethod
    def _sliced(kernel, words, *rest):
        """Per slice count, the kernel's result on each row slice."""
        for n_slices in N_SLICES:
            bounds = packed.row_chunk_bounds(words.shape[0], n_slices)
            yield [kernel(words[lo:hi], *rest) for lo, hi in bounds]

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_pairwise_counts(self, rng, shape):
        raster, refs, a, b = self._operands(rng, *shape, n_refs=11)
        expected = raster.astype(np.int64) @ refs.astype(np.int64).T
        assert np.array_equal(packed.pairwise_counts(a, b), expected)
        for parts in self._sliced(packed.pairwise_counts, a, b):
            got = np.concatenate(parts)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_coincidence_any(self, rng, shape):
        raster, refs, a, b = self._operands(rng, *shape, n_refs=7)
        expected = (raster.astype(np.int64) @ refs.astype(np.int64).T) > 0
        assert np.array_equal(packed.coincidence_any(a, b), expected)
        for parts in self._sliced(packed.coincidence_any, a, b):
            got = np.concatenate(parts)
            assert got.dtype == bool
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_first_coincident_slots(self, rng, shape):
        raster, refs, wires, table = self._operands(rng, *shape, n_refs=9)
        expected = np.array(
            [[_first_slots(row & ref[None])[0] for ref in refs] for row in raster]
        )
        assert np.array_equal(packed.first_coincident_slots(wires, table), expected)
        for parts in self._sliced(packed.first_coincident_slots, wires, table):
            got = np.concatenate(parts)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_unpack_rows(self, rng, shape):
        raster, _refs, words, _table = self._operands(rng, *shape, n_refs=1)
        values, ptr = packed.unpack_rows(words)
        assert np.array_equal(values, np.nonzero(raster)[1])
        assert np.array_equal(np.diff(ptr), raster.sum(axis=1))
        for parts in self._sliced(packed.unpack_rows, words):
            # Each slice's offsets start at zero; its row counts follow
            # the previous slice's.
            assert all(part_ptr[0] == 0 for _part, part_ptr in parts)
            assert np.array_equal(
                np.concatenate([part for part, _ptr in parts]), values
            )
            counts = np.concatenate([np.diff(part_ptr) for _p, part_ptr in parts])
            assert np.array_equal(np.concatenate([[0], np.cumsum(counts)]), ptr)

    @pytest.mark.parametrize("n_slices", N_SLICES + (12,))
    def test_unpack_rows_with_empty_rows(self, n_slices):
        """Slices of nothing but empty rows decode to no values and
        all-zero offsets, wherever the split falls."""
        raster = np.zeros((12, 200), dtype=bool)
        raster[3, 17] = True
        raster[10, [5, 199]] = True
        words = _pack(raster)
        values, ptr = packed.unpack_rows(words)
        assert values.tolist() == [17, 5, 199]
        slices = packed.row_chunk_bounds(12, n_slices)
        parts = [packed.unpack_rows(words[lo:hi]) for lo, hi in slices]
        assert np.array_equal(np.concatenate([part for part, _ptr in parts]), values)
        for (lo, hi), (part, part_ptr) in zip(slices, parts):
            assert np.array_equal(part_ptr, ptr[lo : hi + 1] - ptr[lo])
            assert part.size == ptr[hi] - ptr[lo]


class TestRaggedScalarBackends:
    """The sorted and raster backends agree on ragged grids."""

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize(
        "op", ["union", "intersection", "difference", "symmetric_difference"]
    )
    def test_backends_bit_identical_on_ragged_grids(self, rng, n_samples, op):
        grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
        density = float(rng.uniform(0.05, 0.9))
        a = SpikeTrain(
            np.flatnonzero(rng.random(n_samples) < density), grid
        )
        b = SpikeTrain(
            np.flatnonzero(rng.random(n_samples) < density), grid
        )
        merged, dense = (
            getattr(get_backend(name), op)(a.indices, b.indices, n_samples)
            for name in ("sorted", "raster")
        )
        assert np.array_equal(dense, merged), op
        assert np.array_equal(getattr(a, op)(b).indices, merged), op


class TestRaggedBatches:
    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_packed_primary_round_trip(self, rng, n_samples, density):
        batch, raster = _random_batch(rng, 6, n_samples, density)
        primary = SpikeTrainBatch.from_packed(batch.packbits(), batch.grid)
        assert not primary.csr_materialised  # stays packed until asked
        assert primary == batch
        assert np.array_equal(primary.raster, raster)
        assert np.array_equal(primary.counts(), batch.counts())
        assert primary.total_spikes == batch.total_spikes

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize(
        "op", ["union", "intersection", "difference", "symmetric_difference"]
    )
    def test_packed_setops_match_raster(self, rng, n_samples, op):
        density = float(rng.uniform(0.05, 0.9))
        a, _ = _random_batch(rng, 5, n_samples, density)
        b, _ = _random_batch(rng, 5, n_samples, density)
        expected = getattr(a, op)(b)  # resident rasters: the raster pass
        assert expected.raster_materialised
        got = getattr(packed_primary(a), op)(packed_primary(b))
        assert not got.csr_materialised  # packed in, packed out
        assert got == expected
        assert got.to_trains() == [
            getattr(x, op)(y) for x, y in zip(a.to_trains(), b.to_trains())
        ]
        assert packed.check_tail_clean(got.packed_words(), n_samples)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_packed_setops_broadcast_single_row(self, rng, n_samples):
        a, _ = _random_batch(rng, 4, n_samples, 0.4)
        probe, _ = _random_batch(rng, 1, n_samples, 0.4)
        got = packed_primary(a).intersection(packed_primary(probe))
        assert not got.raster_materialised
        assert got == a.intersection(probe)  # the raster pass

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    @pytest.mark.parametrize("density", [0.02, 0.5])
    def test_popcount_stats_match_csr(self, rng, n_samples, density):
        batch, raster = _random_batch(rng, 7, n_samples, density)
        primary = SpikeTrainBatch.from_packed(batch.packbits(), batch.grid)
        other, _ = _random_batch(rng, 7, n_samples, density)
        assert np.array_equal(
            primary.overlap_counts(other), batch.overlap_counts(other)
        )
        assert np.array_equal(
            primary.pairwise_overlap_matrix(),
            raster.astype(np.int64) @ raster.astype(np.int64).T,
        )
        assert primary.any_union() == batch.any_union()
        assert (
            primary.is_mutually_orthogonal()
            == batch.is_mutually_orthogonal()
        )

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_select_rows_stays_packed(self, rng, n_samples):
        batch, _ = _random_batch(rng, 6, n_samples, 0.3)
        primary = SpikeTrainBatch.from_packed(batch.packbits(), batch.grid)
        rows = [4, 0, 2]
        sub = primary.select_rows(rows)
        assert not sub.csr_materialised
        assert sub == batch.select_rows(rows)

    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_row_slice_of_a_frame(self, rng, n_samples):
        """A batch over a row slice of a packbits frame, as an in-process
        serving shard builds it, holds the slice's rows; on a
        word-aligned grid it views the frame instead of copying it."""
        batch, _ = _random_batch(rng, 9, n_samples, 0.3)
        frame = np.ascontiguousarray(batch.packbits())
        for lo, hi in packed.row_chunk_bounds(9, 4):
            shard = SpikeTrainBatch.from_packed(frame[lo:hi], batch.grid)
            assert not shard.csr_materialised
            assert shard == batch.select_rows(np.arange(lo, hi))
            assert np.shares_memory(shard.packed_words(), frame) == (
                n_samples % 64 == 0
            )
            assert packed.check_tail_clean(shard.packed_words(), n_samples)

    def test_from_packed_masks_tail_bits(self):
        """Compatibility: tail garbage in the final byte is dropped, as
        ``np.unpackbits(..., count=n)`` did for the old decoder."""
        grid = SimulationGrid(n_samples=12, dt=1e-12)
        dirty = np.array([[0xFF, 0xFF]], dtype=np.uint8)
        batch = SpikeTrainBatch.from_packed(dirty, grid)
        assert batch.total_spikes == 12
        assert batch.row(0).indices.tolist() == list(range(12))

    def test_adopting_dirty_words_rejected(self):
        grid = SimulationGrid(n_samples=12, dt=1e-12)
        dirty = np.full((1, 1), 0xFFFF, dtype=np.uint64)
        with pytest.raises(SpikeTrainError, match="beyond the grid"):
            SpikeTrainBatch._from_packed_words(dirty, grid)


@pytest.fixture
def ragged_basis(rng):
    grid = SimulationGrid(n_samples=4097, dt=1e-12)
    indices = rng.choice(grid.n_samples, size=800, replace=False)
    source = SpikeTrain(indices, grid)
    output = DemuxOrthogonator.with_outputs(6).transform(source)
    return HyperspaceBasis.from_orthogonator(output)


class TestRaggedReceivers:
    """Batched receivers in every residency vs the scalar ones, ragged grid."""

    def _wires(self, rng, basis, n_wires):
        wires = []
        for _unused in range(n_wires):
            members = rng.choice(
                basis.size,
                size=int(rng.integers(0, basis.size + 1)),
                replace=False,
            )
            wire = basis.encode_set(members.tolist())
            if rng.random() < 0.5:
                extra = rng.choice(basis.grid.n_samples, size=12, replace=False)
                wire = wire | SpikeTrain(extra, basis.grid)
            wires.append(wire)
        return wires

    def test_identify_packed_matches_csr(self, rng, ragged_basis):
        correlator = CoincidenceCorrelator(ragged_basis)
        wires = [
            ragged_basis.encode(int(rng.integers(ragged_basis.size)))
            for _unused in range(12)
        ]
        batch = SpikeTrainBatch.from_trains(wires)
        start = int(rng.integers(0, ragged_basis.grid.n_samples))
        expected = []
        for wire in wires:
            try:
                expected.append(correlator.identify(wire, start_slot=start))
            except IdentificationError:
                expected.append(None)
        for rebuild in RESIDENCIES.values():
            got = correlator.identify_batch(
                rebuild(batch), start_slot=start, missing="none"
            )
            assert got.results() == expected

    def test_identify_packed_primary_input(self, rng, ragged_basis):
        correlator = CoincidenceCorrelator(ragged_basis)
        wires = [
            ragged_basis.encode(int(rng.integers(ragged_basis.size)))
            for _unused in range(8)
        ]
        batch = SpikeTrainBatch.from_trains(wires)
        primary = SpikeTrainBatch.from_packed(batch.packbits(), batch.grid)
        got = correlator.identify_batch(primary)  # auto-routes packed
        assert not primary.csr_materialised
        assert got.results() == correlator.identify_batch(batch).results()

    def test_detect_members_packed_matches_csr(self, rng, ragged_basis):
        correlator = CoincidenceCorrelator(ragged_basis)
        wires = self._wires(rng, ragged_basis, 10)
        batch = SpikeTrainBatch.from_trains(wires)
        limit = int(rng.integers(1, ragged_basis.grid.n_samples + 1))
        expected = [
            correlator.detect_members(wire, until_slot=limit) for wire in wires
        ]
        for rebuild in RESIDENCIES.values():
            got = correlator.detect_members_batch(
                rebuild(batch), until_slot=limit
            )
            assert got.as_dicts() == expected

    def test_decode_packed_matches_csr(self, rng, ragged_basis):
        selections = [
            rng.choice(
                ragged_basis.size, size=int(rng.integers(0, 5)), replace=False
            ).tolist()
            for _unused in range(9)
        ]
        batch = ragged_basis.encode_batch(selections)
        assert not batch.csr_materialised  # packed-primary encode
        decoded = decode_superposition_batch(ragged_basis, batch)
        assert [sorted(v.members) for v in decoded] == [
            sorted(int(k) for k in keys) for keys in selections
        ]
        assert decoded == [
            decode_superposition(ragged_basis, wire) for wire in batch
        ]

    def test_decode_packed_strict_rejects_foreign(self, rng, ragged_basis):
        foreign = ragged_basis.grid.n_samples - 1
        while ragged_basis.owner_of_slot(foreign) is not None:
            foreign -= 1
        wire = ragged_basis.encode(0) | SpikeTrain([foreign], ragged_basis.grid)
        batch = SpikeTrainBatch.from_trains([ragged_basis.encode(1), wire])
        primary = SpikeTrainBatch.from_packed(batch.packbits(), batch.grid)
        with pytest.raises(HyperspaceError, match=r"wire\(s\) \[1\]"):
            decode_superposition_batch(ragged_basis, primary, strict=True)
        decoded = decode_superposition_batch(ragged_basis, primary, strict=False)
        assert decoded[1].members == frozenset([0])
