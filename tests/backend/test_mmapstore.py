"""The memmap residency tier: persist packed words, map them back.

``mmapstore`` is the third way a packed bitset reaches a batch (after
in-process packing and shared-memory attachment): a word-aligned
``.npy`` on disk, adopted zero-copy as a packed-primary view.  The
contract under test: write → map round-trips bit-identically, row
windows slice before any page is touched, geometry checks catch the
wrong file, and the mapping is read-only.
"""

import zlib

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, mmapstore
from repro.backend.packed import n_packed_words
from repro.errors import SpikeTrainError
from repro.spikes.train import SpikeTrain
from repro.units import SimulationGrid

GRID = SimulationGrid(n_samples=1000, dt=1e-12)


@pytest.fixture()
def batch():
    rng = np.random.default_rng(12)
    return SpikeTrainBatch.from_raster(
        rng.random((6, GRID.n_samples)) < 0.05, GRID
    )


class TestWordsRoundTrip:
    def test_write_then_open_is_bit_identical(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        words = mmapstore.open_words(path, GRID.n_samples)
        assert words.dtype == np.uint64
        assert np.array_equal(words, batch.packed_words())

    def test_open_words_is_read_only(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        words = mmapstore.open_words(path)
        with pytest.raises((ValueError, OSError)):
            words[0, 0] = 1

    def test_row_window(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        window = mmapstore.open_words(path, GRID.n_samples, rows=(2, 5))
        assert np.array_equal(window, batch.packed_words()[2:5])

    def test_words_shape_reads_header_only(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        assert mmapstore.words_shape(path) == (
            6, n_packed_words(GRID.n_samples),
        )

    def test_creates_parent_directories(self, tmp_path, batch):
        path = mmapstore.write_words(
            tmp_path / "deep" / "er" / "b.npy", batch.packed_words()
        )
        assert path.exists()

    def test_wrong_word_width_rejected(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        with pytest.raises(SpikeTrainError, match="word"):
            mmapstore.open_words(path, n_samples=GRID.n_samples * 2)

    def test_wrong_dtype_rejected(self, tmp_path):
        bad = tmp_path / "f.npy"
        np.save(bad, np.zeros((3, 4), dtype=np.float64))
        with pytest.raises(SpikeTrainError):
            mmapstore.open_words(bad)
        with pytest.raises(SpikeTrainError):
            mmapstore.words_shape(bad)

    def test_one_dimensional_rejected(self, tmp_path):
        bad = tmp_path / "flat.npy"
        np.save(bad, np.zeros(16, dtype=np.uint64))
        with pytest.raises(SpikeTrainError):
            mmapstore.open_words(bad)


#: Ragged ``(n_rows, n_samples)`` shapes: empty, sub-word, one bit
#: either side of a word boundary, and rows that no chunk size divides.
RAGGED = [(0, 64), (1, 1), (3, 63), (5, 65), (17, 1000), (33, 4001)]


class TestWordsCrc32:
    """The CRC of a words file is ``zlib.crc32`` of its words, read
    through one bounded buffer of any size."""

    @pytest.mark.parametrize("chunk_bytes", [8, 24, 1 << 20])
    @pytest.mark.parametrize("n_rows, n_samples", RAGGED)
    def test_equals_zlib_crc32_of_the_words(
        self, tmp_path, monkeypatch, n_rows, n_samples, chunk_bytes
    ):
        monkeypatch.setattr(mmapstore, "_CRC_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(n_rows * 7919 + n_samples)
        words = SpikeTrainBatch.from_raster(
            rng.random((n_rows, n_samples)) < 0.1,
            SimulationGrid(n_samples=n_samples, dt=1e-12),
        ).packed_words()
        path = mmapstore.write_words(tmp_path / "w.npy", words)
        assert mmapstore.words_crc32(path, n_samples) == zlib.crc32(words)

    def test_reads_without_mapping(self, tmp_path, monkeypatch, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())

        def forbidden(*args, **kwargs):
            raise AssertionError("the checksum pass mapped the file")

        monkeypatch.setattr(np.lib.format, "open_memmap", forbidden)
        monkeypatch.setattr(np, "memmap", forbidden)
        assert mmapstore.words_crc32(path) == zlib.crc32(batch.packed_words())

    def test_truncated_payload_checksums_what_is_there(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        assert mmapstore.words_crc32(path) == zlib.crc32(
            batch.packed_words().tobytes()[:-8]
        )

    def test_wrong_word_width_rejected(self, tmp_path, batch):
        path = mmapstore.write_words(tmp_path / "b.npy", batch.packed_words())
        with pytest.raises(SpikeTrainError, match="word"):
            mmapstore.words_crc32(path, n_samples=GRID.n_samples * 2)

    def test_wrong_dtype_rejected(self, tmp_path):
        bad = tmp_path / "f.npy"
        np.save(bad, np.zeros((3, 4), dtype=np.float64))
        with pytest.raises(SpikeTrainError):
            mmapstore.words_crc32(bad)


class TestBatchAdoption:
    def test_memmap_round_trip_is_packed_primary(self, tmp_path, batch):
        path = batch.to_memmap(tmp_path / "b.npy")
        mapped = SpikeTrainBatch.from_memmap(path, GRID)
        assert mapped.packed_materialised
        assert not mapped.csr_materialised
        assert not mapped.raster_materialised
        assert mapped == batch

    def test_windowed_load(self, tmp_path, batch):
        path = batch.to_memmap(tmp_path / "b.npy")
        window = SpikeTrainBatch.from_memmap(path, GRID, rows=(1, 4))
        assert window.packed_materialised and not window.csr_materialised
        assert window == batch.select_rows([1, 2, 3])

    def test_receivers_never_decode_the_mapping(self, tmp_path, batch):
        path = batch.to_memmap(tmp_path / "b.npy")
        mapped = SpikeTrainBatch.from_memmap(path, GRID)
        assert not mapped.prefers_csr_walk()
        counts = mapped.counts()
        assert not mapped.csr_materialised and not mapped.raster_materialised
        assert np.array_equal(counts, batch.counts())

    def test_grid_mismatch_rejected(self, tmp_path, batch):
        path = batch.to_memmap(tmp_path / "b.npy")
        other = SimulationGrid(n_samples=2 * GRID.n_samples, dt=GRID.dt)
        with pytest.raises(SpikeTrainError):
            SpikeTrainBatch.from_memmap(path, other)

    def test_silent_batch_round_trips(self, tmp_path):
        silent = SpikeTrainBatch.from_trains(
            [SpikeTrain.empty(GRID), SpikeTrain([3, 999], GRID)]
        )
        path = silent.to_memmap(tmp_path / "s.npy")
        assert SpikeTrainBatch.from_memmap(path, GRID) == silent
