"""CorpusStore: append-only packed segments behind a row-range manifest.

The out-of-core contract: whatever was appended comes back —
``open_rows`` over any window is bit-identical to the batches that
went in, single-segment windows are zero-copy views of the mapping,
``iter_chunks`` covers the corpus exactly once, and the manifest is
published atomically so a reader never sees a half-written library.
"""

import json
import zlib

import numpy as np
import pytest

from repro.backend import SpikeTrainBatch, mmapstore
from repro.errors import PipelineError, SpikeTrainError
from repro.pipeline.corpus import CORPUS_SCHEMA_VERSION, CorpusStore
from repro.units import SimulationGrid, paper_white_grid

GRID = SimulationGrid(n_samples=2048, dt=1e-12)


def random_batch(seed, n_rows, grid=GRID, density=0.03):
    rng = np.random.default_rng(seed)
    return SpikeTrainBatch.from_raster(
        rng.random((n_rows, grid.n_samples)) < density, grid, copy=False
    )


@pytest.fixture()
def store(tmp_path):
    store = CorpusStore.create(tmp_path / "corpus", GRID)
    with store.writer() as writer:
        for seed, n_rows in enumerate((10, 3, 7)):
            writer.append(random_batch(seed, n_rows))
    return store


class TestCreateAndReopen:
    def test_create_then_reopen(self, store):
        again = CorpusStore(store.root)
        assert again.n_rows == 20
        assert again.n_segments == 3
        assert again.grid() == GRID

    def test_create_refuses_existing(self, store):
        with pytest.raises(PipelineError, match="already"):
            CorpusStore.create(store.root, GRID)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(PipelineError, match="manifest"):
            CorpusStore(tmp_path / "nowhere")

    def test_info_reports_layout(self, store):
        info = store.info()
        assert info["schema"] == CORPUS_SCHEMA_VERSION
        assert info["n_rows"] == 20
        assert info["n_segments"] == 3
        assert info["n_samples"] == GRID.n_samples
        assert info["disk_bytes"] > 0
        assert [s["row_start"] for s in info["segments"]] == [0, 10, 13]
        assert [s["row_stop"] for s in info["segments"]] == [10, 13, 20]

    def test_dt_round_trips_exactly(self, tmp_path):
        grid = paper_white_grid()
        store = CorpusStore.create(tmp_path / "c", grid)
        assert CorpusStore(store.root).grid() == grid


class TestOpenRows:
    def test_full_window_bit_identical(self, store):
        expected = np.concatenate(
            [random_batch(s, n).packed_words()
             for s, n in enumerate((10, 3, 7))]
        )
        batch = store.open_rows(0, 20)
        assert batch.packed_materialised and not batch.csr_materialised
        assert np.array_equal(batch.packed_words(), expected)

    def test_window_inside_one_segment_is_zero_copy(self, store):
        window = store.open_rows(2, 8)
        assert window.n_trains == 6
        words = window.packed_words()
        assert isinstance(words.base, np.memmap) or isinstance(
            getattr(words.base, "base", None), np.memmap
        )
        assert np.array_equal(
            words, random_batch(0, 10).packed_words()[2:8]
        )

    def test_window_spanning_segments(self, store):
        window = store.open_rows(8, 15)
        expected = np.concatenate(
            [
                random_batch(0, 10).packed_words()[8:],
                random_batch(1, 3).packed_words(),
                random_batch(2, 7).packed_words()[:2],
            ]
        )
        assert np.array_equal(window.packed_words(), expected)

    def test_empty_window(self, store):
        assert store.open_rows(5, 5).n_trains == 0

    def test_out_of_range_rejected(self, store):
        with pytest.raises(PipelineError):
            store.open_rows(0, 21)
        with pytest.raises(PipelineError):
            store.open_rows(-1, 5)

    def test_iter_chunks_covers_exactly_once(self, store):
        seen = []
        for lo, hi, batch in store.iter_chunks(6):
            assert batch.n_trains == hi - lo
            assert batch.n_trains <= 6
            seen.append((lo, hi))
        assert seen == [(0, 6), (6, 12), (12, 18), (18, 20)]


class TestWriter:
    def test_append_reflects_immediately(self, tmp_path):
        store = CorpusStore.create(tmp_path / "c", GRID)
        with store.writer() as writer:
            row_start, row_stop = writer.append(random_batch(5, 4))
            assert (row_start, row_stop) == (0, 4)
            # A concurrent reader sees every published append.
            assert CorpusStore(store.root).n_rows == 4

    def test_append_rejects_grid_mismatch(self, tmp_path):
        store = CorpusStore.create(tmp_path / "c", GRID)
        other = SimulationGrid(n_samples=4096, dt=1e-12)
        with store.writer() as writer:
            with pytest.raises((PipelineError, SpikeTrainError)):
                writer.append(random_batch(0, 2, grid=other))

    def test_append_rejects_empty_batch(self, tmp_path):
        store = CorpusStore.create(tmp_path / "c", GRID)
        empty = random_batch(0, 3).select_rows([])
        with store.writer() as writer:
            with pytest.raises(PipelineError):
                writer.append(empty)

    def test_no_tmp_manifest_left_behind(self, store):
        leftovers = [
            p for p in store.root.iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_manifest_is_valid_json_with_schema(self, store):
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert manifest["schema"] == CORPUS_SCHEMA_VERSION
        assert manifest["kind"] == "corpus"
        assert manifest["n_rows"] == 20


class TestSegmentChecksums:
    """A segment's CRC, recomputed through one bounded read buffer,
    equals the manifest's: ``zlib.crc32`` of the words written."""

    @pytest.mark.parametrize("n_samples", [1, 63, 65, 1000, 4001])
    def test_ragged_segments_verify_clean(
        self, tmp_path, monkeypatch, n_samples
    ):
        monkeypatch.setattr(mmapstore, "_CRC_CHUNK_BYTES", 24)
        grid = SimulationGrid(n_samples=n_samples, dt=1e-12)
        batches = [
            random_batch(seed, n_rows, grid, density=0.1)
            for seed, n_rows in enumerate((1, 5, 9))
        ]
        store = CorpusStore.create(tmp_path / "corpus", grid)
        with store.writer() as writer:
            for batch in batches:
                writer.append(batch)
        store = CorpusStore(tmp_path / "corpus")
        assert store.verify() == {
            "segments_checked": 3,
            "segments_unchecksummed": 0,
        }
        for entry, batch in zip(store.info()["segments"], batches):
            crc = zlib.crc32(batch.packed_words())
            assert store._segment_crc(entry) == entry["crc32"] == crc

    def test_truncated_segment_is_reported_corrupt(self, store):
        entry = store.info()["segments"][1]
        path = store.root / entry["file"]
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(PipelineError, match="crc32 mismatch"):
            CorpusStore(store.root).open_rows(10, 12)
        with pytest.raises(PipelineError, match=entry["file"]):
            CorpusStore(store.root, verify=False).verify()
