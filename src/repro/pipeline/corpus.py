"""The corpus store: an indexed on-disk library of packed spike rows.

Sibling to :class:`~repro.pipeline.store.ArtifactStore`, but for *data*
instead of run records.  A corpus is a directory::

    <root>/manifest.json           # geometry + row-range index
    <root>/segments/seg-00000.npy  # packed words, rows [0, r0)
    <root>/segments/seg-00001.npy  # packed words, rows [r0, r1)
    ...

Each segment is a word-aligned packed bitset written through
:mod:`repro.backend.mmapstore` — the same ``(rows, ceil(n_samples/64))``
``uint64`` form the kernels compute on, so serving a corpus never
transforms anything: :meth:`CorpusStore.open_rows` maps the covering
segments read-only and hands back packed-primary
:class:`~repro.backend.batch.SpikeTrainBatch` views whose pages fault
in only as kernels touch them.

The manifest carries the grid geometry (``n_samples``/``dt``) and a
row-range index (``row_start``/``row_stop`` per segment), so

* any row window resolves to its covering segments with a bisect —
  no segment is opened, let alone read, outside the window;
* a corpus built on one grid cannot silently serve a basis on another
  (:meth:`CorpusStore.grid` is checked at server startup);
* ``repro corpus info`` answers from the manifest + ``.npy`` headers
  alone, without faulting in a single payload page.

Ingestion is **append-only and streaming**: :meth:`CorpusStore.writer`
yields a writer whose every :meth:`~CorpusWriter.append` persists one
batch as one new segment and re-publishes the manifest — the
working-set of a build is one chunk, never the corpus, and a reopened
store keeps appending after the existing rows.  Segments are immutable
once written; there is no rewrite path by design.
"""

from __future__ import annotations

import bisect
import json
import pathlib
import zlib
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from ..backend import mmapstore
from ..backend import packed as packed_kernels
from ..backend.batch import SpikeTrainBatch
from ..errors import PipelineError
from ..testing import faults
from ..units import SimulationGrid

__all__ = ["CorpusStore", "CorpusWriter", "CORPUS_SCHEMA_VERSION"]

#: Bumped whenever the corpus layout changes incompatibly.
CORPUS_SCHEMA_VERSION = 1

_SEGMENT_DIR = "segments"


class CorpusStore:
    """Reads and appends to one corpus directory.

    Construct over an existing corpus (``CorpusStore(root)``) to query
    it, or create an empty one with :meth:`create` and fill it through
    :meth:`writer`.

    Every segment carries a CRC32 of its packed words in the manifest
    (written at append time).  With ``verify=True`` (the default) a
    segment's checksum is recomputed the first time a read window
    touches it — once per store instance, cached after that — so bit
    rot or a torn write surfaces as a clear
    :class:`~repro.errors.PipelineError` naming the corrupt segment
    instead of silently wrong results.  Segments written before
    checksums existed (no ``crc32`` manifest key) are served without
    verification.
    """

    def __init__(
        self, root: Union[str, pathlib.Path], *, verify: bool = True
    ) -> None:
        self.root = pathlib.Path(root)
        manifest = self.manifest_path()
        if not manifest.exists():
            raise PipelineError(
                f"no corpus under {self.root} (missing {manifest.name}); "
                f"build one with CorpusStore.create / `repro corpus build`"
            )
        self._manifest = self._load_manifest()
        self._verify_reads = bool(verify)
        self._verified: Set[str] = set()

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, root: Union[str, pathlib.Path], grid: SimulationGrid
    ) -> "CorpusStore":
        """Initialise an empty corpus for ``grid`` at ``root``.

        Refuses to overwrite an existing manifest — corpora are
        append-only; a rebuild is a new directory.
        """
        root = pathlib.Path(root)
        manifest = root / "manifest.json"
        if manifest.exists():
            raise PipelineError(
                f"corpus already exists at {root}; corpora are append-only "
                f"(open it with CorpusStore(root) to keep appending)"
            )
        root.mkdir(parents=True, exist_ok=True)
        (root / _SEGMENT_DIR).mkdir(exist_ok=True)
        payload = {
            "schema": CORPUS_SCHEMA_VERSION,
            "kind": "corpus",
            "n_samples": int(grid.n_samples),
            "dt": float(grid.dt),
            "n_words": packed_kernels.n_packed_words(grid.n_samples),
            "n_rows": 0,
            "n_spikes": 0,
            "segments": [],
        }
        cls._publish(manifest, payload)
        return cls(root)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def manifest_path(self) -> pathlib.Path:
        """Where the corpus manifest lives."""
        return self.root / "manifest.json"

    def _load_manifest(self) -> Dict[str, Any]:
        try:
            manifest = json.loads(self.manifest_path().read_text())
        except (OSError, ValueError) as exc:
            raise PipelineError(
                f"unreadable corpus manifest under {self.root}: {exc}"
            ) from exc
        if manifest.get("kind") != "corpus":
            raise PipelineError(
                f"{self.manifest_path()} is not a corpus manifest"
            )
        if manifest.get("schema") != CORPUS_SCHEMA_VERSION:
            raise PipelineError(
                f"corpus schema {manifest.get('schema')!r} unsupported "
                f"(this build reads schema {CORPUS_SCHEMA_VERSION})"
            )
        return manifest

    @staticmethod
    def _publish(path: pathlib.Path, payload: Dict[str, Any]) -> None:
        # Write-then-rename so a crashed append never leaves a reader
        # with a torn manifest: the index either names the new segment
        # completely or not at all (the orphan file is harmless).
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def grid(self) -> SimulationGrid:
        """The simulation grid every corpus row lives on."""
        return SimulationGrid(
            n_samples=int(self._manifest["n_samples"]),
            dt=float(self._manifest["dt"]),
        )

    @property
    def n_rows(self) -> int:
        """Total rows across all segments."""
        return int(self._manifest["n_rows"])

    @property
    def n_segments(self) -> int:
        """Number of immutable segment files."""
        return len(self._manifest["segments"])

    def info(self) -> Dict[str, Any]:
        """A JSON-ready summary (what ``repro corpus info`` prints).

        Answers from the manifest plus segment file sizes — no payload
        pages are touched.
        """
        segments = self._manifest["segments"]
        disk_bytes = 0
        for entry in segments:
            path = self.root / entry["file"]
            if not path.exists():
                raise PipelineError(f"corpus segment missing: {path}")
            disk_bytes += path.stat().st_size
        return {
            "root": str(self.root),
            "schema": self._manifest["schema"],
            "n_rows": self.n_rows,
            "n_segments": len(segments),
            "n_samples": int(self._manifest["n_samples"]),
            "dt": float(self._manifest["dt"]),
            "n_words": int(self._manifest["n_words"]),
            "n_spikes": int(self._manifest["n_spikes"]),
            "disk_bytes": disk_bytes,
            "segments": [dict(entry) for entry in segments],
        }

    # ------------------------------------------------------------------
    # Reading (mapped, windowed)
    # ------------------------------------------------------------------

    def open_rows(self, start: int, stop: int) -> SpikeTrainBatch:
        """Rows ``[start, stop)`` as a packed-primary mapped batch.

        A window inside one segment comes back as a *zero-copy* view of
        that segment's mapping — no payload bytes move at open time.  A
        window straddling segment boundaries concatenates the covering
        mapped slices (one copy, bounded by the window size — never by
        the corpus).  Either way peak memory is O(window).
        """
        start, stop = int(start), int(stop)
        if not (0 <= start <= stop <= self.n_rows):
            raise PipelineError(
                f"row range [{start}, {stop}) outside corpus of "
                f"{self.n_rows} rows"
            )
        grid = self.grid()
        if start == stop:
            return SpikeTrainBatch._from_packed_words(
                np.empty(
                    (0, packed_kernels.n_packed_words(grid.n_samples)),
                    dtype=np.uint64,
                ),
                grid,
                validate=False,
            )
        covering = self._covering(start, stop)
        fault = faults.maybe_fire("corpus.open_rows")
        if fault is not None and fault.action == "corrupt" and covering:
            self._corrupt_segment(covering[0][0], fault.param_int)
        if self._verify_reads:
            for entry, _lo, _hi in covering:
                self._verify_segment(entry)
        pieces = [
            mmapstore.open_words(
                self.root / entry["file"],
                grid.n_samples,
                rows=(lo - entry["row_start"], hi - entry["row_start"]),
            )
            for entry, lo, hi in covering
        ]
        words = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        # Tail cleanliness was enforced when the segment was written;
        # validating here would fault in one word per row needlessly.
        return SpikeTrainBatch._from_packed_words(words, grid, validate=False)

    def iter_chunks(
        self, chunk_rows: int
    ) -> Iterator[Tuple[int, int, SpikeTrainBatch]]:
        """Yield ``(lo, hi, batch)`` windows of at most ``chunk_rows``.

        The out-of-core scan: each yielded batch maps only its own
        window, so a full pass over the corpus peaks at one chunk of
        resident pages (plus whatever the page cache keeps warm).
        """
        if chunk_rows < 1:
            raise PipelineError(f"chunk_rows must be >= 1, got {chunk_rows}")
        for lo in range(0, self.n_rows, chunk_rows):
            hi = min(lo + chunk_rows, self.n_rows)
            yield lo, hi, self.open_rows(lo, hi)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def _segment_crc(self, entry: Dict[str, Any]) -> int:
        """CRC32 of one segment's packed words.

        Read through one bounded buffer, so the checksum pass holds one
        buffer's worth of the segment at a time, matching the store's
        O(window) rule.
        """
        return mmapstore.words_crc32(
            self.root / entry["file"], int(self._manifest["n_samples"])
        )

    def _verify_segment(self, entry: Dict[str, Any]) -> None:
        """Check one segment against its manifest CRC32 (cached per store)."""
        if "crc32" not in entry or entry["file"] in self._verified:
            return
        crc = self._segment_crc(entry)
        if crc != int(entry["crc32"]):
            raise PipelineError(
                f"corpus segment corrupt: {self.root / entry['file']} "
                f"(crc32 mismatch: manifest {int(entry['crc32']):#010x}, "
                f"file {crc:#010x}); the segment's bytes changed since it "
                f"was written — restore it from a backup or rebuild the "
                f"corpus"
            )
        self._verified.add(entry["file"])

    def verify(self) -> Dict[str, int]:
        """Checksum every segment now (``repro corpus info --verify``).

        Raises the same corrupt-segment :class:`~repro.errors.
        PipelineError` as a read would; returns how many segments were
        checked and how many predate checksums.
        """
        checked = unchecksummed = 0
        for entry in self._manifest["segments"]:
            if "crc32" in entry:
                self._verify_segment(entry)
                checked += 1
            else:
                unchecksummed += 1
        return {
            "segments_checked": checked,
            "segments_unchecksummed": unchecksummed,
        }

    def _corrupt_segment(self, entry: Dict[str, Any], offset: int) -> None:
        """Chaos-test hook: flip one payload byte of a segment on disk.

        Only reachable through an armed ``corpus.open_rows=corrupt``
        fault; ``offset`` counts back from the end of the file (0 = the
        last byte), which is always payload, never the ``.npy`` header.
        """
        path = self.root / entry["file"]
        with open(path, "r+b") as handle:
            handle.seek(-(1 + max(0, offset)), 2)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        self._verified.discard(entry["file"])

    def _covering(
        self, start: int, stop: int
    ) -> List[Tuple[Dict[str, Any], int, int]]:
        """The segments overlapping ``[start, stop)`` with clipped bounds."""
        segments = self._manifest["segments"]
        starts = [entry["row_start"] for entry in segments]
        first = bisect.bisect_right(starts, start) - 1
        covering = []
        for entry in segments[max(first, 0):]:
            if entry["row_start"] >= stop:
                break
            lo = max(start, int(entry["row_start"]))
            hi = min(stop, int(entry["row_stop"]))
            if lo < hi:
                covering.append((entry, lo, hi))
        return covering

    # ------------------------------------------------------------------
    # Writing (append-only, streaming)
    # ------------------------------------------------------------------

    def writer(self) -> "CorpusWriter":
        """An appending writer over this store (use as a context manager)."""
        return CorpusWriter(self)


class CorpusWriter:
    """Streams batches into a corpus, one immutable segment per append.

    Each :meth:`append` persists the batch's packed words as the next
    ``segments/seg-NNNNN.npy`` and atomically re-publishes the manifest
    with the new row range — so ingestion is resumable (a crash loses
    at most the segment being written) and its working set is one
    batch.  Reopening the store and writing again continues after the
    existing rows.
    """

    def __init__(self, store: CorpusStore) -> None:
        self._store = store
        self._grid = store.grid()

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    @property
    def n_rows(self) -> int:
        """Rows persisted so far (including pre-existing segments)."""
        return self._store.n_rows

    def append(self, batch: SpikeTrainBatch) -> Tuple[int, int]:
        """Persist ``batch`` as the next segment; returns its row range."""
        if batch.grid != self._grid:
            raise PipelineError(
                f"batch grid {batch.grid.describe()} does not match corpus "
                f"grid {self._grid.describe()}"
            )
        if batch.n_trains < 1:
            raise PipelineError("refusing to append an empty segment")
        manifest = self._store._manifest
        index = len(manifest["segments"])
        rel = f"{_SEGMENT_DIR}/seg-{index:05d}.npy"
        words = np.ascontiguousarray(batch.packed_words())
        mmapstore.write_words(self._store.root / rel, words)
        row_start = int(manifest["n_rows"])
        row_stop = row_start + batch.n_trains
        n_spikes = int(batch.total_spikes)
        manifest["segments"].append(
            {
                "file": rel,
                "row_start": row_start,
                "row_stop": row_stop,
                "n_spikes": n_spikes,
                # Checksum of exactly the words written: a reader
                # recomputing this over the mapped file proves the
                # payload survived the disk round trip bit-for-bit.
                "crc32": zlib.crc32(words) & 0xFFFFFFFF,
            }
        )
        manifest["n_rows"] = row_stop
        manifest["n_spikes"] = int(manifest["n_spikes"]) + n_spikes
        CorpusStore._publish(self._store.manifest_path(), manifest)
        return row_start, row_stop
