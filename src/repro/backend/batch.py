"""Batched spike trains: N trains × T slots on one grid.

:class:`SpikeTrainBatch` lifts a stack of :class:`~repro.spikes.train.SpikeTrain`
objects into one array object so whole-record operations (set algebra,
identification, membership readout) run as single vectorised passes
instead of Python-side per-train loops — the same move syncopy's
``DiscreteData`` makes by storing many spike channels in one sample
matrix.

Three representations are kept, each materialised lazily and cached:

* **CSR** — one concatenated sorted ``int64`` slot array plus row
  offsets.  Total size is the spike count, independent of the grid
  length; the identification paths walk it with O(total spikes) work.
* **packed words** — the ``np.packbits`` bitset viewed as
  ``(N, ceil(n_samples / 64))`` ``uint64``, eight slots per byte with a
  zero tail.  This is the *compute-primary* dense form: row-wise set
  algebra, popcount statistics and coincidence scoring run directly on
  it through :mod:`~repro.backend.packed` at 1/8 the raster's memory
  traffic, and it is all :meth:`to_shared` ships — attached shard
  workers compute straight on the mapped words without ever unpacking.
  It is also the serving front-end's wire payload
  (:mod:`repro.serving.protocol`): an RPC request arrives as this
  bitset and flows through :meth:`from_packed`, :meth:`to_shared` and
  the packed receivers without leaving it.
* **raster** — a dense ``(N, n_samples)`` boolean occupancy matrix,
  kept for consumers that genuinely want per-slot booleans and for
  batches born dense (:meth:`from_raster`).

A batch may be *packed-primary*: built from a bitset
(:meth:`from_packed`, :meth:`from_shared`, packed set-op results), it
holds only the words and decodes its CSR on first demand — only the
occupied bytes, never the whole grid.
Operations run on what is resident: set algebra takes the raster pass
when an operand's raster is resident and the packed words otherwise,
and the batched receivers ask :meth:`prefers_csr_walk`.

Adapters keep the scalar API alive: :meth:`from_train` wraps one train
as a one-row batch, :meth:`row` / :meth:`to_trains` go back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SpikeTrainError
from ..spikes.train import SpikeTrain
from ..units import SimulationGrid
from . import mmapstore
from . import packed as packed_kernels
from .core import RASTER_DENSITY_THRESHOLD
from .shared import SharedArena, SharedArraySpec, attach_array

__all__ = ["SpikeTrainBatch", "SharedBatchHandle"]


@dataclass(frozen=True)
class SharedBatchHandle:
    """Metadata-only handle to a batch placed in shared memory.

    Pickles as a few hundred bytes regardless of batch size: the
    payload is the word-aligned packed bitset (8× smaller than the
    dense raster) in one shared-memory segment, described by its
    :class:`~repro.backend.shared.SharedArraySpec`.
    ``n_samples``/``dt`` rebuild the grid on the attaching side, which
    gets a *packed-primary* batch whose words are a view of the mapped
    segment, so shard workers compute on the shared bitset directly
    (no unpack, no copy).
    """

    packed: SharedArraySpec
    n_samples: int
    dt: float

    @property
    def n_trains(self) -> int:
        """Number of rows in the shared batch."""
        return int(self.packed.shape[0])

    def grid(self) -> SimulationGrid:
        """The grid the shared batch lives on."""
        return SimulationGrid(n_samples=self.n_samples, dt=self.dt)


class SpikeTrainBatch:
    """An immutable stack of N spike trains on one simulation grid.

    Build with :meth:`from_trains`, :meth:`from_raster`,
    :meth:`from_packed` or :meth:`empty`; the constructor itself takes
    the CSR pieces and is mostly internal.

    Instances behave like an immutable sequence of
    :class:`~repro.spikes.train.SpikeTrain`: ``len`` is the number of
    rows, iteration and indexing yield trains, and the set operators
    ``|`` ``&`` ``-`` ``^`` apply row-wise (with single-row operands
    broadcasting over the other side's rows).
    """

    __slots__ = ("_grid", "_values", "_ptr", "_raster", "_packed")

    def __init__(
        self,
        values: np.ndarray,
        ptr: np.ndarray,
        grid: SimulationGrid,
        *,
        _raster: Optional[np.ndarray] = None,
    ) -> None:
        values = np.asarray(values, dtype=np.int64)
        ptr = np.asarray(ptr, dtype=np.int64)
        if ptr.ndim != 1 or ptr.size < 1 or ptr[0] != 0 or ptr[-1] != values.size:
            raise SpikeTrainError(
                f"malformed CSR offsets: ptr={ptr!r} for {values.size} values"
            )
        if np.any(np.diff(ptr) < 0):
            raise SpikeTrainError("CSR offsets must be non-decreasing")
        if values.size:
            if values.min() < 0 or values.max() >= grid.n_samples:
                raise SpikeTrainError(
                    f"batch slot outside grid of {grid.n_samples} samples"
                )
        if values.size > 1:
            # Every consumer (row extraction, the batched receivers'
            # earliest-wins scatters) relies on strictly ascending slots
            # within each row; check all diffs except those straddling a
            # row boundary.
            diffs = np.diff(values)
            interior = np.ones(diffs.size, dtype=bool)
            cuts = ptr[1:-1] - 1
            interior[cuts[(cuts >= 0) & (cuts < diffs.size)]] = False
            if np.any(diffs[interior] <= 0):
                raise SpikeTrainError(
                    "batch rows must hold sorted, duplicate-free slots"
                )
        values.setflags(write=False)
        ptr.setflags(write=False)
        self._values: Optional[np.ndarray] = values
        self._ptr: Optional[np.ndarray] = ptr
        self._grid = grid
        self._raster = _raster
        self._packed: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_trains(cls, trains: Sequence[SpikeTrain]) -> "SpikeTrainBatch":
        """Stack existing trains (all on one grid) into a batch."""
        if not trains:
            raise SpikeTrainError("a batch needs at least one train")
        for i, train in enumerate(trains):
            if not isinstance(train, SpikeTrain):
                raise SpikeTrainError(
                    f"expected SpikeTrain at row {i}, got {type(train).__name__}"
                )
        grid = trains[0].grid
        for i, train in enumerate(trains[1:], start=1):
            if train.grid != grid:
                raise SpikeTrainError(
                    f"row {i} lives on {train.grid.describe()}, "
                    f"expected {grid.describe()}"
                )
        counts = np.array([len(t) for t in trains], dtype=np.int64)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        if counts.sum():
            values = np.concatenate([t.indices for t in trains])
        else:
            values = np.empty(0, dtype=np.int64)
        return cls(values, ptr, grid)

    @classmethod
    def from_train(cls, train: SpikeTrain) -> "SpikeTrainBatch":
        """One-row adapter: view a single train as a batch."""
        return cls.from_trains([train])

    @classmethod
    def from_raster(
        cls,
        raster: np.ndarray,
        grid: SimulationGrid,
        *,
        copy: bool = True,
    ) -> "SpikeTrainBatch":
        """Build from a dense boolean occupancy matrix ``(N, n_samples)``.

        ``copy=False`` adopts the array without a defensive copy —
        for internal callers handing over a freshly computed temporary
        (the batch freezes whatever it stores).
        """
        given = raster
        raster = np.ascontiguousarray(raster, dtype=bool)
        if raster.ndim != 2 or raster.shape[1] != grid.n_samples:
            raise SpikeTrainError(
                f"raster shape {raster.shape} does not match "
                f"(N, {grid.n_samples})"
            )
        rows, cols = np.nonzero(raster)
        counts = np.bincount(rows, minlength=raster.shape[0])
        ptr = np.concatenate([[0], np.cumsum(counts)])
        if copy and raster is given:
            raster = raster.copy()
        raster.setflags(write=False)
        return cls(cols.astype(np.int64), ptr, grid, _raster=raster)

    @classmethod
    def from_packed(
        cls, packed: np.ndarray, grid: SimulationGrid
    ) -> "SpikeTrainBatch":
        """Build from a :meth:`packbits` bitset ``(N, ceil(n_samples / 8))``.

        The result is *packed-primary*: the bitset (word-aligned, tail
        bits masked off as :func:`np.unpackbits` with ``count`` would)
        becomes the batch's resident representation and the CSR decodes
        lazily, occupied bytes only — the dense raster is never built.

        When the grid's byte width is already word-aligned with no tail
        bits (``n_samples`` a multiple of 64) a contiguous bitset is
        adopted zero-copy: the batch views the caller's buffer, which
        must not be mutated afterwards.
        """
        packed = np.asarray(packed, dtype=np.uint8)
        n_bytes = packed_kernels.n_packed_bytes(grid.n_samples)
        if packed.ndim != 2 or packed.shape[1] != n_bytes:
            raise SpikeTrainError(
                f"packed shape {packed.shape} does not match "
                f"(N, {n_bytes})"
            )
        n_words = packed_kernels.n_packed_words(grid.n_samples)
        if grid.n_samples % 64 == 0 and packed.flags.c_contiguous:
            # Every byte is in-grid and the row stride is a whole number
            # of words: reinterpret in place, no pad / no tail to clear.
            return cls._from_packed_words(
                packed.view(np.uint64), grid, validate=False
            )
        padded = np.zeros((packed.shape[0], n_words * 8), dtype=np.uint8)
        padded[:, :n_bytes] = packed
        words = padded.view(np.uint64)
        packed_kernels.clear_slots_from(words, grid.n_samples)
        return cls._from_packed_words(words, grid, validate=False)

    @classmethod
    def _from_packed_words(
        cls,
        words: np.ndarray,
        grid: SimulationGrid,
        *,
        validate: bool = True,
    ) -> "SpikeTrainBatch":
        """Adopt a word-aligned packed array as a packed-primary batch.

        ``words`` must be ``(N, ceil(n_samples / 64))`` ``uint64`` with
        a clean tail; internal producers whose output is clean by
        construction (set-op results, shared-memory attachments) pass
        ``validate=False``.  N may be 0: an empty row selection or an
        empty corpus window is a legal (silent) batch.
        """
        words = np.asarray(words, dtype=np.uint64)
        n_words = packed_kernels.n_packed_words(grid.n_samples)
        if words.ndim != 2 or words.shape[1] != n_words:
            raise SpikeTrainError(
                f"packed words shape {words.shape} does not match "
                f"(N, {n_words})"
            )
        if validate and not packed_kernels.check_tail_clean(
            words, grid.n_samples
        ):
            raise SpikeTrainError(
                f"packed words carry bits beyond the grid's "
                f"{grid.n_samples} samples"
            )
        words.setflags(write=False)
        batch = cls.__new__(cls)
        batch._grid = grid
        batch._values = None
        batch._ptr = None
        batch._raster = None
        batch._packed = words
        return batch

    @classmethod
    def empty(cls, n_trains: int, grid: SimulationGrid) -> "SpikeTrainBatch":
        """A batch of ``n_trains`` silent rows."""
        if n_trains < 1:
            raise SpikeTrainError(f"n_trains must be >= 1, got {n_trains}")
        return cls(
            np.empty(0, dtype=np.int64),
            np.zeros(n_trains + 1, dtype=np.int64),
            grid,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def grid(self) -> SimulationGrid:
        """The grid all rows live on."""
        return self._grid

    @property
    def n_trains(self) -> int:
        """Number of rows N."""
        if self._ptr is not None:
            return int(self._ptr.size - 1)
        return int(self._packed.shape[0])

    @property
    def total_spikes(self) -> int:
        """Total spike count across all rows."""
        if self._values is not None:
            return int(self._values.size)
        return int(self.counts().sum())

    def counts(self) -> np.ndarray:
        """Per-row spike counts (length N).

        From the CSR offsets when they are resident, else one popcount
        pass over the packed words — no decode either way.
        """
        if self._ptr is not None:
            return np.diff(self._ptr)
        return packed_kernels.row_popcounts(self._packed)

    def density(self) -> float:
        """Mean occupied fraction of the grid over all rows (0.0 if none)."""
        slots = self.n_trains * self._grid.n_samples
        return self.total_spikes / slots if slots else 0.0

    @property
    def csr_materialised(self) -> bool:
        """True when the CSR arrays are resident (no decode needed)."""
        return self._values is not None

    @property
    def packed_materialised(self) -> bool:
        """True when the packed words are resident (no pack needed)."""
        return self._packed is not None

    @property
    def raster_materialised(self) -> bool:
        """True when the dense boolean raster is resident."""
        return self._raster is not None

    def nbytes_resident(self) -> int:
        """Bytes held by the currently materialised representations."""
        total = 0
        if self._values is not None:
            total += self._values.nbytes + self._ptr.nbytes
        if self._packed is not None:
            total += self._packed.nbytes
        if self._raster is not None:
            total += self._raster.nbytes
        return total

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The concatenated slot array and row offsets ``(values, ptr)``.

        Packed-primary batches decode here on first call — occupied
        bytes only, O(set bits) — and cache the result.
        """
        if self._values is None:
            values, ptr = packed_kernels.unpack_rows(self._packed)
            values.setflags(write=False)
            ptr.setflags(write=False)
            self._values = values
            self._ptr = ptr
        return self._values, self._ptr

    def prefers_csr_walk(self) -> bool:
        """True when the batched receivers should walk the CSR.

        Routing is by residency alone.  A resident raster walks (the
        CSR comes with it from :meth:`from_raster`, and a packed batch
        whose raster was asked for decodes one); a resident CSR
        walks below :data:`~repro.backend.core.RASTER_DENSITY_THRESHOLD`
        — O(total spikes), independent of the grid — and packs above
        it; a batch holding only packed words (``from_packed``,
        shared-memory and memmap attachments, packed set-op results)
        runs packed and never decodes.
        """
        if self._raster is not None:
            return True
        if self._values is None:
            return False
        return self._values.size < (
            RASTER_DENSITY_THRESHOLD * self.n_trains * self._grid.n_samples
        )

    @property
    def raster(self) -> np.ndarray:
        """Dense boolean occupancy matrix ``(N, n_samples)`` (cached).

        Built from the CSR scatter when the CSR is resident, else by
        unpacking the packed words — the one place a packed-primary
        batch ever unpacks, and only because the caller explicitly
        asked for per-slot booleans.
        """
        if self._raster is None:
            if self._values is not None:
                raster = np.zeros(
                    (self.n_trains, self._grid.n_samples), dtype=bool
                )
                rows = np.repeat(np.arange(self.n_trains), self.counts())
                raster[rows, self._values] = True
            else:
                raster = np.unpackbits(
                    np.ascontiguousarray(self._packed).view(np.uint8),
                    axis=1,
                    count=self._grid.n_samples,
                ).astype(bool)
            raster.setflags(write=False)
            self._raster = raster
        return self._raster

    def packed_words(self) -> np.ndarray:
        """Word-aligned packed bitset ``(N, ceil(n_samples / 64))`` uint64 (cached).

        The compute substrate of the packed kernels: eight slots per
        byte, tail bits zero, read-only.  Packed straight from the CSR
        (O(total spikes), no raster) or from a resident raster.
        """
        if self._packed is None:
            n_words = packed_kernels.n_packed_words(self._grid.n_samples)
            if self._values is not None:
                words = packed_kernels.pack_rows(
                    self._values, self._ptr, self._grid.n_samples
                )
            else:
                exact = np.packbits(self._raster, axis=1)
                padded = np.zeros(
                    (exact.shape[0], n_words * 8), dtype=np.uint8
                )
                padded[:, : exact.shape[1]] = exact
                words = padded.view(np.uint64)
            words.setflags(write=False)
            self._packed = words
        return self._packed

    def packbits(self) -> np.ndarray:
        """The ``np.packbits`` bitset, ``(N, ceil(n_samples / 8))`` (read-only).

        A trimmed byte view of :meth:`packed_words` — computing it
        never materialises the raster.
        """
        words = self.packed_words()
        n_bytes = packed_kernels.n_packed_bytes(self._grid.n_samples)
        trimmed = words.view(np.uint8)[:, :n_bytes]
        trimmed.setflags(write=False)
        return trimmed

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------

    def to_shared(self, arena: SharedArena) -> SharedBatchHandle:
        """Place this batch into ``arena`` and return its picklable handle.

        The word-aligned bitset travels alone, in one segment (8×
        smaller than the raster, size independent of the spike count);
        a row range is a slice of its words, so attachers compute
        straight on it.  The handle itself carries no array data.
        """
        return SharedBatchHandle(
            packed=arena.share_array(self.packed_words()),
            n_samples=self._grid.n_samples,
            dt=self._grid.dt,
        )

    @classmethod
    def from_shared(
        cls,
        handle: SharedBatchHandle,
        rows: Optional[Tuple[int, int]] = None,
    ) -> "SpikeTrainBatch":
        """Rebuild a batch (or a row range of it) from a shared handle.

        Maps the segment read-only
        (:func:`~repro.backend.shared.attach_array`) — the payload is
        never copied across the process boundary — and wraps the
        requested rows; the mapping lasts as long as the returned
        batch's views.  ``rows=(lo, hi)``
        reconstructs exactly ``select_rows(range(lo, hi))`` of the
        shared batch, which is what shard workers use; ``None`` wraps
        all rows.  Bit-identical to the source batch by construction.

        The batch comes back *packed-primary*, its words a view of the
        mapped segment — workers run set algebra and identification
        directly on the shared bitset and decode nothing unless a
        consumer asks for indices.
        """
        n = handle.n_trains
        lo, hi = 0, n
        if rows is not None:
            lo, hi = int(rows[0]), int(rows[1])
            if not (0 <= lo <= hi <= n):
                raise SpikeTrainError(
                    f"row range [{lo}, {hi}) outside shared batch of {n} rows"
                )
        words = attach_array(handle.packed)
        return cls._from_packed_words(
            words[lo:hi], handle.grid(), validate=False
        )

    # ------------------------------------------------------------------
    # Memmap residency (disk-backed packed words)
    # ------------------------------------------------------------------

    def to_memmap(self, path) -> "pathlib.Path":
        """Persist this batch's packed words as a ``.npy`` file.

        The on-disk form is exactly :meth:`packed_words` — the
        word-aligned bitset, 8× smaller than the raster and directly
        computable by every packed kernel once mapped back in with
        :meth:`from_memmap`.  Round trip is bit-identical by
        construction (same words in, same words out).
        """
        return mmapstore.write_words(path, self.packed_words())

    @classmethod
    def from_memmap(
        cls,
        path,
        grid: SimulationGrid,
        rows: Optional[Tuple[int, int]] = None,
    ) -> "SpikeTrainBatch":
        """Open a words file written by :meth:`to_memmap` as a batch.

        The returned batch is *packed-primary over the mapping*: its
        words are a read-only view of the file's pages, faulted in only
        as kernels touch them — nothing is copied at open time, and
        ``rows=(lo, hi)`` restricts the mapping to that window so peak
        RSS is bounded by the window, not the file.  The disk residency
        mirrors :meth:`from_shared`'s bitset-only path: identification
        and membership run straight on the mapped words; the CSR (and
        never the raster) materialises only if a consumer explicitly
        asks for indices.

        Tail cleanliness is validated on the opened window (one word
        per row), catching a file written for a different grid.
        """
        words = mmapstore.open_words(path, grid.n_samples, rows)
        return cls._from_packed_words(words, grid, validate=True)

    def row(self, i: int) -> SpikeTrain:
        """Row ``i`` as a :class:`SpikeTrain`."""
        n = self.n_trains
        if not (-n <= i < n):
            raise SpikeTrainError(f"row {i} out of range for {n} trains")
        i %= n
        values, ptr = self.csr()
        indices = values[ptr[i] : ptr[i + 1]]
        return SpikeTrain._from_sorted_unique(indices, self._grid)

    def to_trains(self) -> List[SpikeTrain]:
        """All rows as a list of trains (the inverse of :meth:`from_trains`)."""
        return [self.row(i) for i in range(self.n_trains)]

    def select_rows(self, rows) -> "SpikeTrainBatch":
        """A new batch holding the requested rows, in the given order.

        Packed-primary batches stay packed (one fancy-indexed copy of
        the selected words); CSR batches gather their slot runs in one
        vectorised pass.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self._values is None:
            return SpikeTrainBatch._from_packed_words(
                self._packed[rows], self._grid, validate=False
            )
        counts = self.counts()[rows]
        ptr = np.concatenate([[0], np.cumsum(counts)])
        if counts.sum():
            within = np.arange(ptr[-1]) - np.repeat(ptr[:-1], counts)
            values = self._values[np.repeat(self._ptr[rows], counts) + within]
        else:
            values = np.empty(0, dtype=np.int64)
        return SpikeTrainBatch(values, ptr, self._grid)

    def __len__(self) -> int:
        return self.n_trains

    def __iter__(self) -> Iterator[SpikeTrain]:
        return (self.row(i) for i in range(self.n_trains))

    def __getitem__(self, i: int) -> SpikeTrain:
        return self.row(int(i))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeTrainBatch):
            return NotImplemented
        if self._grid != other._grid:
            return False
        if (
            self._values is None
            and other._values is None
            and self._packed.shape == other._packed.shape
        ):
            return bool(np.array_equal(self._packed, other._packed))
        values, ptr = self.csr()
        other_values, other_ptr = other.csr()
        return np.array_equal(ptr, other_ptr) and np.array_equal(
            values, other_values
        )

    def __hash__(self) -> int:
        values, ptr = self.csr()
        return hash((self._grid, ptr.tobytes(), values.tobytes()))

    def __repr__(self) -> str:
        return (
            f"SpikeTrainBatch(n_trains={self.n_trains}, "
            f"total_spikes={self.total_spikes}, grid={self._grid.describe()})"
        )

    # ------------------------------------------------------------------
    # Row-wise set algebra (vectorised)
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "SpikeTrainBatch") -> None:
        if not isinstance(other, SpikeTrainBatch):
            raise SpikeTrainError(
                f"expected SpikeTrainBatch, got {type(other).__name__}"
            )
        if other._grid != self._grid:
            raise SpikeTrainError(
                "batch set operations require one shared grid: "
                f"{self._grid.describe()} vs {other._grid.describe()}"
            )
        if (
            self.n_trains != other.n_trains
            and 1 not in (self.n_trains, other.n_trains)
        ):
            raise SpikeTrainError(
                f"cannot broadcast batches of {self.n_trains} and "
                f"{other.n_trains} rows"
            )

    def _binary_op(self, other, word_op, bool_op) -> "SpikeTrainBatch":
        self._check_compatible(other)
        # A resident raster has already paid its scatter; otherwise the
        # packed pass touches 1/8 of the raster's bytes, and a CSR packs
        # in O(spikes).
        if self._raster is not None or other._raster is not None:
            return SpikeTrainBatch.from_raster(
                bool_op(self.raster, other.raster), self._grid, copy=False
            )
        result = word_op(self.packed_words(), other.packed_words())
        return SpikeTrainBatch._from_packed_words(
            result, self._grid, validate=False
        )

    def union(self, other: "SpikeTrainBatch") -> "SpikeTrainBatch":
        """Row-wise union (single-row operands broadcast)."""
        return self._binary_op(other, np.bitwise_or, np.logical_or)

    def intersection(self, other: "SpikeTrainBatch") -> "SpikeTrainBatch":
        """Row-wise intersection (single-row operands broadcast)."""
        return self._binary_op(other, np.bitwise_and, np.logical_and)

    def difference(self, other: "SpikeTrainBatch") -> "SpikeTrainBatch":
        """Row-wise difference (single-row operands broadcast)."""
        return self._binary_op(
            other, lambda x, y: x & ~y, lambda x, y: x & ~y
        )

    def symmetric_difference(self, other: "SpikeTrainBatch") -> "SpikeTrainBatch":
        """Row-wise symmetric difference (single-row operands broadcast)."""
        return self._binary_op(other, np.bitwise_xor, np.logical_xor)

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def any_union(self) -> SpikeTrain:
        """OR across all rows: the superposition of the whole batch."""
        if self._values is not None:
            return SpikeTrain(self._values, self._grid)
        merged = np.bitwise_or.reduce(self._packed, axis=0)
        indices = packed_kernels.unpack_indices(merged.view(np.uint8))
        return SpikeTrain._from_sorted_unique(indices, self._grid)

    def overlap_counts(self, other: "SpikeTrainBatch") -> np.ndarray:
        """Per-row coincident-slot counts with ``other`` (broadcasting).

        A popcount over the ANDed packed words — or one boolean pass
        when dense rasters are already resident on both sides.
        """
        self._check_compatible(other)
        if self._raster is not None and other._raster is not None:
            return np.count_nonzero(self._raster & other._raster, axis=1)
        return packed_kernels.coincidence_counts(
            self.packed_words(), other.packed_words()
        )

    def pairwise_overlap_matrix(self) -> np.ndarray:
        """``(N, N)`` matrix of shared-slot counts between all row pairs.

        Chunked popcounts over the packed words — 1/8 the memory
        traffic of the dense ``raster @ raster.T`` Gram matrix it
        replaces, with no integer-matmul blowup.
        """
        words = self.packed_words()
        return packed_kernels.pairwise_counts(words, words)

    def is_mutually_orthogonal(self) -> bool:
        """True when no two rows share a spike slot."""
        if self._values is not None:
            occupancy = np.bincount(
                self._values, minlength=self._grid.n_samples
            )
            return bool(self._values.size == 0 or occupancy.max() <= 1)
        merged = np.bitwise_or.reduce(self._packed, axis=0)
        union_bits = int(packed_kernels.popcount(merged).sum(dtype=np.int64))
        return union_bits == self.total_spikes
