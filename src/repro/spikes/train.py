"""The :class:`SpikeTrain` data structure.

A spike train is a set of spike *slots*: integer sample indices on a
:class:`~repro.units.SimulationGrid`.  The paper's logic identifies basis
elements by exact spike coincidence, so the natural representation is a
sorted, duplicate-free integer array plus the grid that maps indices to
physical time.  Set algebra (union, intersection, difference) over slots
is what the intersection-based orthogonator computes, and orthogonality
("non-overlapping") is simply an empty slot intersection.

The scalar type is the sparse end of the backend layer: set operations
route through :func:`~repro.backend.core.select_backend` (merge when
sparse, a dense pass when the operands occupy enough of the grid), and
:meth:`SpikeTrain.to_batch` lifts a train into a
:class:`~repro.backend.batch.SpikeTrainBatch` when whole-record
vectorised work is wanted.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..backend.core import select_backend
from ..errors import SpikeTrainError
from ..units import SimulationGrid

__all__ = ["SpikeTrain"]


def first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in sorted
    ``values``: the positions ``np.unique`` keeps.

    A sort and this mask replace ``np.unique``, whose hash path is far
    slower on integer input and whose first call imports ``numpy.ma``.
    """
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


class SpikeTrain:
    """An immutable set of spike slots on a simulation grid.

    Parameters
    ----------
    indices:
        Sample indices of the spikes.  They are validated (integral,
        sorted after normalisation, unique, within ``[0, n_samples)``).
    grid:
        The grid giving each index a physical time ``index * dt``.

    Notes
    -----
    Instances behave like immutable ordered sets: they support ``len``,
    iteration, ``in`` (O(log n)), equality, and the set operators ``|``
    (union), ``&`` (intersection), ``-`` (difference) and ``^``
    (symmetric difference), all of which require matching grids.
    """

    __slots__ = ("_indices", "_grid")

    def __init__(self, indices, grid: SimulationGrid) -> None:
        arr = np.asarray(indices)
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            float_arr = np.asarray(indices, dtype=float)
            if not np.all(float_arr == np.round(float_arr)):
                raise SpikeTrainError("spike indices must be integral")
            arr = float_arr.astype(np.int64)
        # Sort a flattened copy (never the caller's array) and drop
        # adjacent repeats: np.unique's result without its first-call
        # import of numpy.ma, which no serving process needs.
        arr = np.sort(arr.astype(np.int64, copy=False), axis=None)
        first = first_of_runs(arr)
        if not first.all():
            arr = arr[first]
        if arr.size:
            if arr[0] < 0:
                raise SpikeTrainError(f"negative spike index: {arr[0]}")
            if arr[-1] >= grid.n_samples:
                raise SpikeTrainError(
                    f"spike index {arr[-1]} outside grid of {grid.n_samples} samples"
                )
        arr.setflags(write=False)
        self._indices = arr
        self._grid = grid

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def _from_sorted_unique(cls, indices: np.ndarray, grid: SimulationGrid) -> "SpikeTrain":
        """Wrap an already sorted, unique, in-range int64 array unchecked.

        Fast path for the set-algebra backends and
        :class:`~repro.backend.batch.SpikeTrainBatch` rows, whose
        outputs satisfy the invariants by construction.
        """
        train = cls.__new__(cls)
        indices = np.asarray(indices, dtype=np.int64)
        indices.setflags(write=False)
        train._indices = indices
        train._grid = grid
        return train

    @classmethod
    def empty(cls, grid: SimulationGrid) -> "SpikeTrain":
        """A train with no spikes."""
        return cls(np.empty(0, dtype=np.int64), grid)

    @classmethod
    def from_times(cls, times, grid: SimulationGrid) -> "SpikeTrain":
        """Build from physical times (seconds), rounding to grid slots.

        Times are validated up front: anything that would round to a
        slot outside ``[0, n_samples)`` — including slightly negative
        times — raises :class:`SpikeTrainError` naming the offending
        time and the grid, instead of surfacing as a cryptic
        "negative spike index" error downstream.
        """
        times = np.asarray(times, dtype=float)
        if times.size and not np.all(np.isfinite(times)):
            bad = times[~np.isfinite(times)][0]
            raise SpikeTrainError(f"non-finite spike time: {bad}")
        indices = np.round(times / grid.dt).astype(np.int64)
        if times.size:
            out_of_range = (indices < 0) | (indices >= grid.n_samples)
            if np.any(out_of_range):
                offender = times[out_of_range][0]
                raise SpikeTrainError(
                    f"spike time {offender:g} s falls outside "
                    f"[0, {grid.duration:g}) s on {grid.describe()}"
                )
        return cls(indices, grid)

    @classmethod
    def from_raster(cls, raster: np.ndarray, grid: SimulationGrid) -> "SpikeTrain":
        """Build from a dense boolean occupancy array of length n_samples."""
        raster = np.asarray(raster, dtype=bool)
        if raster.shape != (grid.n_samples,):
            raise SpikeTrainError(
                f"raster shape {raster.shape} does not match grid "
                f"({grid.n_samples} samples)"
            )
        return cls(np.flatnonzero(raster), grid)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def indices(self) -> np.ndarray:
        """Read-only sorted array of spike slots."""
        return self._indices

    @property
    def grid(self) -> SimulationGrid:
        """The grid this train lives on."""
        return self._grid

    @property
    def times(self) -> np.ndarray:
        """Physical spike times in seconds."""
        return self._indices * self._grid.dt

    def to_batch(self) -> "object":
        """This train as a one-row :class:`~repro.backend.batch.SpikeTrainBatch`.

        Thin adapter onto the vectorised backend layer; the import is
        deferred because the batch module builds on this one.
        """
        from ..backend.batch import SpikeTrainBatch

        return SpikeTrainBatch.from_train(self)

    def to_raster(self) -> np.ndarray:
        """Dense boolean occupancy array of length ``grid.n_samples``."""
        raster = np.zeros(self._grid.n_samples, dtype=bool)
        raster[self._indices] = True
        return raster

    def __len__(self) -> int:
        return int(self._indices.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices.tolist())

    def __contains__(self, index) -> bool:
        idx = int(index)
        pos = np.searchsorted(self._indices, idx)
        return bool(pos < self._indices.size and self._indices[pos] == idx)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeTrain):
            return NotImplemented
        return self._grid == other._grid and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash((self._grid, self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"SpikeTrain(n={len(self)}, grid={self._grid.describe()})"

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def _check_same_grid(self, other: "SpikeTrain") -> None:
        if not isinstance(other, SpikeTrain):
            raise SpikeTrainError(f"expected SpikeTrain, got {type(other).__name__}")
        if other._grid != self._grid:
            raise SpikeTrainError(
                "set operations require both trains on the same grid: "
                f"{self._grid.describe()} vs {other._grid.describe()}"
            )

    def _backend_for(self, other: "SpikeTrain"):
        return select_backend(
            self._indices.size + other._indices.size, self._grid.n_samples
        )

    def union(self, other: "SpikeTrain") -> "SpikeTrain":
        """Spikes present in either train (the OR / set-union wire)."""
        self._check_same_grid(other)
        merged = self._backend_for(other).union(
            self._indices, other._indices, self._grid.n_samples
        )
        return SpikeTrain._from_sorted_unique(merged, self._grid)

    def intersection(self, other: "SpikeTrain") -> "SpikeTrain":
        """Spikes present in both trains (the coincidence product)."""
        self._check_same_grid(other)
        shared = self._backend_for(other).intersection(
            self._indices, other._indices, self._grid.n_samples
        )
        return SpikeTrain._from_sorted_unique(shared, self._grid)

    def difference(self, other: "SpikeTrain") -> "SpikeTrain":
        """Spikes of this train not coinciding with ``other``."""
        self._check_same_grid(other)
        kept = self._backend_for(other).difference(
            self._indices, other._indices, self._grid.n_samples
        )
        return SpikeTrain._from_sorted_unique(kept, self._grid)

    def symmetric_difference(self, other: "SpikeTrain") -> "SpikeTrain":
        """Spikes present in exactly one of the two trains."""
        self._check_same_grid(other)
        exclusive = self._backend_for(other).symmetric_difference(
            self._indices, other._indices, self._grid.n_samples
        )
        return SpikeTrain._from_sorted_unique(exclusive, self._grid)

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def overlap_count(self, other: "SpikeTrain") -> int:
        """Number of coincident slots shared with ``other``."""
        return len(self.intersection(other))

    def is_orthogonal_to(self, other: "SpikeTrain") -> bool:
        """True when the trains never share a spike slot."""
        return self.overlap_count(other) == 0

    def is_subset_of(self, other: "SpikeTrain") -> bool:
        """True when every spike of this train coincides with ``other``."""
        self._check_same_grid(other)
        return self.overlap_count(other) == len(self)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def shifted(self, offset: int, wrap: bool = False) -> "SpikeTrain":
        """Delay (positive offset) or advance (negative) all spikes.

        Without ``wrap``, spikes shifted off the grid are dropped — the
        physical behaviour of a delay line observed over a finite window.
        With ``wrap``, indices wrap modulo the record length, which keeps
        spike counts constant and is the right model for the periodic
        aliasing study of Section 6.
        """
        if not self._indices.size:
            return self
        shifted = self._indices + int(offset)
        if wrap:
            shifted = np.mod(shifted, self._grid.n_samples)
        else:
            shifted = shifted[(shifted >= 0) & (shifted < self._grid.n_samples)]
        return SpikeTrain(shifted, self._grid)

    def window(self, start: int, stop: int) -> "SpikeTrain":
        """Restrict to spikes with ``start <= index < stop`` (same grid)."""
        if start > stop:
            raise SpikeTrainError(f"empty window bounds: [{start}, {stop})")
        lo = np.searchsorted(self._indices, start, side="left")
        hi = np.searchsorted(self._indices, stop, side="left")
        return SpikeTrain(self._indices[lo:hi], self._grid)

    def first_spike_index(self) -> Optional[int]:
        """Index of the earliest spike, or None for an empty train."""
        if not self._indices.size:
            return None
        return int(self._indices[0])

    def first_spike_time(self) -> Optional[float]:
        """Time (seconds) of the earliest spike, or None if empty."""
        first = self.first_spike_index()
        if first is None:
            return None
        return first * self._grid.dt

    def jittered(self, max_jitter: int, rng: np.random.Generator) -> "SpikeTrain":
        """Displace each spike by a uniform integer in ``[-max_jitter, max_jitter]``.

        Spikes jittered off the grid are dropped; colliding spikes merge.
        Models timing noise from processing/environmental variations.
        """
        if max_jitter < 0:
            raise SpikeTrainError(f"max_jitter must be non-negative, got {max_jitter}")
        if max_jitter == 0 or not self._indices.size:
            return self
        jitter = rng.integers(-max_jitter, max_jitter + 1, size=self._indices.size)
        moved = self._indices + jitter
        moved = moved[(moved >= 0) & (moved < self._grid.n_samples)]
        return SpikeTrain(moved, self._grid)

    def thinned(self, keep_probability: float, rng: np.random.Generator) -> "SpikeTrain":
        """Randomly keep each spike with probability ``keep_probability``.

        Models missed detections; used by robustness/failure-injection
        tests on the identification layer.
        """
        if not (0.0 <= keep_probability <= 1.0):
            raise SpikeTrainError(
                f"keep_probability must lie in [0, 1], got {keep_probability}"
            )
        if keep_probability == 1.0 or not self._indices.size:
            return self
        keep = rng.random(self._indices.size) < keep_probability
        return SpikeTrain(self._indices[keep], self._grid)

    # ------------------------------------------------------------------
    # Statistics shortcuts (full versions in repro.spikes.statistics)
    # ------------------------------------------------------------------

    def interspike_intervals(self) -> np.ndarray:
        """Inter-spike intervals in *samples* (length ``len(self) - 1``)."""
        return np.diff(self._indices)

    def mean_rate(self) -> float:
        """Mean spike rate in spikes per second over the full record."""
        return len(self) / self._grid.duration
