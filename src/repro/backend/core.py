"""Execution backends for spike-slot set algebra.

A :class:`Backend` computes the four set operations (union,
intersection, difference, symmetric difference) over sorted,
duplicate-free ``int64`` slot arrays — the representation
:class:`~repro.spikes.train.SpikeTrain` carries.  Two implementations exist:

* :class:`SortedSetBackend` — the original merge-based implementation
  (``np.union1d`` and friends).  O((n+m) log(n+m)) with tiny constant
  factors and no dependence on the grid length; the right choice for
  sparse trains.
* :class:`RasterBackend` — scatters both operands into dense boolean
  occupancy arrays of length ``n_samples``, applies one elementwise
  boolean operation, and gathers the result.  O(T) regardless of spike
  count; wins once the operands occupy more than a few percent of the
  grid.

:func:`select_backend` picks between them by operand density, the
crossover measured by ``benchmarks/bench_batch_throughput.py``.
Batches (:class:`~repro.backend.batch.SpikeTrainBatch`) do not come
through here: they route by which representation is resident, and
their dense form is the packed words of :mod:`~repro.backend.packed`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Backend",
    "SortedSetBackend",
    "RasterBackend",
    "RASTER_DENSITY_THRESHOLD",
    "available_backends",
    "get_backend",
    "select_backend",
]

#: Combined operand density (total spikes / grid length) above which the
#: dense raster pass beats the sorted merge.  The merge costs
#: O(n log n) with n = total spikes; the raster pass costs O(T) with a
#: much smaller per-element constant, so the crossover sits at a few
#: percent occupancy.  The batched receivers reuse it: below it they
#: walk a resident CSR instead of packing it.
RASTER_DENSITY_THRESHOLD = 1.0 / 64.0


class Backend:
    """Set algebra over sorted, unique ``int64`` slot arrays.

    All four operations take the two operand arrays plus the grid
    length ``n_samples`` (raster backends need it to size the dense
    pass) and return a sorted, unique ``int64`` array.  Implementations
    must be bit-identical to one another — that invariant is what lets
    :func:`select_backend` switch freely on density.
    """

    #: Registry key, e.g. ``"sorted"`` or ``"raster"``.
    name: str = "abstract"

    def union(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        raise NotImplementedError

    def intersection(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        raise NotImplementedError

    def difference(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        raise NotImplementedError

    def symmetric_difference(
        self, a: np.ndarray, b: np.ndarray, n_samples: int
    ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SortedSetBackend(Backend):
    """Merge-based set algebra on the sorted index arrays directly."""

    name = "sorted"

    def union(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        return np.union1d(a, b)

    def intersection(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        return np.intersect1d(a, b, assume_unique=True)

    def difference(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        return np.setdiff1d(a, b, assume_unique=True)

    def symmetric_difference(
        self, a: np.ndarray, b: np.ndarray, n_samples: int
    ) -> np.ndarray:
        return np.setxor1d(a, b, assume_unique=True)


class RasterBackend(Backend):
    """Dense boolean-occupancy set algebra (scatter, boolean op, gather)."""

    name = "raster"

    @staticmethod
    def _raster(indices: np.ndarray, n_samples: int) -> np.ndarray:
        raster = np.zeros(n_samples, dtype=bool)
        raster[indices] = True
        return raster

    def _apply(self, op, a, b, n_samples):
        result = op(self._raster(a, n_samples), self._raster(b, n_samples))
        return np.flatnonzero(result).astype(np.int64, copy=False)

    def union(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        return self._apply(np.logical_or, a, b, n_samples)

    def intersection(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        return self._apply(np.logical_and, a, b, n_samples)

    def difference(self, a: np.ndarray, b: np.ndarray, n_samples: int) -> np.ndarray:
        return self._apply(lambda x, y: x & ~y, a, b, n_samples)

    def symmetric_difference(
        self, a: np.ndarray, b: np.ndarray, n_samples: int
    ) -> np.ndarray:
        return self._apply(np.logical_xor, a, b, n_samples)


_BACKENDS = {
    backend.name: backend
    for backend in (SortedSetBackend(), RasterBackend())
}


def available_backends() -> tuple:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(name: Union[str, Backend]) -> Backend:
    """Resolve a backend by name (or pass an instance through)."""
    if isinstance(name, Backend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {list(_BACKENDS)}"
        ) from None


def select_backend(total_spikes: int, n_samples: int) -> Backend:
    """Pick the backend for one operation by operand density.

    ``total_spikes`` is the combined size of both operands.  Returns
    the raster backend above :data:`RASTER_DENSITY_THRESHOLD`
    occupancy and the sorted-merge backend below it.
    """
    if n_samples > 0 and total_spikes >= RASTER_DENSITY_THRESHOLD * n_samples:
        return _BACKENDS["raster"]
    return _BACKENDS["sorted"]
