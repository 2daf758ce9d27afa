"""Backend layer: vectorised batch execution for spike-train hot paths.

* :class:`SpikeTrainBatch` — N trains × T slots on one grid, with CSR,
  word-aligned packed-bitset and dense-raster representations, each
  materialised lazily.  The packed words are the *compute-primary*
  dense form: batches born packed (``from_packed``, shared-memory
  attachments, packed set-op results) run set algebra, popcount
  statistics and the batched receivers directly on the bitset through
  :mod:`~repro.backend.packed` and decode their CSR only if someone
  asks for indices;
* :mod:`~repro.backend.packed` — the bit-parallel kernel layer:
  popcount (``np.bitwise_count``), pack/unpack that touches only
  occupied bytes, tail-masked set algebra, first-coincidence scans and
  coincidence scoring on ``uint64`` views of packbits arrays;
* :class:`Backend` protocol with :class:`SortedSetBackend` (merge-based,
  sparse-friendly) and :class:`RasterBackend` (dense boolean pass) for
  per-train set algebra, picked by operand density
  (:func:`select_backend`).  Batches route by residency instead: set
  algebra on a resident raster or else the packed words, the batched
  receivers by :meth:`SpikeTrainBatch.prefers_csr_walk` — packed
  attachments never unpack;
* :mod:`~repro.backend.shared` — zero-copy shared-memory transport:
  :class:`SharedArena` owns segment lifecycle for one dispatch (a
  served request),
  :meth:`SpikeTrainBatch.to_shared` / :meth:`SpikeTrainBatch.from_shared`
  move batches as metadata-only :class:`SharedBatchHandle` objects
  whose payload is the packed words — attached shard workers compute
  straight on the mapped bitset.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "batch": ("SpikeTrainBatch", "SharedBatchHandle"),
        "shared": (
            "SharedArena",
            "SharedArraySpec",
            "attach_array",
            "HAVE_SHARED_MEMORY",
        ),
        "core": (
            "Backend",
            "SortedSetBackend",
            "RasterBackend",
            "RASTER_DENSITY_THRESHOLD",
            "available_backends",
            "get_backend",
            "select_backend",
        ),
    },
    modules=("mmapstore", "packed"),
)
