"""Zero-copy shared-memory transport for batch workloads.

The sharded runner's original contract — *workers rebuild their inputs
deterministically* — pays a per-shard rebuild (noise synthesis,
orthogonator transform, basis construction) that swamps the win of
parallelism for small shards.  This module replaces rebuilding with
*attaching*: the parent materialises a workload once, places its arrays
into POSIX shared memory, and ships workers a handle that pickles as a
few hundred bytes of metadata.  Workers map the same physical pages —
the dispatch payload is independent of the workload size.

Three pieces:

* :class:`SharedArena` — a context manager owning the lifecycle of the
  segments created for one sharded run.  ``share_array`` copies an
  ndarray into a fresh segment and returns its :class:`SharedArraySpec`;
  leaving the ``with`` block (on success *or* failure) unlinks every
  segment, so a worker crash mid-shard cannot leak ``/dev/shm`` entries.
* :class:`SharedArraySpec` — the picklable description of one shared
  array (segment name, shape, dtype, owning arena token).  This is the
  only thing that crosses the process boundary.
* :func:`attach_array` — worker-side attach through a per-process
  :class:`AttachmentCache`: the first task touching a segment maps it
  read-only, later tasks of the same run reuse the mapping ("attach
  once per worker").  A task from a *newer* arena evicts the previous
  run's mappings, and the runner additionally broadcasts an explicit
  release to every worker at the end of each shared run
  (:meth:`repro.pipeline.runner.Runner.release_worker_attachments`),
  so finished arenas free immediately instead of waiting for the next
  run's tasks.

Attached batch payloads are the *packed words* of
:class:`~repro.backend.batch.SpikeTrainBatch` — workers wrap their row
range as a packed-primary view of the mapped segment and run the
packed kernels (:mod:`repro.backend.packed`) directly on it, so a
shard's compute never copies, unpacks, or re-rasters the payload.

``HAVE_SHARED_MEMORY`` is False on interpreters without POSIX shared
memory; callers (the runner) fall back to the rebuild path in that
case.

Tracking note: only the creating process talks to the
``multiprocessing`` resource tracker.  ``SharedMemory(create=True)``
registers each segment (the first registration starts the tracker)
and ``unlink`` unregisters it; the arena unlinks exactly once on every
path, so nothing warns at shutdown, and if the creator is SIGKILLed
the tracker unlinks what is left.  Attaching maps the segment
read-only from ``shm_open`` and registers nothing:
``SharedMemory(name=...)`` registers every attach on Python 3.10–3.12,
which would start a private tracker in each pool worker forked before
the first segment.
"""

from __future__ import annotations

import mmap
import os
import uuid
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "HAVE_SHARED_MEMORY",
    "SharedArraySpec",
    "SharedArena",
    "AttachmentCache",
    "attach_array",
    "process_cache",
]

try:
    import _posixshmem
    from multiprocessing import shared_memory

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - non-POSIX or stripped-down
    shared_memory = None  # type: ignore[assignment]
    HAVE_SHARED_MEMORY = False


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable metadata locating one ndarray in shared memory.

    Attributes
    ----------
    arena:
        Token of the :class:`SharedArena` that owns the segment; worker
        caches key their eviction on it (a new token flushes mappings
        held for the previous run).
    name:
        The shared-memory segment name.
    shape / dtype:
        Enough to view the raw buffer as the original array
        (C-contiguous layout by construction).
    """

    arena: str
    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size of the described array."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


def _unlink_segments(segments: List) -> None:
    """Close and unlink every segment; tolerant of partial teardown."""
    while segments:
        segment = segments.pop()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views linger
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class SharedArena:
    """Owns the shared-memory segments of one sharded run.

    Use as a context manager::

        with SharedArena() as arena:
            spec = arena.share_array(workload_array)
            ...dispatch tasks carrying ``spec``...
        # segments unlinked here, success or failure

    ``close`` (and therefore ``__exit__``) unlinks every segment the
    arena created; a :mod:`weakref` finalizer covers arenas abandoned
    without either, so segment lifetime is never tied to garbage
    collection order.  Workers that still hold attachments keep the
    physical pages alive until they detach or exit — unlinking only
    removes the name, which is exactly the handoff the runner needs.
    """

    def __init__(self) -> None:
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "interpreter; use the rebuild shard path instead"
            )
        self.token = uuid.uuid4().hex
        self._segments: List = []
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segments
        )

    def share_array(self, array: np.ndarray) -> SharedArraySpec:
        """Copy ``array`` into a fresh segment; returns its spec.

        The copy is the *last* one: every consumer views the same
        segment.  Zero-size arrays still get a (1-byte) segment so the
        spec round-trips uniformly.  Raises on a closed arena — a
        segment created after ``close()`` would have no owner left to
        unlink it.
        """
        if not self._finalizer.alive:
            raise RuntimeError(
                "cannot share arrays through a closed SharedArena"
            )
        arr = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes)
        )
        self._segments.append(segment)
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
            view[...] = arr
        return SharedArraySpec(
            arena=self.token,
            name=segment.name,
            shape=tuple(int(n) for n in arr.shape),
            dtype=arr.dtype.str,
        )

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of the live segments (diagnostics and leak tests)."""
        return tuple(segment.name for segment in self._segments)

    @property
    def total_bytes(self) -> int:
        """Total bytes resident across the arena's segments."""
        return sum(segment.size for segment in self._segments)

    def close(self) -> None:
        """Unlink every segment.  Idempotent."""
        self._finalizer()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _map_read_only(name: str) -> mmap.mmap:
    """Map the segment ``name`` read-only, registering it nowhere."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)  # the mapping holds its own descriptor


class AttachmentCache:
    """Per-process map of segment name → live attachment.

    The pool workers' side of "attach once per worker": the first task
    that touches a segment maps it, subsequent tasks of the same run hit
    the cache.  A spec from a *different* arena token evicts every
    cached mapping first — the previous run's segments are unlinked by
    then, and closing our attachment releases the pages.
    """

    def __init__(self) -> None:
        self._arena: Optional[str] = None
        self._attached: Dict[str, object] = {}

    def attach(self, spec: SharedArraySpec) -> np.ndarray:
        """A read-only ndarray view of the segment described by ``spec``."""
        if spec.arena != self._arena:
            self.release()
            self._arena = spec.arena
        segment = self._attached.get(spec.name)
        if segment is None:
            segment = self._attached[spec.name] = _map_read_only(spec.name)
        return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment)

    def release(self) -> None:
        """Close every attachment (views created from them must be dead)."""
        for segment in self._attached.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a view escaped a task
                pass  # dropping the ref frees the mapping at process exit
        self._attached.clear()
        self._arena = None

    def __len__(self) -> int:
        return len(self._attached)


_PROCESS_CACHE: Optional[AttachmentCache] = None


def process_cache() -> AttachmentCache:
    """This process's attachment cache (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = AttachmentCache()
    return _PROCESS_CACHE


def attach_array(spec: SharedArraySpec) -> np.ndarray:
    """Attach one shared array through the process cache.

    In the creating process this maps the same physical pages the arena
    wrote — the arrays compare equal and share no Python state, which is
    what the round-trip tests exercise without spawning workers.
    """
    return process_cache().attach(spec)
