"""Zero-copy shared-memory transport for batch workloads.

The sharded runner's original contract — *workers rebuild their inputs
deterministically* — pays a per-shard rebuild (noise synthesis,
orthogonator transform, basis construction) that swamps the win of
parallelism for small shards.  This module replaces rebuilding with
*attaching*: the parent materialises a workload once, writes its arrays
into anonymous shared-memory segments (``memfd``), and ships workers a
handle that pickles as a few hundred bytes of metadata.  Workers map
the same physical pages — the dispatch payload is independent of the
workload size.

Three pieces:

* :class:`SharedArena` — a context manager owning the lifecycle of the
  segments created for one sharded run.  ``share_array`` writes an
  ndarray into a fresh segment and returns its :class:`SharedArraySpec`;
  leaving the ``with`` block (on success *or* failure) closes every
  segment's descriptor.
* :class:`SharedArraySpec` — the picklable description of one shared
  array (where the segment opens, its inode, shape, dtype, owning
  arena token).  This is the only thing that crosses the process
  boundary.
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

``HAVE_SHARED_MEMORY`` is True where ``os.memfd_create`` and
``/proc/self/fd`` both exist (Linux); callers (the runner) fall back
to the rebuild path elsewhere.

Lifetime note: a segment has no name anywhere.  The arena holds one
descriptor per segment and never maps it; an attach opens the segment
through ``/proc/<creator pid>/fd/<fd>`` and maps it read-only.  The
kernel frees the pages when the last descriptor or mapping goes, so
nothing can outlive a crash of any process and no resource tracker is
needed.  Descriptor numbers are reused once an arena closes, so a spec
also carries its segment's inode: an attach checks it, and a spec that
outlived its arena raises :class:`FileNotFoundError` instead of
mapping another arena's bytes.  A forked child (a pool worker
replaced mid-request, say) closes its copy of every live arena, which
it then holds closed, and releases the attachments it inherited, so it
never pins pages its parent has let go of.
"""

from __future__ import annotations

import errno
import math
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

HAVE_SHARED_MEMORY = hasattr(os, "memfd_create") and os.path.isdir(
    "/proc/self/fd"
)


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable metadata locating one ndarray in shared memory.

    Attributes
    ----------
    arena:
        Token of the :class:`SharedArena` that owns the segment; worker
        caches key their eviction on it (a new token flushes mappings
        held for the previous run).
    path:
        ``/proc/<creator pid>/fd/<fd>``: where the segment opens while
        its arena lives.
    inode:
        ``(st_dev, st_ino)`` of the segment, which tells it apart from
        whatever reuses its descriptor number later.
    shape / dtype:
        Enough to view the raw buffer as the original array
        (C-contiguous layout by construction).
    """

    arena: str
    path: str
    inode: Tuple[int, int]
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size of the described array."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


def _close_segments(fds: List[int]) -> None:
    """Close every segment descriptor; idempotent."""
    while fds:
        os.close(fds.pop())


#: Every arena still open in this process, for the fork hook.
_LIVE_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


class SharedArena:
    """Owns the shared-memory segments of one sharded run.

    Use as a context manager::

        with SharedArena() as arena:
            spec = arena.share_array(workload_array)
            ...dispatch tasks carrying ``spec``...
        # segments closed here, success or failure

    ``close`` (and therefore ``__exit__``) closes the descriptor of
    every segment the arena created; a :mod:`weakref` finalizer covers
    arenas abandoned without either, so segment lifetime is never tied
    to garbage collection order.  Workers that still hold attachments
    keep the physical pages alive until they detach or exit — closing
    only ends new attaches, which is exactly the handoff the runner
    needs.
    """

    def __init__(self) -> None:
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError(
                "anonymous shared memory (os.memfd_create and /proc) is "
                "unavailable on this host; use the rebuild shard path instead"
            )
        self.token = uuid.uuid4().hex
        self._fds: List[int] = []
        self._finalizer = weakref.finalize(self, _close_segments, self._fds)
        _LIVE_ARENAS.add(self)

    def share_array(self, array: np.ndarray) -> SharedArraySpec:
        """Write ``array`` into a fresh segment; returns its spec.

        The copy is the *last* one: every consumer maps the same
        segment.  Zero-size arrays still get a (1-byte) segment so the
        spec round-trips uniformly.  Raises on a closed arena — a
        segment created after ``close()`` would have no owner left to
        close it.
        """
        if not self._finalizer.alive:
            raise RuntimeError(
                "cannot share arrays through a closed SharedArena"
            )
        arr = np.ascontiguousarray(array)
        fd = os.memfd_create("repro-arena")
        self._fds.append(fd)
        os.ftruncate(fd, max(1, arr.nbytes))
        data = arr.reshape(-1).view(np.uint8)
        written = 0
        while written < data.nbytes:
            written += os.pwrite(fd, data[written:], written)
        stat = os.fstat(fd)
        return SharedArraySpec(
            arena=self.token,
            path=f"/proc/{os.getpid()}/fd/{fd}",
            inode=(stat.st_dev, stat.st_ino),
            shape=tuple(int(n) for n in arr.shape),
            dtype=arr.dtype.str,
        )

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """The live segments' ``/proc`` paths (diagnostics)."""
        return tuple(f"/proc/{os.getpid()}/fd/{fd}" for fd in self._fds)

    def close(self) -> None:
        """Close every segment descriptor.  Idempotent."""
        self._finalizer()
        _LIVE_ARENAS.discard(self)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _check_inode(stat: os.stat_result, spec: SharedArraySpec) -> None:
    """Raise FileNotFoundError unless ``stat`` is the spec's segment."""
    if (stat.st_dev, stat.st_ino) != spec.inode:
        raise FileNotFoundError(
            errno.ENOENT, "the arena of this segment has closed", spec.path
        )


def _map_read_only(spec: SharedArraySpec) -> mmap.mmap:
    """Map the segment ``spec`` describes read-only.

    The inode is checked before the open, so a stale spec never opens
    whatever now holds its descriptor number, and again after it,
    since the number can change hands in between (``O_NONBLOCK`` keeps
    that open from waiting on a pipe).
    """
    _check_inode(os.stat(spec.path), spec)
    fd = os.open(spec.path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        stat = os.fstat(fd)
        _check_inode(stat, spec)
        return mmap.mmap(fd, stat.st_size, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)  # the mapping keeps a duplicate of its own


class AttachmentCache:
    """Per-process map of segment inode → live attachment.

    The pool workers' side of "attach once per worker": the first task
    that touches a segment maps it, subsequent tasks of the same run hit
    the cache.  A spec from a *different* arena token evicts every
    cached mapping first — the previous run's arena is closed by then,
    and closing our attachment releases the pages.
    """

    def __init__(self) -> None:
        self._arena: Optional[str] = None
        self._attached: Dict[Tuple[int, int], mmap.mmap] = {}

    def attach(self, spec: SharedArraySpec) -> np.ndarray:
        """A read-only ndarray view of the segment described by ``spec``."""
        if spec.arena != self._arena:
            self.release()
            self._arena = spec.arena
        mapping = self._attached.get(spec.inode)
        if mapping is None:
            mapping = self._attached[spec.inode] = _map_read_only(spec)
        # frombuffer holds a buffer export on the mapping, so the
        # mapping outlives release() for as long as any view does.
        return np.frombuffer(
            mapping, dtype=np.dtype(spec.dtype), count=math.prod(spec.shape)
        ).reshape(spec.shape)

    def release(self) -> None:
        """Close every attachment that no view still uses.

        ``close`` raises BufferError while a view of the mapping is
        alive (one escaped its task); dropping the reference then
        leaves the mapping to that view, and it unmaps when the last
        view dies.
        """
        for mapping in self._attached.values():
            try:
                mapping.close()
            except BufferError:
                pass
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


def _drop_inherited_segments() -> None:
    """Fork hook: the child lets go of every segment it inherited.

    Attaches open the creator's descriptors through ``/proc``, so the
    child's copies of its parent's arenas serve nobody, and nor do the
    attachments it inherited; kept, either would pin the segments for
    the child's whole life.
    """
    for arena in list(_LIVE_ARENAS):
        arena.close()
    if _PROCESS_CACHE is not None:
        _PROCESS_CACHE.release()


if HAVE_SHARED_MEMORY:
    os.register_at_fork(after_in_child=_drop_inherited_segments)
