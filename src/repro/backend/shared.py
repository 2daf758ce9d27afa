"""Zero-copy shared-memory transport for batch payloads.

Experiment shards rebuild their inputs from the config where they run.
One payload cannot be rebuilt: a served request's wire batch arrives
over the network.  This module moves it to pool workers without
copying it through a pipe: the parent writes the arrays once into
anonymous shared-memory segments (``memfd``) and ships workers a
handle that pickles as a few hundred bytes of metadata.  Workers map
the same physical pages — the dispatch payload is independent of the
payload size.

Three pieces:

* :class:`SharedArena` — a context manager owning the lifecycle of the
  segments created for one dispatch (a served request).  ``share_array``
  writes an ndarray into a fresh segment and returns its
  :class:`SharedArraySpec`; leaving the ``with`` block (on success *or*
  failure) closes every segment's descriptor.
* :class:`SharedArraySpec` — one shared array: the descriptor that
  holds its segment in this process, the segment's inode, shape and
  dtype.  A :class:`~repro.pipeline.runner.Runner` sends every spec in
  a task to its worker as the descriptor itself (``SCM_RIGHTS`` on the
  worker's socket, beside the task's pickle); the worker rebinds the
  spec to the descriptor it received and closes that descriptor when
  the task ends.
* :func:`attach_array` — one read-only mapping of the spec's
  descriptor, viewed as the array.  The mapping lasts exactly as long
  as its views, so a worker holds a segment only while a task uses it.

Attached batch payloads are the *packed words* of
:class:`~repro.backend.batch.SpikeTrainBatch` — workers wrap their row
range as a packed-primary view of the mapped segment and run the
packed kernels (:mod:`repro.backend.packed`) directly on it, so a
shard's compute never copies, unpacks, or re-rasters the payload.

``HAVE_SHARED_MEMORY`` is True where ``os.memfd_create`` exists
(Linux); elsewhere the server computes requests in-process.

Lifetime note: a segment has no name anywhere.  The arena holds one
descriptor per segment and never maps it.  The kernel frees the pages
when the last descriptor or mapping goes, so nothing can outlive a
crash of any process and no resource tracker is needed.  Descriptor
numbers are reused once an arena closes, so a spec also carries its
segment's inode: attaching or sending a spec checks it, and a spec
that outlived its arena raises :class:`FileNotFoundError` instead of
reaching whatever reused its descriptor number.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import weakref
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "HAVE_SHARED_MEMORY",
    "SharedArraySpec",
    "SharedArena",
    "attach_array",
]

HAVE_SHARED_MEMORY = hasattr(os, "memfd_create")


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable metadata locating one ndarray in shared memory.

    Attributes
    ----------
    fd:
        The descriptor that holds the segment in this process: the
        arena's in the creator, the one its task brought in a worker.
    inode:
        ``(st_dev, st_ino)`` of the segment, which tells it apart from
        whatever reuses its descriptor number later.
    shape / dtype:
        Enough to view the raw buffer as the original array
        (C-contiguous layout by construction).
    """

    fd: int
    inode: Tuple[int, int]
    shape: Tuple[int, ...]
    dtype: str

    def stat(self) -> os.stat_result:
        """The segment's ``fstat``.

        Raises FileNotFoundError when :attr:`fd` no longer holds the
        segment: its arena closed, and the number is free or reused.
        """
        try:
            stat = os.fstat(self.fd)
            if (stat.st_dev, stat.st_ino) == self.inode:
                return stat
        except OSError:  # EBADF: nothing holds the number any more
            pass
        raise FileNotFoundError(
            errno.ENOENT, "the arena of this segment has closed"
        )


def _close_segments(fds: List[int]) -> None:
    """Close every segment descriptor; idempotent."""
    while fds:
        os.close(fds.pop())


class SharedArena:
    """Owns the shared-memory segments of one dispatch.

    Use as a context manager::

        with SharedArena() as arena:
            spec = arena.share_array(workload_array)
            ...dispatch tasks carrying ``spec``...
        # segments closed here, success or failure

    ``close`` (and therefore ``__exit__``) closes the descriptor of
    every segment the arena created; a :mod:`weakref` finalizer covers
    arenas abandoned without either, so segment lifetime is never tied
    to garbage collection order.  Views still alive keep the physical
    pages until they die — closing only ends new attaches and sends,
    which is exactly the handoff the runner needs.
    """

    def __init__(self) -> None:
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError(
                "anonymous shared memory (os.memfd_create) is unavailable "
                "on this host; compute in-process instead"
            )
        self._fds: List[int] = []
        self._finalizer = weakref.finalize(self, _close_segments, self._fds)

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
            fd=fd,
            inode=(stat.st_dev, stat.st_ino),
            shape=tuple(int(n) for n in arr.shape),
            dtype=arr.dtype.str,
        )

    def close(self) -> None:
        """Close every segment descriptor.  Idempotent."""
        self._finalizer()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def attach_array(spec: SharedArraySpec) -> np.ndarray:
    """A read-only view of the array ``spec`` describes.

    One read-only mapping of ``spec.fd``, once its inode checks out.
    The mapping keeps its own duplicate of the descriptor and unmaps
    when the last view of it dies.  Workers call this on the
    descriptors their task brought; in the creating process (the
    runner's in-process fallback, the round-trip tests) it maps the
    arena's own descriptor.
    """
    mapping = mmap.mmap(spec.fd, spec.stat().st_size, access=mmap.ACCESS_READ)
    return np.frombuffer(
        mapping, dtype=np.dtype(spec.dtype), count=math.prod(spec.shape)
    ).reshape(spec.shape)
