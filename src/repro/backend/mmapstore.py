"""Memmap residency: the packed bitset persisted as ``.npy`` word files.

The third leg of the residency design.  ``shared.py`` proved the packed
kernels run bit-identically on *externally mapped* word buffers — a
shard worker attaches a shared-memory segment and wraps a row range as
a packed-primary view.  A disk file mapped with
``np.lib.format.open_memmap`` is exactly the same shape of thing: an
``(N, ceil(n_samples / 64))`` ``uint64`` array whose pages the kernel
faults in on demand.  This module is the thin layer that writes and
reopens those files so :meth:`~repro.backend.batch.SpikeTrainBatch.
from_memmap` can adopt them zero-copy.

Why the word-aligned packed form and not the raster or the CSR:

* it is 8× smaller than the dense raster on disk and in page cache;
* it is the kernels' compute substrate, so a mapped file is served
  without any per-request transform — reads touch only the pages the
  popcount/scan actually visits;
* row ``i`` lives at a fixed offset (``i * n_words * 8`` bytes past the
  ``.npy`` header), so a row range ``[lo, hi)`` maps as one contiguous
  slice — the windowed-loading contract the corpus store
  (:mod:`repro.pipeline.corpus`) builds row-range indexing on.

``.npy`` (via ``np.lib.format.open_memmap``) rather than a raw blob
means every segment is self-describing — shape and dtype live in the
file header, ``np.load`` can inspect one, and a copied segment cannot
silently change geometry.
"""

from __future__ import annotations

import pathlib
import zlib
from typing import BinaryIO, Optional, Tuple, Union

import numpy as np

from ..errors import SpikeTrainError
from . import packed as packed_kernels

__all__ = [
    "write_words",
    "open_words",
    "words_shape",
    "words_crc32",
]

PathLike = Union[str, pathlib.Path]

#: The one read buffer of :func:`words_crc32` (bytes).
_CRC_CHUNK_BYTES = 1 << 20


def write_words(path: PathLike, words: np.ndarray) -> pathlib.Path:
    """Persist one word-aligned packed array as ``path`` (``.npy``).

    ``words`` must be ``(N, n_words)`` ``uint64`` — the exact array
    :meth:`~repro.backend.batch.SpikeTrainBatch.packed_words` returns.
    The file is written through a memmap (``mode="w+"``), flushed, and
    closed; N may be 0 (an empty segment is legal and self-describing).
    """
    path = pathlib.Path(path)
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise SpikeTrainError(
            f"packed words must be 2-D (N, n_words), got shape {words.shape}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.uint64, shape=words.shape
    )
    try:
        out[...] = words
        out.flush()
    finally:
        # Drop the mapping promptly instead of waiting for GC: corpus
        # ingestion writes many segments in one pass.
        del out
    return path


def words_shape(path: PathLike) -> Tuple[int, int]:
    """The ``(n_rows, n_words)`` geometry of a words file, header only.

    Reads just the ``.npy`` header — no pages of the payload are
    touched, so a corpus manifest can be verified against its segment
    files without faulting anything in.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as stream:
        return _read_header(stream, path)


def _read_header(stream: BinaryIO, path: pathlib.Path) -> Tuple[int, int]:
    """A words file's ``(n_rows, n_words)``; leaves ``stream`` at the
    first payload byte."""
    readers = {
        (1, 0): np.lib.format.read_array_header_1_0,
        (2, 0): np.lib.format.read_array_header_2_0,
        # The 3.0 header only widens the field encoding to UTF-8; its
        # layout is the 2.0 one.
        (3, 0): np.lib.format.read_array_header_2_0,
    }
    version = np.lib.format.read_magic(stream)
    reader = readers.get(tuple(version))
    if reader is None:
        raise SpikeTrainError(
            f"{path}: unsupported .npy format version {version}"
        )
    shape, fortran, dtype = reader(stream)
    if dtype != np.dtype(np.uint64) or len(shape) != 2 or fortran:
        raise SpikeTrainError(
            f"{path} is not a packed words file: "
            f"dtype={dtype}, shape={shape}, fortran={fortran}"
        )
    return int(shape[0]), int(shape[1])


def _check_width(
    path: pathlib.Path, n_words: int, n_samples: Optional[int]
) -> None:
    """Refuse a file whose rows are not ``n_samples`` wide (None: any)."""
    if n_samples is not None:
        expected = packed_kernels.n_packed_words(n_samples)
        if n_words != expected:
            raise SpikeTrainError(
                f"{path} holds {n_words}-word rows, expected "
                f"{expected} for a grid of {n_samples} samples"
            )


def words_crc32(path: PathLike, n_samples: Optional[int] = None) -> int:
    """``zlib.crc32`` of a words file's packed words.

    The payload is read through one bounded buffer, never mapped: a
    mapping keeps every page it touched until it is dropped, so a
    checksum pass over one would end up holding the whole file.  A
    file shorter than its header says is checksummed as far as it goes,
    which no intact payload's CRC matches.  ``n_samples`` (when given)
    validates the word width as :func:`open_words` does.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as stream:
        n_rows, n_words = _read_header(stream, path)
        _check_width(path, n_words, n_samples)
        remaining = n_rows * n_words * 8
        buffer = memoryview(bytearray(min(remaining, _CRC_CHUNK_BYTES)))
        crc = 0
        while remaining:
            got = stream.readinto(buffer[:remaining])
            if not got:
                break
            crc = zlib.crc32(buffer[:got], crc)
            remaining -= got
    return crc


def open_words(
    path: PathLike,
    n_samples: Optional[int] = None,
    rows: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Map a words file read-only and return (a row range of) it.

    The returned array is a read-only view of the file's pages —
    nothing is read until a kernel touches it, and slicing ``rows=(lo,
    hi)`` before any access means only that window's pages can ever
    fault in: peak RSS is bounded by the window, not the file.

    ``n_samples`` (when given) validates the file's word width against
    the grid the caller intends to compute on — a geometry mismatch is
    an error here, at the mapping boundary, not a silent wrong answer
    in a kernel.
    """
    path = pathlib.Path(path)
    mapped = np.lib.format.open_memmap(path, mode="r")
    if mapped.dtype != np.uint64 or mapped.ndim != 2:
        raise SpikeTrainError(
            f"{path} is not a packed words file: "
            f"dtype={mapped.dtype}, ndim={mapped.ndim}"
        )
    _check_width(path, mapped.shape[1], n_samples)
    if rows is not None:
        lo, hi = int(rows[0]), int(rows[1])
        if not (0 <= lo <= hi <= mapped.shape[0]):
            raise SpikeTrainError(
                f"row range [{lo}, {hi}) outside mapped file of "
                f"{mapped.shape[0]} rows"
            )
        mapped = mapped[lo:hi]
    return mapped
