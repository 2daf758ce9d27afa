"""Bit-parallel kernels on packed spike bitsets: compute, never unpack.

``np.packbits`` stores eight spike slots per byte; this module makes
that form the *compute substrate* instead of a transport format.  Every
kernel operates on word-aligned packed arrays — ``(N, n_words)``
``uint64`` views of the packbits bytes, zero-padded so each row is a
whole number of machine words — and never materialises the dense
``(N, n_samples)`` boolean raster.  Set algebra is one bitwise
instruction per 64 slots; reductions (spike counts, coincidence
scores) are popcounts; first-coincidence scans are byte-level
``argmax`` + an 8-bit lookup.

Bit layout.  ``np.packbits`` is MSB-first: slot ``s`` lives in byte
``s >> 3`` at mask ``128 >> (s & 7)``.  Words are built by *viewing*
groups of eight packed bytes with the platform's native ``uint64``
order and decoded the same way, so every kernel is self-consistent on
any endianness: word-level operations are pure bitwise (order-blind)
and anything slot-ordered (first-set-bit, range masks, unpacking) goes
through the byte view.

Popcount.  :func:`popcount` resolves to ``np.bitwise_count`` when the
installed NumPy has it (>= 2.0) and to a 16-bit-LUT fallback otherwise.
Setting the environment variable :data:`FORCE_LUT_ENV` (to any
non-empty value) forces the fallback — CI runs the kernel suite both
ways so the LUT cannot silently rot.  Both implementations are also
exported directly (``_popcount_native`` / ``_popcount_lut``) so tests
can compare them regardless of the environment.

A *clean* packed array has all bits beyond ``n_samples`` zero.  Every
constructor here produces clean arrays and every closed operation
(AND/OR/XOR/ANDNOT against clean operands) preserves cleanliness; only
complement needs explicit re-masking (:func:`bitwise_not`).
:func:`tail_mask_words` builds the mask, :func:`check_tail_clean`
asserts the invariant on externally supplied data.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "FORCE_LUT_ENV",
    "HAVE_BITWISE_COUNT",
    "popcount",
    "popcount_impl",
    "n_packed_bytes",
    "n_packed_words",
    "tail_mask_words",
    "check_tail_clean",
    "pack_indices",
    "unpack_indices",
    "pack_rows",
    "unpack_rows",
    "unpack_coords",
    "bitwise_not",
    "gate_masks",
    "gate_table_words",
    "row_popcounts",
    "coincidence_counts",
    "row_chunk_bounds",
    "pairwise_counts",
    "coincidence_any",
    "first_set_slots",
    "first_and_slots",
    "first_coincident_slots",
    "clear_slots_before",
    "clear_slots_from",
    "le_word_masks",
]

#: Environment variable forcing the 16-bit-LUT popcount fallback.
FORCE_LUT_ENV = "REPRO_FORCE_POPCOUNT_LUT"

#: True when the installed NumPy provides ``np.bitwise_count``.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Byte-chunk budget for kernels that broadcast (N, M, n_words)
#: intermediates; chunking keeps the packed paths' peak working set a
#: fraction of the dense raster they replace.
_CHUNK_BYTES = 1 << 21

_LUT16: Optional[np.ndarray] = None

#: byte value -> earliest occupied slot offset within the byte
#: (MSB-first: value 0x80 is slot 0).  Entry 0 is unused.
_FIRST_SLOT_LUT = np.array(
    [0] + [8 - int(b).bit_length() for b in range(1, 256)], dtype=np.int64
)

#: slot offset r -> byte mask keeping slots <= r (``0xFF << (7 - r)``).
_MASK_LE = np.array(
    [(0xFF << (7 - r)) & 0xFF for r in range(8)], dtype=np.uint8
)


def _lut16() -> np.ndarray:
    """The 65536-entry popcount table (built on first use)."""
    global _LUT16
    if _LUT16 is None:
        lut8 = np.unpackbits(
            np.arange(256, dtype=np.uint8)[:, None], axis=1
        ).sum(axis=1, dtype=np.uint8)
        values = np.arange(65536, dtype=np.uint32)
        _LUT16 = (lut8[values >> 8] + lut8[values & 0xFF]).astype(np.uint8)
    return _LUT16


def _popcount_native(a: np.ndarray) -> np.ndarray:
    """Per-element popcount via ``np.bitwise_count`` (NumPy >= 2.0)."""
    return np.bitwise_count(a)


def _popcount_lut(a: np.ndarray) -> np.ndarray:
    """Per-element popcount via the 16-bit lookup table.

    Bit-identical to :func:`_popcount_native` on any unsigned integer
    dtype; used when ``np.bitwise_count`` is missing or the
    :data:`FORCE_LUT_ENV` environment variable is set.
    """
    a = np.ascontiguousarray(a)
    if a.dtype.itemsize <= 2:
        return _lut16()[a]
    halves = a.dtype.itemsize // 2
    parts = a.view(np.uint16).reshape(a.shape + (halves,))
    return _lut16()[parts].sum(axis=-1, dtype=np.uint8)


if HAVE_BITWISE_COUNT and not os.environ.get(FORCE_LUT_ENV):
    popcount = _popcount_native
else:  # pragma: no cover - exercised via the env var in CI
    popcount = _popcount_lut


def popcount_impl() -> str:
    """Which popcount implementation is active (``"bitwise_count"``/``"lut16"``)."""
    return "bitwise_count" if popcount is _popcount_native else "lut16"


# ----------------------------------------------------------------------
# Shapes and masks
# ----------------------------------------------------------------------


def n_packed_bytes(n_samples: int) -> int:
    """Exact ``np.packbits`` byte count for a grid of ``n_samples`` slots."""
    return (int(n_samples) + 7) // 8


def n_packed_words(n_samples: int) -> int:
    """Word count of the 64-bit-aligned packed form."""
    return (int(n_samples) + 63) // 64


def tail_mask_words(n_samples: int) -> np.ndarray:
    """``(n_words,)`` uint64 mask with exactly the valid slots set."""
    n_words = n_packed_words(n_samples)
    mask = np.zeros(n_words * 8, dtype=np.uint8)
    full, rem = divmod(int(n_samples), 8)
    mask[:full] = 0xFF
    if rem:
        mask[full] = _MASK_LE[rem - 1]
    return mask.view(np.uint64)


def check_tail_clean(words: np.ndarray, n_samples: int) -> bool:
    """True when no bit beyond ``n_samples`` is set (rows × words input)."""
    n_words = n_packed_words(n_samples)
    if n_words == 0:
        return True
    last_valid = tail_mask_words(n_samples)[-1]
    return not np.any(words[..., n_words - 1] & ~last_valid)


# ----------------------------------------------------------------------
# Packing and unpacking (sparse-aware: O(spikes + nonzero bytes))
# ----------------------------------------------------------------------


def _scatter_bits(flat_bytes, byte_index, masks) -> None:
    """OR ``masks`` into ``flat_bytes`` at ``byte_index`` (non-decreasing).

    ``byte_index`` ascends (sorted slots), so each byte's bits group
    into one contiguous run whose masks are distinct powers of two —
    their sum is their OR, computed with a single ``reduceat``.
    """
    starts = np.concatenate([[0], np.flatnonzero(np.diff(byte_index) != 0) + 1])
    flat_bytes[byte_index[starts]] = np.add.reduceat(masks, starts)


def pack_indices(indices: np.ndarray, n_samples: int) -> np.ndarray:
    """Pack one sorted, unique slot array into exact packbits bytes."""
    packed = np.zeros(n_packed_bytes(n_samples), dtype=np.uint8)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size:
        _scatter_bits(packed, indices >> 3, 128 >> (indices & 7))
    return packed


def unpack_indices(packed: np.ndarray, base: int = 0) -> np.ndarray:
    """Sorted slot indices of a 1-D packed byte array.

    Decodes only the *nonzero* bytes — O(set bits + occupied bytes),
    independent of the grid length — which is what lets the bitset
    backend return indices without an ``np.unpackbits`` pass over the
    whole grid.  ``base`` offsets the returned slots.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8).reshape(-1)
    occupied = np.flatnonzero(packed)
    if not occupied.size:
        return np.empty(0, dtype=np.int64)
    positions = np.flatnonzero(np.unpackbits(packed[occupied]))
    return occupied[positions >> 3] * 8 + (positions & 7) + base


def pack_rows(values: np.ndarray, ptr: np.ndarray, n_samples: int) -> np.ndarray:
    """Pack CSR rows straight into word-aligned ``(N, n_words)`` uint64.

    O(total spikes) scatter plus the zero-fill of the packed buffer —
    the dense raster is never materialised.
    """
    values = np.asarray(values, dtype=np.int64)
    ptr = np.asarray(ptr, dtype=np.int64)
    n_rows = ptr.size - 1
    row_bytes = n_packed_words(n_samples) * 8
    flat = np.zeros(n_rows * row_bytes, dtype=np.uint8)
    if values.size:
        rows = np.repeat(np.arange(n_rows), np.diff(ptr))
        _scatter_bits(
            flat, rows * row_bytes + (values >> 3), 128 >> (values & 7)
        )
    return flat.view(np.uint64).reshape(n_rows, row_bytes // 8)


def unpack_rows(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(values, ptr)`` of a ``(N, n_words)`` packed array.

    The inverse of :func:`pack_rows`: values ascend within each row
    (byte order is slot order), rows are contiguous in order, and only
    nonzero bytes are decoded.
    """
    words = np.ascontiguousarray(words)
    n_rows, n_words = words.shape
    counts = row_popcounts(words)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    flat = words.view(np.uint8).reshape(-1)
    occupied = np.flatnonzero(flat)
    if not occupied.size:
        return np.empty(0, dtype=np.int64), ptr
    positions = np.flatnonzero(np.unpackbits(flat[occupied]))
    in_row = occupied[positions >> 3] % (n_words * 8)
    return in_row * 8 + (positions & 7), ptr


def unpack_coords(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, slots)`` coordinates of every set bit in ``(N, n_words)``.

    Like :func:`unpack_rows` but without the CSR offsets — and
    therefore without any popcount pass, which keeps it cheap on the
    LUT fallback.  Pairs ascend row-major (row, then slot), the order
    the receivers' earliest-wins scatters rely on.
    """
    words = np.ascontiguousarray(words)
    n_words = words.shape[1]
    flat = words.view(np.uint8).reshape(-1)
    occupied = np.flatnonzero(flat)
    if not occupied.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    positions = np.flatnonzero(np.unpackbits(flat[occupied]))
    byte_index = occupied[positions >> 3]
    rows, in_row = np.divmod(byte_index, n_words * 8)
    return rows, in_row * 8 + (positions & 7)


# ----------------------------------------------------------------------
# Set algebra and reductions
# ----------------------------------------------------------------------


def bitwise_not(words: np.ndarray, n_samples: int) -> np.ndarray:
    """Complement within the grid (tail bits re-masked to zero).

    AND/OR/XOR and ``a & ~b`` of clean operands stay clean on their
    own; complement is the one primitive that must re-mask.
    """
    return ~words & tail_mask_words(n_samples)


def _gate_mask_table() -> np.ndarray:
    """``(4, 16)`` uint64: op id -> masks ``c0..c3`` of its truth table."""
    m00, m01, m10, m11 = (np.arange(16) >> np.arange(3, -1, -1)[:, None]) & 1
    coefficients = np.stack([m00, m10 ^ m00, m01 ^ m00, m11 ^ m10 ^ m01 ^ m00])
    return np.negative(coefficients.astype(np.uint64))


_GATE_MASKS = _gate_mask_table()


def gate_masks(op_ids: np.ndarray) -> np.ndarray:
    """``(4, n_rows)`` uint64 masks ``c0..c3`` for :func:`gate_table_words`.

    ``op_ids[i]`` selects which of the 16 Boolean functions row ``i``
    computes, in the conventional enumeration (0 False, 1 AND, 6 XOR,
    7 OR, 8 NOR, 14 NAND, 15 True, ...): bit ``3 - (2a + b)`` of the id
    is the gate's output for inputs ``(a, b)``.  Those four minterm
    bits ``m00, m01, m10, m11`` fold into the coefficients of the
    gate's XOR (algebraic normal) form ``c0 ^ c1 a ^ c2 b ^ c3 ab``:
    ``c0 = m00``, ``c1 = m10 ^ m00``, ``c2 = m01 ^ m00`` and
    ``c3 = m11 ^ m10 ^ m01 ^ m00``, each spread to an all-ones or
    all-zeros word.
    """
    return np.take(_GATE_MASKS, np.asarray(op_ids).reshape(-1), axis=1)


def gate_table_words(
    masks: np.ndarray,
    a_words: np.ndarray,
    b_words: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Column-wise 2-input truth-table gates on packed words, in place.

    ``a_words``, ``b_words`` and ``out`` are ``(n_words, n_rows)``
    uint64 buffers owned by the caller; column ``i`` is gate ``i``'s
    fan-in and output, and ``masks`` (:func:`gate_masks`) names its
    function.  Every function is evaluated at once in XOR form —

        out = c0 ^ (b & c2) ^ (a & (c1 ^ (b & c3)))

    — with the per-column masks broadcast down the words, so a whole
    heterogeneous layer of gates costs six wide word-ops regardless of
    which functions it mixes, and allocates nothing.  ``b_words`` is
    used as scratch.  Bits beyond the grid come out as ``c0`` for
    clean operands; since every word-op is bitwise, they never reach a
    valid slot, so a chain of layers needs one tail mask at its end.
    """
    c0, c1, c2, c3 = masks
    np.bitwise_and(b_words, c3, out=out)
    np.bitwise_xor(out, c1, out=out)
    np.bitwise_and(out, a_words, out=out)
    np.bitwise_and(b_words, c2, out=b_words)
    np.bitwise_xor(out, b_words, out=out)
    np.bitwise_xor(out, c0, out=out)
    return out


def row_popcounts(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit totals (spike counts) of ``(N, n_words)``."""
    return popcount(words).sum(axis=-1, dtype=np.int64)


def coincidence_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise coincident-slot counts ``popcount(a & b)`` (broadcasting)."""
    return row_popcounts(a & b)


def _pair_chunk(n_refs: int, n_words: int) -> int:
    """Rows per chunk bounding the (chunk, M, n_words) intermediate."""
    return max(1, _CHUNK_BYTES // max(1, n_refs * n_words * 8))


def row_chunk_bounds(n_rows: int, n_chunks: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous ``[lo, hi)`` row ranges splitting ``n_rows`` evenly.

    The only row-axis split in the repo (serving shards and corpus
    chunks, logicnet network ranges, the pool-parallel kernel layer
    and the experiments' shard plans all use it): ``linspace``-based
    so ranges differ by at most one row, empty ranges dropped, and the
    split is a pure function of ``(n_rows, n_chunks)`` — the property
    that makes a parallel run's concatenated results bit-identical to
    the serial kernel on the same rows.
    """
    n_chunks = max(1, min(int(n_chunks), max(1, int(n_rows))))
    bounds = np.linspace(0, int(n_rows), n_chunks + 1).astype(np.int64)
    return tuple(
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    )


def pairwise_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(Na, Nb)`` coincident-slot counts between all row pairs.

    Chunked over ``a``'s rows so the broadcast intermediate stays a few
    MB however large the batch — the packed replacement for the dense
    ``raster @ raster.T`` Gram matrix at 1/8 the memory traffic.
    """
    n_a = a.shape[0]
    out = np.empty((n_a, b.shape[0]), dtype=np.int64)
    step = _pair_chunk(b.shape[0], b.shape[1])
    for lo in range(0, n_a, step):
        block = a[lo : lo + step, None, :] & b[None, :, :]
        out[lo : lo + step] = popcount(block).sum(axis=-1, dtype=np.int64)
    return out


def coincidence_any(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(Na, Nb)`` boolean: do rows ``a[i]`` and ``b[j]`` share a slot?"""
    n_a = a.shape[0]
    out = np.empty((n_a, b.shape[0]), dtype=bool)
    step = _pair_chunk(b.shape[0], b.shape[1])
    for lo in range(0, n_a, step):
        block = a[lo : lo + step, None, :] & b[None, :, :]
        out[lo : lo + step] = (block != 0).any(axis=-1)
    return out


# ----------------------------------------------------------------------
# Slot-ordered scans (byte view)
# ----------------------------------------------------------------------


def first_set_slots(words: np.ndarray) -> np.ndarray:
    """Earliest occupied slot per row of ``(N, n_words)`` (-1: empty row).

    Word-level ``argmax`` (first nonzero word), then a byte scan of
    just that word per row plus an 8-bit LUT — no unpacking, and the
    only full-width intermediate is one bool per *word*.
    """
    n_rows = words.shape[0]
    rows = np.arange(n_rows)
    nonzero = words != 0
    first_word = nonzero.argmax(axis=1)
    hit = nonzero[rows, first_word]
    word_bytes = (
        np.ascontiguousarray(words[rows, first_word])
        .view(np.uint8)
        .reshape(n_rows, 8)
    )
    byte_nonzero = word_bytes != 0
    first_byte = byte_nonzero.argmax(axis=1)
    slots = (
        first_word * 64
        + first_byte * 8
        + _FIRST_SLOT_LUT[word_bytes[rows, first_byte]]
    )
    return np.where(hit, slots, -1)


def first_and_slots(
    a: np.ndarray,
    b: np.ndarray,
    *,
    start: int = 0,
    chunk_words: int = 64,
) -> np.ndarray:
    """Earliest slot ``>= start`` set in ``a[i] & b`` per row (-1: none).

    ``b`` is one reference row ``(n_words,)`` broadcast against every
    row of ``a`` (or a matching ``(N, n_words)`` matrix).  Equivalent to
    ``first_set_slots`` of the masked AND, but chunked over words with
    early exit: a row drops out of the scan the moment its first
    coincident word is found, so when coincidences come early (the
    serving identify path) only the first chunk's bytes are ever
    touched — the full-width AND is the worst case, never the
    common one.
    """
    n_rows, n_words = a.shape[0], a.shape[1]
    out = np.full(n_rows, -1, dtype=np.int64)
    w0 = min(max(start, 0) >> 6, n_words)
    start_rem = max(start, 0) & 63
    unresolved = np.arange(n_rows)
    per_row = b.ndim == 2
    for lo in range(w0, n_words, chunk_words):
        if unresolved.size == 0:
            break
        hi = min(lo + chunk_words, n_words)
        ref = b[unresolved, lo:hi] if per_row else b[lo:hi]
        block = a[unresolved, lo:hi] & ref
        if lo == w0 and start_rem:
            # Slots < start inside the first scanned word don't count.
            block[:, 0] &= ~le_word_masks(np.array([start - 1]))[0]
        slots = first_set_slots(block)
        found = slots >= 0
        out[unresolved[found]] = lo * 64 + slots[found]
        unresolved = unresolved[~found]
    return out


def first_coincident_slots(wires: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """``(N, M)`` earliest coincident slot of each wire/reference pair.

    -1 where a pair never coincides.  Chunked over wire rows like
    :func:`pairwise_counts`.
    """
    n_wires, n_words = wires.shape[0], wires.shape[1]
    n_refs = refs.shape[0]
    out = np.empty((n_wires, n_refs), dtype=np.int64)
    step = _pair_chunk(n_refs, n_words)
    for lo in range(0, n_wires, step):
        block = wires[lo : lo + step, None, :] & refs[None, :, :]
        as_bytes = block.view(np.uint8).reshape(block.shape[0], n_refs, -1)
        nonzero = as_bytes != 0
        first_byte = nonzero.argmax(axis=2)
        hit = np.take_along_axis(nonzero, first_byte[..., None], axis=2)[..., 0]
        values = np.take_along_axis(as_bytes, first_byte[..., None], axis=2)[..., 0]
        slots = first_byte * 8 + _FIRST_SLOT_LUT[values]
        out[lo : lo + step] = np.where(hit, slots, -1)
    return out


def clear_slots_before(words: np.ndarray, start: int) -> None:
    """Zero all slots ``< start`` in place (rows × words, writable)."""
    if start <= 0:
        return
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    start_byte = start >> 3
    if start_byte >= as_bytes.shape[1]:
        as_bytes[:] = 0
        return
    as_bytes[:, :start_byte] = 0
    rem = start & 7
    if rem:
        as_bytes[:, start_byte] &= np.uint8(0xFF >> rem)


def clear_slots_from(words: np.ndarray, limit: int) -> None:
    """Zero all slots ``>= limit`` in place (rows × words, writable)."""
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    if limit <= 0:
        as_bytes[:] = 0
        return
    limit_byte = limit >> 3
    if limit_byte >= as_bytes.shape[1]:
        return
    rem = limit & 7
    if rem:
        as_bytes[:, limit_byte] &= _MASK_LE[rem - 1]
        as_bytes[:, limit_byte + 1 :] = 0
    else:
        as_bytes[:, limit_byte:] = 0


def le_word_masks(slots: np.ndarray) -> np.ndarray:
    """Per-slot uint64 masks keeping the slots ``<= slot`` *within its word*.

    Used to count spikes up to a per-row decision slot: full words
    before the decision word come from a popcount prefix sum, the
    partial word is ``word & le_word_masks(slot)``.  Slot values are
    taken modulo 64.
    """
    slots = np.asarray(slots, dtype=np.int64)
    byte_in_word = (slots >> 3) & 7
    masks = np.zeros((slots.size, 8), dtype=np.uint8)
    masks[np.arange(8)[None, :] < byte_in_word[:, None]] = 0xFF
    masks[np.arange(slots.size), byte_in_word] = _MASK_LE[slots & 7]
    return masks.view(np.uint64).reshape(slots.shape)
