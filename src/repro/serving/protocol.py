"""The packed-bitset wire protocol: versioned, length-prefixed frames.

The serving front-end (:mod:`repro.serving.server`) and the reference
client (:mod:`repro.serving.client`) speak a small binary protocol
whose request payload *is* the compute representation: the
``np.packbits`` bitset of a :class:`~repro.backend.batch.SpikeTrainBatch`
(N wires × ``ceil(n_samples / 8)`` bytes, MSB-first within each byte —
slot ``k`` of a row is bit ``7 - (k % 8)`` of byte ``k // 8``).  A
server therefore never parses, sorts or unpacks spike indices at the
boundary — it wraps the payload with
:meth:`~repro.backend.batch.SpikeTrainBatch.from_packed` and the batch
stays packed-primary all the way through shared-memory dispatch and the
packed kernels.

Framing (all integers little-endian)::

    u32 length | 16-byte frame header | payload (length - 16 bytes)

The frame header is ``magic "REPB" | version u8 | type u8 | flags u16 |
request_id u32 | deadline_ms u32``.  Requests carry a fixed 28-byte
request header (wire counts, grid geometry, scan options) followed by
the bitset.  The byte-level layout, the version rule and the error
codes are documented in ``docs/protocol.md`` — this module is their
single executable source: each fixed-size payload header is one
field table that both its encoder and its parser read, and each
result mode's arrays are one row set of :data:`RESULT_ARRAYS`.

Shard results travel as binary ``FRAME_RESULT`` frames — a 24-byte
result header followed by little-endian arrays (identify), the
``np.packbits`` membership bits plus first-slot array (membership), or
per-gate popcounts plus per-network checksums (logicnet) — so the hot
serving path never JSON-encodes per-shard arrays.  DONE, ERROR, PONG
and STATS payloads are JSON (one small frame per request, and clients
must tolerate unknown keys there).

Besides the bitset requests, two request kinds ship no bitset at all:
the *corpus query* (``FRAME_CORPUS_QUERY``) names a row range of a
corpus the server hosts (:mod:`repro.pipeline.corpus`), and the
*logicnet query* (``FRAME_LOGICNET``) names a range of a deterministic
random-logic-network family
(:class:`~repro.logic.netbatch.LogicNetBatch`, keyed by seed and
shape) the server rebuilds from `SeedSequence` spawn keys and
evaluates against its hosted basis lines.  ``FRAME_PING`` is the
health probe, answered with a tiny JSON ``FRAME_PONG``.

Every request frame may carry ``deadline_ms``: a per-request deadline
in milliseconds (0: none).  A server drops expired work and answers
:data:`ERR_DEADLINE` instead of computing a result nobody is waiting
for; response frames keep the field zero.  :data:`ERR_DEADLINE` and
:data:`ERR_RETRYABLE` are the *typed retry* codes, and
:data:`RETRYABLE_CODES` is the executable half of the client retry
contract (``docs/fault_tolerance.md``).

Version rule: every client of this wire lives in this repository, so
it has exactly one version, :data:`PROTOCOL_VERSION`.  A frame
stamped with any other version byte is rejected with
:data:`ERR_BAD_VERSION` (the magic never changes, so a version
mismatch is always reportable), and ``flags`` must be zero.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..backend import packed as packed_kernels
from ..errors import ProtocolError, ServingError
from ..units import SimulationGrid

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "FRAME_IDENTIFY",
    "FRAME_MEMBERSHIP",
    "FRAME_CORPUS_QUERY",
    "FRAME_LOGICNET",
    "FRAME_STATS",
    "FRAME_PING",
    "FRAME_DONE",
    "FRAME_RESULT",
    "FRAME_STATS_REPLY",
    "FRAME_PONG",
    "FRAME_ERROR",
    "LIMIT_FULL",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERR_BAD_MAGIC",
    "ERR_BAD_VERSION",
    "ERR_BAD_FRAME",
    "ERR_FRAME_TOO_LARGE",
    "ERR_BAD_TYPE",
    "ERR_BAD_GRID",
    "ERR_OVERLOADED",
    "ERR_INTERNAL",
    "ERR_NO_CORPUS",
    "ERR_DEADLINE",
    "ERR_RETRYABLE",
    "ERROR_NAMES",
    "RETRYABLE_CODES",
    "MAX_DEADLINE_MS",
    "RESULT_ARRAYS",
    "Frame",
    "Request",
    "CorpusQuery",
    "LogicNetQuery",
    "FrameReader",
    "encode_frame",
    "encode_request",
    "encode_request_parts",
    "parse_request",
    "encode_corpus_query",
    "parse_corpus_query",
    "encode_logicnet_query",
    "parse_logicnet_query",
    "encode_ping",
    "encode_json_frame",
    "parse_json_frame",
    "encode_result_frame",
    "parse_result_frame",
    "encode_stats_request",
    "encode_error",
    "request_nbytes",
    "check_start_slot",
    "result_dtype",
]

#: First four bytes of every frame body ("REpro Packed Bitset").
MAGIC = b"REPB"

#: The one protocol version this build speaks; a frame stamped with
#: any other version byte is rejected with ERR_BAD_VERSION.
PROTOCOL_VERSION = 5

# Frame types.  Requests sit below 0x80, responses at or above it, so a
# misdirected frame is caught by the type check rather than a payload
# parse.
FRAME_IDENTIFY = 0x01
FRAME_MEMBERSHIP = 0x02
FRAME_CORPUS_QUERY = 0x03
FRAME_LOGICNET = 0x04
FRAME_STATS = 0x10
FRAME_PING = 0x11
# 0x81 is retired (it was the JSON shard result) and must never be reused.
FRAME_DONE = 0x82
FRAME_RESULT = 0x83
FRAME_STATS_REPLY = 0x84
FRAME_PONG = 0x85
FRAME_ERROR = 0xFF

_JSON_RESPONSE_TYPES = (
    FRAME_DONE,
    FRAME_STATS_REPLY,
    FRAME_PONG,
    FRAME_ERROR,
)

#: ``limit`` sentinel meaning "the whole grid" (membership requests).
LIMIT_FULL = 0xFFFFFFFF

#: Default per-frame size cap (header + payload).  At the paper grid
#: (65536 slots → 8 KiB/wire) this admits ~8k wires per request.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

# Error codes (the ``code`` field of an error frame's JSON payload).
ERR_BAD_MAGIC = 1
ERR_BAD_VERSION = 2
ERR_BAD_FRAME = 3
ERR_FRAME_TOO_LARGE = 4
ERR_BAD_TYPE = 5
ERR_BAD_GRID = 6
ERR_OVERLOADED = 7
ERR_INTERNAL = 8
ERR_NO_CORPUS = 9
ERR_DEADLINE = 10
ERR_RETRYABLE = 11

#: code → symbolic name, echoed in error payloads for human readers.
ERROR_NAMES: Dict[int, str] = {
    ERR_BAD_MAGIC: "BAD_MAGIC",
    ERR_BAD_VERSION: "BAD_VERSION",
    ERR_BAD_FRAME: "BAD_FRAME",
    ERR_FRAME_TOO_LARGE: "FRAME_TOO_LARGE",
    ERR_BAD_TYPE: "BAD_TYPE",
    ERR_BAD_GRID: "BAD_GRID",
    ERR_OVERLOADED: "OVERLOADED",
    ERR_INTERNAL: "INTERNAL",
    ERR_NO_CORPUS: "NO_CORPUS",
    ERR_DEADLINE: "DEADLINE",
    ERR_RETRYABLE: "RETRYABLE",
}

#: Codes whose failures are transient: re-issuing the same idempotent
#: request (after reconnecting if need be) could succeed.  Everything
#: else is structural — the identical request would fail identically
#: forever — and a client must surface it instead of retrying.
#: ``DEADLINE`` is here because expiry measures transient load, not
#: the request; ``OVERLOADED`` is **not** — it is reserved for
#: requests that could never fit the server's whole budget.
RETRYABLE_CODES = frozenset({ERR_DEADLINE, ERR_RETRYABLE})

# The codes live here; ServingError.retryable consults them (the
# reverse assignment would invert the import direction).
ServingError.RETRYABLE_CODES = RETRYABLE_CODES

#: Largest encodable request deadline (the header field is u32).
MAX_DEADLINE_MS = 2**32 - 1

#: ``u32 length`` prefix framing each body.
_LENGTH = struct.Struct("<I")

#: Frame header: magic, version, type, flags, request_id, deadline_ms.
_HEADER = struct.Struct("<4sBBHII")

HEADER_BYTES = _HEADER.size  # 16

_U8, _U16, _U32 = (0, 2**8), (0, 2**16), (0, 2**32)

#: The allowed range of a reserved field: zero only.
_RESERVED = (0, 1)

_FULL_RANGES = {"B": _U8, "H": _U16, "I": _U32}


class _Layout:
    """One fixed-size payload header, declared once as data.

    ``fields`` are the header's ordered ``(field, struct code, allowed
    range)`` rows; a range is a half-open ``(lo, hi)`` (a reserved
    field admits only 0), or None for a float that its frame kind's own
    rule checks.  :meth:`pack` checks every field before packing, and
    :meth:`unpack` checks the frame type, the length and every range
    narrower than its struct code after unpacking — so an encoder
    cannot emit a header its parser rejects.  Range violations are
    :data:`ERR_BAD_FRAME`.
    """

    def __init__(self, name: str, frame_types: tuple, fields: tuple) -> None:
        self.name = name
        self.frame_types = frame_types
        self.fields = fields
        self.ranges = {field: bounds for field, _code, bounds in fields}
        self._struct = struct.Struct(
            "<" + "".join(code for _field, code, _bounds in fields)
        )
        self.size = self._struct.size
        self._checked = [
            (index, field, bounds)
            for index, (field, _code, bounds) in enumerate(fields)
            if bounds is not None
        ]
        self._narrow = [
            (index, field, bounds)
            for index, field, bounds in self._checked
            if bounds != _FULL_RANGES[fields[index][1]]
        ]

    def _check(self, bounded: list, values) -> None:
        for index, field, (lo, hi) in bounded:
            if not lo <= values[index] < hi:
                raise ProtocolError(
                    ERR_BAD_FRAME,
                    f"{self.name} field {field} is {values[index]}, "
                    f"outside [{lo}, {hi})",
                )

    def pack(self, *values) -> bytes:
        """The header holding ``values`` (in field order), each checked."""
        self._check(self._checked, values)
        return self._struct.pack(*values)

    def unpack(self, frame: Frame) -> tuple:
        """The header fields at the start of ``frame``'s payload."""
        if frame.frame_type not in self.frame_types:
            raise ProtocolError(
                ERR_BAD_TYPE,
                f"frame type 0x{frame.frame_type:02x} is not a {self.name}",
            )
        if len(frame.payload) < self.size:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"{self.name} payload truncated: {len(frame.payload)} "
                f"bytes < {self.size}-byte header",
            )
        values = self._struct.unpack_from(frame.payload)
        self._check(self._narrow, values)
        return values

    def check_length(self, frame: Frame, expected: int) -> None:
        """The payload must be exactly the ``expected`` bytes its header
        implies: truncation and trailing bytes are both malformed."""
        if len(frame.payload) != expected:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"{self.name} payload is {len(frame.payload)} bytes, "
                f"expected {expected}",
            )


_MODE_BY_TYPE = {FRAME_IDENTIFY: "identify", FRAME_MEMBERSHIP: "membership"}
_TYPE_BY_MODE = {mode: ftype for ftype, mode in _MODE_BY_TYPE.items()}

#: The mode field's codes; each header's range admits its own subset.
_MODE_CODES = {"identify": 1, "membership": 2, "logicnet": 3}
_MODE_BY_CODE = {code: mode for mode, code in _MODE_CODES.items()}

#: Request header, followed by ``n_wires`` rows of the bitset.
_REQUEST = _Layout(
    "request",
    tuple(_MODE_BY_TYPE),
    (
        ("n_wires", "I", (1, 2**32)),
        ("n_samples", "I", (1, 2**32)),
        ("dt", "d", None),
        ("start_slot", "I", _U32),
        ("limit", "I", _U32),
        ("n_shards", "H", _U16),
        ("reserved", "H", _RESERVED),
    ),
)

#: Corpus-query header, followed by ``name_len`` bytes of UTF-8 corpus
#: name.  No bitset.
_CORPUS_QUERY = _Layout(
    "corpus query",
    (FRAME_CORPUS_QUERY,),
    (
        ("mode", "B", (1, 3)),  # identify or membership
        ("reserved", "B", _RESERVED),
        ("name_len", "H", (1, 2**16)),
        ("row_start", "I", _U32),
        ("row_stop", "I", _U32),
        ("start_slot", "I", _U32),
        ("limit", "I", _U32),
        ("n_shards", "H", _U16),
        ("reserved", "H", _RESERVED),
    ),
)

#: Logicnet query: the whole payload — no bitset, no name; the family
#: rebuilds from the seed and the server's basis lines.
_LOGICNET_QUERY = _Layout(
    "logicnet query",
    (FRAME_LOGICNET,),
    (
        ("seed", "I", _U32),
        ("net_start", "I", _U32),
        ("net_stop", "I", _U32),
        ("n_gates", "I", (1, 2**32)),
        ("depth", "H", (1, 2**16)),
        ("n_shards", "H", _U16),
    ),
)

#: Result header, followed by the mode's :data:`RESULT_ARRAYS`.
_RESULT = _Layout(
    "result",
    (FRAME_RESULT,),
    (
        ("mode", "B", (1, 4)),  # identify, membership or logicnet
        ("residency", "B", _U8),
        ("reserved", "H", _RESERVED),
        ("row_start", "I", _U32),
        ("row_stop", "I", _U32),
        ("n_cols", "I", _U32),
        ("wall_seconds", "d", None),
    ),
)

#: Residency bits of the result header.
_RESIDENCY_BITS = (("packed", 0x01), ("csr", 0x02), ("raster", 0x04))

#: Wire dtype of a result field that travels as the row-wise
#: ``np.packbits`` of a boolean matrix.
_BITS = "bits"

#: Each result mode's arrays in wire order: ``(field, wire dtype,
#: ndim)``, where ``ndim`` 1 is one entry per row and 2 an
#: ``(n_rows, n_cols)`` matrix.  The result codecs, the server's
#: coalescer split and the client's reply merge all read this table.
RESULT_ARRAYS = {
    "identify": (
        ("elements", "<i4", 1),
        ("decision_slots", "<i8", 1),
        ("spikes_inspected", "<i8", 1),
    ),
    "membership": (("membership", _BITS, 2), ("first_slots", "<i8", 2)),
    "logicnet": (("popcounts", "<i8", 2), ("checksums", "<u8", 1)),
}


def result_dtype(wire: str) -> np.dtype:
    """The dtype a result field of wire dtype ``wire`` decodes to.

    Bits decode to ``bool``; every integer widens to 64 bits of its
    own kind.
    """
    return np.dtype(bool if wire == _BITS else wire[1] + "8")


#: :data:`RESULT_ARRAYS` resolved once for the codecs: ``(field, dtype
#: of the wire bytes, decoded dtype, ndim, packed bits?)``.
_RESULT_FORMS = {
    mode: tuple(
        (
            field,
            np.dtype(np.uint8 if wire == _BITS else wire),
            result_dtype(wire),
            ndim,
            wire == _BITS,
        )
        for field, wire, ndim in arrays
    )
    for mode, arrays in RESULT_ARRAYS.items()
}


@dataclass(frozen=True)
class Frame:
    """One decoded frame: header fields plus the raw payload bytes.

    ``payload`` is a read-only :class:`memoryview` over the frame body
    when decoded by :class:`FrameReader` (zero-copy — consumers like
    ``np.frombuffer`` and ``struct.unpack_from`` read it in place),
    but plain ``bytes`` are accepted anywhere a ``Frame`` is built by
    hand.
    """

    frame_type: int
    request_id: int
    payload: bytes
    flags: int = 0
    #: Request deadline in milliseconds (0: none); always 0 on
    #: response frames.
    deadline_ms: int = 0


@dataclass(frozen=True)
class Request:
    """A parsed request frame.

    ``packed`` is a read-only ``(n_wires, ceil(n_samples / 8))``
    ``uint8`` view of the frame's payload bytes — parsing allocates no
    array and copies nothing.
    """

    mode: str
    request_id: int
    packed: np.ndarray
    n_samples: int
    dt: float
    start_slot: int
    limit: Optional[int]
    n_shards: int
    #: Request deadline in milliseconds (0: none).  The budget starts
    #: when the server *parses* the frame — clocks are never compared
    #: across hosts.
    deadline_ms: int = 0

    @property
    def n_wires(self) -> int:
        """Number of wire rows in the payload."""
        return int(self.packed.shape[0])

    def grid(self) -> SimulationGrid:
        """The simulation grid the payload claims to live on."""
        return SimulationGrid(n_samples=self.n_samples, dt=self.dt)


@dataclass(frozen=True)
class CorpusQuery:
    """A parsed corpus-query frame.

    References rows the *server* already holds — the request ships a
    corpus name and a row range instead of a bitset, so its size is
    ~tens of bytes no matter how many wires it asks about.
    """

    mode: str
    request_id: int
    corpus: str
    row_start: int
    row_stop: int
    start_slot: int
    limit: Optional[int]
    n_shards: int
    #: Request deadline in milliseconds (0: none).
    deadline_ms: int = 0

    @property
    def n_wires(self) -> int:
        """Number of corpus rows the query covers."""
        return int(self.row_stop - self.row_start)


@dataclass(frozen=True)
class LogicNetQuery:
    """A parsed logicnet-query frame.

    Names networks ``[net_start, net_stop)`` of the deterministic
    random-network family keyed by ``(seed, n_gates, depth)`` — the
    server evaluates them against its hosted basis lines, rebuilding
    each shard's tables from `SeedSequence` spawn keys.  No bitset, no
    corpus: the whole request is the 20-byte query header.
    """

    request_id: int
    seed: int
    net_start: int
    net_stop: int
    n_gates: int
    depth: int
    n_shards: int
    #: Request deadline in milliseconds (0: none).
    deadline_ms: int = 0

    @property
    def n_networks(self) -> int:
        """Number of networks the query covers."""
        return int(self.net_stop - self.net_start)

    @property
    def mode(self) -> str:
        """The result mode this query's response frames carry."""
        return "logicnet"


def request_nbytes(n_wires: int, n_samples: int) -> int:
    """Total frame-body bytes of a request with the given dimensions."""
    return (
        HEADER_BYTES
        + _REQUEST.size
        + n_wires * packed_kernels.n_packed_bytes(n_samples)
    )


def _check_deadline_ms(deadline_ms: int) -> int:
    """Validate a request deadline for encoding."""
    deadline_ms = int(deadline_ms)
    if not (0 <= deadline_ms <= MAX_DEADLINE_MS):
        raise ProtocolError(
            ERR_BAD_FRAME, f"deadline_ms {deadline_ms} outside uint32"
        )
    return deadline_ms


def check_start_slot(start_slot: int, n_samples: int) -> None:
    """Reject a scan window that starts past a grid of ``n_samples``.

    The bitset request codecs and the server's corpus plan share this
    check, so a corpus query is rejected exactly like a bitset request
    shipping the same rows.
    """
    if start_slot > n_samples:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"start_slot {start_slot} outside grid of {n_samples} samples",
        )


def _check_dt(dt: float) -> None:
    """A grid's sample period must be finite and positive."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ProtocolError(ERR_BAD_FRAME, f"impossible grid: dt={dt}")


def _check_range(layout: _Layout, start: int, stop: int) -> None:
    """A query's ``[start, stop)`` range must hold at least one row."""
    if stop <= start:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"a {layout.name} needs a non-empty range, got [{start}, {stop})",
        )


def _mode_code(layout: _Layout, mode: str) -> int:
    """``mode``'s wire code, if ``layout``'s mode field admits it."""
    code = _MODE_CODES.get(mode, 0)
    lo, hi = layout.ranges["mode"]
    if not lo <= code < hi:
        raise ProtocolError(
            ERR_BAD_TYPE, f"unknown {layout.name} mode {mode!r}"
        )
    return code


def _frame_head(
    frame_type: int, request_id: int, n_payload: int, deadline_ms: int = 0
) -> bytes:
    """Length prefix and frame header of a frame with ``n_payload`` bytes."""
    if not (0 <= request_id < 2**32):
        raise ProtocolError(
            ERR_BAD_FRAME, f"request_id {request_id} outside uint32"
        )
    deadline_ms = _check_deadline_ms(deadline_ms)
    return _LENGTH.pack(HEADER_BYTES + n_payload) + _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, frame_type, 0, request_id, deadline_ms
    )


def encode_frame(
    frame_type: int,
    request_id: int,
    payload: bytes,
    *,
    deadline_ms: int = 0,
) -> bytes:
    """Assemble one length-prefixed frame from its parts."""
    head = _frame_head(frame_type, request_id, len(payload), deadline_ms)
    return head + payload


def encode_request_parts(
    packed: np.ndarray,
    n_samples: int,
    dt: float,
    *,
    mode: str = "identify",
    start_slot: int = 0,
    limit: Optional[int] = None,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> List[memoryview]:
    """Encode one request frame as ``[prefix, bitset]`` buffer parts.

    The zero-copy flavour of :func:`encode_request`: the first part is
    the length prefix + frame header + request header, the second a
    read-only view of the caller's bitset — nothing is concatenated, so
    a client can hand both straight to ``socket.sendmsg`` /
    ``StreamWriter.writelines`` without ever copying the payload.
    ``packed`` must already be the ``(N, ceil(n_samples / 8))``
    ``uint8`` transport form (e.g.
    :meth:`~repro.backend.batch.SpikeTrainBatch.packbits`).  ``n_shards``
    0 asks the server to use its own default; ``limit`` bounds a
    membership scan (None: the whole grid); ``deadline_ms`` asks the
    server to abandon the request once that many milliseconds have
    passed since it parsed the frame (0: no deadline).
    """
    if mode not in _TYPE_BY_MODE:
        raise ProtocolError(ERR_BAD_TYPE, f"unknown request mode {mode!r}")
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    n_bytes = packed_kernels.n_packed_bytes(n_samples)
    if packed.ndim != 2 or packed.shape[1] != n_bytes:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"packed shape {packed.shape} does not match "
            f"(N, {n_bytes}) for {n_samples} samples",
        )
    dt = float(dt)
    _check_dt(dt)
    check_start_slot(start_slot, n_samples)
    body = _REQUEST.pack(
        packed.shape[0], n_samples, dt, start_slot,
        LIMIT_FULL if limit is None else int(limit), n_shards, 0,
    )
    head = _frame_head(
        _TYPE_BY_MODE[mode], request_id, len(body) + packed.nbytes,
        deadline_ms,
    )
    return [memoryview(head + body), memoryview(packed).cast("B").toreadonly()]


def encode_request(
    packed: np.ndarray,
    n_samples: int,
    dt: float,
    *,
    mode: str = "identify",
    start_slot: int = 0,
    limit: Optional[int] = None,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> bytes:
    """Encode one request frame around an ``np.packbits`` bitset.

    One contiguous ``bytes`` built from the same parts as
    :func:`encode_request_parts` (which transports avoiding the payload
    copy should prefer).
    """
    return b"".join(
        encode_request_parts(
            packed,
            n_samples,
            dt,
            mode=mode,
            start_slot=start_slot,
            limit=limit,
            n_shards=n_shards,
            request_id=request_id,
            deadline_ms=deadline_ms,
        )
    )


def parse_request(frame: Frame) -> Request:
    """Parse (and validate) one request frame.

    Rejects truncated payloads, trailing bytes, zero-wire requests and
    impossible grids — the exact payload length is implied by the
    request header, so any mismatch is :data:`ERR_BAD_FRAME`.
    """
    n_wires, n_samples, dt, start_slot, limit, n_shards, _reserved = (
        _REQUEST.unpack(frame)
    )
    _check_dt(dt)
    check_start_slot(start_slot, n_samples)
    n_bytes = packed_kernels.n_packed_bytes(n_samples)
    _REQUEST.check_length(frame, _REQUEST.size + n_wires * n_bytes)
    packed = np.frombuffer(
        frame.payload, dtype=np.uint8, offset=_REQUEST.size
    ).reshape(n_wires, n_bytes)
    return Request(
        mode=_MODE_BY_TYPE[frame.frame_type],
        request_id=frame.request_id,
        packed=packed,
        n_samples=n_samples,
        dt=dt,
        start_slot=start_slot,
        limit=None if limit == LIMIT_FULL else limit,
        n_shards=n_shards,
        deadline_ms=frame.deadline_ms,
    )


def encode_corpus_query(
    corpus: str,
    row_start: int,
    row_stop: int,
    *,
    mode: str = "identify",
    start_slot: int = 0,
    limit: Optional[int] = None,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> bytes:
    """Encode one corpus-query frame.

    Asks the server to run ``mode`` over rows ``[row_start, row_stop)``
    of the corpus it hosts under ``corpus`` — the payload carries no
    bitset, only the 24-byte query header plus the corpus name, so the
    request costs the same few dozen bytes whether it covers ten rows
    or a million.  ``n_shards`` 0 lets the server chunk by its own
    configured window; ``limit`` bounds a membership scan.
    """
    code = _mode_code(_CORPUS_QUERY, mode)
    name = str(corpus).encode("utf-8")
    row_start, row_stop = int(row_start), int(row_stop)
    _check_range(_CORPUS_QUERY, row_start, row_stop)
    body = _CORPUS_QUERY.pack(
        code, 0, len(name), row_start, row_stop, start_slot,
        LIMIT_FULL if limit is None else int(limit), n_shards, 0,
    )
    return encode_frame(
        FRAME_CORPUS_QUERY, request_id, body + name, deadline_ms=deadline_ms
    )


def parse_corpus_query(frame: Frame) -> CorpusQuery:
    """Parse (and validate) one corpus-query frame.

    The exact payload length is implied by the query header's
    ``name_len``, so truncation and trailing bytes are both
    :data:`ERR_BAD_FRAME`; whether the named corpus exists (and whether
    the range fits it) is the server's call, not the parser's.
    """
    (
        code, _reserved, name_len, row_start, row_stop,
        start_slot, limit, n_shards, _reserved,
    ) = _CORPUS_QUERY.unpack(frame)
    _CORPUS_QUERY.check_length(frame, _CORPUS_QUERY.size + name_len)
    _check_range(_CORPUS_QUERY, row_start, row_stop)
    try:
        corpus = bytes(frame.payload[_CORPUS_QUERY.size :]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            ERR_BAD_FRAME, f"undecodable corpus name: {exc}"
        ) from None
    return CorpusQuery(
        mode=_MODE_BY_CODE[code],
        request_id=frame.request_id,
        corpus=corpus,
        row_start=row_start,
        row_stop=row_stop,
        start_slot=start_slot,
        limit=None if limit == LIMIT_FULL else limit,
        n_shards=n_shards,
        deadline_ms=frame.deadline_ms,
    )


def encode_logicnet_query(
    seed: int,
    net_start: int,
    net_stop: int,
    *,
    n_gates: int,
    depth: int,
    n_shards: int = 0,
    request_id: int = 0,
    deadline_ms: int = 0,
) -> bytes:
    """Encode one logicnet-query frame.

    Asks the server to evaluate networks ``[net_start, net_stop)`` of
    the family ``(seed, n_gates, depth)`` against its hosted basis —
    the request is 20 bytes of query header, nothing else.
    ``n_shards`` 0 lets the server pick its configured split.
    """
    net_start, net_stop = int(net_start), int(net_stop)
    _check_range(_LOGICNET_QUERY, net_start, net_stop)
    body = _LOGICNET_QUERY.pack(
        int(seed), net_start, net_stop, int(n_gates), int(depth), int(n_shards)
    )
    return encode_frame(
        FRAME_LOGICNET, request_id, body, deadline_ms=deadline_ms
    )


def parse_logicnet_query(frame: Frame) -> LogicNetQuery:
    """Parse (and validate) one logicnet-query frame.

    The payload is exactly the 20-byte query header; truncation and
    trailing bytes are both :data:`ERR_BAD_FRAME`.  Whether the range
    and shape fit the server's limits is the server's call.
    """
    seed, net_start, net_stop, n_gates, depth, n_shards = (
        _LOGICNET_QUERY.unpack(frame)
    )
    _LOGICNET_QUERY.check_length(frame, _LOGICNET_QUERY.size)
    _check_range(_LOGICNET_QUERY, net_start, net_stop)
    return LogicNetQuery(
        request_id=frame.request_id,
        seed=seed,
        net_start=net_start,
        net_stop=net_stop,
        n_gates=n_gates,
        depth=depth,
        n_shards=n_shards,
        deadline_ms=frame.deadline_ms,
    )


def encode_ping(request_id: int = 0) -> bytes:
    """Encode one PING health probe (answered with a JSON PONG).

    An empty payload by design: the cheapest possible liveness
    round-trip for load-balancer probes — no compute, no pool.
    """
    return encode_frame(FRAME_PING, request_id, b"")


def encode_json_frame(frame_type: int, request_id: int, obj) -> bytes:
    """Encode one response frame whose payload is UTF-8 JSON."""
    if frame_type not in _JSON_RESPONSE_TYPES:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame_type:02x} is not a JSON response",
        )
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return encode_frame(frame_type, request_id, payload)


def parse_json_frame(frame: Frame) -> dict:
    """Decode a response frame's JSON payload."""
    if frame.frame_type not in _JSON_RESPONSE_TYPES:
        raise ProtocolError(
            ERR_BAD_TYPE,
            f"frame type 0x{frame.frame_type:02x} is not a JSON response",
        )
    try:
        obj = json.loads(bytes(frame.payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            ERR_BAD_FRAME, f"undecodable JSON payload: {exc}"
        ) from None
    if not isinstance(obj, dict):
        raise ProtocolError(ERR_BAD_FRAME, "response payload must be an object")
    return obj


def encode_result_frame(
    request_id: int,
    payload: dict,
    *,
    mode: str,
) -> bytes:
    """Encode one shard result as a binary ``FRAME_RESULT``.

    ``payload`` is a :func:`~repro.serving.dispatch.compute_shard`
    payload: ``row_start``/``row_stop``/``wall_seconds``/``residency``
    plus the mode's :data:`RESULT_ARRAYS`, which follow the result
    header in table order as little-endian buffers (membership as the
    ``np.packbits`` rows of the boolean matrix).  The row range counts
    wires (logicnet: networks), and ``n_cols`` is the column count of
    the mode's matrices (membership: M; logicnet: G; identify: 0).
    No JSON, no Python lists — the arrays' own buffers are the
    payload.
    """
    code = _mode_code(_RESULT, mode)
    row_start = int(payload["row_start"])
    row_stop = int(payload["row_stop"])
    n_cols = None  # set by the mode's first matrix
    blobs = []
    for field, wire, decoded, ndim, bits in _RESULT_FORMS[mode]:
        array = np.ascontiguousarray(payload[field], decoded if bits else wire)
        if ndim == 2 and n_cols is None:
            n_cols = array.shape[1] if array.ndim == 2 else 0
        if array.shape != (row_stop - row_start, n_cols)[:ndim]:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"{mode} array {field} {array.shape} does not match "
                f"rows [{row_start}, {row_stop})",
            )
        blobs.append(np.packbits(array, axis=1) if bits else array)
    residency = payload.get("residency", {})
    header = _RESULT.pack(
        code,
        sum(bit for name, bit in _RESIDENCY_BITS if residency.get(name)),
        0,
        row_start,
        row_stop,
        n_cols or 0,
        float(payload.get("wall_seconds", 0.0)),
    )
    n_payload = len(header) + sum(blob.nbytes for blob in blobs)
    return b"".join(
        [_frame_head(FRAME_RESULT, request_id, n_payload), header, *blobs]
    )


def parse_result_frame(frame: Frame) -> dict:
    """Decode one binary result frame into a shard-payload dict.

    The inverse of :func:`encode_result_frame`: the returned dict
    carries the :func:`~repro.serving.dispatch.compute_shard` payload
    keys — each of the mode's :data:`RESULT_ARRAYS` as a NumPy array
    of its :func:`result_dtype`.
    """
    code, residency, _reserved, row_start, row_stop, n_cols, wall = (
        _RESULT.unpack(frame)
    )
    mode = _MODE_BY_CODE[code]
    if row_stop < row_start:
        raise ProtocolError(
            ERR_BAD_FRAME, f"impossible row range [{row_start}, {row_stop})"
        )
    if mode == "identify" and n_cols != 0:
        raise ProtocolError(
            ERR_BAD_FRAME, "identify results carry no column count"
        )
    n_rows = row_stop - row_start
    spans = []  # (field, wire dtype, decoded dtype, bits, shape, offset)
    offset = _RESULT.size
    for field, wire, decoded, ndim, bits in _RESULT_FORMS[mode]:
        shape = (n_rows, -(-n_cols // 8)) if bits else (n_rows, n_cols)[:ndim]
        spans.append((field, wire, decoded, bits, shape, offset))
        offset += math.prod(shape) * wire.itemsize
    _RESULT.check_length(frame, offset)
    payload = {
        "kind": "shard",
        "row_start": row_start,
        "row_stop": row_stop,
        "wall_seconds": wall,
        "residency": {
            name: bool(residency & bit) for name, bit in _RESIDENCY_BITS
        },
    }
    for field, wire, decoded, bits, shape, at in spans:
        array = np.frombuffer(frame.payload, wire, math.prod(shape), at)
        if len(shape) == 2:
            array = array.reshape(shape)
        payload[field] = (
            np.unpackbits(array, axis=1, count=n_cols).astype(bool)
            if bits
            else array.astype(decoded, copy=False)
        )
    return payload


def encode_stats_request(request_id: int = 0) -> bytes:
    """Encode one STATS request (answered with JSON).

    The payload is empty.  A server ignores any STATS payload and
    always answers with its own snapshot.
    """
    return encode_frame(FRAME_STATS, request_id, b"")


def encode_error(request_id: int, code: int, message: str) -> bytes:
    """Encode one error frame (JSON ``{code, error, message}``)."""
    return encode_json_frame(
        FRAME_ERROR,
        request_id,
        {
            "code": int(code),
            "error": ERROR_NAMES.get(int(code), "UNKNOWN"),
            "message": str(message),
        },
    )


class FrameReader:
    """Incremental frame decoder over a byte stream.

    Feed it whatever the transport delivers; it buffers partial frames
    and returns each complete :class:`Frame` exactly once.  Framing
    violations (bad magic, a version other than
    :data:`PROTOCOL_VERSION`, nonzero flags, a declared length below
    the header size or above
    ``max_frame_bytes``) raise :class:`~repro.errors.ProtocolError`
    immediately — after a framing error the stream boundary is lost and
    the connection must be dropped, which is why these are errors and
    not skipped frames.

    Bytes arrive one way: the transport (``asyncio.BufferedProtocol``,
    ``socket.recv_into``) reads into :meth:`get_buffer`'s memory and
    reports the count to :meth:`buffer_updated`; :meth:`feed` is the
    same pair with a copy loop in front.  Each reader owns one
    ``_SCRATCH_BYTES`` (64 KiB) window, and apart from a partial
    frame's move to the window's start, a frame is copied at most once
    on its way in:

    * a frame that completes inside the window is cut out with one
      exact-size copy, and its payload is a read-only view of that copy;
    * a partial frame that fits the window moves to the window's start
      and completes there;
    * a partial frame larger than the window moves into its own
      exact-size buffer, and :meth:`get_buffer` exposes that buffer's
      unfilled tail, so the rest of the frame lands **in place** — a
      large request reaches ``np.frombuffer`` with no user-space copy
      beyond the window's first read, and the kernel drains it in
      frame-sized reads.

    A reader therefore holds at most its window plus one frame.
    """

    _SCRATCH_BYTES = 64 * 1024

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < HEADER_BYTES:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"max_frame_bytes must be >= {HEADER_BYTES}, "
                f"got {max_frame_bytes}",
            )
        self.max_frame_bytes = int(max_frame_bytes)
        self._poisoned: Optional[ProtocolError] = None
        self._window = bytearray(self._SCRATCH_BYTES)
        #: The exact-size buffer of a frame larger than the window.
        self._assembly: Optional[bytearray] = None
        #: Bytes of the pending partial frame in the current buffer.
        self._filled = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return self._filled

    @property
    def pending_error(self) -> Optional["ProtocolError"]:
        """The deferred framing error, if the stream is poisoned.

        Set when :meth:`feed` or :meth:`buffer_updated` swallowed a
        violation to hand back the frames completed before it;
        consumers that want to fail fast (the server answers the error
        without waiting for more bytes) check this after draining a
        chunk's frames.
        """
        return self._poisoned

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every frame it completed.

        When a chunk completes good frames *and then* hits a framing
        violation, the good frames are returned first and the error is
        raised by the next call — a pipelining peer's valid requests
        must not vanish because a later frame in the same TCP segment
        was corrupt.
        """
        if self._poisoned is not None:
            raise self._poisoned
        data = memoryview(data).cast("B")
        frames: List[Frame] = []
        cursor = 0
        while True:
            view = self.get_buffer()
            n = min(len(view), len(data) - cursor)
            view[:n] = data[cursor : cursor + n]
            cursor += n
            try:
                frames.extend(self.buffer_updated(n))
            except ProtocolError as exc:
                if not frames:
                    raise
                self._poisoned = exc
            if cursor == len(data) or self._poisoned is not None:
                return frames

    def _frame_from_body(self, body: memoryview) -> Frame:
        """Validate one complete prefix+header+payload body into a Frame."""
        magic, version, frame_type, flags, request_id, deadline_ms = (
            _HEADER.unpack_from(body, _LENGTH.size)
        )
        if magic != MAGIC:
            raise ProtocolError(
                ERR_BAD_MAGIC, f"bad magic {magic!r} (expected {MAGIC!r})"
            )
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                ERR_BAD_VERSION,
                f"unsupported protocol version {version} "
                f"(this build speaks {PROTOCOL_VERSION})",
            )
        if flags != 0:
            raise ProtocolError(ERR_BAD_FRAME, "header flags must be zero")
        return Frame(
            frame_type=frame_type,
            request_id=request_id,
            payload=body[_LENGTH.size + HEADER_BYTES :].toreadonly(),
            flags=flags,
            deadline_ms=deadline_ms,
        )

    def _declared_total(self, held: memoryview) -> Optional[int]:
        """Prefix plus declared length of the frame ``held`` starts, or
        None while its length prefix is incomplete."""
        if len(held) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(held)
        if length < HEADER_BYTES:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"declared frame length {length} is below the "
                f"{HEADER_BYTES}-byte header",
            )
        if length > self.max_frame_bytes:
            raise ProtocolError(
                ERR_FRAME_TOO_LARGE,
                f"declared frame length {length} exceeds the "
                f"{self.max_frame_bytes}-byte cap",
            )
        return _LENGTH.size + length

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """Writable memory for the transport's next ``recv_into``.

        Mid-assembly of a large frame this is the unfilled tail of that
        frame's exact-size buffer (the payload lands in place);
        otherwise it is the window after the partial frame it holds.
        """
        buffer = self._window if self._assembly is None else self._assembly
        return memoryview(buffer)[self._filled :]

    def buffer_updated(self, nbytes: int) -> List[Frame]:
        """Account ``nbytes`` written into :meth:`get_buffer`'s memory.

        Returns every frame completed, with :meth:`feed`'s
        poison-and-defer semantics: frames completed before a violation
        are returned and the violation is raised by the next call.
        """
        if self._poisoned is not None:
            raise self._poisoned
        self._filled += nbytes
        if self._assembly is not None:
            if self._filled < len(self._assembly):
                return []
            body = memoryview(self._assembly)
            self._assembly = None
            self._filled = 0
            return [self._frame_from_body(body)]
        window = memoryview(self._window)
        frames: List[Frame] = []
        start = 0
        try:
            while True:
                total = self._declared_total(window[start : self._filled])
                if total is None or start + total > self._filled:
                    break
                body = memoryview(bytes(window[start : start + total]))
                frames.append(self._frame_from_body(body))
                start += total
        except ProtocolError as exc:
            self._filled = 0  # past a violation no boundary is known
            if not frames:
                raise
            self._poisoned = exc
            return frames
        held = self._filled - start
        if total is not None and total > len(window):
            # Copied view to view: a bytearray slice assignment would
            # first copy the view into a temporary bytearray.
            self._assembly = bytearray(total)
            memoryview(self._assembly)[:held] = window[start : self._filled]
        elif start:
            window[:held] = window[start : self._filled]
        self._filled = held
        return frames
