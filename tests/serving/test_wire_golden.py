"""Golden bytes of every protocol-5 frame kind.

Round-trip tests cannot catch an encoder and a decoder drifting
together; these pin the exact bytes each encoder emits, one case per
frame kind a client or server puts on the wire: the request frames
(IDENTIFY, MEMBERSHIP with a ``limit``, a request carrying
``deadline_ms``, CORPUS_QUERY, LOGICNET, STATS, PING), the binary
RESULT frame in each of its three modes, and the JSON DONE, PONG and
request-scoped ERROR frames.

Each pinned value is spelled field by field (``bytes.fromhex`` skips
the spaces): the ``u32`` length prefix, then the 16-byte frame header
``magic | version | type | flags | request_id | deadline_ms``, then
the payload.  JSON payloads are pinned as the literal UTF-8 they are.
"""

import numpy as np
import pytest

from repro.serving import protocol

#: A deterministic 2-wire bitset on a 64-slot grid (8 bytes per wire).
BITS = (np.arange(16, dtype=np.int64) * 37 % 251).astype(np.uint8).reshape(2, 8)
BITS_HEX = "00254a6f94b9de08 2d52779cc1e61035"

PACKED_ONLY = {"packed": True, "csr": False, "raster": False}

#: name → (encoder call, pinned hex, pinned JSON payload or None).
GOLDEN = {
    "identify": (
        lambda: protocol.encode_request(BITS, 64, 1e-9, request_id=1),
        "3c000000 52455042 05 01 0000 01000000 00000000"
        " 02000000 40000000 95d626e80b2e113e 00000000 ffffffff 0000 0000 "
        + BITS_HEX,
        None,
    ),
    "membership-limit": (
        lambda: protocol.encode_request(
            BITS, 64, 1e-9, mode="membership", start_slot=3, limit=40,
            n_shards=2, request_id=2,
        ),
        "3c000000 52455042 05 02 0000 02000000 00000000"
        " 02000000 40000000 95d626e80b2e113e 03000000 28000000 0200 0000 "
        + BITS_HEX,
        None,
    ),
    "deadline": (
        lambda: protocol.encode_request(
            BITS[:1], 64, 1e-9, request_id=3, deadline_ms=1500
        ),
        "34000000 52455042 05 01 0000 03000000 dc050000"
        " 01000000 40000000 95d626e80b2e113e 00000000 ffffffff 0000 0000"
        " 00254a6f94b9de08",
        None,
    ),
    "corpus-query": (
        lambda: protocol.encode_corpus_query(
            "library", 5, 55, mode="membership", start_slot=7, limit=123,
            n_shards=4, request_id=4,
        ),
        "2f000000 52455042 05 03 0000 04000000 00000000"
        " 02 00 0700 05000000 37000000 07000000 7b000000 0400 0000"
        " 6c696272617279",
        None,
    ),
    "logicnet": (
        lambda: protocol.encode_logicnet_query(
            21, 2, 12, n_gates=6, depth=3, n_shards=3, request_id=5
        ),
        "24000000 52455042 05 04 0000 05000000 00000000"
        " 15000000 02000000 0c000000 06000000 0300 0300",
        None,
    ),
    "stats": (
        lambda: protocol.encode_stats_request(6),
        "10000000 52455042 05 10 0000 06000000 00000000",
        None,
    ),
    "ping": (
        lambda: protocol.encode_ping(8),
        "10000000 52455042 05 11 0000 08000000 00000000",
        None,
    ),
    "result-identify": (
        lambda: protocol.encode_result_frame(
            9,
            dict(
                row_start=4, row_stop=7, wall_seconds=0.125,
                residency=PACKED_ONLY,
                elements=np.array([3, -1, 0]),
                decision_slots=np.array([17, -1, 4095]),
                spikes_inspected=np.array([2, 40, 9]),
            ),
            mode="identify",
        ),
        "64000000 52455042 05 83 0000 09000000 00000000"
        " 01 01 0000 04000000 07000000 00000000 000000000000c03f"
        " 03000000 ffffffff 00000000"
        " 1100000000000000 ffffffffffffffff ff0f000000000000"
        " 0200000000000000 2800000000000000 0900000000000000",
        None,
    ),
    "result-membership": (
        lambda: protocol.encode_result_frame(
            10,
            dict(
                row_start=0, row_stop=2, wall_seconds=0.5,
                residency={"packed": True, "csr": True, "raster": False},
                membership=np.array([[True, False, True],
                                     [False, False, True]]),
                first_slots=np.array([[5, -1, 9], [-1, -1, 63]]),
            ),
            mode="membership",
        ),
        "5a000000 52455042 05 83 0000 0a000000 00000000"
        " 02 03 0000 00000000 02000000 03000000 000000000000e03f"
        " a0 20"
        " 0500000000000000 ffffffffffffffff 0900000000000000"
        " ffffffffffffffff ffffffffffffffff 3f00000000000000",
        None,
    ),
    "result-logicnet": (
        lambda: protocol.encode_result_frame(
            11,
            dict(
                row_start=2, row_stop=4, wall_seconds=0.25,
                residency=PACKED_ONLY,
                popcounts=np.array([[1, 2], [30, 0]]),
                checksums=np.array([0xDEADBEEF, 2**64 - 1], dtype=np.uint64),
            ),
            mode="logicnet",
        ),
        "58000000 52455042 05 83 0000 0b000000 00000000"
        " 03 01 0000 02000000 04000000 02000000 000000000000d03f"
        " 0100000000000000 0200000000000000"
        " 1e00000000000000 0000000000000000"
        " efbeadde00000000 ffffffffffffffff",
        None,
    ),
    "done": (
        lambda: protocol.encode_json_frame(
            protocol.FRAME_DONE,
            12,
            {"kind": "done", "mode": "identify", "n_wires": 2,
             "n_shards": 1, "transport": "fast-path"},
        ),
        "62000000 52455042 05 82 0000 0c000000 00000000",
        b'{"kind":"done","mode":"identify","n_wires":2,"n_shards":1,'
        b'"transport":"fast-path"}',
    ),
    "pong": (
        lambda: protocol.encode_json_frame(
            protocol.FRAME_PONG,
            13,
            {"kind": "pong", "ready": True, "protocol_version": 5,
             "corpus": None, "corpus_rows": None},
        ),
        "62000000 52455042 05 85 0000 0d000000 00000000",
        b'{"kind":"pong","ready":true,"protocol_version":5,'
        b'"corpus":null,"corpus_rows":null}',
    ),
    "error": (
        lambda: protocol.encode_error(14, protocol.ERR_BAD_GRID, "wrong grid"),
        "44000000 52455042 05 ff 0000 0e000000 00000000",
        b'{"code":6,"error":"BAD_GRID","message":"wrong grid"}',
    ),
}


def pinned(name: str) -> bytes:
    _encode, hex_fields, json_payload = GOLDEN[name]
    return bytes.fromhex(hex_fields) + (json_payload or b"")


@pytest.mark.parametrize("name", list(GOLDEN))
def test_encoder_emits_the_pinned_bytes(name):
    encode = GOLDEN[name][0]
    assert encode() == pinned(name)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_pinned_bytes_decode_as_one_frame(name):
    wire = pinned(name)
    (frame,) = protocol.FrameReader().feed(wire)
    assert frame.frame_type == wire[9]
    assert frame.request_id == int.from_bytes(wire[12:16], "little")
    assert frame.deadline_ms == int.from_bytes(wire[16:20], "little")
    assert bytes(frame.payload) == wire[20:]


def test_request_parts_join_to_the_pinned_bytes():
    parts = protocol.encode_request_parts(BITS, 64, 1e-9, request_id=1)
    assert b"".join(bytes(part) for part in parts) == pinned("identify")
