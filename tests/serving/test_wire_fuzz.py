"""Seeded fuzzing of the one wire format, offline and against a live server.

Each example starts from a valid frame of one request type (IDENTIFY,
MEMBERSHIP, CORPUS_QUERY, LOGICNET, STATS, PING) and applies one
mutation: truncate it, rewrite its length prefix, change its version,
type or flags byte, or overwrite one payload ``u32`` with 0, 1, 2**31
or 2**32-1.

* Fed to :class:`~repro.serving.protocol.FrameReader` and the
  original type's parser, the only allowed outcomes are a parsed value
  or a :class:`~repro.errors.ProtocolError`.
* Sent on a fresh connection to a live server, every reply must end in
  DONE, PONG, STATS_REPLY or an ERROR whose code is not ``INTERNAL``,
  and the connection must close within 10 s of the client's half-close.

Afterwards the server still answers STATS and its in-flight byte
budget is back at zero.
"""

import socket
import time

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.pipeline.corpus import CorpusStore
from repro.serving import protocol
from repro.serving.client import ServingClient
from repro.serving.server import (
    ServerConfig,
    ServerThread,
    build_serving_basis,
)
from repro.units import paper_white_grid

SMALL = dict(n_samples=256, basis_size=8, source_isi_samples=16, seed=7)
CORPUS_ROWS = 8
U32_VALUES = (0, 1, 2**31, 2**32 - 1)
#: Offsets of the version, type and two flags bytes on the wire.
HEADER_BYTE_OFFSETS = (8, 9, 10, 11)
PAYLOAD_OFFSET = 4 + protocol.HEADER_BYTES

TERMINAL = {
    protocol.FRAME_DONE,
    protocol.FRAME_PONG,
    protocol.FRAME_STATS_REPLY,
    protocol.FRAME_ERROR,
}

PARSERS = {
    "identify": protocol.parse_request,
    "membership": protocol.parse_request,
    "corpus": protocol.parse_corpus_query,
    "logicnet": protocol.parse_logicnet_query,
    "stats": protocol.stats_scope,
    "stats-scoped": protocol.stats_scope,
    "ping": lambda frame: None,
}


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    """A live server hosting an 8-row corpus, plus one valid frame per kind."""
    basis = build_serving_basis(ServerConfig(**SMALL))
    root = tmp_path_factory.mktemp("fuzz") / "library"
    store = CorpusStore.create(root, paper_white_grid(SMALL["n_samples"]))
    with store.writer() as writer:
        writer.append(basis.as_batch().select_rows(np.arange(CORPUS_ROWS)))
    wires = basis.as_batch().select_rows([1, 5])
    grid = wires.grid
    valid = {
        "identify": protocol.encode_request(
            wires.packbits(), grid.n_samples, grid.dt, request_id=1
        ),
        "membership": protocol.encode_request(
            wires.packbits(), grid.n_samples, grid.dt, mode="membership",
            limit=200, request_id=2,
        ),
        "corpus": protocol.encode_corpus_query(
            "library", 2, 6, start_slot=3, request_id=3
        ),
        "logicnet": protocol.encode_logicnet_query(
            21, 0, 1, n_gates=2, depth=1, request_id=4
        ),
        "stats": protocol.encode_stats_request(5),
        "stats-scoped": protocol.encode_stats_request(6, scope="local"),
        "ping": protocol.encode_ping(7),
    }
    config = ServerConfig(
        jobs=1, corpus=str(root), max_inflight_bytes=1 << 20, **SMALL
    )
    with ServerThread(config) as handle:
        yield handle, valid


@st.composite
def mutations(draw, valid):
    """``(kind, mutated bytes)`` of one valid frame and one mutation."""
    kind = draw(st.sampled_from(sorted(valid)))
    wire = bytearray(valid[kind])
    how = draw(st.sampled_from(["truncate", "length", "header", "payload"]))
    if how == "truncate":
        del wire[draw(st.integers(0, len(wire) - 1)):]
    elif how == "length":
        length = draw(st.sampled_from(U32_VALUES) | st.integers(0, 2**32 - 1))
        wire[0:4] = length.to_bytes(4, "little")
    elif how == "header":
        offset = draw(st.sampled_from(HEADER_BYTE_OFFSETS))
        wire[offset] = draw(st.integers(0, 255).filter(
            lambda value: value != wire[offset]
        ))
    else:
        n_words = (len(wire) - PAYLOAD_OFFSET) // 4
        if n_words:
            at = PAYLOAD_OFFSET + 4 * draw(st.integers(0, n_words - 1))
            value = draw(st.sampled_from(U32_VALUES))
            wire[at : at + 4] = value.to_bytes(4, "little")
    return kind, bytes(wire)


def decode_offline(kind, wire):
    """Reader plus parser: a value or a ProtocolError, nothing else."""
    reader = protocol.FrameReader()
    try:
        frames = reader.feed(wire)
    except ProtocolError:
        return
    for frame in frames:
        try:
            PARSERS[kind](frame)
        except ProtocolError:
            pass


def exchange(host, port, wire):
    """Send ``wire`` on a fresh connection, half-close, read to EOF."""
    received = bytearray()
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(wire)
        sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + 10.0
        while True:
            assert time.monotonic() < deadline, "no close within 10 s"
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    reader = protocol.FrameReader()
    frames = reader.feed(bytes(received))
    assert reader.buffered_bytes == 0
    return frames


def test_mutated_frames_get_typed_answers(fuzz_server):
    handle, valid = fuzz_server

    @settings(
        derandomize=True, database=None, max_examples=200, deadline=None
    )
    @given(mutations(valid))
    def check(case):
        kind, wire = case
        decode_offline(kind, wire)
        last = {}
        for frame in exchange(handle.host, handle.port, wire):
            assert frame.frame_type in TERMINAL | {protocol.FRAME_RESULT}
            if frame.frame_type == protocol.FRAME_ERROR:
                error = protocol.parse_json_frame(frame)
                assert error["code"] != protocol.ERR_INTERNAL, error
            last[frame.request_id] = frame.frame_type
        assert set(last.values()) <= TERMINAL

    check()
    with ServingClient(handle.host, handle.port) as client:
        assert client.stats()["kind"] == "stats"
    # A budget release follows its DONE frame; give the last one a moment.
    deadline = time.monotonic() + 10.0
    while handle.server._budget.in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert handle.server._budget.in_flight == 0
