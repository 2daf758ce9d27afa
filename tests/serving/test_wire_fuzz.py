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

The same mutations of the three golden RESULT frames (one per result
mode, pinned in ``test_wire_golden.py``) must decode to a payload or
raise :class:`~repro.errors.ProtocolError` in ``parse_result_frame``.

Streams of frames sized around the reader's window and cap, one of
them possibly corrupt, fed in drawn chunkings through ``feed`` and
through ``get_buffer``/``buffer_updated``, must split exactly as a slow
reference that holds the whole stream in memory does.
"""

import itertools
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

from .test_wire_golden import pinned

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
    "stats": lambda frame: None,
    "stats-scoped": lambda frame: None,
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
        "stats-scoped": protocol.encode_frame(
            protocol.FRAME_STATS, 6, b'{"scope":"local"}'
        ),
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


def test_mutated_result_frames_get_typed_answers():
    results = {
        name: pinned(name)
        for name in ("result-identify", "result-membership", "result-logicnet")
    }

    @settings(
        derandomize=True, database=None, max_examples=1000, deadline=None
    )
    @given(mutations(results))
    def check(case):
        _kind, wire = case
        try:
            frames = protocol.FrameReader().feed(wire)
        except ProtocolError:
            return
        for frame in frames:
            try:
                protocol.parse_result_frame(frame)
            except ProtocolError:
                pass

    check()


WINDOW = protocol.FrameReader._SCRATCH_BYTES
#: The cap of the readers split against the reference: above twice the
#: window, small enough to draw quickly.
CAP = 3 * WINDOW
#: Declared lengths (header plus payload) at the edges: a wire frame
#: (length prefix included) one byte short of the window, equal to it,
#: one byte over and twice it; an empty payload; the cap and one byte
#: over it.
EDGE_LENGTHS = (
    WINDOW - 5,
    WINDOW - 4,
    WINDOW - 3,
    2 * WINDOW - 4,
    protocol.HEADER_BYTES,
    CAP,
    CAP + 1,
)


def wire_frame(length, frame_type, request_id, deadline_ms, seed):
    """One frame of declared ``length`` with a seeded random payload."""
    rng = np.random.default_rng(seed)
    payload = rng.bytes(length - protocol.HEADER_BYTES)
    return bytearray(
        length.to_bytes(4, "little")
        + protocol.MAGIC
        + bytes([protocol.PROTOCOL_VERSION, frame_type, 0, 0])
        + request_id.to_bytes(4, "little")
        + deadline_ms.to_bytes(4, "little")
        + payload
    )


#: One way to break each framing rule: the bytes it overwrites and a
#: strategy for what it writes there.
CORRUPTIONS = {
    "short": (slice(0, 4), st.integers(0, protocol.HEADER_BYTES - 1).map(
        lambda length: length.to_bytes(4, "little")
    )),
    "long": (slice(0, 4), st.integers(CAP + 1, 2**32 - 1).map(
        lambda length: length.to_bytes(4, "little")
    )),
    "magic": (slice(4, 8), st.binary(min_size=4, max_size=4).filter(
        lambda magic: magic != protocol.MAGIC
    )),
    "version": (slice(8, 9), st.integers(0, 255).filter(
        lambda version: version != protocol.PROTOCOL_VERSION
    ).map(lambda version: bytes([version]))),
    "flags": (slice(10, 12), st.integers(1, 2**16 - 1).map(
        lambda flags: flags.to_bytes(2, "little")
    )),
}


@st.composite
def stream_recipes(draw):
    """``(frames, corruption, cut, points)``: 1-5 frames as
    ``wire_frame`` arguments, at most one ``(frame, rule, bytes)``
    corruption, the bytes cut off the stream's end (so it may stop
    mid-frame), and chunk boundaries near frame edges and anywhere."""
    frames = [
        (
            draw(st.sampled_from(EDGE_LENGTHS) | st.integers(
                protocol.HEADER_BYTES, 300
            )),
            draw(st.integers(0, 255)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    corruption = None
    if draw(st.booleans()):
        rule = draw(st.sampled_from(sorted(CORRUPTIONS)))
        corruption = (
            draw(st.integers(0, len(frames) - 1)),
            rule,
            draw(CORRUPTIONS[rule][1]),
        )
    cut = draw(st.integers(0, 4 + frames[-1][0]))
    ends = [0, *itertools.accumulate(4 + frame[0] for frame in frames)]
    points = draw(st.lists(
        st.integers(0, ends[-1]) | st.builds(
            int.__add__, st.sampled_from(ends), st.integers(-5, 24)
        ),
        max_size=12,
    ))
    return frames, corruption, cut, points


def build_stream(recipe):
    """The stream a recipe describes, and its chunks."""
    frames, corruption, cut, points = recipe
    wires = [wire_frame(*frame) for frame in frames]
    if corruption is not None:
        index, rule, value = corruption
        wires[index][CORRUPTIONS[rule][0]] = value
    stream = b"".join(wires)
    stream = stream[: len(stream) - cut]
    cuts = sorted(
        {0, len(stream), *(p for p in points if 0 < p < len(stream))}
    )
    return stream, [stream[a:b] for a, b in zip(cuts, cuts[1:])]


def split_reference(stream, cap):
    """Split a whole stream held in memory, front to back.

    Returns each frame as ``(type, id, flags, deadline, payload)``,
    the code of the first framing violation (None without one) and
    the bytes left over: a trailing partial frame's, or 0 after a
    violation, past which no frame boundary is known.
    """
    frames, at = [], 0
    while len(stream) - at >= 4:
        length = int.from_bytes(stream[at : at + 4], "little")
        if length < protocol.HEADER_BYTES:
            return frames, protocol.ERR_BAD_FRAME, 0
        if length > cap:
            return frames, protocol.ERR_FRAME_TOO_LARGE, 0
        if len(stream) - at - 4 < length:
            break
        header = stream[at + 4 : at + 4 + protocol.HEADER_BYTES]
        if header[:4] != protocol.MAGIC:
            return frames, protocol.ERR_BAD_MAGIC, 0
        if header[4] != protocol.PROTOCOL_VERSION:
            return frames, protocol.ERR_BAD_VERSION, 0
        flags = int.from_bytes(header[6:8], "little")
        if flags:
            return frames, protocol.ERR_BAD_FRAME, 0
        frames.append((
            header[5],
            int.from_bytes(header[8:12], "little"),
            flags,
            int.from_bytes(header[12:16], "little"),
            stream[at + 4 + protocol.HEADER_BYTES : at + 4 + length],
        ))
        at += 4 + length
    return frames, None, len(stream) - at


def split_by_feed(chunks):
    """``feed`` each chunk; a last empty feed raises a deferred error."""
    reader, frames = protocol.FrameReader(CAP), []
    try:
        for chunk in [*chunks, b""]:
            frames += reader.feed(chunk)
    except ProtocolError as exc:
        return frames, exc.code, reader
    return frames, None, reader


def split_by_buffers(chunks):
    """Land each chunk in the reader's buffers, one ``recv_into`` per
    buffer exposed, as a transport does."""
    reader, frames = protocol.FrameReader(CAP), []
    try:
        for chunk in chunks:
            at = 0
            while at < len(chunk):
                view = reader.get_buffer()
                n = min(len(view), len(chunk) - at)
                view[:n] = chunk[at : at + n]
                at += n
                frames += reader.buffer_updated(n)
        frames += reader.buffer_updated(0)
    except ProtocolError as exc:
        return frames, exc.code, reader
    return frames, None, reader


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(stream_recipes())
def test_both_ingestion_paths_split_like_the_reference(recipe):
    stream, chunks = build_stream(recipe)
    want_frames, want_code, leftover = split_reference(stream, CAP)
    for split in (split_by_feed, split_by_buffers):
        frames, code, reader = split(chunks)
        got = [
            (f.frame_type, f.request_id, f.flags, f.deadline_ms,
             bytes(f.payload))
            for f in frames
        ]
        assert got == want_frames, split.__name__
        assert code == want_code, split.__name__
        assert reader.buffered_bytes == leftover, split.__name__

