"""Protocol codec tests: round trips, framing rejection, ragged grids.

The codec is the serving boundary's contract, so these tests are
deliberately adversarial: every malformed frame class documented in
``docs/protocol.md`` (bad magic, unsupported version, truncated and
oversized payloads, nonzero reserved fields, dimension mismatches)
must be rejected with the matching error code, and well-formed frames
must round-trip bit-identically over grids whose length is *not* a
multiple of 8 or 64 — the ragged-tail shapes the packed kernels are
property-tested over.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backend.batch import SpikeTrainBatch
from repro.backend.packed import n_packed_bytes
from repro.errors import ProtocolError
from repro.serving import protocol
from repro.units import SimulationGrid

#: Grid lengths exercising clean, byte-ragged and word-ragged tails.
RAGGED_LENGTHS = [1, 7, 8, 63, 64, 65, 100, 511, 1000]


def random_packed(rng, n_wires, n_samples, density=0.05):
    """A random packed bitset with a clean tail, plus its batch."""
    grid = SimulationGrid(n_samples=n_samples, dt=1e-9)
    raster = rng.random((n_wires, n_samples)) < density
    batch = SpikeTrainBatch.from_raster(raster, grid)
    return batch.packbits(), grid, batch


def feed_in_chunks(reader, data, rng):
    """Feed ``data`` in random-size chunks, collecting every frame."""
    frames = []
    cursor = 0
    while cursor < len(data):
        step = int(rng.integers(1, 97))
        frames.extend(reader.feed(data[cursor : cursor + step]))
        cursor += step
    return frames


class TestRequestRoundTrip:
    @pytest.mark.parametrize("n_samples", RAGGED_LENGTHS)
    def test_ragged_grids_round_trip_bit_identically(self, n_samples):
        rng = np.random.default_rng(n_samples)
        packed, grid, batch = random_packed(rng, 5, n_samples, density=0.3)
        wire = protocol.encode_request(
            packed, grid.n_samples, grid.dt, request_id=42
        )
        frames = protocol.FrameReader().feed(wire)
        assert len(frames) == 1
        request = protocol.parse_request(frames[0])
        assert request.mode == "identify"
        assert request.request_id == 42
        assert request.n_samples == grid.n_samples
        assert request.dt == grid.dt
        assert np.array_equal(request.packed, packed)
        # The parsed payload rebuilds the exact batch (packed-primary).
        rebuilt = SpikeTrainBatch.from_packed(request.packed, request.grid())
        assert rebuilt == batch

    def test_property_randomized_round_trips(self):
        rng = np.random.default_rng(2016)
        for _trial in range(25):
            n_samples = int(rng.integers(1, 700))
            n_wires = int(rng.integers(1, 9))
            packed, grid, batch = random_packed(
                rng, n_wires, n_samples, density=float(rng.uniform(0, 0.5))
            )
            mode = ["identify", "membership"][int(rng.integers(2))]
            start = int(rng.integers(0, n_samples + 1))
            limit = (
                None if rng.integers(2) else int(rng.integers(0, n_samples))
            )
            wire = protocol.encode_request(
                packed,
                grid.n_samples,
                grid.dt,
                mode=mode,
                start_slot=start,
                limit=limit,
                n_shards=int(rng.integers(0, 9)),
                request_id=int(rng.integers(0, 2**32)),
            )
            frames = feed_in_chunks(protocol.FrameReader(), wire, rng)
            assert len(frames) == 1
            request = protocol.parse_request(frames[0])
            assert request.mode == mode
            assert request.start_slot == start
            assert request.limit == limit
            assert np.array_equal(request.packed, packed)
            assert (
                SpikeTrainBatch.from_packed(request.packed, request.grid())
                == batch
            )

    def test_several_frames_in_one_stream(self):
        rng = np.random.default_rng(3)
        stream = b""
        for request_id in range(4):
            packed, grid, _batch = random_packed(rng, 2, 100)
            stream += protocol.encode_request(
                packed, grid.n_samples, grid.dt, request_id=request_id
            )
        frames = feed_in_chunks(protocol.FrameReader(), stream, rng)
        assert [frame.request_id for frame in frames] == [0, 1, 2, 3]

    def test_limit_sentinel_is_none(self):
        rng = np.random.default_rng(4)
        packed, grid, _batch = random_packed(rng, 1, 64)
        wire = protocol.encode_request(
            packed, grid.n_samples, grid.dt, mode="membership", limit=None
        )
        request = protocol.parse_request(
            protocol.FrameReader().feed(wire)[0]
        )
        assert request.limit is None


class TestJsonFrames:
    def test_shard_and_done_round_trip(self):
        payload = {"elements": [1, 2, -1], "wall_seconds": 0.25}
        wire = protocol.encode_json_frame(protocol.FRAME_DONE, 9, payload)
        frame = protocol.FrameReader().feed(wire)[0]
        assert frame.frame_type == protocol.FRAME_DONE
        assert frame.request_id == 9
        assert protocol.parse_json_frame(frame) == payload

    def test_error_frame_carries_code_and_name(self):
        wire = protocol.encode_error(7, protocol.ERR_BAD_GRID, "wrong grid")
        payload = protocol.parse_json_frame(
            protocol.FrameReader().feed(wire)[0]
        )
        assert payload["code"] == protocol.ERR_BAD_GRID
        assert payload["error"] == "BAD_GRID"
        assert payload["message"] == "wrong grid"

    def test_non_json_payload_rejected(self):
        wire = protocol.encode_frame(protocol.FRAME_DONE, 1, b"\xff\xfe{")
        frame = protocol.FrameReader().feed(wire)[0]
        with pytest.raises(ProtocolError) as err:
            protocol.parse_json_frame(frame)
        assert err.value.code == protocol.ERR_BAD_FRAME


class TestFramingRejection:
    def encode_one(self, **overrides):
        rng = np.random.default_rng(5)
        packed, grid, _batch = random_packed(rng, 3, 100)
        return protocol.encode_request(
            packed, grid.n_samples, grid.dt, **overrides
        )

    def test_bad_magic(self):
        wire = bytearray(self.encode_one())
        wire[4:8] = b"NOPE"
        with pytest.raises(ProtocolError) as err:
            protocol.FrameReader().feed(bytes(wire))
        assert err.value.code == protocol.ERR_BAD_MAGIC

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6])
    def test_unsupported_version(self, version):
        wire = bytearray(self.encode_one())
        wire[8] = version
        with pytest.raises(ProtocolError) as err:
            protocol.FrameReader().feed(bytes(wire))
        assert err.value.code == protocol.ERR_BAD_VERSION

    def test_nonzero_flags_rejected(self):
        wire = bytearray(self.encode_one())
        wire[10] = 1  # flags low byte
        with pytest.raises(ProtocolError) as err:
            protocol.FrameReader().feed(bytes(wire))
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_oversized_frame_rejected_from_the_length_prefix(self):
        reader = protocol.FrameReader(max_frame_bytes=1024)
        big = (2048).to_bytes(4, "little")
        with pytest.raises(ProtocolError) as err:
            reader.feed(big)
        assert err.value.code == protocol.ERR_FRAME_TOO_LARGE

    def test_declared_length_below_header_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.FrameReader().feed((4).to_bytes(4, "little"))
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_truncated_payload_rejected(self):
        """A frame cut short re-framed as complete must not parse."""
        wire = self.encode_one()
        cut = wire[4 : len(wire) - 37]  # drop the length prefix + a tail
        frame = protocol.FrameReader().feed(
            len(cut).to_bytes(4, "little") + cut
        )[0]
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame)
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_payload_shorter_than_request_header_rejected(self):
        frame = protocol.Frame(
            frame_type=protocol.FRAME_IDENTIFY,
            request_id=0,
            payload=b"\x00" * 8,
        )
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame)
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_trailing_garbage_rejected(self):
        wire = self.encode_one()
        body = wire[4:] + b"\x00" * 3
        frame = protocol.FrameReader().feed(
            len(body).to_bytes(4, "little") + body
        )[0]
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame)
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_incomplete_frame_waits_instead_of_erroring(self):
        wire = self.encode_one()
        reader = protocol.FrameReader()
        assert reader.feed(wire[:-10]) == []
        assert reader.buffered_bytes == len(wire) - 10
        frames = reader.feed(wire[-10:])
        assert len(frames) == 1
        assert reader.buffered_bytes == 0

    def test_response_frame_is_not_a_request(self):
        wire = protocol.encode_json_frame(protocol.FRAME_DONE, 1, {})
        frame = protocol.FrameReader().feed(wire)[0]
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame)
        assert err.value.code == protocol.ERR_BAD_TYPE


class TestPoisonedStreamKeepsEarlierFrames:
    def test_good_frames_survive_a_later_corrupt_frame(self):
        rng = np.random.default_rng(8)
        packed, grid, _batch = random_packed(rng, 2, 100)
        good = protocol.encode_request(
            packed, grid.n_samples, grid.dt, request_id=1
        )
        corrupt = (32).to_bytes(4, "little") + b"X" * 32
        reader = protocol.FrameReader()
        frames = reader.feed(good + corrupt)
        # The valid frame is returned, the violation is deferred...
        assert len(frames) == 1
        assert frames[0].request_id == 1
        assert reader.pending_error is not None
        assert reader.pending_error.code == protocol.ERR_BAD_MAGIC
        # ...and raised on the next feed: the stream is unusable.
        with pytest.raises(ProtocolError) as err:
            reader.feed(b"")
        assert err.value.code == protocol.ERR_BAD_MAGIC


class TestErrorsSurvivePickling:
    def test_serving_and_protocol_errors_round_trip(self):
        """Worker-raised errors cross the pool's pickle boundary intact."""
        import pickle

        from repro.errors import ProtocolError as PE
        from repro.errors import ServingError as SE

        for exc in (SE(7, "budget"), PE(protocol.ERR_BAD_MAGIC, "magic")):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.code == exc.code
            assert str(clone) == str(exc)


class TestRequestValidation:
    def test_zero_wires_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                np.empty((0, n_packed_bytes(64)), dtype=np.uint8), 64, 1e-9
            )

    def test_wrong_packed_width_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                np.zeros((2, 9), dtype=np.uint8), 64, 1e-9
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                np.zeros((1, 8), dtype=np.uint8), 64, 1e-9, mode="classify"
            )

    def test_start_slot_outside_grid_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                np.zeros((1, 8), dtype=np.uint8), 64, 1e-9, start_slot=65
            )

    def test_request_nbytes_matches_encoding(self):
        rng = np.random.default_rng(6)
        packed, grid, _batch = random_packed(rng, 4, 100)
        wire = protocol.encode_request(packed, grid.n_samples, grid.dt)
        assert len(wire) == 4 + protocol.request_nbytes(4, 100)


class TestVersionNegotiation:
    def test_requests_default_to_current_version(self):
        rng = np.random.default_rng(8)
        packed, grid, _batch = random_packed(rng, 3, 100)
        wire = protocol.encode_request(packed, grid.n_samples, grid.dt)
        protocol.parse_request(protocol.FrameReader().feed(wire)[0])
        assert wire[8] == protocol.PROTOCOL_VERSION == 5

    def test_request_parts_concatenate_to_encode_request(self):
        rng = np.random.default_rng(9)
        packed, grid, _batch = random_packed(rng, 4, 511)
        parts = protocol.encode_request_parts(
            packed, grid.n_samples, grid.dt, request_id=3
        )
        joined = b"".join(bytes(part) for part in parts)
        assert joined == protocol.encode_request(
            packed, grid.n_samples, grid.dt, request_id=3
        )


class TestResultFrames:
    def identify_payload(self, rng, n_rows, row_start=0):
        return {
            "row_start": row_start,
            "row_stop": row_start + n_rows,
            "wall_seconds": 0.125,
            "residency": {"packed": True, "csr": False, "raster": False},
            "elements": rng.integers(-1, 16, n_rows).astype(np.int64),
            "decision_slots": rng.integers(-1, 1000, n_rows).astype(np.int64),
            "spikes_inspected": rng.integers(0, 99, n_rows).astype(np.int64),
        }

    @pytest.mark.parametrize("n_rows", [1, 5, 257])
    def test_identify_round_trip(self, n_rows):
        rng = np.random.default_rng(n_rows)
        payload = self.identify_payload(rng, n_rows, row_start=7)
        wire = protocol.encode_result_frame(11, payload, mode="identify")
        frame = protocol.FrameReader().feed(wire)[0]
        assert frame.frame_type == protocol.FRAME_RESULT
        assert frame.request_id == 11
        parsed = protocol.parse_result_frame(frame)
        assert parsed["kind"] == "shard"
        assert parsed["row_start"] == 7
        assert parsed["row_stop"] == 7 + n_rows
        assert parsed["wall_seconds"] == 0.125
        assert parsed["residency"] == payload["residency"]
        for key in ("elements", "decision_slots", "spikes_inspected"):
            assert np.array_equal(parsed[key], payload[key])

    @pytest.mark.parametrize("n_cols", [1, 7, 8, 16, 33])
    def test_membership_round_trip(self, n_cols):
        rng = np.random.default_rng(n_cols)
        n_rows = 9
        payload = {
            "row_start": 0,
            "row_stop": n_rows,
            "wall_seconds": 0.5,
            "residency": {"packed": True, "csr": True, "raster": False},
            "membership": rng.random((n_rows, n_cols)) < 0.4,
            "first_slots": rng.integers(-1, 512, (n_rows, n_cols)).astype(
                np.int64
            ),
        }
        wire = protocol.encode_result_frame(4, payload, mode="membership")
        parsed = protocol.parse_result_frame(
            protocol.FrameReader().feed(wire)[0]
        )
        assert np.array_equal(parsed["membership"], payload["membership"])
        assert np.array_equal(parsed["first_slots"], payload["first_slots"])
        assert parsed["residency"] == payload["residency"]

    def test_mismatched_array_lengths_rejected_on_encode(self):
        rng = np.random.default_rng(0)
        payload = self.identify_payload(rng, 4)
        payload["elements"] = payload["elements"][:-1]
        with pytest.raises(ProtocolError) as err:
            protocol.encode_result_frame(1, payload, mode="identify")
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_truncated_result_payload_rejected(self):
        rng = np.random.default_rng(1)
        wire = bytearray(
            protocol.encode_result_frame(
                1, self.identify_payload(rng, 3), mode="identify"
            )
        )
        # Drop the last 8 bytes and fix up the length prefix.
        wire = wire[:-8]
        wire[0:4] = (len(wire) - 4).to_bytes(4, "little")
        frame = protocol.FrameReader().feed(bytes(wire))[0]
        with pytest.raises(ProtocolError) as err:
            protocol.parse_result_frame(frame)
        assert err.value.code == protocol.ERR_BAD_FRAME

    def test_stats_request_round_trips(self):
        wire = protocol.encode_stats_request(77)
        frame = protocol.FrameReader().feed(wire)[0]
        assert frame.frame_type == protocol.FRAME_STATS
        assert frame.request_id == 77
        assert frame.payload == b""


def drive_buffered(reader, data, rng=None, step=None):
    """Write ``data`` into the reader's own buffers, transport-style."""
    frames = []
    cursor = 0
    while cursor < len(data):
        view = reader.get_buffer(-1)
        if step is not None:
            n = step
        else:
            n = int(rng.integers(1, 97)) if rng is not None else len(view)
        n = min(n, len(view), len(data) - cursor)
        view[:n] = data[cursor : cursor + n]
        frames.extend(reader.buffer_updated(n))
        cursor += n
    return frames


#: The reader's receive window.
WINDOW = protocol.FrameReader._SCRATCH_BYTES


def ping_frames(payload_sizes):
    """One PING frame per payload size, request ids counting from 0."""
    return [
        protocol.encode_frame(protocol.FRAME_PING, i, bytes(size))
        for i, size in enumerate(payload_sizes)
    ]


class TestBufferedIngestion:
    """get_buffer/buffer_updated must match feed() frame for frame, and
    a frame is copied at most once on its way in."""

    def test_large_frame_assembles_in_place(self):
        rng = np.random.default_rng(11)
        packed, grid, batch = random_packed(rng, 64, 65536)
        wire = protocol.encode_request(
            packed, grid.n_samples, grid.dt, request_id=9
        )
        assert len(wire) > protocol.FrameReader._SCRATCH_BYTES
        reader = protocol.FrameReader()
        frames = drive_buffered(reader, wire, step=65536)
        assert len(frames) == 1
        request = protocol.parse_request(frames[0])
        assert request.request_id == 9
        assert np.array_equal(request.packed, packed)
        assert (
            SpikeTrainBatch.from_packed(request.packed, request.grid())
            == batch
        )

    def test_direct_assembly_buffer_spans_the_whole_tail(self):
        # Once the length prefix declares a large frame, the exposed
        # buffer is the frame's own remaining region, so the transport
        # can drain it in one recv_into.
        rng = np.random.default_rng(12)
        packed, grid, _batch = random_packed(rng, 64, 65536)
        wire = protocol.encode_request(packed, grid.n_samples, grid.dt)
        reader = protocol.FrameReader()
        view = reader.get_buffer(-1)
        first = 1024
        view[:first] = wire[:first]
        assert reader.buffer_updated(first) == []
        tail = reader.get_buffer(-1)
        assert len(tail) == len(wire) - first
        tail[: len(tail)] = wire[first:]
        frames = reader.buffer_updated(len(tail))
        assert len(frames) == 1
        assert frames[0].payload.obj is tail.obj  # landed in place
        assert np.array_equal(
            protocol.parse_request(frames[0]).packed, packed
        )

    def test_randomized_chunking_matches_feed(self):
        rng = np.random.default_rng(13)
        stream = b""
        for request_id in range(3):
            packed, grid, _batch = random_packed(rng, 2, 777)
            stream += protocol.encode_request(
                packed, grid.n_samples, grid.dt, request_id=request_id
            )
        stream += protocol.encode_stats_request(request_id=3)
        fed = protocol.FrameReader().feed(stream)
        driven = drive_buffered(
            protocol.FrameReader(), stream, rng=np.random.default_rng(14)
        )
        assert len(driven) == len(fed) == 4
        for a, b in zip(driven, fed):
            assert a.frame_type == b.frame_type
            assert a.request_id == b.request_id
            assert bytes(a.payload) == bytes(b.payload)

    def test_small_and_large_frames_interleave(self):
        rng = np.random.default_rng(15)
        small_packed, grid, _b = random_packed(rng, 1, 64)
        big_packed, big_grid, _b2 = random_packed(rng, 64, 65536)
        stream = (
            protocol.encode_request(
                small_packed, grid.n_samples, grid.dt, request_id=1
            )
            + protocol.encode_request(
                big_packed, big_grid.n_samples, big_grid.dt, request_id=2
            )
            + protocol.encode_request(
                small_packed, grid.n_samples, grid.dt, request_id=3
            )
        )
        frames = drive_buffered(
            protocol.FrameReader(), stream, rng=np.random.default_rng(16)
        )
        assert [frame.request_id for frame in frames] == [1, 2, 3]
        assert np.array_equal(
            protocol.parse_request(frames[1]).packed, big_packed
        )

    def test_poison_defers_like_feed(self):
        rng = np.random.default_rng(17)
        packed, grid, _batch = random_packed(rng, 1, 64)
        good = protocol.encode_request(
            packed, grid.n_samples, grid.dt, request_id=5
        )
        bad = bytearray(good)
        bad[4:8] = b"XXXX"  # corrupt the magic
        reader = protocol.FrameReader()
        frames = drive_buffered(reader, good + bytes(bad), step=1 << 20)
        assert [frame.request_id for frame in frames] == [5]
        assert reader.pending_error is not None
        assert reader.pending_error.code == protocol.ERR_BAD_MAGIC
        with pytest.raises(ProtocolError):
            reader.buffer_updated(0)

    def test_oversized_declared_length_raises(self):
        reader = protocol.FrameReader(max_frame_bytes=1024)
        view = reader.get_buffer(-1)
        prefix = (1 << 20).to_bytes(4, "little")
        view[: len(prefix)] = prefix
        with pytest.raises(ProtocolError):
            reader.buffer_updated(len(prefix))

    def test_a_frame_inside_the_window_gets_one_exact_size_copy(self):
        # Several frames per read, and frames spanning two reads, each
        # cut out of the window into a buffer of exactly its size.
        head = 4 + protocol.HEADER_BYTES
        wires = ping_frames(
            [0, 100, WINDOW // 3, WINDOW // 2, WINDOW - head]
        )
        reader = protocol.FrameReader()
        window = reader.get_buffer().obj
        frames = drive_buffered(reader, b"".join(wires))
        assert [frame.request_id for frame in frames] == list(range(5))
        for frame, wire in zip(frames, wires):
            assert frame.payload.obj is not window
            assert len(frame.payload.obj) == len(wire)
            assert bytes(frame.payload) == wire[head:]

    def test_a_reader_holds_its_window_and_at_most_one_frame(self):
        # Full-window reads of a stream with frames smaller and larger
        # than the window: a read allocates only the frames it returns
        # and the buffer of a frame it starts, and between reads the
        # reader keeps its window plus at most one frame.
        sizes = [3000, 12000, 500, 2 * WINDOW, 7000, 40000, 100] * 3
        wires = ping_frames(sizes)
        stream = memoryview(b"".join(wires))
        slack = 4096
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reader = protocol.FrameReader()
            window = reader.get_buffer().obj
            cursor = 0
            while cursor < len(stream):
                view = reader.get_buffer()
                n = min(len(view), len(stream) - cursor)
                view[:n] = stream[cursor : cursor + n]
                cursor += n
                del view
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                frames = reader.buffer_updated(n)
                peak = tracemalloc.get_traced_memory()[1] - before
                held = reader.get_buffer().obj
                started = 0 if held is window else len(held)
                returned = sum(len(frame.payload.obj) for frame in frames)
                assert peak <= returned + started + slack * (1 + len(frames))
                del frames, held
                kept = tracemalloc.get_traced_memory()[0] - base
                assert kept <= WINDOW + max(map(len, wires)) + slack
        finally:
            tracemalloc.stop()
