"""Frame codec: round-trips and corruption detection on ``C5`` frames,
control-only (no out-of-band buffers) and array-carrying alike."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.message import (
    FrameCodec,
    FrameError,
    StreamDecoder,
    decode_frame,
    decode_stream,
    encode_frame_oob,
)
from repro.distributed.net import Shutdown
from tests.oracles import encode_legacy_frame

payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12)


class TestRoundTrip:
    def test_simple(self):
        frame = encode_frame_oob({"x": [1, 2.5, "three"]})
        obj, rest = decode_frame(frame)
        assert obj == {"x": [1, 2.5, "three"]}
        assert rest == b""

    @given(payloads)
    @settings(max_examples=60)
    def test_any_picklable(self, obj):
        decoded, rest = decode_frame(encode_frame_oob(obj))
        assert decoded == obj and rest == b""

    def test_simulation_task_roundtrips(self, neurospora_small):
        from repro.sim.task import make_tasks
        task = make_tasks(neurospora_small, 1, 5.0, 1.0, 1.0, seed=2)[0]
        task.run_quantum()
        clone, _ = decode_frame(encode_frame_oob(task))
        assert clone.run_quantum().samples == task.run_quantum().samples

    def test_concatenated_frames(self):
        data = (encode_frame_oob(1) + encode_frame_oob("two")
                + encode_frame_oob([3]))
        assert list(decode_stream(data)) == [1, "two", [3]]

    def test_control_only_frame_has_no_buffers(self):
        frame = encode_frame_oob(Shutdown())
        assert frame[:2] == b"C5"
        assert int.from_bytes(frame[2:4], "big") == 0  # no OOB segments
        obj, rest = decode_frame(frame)
        assert isinstance(obj, Shutdown) and rest == b""


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(FrameError, match="truncated header"):
            decode_frame(b"C5\x00")

    def test_truncated_payload(self):
        frame = encode_frame_oob("hello world")
        with pytest.raises(FrameError, match="truncated frame"):
            decode_frame(frame[:-3])

    def test_legacy_frame_rejected(self):
        """Single-pickle ``CW`` frames of earlier versions are no longer
        decoded: their magic is refused like any other."""
        with pytest.raises(FrameError, match="magic"):
            decode_frame(encode_legacy_frame({"x": 1}))
        with pytest.raises(FrameError, match="magic"):
            StreamDecoder().feed(encode_legacy_frame({"x": 1}))

    def test_bad_magic(self):
        frame = bytearray(encode_frame_oob(1))
        frame[0] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(frame))

    def test_flipped_payload_bit_detected(self):
        frame = bytearray(encode_frame_oob("payload data here"))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(frame))

    def test_trailing_bytes_returned(self):
        frame = encode_frame_oob(7) + b"extra"
        obj, rest = decode_frame(frame)
        assert obj == 7 and rest == b"extra"


class TestCodecAccounting:
    def test_counters(self):
        codec = FrameCodec("test")
        frame = codec.encode([1, 2, 3])
        assert frame[:2] == b"C5"
        codec.decode(frame)
        assert codec.messages_out == codec.messages_in == 1
        assert codec.bytes_out == codec.bytes_in == len(frame)
        assert codec.mean_message_size() == len(frame)
        # a control-only message travels entirely through the pickle
        assert codec.bytes_oob == 0
        assert codec.bytes_pickled == 2 * len(frame)

    def test_array_counters_split_pickled_and_oob(self):
        codec = FrameCodec("test")
        values = np.ones((32, 3))
        frame = codec.encode(values)
        codec.decode(frame)
        assert codec.bytes_oob >= 2 * values.nbytes
        assert codec.bytes_pickled + codec.bytes_oob == 2 * len(frame)

    def test_decode_rejects_trailing(self):
        codec = FrameCodec()
        with pytest.raises(FrameError, match="trailing"):
            codec.decode(encode_frame_oob(1) + b"junk")

    def test_mean_size_empty(self):
        assert FrameCodec().mean_message_size() == 0.0


class TestStreamDecoder:
    """Partial-read buffering: the property sockets need (decode_frame
    raises on short reads; StreamDecoder waits for the rest)."""

    def test_whole_frame(self):
        decoder = StreamDecoder()
        assert decoder.feed(encode_frame_oob({"a": 1})) == [{"a": 1}]
        assert decoder.pending_bytes == 0

    def test_truncated_header_buffers(self):
        decoder = StreamDecoder()
        frame = encode_frame_oob("hello")
        assert decoder.feed(frame[:4]) == []          # mid-header
        assert decoder.pending_bytes == 4
        assert decoder.feed(frame[4:]) == ["hello"]
        assert decoder.pending_bytes == 0

    def test_truncated_payload_buffers(self):
        decoder = StreamDecoder()
        frame = encode_frame_oob(list(range(50)))
        assert decoder.feed(frame[:-7]) == []         # mid-payload
        assert decoder.feed(frame[-7:]) == [list(range(50))]

    def test_byte_at_a_time(self):
        decoder = StreamDecoder()
        out = []
        for i, byte in enumerate(encode_frame_oob(("x", 2.5))):
            out.extend(decoder.feed(bytes([byte])))
        assert out == [("x", 2.5)]

    def test_multi_frame_coalesced_read(self):
        decoder = StreamDecoder()
        data = encode_frame_oob(1) + encode_frame_oob("two") + encode_frame_oob([3])
        assert decoder.feed(data) == [1, "two", [3]]
        assert decoder.frames_decoded == 3

    def test_coalesced_plus_partial_tail(self):
        decoder = StreamDecoder()
        tail = encode_frame_oob("tail")
        data = encode_frame_oob("head") + tail[:5]
        assert decoder.feed(data) == ["head"]
        assert decoder.pending_bytes == 5
        assert decoder.feed(tail[5:]) == ["tail"]

    def test_corrupted_checksum_raises(self):
        decoder = StreamDecoder()
        frame = bytearray(encode_frame_oob("payload data"))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decoder.feed(bytes(frame))

    def test_bad_magic_raises(self):
        decoder = StreamDecoder()
        with pytest.raises(FrameError, match="magic"):
            decoder.feed(b"XXjunk that is not a frame header")

    def test_codec_accounting(self):
        codec = FrameCodec("rx")
        decoder = StreamDecoder(codec=codec)
        frame = encode_frame_oob([1, 2, 3])
        decoder.feed(frame[:3])
        decoder.feed(frame[3:])
        assert codec.messages_in == 1
        assert codec.bytes_in == len(frame)

    @given(st.lists(payloads, max_size=5), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_reassembles(self, objs, chunk):
        data = b"".join(encode_frame_oob(o) for o in objs)
        decoder = StreamDecoder()
        out = []
        for i in range(0, len(data), chunk):
            out.extend(decoder.feed(data[i:i + chunk]))
        assert out == objs
        assert decoder.pending_bytes == 0

    @given(st.integers(1, 97))
    @settings(max_examples=20, deadline=None)
    def test_array_frames_any_chunking(self, chunk):
        arrays = [np.arange(n, dtype=float) for n in (3, 40, 17)]
        data = b"".join(encode_frame_oob(a) for a in arrays)
        decoder = StreamDecoder()
        out = []
        for i in range(0, len(data), chunk):
            out.extend(decoder.feed(data[i:i + chunk]))
        assert len(out) == 3
        for got, want in zip(out, arrays):
            assert np.array_equal(got, want)
