"""Frame codec: length-prefixed, checksummed pickles with a zero-copy
out-of-band layout for array payloads.

Every frame (magic ``C5``) uses pickle protocol 5 to split the message
into a small *control* pickle (object structure, scalars) and the raw
buffer segments of its NumPy arrays, which are framed verbatim instead
of being copied through the pickle stream::

    | magic (2) | n_buffers (2) | crc32 (4) | control_len (4) |
    | buffer_len[i] (8 each) | control pickle | pad | buffer[0] | pad | ...

Buffer segments are 8-byte aligned (relative to the control pickle's
start) so the receiver can reconstruct float64/int64 arrays directly over
the receive buffer.  The checksum covers the header-side metadata (the
buffer-length table) and the control pickle only -- *not* the raw array
segments: re-hashing multi-megabyte payloads on both send and receive
costs more than the whole framing layer, and the raw segments are already
protected in transit by the TCP checksum.  The crc is a framing-integrity
guard (desync detection), not end-to-end array integrity.  A
control-only message (``Hello``, ``Shutdown``, a heartbeat) is simply a
frame with no buffer segments.

The fully checksummed single-pickle ``CW`` frames of earlier versions
are no longer decoded (their magic is rejected like any other): master
and workers always run from the same checkout and first exchange a
``Hello``, so no peer can still speak them.

On encode, arrays are exposed as :class:`pickle.PickleBuffer` segments
(no copy); on decode, the frame body is copied once out of the socket
buffer into a fresh ``bytearray`` and every array is reconstructed as a
(writable) view over it -- one copy per frame total, independent of how
many arrays it carries.  Buffers smaller than :data:`OOB_THRESHOLD` stay
in-band: framing overhead beats the copy for tiny arrays.

``FrameCodec`` counts messages and bytes -- split into pickled
(``bytes_pickled``) and zero-copy (``bytes_oob``) traffic, which is how
``benchmarks/bench_transport.py`` measures bytes *copied* per quantum.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Iterator, Sequence, Union

import numpy as np

MAGIC = b"C5"
_HEADER = struct.Struct(">2sHII")
_BUFLEN = struct.Struct(">Q")
_ALIGN = 8
#: buffers below this size are serialised in-band (framing a dozen-byte
#: array out of band -- 8-byte length prefix, alignment pad, an iovec
#: slot -- costs more than copying it; above it the copy dominates)
OOB_THRESHOLD = 64
#: conservative bound on iovec count per sendmsg (Linux UIO_MAXIOV=1024)
_IOV_MAX = 512

Segment = Union[bytes, memoryview]


class FrameError(ValueError):
    """Raised on malformed, truncated or corrupted frames."""


def _pad(offset: int) -> int:
    return -offset % _ALIGN


def encode_frame_segments(obj: Any,
                          oob_threshold: int = OOB_THRESHOLD
                          ) -> list[Segment]:
    """Serialise one object into out-of-band frame segments.

    Returns a list of bytes-like segments forming one frame when
    concatenated.  Array buffers of at least ``oob_threshold`` bytes are
    included as live memoryviews of the original arrays (zero-copy: do
    not mutate them until the segments have been sent), everything else
    travels through the control pickle.
    """
    raws: list[memoryview] = []

    def keep_out_of_band(buffer: pickle.PickleBuffer):
        # pickle's convention: truthy -> serialise in-band (copied into
        # the control stream), falsy -> keep out-of-band
        view = buffer.raw()
        if view.nbytes < oob_threshold:
            return True  # in-band: copying beats framing for tiny arrays
        raws.append(view)
        return False

    control = pickle.dumps(obj, protocol=5,
                           buffer_callback=keep_out_of_band)
    table = b"".join(_BUFLEN.pack(view.nbytes) for view in raws)
    checksum = zlib.crc32(control, zlib.crc32(table)) & 0xFFFFFFFF
    segments: list[Segment] = [
        _HEADER.pack(MAGIC, len(raws), checksum, len(control))
        + table,
        control,
    ]
    offset = len(control)
    for view in raws:
        pad = _pad(offset)
        if pad:
            segments.append(b"\x00" * pad)
            offset += pad
        segments.append(view)
        offset += view.nbytes
    return segments


def encode_frame_oob(obj: Any, oob_threshold: int = OOB_THRESHOLD) -> bytes:
    """:func:`encode_frame_segments` joined into one buffer (for pipes,
    files and tests; sockets should send the segments vectored)."""
    return b"".join(bytes(s) for s in encode_frame_segments(
        obj, oob_threshold=oob_threshold))


def segments_nbytes(segments: Sequence[Segment]) -> int:
    """Total wire size of a segment list."""
    return sum(
        s.nbytes if isinstance(s, memoryview) else len(s)
        for s in segments)


def send_segments(sock, segments: Sequence[Segment]) -> int:
    """Send a segment list over ``sock`` without concatenating it.

    Uses vectored I/O (``sendmsg``) in iovec-bounded chunks, handling
    partial sends; falls back to ``sendall`` where ``sendmsg`` is
    unavailable.  Returns the bytes sent.
    """
    pending = [memoryview(s).cast("B") for s in segments]
    total = sum(m.nbytes for m in pending)
    if not hasattr(sock, "sendmsg"):
        for view in pending:
            sock.sendall(view)
        return total
    while pending:
        chunk = pending[:_IOV_MAX]
        sent = sock.sendmsg(chunk)
        while sent:
            head = pending[0]
            if sent >= head.nbytes:
                sent -= head.nbytes
                pending.pop(0)
            else:
                pending[0] = head[sent:]
                sent = 0
    return total


def _oob_table_spans(buffer, table_start: int, n_buffers: int,
                     control_len: int) -> tuple[list, list, int]:
    """Parse a ``C5`` buffer-length table in one vectorized pass.

    Returns ``(starts, lengths, body_len)`` where ``starts``/``lengths``
    locate each buffer relative to the frame body (control pickle start)
    and ``body_len`` is the total body size.  Every buffer start is
    8-aligned by construction, so the padded recurrence collapses to an
    exclusive prefix sum of the align-rounded lengths -- no per-buffer
    Python loop, which dominated decode for many-array frames.
    """
    if n_buffers == 0:
        return [], [], control_len
    lengths = np.frombuffer(buffer, dtype=">u8", count=n_buffers,
                            offset=table_start).astype(np.int64)
    padded = (lengths + (_ALIGN - 1)) & -_ALIGN
    starts = np.empty(n_buffers, dtype=np.int64)
    starts[0] = 0
    np.cumsum(padded[:-1], out=starts[1:])
    starts += control_len + _pad(control_len)
    body_len = int(starts[-1] + lengths[-1])
    return starts.tolist(), lengths.tolist(), body_len


def _frame_end(buffer, start: int) -> "int | None":
    """End offset of the frame at ``start``; None if incomplete."""
    if len(buffer) - start < _HEADER.size:
        return None
    _magic, n_buffers, _crc, control_len = _HEADER.unpack_from(
        buffer, start)
    table_end = start + _HEADER.size + n_buffers * _BUFLEN.size
    if len(buffer) < table_end:
        return None
    _starts, _lengths, body_len = _oob_table_spans(
        buffer, start + _HEADER.size, n_buffers, control_len)
    end = table_end + body_len
    return end if len(buffer) >= end else None


def _decode(buffer, start: int, end: int) -> Any:
    """Decode the complete frame spanning ``[start, end)``.

    The frame body is copied once into a fresh ``bytearray`` so the
    reconstructed arrays are writable views that outlive (and never
    block) the caller's receive buffer.  Buffer offsets come from the
    vectorized table parse; the body copy goes through a memoryview so
    ``bytes`` input does not pay an intermediate slice copy.
    """
    _magic, n_buffers, checksum, control_len = _HEADER.unpack_from(
        buffer, start)
    table_start = start + _HEADER.size
    body_start = table_start + n_buffers * _BUFLEN.size
    whole = memoryview(buffer)
    table = whole[table_start:body_start]
    body = bytearray(whole[body_start:end])  # the one per-frame copy
    mv = memoryview(body)
    control = mv[:control_len]
    if (zlib.crc32(control, zlib.crc32(table)) & 0xFFFFFFFF) != checksum:
        raise FrameError("checksum mismatch (corrupted frame header)")
    starts, lengths, _body_len = _oob_table_spans(
        buffer, table_start, n_buffers, control_len)
    views = [mv[s:s + length] for s, length in zip(starts, lengths)]
    try:
        return pickle.loads(control, buffers=views)
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"undecodable payload: {exc}") from exc


def _pickled_nbytes(buffer) -> int:
    """Bytes of the frame at the start of ``buffer`` that travel through
    the pickle stream: header, buffer-length table and control pickle."""
    _magic, n_buffers, _crc, control_len = _HEADER.unpack_from(buffer)
    return _HEADER.size + n_buffers * _BUFLEN.size + control_len


def decode_frame(data: bytes) -> tuple[Any, bytes]:
    """Decode one frame from ``data``; returns ``(object, rest)``."""
    if len(data) >= 2 and data[:2] != MAGIC:
        raise FrameError(f"bad magic {bytes(data[:2])!r}")
    if len(data) < _HEADER.size:
        raise FrameError(
            f"truncated header: {len(data)} < {_HEADER.size} bytes")
    end = _frame_end(data, 0)
    if end is None:
        raise FrameError(f"truncated frame: have {len(data)} bytes")
    return _decode(data, 0, end), data[end:]


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode every complete frame in ``data`` (raises on trailing junk)."""
    rest = data
    while rest:
        obj, rest = decode_frame(rest)
        yield obj


class StreamDecoder:
    """Incremental frame decoder for real byte streams (sockets, pipes).

    :func:`decode_frame` raises on short reads, which makes it unusable
    behind ``socket.recv``: TCP delivers arbitrary chunks that split and
    coalesce frames freely.  ``StreamDecoder`` buffers partial reads:
    :meth:`feed` consumes one received chunk and returns every message
    completed by it (possibly none, possibly several).

    A truncated header or payload is *not* an error -- the bytes wait in
    the buffer for the next read.  A bad magic or checksum *is* an error
    (the stream is unrecoverable, the connection must be dropped), raised
    as :class:`FrameError`.  An optional :class:`FrameCodec` receives the
    inbound traffic accounting.
    """

    def __init__(self, codec: "FrameCodec | None" = None):
        self._buffer = bytearray()
        self.codec = codec
        self.frames_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Any]:
        """Buffer ``data``; return all messages it completed, in order."""
        self._buffer.extend(data)
        out: list[Any] = []
        while len(self._buffer) >= 2:
            if self._buffer[:2] != MAGIC:
                raise FrameError(f"bad magic {bytes(self._buffer[:2])!r} "
                                 "(stream desynced)")
            end = _frame_end(self._buffer, 0)
            if end is None:
                break
            obj = _decode(self._buffer, 0, end)
            if self.codec is not None:
                self.codec.account_in(end, _pickled_nbytes(self._buffer))
            del self._buffer[:end]
            self.frames_decoded += 1
            out.append(obj)
        return out

    def __repr__(self) -> str:
        return (f"<StreamDecoder {self.frames_decoded} frames, "
                f"{len(self._buffer)}B pending>")


class FrameCodec:
    """Stateful encode/decode with traffic accounting.

    ``bytes_out`` / ``bytes_in`` count total wire traffic;
    ``bytes_pickled`` / ``bytes_oob`` split it into bytes that were
    *copied* through the pickle stream (and checksummed) versus raw
    buffer segments framed zero-copy.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.messages_out = 0
        self.messages_in = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.bytes_pickled = 0
        self.bytes_oob = 0

    def encode(self, obj: Any) -> bytes:
        """Encode as one contiguous frame (metered links, control
        messages); sockets should prefer :meth:`encode_segments`."""
        return b"".join(self.encode_segments(obj))

    def encode_segments(self, obj: Any,
                        oob_threshold: int = OOB_THRESHOLD
                        ) -> list[Segment]:
        """Encode as a frame's segment list (send with
        :func:`send_segments`)."""
        segments = encode_frame_segments(obj, oob_threshold=oob_threshold)
        total = segments_nbytes(segments)
        pickled = segments_nbytes(segments[:2])
        self.messages_out += 1
        self.bytes_out += total
        self.bytes_pickled += pickled
        self.bytes_oob += total - pickled
        return segments

    def decode(self, frame: bytes) -> Any:
        obj, rest = decode_frame(frame)
        if rest:
            raise FrameError(f"{len(rest)} trailing bytes after frame")
        self.account_in(len(frame), _pickled_nbytes(frame))
        return obj

    def account_in(self, n_bytes: int, pickled: int) -> None:
        """Record one inbound frame of ``n_bytes``, ``pickled`` of them
        through the pickle stream (used by :class:`StreamDecoder`, which
        decodes the bytes itself)."""
        self.messages_in += 1
        self.bytes_in += n_bytes
        self.bytes_pickled += pickled
        self.bytes_oob += n_bytes - pickled

    def mean_message_size(self) -> float:
        total = self.messages_out + self.messages_in
        if total == 0:
            return 0.0
        return (self.bytes_out + self.bytes_in) / total

    def __repr__(self) -> str:
        return (f"<FrameCodec {self.name!r} out={self.messages_out}msg/"
                f"{self.bytes_out}B in={self.messages_in}msg/"
                f"{self.bytes_in}B>")
