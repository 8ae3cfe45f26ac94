"""Canonical binary serialization for parameter vectors and envelopes.

Signatures are computed over byte strings, so every encoder here is a pure
function with one fixed layout (little-endian, row-major), independent of
host platform:

    parameter payload   u32 rank | u64 dim * rank | f32 values (row-major)
    envelope            header | payload | u32 signature_len | signature
    header (23 bytes)   "PQFL" | u8 version=2 | u8 msg_type | u8 scheme |
                        u32 round | u32 sender_id | u64 payload_len

The signature covers header || digest(payload) (`signed_message`), where the
digest is the one the header scheme's parameter set names
(`sig.SchemeMetadata.digest`): 55 bytes with SHA-256, 87 with SHA-512. It
binds message type, round, sender identity and every payload byte:
re-labelling an envelope invalidates its signature. Version 1 signed
header || payload itself and is refused. NaN/Inf values are rejected in both
directions so a poisoned payload cannot corrupt aggregation silently.

An envelope is written into the room its signer hands over, which only
`envelope_room` sizes: a broadcast's from `ServerState.broadcasts`, an
upload's from `protocol.upload_room`, any other's new. `signed_bytes` lays
out header || payload at its start, parameter values straight into it (or
around them, computed in its `values_slot`); the signer hashes the payload
in place, and `seal` writes u32 signature_len || signature behind it.
Decoding takes views into the wire bytes instead of slices. Wire bytes are
handed out as read-only buffers that nothing else writes to; a writable
buffer given to a decoder is copied once first, so nothing decoded aliases
memory that can still change.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from pqfl.errors import MalformedEnvelope, MalformedPayload, NonFiniteValue, UnsupportedScheme
from pqfl.sig import SchemeId, SignatureBytes, metadata

MAGIC = b"PQFL"
VERSION = 2
HEADER_LEN = 23
_HEADER_FMT = "<4sBBBIIQ"
_MAX_RANK = 64


# Wire bytes: `bytes`, or a read-only view of a buffer that no one writes to.
Wire = bytes | memoryview


class ReusedBuffer:
    """One owner's byte buffer, written again message after message.

    `take(n)` returns a writable view of `n` bytes that starts `BUFFER_LEAD`
    bytes into the buffer. The kept buffer is reused only when nothing but
    this object refers to it and it is at least `n` and at most `2 * n` bytes
    long. Otherwise a new, lazily zeroed buffer is allocated and kept instead,
    so a peer that announces a large frame and stalls commits no memory it
    has not sent, and the old buffer lives on for as long as anyone holds it.
    Every view into the buffer, and every array decoded from such a view,
    refers to it, so no bytes still held anywhere are overwritten.

    Only the owner calls `take`, from one thread at a time.
    """

    # Views start this far in: parameter values sit 27 + 8 * rank bytes into an
    # envelope, so the lead leaves them float32-aligned in memory; numpy runs
    # misaligned arrays through slower buffered loops.
    BUFFER_LEAD = 1

    def __init__(self) -> None:
        self._buf: np.ndarray | None = None

    def take(self, n: int) -> memoryview:
        # when free, the two references are this object's and getrefcount's argument
        if (
            self._buf is None
            or sys.getrefcount(self._buf) > 2
            or not n <= len(self._buf) - self.BUFFER_LEAD <= 2 * n
        ):
            self._buf = np.zeros(self.BUFFER_LEAD + n, dtype=np.uint8)
        return memoryview(self._buf)[self.BUFFER_LEAD : self.BUFFER_LEAD + n]


def envelope_room(payload_len: int, max_signature_len: int, buffer: ReusedBuffer | None = None) -> memoryview:
    """A writable room for an envelope with a `payload_len`-byte payload and a
    signature of up to `max_signature_len` bytes, taken from `buffer` or new."""
    return (buffer or ReusedBuffer()).take(HEADER_LEN + payload_len + 4 + max_signature_len)


def params_len(shape: tuple[int, ...]) -> int:
    """Length of the canonical payload of a `shape` vector: rank, dims, values."""
    return 4 + 8 * len(shape) + 4 * math.prod(shape)


class MsgType(enum.IntEnum):
    MODEL_DISTRIBUTION = 1
    UPDATE_SUBMISSION = 2
    PUBLIC_KEY_ANNOUNCE = 3


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Flat float32 parameter storage with shape metadata.

    `values` is the row-major flattening of a tensor of the given shape;
    all values must be finite. Equality is bit-exact. A decoded vector's
    values are a read-only view into the wire bytes it came from.
    """

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float32).reshape(-1)
        shape = tuple(int(d) for d in self.shape)
        if len(shape) == 0 or any(d <= 0 for d in shape):
            raise MalformedPayload(f"invalid shape {shape}")
        if math.prod(shape) != arr.size:
            raise MalformedPayload(f"shape {shape} does not match {arr.size} values")
        if not all_finite(arr):
            raise NonFiniteValue("parameter vector contains NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "shape", shape)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def encoded_len(self) -> int:
        """Length of the canonical payload, `params_len(shape)`."""
        return params_len(self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return self.shape == other.shape and self.values.tobytes() == other.values.tobytes()

    def __repr__(self) -> str:
        return f"ParameterVector(shape={self.shape}, size={self.size})"


def all_finite(values: np.ndarray) -> bool:
    # min and max propagate NaN and reach every infinity, so two reductions
    # check all values without allocating a mask the size of the array
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _readonly(b) -> memoryview:
    """A read-only byte view of `b`; writable input is copied once first."""
    view = memoryview(b)
    if not view.readonly:
        view = memoryview(bytes(view))
    return view.cast("B")


def values_slot(room: bytearray | memoryview, shape: tuple[int, ...], offset: int = HEADER_LEN) -> np.ndarray:
    """The float32 values of a parameter payload of `shape` at `offset` in
    `room`; by default, of an envelope's payload in an `envelope_room`,
    where `signed_bytes` leaves values computed in this slot in place."""
    return np.frombuffer(room, "<f4", math.prod(shape), offset + 4 + 8 * len(shape))


def _put_params(buf: bytearray | memoryview, offset: int, p: ParameterVector) -> None:
    """Write the canonical payload of `p` into `buf` at `offset`; values
    already in their slot there are left in place."""
    if not all_finite(p.values):
        raise NonFiniteValue("parameter vector contains NaN or Inf")
    struct.pack_into(f"<I{len(p.shape)}Q", buf, offset, len(p.shape), *p.shape)
    slot = values_slot(buf, p.shape, offset)
    if slot.ctypes.data != p.values.ctypes.data:
        slot[:] = p.values


def encode_params(p: ParameterVector) -> bytes:
    """Serialize a parameter vector to its canonical byte layout."""
    buf = bytearray(p.encoded_len)
    _put_params(buf, 0, p)
    return bytes(buf)


def decode_params(b: Wire | bytearray) -> ParameterVector:
    """Inverse of :func:`encode_params`; rejects malformed or non-finite data.

    The values are a read-only view into `b` (into a copy of it when `b` is
    writable).
    """
    b = _readonly(b)
    if len(b) < 4:
        raise MalformedPayload("payload shorter than rank field")
    (rank,) = struct.unpack_from("<I", b, 0)
    if rank == 0 or rank > _MAX_RANK:
        raise MalformedPayload(f"rank {rank} out of range 1..{_MAX_RANK}")
    if len(b) < 4 + 8 * rank:
        raise MalformedPayload("payload truncated inside shape fields")
    shape = struct.unpack_from(f"<{rank}Q", b, 4)
    count = 1
    for d in shape:
        if d == 0:
            raise MalformedPayload("zero dimension")
        count *= d
        if count > (1 << 40):
            raise MalformedPayload("dimension product overflow")
    expected = 4 + 8 * rank + 4 * count
    if len(b) != expected:
        raise MalformedPayload(f"payload length {len(b)} != expected {expected}")
    values = np.frombuffer(b, dtype="<f4", count=count, offset=4 + 8 * rank)
    # the ParameterVector rejects NaN and Inf
    return ParameterVector(values=values, shape=tuple(int(d) for d in shape))


@dataclass(frozen=True)
class MessageHeader:
    msg_type: MsgType
    scheme: SchemeId
    round: int
    sender_id: int
    payload_len: int

    def __post_init__(self):
        if not 0 <= self.round < 2**32:
            raise MalformedEnvelope(f"round {self.round} out of u32 range")
        if not 0 <= self.sender_id < 2**32:
            raise MalformedEnvelope(f"sender_id {self.sender_id} out of u32 range")
        if not 0 <= self.payload_len < 2**64:
            raise MalformedEnvelope("payload_len out of u64 range")

    def encode(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
            int(self.msg_type),
            self.scheme.wire_code,
            self.round,
            self.sender_id,
            self.payload_len,
        )

    @classmethod
    def decode(cls, b: bytes) -> "MessageHeader":
        if len(b) < HEADER_LEN:
            raise MalformedEnvelope("header truncated")
        magic, version, msg_type, scheme_code, rnd, sender, payload_len = struct.unpack_from(
            _HEADER_FMT, b, 0
        )
        if magic != MAGIC:
            raise MalformedEnvelope(f"bad magic {magic!r}")
        if version != VERSION:
            raise MalformedEnvelope(f"unsupported version {version}")
        try:
            mt = MsgType(msg_type)
        except ValueError:
            raise MalformedEnvelope(f"unknown msg_type {msg_type}") from None
        try:
            scheme = SchemeId.from_wire(scheme_code)
        except UnsupportedScheme as exc:
            raise MalformedEnvelope(str(exc)) from None
        return cls(msg_type=mt, scheme=scheme, round=rnd, sender_id=sender, payload_len=payload_len)


@dataclass(frozen=True)
class SignedEnvelope:
    header: MessageHeader
    payload: Wire
    signature: SignatureBytes
    # The bytes the envelope was sealed in or decoded from. Only `seal` and
    # `decode_envelope` set it, so it always encodes exactly the fields
    # above; dataclasses.replace() leaves it unset on the copy.
    wire: memoryview | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.header.payload_len != len(self.payload):
            raise MalformedEnvelope(
                f"payload_len {self.header.payload_len} != payload size {len(self.payload)}"
            )
        if self.signature.scheme != self.header.scheme:
            raise MalformedEnvelope("signature scheme differs from header scheme")

    @property
    def signed(self) -> bytes:
        """The message the signature covers, `signed_message(header, payload)`."""
        return signed_message(self.header, self.payload)


def build_header(
    msg_type: MsgType,
    scheme: SchemeId,
    round: int,
    sender_id: int,
    payload: Wire | ParameterVector,
) -> MessageHeader:
    payload_len = payload.encoded_len if isinstance(payload, ParameterVector) else len(payload)
    return MessageHeader(
        msg_type=msg_type,
        scheme=scheme,
        round=round,
        sender_id=sender_id,
        payload_len=payload_len,
    )


def signed_message(header: MessageHeader, payload: Wire) -> bytes:
    """What a signature covers: header || digest(payload), with the digest
    the header scheme's parameter set names, hashed from `payload` in place."""
    return header.encode() + hashlib.new(metadata(header.scheme).digest, payload).digest()


def signed_bytes(
    header: MessageHeader, payload: Wire | ParameterVector, room: memoryview | None = None
) -> memoryview:
    """The envelope's header || payload, which `seal` completes. Not what is
    signed: a signature covers `signed_message(header, payload)`.

    They are laid out at the start of `room`, an `envelope_room` (by default
    a new one with no space for a signature). A ParameterVector payload is
    encoded straight into the room, around values already in its
    `values_slot`. Returns a read-only view.
    """
    payload_end = HEADER_LEN + header.payload_len
    buf = envelope_room(header.payload_len, 0) if room is None else room
    buf[:HEADER_LEN] = header.encode()
    if isinstance(payload, ParameterVector):
        if payload.encoded_len != header.payload_len:
            raise MalformedEnvelope(f"payload_len {header.payload_len} != {payload.encoded_len}")
        _put_params(buf, HEADER_LEN, payload)
    else:
        if len(payload) != header.payload_len:
            raise MalformedEnvelope(f"payload_len {header.payload_len} != {len(payload)}")
        buf[HEADER_LEN:payload_end] = payload
    return buf[:payload_end].toreadonly()


def seal(header: MessageHeader, room: memoryview, signature: SignatureBytes) -> SignedEnvelope:
    """Write u32 signature_len || signature into `room` behind the header ||
    payload that `signed_bytes` laid out at its start, and return the
    envelope, whose payload and wire bytes are views into `room`."""
    sig = signature.data
    payload_end = HEADER_LEN + header.payload_len
    end = payload_end + 4 + len(sig)
    if len(sig) >= 2**32:
        raise MalformedEnvelope("signature too long for u32 length field")
    if end > len(room):
        raise ValueError(f"no room for a {len(sig)}-byte signature")
    struct.pack_into("<I", room, payload_end, len(sig))
    room[payload_end + 4 : end] = sig
    wire = room[:end].toreadonly()
    env = SignedEnvelope(header=header, payload=wire[HEADER_LEN:payload_end], signature=signature)
    object.__setattr__(env, "wire", wire)
    return env


def encode_envelope(e: SignedEnvelope) -> Wire:
    """The wire bytes of `e`: the buffer it was sealed in or decoded from,
    else a new `bytes` laid out by the same writer."""
    if e.wire is not None:
        return e.wire
    room = envelope_room(e.header.payload_len, len(e.signature.data))
    signed_bytes(e.header, e.payload, room)
    return bytes(seal(e.header, room, e.signature).wire)


def decode_envelope(b: Wire | bytearray) -> SignedEnvelope:
    """Parse wire bytes. The payload is a read-only view into `b` (into a
    copy of it when `b` is writable); the signature is copied out."""
    wire = _readonly(b)
    header = MessageHeader.decode(wire)
    payload_end = HEADER_LEN + header.payload_len
    if len(wire) < payload_end + 4:
        raise MalformedEnvelope("envelope truncated before signature length")
    (sig_len,) = struct.unpack_from("<I", wire, payload_end)
    sig_end = payload_end + 4 + sig_len
    if len(wire) != sig_end:
        raise MalformedEnvelope(f"envelope length {len(wire)} != expected {sig_end}")
    env = SignedEnvelope(
        header=header,
        payload=wire[HEADER_LEN:payload_end],
        signature=SignatureBytes(scheme=header.scheme, data=bytes(wire[payload_end + 4 : sig_end])),
    )
    object.__setattr__(env, "wire", wire)
    return env
