"""Message transport with attack injection, plus a framed TCP transport.

The attacker model is a pure outsider: it can read, modify, replay, and
inject bytes on the wire but holds no signing keys. Attack decisions are a
deterministic function of (attack seed, direction, round, client id), so
identical configurations tamper with identical messages regardless of
transport or delivery order. A replay picks uniformly from the kept
messages, in the order of delivery that `protocol` fixes. Only a replay
channel keeps messages (`Channel.history`), and only those of the newest
round its headers have named and of the round before: anything older is
stale to both sides already.

TCP frames are a 4-byte big-endian length prefix followed by the envelope
bytes exactly as the codec produced them; the receiver enforces a maximum
frame length, `DEFAULT_FRAME_CAP`. A zero-length frame is the "no message
this round" marker. Message drops are out of scope: a closed connection is
fatal for the run. Every socket, on either side, waits at most
`IO_TIMEOUT_S` for a connection, and sends or receives each whole frame
within that time, so a peer that trickles bytes holds a frame no longer
than a silent one; expiry is ConnectionFailed.
"""

from __future__ import annotations

import enum
import socket
import struct
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from pqfl import codec
from pqfl.codec import ParameterVector, Wire
from pqfl.errors import (
    ConnectionFailed,
    FrameTooLarge,
    MalformedEnvelope,
    MalformedPayload,
    NonFiniteValue,
    PeerClosed,
)
from pqfl.fedcore import derive_seed


class Direction(enum.Enum):
    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"
    BOTH = "both"


class AttackKind(enum.Enum):
    NONE = "none"
    BITFLIP = "bitflip"
    SUBSTITUTE = "substitute"
    REPLAY = "replay"
    STRIP = "strip"


@dataclass(frozen=True)
class AttackConfig:
    kind: AttackKind = AttackKind.NONE
    target_client: int | None = None  # None targets every client
    # tampering the uploaded update is the canonical outsider attack, so
    # client-to-server is the default scope
    direction: Direction = Direction.CLIENT_TO_SERVER
    probability: float = 1.0
    seed: int = 0
    poison: str | None = None  # "negate" | "zero", required for SUBSTITUTE

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if self.kind == AttackKind.SUBSTITUTE:
            if self.poison not in ("negate", "zero"):
                raise ValueError("substitute attack needs poison = 'negate' or 'zero'")


@dataclass
class ChannelStats:
    delivered: int = 0
    tampered: int = 0
    replayed: int = 0
    bytes_client_to_server: int = 0
    bytes_server_to_client: int = 0


def flip_one_bit(msg: Wire, rng: np.random.Generator) -> Wire:
    """Flip a single uniformly chosen bit of a copy of the message."""
    pos = int(rng.integers(0, len(msg) * 8))
    out = bytearray(msg)
    out[pos // 8] ^= 1 << (pos % 8)
    return memoryview(out).toreadonly()


def substitute_update(original: Wire, poison_delta: ParameterVector) -> Wire:
    """Replace the parameter payload of an envelope (an update or a model
    broadcast) with a poison vector.

    The original signature stays attached: an outsider has no secret key,
    so the forged envelope must fail verification. In baseline (no-verify)
    runs the poison sails through, which is what the attack demonstrates.
    """
    env = codec.decode_envelope(original)
    payload = codec.encode_params(poison_delta)
    header = replace(env.header, payload_len=len(payload))
    forged = codec.SignedEnvelope(header=header, payload=payload, signature=env.signature)
    return codec.encode_envelope(forged)


def strip_signature(original: Wire) -> Wire:
    """Detach the signature from an envelope (left as zero-length bytes)."""
    env = codec.decode_envelope(original)
    bare = codec.SignedEnvelope(
        header=env.header,
        payload=env.payload,
        signature=type(env.signature)(scheme=env.signature.scheme, data=b""),
    )
    return codec.encode_envelope(bare)


def _same_bytes(a: Wire, b: Wire) -> bool:
    # compared as uint8 arrays in one numpy call; comparing two memoryviews
    # goes element by element
    return len(a) == len(b) and np.array_equal(
        np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8)
    )


def replay(history: list[Wire], rng: np.random.Generator) -> Wire:
    """Re-emit a uniformly chosen previously observed envelope, unmodified."""
    if not history:
        raise ValueError("no prior envelopes to replay")
    return history[int(rng.integers(0, len(history)))]


def _header_round(msg: Wire) -> int:
    try:
        return codec.MessageHeader.decode(msg).round
    except MalformedEnvelope:
        return -1


class Channel:
    """The wire every message crosses, with the attack injector. One thread
    delivers every message, in the order it chooses."""

    def __init__(self, attack: AttackConfig | None = None):
        self.attack = attack if attack is not None and attack.kind != AttackKind.NONE else None
        self.stats = ChannelStats()
        # replay candidates by header round: the newest round and the one before
        self._history: dict[int, list[Wire]] = {}

    @property
    def history(self) -> list[Wire]:
        """The messages a replay can pick from, oldest round first."""
        return [m for msgs in self._history.values() for m in msgs]

    def deliver(self, msg: Wire, direction: Direction, client_id: int) -> Wire:
        """Pass one message through the (possibly hostile) wire."""
        out = msg
        applied = None
        cfg = self.attack
        round_no = _header_round(msg) if cfg is not None else -1
        if cfg is not None and self._in_scope(cfg, direction, client_id):
            rng = np.random.default_rng(
                derive_seed(cfg.seed, "attack", direction.value, round_no, client_id)
            )
            if rng.random() < cfg.probability:
                out, applied = self._apply(cfg, msg, rng)
        # a bitflip always changes one bit; a substitute or a strip can give
        # back the bytes it was handed
        tampered = applied == AttackKind.BITFLIP or (
            applied in (AttackKind.SUBSTITUTE, AttackKind.STRIP) and not _same_bytes(out, msg)
        )
        if cfg is not None and cfg.kind == AttackKind.REPLAY:
            self._history.setdefault(round_no, []).append(msg)
            newest = max(self._history)
            for old in [r for r in self._history if r < newest - 1]:
                del self._history[old]
        self.stats.delivered += 1
        if applied == AttackKind.REPLAY:
            self.stats.replayed += 1
        elif tampered:
            self.stats.tampered += 1
        if direction == Direction.CLIENT_TO_SERVER:
            self.stats.bytes_client_to_server += len(out)
        else:
            self.stats.bytes_server_to_client += len(out)
        return out

    @staticmethod
    def _in_scope(cfg: AttackConfig, direction: Direction, client_id: int) -> bool:
        if cfg.direction not in (Direction.BOTH, direction):
            return False
        return cfg.target_client is None or cfg.target_client == client_id

    def _apply(
        self, cfg: AttackConfig, msg: Wire, rng: np.random.Generator
    ) -> tuple[Wire, AttackKind | None]:
        if cfg.kind == AttackKind.BITFLIP:
            return flip_one_bit(msg, rng), AttackKind.BITFLIP
        if cfg.kind == AttackKind.SUBSTITUTE:
            # any envelope whose payload is a parameter vector: uploads and
            # model broadcasts alike
            try:
                params = codec.decode_params(codec.decode_envelope(msg).payload)
            except (MalformedEnvelope, MalformedPayload, NonFiniteValue):
                return msg, None
            if cfg.poison == "negate":
                poison = ParameterVector(-params.values, params.shape)
            else:
                poison = ParameterVector(np.zeros_like(params.values), params.shape)
            return substitute_update(msg, poison), AttackKind.SUBSTITUTE
        if cfg.kind == AttackKind.REPLAY:
            prior = self.history
            if not prior:
                return msg, None
            return replay(prior, rng), AttackKind.REPLAY
        if cfg.kind == AttackKind.STRIP:
            try:
                return strip_signature(msg), AttackKind.STRIP
            except MalformedEnvelope:
                return msg, None
        return msg, None


# --- framed TCP transport ----------------------------------------------------

DEFAULT_FRAME_CAP = 256 * 1024 * 1024
IO_TIMEOUT_S = 30.0


class FrameSocket:
    """Length-prefixed framing over one TCP connection."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        # the bodies of incoming frames; see recv_frame
        self._frames = codec.ReusedBuffer()

    def send_frame(self, data: Wire) -> None:
        view = memoryview(data).cast("B")
        if len(view) > 0xFFFFFFFF:
            raise FrameTooLarge(f"frame of {len(view)} bytes cannot be length-prefixed")
        wait = self._frame_deadline("peer took too few bytes")
        # one gather write sends prefix and data without joining them first
        parts = [struct.pack(">I", len(view)), view]
        while parts:
            sent = wait(self._sock.sendmsg, parts)
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if parts:
                parts[0] = parts[0][sent:]

    def recv_frame(self) -> memoryview:
        """The next frame, returned read-only. Its bytes sit in this
        connection's receive buffer, which a later frame reuses only once
        nothing refers to this one: not its views, the arrays decoded from
        it, nor a replay channel's history."""
        wait = self._frame_deadline("no bytes from peer, or too few,")
        prefix = bytearray(4)
        self._recv_into(memoryview(prefix), wait)
        (length,) = struct.unpack(">I", prefix)
        if length > DEFAULT_FRAME_CAP:
            raise FrameTooLarge(f"incoming frame of {length} bytes exceeds cap {DEFAULT_FRAME_CAP}")
        if not length:
            return memoryview(b"")
        view = self._frames.take(length)
        self._recv_into(view, wait)
        return view.toreadonly()

    def _frame_deadline(self, failure: str) -> Callable:
        """`wait(method, *args)`, which calls a socket method that waits until
        the socket's timeout from now at most, else raises ConnectionFailed."""
        timeout = self._sock.gettimeout()
        deadline = time.monotonic() + (timeout or 0)

        def wait(method, *args):
            # past the deadline, a call takes only the bytes already there
            self._sock.settimeout(None if timeout is None else max(deadline - time.monotonic(), 1e-9))
            try:
                return method(*args)
            except TimeoutError as exc:
                raise ConnectionFailed(f"{failure} within {timeout} s") from exc
            finally:
                self._sock.settimeout(timeout)

        return wait

    def _recv_into(self, view: memoryview, wait: Callable) -> None:
        got = 0
        while got < len(view):
            count = wait(self._sock.recv_into, view[got:])
            if not count:
                raise PeerClosed(f"connection closed with {len(view) - got} bytes outstanding")
            got += count

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_listen(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    try:
        listener = socket.create_server((host, port), backlog=32)
    except OSError as exc:
        raise ConnectionFailed(f"cannot listen on {host}:{port}: {exc}") from exc
    listener.settimeout(IO_TIMEOUT_S)
    return listener


def tcp_accept(listener: socket.socket) -> FrameSocket:
    try:
        sock, _addr = listener.accept()
    except OSError as exc:  # TimeoutError included
        raise ConnectionFailed(f"accept failed: {exc}") from exc
    sock.settimeout(IO_TIMEOUT_S)
    return FrameSocket(sock)


def tcp_connect(host: str, port: int) -> FrameSocket:
    try:
        sock = socket.create_connection((host, port), timeout=IO_TIMEOUT_S)
    except OSError as exc:
        raise ConnectionFailed(f"cannot connect to {host}:{port}: {exc}") from exc
    return FrameSocket(sock)
