"""Message transport with attack injection, plus a framed TCP transport.

The attacker model is a pure outsider: it can read, modify, replay, and
inject bytes on the wire but holds no signing keys. Attack decisions are a
deterministic function of (attack seed, direction, round, client id), so
identical configurations tamper with identical messages regardless of
transport or delivery order. The one exception is replay *selection*,
which picks uniformly from the messages observed so far and therefore
depends on delivery order. Only a replay channel keeps those messages
(`Channel.history`); its history is unbounded.

TCP frames are a 4-byte big-endian length prefix followed by the envelope
bytes exactly as the codec produced them; the receiver enforces a
configurable maximum frame length. A zero-length frame is the "no message
this round" marker. Message drops are out of scope: a closed connection is
fatal for the run. Every socket, on either side, waits at most
`IO_TIMEOUT_S` for a connection or for bytes; expiry is ConnectionFailed.
"""

from __future__ import annotations

import enum
import socket
import struct
import threading
from dataclasses import dataclass, replace

import numpy as np

from pqfl import codec
from pqfl.codec import MsgType, ParameterVector
from pqfl.errors import ConnectionFailed, FrameTooLarge, MalformedEnvelope, PeerClosed
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


def flip_one_bit(msg: bytes, rng: np.random.Generator) -> bytes:
    """Flip a single uniformly chosen bit."""
    pos = int(rng.integers(0, len(msg) * 8))
    out = bytearray(msg)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def substitute_update(original: bytes, poison_delta: ParameterVector) -> bytes:
    """Replace the payload of an update envelope with a poison delta.

    The original signature stays attached: an outsider has no secret key,
    so the forged envelope must fail verification. In baseline (no-verify)
    runs the poison sails through, which is what the attack demonstrates.
    """
    env = codec.decode_envelope(original)
    payload = codec.encode_params(poison_delta)
    header = replace(env.header, payload_len=len(payload))
    forged = codec.SignedEnvelope(header=header, payload=payload, signature=env.signature)
    return codec.encode_envelope(forged)


def strip_signature(original: bytes) -> bytes:
    """Detach the signature from an envelope (left as zero-length bytes)."""
    env = codec.decode_envelope(original)
    bare = codec.SignedEnvelope(
        header=env.header,
        payload=env.payload,
        signature=type(env.signature)(scheme=env.signature.scheme, data=b""),
    )
    return codec.encode_envelope(bare)


def replay(history: list[bytes], rng: np.random.Generator) -> bytes:
    """Re-emit a uniformly chosen previously observed envelope, unmodified."""
    if not history:
        raise ValueError("no prior envelopes to replay")
    return history[int(rng.integers(0, len(history)))]


class Channel:
    """In-process channel: multi-producer / single-consumer with FIFO per
    sender, plus the attack injector. Thread-safe so the TCP path can share
    one instance across client connections."""

    def __init__(self, attack: AttackConfig | None = None):
        self.attack = attack if attack is not None and attack.kind != AttackKind.NONE else None
        self.stats = ChannelStats()
        self.history: list[bytes] = []
        self._lock = threading.Lock()

    def deliver(self, msg: bytes, direction: Direction, client_id: int) -> bytes:
        """Pass one message through the (possibly hostile) wire."""
        out = msg
        applied = None
        cfg = self.attack
        if cfg is not None and self._in_scope(cfg, direction, client_id):
            rng = self._message_rng(cfg, msg, direction, client_id)
            if rng.random() < cfg.probability:
                out, applied = self._apply(cfg, msg, rng)
        with self._lock:
            if cfg is not None and cfg.kind == AttackKind.REPLAY:
                self.history.append(msg)
            self.stats.delivered += 1
            if applied == AttackKind.REPLAY:
                self.stats.replayed += 1
            elif applied is not None and out != msg:
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

    @staticmethod
    def _message_rng(
        cfg: AttackConfig, msg: bytes, direction: Direction, client_id: int
    ) -> np.random.Generator:
        try:
            round_no = codec.MessageHeader.decode(msg).round
        except MalformedEnvelope:
            round_no = -1
        return np.random.default_rng(
            derive_seed(cfg.seed, "attack", direction.value, round_no, client_id)
        )

    def _apply(
        self, cfg: AttackConfig, msg: bytes, rng: np.random.Generator
    ) -> tuple[bytes, AttackKind | None]:
        if cfg.kind == AttackKind.BITFLIP:
            return flip_one_bit(msg, rng), AttackKind.BITFLIP
        if cfg.kind == AttackKind.SUBSTITUTE:
            try:
                env = codec.decode_envelope(msg)
                if env.header.msg_type != MsgType.UPDATE_SUBMISSION:
                    return msg, None
                params = codec.decode_params(env.payload)
            except Exception:
                return msg, None
            if cfg.poison == "negate":
                poison = ParameterVector(-params.values, params.shape)
            else:
                poison = ParameterVector(np.zeros_like(params.values), params.shape)
            return substitute_update(msg, poison), AttackKind.SUBSTITUTE
        if cfg.kind == AttackKind.REPLAY:
            with self._lock:
                prior = list(self.history)
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

    def __init__(self, sock: socket.socket, max_frame: int = DEFAULT_FRAME_CAP):
        self._sock = sock
        self.max_frame = max_frame

    def send_frame(self, data: bytes) -> None:
        if len(data) > 0xFFFFFFFF:
            raise FrameTooLarge(f"frame of {len(data)} bytes cannot be length-prefixed")
        self._sock.sendall(struct.pack(">I", len(data)) + data)

    def recv_frame(self) -> bytes:
        (length,) = struct.unpack(">I", self._recv_exact(4))
        if length > self.max_frame:
            raise FrameTooLarge(f"incoming frame of {length} bytes exceeds cap {self.max_frame}")
        return self._recv_exact(length)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except TimeoutError as exc:
                raise ConnectionFailed(f"no bytes from peer for {self._sock.gettimeout()} s") from exc
            if not chunk:
                raise PeerClosed(f"connection closed with {remaining} bytes outstanding")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_listen(host: str = "127.0.0.1", port: int = 0, backlog: int = 32) -> socket.socket:
    try:
        listener = socket.create_server((host, port), backlog=backlog)
    except OSError as exc:
        raise ConnectionFailed(f"cannot listen on {host}:{port}: {exc}") from exc
    listener.settimeout(IO_TIMEOUT_S)
    return listener


def tcp_accept(listener: socket.socket, max_frame: int = DEFAULT_FRAME_CAP) -> FrameSocket:
    try:
        sock, _addr = listener.accept()
    except OSError as exc:  # TimeoutError included
        raise ConnectionFailed(f"accept failed: {exc}") from exc
    sock.settimeout(IO_TIMEOUT_S)
    return FrameSocket(sock, max_frame)


def tcp_connect(
    host: str,
    port: int,
    max_frame: int = DEFAULT_FRAME_CAP,
    timeout: float = IO_TIMEOUT_S,
) -> FrameSocket:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionFailed(f"cannot connect to {host}:{port}: {exc}") from exc
    return FrameSocket(sock, max_frame)
