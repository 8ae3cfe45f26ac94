"""Server and client state machines for signature-gated federated averaging.

One round runs four phases: the server signs and broadcasts the global
parameters; each client verifies, trains locally, and submits a signed
delta; the server verifies every submission against the trusted key
registry; only the verified set is averaged into the next global model.

Every signed envelope, broadcast, upload or TCP key announce, is admitted by
one rule: the expected type, a sender with a registered key, a round the
receiver expects and a signature that verifies under that key; only then is
a payload decoded. Round and sender id are signed, so replayed or re-labelled
envelopes fail. Rejected updates are dropped for the round (no retry); a
round whose verified set is empty leaves the parameters unchanged.

One round driver serves both transports and alone passes messages through
the channel. They differ only in the exchange that carries the broadcasts
out and the replies back: a loop over the clients in process, or, over TCP,
one socket and thread per client after a signed key announce, with every
socket on both sides waiting at most `channel.IO_TIMEOUT_S` (30 s).

The server lays its broadcasts out in one `codec.ReusedBuffer`,
`ServerState.broadcasts`, and each TCP client thread lays its uploads out in
one of its own. An envelope and every view or array decoded from it keep
that buffer, so the next envelope reuses it only once they are gone: a
broadcast once its round is over, an upload once it is sent. In process,
each upload is held in `collected` until `finish_round` has aggregated it,
so every client's upload there takes a new buffer.
"""

from __future__ import annotations

import contextlib
import enum
import logging
import queue
import threading
import time
import types
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from pqfl import channel as _channel
from pqfl import codec, fedcore, sig
from pqfl.channel import Direction
from pqfl.codec import MsgType, SignedEnvelope
from pqfl.errors import (
    ConnectionFailed,
    MalformedEnvelope,
    MalformedPayload,
    NonFiniteValue,
    PeerClosed,
    ReplayDetected,
    SignatureInvalid,
    UnsupportedScheme,
    WrongSender,
)
from pqfl.fedcore import (
    ClientDataset,
    GlobalModel,
    ModelUpdate,
    TrainConfig,
    train_seed,
)

log = logging.getLogger("pqfl.protocol")

SERVER_ID = 0


# The trusted, read-only mapping from participant id to (scheme, public key).
# Id 0 is the server; 1..M are clients. Distributed out of band.
KeyRegistry = types.MappingProxyType


@dataclass(frozen=True)
class ProtocolOptions:
    strict: bool = False
    # Baseline mode for measuring what the signatures buy: accept updates
    # and models without checking signatures.
    verify_updates: bool = True
    verify_models: bool = True


class RejectReason(enum.Enum):
    MALFORMED = "malformed"
    SIGNATURE_INVALID = "signature_invalid"
    STALE_ROUND = "stale_round"
    UNKNOWN_SENDER = "unknown_sender"
    DUPLICATE = "duplicate"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class Rejection:
    sender_id: int | None  # claimed sender, None if the header never decoded
    reason: RejectReason
    detail: str = ""


class Phase(enum.IntEnum):
    TRAIN = 0
    SIGN = 1
    VERIFY = 2
    SERIALIZE = 3


# One timed call: (party, phase, start, duration). A round's spans are kept as
# one packed array of SPAN_DTYPE, 21 bytes a span; while the round runs they
# are appended to a plain list of tuples.
Span = tuple[int, Phase, float, float]
SPAN_DTYPE = np.dtype([("party", "<u4"), ("phase", "u1"), ("start", "<f8"), ("duration", "<f8")])


@dataclass
class PhaseTimings:
    """Per-phase sums over every party's spans of one round. Clients' times
    are included, and over TCP they ran concurrently, so a sum can exceed
    `wall_s`; the server's own spans are its critical path."""

    train_s: float = 0.0
    sign_s: float = 0.0
    verify_s: float = 0.0
    serialize_s: float = 0.0
    wall_s: float = 0.0

    @classmethod
    def from_spans(cls, spans: np.ndarray, wall_s: float) -> "PhaseTimings":
        # bincount adds each phase's durations in span order
        sums = np.bincount(spans["phase"], weights=spans["duration"], minlength=len(Phase))
        return cls(**{f"{p.name.lower()}_s": float(sums[p]) for p in Phase}, wall_s=wall_s)


@dataclass
class RoundOutcome:
    round: int
    updates_received: int
    verified_count: int
    rejections: list[Rejection]
    skipped_clients: list[int]
    global_loss: float
    timings: PhaseTimings
    payload_bytes: int
    signature_bytes: int
    spans: np.ndarray  # SPAN_DTYPE, in the order the server gathered them


@dataclass
class ServerState:
    model: GlobalModel
    keypair: sig.KeyPair
    registry: KeyRegistry
    cfg: TrainConfig
    options: ProtocolOptions = field(default_factory=ProtocolOptions)
    eval_data: ClientDataset | None = None
    # where the broadcasts are laid out, round after round and run after run
    broadcasts: codec.ReusedBuffer = field(
        default_factory=codec.ReusedBuffer, repr=False, compare=False
    )


@dataclass
class ClientState:
    client_id: int
    keypair: sig.KeyPair
    server_public_key: bytes
    scheme: sig.SchemeId
    architecture: fedcore.ModelArchitecture
    dataset: ClientDataset
    cfg: TrainConfig
    options: ProtocolOptions = field(default_factory=ProtocolOptions)
    last_accepted_round: int = -1


def derive_keypair(scheme: sig.SchemeId, seed: int | None, participant_id: int) -> sig.KeyPair:
    """A participant's key pair: derived from `seed` and its id, or random when `seed` is None."""
    seed = None if seed is None else fedcore.derive_seed(seed, "key", participant_id)
    return sig.keygen(scheme, seed)


def setup_keys(
    cfg: TrainConfig,
    scheme: sig.SchemeId,
    seed: int | None,
    model: GlobalModel,
    client_datasets: list[ClientDataset],
    options: ProtocolOptions | None = None,
    eval_data: ClientDataset | None = None,
) -> tuple[ServerState, list[ClientState], KeyRegistry]:
    """Generate all key pairs, freeze the registry, and build both sides'
    states. Key distribution is assumed trusted (out of band)."""
    options = options or ProtocolOptions()
    if options.strict and scheme == sig.SchemeId.TEST_SCHEME:
        raise UnsupportedScheme("TestScheme is not allowed in strict mode")
    if len(client_datasets) != cfg.num_clients:
        raise ValueError(
            f"{len(client_datasets)} shards for {cfg.num_clients} clients"
        )

    server_kp = derive_keypair(scheme, seed, SERVER_ID)
    client_kps = [derive_keypair(scheme, seed, i) for i in range(1, cfg.num_clients + 1)]

    # the server's id, 0, comes first, then the clients' 1..M
    registry = KeyRegistry(
        {pid: (scheme, kp.public_key) for pid, kp in enumerate([server_kp, *client_kps])}
    )

    server = ServerState(
        model=model,
        keypair=server_kp,
        registry=registry,
        cfg=cfg,
        options=options,
        eval_data=eval_data,
    )
    clients = [
        ClientState(
            client_id=i,
            keypair=kp,
            server_public_key=server_kp.public_key,
            scheme=scheme,
            architecture=model.architecture,
            dataset=ds,
            cfg=cfg,
            options=options,
        )
        for i, (kp, ds) in enumerate(zip(client_kps, client_datasets), start=1)
    ]
    return server, clients, registry


# --- per-phase operations ----------------------------------------------------

def _sign_envelope(
    keypair: sig.KeyPair,
    msg_type: MsgType,
    round: int,
    sender_id: int,
    payload: bytes | codec.ParameterVector,
    spans: list[Span],
    buffer: codec.ReusedBuffer | None = None,
) -> SignedEnvelope:
    """Lay out header ‖ payload once, sign a view of it and seal the
    signature in behind it, all in one buffer taken from `buffer`."""
    t0 = time.perf_counter()
    header = codec.build_header(msg_type, keypair.scheme, round, sender_id, payload)
    max_len = sig.metadata(keypair.scheme).signature_max_len
    to_sign = codec.signed_bytes(header, payload, max_len, buffer)
    t1 = time.perf_counter()
    signature = sig.sign(keypair, to_sign)
    t2 = time.perf_counter()
    env = codec.seal(header, to_sign, signature)
    t3 = time.perf_counter()
    spans += [
        (sender_id, Phase.SERIALIZE, t0, t1 - t0),
        (sender_id, Phase.SIGN, t1, t2 - t1),
        (sender_id, Phase.SERIALIZE, t2, t3 - t2),
    ]
    return env


def distribute_model(server: ServerState, spans: list[Span] | None = None) -> SignedEnvelope:
    """Sign the current global parameters into a broadcast envelope laid out
    in `server.broadcasts`, appending the server's spans to `spans`."""
    return _sign_envelope(
        server.keypair,
        MsgType.MODEL_DISTRIBUTION,
        server.model.round,
        SERVER_ID,
        server.model.params,
        [] if spans is None else spans,
        server.broadcasts,
    )


# --- admission: one rule for broadcasts, uploads and announces ----------------

class _Refused(Exception):
    """An envelope failed an admission check; `reason` says which."""

    def __init__(self, reason: RejectReason, detail: str):
        super().__init__(f"{reason.value}: {detail}")
        self.reason, self.detail = reason, detail


def _authenticate(
    env: SignedEnvelope, msg_type: MsgType, keys: Mapping[int, tuple[sig.SchemeId, bytes]],
    rounds: range, verify: bool, party: int, spans: list[Span],
) -> None:
    """Raise _Refused unless `env` has type `msg_type`, a sender other than the
    receiving `party` with an entry in `keys` and a round in `rounds`, and, when
    `verify` is set, a signature that verifies under that sender's key, timed
    as `party`'s VERIFY span."""
    header = env.header
    if header.msg_type != msg_type:
        raise _Refused(RejectReason.MALFORMED, f"{header.msg_type!r}, expected {msg_type!r}")
    if header.sender_id not in keys or header.sender_id == party:
        raise _Refused(RejectReason.UNKNOWN_SENDER, f"sender {header.sender_id} is not a peer")
    if header.round not in rounds:
        expected = rounds.start if len(rounds) == 1 else f"{rounds.start} or later"
        raise _Refused(RejectReason.STALE_ROUND, f"round {header.round}, expected {expected}")
    if verify:
        scheme, public_key = keys[header.sender_id]
        t0 = time.perf_counter()
        ok = sig.verify(public_key, scheme, env.signed, env.signature)
        spans.append((party, Phase.VERIFY, t0, time.perf_counter() - t0))
        if not ok:
            raise _Refused(RejectReason.SIGNATURE_INVALID, f"under sender {header.sender_id}'s key")


def _decode_params(env: SignedEnvelope, shape: tuple[int, ...], party: int,
                   spans: list[Span]) -> codec.ParameterVector:
    """The finite parameters of `shape` in `env`'s payload, or _Refused; the
    decode is timed as one of `party`'s SERIALIZE spans."""
    t0 = time.perf_counter()
    try:
        params = codec.decode_params(env.payload)
    except NonFiniteValue as exc:
        raise _Refused(RejectReason.NON_FINITE, str(exc)) from None
    except MalformedPayload as exc:
        raise _Refused(RejectReason.MALFORMED, str(exc)) from None
    finally:
        spans.append((party, Phase.SERIALIZE, t0, time.perf_counter() - t0))
    if params.shape != shape:
        raise _Refused(RejectReason.MALFORMED, f"shape {params.shape}, expected {shape}")
    return params


def client_receive_model(
    client: ClientState, env: SignedEnvelope, spans: list[Span] | None = None
) -> GlobalModel:
    """Admit a model distribution envelope and advance the client's
    accepted-round watermark, or raise MalformedEnvelope / WrongSender /
    ReplayDetected / SignatureInvalid."""
    spans = [] if spans is None else spans
    server_key = {SERVER_ID: (client.scheme, client.server_public_key)}
    try:
        _authenticate(env, MsgType.MODEL_DISTRIBUTION, server_key,
                      range(client.last_accepted_round + 1, 2**32),
                      client.options.verify_models, client.client_id, spans)
        params = _decode_params(env, (client.architecture.param_count,), client.client_id, spans)
    except _Refused as exc:
        kind = {RejectReason.UNKNOWN_SENDER: WrongSender, RejectReason.STALE_ROUND: ReplayDetected,
                RejectReason.SIGNATURE_INVALID: SignatureInvalid}.get(exc.reason, MalformedEnvelope)
        raise kind(f"model distribution refused: {exc}") from None
    client.last_accepted_round = env.header.round
    return GlobalModel(params=params, architecture=client.architecture, round=env.header.round)


def client_submit_update(
    client: ClientState,
    update: ModelUpdate,
    spans: list[Span] | None = None,
    buffer: codec.ReusedBuffer | None = None,
) -> SignedEnvelope:
    """Wrap a local update in a signed submission envelope laid out in `buffer`."""
    if update.round != client.last_accepted_round:
        raise ReplayDetected(
            f"update round {update.round} != current round {client.last_accepted_round}"
        )
    return _sign_envelope(
        client.keypair,
        MsgType.UPDATE_SUBMISSION,
        update.round,
        client.client_id,
        update.delta,
        [] if spans is None else spans,
        buffer,
    )


@dataclass
class ClientRoundResult:
    reply: codec.Wire | None
    spans: list[Span]  # this client's spans of the round
    skipped: str | None = None  # reason text when the client sat out


def client_process_round(
    client: ClientState, env_blob: codec.Wire, buffer: codec.ReusedBuffer | None = None
) -> ClientRoundResult:
    """One full client round over wire bytes: decode, verify, train, submit
    an upload laid out in `buffer`.

    A client that cannot validate the incoming model sits the round out
    and reports why instead of raising.
    """
    spans: list[Span] = []
    t0 = time.perf_counter()
    try:
        env = codec.decode_envelope(env_blob)
        spans.append((client.client_id, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        model = client_receive_model(client, env, spans)
    except (MalformedEnvelope, WrongSender, ReplayDetected, SignatureInvalid) as exc:
        log.info("client %d sitting out: %s", client.client_id, exc)
        return ClientRoundResult(reply=None, spans=spans, skipped=str(exc))

    t0 = time.perf_counter()
    update = fedcore.local_train(
        model,
        client.dataset,
        client.cfg,
        train_seed(client.cfg.seed, model.round, client.client_id),
        client.client_id,
    )
    spans.append((client.client_id, Phase.TRAIN, t0, time.perf_counter() - t0))

    env_out = client_submit_update(client, update, spans, buffer)
    t0 = time.perf_counter()
    blob = codec.encode_envelope(env_out)
    spans.append((client.client_id, Phase.SERIALIZE, t0, time.perf_counter() - t0))
    return ClientRoundResult(reply=blob, spans=spans)


def server_collect_and_verify(
    server: ServerState,
    envelope_blobs: list[codec.Wire],
    spans: list[Span] | None = None,
) -> tuple[list[ModelUpdate], list[Rejection], int, int]:
    """Filter raw submission bytes down to the verified update set.

    Returns (verified updates, rejections, payload_bytes, signature_bytes);
    rejection is data, never an exception. At most one update per client
    enters the set (first valid wins). The server's spans go to `spans`.
    """
    spans = [] if spans is None else spans
    verified: list[ModelUpdate] = []
    rejections: list[Rejection] = []
    accepted_ids: set[int] = set()
    payload_bytes = signature_bytes = 0
    this_round = range(server.model.round, server.model.round + 1)
    for blob in envelope_blobs:
        t0 = time.perf_counter()
        try:
            env = codec.decode_envelope(blob)
        except MalformedEnvelope as exc:
            rejections.append(Rejection(None, RejectReason.MALFORMED, str(exc)))
            continue
        finally:
            spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        payload_bytes += len(env.payload)
        signature_bytes += len(env.signature.data)
        sender = env.header.sender_id
        try:
            _authenticate(env, MsgType.UPDATE_SUBMISSION, server.registry, this_round,
                          server.options.verify_updates, SERVER_ID, spans)
            if sender in accepted_ids:
                raise _Refused(RejectReason.DUPLICATE, f"second update from client {sender}")
            delta = _decode_params(env, server.model.params.shape, SERVER_ID, spans)
        except _Refused as exc:
            rejections.append(Rejection(sender, exc.reason, exc.detail))
            continue
        accepted_ids.add(sender)
        verified.append(ModelUpdate(delta=delta, client_id=sender, round=env.header.round))

    return verified, rejections, payload_bytes, signature_bytes


def finish_round(
    server: ServerState,
    collected: list[codec.Wire],
    dist_env: SignedEnvelope,
    spans: list[Span],
    skipped_clients: list[int],
    wall_start: float,
) -> RoundOutcome:
    """Server half of round completion: verify, aggregate, measure.

    `spans` holds every span of the round so far; the server's verify spans
    are appended to it before it is packed into the outcome.

    Empties `collected` once the round is aggregated: the verified deltas
    are views into those uploads, and the evaluation that follows should not
    run with a whole round of them still held."""
    verified, rejections, payload_bytes, signature_bytes = server_collect_and_verify(
        server, collected, spans
    )
    verified_count = len(verified)
    if verified:
        server.model = fedcore.aggregate(server.model, verified)
    else:
        log.warning("round %d: empty verified set, parameters unchanged", server.model.round)
        server.model = replace(server.model, round=server.model.round + 1)
    del verified
    collected.clear()

    loss = (
        fedcore.forward_loss(server.model, server.eval_data)
        if server.eval_data is not None
        else float("nan")
    )
    packed = np.array(spans, dtype=SPAN_DTYPE)
    wall_s = time.perf_counter() - wall_start
    return RoundOutcome(
        round=server.model.round - 1,
        updates_received=verified_count + len(rejections),
        verified_count=verified_count,
        rejections=rejections,
        skipped_clients=skipped_clients,
        global_loss=loss,
        timings=PhaseTimings.from_spans(packed, wall_s),
        payload_bytes=payload_bytes + len(dist_env.payload),
        signature_bytes=signature_bytes + len(dist_env.signature.data),
        spans=packed,
    )


@dataclass
class TrainingResult:
    model: GlobalModel
    outcomes: list[RoundOutcome]


# The transport interface: carry each (client id, broadcast frame) out, append
# the clients' spans to the round's, and return each client's (id, reply) in
# ascending id, b"" for a client that sat out.
Addressed = tuple[int, codec.Wire]
Exchange = Callable[[Iterator[Addressed], list[Span]], list[Addressed]]


def _run_rounds(
    server: ServerState, clients: list[ClientState], chan: _channel.Channel, exchange: Exchange
) -> TrainingResult:
    """The round loop of both transports: broadcast, exchange, aggregate.

    The one caller of `chan.deliver`, on the server's thread: each client's
    broadcast in ascending client id, made as the exchange takes it, then each
    reply in that order. So an attack sees the same messages in the same
    order over either transport."""
    client_ids = sorted(c.client_id for c in clients)
    outcomes = []
    for _ in range(server.cfg.num_rounds):
        wall_start = time.perf_counter()
        spans: list[Span] = []
        dist_env = distribute_model(server, spans)
        t0 = time.perf_counter()
        dist_blob = codec.encode_envelope(dist_env)
        spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        frames = (chan.deliver(dist_blob, Direction.SERVER_TO_CLIENT, cid) for cid in client_ids)
        replies = exchange(zip(client_ids, frames), spans)
        collected, skipped = [], []
        while replies:  # each reply is let go once delivered: only `collected` keeps an upload
            cid, reply = replies.pop(0)
            if reply:
                collected.append(chan.deliver(reply, Direction.CLIENT_TO_SERVER, cid))
            else:
                skipped.append(cid)
            del reply
        # finish_round empties `collected`, so no upload reaches the next round
        outcome = finish_round(server, collected, dist_env, spans, skipped, wall_start)
        del dist_env, dist_blob  # so that the next broadcast can reuse their buffer
        outcomes.append(outcome)
        log.info("round %d: verified=%d rejected=%d loss=%.6f", outcome.round,
                 outcome.verified_count, len(outcome.rejections), outcome.global_loss)
    return TrainingResult(model=server.model, outcomes=outcomes)


def run_training(
    server: ServerState,
    clients: list[ClientState],
    chan: _channel.Channel | None = None,
) -> TrainingResult:
    """Run the configured number of rounds over the in-process channel."""
    by_id = {c.client_id: c for c in clients}

    def exchange(frames: Iterator[Addressed], spans: list[Span]) -> list[Addressed]:
        replies = []
        for cid, frame in frames:
            result = client_process_round(by_id[cid], frame)
            spans += result.spans
            replies.append((cid, result.reply or b""))
        return replies

    return _run_rounds(server, clients, chan or _channel.Channel(), exchange)


# --- loopback / network TCP execution -----------------------------------------

def _check_announce(server: ServerState, blob: codec.Wire) -> int:
    """Map an incoming connection to a registered client id, or fail the run.

    The registry is the trust anchor: the announced key must byte-match it,
    which is tested before the signature.
    """
    try:
        env = codec.decode_envelope(blob)
    except MalformedEnvelope as exc:
        raise ConnectionFailed(f"bad announce: {exc}") from exc
    sender = env.header.sender_id
    if sender in server.registry and env.payload != server.registry[sender][1]:
        raise ConnectionFailed(f"announced key for client {sender} does not match registry")
    try:
        _authenticate(env, MsgType.PUBLIC_KEY_ANNOUNCE, server.registry, range(1), True,
                      SERVER_ID, [])
    except _Refused as exc:
        raise ConnectionFailed(f"announce from participant {sender} refused: {exc}") from None
    return sender


@contextlib.contextmanager
def _tcp_exchange(server: ServerState, clients: list[ClientState],
                  host: str, port: int) -> Iterator[Exchange]:
    """Connect each client on its own thread and socket, admit each announce
    once, and yield the TCP exchange. The listener and every accepted socket
    are closed on every exit path, which releases the client threads at once.
    Once they are joined, the failure of the lowest client id that failed on
    its own, not on a closed socket, is raised ahead of the server's error."""
    listener = _channel.tcp_listen(host, port)
    address = listener.getsockname()[:2]
    # Each client puts its spans here once a round, before it sends its reply,
    # so they are all in once the server has every reply of the round.
    client_spans: queue.SimpleQueue[list[Span]] = queue.SimpleQueue()
    failures: dict[int, Exception] = {}  # by client id, set by client threads, read after join

    def client_main(client: ClientState) -> None:
        try:
            with contextlib.closing(_channel.tcp_connect(*address)) as fs:
                kp = client.keypair
                announce = _sign_envelope(kp, MsgType.PUBLIC_KEY_ANNOUNCE, 0, client.client_id,
                                          kp.public_key, [])
                fs.send_frame(codec.encode_envelope(announce))
                uploads = codec.ReusedBuffer()  # this thread's, free again once a reply is sent
                for _ in range(server.cfg.num_rounds):
                    result = client_process_round(client, fs.recv_frame(), uploads)
                    client_spans.put(result.spans)
                    fs.send_frame(result.reply or b"")
                    del result  # so that the next upload reuses `uploads`
        except Exception as exc:  # surfaced after join
            failures[client.client_id] = exc

    accepted: list[_channel.FrameSocket] = []
    conns: dict[int, _channel.FrameSocket] = {}

    def exchange(frames: Iterator[Addressed], spans: list[Span]) -> list[Addressed]:
        for cid, frame in frames:
            conns[cid].send_frame(frame)
        replies = [(cid, conns[cid].recv_frame()) for cid in sorted(conns)]
        for _ in conns:
            spans += client_spans.get_nowait()
        return replies

    threads = [threading.Thread(target=client_main, args=(c,), daemon=True) for c in clients]
    error = None
    try:
        for th in threads:
            th.start()
        for _ in clients:
            accepted.append(_channel.tcp_accept(listener))
            cid = _check_announce(server, accepted[-1].recv_frame())
            if cid in conns:  # an announce carries no freshness: it may be a replay
                raise ConnectionFailed(f"second announce for connected client {cid}")
            conns[cid] = accepted[-1]
        listener.close()
        yield exchange
    except Exception as exc:
        error = exc
    finally:
        listener.close()
        for fs in accepted:
            fs.close()
        for th in threads:
            th.join(timeout=60)
    # A client that fails closes its socket, so the server's error and the other
    # clients' transport errors may only echo that client's own failure.
    own = [exc for _, exc in sorted(failures.items())
           if not isinstance(exc, (ConnectionFailed, PeerClosed, OSError))]
    if own:
        raise own[0] from error
    if error is not None or failures:
        raise error or failures[min(failures)]


def run_training_tcp(
    server: ServerState,
    clients: list[ClientState],
    chan: _channel.Channel | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> TrainingResult:
    """Run training with one TCP connection per client over the codec's
    wire format. Client loops run on their own threads; a dropped
    connection is fatal for the run."""
    with _tcp_exchange(server, clients, host, port) as exchange:
        return _run_rounds(server, clients, chan or _channel.Channel(), exchange)
