"""Server and client state machines for signature-gated federated averaging.

One round runs four phases: the server signs and broadcasts the global
parameters; each client verifies, trains locally, and submits a signed
delta; the server verifies every submission against the trusted key
registry; only the verified set is averaged into the next global model.

Round number and sender id live inside the signed bytes, so replayed or
re-labelled envelopes fail verification or the freshness checks. Rejected
updates are dropped for the round (no retry); a round whose verified set
is empty leaves the parameters unchanged.

One round driver serves both transports. They differ only in the exchange
that carries the broadcast out and the replies back: a loop over the
clients in process, or, over TCP, one socket and thread per client after a
signed key announce, with every socket on both sides waiting at most
`channel.IO_TIMEOUT_S` (30 s).
"""

from __future__ import annotations

import contextlib
import enum
import logging
import queue
import threading
import time
from collections.abc import Callable, Iterator
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


@dataclass(frozen=True)
class KeyRegistry:
    """Trusted, frozen mapping from participant id to (scheme, public key).
    Id 0 is the server; 1..M are clients. Distributed out-of-band."""

    entries: dict[int, tuple[sig.SchemeId, bytes]]

    def public_key(self, participant_id: int) -> tuple[sig.SchemeId, bytes]:
        return self.entries[participant_id]

    def __contains__(self, participant_id: int) -> bool:
        return participant_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ProtocolOptions:
    strict: bool = False
    # Baseline mode for measuring what the signatures buy: accept updates
    # and models without checking signatures.
    verify_updates: bool = True
    verify_models: bool = True
    # Disabling the round freshness check demonstrates the replay hole the
    # binding exists to close. Never disable outside experiments.
    enforce_round_binding: bool = True


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

    @property
    def round(self) -> int:
        return self.model.round


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

    def key_seed(participant_id: int) -> int | None:
        return None if seed is None else fedcore.derive_seed(seed, "key", participant_id)

    server_kp = sig.keygen(scheme, key_seed(SERVER_ID))
    client_kps = [sig.keygen(scheme, key_seed(i)) for i in range(1, cfg.num_clients + 1)]

    entries = {SERVER_ID: (scheme, server_kp.public_key)}
    for i, kp in enumerate(client_kps, start=1):
        entries[i] = (scheme, kp.public_key)
    registry = KeyRegistry(entries=entries)

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
) -> SignedEnvelope:
    """Lay out header ‖ payload once, sign a view of it and seal the
    signature in behind it, all in one buffer."""
    t0 = time.perf_counter()
    header = codec.build_header(msg_type, keypair.scheme, round, sender_id, payload)
    to_sign = codec.signed_bytes(header, payload, sig.metadata(keypair.scheme).signature_max_len)
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
    """Sign the current global parameters into a broadcast envelope,
    appending the server's spans to `spans`."""
    return _sign_envelope(
        server.keypair,
        MsgType.MODEL_DISTRIBUTION,
        server.model.round,
        SERVER_ID,
        server.model.params,
        [] if spans is None else spans,
    )


def client_receive_model(
    client: ClientState, env: SignedEnvelope, spans: list[Span] | None = None
) -> GlobalModel:
    """Validate and accept a model distribution envelope.

    Raises MalformedEnvelope / WrongSender / ReplayDetected /
    SignatureInvalid, each distinct; on success advances the client's
    accepted-round watermark.
    """
    if spans is None:
        spans = []
    if env.header.msg_type != MsgType.MODEL_DISTRIBUTION:
        raise MalformedEnvelope(f"expected model distribution, got {env.header.msg_type!r}")
    if env.header.sender_id != SERVER_ID:
        raise WrongSender(f"model distribution from sender {env.header.sender_id}")
    if env.header.round <= client.last_accepted_round:
        raise ReplayDetected(
            f"round {env.header.round} not newer than {client.last_accepted_round}"
        )
    if client.options.verify_models:
        t0 = time.perf_counter()
        ok = sig.verify(client.server_public_key, client.scheme, env.signed, env.signature)
        spans.append((client.client_id, Phase.VERIFY, t0, time.perf_counter() - t0))
        if not ok:
            raise SignatureInvalid("model distribution signature rejected")
    t0 = time.perf_counter()
    try:
        params = codec.decode_params(env.payload)
    except (MalformedPayload, NonFiniteValue) as exc:
        raise MalformedEnvelope(f"model payload: {exc}") from exc
    spans.append((client.client_id, Phase.SERIALIZE, t0, time.perf_counter() - t0))
    if params.size != client.architecture.param_count:
        raise MalformedEnvelope(
            f"model payload has {params.size} params, expected {client.architecture.param_count}"
        )
    model = GlobalModel(params=params, architecture=client.architecture, round=env.header.round)
    client.last_accepted_round = env.header.round
    return model


def client_submit_update(
    client: ClientState, update: ModelUpdate, spans: list[Span] | None = None
) -> SignedEnvelope:
    """Wrap a local update in a signed submission envelope."""
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
    )


@dataclass
class ClientRoundResult:
    reply: codec.Wire | None
    spans: list[Span]  # this client's spans of the round
    skipped: str | None = None  # reason text when the client sat out


def client_process_round(client: ClientState, env_blob: codec.Wire) -> ClientRoundResult:
    """One full client round over wire bytes: decode, verify, train, submit.

    A client that cannot validate the incoming model sits the round out
    and reports why instead of raising.
    """
    spans: list[Span] = []
    t0 = time.perf_counter()
    try:
        env = codec.decode_envelope(env_blob)
    except MalformedEnvelope as exc:
        return ClientRoundResult(reply=None, spans=spans, skipped=f"malformed: {exc}")
    spans.append((client.client_id, Phase.SERIALIZE, t0, time.perf_counter() - t0))

    try:
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

    env_out = client_submit_update(client, update, spans)
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
    if spans is None:
        spans = []
    verified: list[ModelUpdate] = []
    rejections: list[Rejection] = []
    accepted_ids: set[int] = set()
    payload_bytes = 0
    signature_bytes = 0

    for blob in envelope_blobs:
        t0 = time.perf_counter()
        try:
            env = codec.decode_envelope(blob)
        except MalformedEnvelope as exc:
            spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
            rejections.append(Rejection(None, RejectReason.MALFORMED, str(exc)))
            continue
        spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        payload_bytes += len(env.payload)
        signature_bytes += len(env.signature.data)
        sender = env.header.sender_id

        if env.header.msg_type != MsgType.UPDATE_SUBMISSION:
            rejections.append(
                Rejection(sender, RejectReason.MALFORMED, f"msg_type {env.header.msg_type!r}")
            )
            continue
        if sender == SERVER_ID or sender not in server.registry:
            rejections.append(Rejection(sender, RejectReason.UNKNOWN_SENDER))
            continue
        if server.options.enforce_round_binding and env.header.round != server.model.round:
            rejections.append(
                Rejection(
                    sender,
                    RejectReason.STALE_ROUND,
                    f"round {env.header.round} != {server.model.round}",
                )
            )
            continue

        if server.options.verify_updates:
            scheme, public_key = server.registry.public_key(sender)
            t0 = time.perf_counter()
            ok = sig.verify(public_key, scheme, env.signed, env.signature)
            spans.append((SERVER_ID, Phase.VERIFY, t0, time.perf_counter() - t0))
            if not ok:
                rejections.append(Rejection(sender, RejectReason.SIGNATURE_INVALID))
                continue

        if sender in accepted_ids:
            rejections.append(Rejection(sender, RejectReason.DUPLICATE))
            continue

        t0 = time.perf_counter()
        try:
            delta = codec.decode_params(env.payload)
        except NonFiniteValue as exc:
            rejections.append(Rejection(sender, RejectReason.NON_FINITE, str(exc)))
            continue
        except MalformedPayload as exc:
            rejections.append(Rejection(sender, RejectReason.MALFORMED, str(exc)))
            continue
        finally:
            spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        if delta.size != server.model.architecture.param_count:
            rejections.append(
                Rejection(sender, RejectReason.MALFORMED, f"delta size {delta.size}")
            )
            continue

        accepted_ids.add(sender)
        verified.append(
            ModelUpdate(delta=delta, client_id=sender, round=env.header.round)
        )

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


# The transport interface: carry one broadcast to every client, append the
# clients' spans to the round's, and return (delivered replies, ids of
# clients that sat out).
Exchange = Callable[[codec.Wire, list[Span]], tuple[list[codec.Wire], list[int]]]


def _run_rounds(server: ServerState, exchange: Exchange) -> TrainingResult:
    """The round loop of both transports: broadcast, exchange, aggregate."""
    outcomes = []
    for _ in range(server.cfg.num_rounds):
        wall_start = time.perf_counter()
        spans: list[Span] = []
        dist_env = distribute_model(server, spans)
        t0 = time.perf_counter()
        dist_blob = codec.encode_envelope(dist_env)
        spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        collected, skipped = exchange(dist_blob, spans)
        # finish_round empties `collected`, so no upload reaches the next round
        outcome = finish_round(server, collected, dist_env, spans, skipped, wall_start)
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
    chan = chan or _channel.Channel()

    def exchange(dist_blob: codec.Wire, spans: list[Span]) -> tuple[list[codec.Wire], list[int]]:
        collected, skipped = [], []
        for client in clients:
            delivered = chan.deliver(dist_blob, Direction.SERVER_TO_CLIENT, client.client_id)
            result = client_process_round(client, delivered)
            spans += result.spans
            if result.reply is None:
                skipped.append(client.client_id)
            else:
                collected.append(chan.deliver(result.reply, Direction.CLIENT_TO_SERVER, client.client_id))
        return collected, skipped

    return _run_rounds(server, exchange)


# --- loopback / network TCP execution -----------------------------------------

def _make_announce(client: ClientState) -> SignedEnvelope:
    return _sign_envelope(
        client.keypair,
        MsgType.PUBLIC_KEY_ANNOUNCE,
        0,
        client.client_id,
        client.keypair.public_key,
        [],
    )


def _check_announce(server: ServerState, blob: codec.Wire) -> int:
    """Map an incoming connection to a registered client id, or fail the run.

    The registry is the trust anchor: the announced key must byte-match it.
    """
    try:
        env = codec.decode_envelope(blob)
    except MalformedEnvelope as exc:
        raise ConnectionFailed(f"bad announce: {exc}") from exc
    sender = env.header.sender_id
    if env.header.msg_type != MsgType.PUBLIC_KEY_ANNOUNCE or sender not in server.registry:
        raise ConnectionFailed(f"announce from unknown participant {sender}")
    scheme, registered_pk = server.registry.public_key(sender)
    if env.payload != registered_pk:
        raise ConnectionFailed(f"announced key for client {sender} does not match registry")
    if not sig.verify(registered_pk, scheme, env.signed, env.signature):
        raise ConnectionFailed(f"announce signature from client {sender} rejected")
    return sender


@contextlib.contextmanager
def _tcp_exchange(server: ServerState, clients: list[ClientState], chan: _channel.Channel,
                  host: str, port: int) -> Iterator[Exchange]:
    """Connect each client on its own thread and socket, admit each announce
    once, and yield the TCP exchange. The listener and every accepted socket
    are closed on every exit path, which releases the client threads at once;
    a client thread's failure is raised on a clean exit."""
    listener = _channel.tcp_listen(host, port)
    address = listener.getsockname()[:2]
    # Each client puts its spans here once a round, before it sends its reply,
    # so they are all in once the server has every reply of the round.
    client_spans: queue.SimpleQueue[list[Span]] = queue.SimpleQueue()
    failures: list[Exception] = []  # appended by client threads, read after join

    def client_round(client: ClientState, frame: codec.Wire) -> codec.Wire:
        """The reply to one broadcast frame; b"" when the client sits out.
        The caller holds the reply only until it is sent."""
        blob = chan.deliver(frame, Direction.SERVER_TO_CLIENT, client.client_id)
        result = client_process_round(client, blob)
        client_spans.put(result.spans)
        return result.reply or b""

    def client_main(client: ClientState) -> None:
        try:
            with contextlib.closing(_channel.tcp_connect(*address)) as fs:
                fs.send_frame(codec.encode_envelope(_make_announce(client)))
                for _ in range(server.cfg.num_rounds):
                    fs.send_frame(client_round(client, fs.recv_frame()))
        except Exception as exc:  # surfaced after join
            failures.append(exc)

    accepted: list[_channel.FrameSocket] = []
    conns: dict[int, _channel.FrameSocket] = {}

    def exchange(dist_blob: codec.Wire, spans: list[Span]) -> tuple[list[codec.Wire], list[int]]:
        for cid in sorted(conns):
            conns[cid].send_frame(dist_blob)
        collected, skipped = [], []
        for cid in sorted(conns):
            blob = conns[cid].recv_frame()
            if blob:
                collected.append(chan.deliver(blob, Direction.CLIENT_TO_SERVER, cid))
            else:
                skipped.append(cid)
        for _ in conns:
            spans += client_spans.get_nowait()
        return collected, skipped

    threads = [threading.Thread(target=client_main, args=(c,), daemon=True) for c in clients]
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
    finally:
        listener.close()
        for fs in accepted:
            fs.close()
        for th in threads:
            th.join(timeout=60)
    if failures:
        raise failures[0]


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
    with _tcp_exchange(server, clients, chan or _channel.Channel(), host, port) as exchange:
        return _run_rounds(server, exchange)
