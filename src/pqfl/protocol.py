"""Server and client state machines for signature-gated federated averaging.

One round runs four phases: the server signs and broadcasts the global
parameters; each client verifies, trains locally, and submits a signed
delta; the server verifies every submission against the trusted key
registry; only the verified set is averaged into the next global model.

Every signed envelope, broadcast, upload or TCP key announce, is admitted by
one rule: the expected type, a sender with a registered key, a round the
receiver expects and a signature that verifies under that key; only then is
a payload decoded. Round and sender id are signed, so replayed or re-labelled
envelopes fail. A refusal raises `Refused`, which carries a `Rejection`: the
server drops that update for the round (no retry), a client sits the round
out. A round whose verified set is empty leaves the parameters unchanged.

One round driver serves both transports and alone passes messages through
the channel, on its own thread: every broadcast at the start of a round,
then each reply as the server pulls it. The transports differ only in the
exchange that carries the broadcasts out and the replies back. The exchange
yields each reply as soon as it and every lower client id's are in, and the
server admits it then, adding its delta to the round's running sum
(`fedcore.RunningSum`), while later clients still train or sign, or wait to
be handed out. In process, a run plans once how its clients are handed out
(`_hand_outs`) to a pool of one thread per usable CPU (`client_workers`),
kept from round to round: a large model's client alone, its whole round on
the pool; a small model's, whose training gains nothing from threads, in
stacks as far as `_PREPARE_ON_DRIVER_BELOW` allows, which the driver's
thread admits, trains in one numpy pass (`fedcore.train_stack`) and lays
out, so that only the sign steps go to the pool. Over TCP, each client has
its own socket and thread after a signed key announce, with every socket on
both sides waiting at most `channel.IO_TIMEOUT_S` (30 s).

Each envelope is signed in a room (`codec.envelope_room`) that `codec.seal`
writes into: a broadcast's from `ServerState.broadcasts`, an upload's from
`upload_room` (a client that trains alone trains its update in it, a
stack's deltas are copied in), any other's new. A TCP client thread takes
its upload rooms from a `ReusedBuffer` of its own; in process, an upload is
held from its client's hand-out until the server has added it to the
running sum, or has aggregated the round if it keeps the update, and the
uploads of a window of clients are live at once, so the driver's thread
takes a new room for each client as it hands the client to the pool.
An envelope and every view or array decoded from it keep its buffer, which
the next envelope reuses only once they are gone: a broadcast once its round
is over, an upload once it is sent.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import functools
import itertools
import logging
import math
import os
import queue
import threading
import time
import types
from collections.abc import Callable, Container, Generator, Iterable, Iterator, Mapping
from concurrent.futures import Future, ThreadPoolExecutor, wait
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
    PqflError,
    RoundMismatch,
    UnsupportedScheme,
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
    are included, and clients run concurrently, on the in-process pool's
    threads or over TCP on their own, so a sum can exceed `wall_s`; the
    server's own spans are its critical path."""

    train_s: float = 0.0
    sign_s: float = 0.0
    verify_s: float = 0.0
    serialize_s: float = 0.0
    wall_s: float = 0.0

    @classmethod
    def from_spans(cls, spans: np.ndarray, wall_s: float) -> "PhaseTimings":
        # bincount adds each phase's durations in span order; the fields are in Phase's order
        sums = np.bincount(spans["phase"], weights=spans["duration"], minlength=len(Phase))
        return cls(*sums.tolist(), wall_s=wall_s)


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
    """A participant's key pair: derived from `seed`, the set's wire code (so that
    no two sets share key material) and the participant's id, or random when `seed` is None."""
    seed = None if seed is None else fedcore.derive_seed(seed, "key", scheme.wire_code, participant_id)
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


@dataclass(frozen=True)
class RunSpec:
    """One run as plain data, each field a `pqfl run` flag or a `setup_keys`
    argument; `cfg.seed` is its only seed. The data is the Gaussian mixture of
    `samples`, `features`, `classes` and `separation` unless `idx_images`
    names an IDX file. A mixture too small for the clients, or with a
    non-finite separation, is refused here, before anything is built; an IDX
    set too small for them by `build_run`, once it is read."""

    cfg: TrainConfig
    scheme: sig.SchemeId = sig.SchemeId.DILITHIUM
    hidden: tuple[int, ...] = (32,)
    samples: int = 1000
    features: int = 20
    classes: int = 5
    separation: float = 3.0
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_limit: int | None = None
    options: ProtocolOptions = ProtocolOptions()

    def __post_init__(self):
        if self.idx_images is None and self.samples < self.cfg.num_clients:
            raise ValueError(f"{self.samples} samples cannot cover {self.cfg.num_clients} clients")
        if self.idx_images is None and not math.isfinite(self.separation):
            raise ValueError(f"separation must be finite, got {self.separation}")


def build_run(spec: RunSpec) -> tuple[ServerState, list[ClientState]]:
    """The server and clients of the run `spec` describes. The data, its IID
    split and the model take their seeds from `spec.cfg.seed` under the labels
    "data", "split" and "init", each key pair under "key" (`derive_keypair`).
    The model has a class for each label up to the data's largest."""
    seed = spec.cfg.seed
    if spec.idx_images is not None:
        data = fedcore.load_idx_dataset(spec.idx_images, spec.idx_labels, spec.idx_limit)
        if data.num_samples < spec.cfg.num_clients:  # known only now that the files are read
            raise ValueError(f"{data.num_samples} samples cannot cover {spec.cfg.num_clients} clients")
    else:
        data = fedcore.generate_synthetic(spec.samples, spec.features, spec.classes,
                                          fedcore.derive_seed(seed, "data"), spec.separation)
    shards = fedcore.split_iid(data, spec.cfg.num_clients, fedcore.derive_seed(seed, "split"))
    arch = fedcore.ModelArchitecture(data.num_features, spec.hidden, int(data.labels.max()) + 1)
    model = fedcore.init_model(arch, fedcore.derive_seed(seed, "init"))
    server, clients, _registry = setup_keys(spec.cfg, spec.scheme, seed, model, shards,
                                            spec.options, eval_data=data)
    return server, clients


# --- per-phase operations ----------------------------------------------------

def _lay_out(keypair: sig.KeyPair, msg_type: MsgType, round: int, sender_id: int,
             payload: bytes | codec.ParameterVector, spans: list[Span],
             room: memoryview | None = None) -> Callable[[], SignedEnvelope]:
    """Lay out header ‖ payload once in `room` (by default a new
    `codec.envelope_room`) and return the step that signs header ‖
    digest(payload), with the payload hashed in place, and seals the
    signature in behind it. The digest pass is timed as the SIGN span."""
    t0 = time.perf_counter()
    header = codec.build_header(msg_type, keypair.scheme, round, sender_id, payload)
    if room is None:
        room = codec.envelope_room(header.payload_len, sig.metadata(keypair.scheme).signature_max_len)
    laid_out = codec.signed_bytes(header, payload, room)
    spans.append((sender_id, Phase.SERIALIZE, t0, time.perf_counter() - t0))

    def sign_and_seal() -> SignedEnvelope:
        t1 = time.perf_counter()
        signature = sig.sign(keypair, codec.signed_message(header, laid_out[codec.HEADER_LEN :]))
        t2 = time.perf_counter()
        env = codec.seal(header, room, signature)
        spans.extend([(sender_id, Phase.SIGN, t1, t2 - t1),
                      (sender_id, Phase.SERIALIZE, t2, time.perf_counter() - t2)])
        return env

    return sign_and_seal


def _sign_envelope(*lay_out_args) -> SignedEnvelope:
    """`_lay_out(*lay_out_args)` with its sign step run at once."""
    return _lay_out(*lay_out_args)()


def distribute_model(server: ServerState, spans: list[Span] | None = None) -> SignedEnvelope:
    """Sign the current global parameters into a broadcast envelope laid out
    in a room from `server.broadcasts`, appending the server's spans to `spans`."""
    params, max_len = server.model.params, sig.metadata(server.keypair.scheme).signature_max_len
    room = codec.envelope_room(params.encoded_len, max_len, server.broadcasts)
    return _sign_envelope(server.keypair, MsgType.MODEL_DISTRIBUTION, server.model.round, SERVER_ID,
                          params, [] if spans is None else spans, room)


# --- admission: one rule for broadcasts, uploads and announces ----------------

class Refused(PqflError):
    """An envelope failed admission; `rejection` says whose, which check and why."""

    def __init__(self, sender_id: int | None, reason: RejectReason, detail: str):
        super().__init__(f"{reason.value}: {detail}")
        self.rejection = Rejection(sender_id, reason, detail)


def _decode_envelope(blob: codec.Wire, party: int, spans: list[Span]) -> SignedEnvelope:
    """The envelope in `blob`, or Refused with no sender; the decode is timed
    as one of `party`'s SERIALIZE spans, refused or not."""
    t0 = time.perf_counter()
    try:
        return codec.decode_envelope(blob)
    except MalformedEnvelope as exc:
        raise Refused(None, RejectReason.MALFORMED, str(exc)) from None
    finally:
        spans.append((party, Phase.SERIALIZE, t0, time.perf_counter() - t0))


def _authenticate(
    env: SignedEnvelope, msg_type: MsgType, keys: Mapping[int, tuple[sig.SchemeId, bytes]],
    rounds: range, verify: bool, party: int, spans: list[Span],
) -> None:
    """Raise Refused unless `env` has type `msg_type`, a sender other than the
    receiving `party` with an entry in `keys` and a round in `rounds`, and, when
    `verify` is set, a signature that verifies under that sender's key, timed
    as `party`'s VERIFY span."""
    header = env.header
    sender = header.sender_id
    if header.msg_type != msg_type:
        raise Refused(sender, RejectReason.MALFORMED,
                      f"{header.msg_type!r}, expected {msg_type!r}")
    if sender not in keys or sender == party:
        raise Refused(sender, RejectReason.UNKNOWN_SENDER, f"sender {sender} is not a peer")
    if header.round not in rounds:
        expected = rounds.start if len(rounds) == 1 else f"{rounds.start} or later"
        raise Refused(sender, RejectReason.STALE_ROUND,
                      f"round {header.round}, expected {expected}")
    if verify:
        scheme, public_key = keys[sender]
        t0 = time.perf_counter()
        # a header naming another scheme is refused before its digest is taken
        ok = header.scheme == scheme and sig.verify(public_key, scheme, env.signed, env.signature)
        spans.append((party, Phase.VERIFY, t0, time.perf_counter() - t0))
        if not ok:
            raise Refused(sender, RejectReason.SIGNATURE_INVALID, f"under sender {sender}'s key")


def _decode_params(env: SignedEnvelope, shape: tuple[int, ...], party: int,
                   spans: list[Span]) -> codec.ParameterVector:
    """The finite parameters of `shape` in `env`'s payload, or Refused; the
    decode is timed as one of `party`'s SERIALIZE spans."""
    sender = env.header.sender_id
    t0 = time.perf_counter()
    try:
        params = codec.decode_params(env.payload)
    except NonFiniteValue as exc:
        raise Refused(sender, RejectReason.NON_FINITE, str(exc)) from None
    except MalformedPayload as exc:
        raise Refused(sender, RejectReason.MALFORMED, str(exc)) from None
    finally:
        spans.append((party, Phase.SERIALIZE, t0, time.perf_counter() - t0))
    if params.shape != shape:
        raise Refused(sender, RejectReason.MALFORMED, f"shape {params.shape}, expected {shape}")
    return params


def client_receive_model(
    client: ClientState, env: SignedEnvelope, spans: list[Span] | None = None
) -> GlobalModel:
    """Admit a model distribution envelope and advance the client's
    accepted-round watermark, or raise Refused and leave it where it was."""
    spans = [] if spans is None else spans
    server_key = {SERVER_ID: (client.scheme, client.server_public_key)}
    _authenticate(env, MsgType.MODEL_DISTRIBUTION, server_key,
                  range(client.last_accepted_round + 1, 2**32),
                  client.options.verify_models, client.client_id, spans)
    params = _decode_params(env, (client.architecture.param_count,), client.client_id, spans)
    client.last_accepted_round = env.header.round
    return GlobalModel(params=params, architecture=client.architecture, round=env.header.round)


def client_submit_update(
    client: ClientState,
    update: ModelUpdate,
    spans: list[Span] | None = None,
    room: memoryview | None = None,
) -> SignedEnvelope:
    """Wrap a local update in a signed submission envelope laid out in `room` or a new one."""
    if update.round != client.last_accepted_round:
        raise RoundMismatch(f"update round {update.round}, current {client.last_accepted_round}")
    return _sign_envelope(
        client.keypair,
        MsgType.UPDATE_SUBMISSION,
        update.round,
        client.client_id,
        update.delta,
        [] if spans is None else spans,
        room,
    )


@dataclass
class ClientRoundResult:
    reply: codec.Wire | None
    spans: list[Span]  # this client's spans of the round
    skipped: Rejection | None = None  # why the client sat out, if it did


def upload_room(client: ClientState, buffer: codec.ReusedBuffer | None = None) -> memoryview:
    """A room for one of `client`'s signed uploads, taken from `buffer` or new."""
    delta_len = codec.params_len((client.architecture.param_count,))
    return codec.envelope_room(delta_len, sig.metadata(client.scheme).signature_max_len, buffer)


def _admit_broadcast(client: ClientState, env_blob: codec.Wire, spans: list[Span]) -> GlobalModel:
    """Decode and admit the broadcast in `env_blob`, or raise Refused."""
    return client_receive_model(client, _decode_envelope(env_blob, client.client_id, spans), spans)


def _sat_out(client: ClientState, spans: list[Span], exc: Refused) -> Callable[[], ClientRoundResult]:
    """The sign step of a client that refused the incoming model: it reports
    the `Rejection` instead of raising."""
    log.info("client %d sitting out: %s", client.client_id, exc)
    return functools.partial(ClientRoundResult, None, spans, exc.rejection)


def _upload(client: ClientState, update: ModelUpdate, spans: list[Span],
            room: memoryview) -> Callable[[], ClientRoundResult]:
    """Lay out `update` in `room`, an `upload_room`, and return the sign step,
    which signs, seals and encodes the upload."""
    sign_and_seal = _lay_out(client.keypair, MsgType.UPDATE_SUBMISSION, update.round,
                             client.client_id, update.delta, spans, room)

    def sign() -> ClientRoundResult:
        env_out = sign_and_seal()
        t0 = time.perf_counter()
        blob = codec.encode_envelope(env_out)
        spans.append((client.client_id, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        return ClientRoundResult(reply=blob, spans=spans)

    return sign


def client_process_round(
    client: ClientState, env_blob: codec.Wire, room: memoryview | None = None
) -> ClientRoundResult:
    """One full client round over wire bytes: decode, verify, train the
    update in the `codec.values_slot` of `room`, an `upload_room` (by default
    a new one), and sign the upload laid out around it there; or, for a
    client that refuses the incoming model and sits the round out, report the
    `Rejection` instead of raising."""
    spans: list[Span] = []
    try:
        model = _admit_broadcast(client, env_blob, spans)
    except Refused as exc:
        return _sat_out(client, spans, exc)()

    t0 = time.perf_counter()
    room = upload_room(client) if room is None else room
    seed = train_seed(client.cfg.seed, model.round, client.client_id)
    out = codec.values_slot(room, model.params.shape)
    update = fedcore.local_train(model, client.dataset, client.cfg, seed, client.client_id, out)
    spans.append((client.client_id, Phase.TRAIN, t0, time.perf_counter() - t0))
    return _upload(client, update, spans, room)()


# One client admitted to a stack: its broadcast's model and its spans so far.
Admitted = tuple[ClientState, GlobalModel, list[Span]]


def _train_stack(stack: list[Admitted]) -> dict[int, Callable[[], ClientRoundResult]]:
    """Train `stack`, the admitted clients of one stack (`_hand_outs`), in one
    `fedcore.train_stack` call, and lay each delta out in an `upload_room` of
    its client's own. Returns each client's sign step by client id. The
    call's time is split into equal TRAIN spans, one after another, in stack
    order, that add up to it."""
    first = stack[0][0]
    t0 = time.perf_counter()
    deltas = fedcore.train_stack(
        first.architecture,
        [model.params.values for _, model, _ in stack],
        [client.dataset for client, _, _ in stack],
        first.cfg,
        [train_seed(client.cfg.seed, model.round, client.client_id) for client, model, _ in stack],
        [client.client_id for client, _, _ in stack],
    )
    share = (time.perf_counter() - t0) / len(stack)
    steps = {}
    for i, ((client, model, spans), delta) in enumerate(zip(stack, deltas)):
        spans.append((client.client_id, Phase.TRAIN, t0 + i * share, share))
        update = ModelUpdate(codec.ParameterVector(delta, delta.shape), client.client_id, model.round)
        steps[client.client_id] = _upload(client, update, spans, upload_room(client))
    return steps


def server_collect_and_verify(
    server: ServerState,
    envelope_blobs: Iterable[codec.Wire],
    spans: list[Span] | None = None,
    total: fedcore.RunningSum | None = None,
) -> tuple[list[ModelUpdate], list[Rejection], int, int]:
    """Filter raw submission bytes down to the verified update set, admitting
    each blob as it is pulled from `envelope_blobs`.

    Returns (verified updates, rejections, payload_bytes, signature_bytes);
    rejection is data, never an exception, and rejections come in the order
    the blobs do. At most one update per client enters the set (first valid
    wins). The server's spans go to `spans`.

    Given `total`, the round's running sum, each verified update is added to
    it as soon as it is admitted, and left out of the returned set, while
    signatures are checked and no blob of the round has been refused. Such an
    update is its own slot's client's: the upload of a lower id, replayed,
    would be a duplicate, and that of a higher id is not yet delivered, so
    such updates come in ascending id. The updates admitted after a refusal,
    or without signature checks, are returned for `fedcore.aggregate` to add
    in ascending id.
    """
    spans = [] if spans is None else spans
    verified: list[ModelUpdate] = []
    rejections: list[Rejection] = []
    accepted_ids: set[int] = set()
    payload_bytes = signature_bytes = 0
    folding = total is not None and server.options.verify_updates
    this_round = range(server.model.round, server.model.round + 1)

    def admit(blob: codec.Wire) -> None:
        nonlocal payload_bytes, signature_bytes, folding
        try:
            env = _decode_envelope(blob, SERVER_ID, spans)
            payload_bytes += len(env.payload)
            signature_bytes += len(env.signature.data)
            sender = env.header.sender_id
            _authenticate(env, MsgType.UPDATE_SUBMISSION, server.registry, this_round,
                          server.options.verify_updates, SERVER_ID, spans)
            if sender in accepted_ids:
                raise Refused(sender, RejectReason.DUPLICATE, f"second update from client {sender}")
            delta = _decode_params(env, server.model.params.shape, SERVER_ID, spans)
        except Refused as exc:
            rejections.append(exc.rejection)
            folding = False
            return
        accepted_ids.add(sender)
        update = ModelUpdate(delta=delta, client_id=sender, round=env.header.round)
        if folding:
            total.add(update)
        else:
            verified.append(update)

    for blob in envelope_blobs:
        admit(blob)
        del blob  # an added or refused upload goes before the next is pulled
    return verified, rejections, payload_bytes, signature_bytes


def finish_round(
    server: ServerState,
    uploads: Iterable[codec.Wire],
    dist_env: SignedEnvelope,
    spans: list[Span],
    skipped_clients: list[int],
    wall_start: float,
) -> RoundOutcome:
    """Server half of round completion: admit each upload as `uploads` yields
    it, adding it to the round's running sum (`fedcore.RunningSum`) as
    `server_collect_and_verify` allows, then aggregate and measure.

    `spans` holds every span of the round so far; the server's spans, and
    those `uploads` adds as it goes, are appended to it before it is packed
    into the outcome. `skipped_clients` is read once `uploads` is exhausted.

    An upload added to the sum is let go at once; the updates kept past it
    are views into their uploads, and are let go once the round is
    aggregated, before the evaluation that follows."""
    total = fedcore.RunningSum(server.model)
    kept, rejections, payload_bytes, signature_bytes = server_collect_and_verify(
        server, uploads, spans, total
    )
    verified_count = total.count + len(kept)
    if verified_count:
        server.model = fedcore.aggregate(server.model, kept, total)
    else:
        log.warning("round %d: empty verified set, parameters unchanged", server.model.round)
        server.model = replace(server.model, round=server.model.round + 1)
    del kept, total

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


# The transport interface: carry each (client id, broadcast frame), delivered
# already, out, and yield each client's (id, reply) in ascending id, b"" for a
# client that sat out, as soon as that reply and every lower id's are in,
# appending the clients' spans to the round's. The driver closes it once the
# round is admitted or has failed.
Addressed = tuple[int, codec.Wire]
Exchange = Callable[[Iterator[Addressed], list[Span]], Generator[Addressed, None, None]]


def _run_rounds(
    server: ServerState, clients: list[ClientState], chan: _channel.Channel, exchange: Exchange
) -> TrainingResult:
    """The round loop of both transports: broadcast, exchange, aggregate.

    The one caller of `chan.deliver`, on the server's thread: each client's
    broadcast in ascending client id, all at the start of the round, then
    each reply in that order, as the server pulls it for admission. So an
    attack sees the same messages in the same order over either transport.
    An untampered broadcast is the one shared buffer; a tampered copy is let
    go once the exchange has taken it."""
    client_ids = sorted(c.client_id for c in clients)
    outcomes = []

    def delivered(replies: Iterator[Addressed], skipped: list[int]) -> Iterator[codec.Wire]:
        """Each reply delivered as it is pulled; a client that sat out goes to `skipped`."""
        for cid, reply in replies:
            if reply:
                yield chan.deliver(reply, Direction.CLIENT_TO_SERVER, cid)
            else:
                skipped.append(cid)
            del reply  # admitted by now: not held while the next is awaited

    for _ in range(server.cfg.num_rounds):
        wall_start = time.perf_counter()
        spans: list[Span] = []
        dist_env = distribute_model(server, spans)
        t0 = time.perf_counter()
        dist_blob = codec.encode_envelope(dist_env)
        spans.append((SERVER_ID, Phase.SERIALIZE, t0, time.perf_counter() - t0))
        frames = collections.deque(
            (cid, chan.deliver(dist_blob, Direction.SERVER_TO_CLIENT, cid)) for cid in client_ids
        )
        skipped: list[int] = []
        # closed here, not at garbage collection, so a failed admission waits for the clients
        with contextlib.closing(exchange((frames.popleft() for _ in client_ids), spans)) as replies:
            outcome = finish_round(server, delivered(replies, skipped), dist_env, spans,
                                   skipped, wall_start)
        del dist_env, dist_blob  # so that the next broadcast can reuse their buffer
        outcomes.append(outcome)
        log.info("round %d: verified=%d rejected=%d loss=%.6f", outcome.round,
                 outcome.verified_count, len(outcome.rejections), outcome.global_loss)
    return TrainingResult(model=server.model, outcomes=outcomes)


def client_workers(num_clients: int) -> int:
    """How many threads run `num_clients` in-process clients: one per CPU
    this process may run on, and no more than there are clients."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, num_clients))


@functools.cache
def _client_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` client threads. It is never shut down,
    and each thread starts on the first task that finds none idle, so no
    run_training call starts or joins a thread outside its rounds."""
    return ThreadPoolExecutor(workers, thread_name_prefix="pqfl-client")


# A client whose mini-batch forward pass takes fewer multiply-adds than this
# (batch_size * param_count) trains on the driver's thread and only signs on
# the pool: numpy releases the GIL around each operation on over 500 elements,
# which small operations on two threads spend passing it to and fro. Round p50
# for 10 clients, 1,000 samples, alternating rounds, pool vs driver: 784-16
# (405 k) 34.9 vs 31.5 ms, 784-32 (809 k) 36.0 vs 35.1, 784-64 (1.62 M) 42.2 vs 43.4.
# It bounds a stack of such clients, trained in one call, too: M clients'
# passes together (M * batch_size * param_count) stay below it.
_PREPARE_ON_DRIVER_BELOW = 2**20


def _stack_size(client: ClientState) -> int:
    """The most clients like `client` that one stack holds, 0 for a client
    that trains on the pool (`_PREPARE_ON_DRIVER_BELOW`)."""
    pass_size = client.cfg.batch_size * client.architecture.param_count
    return max(0, (_PREPARE_ON_DRIVER_BELOW - 1) // pass_size)


def _hand_outs(clients: Iterable[ClientState]) -> list[list[ClientState]]:
    """`clients` in ascending id, cut into the hand-outs of every round: a
    client whose `_stack_size` is 0 alone, to run its round on the pool; the
    others in stacks of at most `_stack_size` consecutive clients with one
    `cfg`, architecture and `fedcore.shard_key`, to train in one call."""
    hand_outs, ordered = [], sorted(clients, key=lambda c: c.client_id)
    for _, run in itertools.groupby(
            ordered, lambda c: (c.cfg, c.architecture, fedcore.shard_key(c.dataset))):
        run = list(run)  # its clients share a cfg and an architecture, so a `_stack_size`
        size = _stack_size(run[0]) or 1
        hand_outs += (run[i : i + size] for i in range(0, len(run), size))
    return hand_outs


def run_training(
    server: ServerState,
    clients: list[ClientState],
    chan: _channel.Channel | None = None,
) -> TrainingResult:
    """Run the configured number of rounds over the in-process channel, the
    clients of each round on `client_workers(len(clients))` threads, handed
    out as `_hand_outs` plans once for the run. A large model's client runs
    its whole round on the pool. For a small model (`_PREPARE_ON_DRIVER_BELOW`)
    only the sign steps go to the pool: the driver's thread admits the
    broadcast of each client of a stack and trains the admitted ones in one
    call, `_train_stack`. Before each hand-out, and once every client is
    handed out, the driver's thread admits each upload as soon as that
    client and every lower id are done."""
    workers = client_workers(len(clients))
    pool = _client_pool(workers)
    window = max(2 * workers, min(len(clients), max(map(_stack_size, clients), default=0)))
    hand_outs = _hand_outs(clients)

    def exchange(frames: Iterator[Addressed], spans: list[Span]) -> Generator[Addressed, None, None]:
        # A hand-out takes its clients' frames once `window` has room for them:
        # 2 per worker, so that a worker that finishes finds the next client
        # queued, or one stack if that is more. A client stays in `queued`, in
        # ascending id, until its reply is yielded, as soon as it and every
        # lower id's are done, so a round holds the uploads of the window's
        # clients, not of all of them. Upload rooms are taken here, as memory
        # a pool thread allocated stays in its arena. A failing client or
        # stack raises once the replies before it are yielded; the clients not
        # yet handed out then never run.
        queued: collections.deque[tuple[int, Future[ClientRoundResult]]] = collections.deque()

        def reply() -> Addressed:  # the lowest id's, once it is done; a Future keeps its result
            cid, task = queued.popleft()
            result = task.result()
            spans.extend(result.spans)
            return cid, result.reply or b""

        def hand_out(group: list[ClientState]) -> list[tuple[int, Future[ClientRoundResult]]]:
            steps: dict[int, Callable[[], ClientRoundResult]] = {}
            admitted: list[Admitted] = []
            for client, (_, frame) in zip(group, frames):
                client_spans: list[Span] = []
                if not _stack_size(client):  # alone, its whole round on the pool
                    steps[client.client_id] = functools.partial(
                        client_process_round, client, frame, upload_room(client))
                    continue
                try:
                    model = _admit_broadcast(client, frame, client_spans)
                    admitted.append((client, model, client_spans))
                except Refused as exc:
                    steps[client.client_id] = _sat_out(client, client_spans, exc)
            if admitted:
                steps.update(_train_stack(admitted))
            return [(cid, pool.submit(steps[cid])) for cid in sorted(steps)]

        try:
            for group in [*hand_outs, []]:  # the empty last one waits for every reply left
                while queued and (not group or len(queued) + len(group) > window
                                  or queued[0][1].done()):
                    yield reply()
                queued.extend(hand_out(group))
        finally:  # no task of this round outlives it, even when admission fails
            wait([task for _, task in queued])

    return _run_rounds(server, clients, chan or _channel.Channel(), exchange)


# --- loopback / network TCP execution -----------------------------------------

def _check_announce(server: ServerState, blob: codec.Wire, connected: Container[int]) -> int:
    """Map an incoming connection to a registered client id not yet
    `connected`, or fail the run with a ConnectionFailed caused by Refused.

    The registry is the trust anchor: the announced key must byte-match it,
    which is tested before the signature.
    """
    try:
        env = _decode_envelope(blob, SERVER_ID, [])
        sender = env.header.sender_id
        if sender in server.registry and env.payload != server.registry[sender][1]:
            raise Refused(sender, RejectReason.UNKNOWN_SENDER,
                          f"announced key for client {sender} does not match registry")
        _authenticate(env, MsgType.PUBLIC_KEY_ANNOUNCE, server.registry, range(1), True,
                      SERVER_ID, [])
        if sender in connected:  # an announce carries no freshness: it may be a replay
            raise Refused(sender, RejectReason.DUPLICATE, f"second announce for client {sender}")
    except Refused as exc:
        raise ConnectionFailed(f"bad announce: {exc}") from exc
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
    # so there is a list in for each reply the server has read.
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
                    result = client_process_round(client, fs.recv_frame(), upload_room(client, uploads))
                    client_spans.put(result.spans)
                    fs.send_frame(result.reply or b"")
                    del result  # so that the next upload reuses `uploads`
        except Exception as exc:  # surfaced after join
            failures[client.client_id] = exc

    accepted: list[_channel.FrameSocket] = []
    conns: dict[int, _channel.FrameSocket] = {}

    def exchange(frames: Iterator[Addressed], spans: list[Span]) -> Generator[Addressed, None, None]:
        for cid, frame in frames:
            conns[cid].send_frame(frame)
        for cid in sorted(conns):
            reply = conns[cid].recv_frame()
            spans += client_spans.get_nowait()
            yield cid, reply

    threads = [threading.Thread(target=client_main, args=(c,), daemon=True) for c in clients]
    error = None
    try:
        for th in threads:
            th.start()
        for _ in clients:
            accepted.append(_channel.tcp_accept(listener))
            cid = _check_announce(server, accepted[-1].recv_frame(), conns)
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
