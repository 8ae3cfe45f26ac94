"""Attack injection semantics, channel stats, and the framed TCP transport."""

import contextlib
import dataclasses
import hashlib
import socket
import struct
import threading
import time

import numpy as np
import pytest

from pqfl import channel, codec, fedcore, protocol, sig
from pqfl.channel import (
    AttackConfig,
    AttackKind,
    Channel,
    Direction,
    replay,
    strip_signature,
    substitute_update,
    tcp_accept,
    tcp_connect,
    tcp_listen,
)
from pqfl.codec import ParameterVector
from pqfl.errors import ConnectionFailed, FrameTooLarge, NonFiniteGradient, PeerClosed
from pqfl.fedcore import TrainConfig, derive_seed
from pqfl.protocol import ProtocolOptions, RejectReason, run_training, run_training_tcp
from pqfl.sig import SchemeId

MASTER = 42


def build_sim(num_clients=4, num_rounds=3, scheme=SchemeId.TEST_SCHEME, options=None, master=MASTER):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=master)
    data = fedcore.generate_synthetic(200, 8, 3, derive_seed(master, "data"))
    shards = fedcore.split_iid(data, num_clients, derive_seed(master, "split"))
    model = fedcore.init_model(fedcore.ModelArchitecture(8, (16,), 3), derive_seed(master, "init"))
    server, clients, _ = protocol.setup_keys(
        cfg, scheme, master, model, shards, options, eval_data=data
    )
    return server, clients, model, shards, data, cfg


def sample_envelope(round=1, sender=2, size=50) -> bytes:
    payload = bytes(range(size % 251)) * (size // max(size % 251, 1) + 1)
    payload = payload[:size]
    header = codec.build_header(
        codec.MsgType.UPDATE_SUBMISSION, SchemeId.TEST_SCHEME, round, sender, payload
    )
    env = codec.SignedEnvelope(
        header=header, payload=payload,
        signature=sig.SignatureBytes(SchemeId.TEST_SCHEME, b"x" * 32),
    )
    return codec.encode_envelope(env)


# --- attack primitives -----------------------------------------------------------

def test_no_attack_is_identity():
    chan = Channel()
    msg = sample_envelope()
    assert chan.deliver(msg, Direction.CLIENT_TO_SERVER, 2) == msg
    assert chan.stats.tampered == 0 and chan.stats.delivered == 1


def test_none_kind_is_identity():
    chan = Channel(AttackConfig(kind=AttackKind.NONE))
    msg = sample_envelope()
    assert chan.deliver(msg, Direction.CLIENT_TO_SERVER, 2) == msg


def test_bitflip_changes_exactly_one_bit():
    chan = Channel(AttackConfig(kind=AttackKind.BITFLIP, probability=1.0, seed=1))
    msg = sample_envelope()
    out = chan.deliver(msg, Direction.CLIENT_TO_SERVER, 2)
    assert out != msg and len(out) == len(msg)
    diff = sum(bin(a ^ b).count("1") for a, b in zip(out, msg))
    assert diff == 1
    assert chan.stats.tampered == 1


def test_attack_decisions_deterministic():
    cfg = AttackConfig(kind=AttackKind.BITFLIP, probability=0.5, seed=9)
    msgs = [sample_envelope(round=r, sender=s) for r in range(5) for s in range(1, 4)]
    outs_a = [Channel(cfg).deliver(m, Direction.CLIENT_TO_SERVER, 1) for m in msgs]
    outs_b = [Channel(cfg).deliver(m, Direction.CLIENT_TO_SERVER, 1) for m in msgs]
    assert outs_a == outs_b
    assert any(a != m for a, m in zip(outs_a, msgs))  # some messages were hit
    assert any(a == m for a, m in zip(outs_a, msgs))  # and some were not


def test_attack_scoping_by_direction_and_target():
    cfg = AttackConfig(
        kind=AttackKind.BITFLIP, probability=1.0,
        direction=Direction.CLIENT_TO_SERVER, target_client=3, seed=2,
    )
    chan = Channel(cfg)
    msg = sample_envelope()
    assert chan.deliver(msg, Direction.SERVER_TO_CLIENT, 3) == msg  # wrong direction
    assert chan.deliver(msg, Direction.CLIENT_TO_SERVER, 2) == msg  # wrong target
    assert chan.deliver(msg, Direction.CLIENT_TO_SERVER, 3) != msg


def test_probability_zero_never_attacks():
    chan = Channel(AttackConfig(kind=AttackKind.BITFLIP, probability=0.0, seed=4))
    msgs = [sample_envelope(round=r) for r in range(20)]
    assert all(chan.deliver(m, Direction.CLIENT_TO_SERVER, 2) == m for m in msgs)


def test_substitute_requires_poison():
    with pytest.raises(ValueError):
        AttackConfig(kind=AttackKind.SUBSTITUTE)
    AttackConfig(kind=AttackKind.SUBSTITUTE, poison="negate")


def test_substitute_keeps_original_signature():
    server, clients, *_ = build_sim()
    env = protocol.distribute_model(server)
    model = protocol.client_receive_model(clients[0], env)
    update = fedcore.local_train(model, clients[0].dataset, clients[0].cfg, 1, 1)
    blob = codec.encode_envelope(protocol.client_submit_update(clients[0], update))

    poison = ParameterVector(-update.delta.values, update.delta.shape)
    forged = substitute_update(blob, poison)
    forged_env = codec.decode_envelope(forged)
    original_env = codec.decode_envelope(blob)
    assert forged_env.signature == original_env.signature
    assert codec.decode_params(forged_env.payload).values[0] == -update.delta.values[0]

    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [forged])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.SIGNATURE_INVALID]


def test_substitute_with_identical_bytes_passes():
    # signatures verify bytes, not intent: replacing a payload with the
    # byte-identical payload is undetectable
    server, clients, *_ = build_sim()
    blob_env = protocol.distribute_model(server)
    model = protocol.client_receive_model(clients[0], blob_env)
    update = fedcore.local_train(model, clients[0].dataset, clients[0].cfg, 1, 1)
    blob = codec.encode_envelope(protocol.client_submit_update(clients[0], update))
    same = substitute_update(blob, update.delta)
    assert same == blob
    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [same])
    assert len(verified) == 1 and rejections == []


def test_strip_attack_rejected_at_server():
    server, clients, *_ = build_sim()
    env = protocol.distribute_model(server)
    model = protocol.client_receive_model(clients[0], env)
    update = fedcore.local_train(model, clients[0].dataset, clients[0].cfg, 1, 1)
    blob = codec.encode_envelope(protocol.client_submit_update(clients[0], update))
    bare = strip_signature(blob)
    assert codec.decode_envelope(bare).signature.data == b""
    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [bare])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.SIGNATURE_INVALID]


def test_replay_helper_uniform_choice():
    history = [sample_envelope(round=r) for r in range(5)]
    rng = np.random.default_rng(0)
    picks = {replay(history, rng) for _ in range(50)}
    assert picks <= set(history)
    assert len(picks) > 1
    with pytest.raises(ValueError):
        replay([], rng)


def test_replayed_prior_round_update_is_stale():
    server, clients, *_ = build_sim(num_rounds=2)
    env = protocol.distribute_model(server)
    model = protocol.client_receive_model(clients[0], env)
    update = fedcore.local_train(model, clients[0].dataset, clients[0].cfg, 1, 1)
    blob = codec.encode_envelope(protocol.client_submit_update(clients[0], update))
    run_training(server, clients)  # now at round 2
    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [blob])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.STALE_ROUND]


def test_replay_within_round_is_duplicate():
    server, clients, *_ = build_sim()
    env = protocol.distribute_model(server)
    model = protocol.client_receive_model(clients[0], env)
    update = fedcore.local_train(model, clients[0].dataset, clients[0].cfg, 1, 1)
    blob = codec.encode_envelope(protocol.client_submit_update(clients[0], update))
    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [blob, blob])
    assert len(verified) == 1
    assert [r.reason for r in rejections] == [RejectReason.DUPLICATE]


def test_stats_conservation():
    chan = Channel(AttackConfig(kind=AttackKind.BITFLIP, probability=0.5, seed=11))
    msgs = [sample_envelope(round=r, sender=s) for r in range(10) for s in range(1, 5)]
    for m in msgs:
        chan.deliver(m, Direction.CLIENT_TO_SERVER, 1)
    assert chan.stats.delivered == len(msgs)
    assert chan.stats.tampered + chan.stats.replayed <= chan.stats.delivered
    assert chan.stats.bytes_client_to_server > 0


@pytest.mark.parametrize("kind, poison, signature, tampered", [
    (AttackKind.SUBSTITUTE, "zero", b"x" * 32, 0),  # zeros for zeros: the same bytes
    (AttackKind.SUBSTITUTE, "negate", b"x" * 32, 1),  # -0.0 for 0.0: sign bits change
    (AttackKind.STRIP, None, b"", 0),
    (AttackKind.STRIP, None, b"x" * 32, 1),
    (AttackKind.BITFLIP, None, b"x" * 32, 1),
], ids=["substitute-same", "substitute-signs", "strip-bare", "strip", "bitflip"])
def test_deliver_counts_tampering_only_when_the_bytes_change(kind, poison, signature, tampered):
    payload = codec.encode_params(ParameterVector(np.zeros(6, dtype=np.float32), (2, 3)))
    header = codec.build_header(
        codec.MsgType.UPDATE_SUBMISSION, SchemeId.TEST_SCHEME, 1, 2, payload
    )
    blob = codec.encode_envelope(codec.SignedEnvelope(
        header=header, payload=payload, signature=sig.SignatureBytes(SchemeId.TEST_SCHEME, signature)
    ))
    chan = Channel(AttackConfig(kind=kind, target_client=2, poison=poison, seed=3))
    out = chan.deliver(memoryview(blob), Direction.CLIENT_TO_SERVER, 2)  # as a TCP frame arrives
    assert (bytes(out) != blob) == bool(tampered)
    assert (chan.stats.delivered, chan.stats.tampered, chan.stats.replayed) == (1, tampered, 0)


def test_baseline_mode_poison_raises_loss():
    """Without verification, negated-update substitution hurts the model;
    with verification the attacked client is simply dropped."""
    attack = AttackConfig(
        kind=AttackKind.SUBSTITUTE, poison="negate", target_client=1,
        direction=Direction.CLIENT_TO_SERVER, probability=1.0, seed=6,
    )
    baseline_opts = ProtocolOptions(verify_updates=False, verify_models=False)
    server_b, clients_b, *_ = build_sim(num_rounds=6, options=baseline_opts)
    poisoned = run_training(server_b, clients_b, Channel(attack))

    server_s, clients_s, *_ = build_sim(num_rounds=6)
    secured = run_training(server_s, clients_s, Channel(attack))

    assert poisoned.outcomes[-1].global_loss > secured.outcomes[-1].global_loss
    # secured run rejected every forged envelope
    assert all(o.verified_count == 3 for o in secured.outcomes)
    # baseline accepted them
    assert all(o.verified_count == 4 for o in poisoned.outcomes)


# --- TCP framing ---------------------------------------------------------------

def socket_pair():
    listener = tcp_listen("127.0.0.1", 0)
    port = listener.getsockname()[1]
    client_result = {}

    def connect():
        client_result["fs"] = tcp_connect("127.0.0.1", port)

    th = threading.Thread(target=connect)
    th.start()
    server_fs = tcp_accept(listener)
    th.join()
    listener.close()
    return client_result["fs"], server_fs


def test_frame_round_trip_bit_exact():
    client_fs, server_fs = socket_pair()
    try:
        blob = sample_envelope(size=3000)
        client_fs.send_frame(blob)
        assert server_fs.recv_frame() == blob
        server_fs.send_frame(b"")
        assert client_fs.recv_frame() == b""
    finally:
        client_fs.close()
        server_fs.close()


def test_frame_too_large_rejected_before_body():
    client_fs, server_fs = socket_pair()
    try:
        client_fs._sock.sendall(struct.pack(">I", 2**31))  # length only, no body
        with pytest.raises(FrameTooLarge):
            server_fs.recv_frame()
    finally:
        client_fs.close()
        server_fs.close()


def test_peer_closed_mid_frame():
    client_fs, server_fs = socket_pair()
    try:
        client_fs._sock.sendall(struct.pack(">I", 100) + b"short")
        client_fs.close()
        with pytest.raises(PeerClosed):
            server_fs.recv_frame()
    finally:
        server_fs.close()


def test_send_to_peer_that_reads_nothing_fails_within_deadline():
    client_fs, server_fs = socket_pair()
    try:
        client_fs._sock.settimeout(0.2)
        t0 = time.perf_counter()
        with pytest.raises(ConnectionFailed):
            client_fs.send_frame(bytes(32 * 1024 * 1024))  # far beyond the socket buffers
        assert time.perf_counter() - t0 < 5
    finally:
        client_fs.close()
        server_fs.close()


def test_connect_to_closed_port_fails(monkeypatch):
    monkeypatch.setattr(channel, "IO_TIMEOUT_S", 1.0)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ConnectionFailed):
        tcp_connect("127.0.0.1", free_port)


def test_connected_socket_waits_for_silent_peer_at_most_io_timeout(monkeypatch):
    monkeypatch.setattr(channel, "IO_TIMEOUT_S", 0.2)
    listener = tcp_listen("127.0.0.1", 0)
    box = {}

    def receive():
        fs = tcp_connect("127.0.0.1", listener.getsockname()[1])
        try:
            fs.recv_frame()
        except Exception as exc:
            box["error"] = exc
        finally:
            fs.close()

    th = threading.Thread(target=receive, daemon=True)
    try:
        th.start()
        with contextlib.closing(tcp_accept(listener)):  # accepted, then sends nothing
            th.join(2.0)
            assert not th.is_alive(), "recv_frame still waiting after 2 s"
    finally:
        listener.close()
    assert isinstance(box.get("error"), ConnectionFailed)


# --- TCP training equivalence -----------------------------------------------------

def test_tcp_run_matches_in_process():
    server_a, clients_a, *_ = build_sim(scheme=SchemeId.DILITHIUM)
    in_proc = run_training(server_a, clients_a)
    server_b, clients_b, *_ = build_sim(scheme=SchemeId.DILITHIUM)
    over_tcp = run_training_tcp(server_b, clients_b)
    assert in_proc.model.params == over_tcp.model.params
    for a, b in zip(in_proc.outcomes, over_tcp.outcomes):
        assert (a.round, a.verified_count, a.global_loss) == (b.round, b.verified_count, b.global_loss)
        assert (a.payload_bytes, a.signature_bytes) == (b.payload_bytes, b.signature_bytes)


@pytest.mark.parametrize(
    "direction", [Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT], ids=lambda d: d.value
)
@pytest.mark.parametrize(
    "kind", [AttackKind.BITFLIP, AttackKind.SUBSTITUTE, AttackKind.STRIP, AttackKind.REPLAY],
    ids=lambda k: k.value,
)
def test_tcp_run_with_attack_matches_in_process(kind, direction):
    # every attack forges uploads (c2s) and model broadcasts (s2c) alike
    attack = AttackConfig(
        kind=kind, target_client=1, direction=direction, probability=1.0, seed=8,
        poison="negate" if kind == AttackKind.SUBSTITUTE else None,
    )
    # client 1's broadcast is the first message of the run, and a replay has
    # nothing to pick before it
    unforged = {0} if (kind, direction) == (AttackKind.REPLAY, Direction.SERVER_TO_CLIENT) else set()
    server_a, clients_a, *_ = build_sim()
    chan_a = Channel(attack)
    in_proc = run_training(server_a, clients_a, chan_a)
    server_b, clients_b, *_ = build_sim()
    chan_b = Channel(attack)
    over_tcp = run_training_tcp(server_b, clients_b, chan_b)
    assert in_proc.model.params.values.tobytes() == over_tcp.model.params.values.tobytes()
    assert chan_a.stats == chan_b.stats
    for a, b in zip(in_proc.outcomes, over_tcp.outcomes, strict=True):
        assert (a.verified_count, a.skipped_clients) == (b.verified_count, b.skipped_clients)
        assert [r.reason for r in a.rejections] == [r.reason for r in b.rejections]
        if a.round in unforged:
            assert (a.verified_count, a.skipped_clients) == (4, [])
        elif direction == Direction.CLIENT_TO_SERVER:
            assert a.verified_count == 3  # every forged upload rejected
        else:
            assert a.skipped_clients == [1]  # every forged broadcast rejected
    forged = server_a.cfg.num_rounds - len(unforged)
    expected = (0, forged) if kind == AttackKind.REPLAY else (forged, 0)
    assert (chan_a.stats.tampered, chan_a.stats.replayed) == expected


def test_tcp_replay_runs_are_reproducible():
    # The round driver delivers every message on one thread in one order, so
    # what a replay picks does not depend on how the client threads run.
    attack = AttackConfig(
        kind=AttackKind.REPLAY, target_client=None, direction=Direction.BOTH, probability=0.5, seed=3
    )
    runs = []
    for _ in range(2):
        server, clients, *_ = build_sim(num_rounds=6)
        result = run_training_tcp(server, clients, Channel(attack))
        rounds = [
            (o.verified_count, [(r.sender_id, r.reason) for r in o.rejections], o.skipped_clients)
            for o in result.outcomes
        ]
        runs.append((rounds, result.model.params.values.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "attack, kept",
    [
        (None, False),
        (AttackConfig(kind=AttackKind.BITFLIP, target_client=1, seed=8), False),
        (AttackConfig(kind=AttackKind.REPLAY, target_client=1, seed=8), True),
    ],
    ids=["none", "bitflip", "replay"],
)
def test_history_is_kept_only_for_replay(attack, kept):
    server, clients, *_ = build_sim()
    chan = Channel(attack)
    run_training(server, clients, chan)
    assert bool(chan.history) == kept


def test_replay_history_keeps_the_newest_round_and_the_one_before():
    chan = Channel(AttackConfig(kind=AttackKind.REPLAY, target_client=9, seed=8))
    for rnd in range(6):
        for sender in (1, 2, 3):
            chan.deliver(sample_envelope(round=rnd, sender=sender), Direction.CLIENT_TO_SERVER, sender)
        kept = [codec.MessageHeader.decode(m).round for m in chan.history]
        assert kept == [rnd - 1] * 3 * (rnd > 0) + [rnd] * 3
    assert chan.stats.delivered == 18


class DigestingChannel(Channel):
    """Records the SHA-256 of every message it is handed, by the message's id.
    A message still in the history has been alive since it was delivered, so
    no other message can have had its id since then."""

    def __init__(self, attack):
        super().__init__(attack)
        self.digests = {}

    def deliver(self, msg, direction, client_id):
        self.digests[id(msg)] = hashlib.sha256(msg).digest()
        return super().deliver(msg, direction, client_id)


def test_tcp_replay_history_keeps_the_bytes_it_was_handed():
    # Over TCP every message sits in a receive buffer that later frames reuse
    # once nothing refers to it; a history that still holds it keeps it.
    server, clients, *_ = build_sim(num_rounds=4)
    chan = DigestingChannel(AttackConfig(kind=AttackKind.REPLAY, target_client=1, seed=8))
    run_training_tcp(server, clients, chan)
    history = chan.history
    assert chan.stats.replayed >= 3 and len(history) >= 2 * len(clients)
    assert [hashlib.sha256(m).digest() for m in history] == [chan.digests[id(m)] for m in history]


# --- TCP failures end the run promptly ------------------------------------------

def run_tcp_bounded(server, clients, deadline):
    """Run the TCP driver on a daemon thread and return (error, seconds), so
    that a run which hangs fails the test instead of blocking the suite."""
    box = {}

    def target():
        try:
            run_training_tcp(server, clients)
        except Exception as exc:
            box["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    start = time.perf_counter()
    th.start()
    th.join(deadline)
    assert not th.is_alive(), f"run_training_tcp still running after {deadline} s"
    return box.get("error"), time.perf_counter() - start


def test_tcp_unregistered_announce_fails_fast():
    server, clients, *_ = build_sim()
    clients[2].keypair = sig.keygen(SchemeId.TEST_SCHEME, 777)  # key not in the registry
    error, _ = run_tcp_bounded(server, clients, deadline=5.0)
    assert isinstance(error, ConnectionFailed)
    assert "does not match registry" in str(error)


def test_tcp_silent_peer_fails_within_deadline(monkeypatch):
    monkeypatch.setattr(channel, "IO_TIMEOUT_S", 0.5)
    real_connect = channel.tcp_connect
    lock = threading.Lock()
    silent = []

    def connect_after_silent_peer(host, port, *args, **kwargs):
        with lock:  # the silent socket takes the first accept slot
            if not silent:
                silent.append(socket.create_connection((host, port)))
        return real_connect(host, port, *args, **kwargs)

    monkeypatch.setattr(channel, "tcp_connect", connect_after_silent_peer)
    server, clients, *_ = build_sim()
    try:
        error, elapsed = run_tcp_bounded(server, clients, deadline=5.0)
    finally:
        for sock in silent:
            sock.close()
    assert isinstance(error, ConnectionFailed)
    assert "no bytes from peer" in str(error)
    assert elapsed >= 0.5


def test_tcp_second_announce_for_connected_client_fails(monkeypatch):
    """An announce carries no freshness: an outsider replays the first
    client's announce from its own socket, which the server accepts next."""
    real_connect = channel.tcp_connect
    lock = threading.Lock()
    replayed = threading.Event()
    extra = []

    def connect(host, port, *args, **kwargs):
        with lock:
            first = not extra
            extra.append(None)
        if not first:
            replayed.wait(5.0)  # keep the other clients behind the replay
            return real_connect(host, port, *args, **kwargs)
        fs = real_connect(host, port, *args, **kwargs)
        send = fs.send_frame

        def send_and_replay(frame):
            send(frame)
            if not replayed.is_set():
                extra[0] = real_connect(host, port)
                extra[0].send_frame(frame)
                replayed.set()

        fs.send_frame = send_and_replay
        return fs

    monkeypatch.setattr(channel, "tcp_connect", connect)
    server, clients, *_ = build_sim()
    try:
        error, _ = run_tcp_bounded(server, clients, deadline=5.0)
    finally:
        if extra and extra[0] is not None:
            extra[0].close()
    assert isinstance(error, ConnectionFailed)
    assert "second announce" in str(error)


def announce_from_unregistered_id(clients, monkeypatch):
    clients[2].client_id = 99


def announce_signed_with_another_secret_key(clients, monkeypatch):
    registered = clients[2].keypair.public_key
    stranger = sig.keygen(SchemeId.TEST_SCHEME, 777)
    clients[2].keypair = sig.KeyPair(SchemeId.TEST_SCHEME, registered, stranger.secret_key)


def garbage_announce(clients, monkeypatch):
    real_connect = channel.tcp_connect

    def connect(host, port, *args, **kwargs):
        fs = real_connect(host, port, *args, **kwargs)
        send = fs.send_frame

        def send_garbage_first(frame):
            fs.send_frame = send
            send(b"not an envelope")

        fs.send_frame = send_garbage_first
        return fs

    monkeypatch.setattr(channel, "tcp_connect", connect)


@pytest.mark.parametrize("tamper, named", [
    (announce_from_unregistered_id, "unknown_sender"),
    (announce_signed_with_another_secret_key, "signature_invalid"),
    (garbage_announce, "bad announce"),
], ids=["unregistered-id", "other-secret-key", "garbage"])
def test_tcp_refused_announce_fails_the_run(monkeypatch, tamper, named):
    server, clients, *_ = build_sim()
    tamper(clients, monkeypatch)
    error, _ = run_tcp_bounded(server, clients, deadline=5.0)
    assert isinstance(error, ConnectionFailed)
    assert named in str(error)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tcp_run_raises_the_diverging_clients_own_failure():
    # the client closes its socket as it fails, so the server sees only PeerClosed
    server, clients, *_ = build_sim()
    clients[0].cfg = dataclasses.replace(clients[0].cfg, learning_rate=1e30)
    error, _ = run_tcp_bounded(server, clients, deadline=10.0)
    assert isinstance(error, NonFiniteGradient)
    assert "client 1 diverged" in str(error)
