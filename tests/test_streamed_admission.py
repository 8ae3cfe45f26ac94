"""Streamed admission: the server admits each upload as soon as that client
and every lower id are done, while later clients still train, sign or wait
to be handed out, and it keeps every rule of admitting a whole round at
once, while holding the uploads of the client window only.

Every in-process test patches the CPU affinity mask, so the pool has the
size under test on any machine.
"""

import os
import threading
import time
import tracemalloc

import pytest

from pqfl import channel, codec, fedcore, protocol, sig
from pqfl.fedcore import TrainConfig
from pqfl.protocol import SERVER_ID, Phase, RejectReason
from pqfl.sig import SchemeId

MASTER = 42
LARGE = fedcore.ModelArchitecture(784, (256,), 5)
# each model through each placement: prepared on the driver's thread, or whole on the pool
PLACEMENTS = pytest.mark.parametrize("prepare_below", [2**62, 0], ids=["driver", "pool"])


@pytest.fixture
def set_cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


def build_sim(num_clients=6):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=1, seed=MASTER)
    return protocol.build_run(protocol.RunSpec(cfg, SchemeId.TEST_SCHEME, (16,), 240, 8, 3))


def slow_sign_for(monkeypatch, keypairs, seconds, signed=None):
    """Make `sig.sign` sleep `seconds` first for each of `keypairs`, and
    append the public key to `signed` once it has signed."""
    slow, sign = {kp.public_key for kp in keypairs}, sig.sign

    def slow_sign(keypair, message):
        if keypair.public_key not in slow:
            return sign(keypair, message)
        time.sleep(seconds)
        signature = sign(keypair, message)
        if signed is not None:
            signed.append(keypair.public_key)
        return signature

    monkeypatch.setattr(sig, "sign", slow_sign)


def phase_spans(spans, party, phase):
    return spans[(spans["party"] == party) & (spans["phase"] == phase)]


def recorded_hand_outs(monkeypatch):
    """{client id: time} of each upload room taken, as the client is handed
    to the pool or its stack is trained."""
    taken, upload_room = {}, protocol.upload_room

    def recording(client, *args):
        taken[client.client_id] = time.perf_counter()
        return upload_room(client, *args)

    monkeypatch.setattr(protocol, "upload_room", recording)
    return taken


@PLACEMENTS
def test_upload_1_is_verified_while_the_last_client_signs(set_cpus, monkeypatch, prepare_below):
    set_cpus(2)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", prepare_below)
    server, clients = build_sim()
    last = clients[-1]
    slow_sign_for(monkeypatch, [last.keypair], 0.05)
    spans = protocol.run_training(server, clients).outcomes[0].spans
    (last_sign,) = phase_spans(spans, last.client_id, Phase.SIGN)
    first_verify = phase_spans(spans, SERVER_ID, Phase.VERIFY)["start"].min()
    assert first_verify < last_sign["start"] + last_sign["duration"]


def test_tcp_upload_1_is_verified_before_client_2s_reply_is_read(monkeypatch):
    server, clients = build_sim(num_clients=2)
    slow_sign_for(monkeypatch, [clients[1].keypair], 0.05)
    driver, read_at = threading.get_ident(), []
    recv_frame = channel.FrameSocket.recv_frame

    def recording_recv_frame(self):
        frame = recv_frame(self)
        if threading.get_ident() == driver:
            read_at.append(time.perf_counter())
        return frame

    monkeypatch.setattr(channel.FrameSocket, "recv_frame", recording_recv_frame)
    spans = protocol.run_training_tcp(server, clients).outcomes[0].spans
    assert len(read_at) == 4  # two announces, then the replies of clients 1 and 2
    assert phase_spans(spans, SERVER_ID, Phase.VERIFY)["start"].min() < read_at[-1]


def test_admission_pulls_one_upload_at_a_time_with_the_result_of_a_list():
    server, clients = build_sim(num_clients=3)
    broadcast = codec.encode_envelope(protocol.distribute_model(server))
    first, second, third = (protocol.client_process_round(c, broadcast).reply for c in clients)
    blobs = [first, b"not an envelope", second, first, third]  # a malformed blob and a duplicate

    def summary(result):
        verified, rejections, payload_bytes, signature_bytes = result
        updates = [(u.client_id, u.round, u.delta.values.tobytes()) for u in verified]
        return updates, [(r.sender_id, r.reason) for r in rejections], payload_bytes, signature_bytes

    spans, pulled_after = [], []

    def one_at_a_time():
        for blob in blobs:
            pulled_after.append(len(spans))  # the server's spans so far
            yield blob

    streamed = summary(protocol.server_collect_and_verify(server, one_at_a_time(), spans))
    listed = summary(protocol.server_collect_and_verify(server, blobs))
    assert streamed == listed
    assert [cid for cid, *_ in listed[0]] == [1, 2, 3]
    assert listed[1] == [(None, RejectReason.MALFORMED), (1, RejectReason.DUPLICATE)]
    # each blob is pulled only once the one before it has been admitted
    assert pulled_after[0] == 0 and all(a < b for a, b in zip(pulled_after, pulled_after[1:]))


def test_a_bitflip_run_holds_at_most_one_round_of_uploads_and_one_more(monkeypatch):
    for cpus in 1, 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for clients in 8, 32:
            workers = protocol.client_workers(clients)
            data = fedcore.generate_synthetic(16 * clients, 784, 5, seed=2)
            shards = fedcore.split_iid(data, clients, seed=3)
            model = fedcore.init_model(LARGE, seed=1)
            cfg = TrainConfig(num_clients=clients, num_rounds=3, batch_size=16, seed=1)
            server, parties, _ = protocol.setup_keys(
                cfg, SchemeId.TEST_SCHEME, 1, model, shards,
                eval_data=fedcore.generate_synthetic(128, 784, 5, seed=4),
            )
            chan = channel.Channel(channel.AttackConfig(kind=channel.AttackKind.BITFLIP, seed=5))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = protocol.run_training(server, parties, chan)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert [o.verified_count for o in result.outcomes] == [0] * 3
            assert chan.stats.tampered == 3 * clients
            # test_memory's bound for an honest run, 3 + 3 per worker and a
            # half, and the flipped copy of one upload: each original is let
            # go once its copy is delivered, and each copy once it is refused
            payload = model.params.encoded_len
            allowed = (3 + 3 * workers + 0.5 + 1) * payload
            assert peak <= allowed, (
                f"a 3-round bitflip run of {clients} clients on {workers} workers peaked at "
                f"{peak / payload:.2f} payloads"
            )


@PLACEMENTS
def test_a_failing_admission_surfaces_once_the_rounds_clients_are_done(
    set_cpus, monkeypatch, prepare_below
):
    set_cpus(1)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", prepare_below)
    server, clients = build_sim()
    signed, handed_out = [], recorded_hand_outs(monkeypatch)
    slow_sign_for(monkeypatch, [c.keypair for c in clients], 0.01, signed)
    verify, client_1 = sig.verify, clients[0].keypair.public_key

    def failing_verify(public_key, scheme, message, signature):
        if public_key == client_1:  # the server admitting upload 1
            raise RuntimeError("verifier failed")
        return verify(public_key, scheme, message, signature)

    monkeypatch.setattr(sig, "verify", failing_verify)
    with pytest.raises(RuntimeError, match="verifier failed") as raised:
        protocol.run_training(server, clients)
    # `raised` keeps the failed round's frames, and so its exchange, alive: a
    # client still signing now would not have been waited for. With two
    # clients per worker in the window, one was still signing when upload 1
    # was admitted. The clients not yet handed out never ran.
    assert len(signed) == len(handed_out), raised
    assert sorted(handed_out) == [c.client_id for c in clients[: len(handed_out)]]


def test_uploads_are_admitted_while_later_clients_are_still_handed_out(set_cpus, monkeypatch):
    set_cpus(1)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)  # each client on the pool
    server, clients = build_sim(num_clients=8)
    handed_out = recorded_hand_outs(monkeypatch)
    slow_sign_for(monkeypatch, [c.keypair for c in clients], 0.01)
    spans = protocol.run_training(server, clients).outcomes[0].spans
    assert sorted(handed_out) == [c.client_id for c in clients]
    first_verify = phase_spans(spans, SERVER_ID, Phase.VERIFY)["start"].min()
    assert first_verify < max(handed_out.values())
