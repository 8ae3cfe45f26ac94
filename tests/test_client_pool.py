"""The in-process client pool: one thread per usable CPU changes no result.

Every test patches the CPU affinity mask, so the pool has the size under
test on any machine.
"""

import dataclasses
import os
import threading
import time

import pytest

from pqfl import channel, codec, fedcore, protocol, sig
from pqfl.channel import Direction
from pqfl.cli import parse_attack
from pqfl.errors import NonFiniteGradient
from pqfl.fedcore import TrainConfig
from pqfl.sig import SchemeId

MASTER = 42
CLIENTS = 6


@pytest.fixture
def set_cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


def build_sim(num_clients=CLIENTS, num_rounds=3, scheme=SchemeId.TEST_SCHEME, layers=(8, 16, 3)):
    features, hidden, classes = layers
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=MASTER)
    return protocol.build_run(protocol.RunSpec(cfg, scheme, (hidden,), 240, features, classes))


def observed(attack):
    """Final params and, per round, the (sender, reason) rejections and the
    skipped ids of one seeded run."""
    server, clients = build_sim()
    chan = channel.Channel(attack and dataclasses.replace(parse_attack(attack), seed=7))
    result = protocol.run_training(server, clients, chan)
    rounds = [
        ([(r.sender_id, r.reason) for r in o.rejections], o.skipped_clients)
        for o in result.outcomes
    ]
    return result.model.params.values.tobytes(), rounds


@pytest.mark.parametrize("attack", [
    None, "bitflip", "substitute", "strip", "replay:p=0.5", "bitflip:direction=s2c",
])
def test_four_workers_give_the_one_worker_result(set_cpus, attack):
    set_cpus(1)
    alone = observed(attack)
    set_cpus(4)
    pooled = observed(attack)
    assert pooled == alone
    if attack:  # the attack reached the run
        assert any(rejected or skipped for rejected, skipped in alone[1])


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("attack", [
    None, "bitflip", "substitute", "strip", "replay:p=0.5", "bitflip:direction=s2c",
])
def test_clients_prepared_on_the_calling_thread_give_the_pooled_result(
    set_cpus, monkeypatch, cpus, attack
):
    set_cpus(cpus)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)
    pooled = observed(attack)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 2**62)
    assert observed(attack) == pooled


def test_the_token_window_bounds_outstanding_sign_steps(set_cpus, monkeypatch):
    set_cpus(1)
    num_clients = 8
    trained, signed, outstanding = [], [], []
    local_train, sign = fedcore.local_train, sig.sign

    def counting_train(*args):
        # this client's slot, and each client prepared and not yet signed
        outstanding.append(1 + len(trained) - len(signed))
        update = local_train(*args)
        trained.append(update.client_id)
        return update

    def slow_sign(keypair, message):
        if keypair.public_key == server.keypair.public_key:
            return sign(keypair, message)
        time.sleep(0.002)
        signature = sign(keypair, message)
        signed.append(keypair.public_key)
        return signature

    monkeypatch.setattr(fedcore, "local_train", counting_train)
    monkeypatch.setattr(sig, "sign", slow_sign)
    server, clients = build_sim(num_clients, num_rounds=1)
    protocol.run_training(server, clients)
    # each sign step sleeps, so with no window all 8 would be outstanding
    assert len(signed) == num_clients
    assert max(outstanding) <= 2 * protocol.client_workers(num_clients) == 2


def test_channel_is_used_only_by_the_calling_thread_in_order(set_cpus, monkeypatch):
    set_cpus(4)
    num_clients = 12
    calls, trained, handed_out = [], [], []
    local_train = fedcore.local_train

    def counting(*args):
        update = local_train(*args)
        trained.append(update.client_id)
        return update

    class Recording(channel.Channel):
        def deliver(self, msg, direction, client_id):
            calls.append((threading.get_ident(), direction, client_id))
            if direction == Direction.SERVER_TO_CLIENT:  # this client's, and those untrained
                handed_out.append(sum(d == direction for _, d, _ in calls) - len(trained))
            return super().deliver(msg, direction, client_id)

    monkeypatch.setattr(fedcore, "local_train", counting)
    server, clients = build_sim(num_clients, num_rounds=2)
    protocol.run_training(server, clients, Recording())
    ids = list(range(1, num_clients + 1))
    one_round = [(Direction.SERVER_TO_CLIENT, cid) for cid in ids]
    one_round += [(Direction.CLIENT_TO_SERVER, cid) for cid in ids]
    assert [call[1:] for call in calls] == 2 * one_round
    assert {call[0] for call in calls} == {threading.get_ident()}
    # a broadcast is made only once fewer than 2 per worker are queued or running
    assert max(handed_out) <= 2 * protocol.client_workers(num_clients) == 8


def test_lowest_diverging_client_raises_its_own_failure(set_cpus):
    set_cpus(4)
    server, clients = build_sim()
    for client in clients[2], clients[4]:  # clients 3 and 5
        client.cfg = dataclasses.replace(client.cfg, learning_rate=1e30)
    with pytest.raises(NonFiniteGradient, match="client 3 diverged"):
        protocol.run_training(server, clients)


def test_pool_has_one_worker_per_cpu_and_no_more_than_clients(set_cpus, monkeypatch):
    set_cpus(4)
    assert protocol.client_workers(10) == 4
    assert protocol.client_workers(3) == 3
    caller = threading.get_ident()
    process_round, local_train, sign = protocol.client_process_round, fedcore.local_train, sig.sign
    rounds, trained, signed = {}, set(), {}

    def recording_round(client, *args):
        rounds[client.client_id] = threading.get_ident()
        return process_round(client, *args)

    def recording_train(*args):
        trained.add(threading.get_ident())
        return local_train(*args)

    def recording_sign(keypair, message):
        signed.setdefault(keypair.public_key, set()).add(threading.get_ident())
        return sign(keypair, message)

    monkeypatch.setattr(protocol, "client_process_round", recording_round)
    monkeypatch.setattr(fedcore, "local_train", recording_train)
    monkeypatch.setattr(sig, "sign", recording_sign)

    # 8-16-3: each client trains on the calling thread and signs on the pool
    server, clients = build_sim(num_clients=3)
    protocol.run_training(server, clients)
    client_signers = set().union(*(signed.pop(c.keypair.public_key) for c in clients))
    assert rounds == {} and trained == {caller}
    assert 1 <= len(client_signers) <= 3 and caller not in client_signers
    assert signed == {server.keypair.public_key: {caller}}  # the broadcasts

    # 784-256-5: each client's whole round runs on the pool
    trained.clear()
    server, clients = build_sim(num_clients=3, num_rounds=1, layers=(784, 256, 5))
    protocol.run_training(server, clients)
    assert set(rounds) == {1, 2, 3} and caller not in rounds.values()
    assert trained and trained <= set(rounds.values()) and len(set(rounds.values())) <= 3

    set_cpus(1)
    assert protocol.client_workers(10) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert protocol.client_workers(10) == 2


def test_uploads_are_allocated_on_the_calling_thread(set_cpus, monkeypatch):
    # a buffer allocated on a pool thread would stay in that thread's malloc arena
    set_cpus(4)
    takers = []
    take = codec.ReusedBuffer.take

    def recording(self, n):
        takers.append(threading.get_ident())
        return take(self, n)

    monkeypatch.setattr(codec.ReusedBuffer, "take", recording)
    server, clients = build_sim(num_rounds=2)
    protocol.run_training(server, clients)
    # each round's broadcast and its uploads
    assert takers == [threading.get_ident()] * 2 * (1 + CLIENTS)
