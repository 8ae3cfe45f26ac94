"""The in-process client pool: one thread per usable CPU changes no result.

Every test patches the CPU affinity mask, so the pool has the size under
test on any machine.
"""

import dataclasses
import os
import threading

import pytest

from pqfl import channel, codec, fedcore, protocol
from pqfl.channel import Direction
from pqfl.cli import parse_attack
from pqfl.errors import NonFiniteGradient
from pqfl.fedcore import TrainConfig, derive_seed
from pqfl.sig import SchemeId

MASTER = 42
CLIENTS = 6


@pytest.fixture
def set_cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


def build_sim(num_clients=CLIENTS, num_rounds=3, scheme=SchemeId.TEST_SCHEME):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=MASTER)
    data = fedcore.generate_synthetic(240, 8, 3, derive_seed(MASTER, "data"))
    shards = fedcore.split_iid(data, num_clients, derive_seed(MASTER, "split"))
    model = fedcore.init_model(fedcore.ModelArchitecture(8, (16,), 3), derive_seed(MASTER, "init"))
    server, clients, _ = protocol.setup_keys(
        cfg, scheme, MASTER, model, shards, eval_data=data
    )
    return server, clients


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
    threads = set()
    process_round = protocol.client_process_round

    def recording(*args):
        threads.add(threading.get_ident())
        return process_round(*args)

    monkeypatch.setattr(protocol, "client_process_round", recording)
    server, clients = build_sim(num_clients=3)
    protocol.run_training(server, clients)
    assert 1 <= len(threads) <= 3 and threading.get_ident() not in threads

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
