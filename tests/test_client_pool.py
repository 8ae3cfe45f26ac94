"""The in-process client pool: one thread per usable CPU changes no result.

Every test patches the CPU affinity mask, so the pool has the size under
test on any machine.
"""

import dataclasses
import os
import threading
import time

import numpy as np
import pytest

from pqfl import channel, codec, fedcore, protocol, sig
from pqfl.channel import Direction
from pqfl.cli import parse_attack
from pqfl.errors import NonFiniteGradient
from pqfl.fedcore import TrainConfig
from pqfl.sig import SchemeId

from conftest import LARGE, build_sim, slow_sign_for

MASTER = 42
CLIENTS = 6


def observed(attack, num_clients=CLIENTS):
    """Final params and, per round, the (sender, reason) rejections and the
    skipped ids of one seeded run."""
    server, clients = build_sim(num_clients, num_rounds=3)
    chan = channel.Channel(attack and dataclasses.replace(parse_attack(attack), seed=7))
    result = protocol.run_training(server, clients, chan)
    rounds = [
        ([(r.sender_id, r.reason) for r in o.rejections], o.skipped_clients)
        for o in result.outcomes
    ]
    return result.model.params.values.tobytes(), rounds


def recorded_stacks(monkeypatch):
    """The client ids of each `fedcore.train_stack` call, with its start and end times."""
    stacks = []
    train_stack = fedcore.train_stack

    def recording(*args):
        t0 = time.perf_counter()
        deltas = train_stack(*args)
        stacks.append((list(args[5]), t0, time.perf_counter()))
        return deltas

    monkeypatch.setattr(fedcore, "train_stack", recording)
    return stacks


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
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)  # each client trains alone
    num_clients = 8
    trained, signed, outstanding = [], [], []
    local_train = fedcore.local_train

    def counting_train(*args):
        # this client's slot, and each client prepared and not yet signed
        outstanding.append(1 + len(trained) - len(signed))
        update = local_train(*args)
        trained.append(update.client_id)
        return update

    monkeypatch.setattr(fedcore, "local_train", counting_train)
    server, clients = build_sim(num_clients, num_rounds=1)
    slow_sign_for(monkeypatch, [c.keypair for c in clients], 0.002, signed)
    protocol.run_training(server, clients)
    # each sign step sleeps, so with no window all 8 would be outstanding
    assert len(signed) == num_clients
    assert max(outstanding) <= 2 * protocol.client_workers(num_clients) == 2


def recorded_hand_outs(monkeypatch, clients):
    """For each upload room the run takes, as a client is handed to the pool
    or its stack is trained, how many clients had a room then and had not
    yet signed, that client included."""
    rooms, signed, outstanding = [], [], []
    upload_room = protocol.upload_room

    def counting_room(client, *args):
        rooms.append(client.client_id)
        outstanding.append(len(rooms) - len(signed))
        return upload_room(client, *args)

    monkeypatch.setattr(protocol, "upload_room", counting_room)
    # so that, with no window, every client would be outstanding
    slow_sign_for(monkeypatch, [c.keypair for c in clients], 0.002, signed)
    return outstanding


def channel_calls_in_order(monkeypatch, num_clients):
    """Run 2 rounds of `num_clients` and check that every channel call came
    from the calling thread in one order: each round's broadcasts, then its
    replies, in ascending id. Returns `recorded_hand_outs` of the run."""
    calls = []

    class Recording(channel.Channel):
        def deliver(self, msg, direction, client_id):
            calls.append((threading.get_ident(), direction, client_id))
            return super().deliver(msg, direction, client_id)

    server, clients = build_sim(num_clients, num_rounds=2)
    outstanding = recorded_hand_outs(monkeypatch, clients)
    protocol.run_training(server, clients, Recording())
    ids = list(range(1, num_clients + 1))
    one_round = [(Direction.SERVER_TO_CLIENT, cid) for cid in ids]
    one_round += [(Direction.CLIENT_TO_SERVER, cid) for cid in ids]
    assert [call[1:] for call in calls] == 2 * one_round
    assert {call[0] for call in calls} == {threading.get_ident()}
    assert len(outstanding) == 2 * num_clients
    return outstanding


def test_channel_is_used_only_by_the_calling_thread_in_order(set_cpus, monkeypatch):
    set_cpus(4)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)  # each client trains alone
    outstanding = channel_calls_in_order(monkeypatch, 12)
    # every broadcast is delivered at the start of the round, but a client is
    # handed out only once fewer than 2 per worker are queued or running
    assert max(outstanding) <= 2 * protocol.client_workers(12) == 8


def test_stacked_clients_use_the_channel_on_the_calling_thread_in_order(set_cpus, monkeypatch):
    set_cpus(4)
    outstanding = channel_calls_in_order(monkeypatch, 12)
    assert max(outstanding) == 12  # one stack holds every client of a round


def test_a_stack_widens_the_token_window_to_its_size(set_cpus, monkeypatch):
    set_cpus(1)
    num_clients = 8
    server, clients = build_sim(num_clients, num_rounds=1)
    pass_size = clients[0].cfg.batch_size * clients[0].architecture.param_count
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 3 * pass_size + 1)  # stacks of 3
    stacks, outstanding = recorded_stacks(monkeypatch), recorded_hand_outs(monkeypatch, clients)
    protocol.run_training(server, clients)
    assert [ids for ids, *_ in stacks] == [[1, 2, 3], [4, 5, 6], [7, 8]]
    assert len(outstanding) == num_clients
    # one stack, more than the 2 per worker that clients training alone get
    assert max(outstanding) == 3 > 2 * protocol.client_workers(num_clients)


def test_a_full_window_of_stacks_and_sat_out_clients_gives_the_pooled_result(set_cpus, monkeypatch):
    # Stacks of 3 fill the one worker's window, and a client that refuses its
    # broadcast sits out while the rest of its stack trains.
    set_cpus(1)
    num_clients = 10
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)
    pooled = observed("bitflip:p=0.5:direction=s2c", num_clients)
    _, clients = build_sim(num_clients, num_rounds=1)
    pass_size = clients[0].cfg.batch_size * clients[0].architecture.param_count
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 3 * pass_size + 1)  # stacks of 3
    stacks = recorded_stacks(monkeypatch)
    assert observed("bitflip:p=0.5:direction=s2c", num_clients) == pooled
    assert max(len(ids) for ids, *_ in stacks) == 3
    assert any(skipped for _, skipped in pooled[1])  # the attack made clients sit out


def test_the_plan_cuts_ascending_ids_into_stacks_of_one_cfg_architecture_and_shard(monkeypatch):
    def plan(clients):
        return [[c.client_id for c in hand_out] for hand_out in protocol._hand_outs(clients)]

    cfg = TrainConfig(num_clients=CLIENTS, num_rounds=1, seed=MASTER)
    spec = protocol.RunSpec(cfg, SchemeId.TEST_SCHEME, (16,), 243, 8, 3)  # 41 or 40 samples
    assert plan(protocol.build_run(spec)[1]) == [[1, 2, 3], [4, 5, 6]]

    _, clients = build_sim(8, num_rounds=1)
    pass_size = clients[0].cfg.batch_size * clients[0].architecture.param_count
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 3 * pass_size + 1)  # stacks of 3
    assert plan(clients) == [[1, 2, 3], [4, 5, 6], [7, 8]]
    shuffled = [clients[i] for i in (4, 0, 7, 2, 6, 1, 3, 5)]
    assert plan(clients[::-1]) == plan(shuffled) == plan(clients)

    def with_client_4(**changes):
        return [dataclasses.replace(c, **changes) if c.client_id == 4 else c for c in clients]

    own_cfg = dataclasses.replace(clients[3].cfg, learning_rate=0.5)
    assert plan(with_client_4(cfg=own_cfg)) == [[1, 2, 3], [4], [5, 6, 7], [8]]
    assert protocol._stack_size(with_client_4(architecture=LARGE)[3]) == 0  # trains on the pool
    assert plan(with_client_4(architecture=LARGE)) == [[1, 2, 3], [4], [5, 6, 7], [8]]
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)  # every client on the pool
    assert plan(clients) == [[cid] for cid in range(1, 9)]


def test_lowest_diverging_client_raises_its_own_failure(set_cpus):
    set_cpus(4)
    server, clients = build_sim(num_rounds=3)
    for client in clients[2], clients[4]:  # clients 3 and 5
        client.cfg = dataclasses.replace(client.cfg, learning_rate=1e30)
    with pytest.raises(NonFiniteGradient, match="client 3 diverged"):
        protocol.run_training(server, clients)


def test_pool_has_one_worker_per_cpu_and_no_more_than_clients(set_cpus, monkeypatch):
    set_cpus(4)
    assert protocol.client_workers(10) == 4
    assert protocol.client_workers(3) == 3
    caller = threading.get_ident()
    process_round, train_stack, sign = protocol.client_process_round, fedcore.train_stack, sig.sign
    rounds, trained, signed = {}, set(), {}

    def recording_round(client, *args):
        rounds[client.client_id] = threading.get_ident()
        return process_round(client, *args)

    def recording_train(*args):
        trained.add(threading.get_ident())
        return train_stack(*args)

    def recording_sign(keypair, message):
        signed.setdefault(keypair.public_key, set()).add(threading.get_ident())
        return sign(keypair, message)

    monkeypatch.setattr(protocol, "client_process_round", recording_round)
    monkeypatch.setattr(fedcore, "train_stack", recording_train)
    monkeypatch.setattr(sig, "sign", recording_sign)

    # 8-16-3: the clients train in a stack on the calling thread and sign on the pool
    server, clients = build_sim(num_clients=3, num_rounds=3)
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


def test_a_stacks_train_time_is_split_into_equal_consecutive_spans(set_cpus, monkeypatch):
    set_cpus(2)
    stacks = recorded_stacks(monkeypatch)
    server, clients = build_sim(num_rounds=1)
    spans = protocol.run_training(server, clients).outcomes[0].spans
    ((ids, called, returned),) = stacks
    assert ids == [c.client_id for c in clients]
    train = spans[spans["phase"] == protocol.Phase.TRAIN]
    assert sorted(train["party"]) == ids
    train.sort(order="start")
    share = train["duration"][0]
    assert (train["duration"] == share).all() and list(train["party"]) == ids
    ends = train["start"] + train["duration"]
    assert np.allclose(train["start"][1:], ends[:-1], rtol=0, atol=1e-9)  # one after another
    assert train["start"][0] <= called and ends[-1] >= returned
    assert train["duration"].sum() == pytest.approx(ends[-1] - train["start"][0])


def test_uneven_shards_train_in_two_stacks_with_the_pooled_result(set_cpus, monkeypatch):
    set_cpus(2)
    cfg = TrainConfig(num_clients=CLIENTS, num_rounds=2, seed=MASTER)
    spec = protocol.RunSpec(cfg, SchemeId.TEST_SCHEME, (16,), 243, 8, 3)  # 41 or 40 samples
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)
    pooled = protocol.run_training(*protocol.build_run(spec)).model.params.values
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 2**20)
    stacks = recorded_stacks(monkeypatch)
    stacked = protocol.run_training(*protocol.build_run(spec)).model.params.values
    assert [ids for ids, *_ in stacks] == 2 * [[1, 2, 3], [4, 5, 6]]
    assert stacked.tobytes() == pooled.tobytes()
