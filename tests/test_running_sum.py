"""The round's running sum: the server adds each admitted upload to one
float32 sum and lets it go, and the result is bit-identical to
`fedcore.aggregate` over the verified set in ascending client id.

The upload of a lower id can be admitted after higher ones only as the
replay of an upload whose own slot was refused, or, without signature
checks, under a tampered header; the server then keeps such updates and
adds them in ascending id once every reply is in.
"""

import dataclasses

import numpy as np
import pytest

from pqfl import channel, codec, fedcore, protocol
from pqfl.channel import Direction
from pqfl.errors import DimensionMismatch, EmptyVerifiedSet, RoundMismatch
from pqfl.fedcore import ModelArchitecture, ModelUpdate, RunningSum
from pqfl.protocol import ProtocolOptions, RejectReason

from conftest import build_sim

TRANSPORTS = pytest.mark.parametrize("transport", ["driver", "pool", "tcp"])


def run(transport, server, clients, chan, monkeypatch):
    """One run on `transport`: in process, each client's training prepared
    on the driver's thread or run whole on the pool, or over TCP."""
    if transport == "tcp":
        return protocol.run_training_tcp(server, clients, chan)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 2**62 if transport == "driver" else 0)
    return protocol.run_training(server, clients, chan)


def deltas(start, clients):
    """Each client's delta of round 0, trained alone from `start`."""
    return {
        c.client_id: fedcore.local_train(
            start, c.dataset, c.cfg, fedcore.train_seed(c.cfg.seed, 0, c.client_id), c.client_id
        ).delta
        for c in clients
    }


class Rerouting(channel.Channel):
    """Delivers each upload of a slot in `reroute` as `reroute[slot]` makes
    it from (the slot's own upload, the uploads delivered so far by slot)."""

    def __init__(self, reroute):
        super().__init__()
        self.reroute, self.seen = reroute, {}

    def deliver(self, msg, direction, client_id):
        out = super().deliver(msg, direction, client_id)
        if direction != Direction.CLIENT_TO_SERVER:
            return out
        self.seen[client_id] = bytes(out)  # a TCP frame's buffer is reused
        make = self.reroute.get(client_id)
        return out if make is None else make(self.seen[client_id], self.seen)


def flip_last_byte(blob):
    flipped = bytearray(blob)
    flipped[-1] ^= 1
    return bytes(flipped)


def claiming(sender):
    """A maker that relabels a slot's own upload as `sender`'s."""

    def make(own, seen):
        header = dataclasses.replace(codec.MessageHeader.decode(own), sender_id=sender)
        return header.encode() + own[codec.HEADER_LEN :]

    return make


@TRANSPORTS
def test_a_lower_id_admitted_late_is_added_in_ascending_id(transport, monkeypatch):
    # client 2's own upload is refused; its genuine upload then comes in
    # client 5's slot, after those of clients 3 and 4
    server, clients = build_sim()
    start = server.model
    chan = Rerouting({2: lambda own, seen: flip_last_byte(own), 5: lambda own, seen: seen[2]})
    result = run(transport, server, clients, chan, monkeypatch)
    (outcome,) = result.outcomes
    assert [(r.sender_id, r.reason) for r in outcome.rejections] == [(2, RejectReason.SIGNATURE_INVALID)]
    assert outcome.verified_count == 5

    by_id = deltas(start, clients)
    verified = [ModelUpdate(by_id[cid], cid, 0) for cid in (1, 3, 4, 2, 6)]  # in admission order
    expected = fedcore.aggregate(start, verified)
    assert result.model.params.values.tobytes() == expected.params.values.tobytes()
    # the order of admission gives other bits, so the test tells the two apart
    arrival = sum_in_order(start, verified)
    assert arrival.tobytes() != expected.params.values.tobytes()


@TRANSPORTS
def test_without_signature_checks_a_relabelled_upload_is_added_under_its_claimed_id(
    transport, monkeypatch
):
    # slot 2's upload claims sender 5 and slot 5's claims sender 2: both pass
    server, clients = build_sim(options=ProtocolOptions(verify_updates=False))
    start = server.model
    chan = Rerouting({2: claiming(5), 5: claiming(2)})
    result = run(transport, server, clients, chan, monkeypatch)
    (outcome,) = result.outcomes
    assert outcome.rejections == [] and outcome.verified_count == 6

    by_id = deltas(start, clients)
    claimed = {1: 1, 2: 5, 3: 3, 4: 4, 5: 2, 6: 6}  # slot: claimed sender
    verified = [ModelUpdate(by_id[slot], claimed[slot], 0) for slot in range(1, 7)]
    expected = fedcore.aggregate(start, verified)
    assert result.model.params.values.tobytes() == expected.params.values.tobytes()
    arrival = sum_in_order(start, verified)
    assert arrival.tobytes() != expected.params.values.tobytes()


def sum_in_order(start, updates):
    """old + the float32 mean of `updates` added in the order given."""
    acc = np.zeros_like(start.params.values)
    for u in updates:
        acc = acc + u.delta.values
    return acc / np.float32(len(updates)) + start.params.values


def test_the_running_sum_takes_updates_in_ascending_id_only():
    model = fedcore.init_model(ModelArchitecture(4, (), 3), seed=0)
    n = model.params.size

    def update(cid, values=np.ones(n, np.float32), round=0):
        return ModelUpdate(codec.ParameterVector(values, values.shape), cid, round)

    total = RunningSum(model)
    total.add(update(2))
    for late in 1, 2:
        with pytest.raises(ValueError):
            total.add(update(late))
    with pytest.raises(RoundMismatch):
        total.add(update(3, round=1))
    with pytest.raises(DimensionMismatch):
        total.add(update(3, np.ones(n + 1, np.float32)))
    total.add(update(5))
    assert total.count == 2
    assert fedcore.aggregate(model, [update(6)], total).params == fedcore.aggregate(
        model, [update(cid) for cid in (6, 5, 2)]
    ).params
    with pytest.raises(EmptyVerifiedSet):
        RunningSum(model).mean_step()
