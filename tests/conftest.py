"""Fixtures and helpers shared by the test modules; import the helpers with
`from conftest import ...`."""

import os
import time
import tracemalloc

import pytest

from pqfl import codec, fedcore, protocol, sig
from pqfl.fedcore import TrainConfig
from pqfl.protocol import ProtocolOptions
from pqfl.sig import SchemeId

LARGE = fedcore.ModelArchitecture(784, (256,), 5)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {status}: {name}")


@pytest.fixture
def set_cpus(monkeypatch):
    """Set how many CPUs the process may run on, and so the client pool's size."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


def build_sim(num_clients=6, num_rounds=1, layers=(8, 16, 3), options=ProtocolOptions()):
    """The server and clients of a seeded TestScheme run on 240 samples of a
    Gaussian mixture, with a `layers` (features, hidden, classes) MLP."""
    features, hidden, classes = layers
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=42)
    spec = protocol.RunSpec(cfg, SchemeId.TEST_SCHEME, (hidden,), 240, features, classes, options=options)
    return protocol.build_run(spec)


def honest_update(client, server):
    """(client's signed upload, update) for the server's current model."""
    model = protocol.client_receive_model(client, protocol.distribute_model(server))
    seed = fedcore.train_seed(client.cfg.seed, model.round, client.client_id)
    update = fedcore.local_train(model, client.dataset, client.cfg, seed, client.client_id)
    return codec.encode_envelope(protocol.client_submit_update(client, update)), update


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


def flip_bit(data: bytes, pos: int) -> bytes:
    out = bytearray(data)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def traced_peak(fn):
    """(bytes allocated at the peak of fn() beyond what was live before, result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        tracemalloc.stop()


def run_peak(clients, channel_=None, rounds=3):
    """(traced peak, result, payload size) of a `rounds`-round 784-256-5 run
    of `clients` with a fixed 128-row evaluation set, on the client workers
    the CPU affinity mask allows."""
    data = fedcore.generate_synthetic(16 * clients, 784, 5, seed=2)
    shards = fedcore.split_iid(data, clients, seed=3)
    model = fedcore.init_model(LARGE, seed=1)
    cfg = TrainConfig(num_clients=clients, num_rounds=rounds, batch_size=16, seed=1)
    server, parties, _ = protocol.setup_keys(
        cfg, SchemeId.TEST_SCHEME, 1, model, shards,
        eval_data=fedcore.generate_synthetic(128, 784, 5, seed=4),
    )
    peak, result = traced_peak(lambda: protocol.run_training(server, parties, channel_))
    return peak, result, model.params.encoded_len
