"""Memory bounds: set-up builds its float32 outputs without float64 copies of
them, evaluation holds one hidden activation, a run holds at most one round's
uploads, round spans are kept packed, and SLH-DSA reads each message in place.

Sizes are the `train-large` benchmark's: 4000 samples of 784 features and
the 784-256-5 MLP (202,245 parameters, an 808,992-byte payload).
"""

import tracemalloc

import pytest

from pqfl import fedcore, protocol, sig
from pqfl.errors import UnsupportedScheme
from pqfl.fedcore import ModelArchitecture, TrainConfig
from pqfl.sig import SchemeId

LARGE = ModelArchitecture(784, (256,), 5)


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


def test_generate_synthetic_peaks_near_its_output():
    peak, data = traced_peak(lambda: fedcore.generate_synthetic(4000, 784, 5, seed=1))
    size = data.features.nbytes + data.labels.nbytes
    assert peak <= 1.5 * size, f"generate_synthetic peaked at {peak / size:.2f}x its output"


def test_init_model_peaks_near_its_output():
    peak, model = traced_peak(lambda: fedcore.init_model(LARGE, seed=1))
    size = model.params.values.nbytes
    assert peak <= 1.5 * size, f"init_model peaked at {peak / size:.2f}x its output"


def test_forward_loss_holds_one_hidden_activation():
    data = fedcore.generate_synthetic(4000, 784, 5, seed=1)
    model = fedcore.init_model(LARGE, seed=1)
    fedcore.forward_loss(model, data)  # BLAS warm-up
    peak, _ = traced_peak(lambda: fedcore.forward_loss(model, data))
    activation = 4000 * 256 * 4
    assert peak <= 1.25 * activation, f"forward_loss peaked at {peak / activation:.2f}x one activation"


def test_run_holds_at_most_one_round_of_uploads():
    clients = 8
    data = fedcore.generate_synthetic(16 * clients, 784, 5, seed=2)
    shards = fedcore.split_iid(data, clients, seed=3)
    model = fedcore.init_model(LARGE, seed=1)
    cfg = TrainConfig(num_clients=clients, num_rounds=3, batch_size=16, seed=1)
    server, parties, _ = protocol.setup_keys(
        cfg, SchemeId.TEST_SCHEME, 1, model, shards, eval_data=data
    )
    peak, result = traced_peak(lambda: protocol.run_training(server, parties))
    assert [o.verified_count for o in result.outcomes] == [clients] * 3
    # Beyond one round's uploads: the broadcast, the previous global model and
    # two working vectors (a client's parameters and gradient, or the sum that
    # aggregation builds). Holding the previous round's uploads too would add
    # `clients` more.
    payload = model.params.encoded_len
    allowed = (clients + 4) * payload
    assert peak <= allowed, f"a 3-round run peaked at {peak / payload:.2f} payloads"


def test_round_spans_are_kept_packed():
    # A long run keeps every outcome. Kept as the list of tuples a round
    # gathers, its spans cost about 64 bytes each; packed they cost 21 plus
    # each round's array header.
    clients, rounds = 10, 20
    data = fedcore.generate_synthetic(20 * clients, 8, 3, seed=2)
    shards = fedcore.split_iid(data, clients, seed=3)
    model = fedcore.init_model(ModelArchitecture(8, (8,), 3), seed=1)
    cfg = TrainConfig(num_clients=clients, num_rounds=rounds, seed=1)
    server, parties, _ = protocol.setup_keys(
        cfg, SchemeId.TEST_SCHEME, 1, model, shards, eval_data=data
    )
    tracemalloc.start()
    try:
        outcomes = protocol.run_training(server, parties).outcomes
        with_spans = tracemalloc.get_traced_memory()[0]
        count = sum(len(o.spans) for o in outcomes)
        for o in outcomes:
            o.spans = None
        retained = with_spans - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count == rounds * (4 + 11 * clients)
    assert retained <= 24 * count, f"spans retained {retained / count:.1f} B each"


def test_slhdsa_signs_and_verifies_a_sealed_update_in_place():
    try:
        keypair = sig.keygen(SchemeId.SPHINCS_PLUS, None)
    except UnsupportedScheme as exc:
        pytest.skip(str(exc))
    model = fedcore.init_model(LARGE, seed=1)
    client = protocol.ClientState(
        1, keypair, keypair.public_key, SchemeId.SPHINCS_PLUS, LARGE,
        fedcore.generate_synthetic(8, 784, 5, seed=0), TrainConfig(num_clients=1, num_rounds=1),
        last_accepted_round=0,
    )
    update = fedcore.ModelUpdate(model.params, client_id=1, round=0)
    signed = protocol.client_submit_update(client, update).signed
    assert signed.readonly

    def sign_and_verify():
        return sig.verify(keypair.public_key, keypair.scheme, signed, sig.sign(keypair, signed))

    peak, ok = traced_peak(sign_and_verify)
    assert ok
    payload = model.params.encoded_len
    assert peak < 0.25 * payload, f"SLH-DSA sign + verify peaked at {peak / payload:.2f}x the payload"
