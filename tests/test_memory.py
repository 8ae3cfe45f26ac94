"""Memory bounds: set-up builds its float32 outputs without float64 copies of
them, splitting copies no sample, evaluation holds one hidden activation, a
run holds the uploads of the client window, not of every client, and each
client worker's working vectors, a tampered broadcast copy per client at
most, a replay run's memory does not grow with its rounds, round spans
are kept packed, SLH-DSA reads each message in place, as does the
digest of a sealed upload's payload, and signing keys live only as long as
their key pairs.

Sizes are the `train-large` benchmark's: 4000 samples of 784 features and
the 784-256-5 MLP (202,245 parameters, an 808,992-byte payload).
"""

import gc
import tracemalloc

import pytest

from pqfl import channel, codec, fedcore, protocol, sig
from pqfl.errors import UnsupportedScheme
from pqfl.fedcore import ModelArchitecture, TrainConfig
from pqfl.sig import SchemeId

from conftest import LARGE, run_peak, traced_peak


def test_generate_synthetic_peaks_near_its_output():
    peak, data = traced_peak(lambda: fedcore.generate_synthetic(4000, 784, 5, seed=1))
    size = data.features.nbytes + data.labels.nbytes
    assert peak <= 1.5 * size, f"generate_synthetic peaked at {peak / size:.2f}x its output"


def test_init_model_peaks_near_its_output():
    peak, model = traced_peak(lambda: fedcore.init_model(LARGE, seed=1))
    size = model.params.values.nbytes
    assert peak <= 1.5 * size, f"init_model peaked at {peak / size:.2f}x its output"


def test_split_iid_copies_no_sample():
    data = fedcore.generate_synthetic(4000, 784, 5, seed=1)
    peak, shards = traced_peak(lambda: fedcore.split_iid(data, 20, seed=2))
    assert sum(s.num_samples for s in shards) == 4000
    size = data.features.nbytes
    assert peak <= 0.05 * size, f"split_iid allocated {peak / size:.2f}x the feature matrix"


def test_forward_loss_holds_one_hidden_activation():
    data = fedcore.generate_synthetic(4000, 784, 5, seed=1)
    model = fedcore.init_model(LARGE, seed=1)
    fedcore.forward_loss(model, data)  # BLAS warm-up
    peak, _ = traced_peak(lambda: fedcore.forward_loss(model, data))
    activation = 4000 * 256 * 4
    assert peak <= 1.25 * activation, f"forward_loss peaked at {peak / activation:.2f}x one activation"


def round_bound(workers):
    """The payloads a run may hold at once, whatever its client count: the
    global model, its broadcast and the round's running sum, and for each
    of the 2 clients per worker that may hold a slot of the window, an
    upload room (in which a client trains), and a gradient for the one
    that trains; half a payload covers everything smaller, such as the
    evaluation's activations and the round's spans."""
    return 3 + 3 * workers + 0.5


def test_run_holds_at_most_one_round_of_uploads(set_cpus):
    # and no more than the client window's: the bound has no client count in it
    for cpus in 1, 2:  # the CPUs the process may run on, one client worker each
        set_cpus(cpus)
        for clients in 8, 32:
            workers = protocol.client_workers(clients)
            assert workers == cpus
            peak, result, payload = run_peak(clients)
            assert [o.verified_count for o in result.outcomes] == [clients] * 3
            # holding each round's uploads until it is aggregated would add `clients`
            assert peak <= round_bound(workers) * payload, (
                f"a 3-round run of {clients} clients on {workers} workers peaked at "
                f"{peak / payload:.2f} payloads"
            )


def test_a_tampered_broadcast_run_holds_at_most_one_copy_per_client(set_cpus):
    # Every broadcast is delivered at the start of the round, and a tampered
    # one is a copy, held until its client is handed out: this is the one
    # part of a run's memory that grows with its client count.
    for cpus in 1, 2:
        set_cpus(cpus)
        for clients in 8, 32:
            workers = protocol.client_workers(clients)
            chan = channel.Channel(channel.AttackConfig(
                kind=channel.AttackKind.BITFLIP, direction=channel.Direction.SERVER_TO_CLIENT,
                probability=0.5, seed=5,
            ))
            peak, result, payload = run_peak(clients, chan)
            # each tampered broadcast is refused, so its client sits out
            skipped = [len(o.skipped_clients) for o in result.outcomes]
            assert chan.stats.tampered == sum(skipped) > 0
            # an honest run's bound, and one copy for each tampered broadcast of a round
            assert peak <= (round_bound(workers) + max(skipped)) * payload, (
                f"a 3-round s2c bitflip run of {clients} clients on {workers} workers, "
                f"at most {max(skipped)} tampered broadcasts a round, peaked at "
                f"{peak / payload:.2f} payloads"
            )


def test_replay_run_memory_is_flat_in_rounds():
    clients = 4

    def peak_of(rounds):
        data = fedcore.generate_synthetic(16 * clients, 784, 5, seed=2)
        shards = fedcore.split_iid(data, clients, seed=3)
        model = fedcore.init_model(LARGE, seed=1)
        cfg = TrainConfig(num_clients=clients, num_rounds=rounds, batch_size=16, seed=1)
        server, parties, _ = protocol.setup_keys(
            cfg, SchemeId.TEST_SCHEME, 1, model, shards, eval_data=data
        )
        attack = channel.AttackConfig(kind=channel.AttackKind.REPLAY, target_client=1, seed=8)
        chan = channel.Channel(attack)
        peak, result = traced_peak(lambda: protocol.run_training(server, parties, chan))
        assert len(result.outcomes) == rounds and chan.stats.replayed >= rounds - 1
        return peak

    short, long = peak_of(2), peak_of(8)
    # Replay keeps the messages of two rounds at most. Keeping every message
    # delivered would add six rounds of uploads and broadcasts to the longer run.
    payload = fedcore.init_model(LARGE, seed=1).params.encoded_len
    assert abs(long - short) <= clients * payload, (
        f"8 rounds peaked {(long - short) / payload:+.2f} payloads beyond 2 rounds"
    )


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
    env = protocol.client_submit_update(client, update)
    laid_out = env.wire[: codec.HEADER_LEN + env.header.payload_len]
    assert laid_out.readonly

    def sign_and_verify():
        # the scheme over the whole 809 KB view, as `pqfl bench` signs raw payloads
        whole = sig.verify(keypair.public_key, keypair.scheme, laid_out, sig.sign(keypair, laid_out))
        signed = env.signed  # header || digest, hashed from the sealed buffer
        return whole and sig.verify(keypair.public_key, keypair.scheme, signed, sig.sign(keypair, signed))

    peak, ok = traced_peak(sign_and_verify)
    assert ok
    payload = model.params.encoded_len
    assert peak < 0.25 * payload, f"SLH-DSA sign + verify peaked at {peak / payload:.2f}x the payload"


def test_dropped_set_ups_free_their_signing_keys():
    # perfbench times set-up as 15 calls of which it keeps the last; the
    # signing keys of the others must go with their key pairs
    try:
        from pqfl import libcrypto

        libcrypto.load_libcrypto()
    except UnsupportedScheme as exc:
        pytest.skip(str(exc))

    def live_keys():
        return [o for o in gc.get_objects() if isinstance(o, libcrypto._Key)]

    before = {id(key): key for key in live_keys()}  # held, so no id is reused
    clients = 10
    data = fedcore.generate_synthetic(20 * clients, 8, 3, seed=2)
    shards = fedcore.split_iid(data, clients, seed=3)
    model = fedcore.init_model(ModelArchitecture(8, (8,), 3), seed=1)
    cfg = TrainConfig(num_clients=clients, num_rounds=1, seed=1)
    for seed in range(15):
        built = protocol.setup_keys(cfg, SchemeId.DILITHIUM, seed, model, shards, eval_data=data)
    new = [key for key in live_keys() if id(key) not in before]
    assert len(new) <= clients + 1, f"{len(new)} signing keys live for one set-up of {clients + 1} parties"
    server, parties, _ = built
    assert [o.verified_count for o in protocol.run_training(server, parties).outcomes] == [clients]
