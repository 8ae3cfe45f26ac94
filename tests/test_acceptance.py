"""Acceptance suite: the ten exit criteria, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and recorded margins. Desk-scale runs use M=10 clients and
T=10 rounds on the seeded synthetic dataset.
"""

import numpy as np
import pytest

from pqfl import bench, codec, fedcore, protocol, sig
from pqfl.channel import AttackConfig, AttackKind, Channel, Direction
from pqfl.codec import ParameterVector, decode_params, encode_params
from pqfl.errors import ReplayDetected
from pqfl.fedcore import TrainConfig, derive_seed
from pqfl.protocol import (
    ProtocolOptions,
    RejectReason,
    client_process_round,
    distribute_model,
    finish_round,
    run_training,
    run_training_tcp,
    setup_keys,
)
from pqfl.sig import SchemeId, SignatureBytes

MASTER = 20240917
ALL = list(sig.ALL_SCHEMES)
PQC = list(sig.PQC_SCHEMES)


def desk_sim(scheme, master=MASTER, num_clients=10, num_rounds=10, options=None):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=master)
    data = fedcore.generate_synthetic(600, 12, 4, derive_seed(master, "data"))
    shards = fedcore.split_iid(data, num_clients, derive_seed(master, "split"))
    arch = fedcore.ModelArchitecture(12, (24,), 4)
    model = fedcore.init_model(arch, derive_seed(master, "init"))
    server, clients, registry = setup_keys(
        cfg, scheme, master, model, shards, options, eval_data=data
    )
    return server, clients, registry, model, shards, data, cfg


def flip_bit(data: bytes, pos: int) -> bytes:
    out = bytearray(data)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


# --- criterion 1: signature correctness suite --------------------------------------

@pytest.mark.parametrize("scheme", ALL, ids=lambda s: s.label)
def test_criterion_01_signature_correctness(scheme):
    rng = np.random.default_rng(derive_seed(MASTER, "c1", scheme.wire_code))
    kp = sig.keygen(scheme, seed=101)
    wrong_kp = sig.keygen(scheme, seed=202)

    # 100 round trips over payloads of 1 B .. 4 MiB (log-uniform sizes)
    max_size = 4 * 1024 * 1024
    sizes = [max(1, int(max_size ** u)) for u in rng.random(100)]
    assert min(sizes) >= 1 and max(sizes) <= max_size
    for size in sizes:
        message = rng.bytes(size)
        assert sig.verify(kp.public_key, scheme, message, sig.sign(kp, message))

    # 100 wrong-key verifications
    for i in range(100):
        message = rng.bytes(64)
        foreign = sig.sign(wrong_kp, message)
        assert not sig.verify(kp.public_key, scheme, message, foreign)

    # 256 sampled single-bit flips of the payload and of the signature
    message = rng.bytes(1024)
    signature = sig.sign(kp, message)
    payload_positions = rng.choice(len(message) * 8, size=256, replace=False)
    for pos in payload_positions:
        assert not sig.verify(kp.public_key, scheme, flip_bit(message, int(pos)), signature)
    sig_bits = len(signature.data) * 8
    sig_positions = rng.choice(sig_bits, size=min(256, sig_bits), replace=False)
    for pos in sig_positions:
        mutated = SignatureBytes(scheme, flip_bit(signature.data, int(pos)))
        assert not sig.verify(kp.public_key, scheme, message, mutated)


# --- criterion 2: Table-1 style orderings --------------------------------------------

def test_criterion_02_scheme_orderings():
    records = bench.microbench(PQC, [1024 * 1024], iterations=30, seed=1)
    combined = {}
    for scheme in PQC:
        rows = [r for r in records if r.scheme == scheme.label and r.op in ("sign", "verify")]
        combined[scheme] = sum(r.median_s for r in rows)
    dil, fal, sph = (combined[s] for s in (SchemeId.DILITHIUM, SchemeId.FALCON, SchemeId.SPHINCS_PLUS))
    print(f"\nsign+verify medians at 1 MiB: dilithium={dil:.6f}s falcon={fal:.6f}s sphincsplus={sph:.6f}s")
    assert dil < fal < sph

    meta = {s: sig.metadata(s) for s in PQC}
    assert (
        meta[SchemeId.FALCON].signature_max_len
        < meta[SchemeId.DILITHIUM].signature_max_len
        < meta[SchemeId.SPHINCS_PLUS].signature_max_len
    )
    assert (
        meta[SchemeId.SPHINCS_PLUS].public_key_len
        < meta[SchemeId.DILITHIUM].public_key_len
        < meta[SchemeId.FALCON].public_key_len
    )


# --- criterion 3: scheme transparency --------------------------------------------------

def test_criterion_03_scheme_transparency():
    finals = {}
    losses = {}
    for scheme in ALL:
        server, clients, *_ = desk_sim(scheme)
        result = run_training(server, clients)
        finals[scheme] = result.model.params
        losses[scheme] = [o.global_loss for o in result.outcomes]
    reference = finals[SchemeId.DILITHIUM]
    for scheme in ALL:
        assert finals[scheme] == reference, f"{scheme.label} diverged"
        assert losses[scheme] == losses[SchemeId.DILITHIUM]


# --- criterion 4: oracle equivalence ----------------------------------------------------

def test_criterion_04_oracle_equivalence():
    server, clients, _, model, shards, data, cfg = desk_sim(SchemeId.DILITHIUM)
    secured = run_training(server, clients)
    oracle = fedcore.run_plain_fedavg(model, list(enumerate(shards, start=1)), cfg, eval_data=data)
    assert secured.model.params == oracle.model.params
    assert secured.model.params.values.tobytes() == oracle.model.params.values.tobytes()


# --- criterion 5: poisoning defense ------------------------------------------------------

@pytest.mark.parametrize("kind,extra", [
    (AttackKind.BITFLIP, {}),
    (AttackKind.SUBSTITUTE, {"poison": "negate"}),
], ids=["bitflip", "substitute"])
def test_criterion_05_poisoning_defense(kind, extra):
    attack = AttackConfig(
        kind=kind, target_client=1, direction=Direction.CLIENT_TO_SERVER,
        probability=1.0, seed=5, **extra,
    )
    server, clients, _, model, shards, _, cfg = desk_sim(SchemeId.DILITHIUM)
    result = run_training(server, clients, Channel(attack))

    for outcome in result.outcomes:  # soundness: no tampered update in S, ever
        assert outcome.verified_count == 9
        assert len(outcome.rejections) == 1
        assert outcome.rejections[0].sender_id in (1, None)
        assert outcome.rejections[0].reason in (
            RejectReason.SIGNATURE_INVALID, RejectReason.MALFORMED,
        )

    honest_nine = list(enumerate(shards, start=1))[1:]
    oracle = fedcore.run_plain_fedavg(model, honest_nine, cfg)
    assert result.model.params == oracle.model.params


# --- criterion 6: defense value demonstration ----------------------------------------------

def test_criterion_06_defense_value():
    attack = AttackConfig(
        kind=AttackKind.SUBSTITUTE, poison="negate", target_client=1,
        direction=Direction.CLIENT_TO_SERVER, probability=1.0, seed=6,
    )
    baseline_opts = ProtocolOptions(verify_updates=False, verify_models=False)
    server_b, clients_b, *_ = desk_sim(SchemeId.DILITHIUM, options=baseline_opts)
    poisoned = run_training(server_b, clients_b, Channel(attack))

    server_s, clients_s, *_ = desk_sim(SchemeId.DILITHIUM)
    secured = run_training(server_s, clients_s, Channel(attack))

    poisoned_loss = poisoned.outcomes[-1].global_loss
    secured_loss = secured.outcomes[-1].global_loss
    print(f"\nfinal loss: baseline-poisoned={poisoned_loss:.6f} "
          f"secured={secured_loss:.6f} margin={poisoned_loss - secured_loss:.6f}")
    assert all(o.verified_count == 10 for o in poisoned.outcomes)  # poison accepted
    assert all(o.verified_count == 9 for o in secured.outcomes)    # poison dropped
    assert poisoned_loss > secured_loss


# --- criterion 7: replay defense --------------------------------------------------------

def test_criterion_07_replay_defense():
    """Randomized 1000-message replay campaign: prior-round envelopes are
    re-delivered to both sides every round; all are rejected and the
    verified set only ever contains the current round's honest updates."""
    server, clients, *_ = desk_sim(SchemeId.DILITHIUM)
    rng = np.random.default_rng(derive_seed(MASTER, "c7"))
    captured_updates: list[tuple[int, bytes]] = []
    captured_dists: list[tuple[int, bytes]] = []
    replayed_total = 0
    stale_rejections = 0
    client_replay_rejections = 0

    import time as _time

    for rnd in range(server.cfg.num_rounds):
        wall_start = _time.perf_counter()
        spans = []
        dist_env = distribute_model(server, spans)
        dist_blob = codec.encode_envelope(dist_env)
        captured_dists.append((rnd, dist_blob))

        collected = []
        for client in clients:
            result = client_process_round(client, dist_blob)
            assert result.reply is not None
            spans += result.spans
            collected.append(result.reply)
        captured_updates.extend((rnd, blob) for blob in collected)

        injected = 0
        if rnd > 0:
            # server-side replays: prior-round updates and distributions
            prior_updates = [b for r, b in captured_updates if r < rnd]
            prior_dists = [b for r, b in captured_dists if r < rnd]
            for idx in rng.integers(0, len(prior_updates), size=100):
                collected.append(prior_updates[int(idx)])
                injected += 1
            for idx in rng.integers(0, len(prior_dists), size=6):
                collected.append(prior_dists[int(idx)])
                injected += 1
            # client-side replays: stale distributions must raise ReplayDetected
            for idx in rng.integers(0, len(prior_dists), size=6):
                client = clients[int(rng.integers(0, len(clients)))]
                with pytest.raises(ReplayDetected):
                    protocol.client_receive_model(
                        client, codec.decode_envelope(prior_dists[int(idx)])
                    )
                client_replay_rejections += 1
                injected += 1
        replayed_total += injected

        outcome = finish_round(server, collected, dist_env, spans, [], wall_start)
        assert outcome.verified_count == len(clients)  # honest updates only
        stale = [r for r in outcome.rejections if r.reason == RejectReason.STALE_ROUND]
        malformed = [r for r in outcome.rejections if r.reason == RejectReason.MALFORMED]
        stale_rejections += len(stale)
        if rnd > 0:
            assert len(stale) == 100      # every prior-round update rejected as stale
            assert len(malformed) == 6    # replayed distributions are not submissions
            assert len(outcome.rejections) == 106

    print(f"\nreplay campaign: {replayed_total} replayed messages, "
          f"{stale_rejections} stale-round rejections, "
          f"{client_replay_rejections} client-side ReplayDetected, 0 entered S")
    assert replayed_total >= 1000
    assert stale_rejections == 9 * 100
    assert client_replay_rejections == 9 * 6


# --- criterion 8: codec exactness --------------------------------------------------------

def test_criterion_08_codec_exactness():
    rng = np.random.default_rng(derive_seed(MASTER, "c8"))
    for _ in range(1000):
        rank = int(rng.integers(1, 4))
        shape = tuple(int(d) for d in rng.integers(1, 6, size=rank))
        count = int(np.prod(shape))
        values = rng.standard_normal(count).astype(np.float32)
        original = ParameterVector(values, shape)
        assert decode_params(encode_params(original)) == original

        payload = rng.bytes(int(rng.integers(0, 200)))
        header = codec.build_header(
            codec.MsgType(int(rng.integers(1, 4))),
            SchemeId(int(rng.integers(1, 5))),
            int(rng.integers(0, 2**32)),
            int(rng.integers(0, 2**32)),
            payload,
        )
        env = codec.SignedEnvelope(
            header=header, payload=payload,
            signature=SignatureBytes(header.scheme, rng.bytes(int(rng.integers(0, 64)))),
        )
        blob = codec.encode_envelope(env)
        assert codec.decode_envelope(blob) == env
        assert codec.encode_envelope(codec.decode_envelope(blob)) == blob

    assert encode_params(ParameterVector(np.array([1.0], dtype=np.float32), (1,))) == bytes.fromhex(
        "01000000" "0100000000000000" "0000803f"
    )


# --- criterion 9: gradient check -----------------------------------------------------------

def test_criterion_09_gradient_check():
    rng = np.random.default_rng(derive_seed(MASTER, "c9"))
    checked = 0
    for hidden in ((), (6,), (5, 4)):
        for _ in range(7):
            arch = fedcore.ModelArchitecture(5, hidden, 3)
            theta = rng.standard_normal(arch.param_count)
            x = rng.standard_normal((8, 5))
            y = rng.integers(0, 3, size=8)
            _, analytic = fedcore.loss_and_grad(arch, theta, x, y)
            h = 1e-6
            numeric = np.zeros_like(theta)
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (
                    fedcore.loss_value(arch, up, x, y) - fedcore.loss_value(arch, down, x, y)
                ) / (2 * h)
            assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-4
            checked += 1
    assert checked == 21


# --- criterion 10: transport equivalence -----------------------------------------------------

def test_criterion_10_transport_equivalence(tmp_path):
    server_a, clients_a, *_ = desk_sim(SchemeId.DILITHIUM)
    in_proc = run_training(server_a, clients_a)
    server_b, clients_b, *_ = desk_sim(SchemeId.DILITHIUM)
    over_tcp = run_training_tcp(server_b, clients_b)

    assert in_proc.model.params.values.tobytes() == over_tcp.model.params.values.tobytes()

    csv_path = tmp_path / "tcp.csv"
    records = [bench.round_metrics(SchemeId.DILITHIUM, o) for o in over_tcp.outcomes]
    bench.emit_round_csv(records, csv_path)
    parsed = bench.read_round_csv(csv_path)

    # every envelope carries the same parameter payload layout: the per-round
    # byte count is exactly (1 distribution + M updates) x payload size
    arch = server_b.model.architecture
    payload_len = 4 + 8 + 4 * arch.param_count
    expected = (server_b.cfg.num_clients + 1) * payload_len
    for record, outcome in zip(parsed, over_tcp.outcomes):
        assert record.payload_bytes == expected
        assert record.payload_bytes == outcome.payload_bytes
        assert record.signature_bytes == outcome.signature_bytes
        assert record.verified_count == 10
