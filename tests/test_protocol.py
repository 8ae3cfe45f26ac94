"""Protocol state machines: key setup, signed distribution, verification
gates, replay defenses, and oracle equivalence of full runs."""

import numpy as np
import pytest

from pqfl import codec, fedcore, sig
from pqfl.channel import AttackConfig, AttackKind, Channel, Direction
from pqfl.codec import MsgType, SignedEnvelope, build_header, signed_bytes
from pqfl.errors import (
    MalformedEnvelope,
    ReplayDetected,
    SignatureInvalid,
    UnsupportedScheme,
    WrongSender,
)
from pqfl.fedcore import TrainConfig, derive_seed, train_seed
from pqfl.protocol import (
    SERVER_ID,
    Phase,
    ProtocolOptions,
    RejectReason,
    client_process_round,
    client_receive_model,
    client_submit_update,
    distribute_model,
    run_training,
    run_training_tcp,
    server_collect_and_verify,
    setup_keys,
)
from pqfl.sig import SchemeId

MASTER = 42


def build_sim(
    num_clients=4,
    num_rounds=3,
    scheme=SchemeId.TEST_SCHEME,
    options=None,
    master=MASTER,
    samples=160,
):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=master)
    data = fedcore.generate_synthetic(samples, 8, 3, derive_seed(master, "data"))
    shards = fedcore.split_iid(data, num_clients, derive_seed(master, "split"))
    arch = fedcore.ModelArchitecture(8, (16,), 3)
    model = fedcore.init_model(arch, derive_seed(master, "init"))
    server, clients, registry = setup_keys(
        cfg, scheme, master, model, shards, options, eval_data=data
    )
    return server, clients, registry, model, shards, data, cfg


def honest_update(client, server):
    env = distribute_model(server)
    model = client_receive_model(client, env)
    update = fedcore.local_train(
        model, client.dataset, client.cfg,
        train_seed(client.cfg.seed, model.round, client.client_id), client.client_id,
    )
    return codec.encode_envelope(client_submit_update(client, update)), update


# --- setup ---------------------------------------------------------------------

def test_setup_registry_counts_and_schemes():
    server, clients, registry, *_ = build_sim(num_clients=10)
    assert len(registry) == 11
    assert all(scheme == SchemeId.TEST_SCHEME for scheme, _pk in registry.entries.values())
    assert registry.public_key(0)[1] == server.keypair.public_key
    for client in clients:
        assert registry.public_key(client.client_id)[1] == client.keypair.public_key


def test_setup_strict_mode_rejects_test_scheme():
    with pytest.raises(UnsupportedScheme):
        build_sim(options=ProtocolOptions(strict=True))


def test_setup_strict_mode_allows_pqc():
    server, *_ = build_sim(scheme=SchemeId.DILITHIUM, options=ProtocolOptions(strict=True))
    assert server.keypair.scheme == SchemeId.DILITHIUM


def test_setup_shard_count_mismatch():
    cfg = TrainConfig(num_clients=3, num_rounds=1, seed=0)
    data = fedcore.generate_synthetic(30, 4, 2, 0)
    shards = fedcore.split_iid(data, 2, 0)
    model = fedcore.init_model(fedcore.ModelArchitecture(4, (), 2), 0)
    with pytest.raises(ValueError):
        setup_keys(cfg, SchemeId.TEST_SCHEME, 0, model, shards)


def test_setup_keys_deterministic_for_seedable_schemes():
    _, _, reg_a, *_ = build_sim(scheme=SchemeId.DILITHIUM)
    _, _, reg_b, *_ = build_sim(scheme=SchemeId.DILITHIUM)
    assert reg_a.entries == reg_b.entries


# --- model distribution -----------------------------------------------------------

def test_distribute_model_payload_and_signature():
    server, _, registry, model, *_ = build_sim()
    env = distribute_model(server)
    assert env.header.msg_type == MsgType.MODEL_DISTRIBUTION
    assert env.header.sender_id == 0
    assert env.header.round == 0
    assert codec.decode_params(env.payload) == model.params
    scheme, pk = registry.public_key(0)
    assert sig.verify(pk, scheme, signed_bytes(env.header, env.payload), env.signature)


def test_distribute_model_tamper_detected():
    server, _, registry, *_ = build_sim()
    env = distribute_model(server)
    tampered = bytearray(env.payload)
    tampered[20] ^= 0x01
    scheme, pk = registry.public_key(0)
    assert not sig.verify(pk, scheme, signed_bytes(env.header, bytes(tampered)), env.signature)


def test_client_receive_honest_model():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    model = client_receive_model(clients[0], env)
    assert model.params == server.model.params
    assert clients[0].last_accepted_round == 0


def test_client_receive_replay_rejected():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    client_receive_model(clients[0], env)
    with pytest.raises(ReplayDetected):
        client_receive_model(clients[0], env)


def test_client_receive_wrong_sender():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    forged_header = build_header(MsgType.MODEL_DISTRIBUTION, env.header.scheme, 0, 3, env.payload)
    forged = SignedEnvelope(header=forged_header, payload=env.payload, signature=env.signature)
    with pytest.raises(WrongSender):
        client_receive_model(clients[0], forged)


def test_client_receive_wrong_msg_type():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    relabeled_header = build_header(MsgType.UPDATE_SUBMISSION, env.header.scheme, 0, 0, env.payload)
    relabeled = SignedEnvelope(header=relabeled_header, payload=env.payload, signature=env.signature)
    with pytest.raises(MalformedEnvelope):
        client_receive_model(clients[0], relabeled)


def test_client_rejects_model_signed_by_client_key():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    imposter = clients[1]
    resigned = sig.sign(imposter.keypair, signed_bytes(env.header, env.payload))
    forged = SignedEnvelope(header=env.header, payload=env.payload, signature=resigned)
    with pytest.raises(SignatureInvalid):
        client_receive_model(clients[0], forged)


def test_client_receive_skips_verification_in_baseline_mode():
    options = ProtocolOptions(verify_models=False, verify_updates=False)
    server, clients, *_ = build_sim(options=options)
    env = distribute_model(server)
    resigned = sig.sign(clients[1].keypair, signed_bytes(env.header, env.payload))
    forged = SignedEnvelope(header=env.header, payload=env.payload, signature=resigned)
    model = client_receive_model(clients[0], forged)  # accepted: nothing checked
    assert model.params == server.model.params


# --- update submission and server verification ---------------------------------------

def test_honest_submission_enters_verified_set():
    server, clients, *_ = build_sim()
    blob, update = honest_update(clients[0], server)
    verified, rejections, _, _ = server_collect_and_verify(server, [blob])
    assert rejections == []
    assert len(verified) == 1
    assert verified[0].client_id == clients[0].client_id
    assert verified[0].delta == update.delta


def test_submission_round_must_match_current():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    model = client_receive_model(clients[0], env)
    update = fedcore.local_train(
        model, clients[0].dataset, clients[0].cfg, 1, clients[0].client_id
    )
    stale = fedcore.ModelUpdate(delta=update.delta, client_id=update.client_id, round=7)
    with pytest.raises(ReplayDetected):
        client_submit_update(clients[0], stale)


def test_all_honest_clients_verify():
    server, clients, *_ = build_sim(num_clients=10, samples=400)
    blobs = [honest_update(c, server)[0] for c in clients]
    verified, rejections, _, _ = server_collect_and_verify(server, blobs)
    assert len(verified) == 10 and rejections == []


def test_bit_flipped_submissions_rejected():
    server, clients, *_ = build_sim(num_clients=10, samples=400)
    blobs = [honest_update(c, server)[0] for c in clients]
    for i in (1, 4, 7):  # flip one payload byte in three envelopes
        raw = bytearray(blobs[i])
        raw[40] ^= 0x20
        blobs[i] = bytes(raw)
    verified, rejections, _, _ = server_collect_and_verify(server, blobs)
    assert len(verified) == 7
    assert len(rejections) == 3
    assert all(r.reason in (RejectReason.SIGNATURE_INVALID, RejectReason.MALFORMED) for r in rejections)


def test_duplicate_submission_first_valid_wins():
    server, clients, *_ = build_sim()
    blob, _ = honest_update(clients[0], server)
    verified, rejections, _, _ = server_collect_and_verify(server, [blob, blob])
    assert len(verified) == 1
    assert [r.reason for r in rejections] == [RejectReason.DUPLICATE]


def test_forged_sender_id_rejected():
    server, clients, *_ = build_sim()
    env = distribute_model(server)
    model = client_receive_model(clients[0], env)
    update = fedcore.local_train(
        model, clients[0].dataset, clients[0].cfg, 1, clients[0].client_id
    )
    payload = codec.encode_params(update.delta)
    # client 1 signs an envelope claiming to be client 2
    header = build_header(MsgType.UPDATE_SUBMISSION, clients[0].scheme, 0, 2, payload)
    signature = sig.sign(clients[0].keypair, signed_bytes(header, payload))
    blob = codec.encode_envelope(SignedEnvelope(header=header, payload=payload, signature=signature))
    verified, rejections, _, _ = server_collect_and_verify(server, [blob])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.SIGNATURE_INVALID]
    assert rejections[0].sender_id == 2


def test_unknown_sender_rejected():
    server, clients, *_ = build_sim()
    blob, _ = honest_update(clients[0], server)
    env = codec.decode_envelope(blob)
    header = build_header(MsgType.UPDATE_SUBMISSION, env.header.scheme, 0, 99, env.payload)
    forged = codec.encode_envelope(
        SignedEnvelope(header=header, payload=env.payload, signature=env.signature)
    )
    verified, rejections, _, _ = server_collect_and_verify(server, [forged])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.UNKNOWN_SENDER]


def test_stale_round_rejected():
    server, clients, *_ = build_sim(num_rounds=3)
    blob, _ = honest_update(clients[0], server)
    run_training(server, clients)  # advances server to round 3
    verified, rejections, _, _ = server_collect_and_verify(server, [blob])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.STALE_ROUND]


def test_garbage_bytes_rejected_as_malformed():
    server, *_ = build_sim()
    verified, rejections, _, _ = server_collect_and_verify(server, [b"not an envelope"])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.MALFORMED]
    assert rejections[0].sender_id is None


def test_non_finite_payload_rejected_in_baseline_mode():
    # with signatures off, the codec's finite check is the last gate
    options = ProtocolOptions(verify_updates=False, verify_models=False)
    server, clients, *_ = build_sim(options=options)
    blob, _ = honest_update(clients[0], server)
    env = codec.decode_envelope(blob)
    poisoned_payload = bytearray(env.payload)
    poisoned_payload[12:16] = bytes.fromhex("0000c07f")  # NaN in the first value
    header = codec.build_header(MsgType.UPDATE_SUBMISSION, env.header.scheme, 0,
                                env.header.sender_id, bytes(poisoned_payload))
    forged = codec.encode_envelope(
        SignedEnvelope(header=header, payload=bytes(poisoned_payload), signature=env.signature)
    )
    verified, rejections, _, _ = server_collect_and_verify(server, [forged])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.NON_FINITE]


# --- full rounds -------------------------------------------------------------------

def test_run_training_produces_one_outcome_per_round():
    server, clients, *_ = build_sim(num_rounds=5)
    result = run_training(server, clients)
    assert len(result.outcomes) == 5
    assert [o.round for o in result.outcomes] == list(range(5))
    for outcome in result.outcomes:
        assert outcome.verified_count == len(clients)
        assert outcome.updates_received == outcome.verified_count + len(outcome.rejections)
        assert outcome.rejections == []


def test_unsecured_oracle_equivalence():
    server, clients, _, model, shards, data, cfg = build_sim(num_clients=6, num_rounds=4)
    result = run_training(server, clients)
    oracle = fedcore.run_plain_fedavg(model, list(enumerate(shards, start=1)), cfg, eval_data=data)
    assert result.model.params == oracle.model.params
    assert result.outcomes[-1].global_loss == pytest.approx(oracle.losses[-1])


def test_scheme_choice_does_not_change_parameters():
    final = {}
    for scheme in (SchemeId.TEST_SCHEME, SchemeId.DILITHIUM):
        server, clients, *_ = build_sim(scheme=scheme)
        final[scheme] = run_training(server, clients).model.params
    assert final[SchemeId.TEST_SCHEME] == final[SchemeId.DILITHIUM]


def test_attacked_client_excluded_every_round_matches_oracle():
    server, clients, _, model, shards, _, cfg = build_sim(num_clients=5, num_rounds=4)
    attack = AttackConfig(
        kind=AttackKind.BITFLIP,
        target_client=1,
        direction=Direction.CLIENT_TO_SERVER,
        probability=1.0,
        seed=3,
    )
    result = run_training(server, clients, Channel(attack))
    for outcome in result.outcomes:
        assert outcome.verified_count == 4
        assert len(outcome.rejections) == 1

    honest_rest = list(enumerate(shards, start=1))[1:]
    oracle = fedcore.run_plain_fedavg(model, honest_rest, cfg)
    assert result.model.params == oracle.model.params


def test_empty_verified_set_skips_round():
    server, clients, _, model, *_ = build_sim(num_rounds=2)
    attack = AttackConfig(
        kind=AttackKind.BITFLIP, direction=Direction.CLIENT_TO_SERVER, probability=1.0, seed=1
    )
    result = run_training(server, clients, Channel(attack))
    assert result.model.params == model.params  # nothing aggregated
    assert result.model.round == 2  # rounds still advance
    for outcome in result.outcomes:
        assert outcome.verified_count == 0
        assert outcome.updates_received == len(outcome.rejections)


def test_client_sits_out_when_distribution_tampered():
    server, clients, *_ = build_sim(num_clients=3, num_rounds=2)
    attack = AttackConfig(
        kind=AttackKind.BITFLIP,
        target_client=2,
        direction=Direction.SERVER_TO_CLIENT,
        probability=1.0,
        seed=5,
    )
    result = run_training(server, clients, Channel(attack))
    for outcome in result.outcomes:
        assert outcome.skipped_clients == [2]
        assert outcome.verified_count == 2


def test_round_binding_flag_demonstrates_replay_hole():
    """With freshness checks disabled, a validly signed round-0 update is
    accepted again at round 2: the vulnerability the binding closes."""
    server, clients, *_ = build_sim(num_rounds=2)
    captured, _ = honest_update(clients[0], server)
    run_training(server, clients)
    assert server.model.round == 2

    verified, rejections, _, _ = server_collect_and_verify(server, [captured])
    assert verified == [] and rejections[0].reason == RejectReason.STALE_ROUND

    server.options = ProtocolOptions(enforce_round_binding=False)
    verified, rejections, _, _ = server_collect_and_verify(server, [captured])
    assert len(verified) == 1 and rejections == []  # replay accepted: demonstrated hole


def test_client_process_round_sits_out_on_malformed_blob():
    _, clients, *_ = build_sim()
    result = client_process_round(clients[0], b"\x00" * 40)
    assert result.reply is None
    assert result.skipped is not None


def test_soundness_under_randomized_bitflip_campaign():
    """Over >=1000 update envelopes with coin-flip tampering, rejections
    match the channel's tamper count exactly: every flipped envelope is
    rejected and every honest one is verified."""
    total_envelopes = 0
    for seed in range(5):
        server, clients, *_ = build_sim(
            num_clients=10, num_rounds=20, master=100 + seed, samples=400
        )
        attack = AttackConfig(
            kind=AttackKind.BITFLIP,
            direction=Direction.CLIENT_TO_SERVER,
            probability=0.5,
            seed=seed,
        )
        chan = Channel(attack)
        result = run_training(server, clients, chan)
        rejected = sum(len(o.rejections) for o in result.outcomes)
        verified = sum(o.verified_count for o in result.outcomes)
        assert rejected == chan.stats.tampered
        assert verified + rejected == 10 * 20
        total_envelopes += 10 * 20
    assert total_envelopes >= 1000


def test_outcome_timings_populated():
    server, clients, *_ = build_sim(scheme=SchemeId.DILITHIUM, num_rounds=1)
    result = run_training(server, clients)
    t = result.outcomes[0].timings
    assert t.wall_s > 0
    assert t.sign_s > 0 and t.verify_s > 0
    assert t.train_s > 0 and t.serialize_s > 0
    assert t.wall_s >= max(t.sign_s, t.verify_s)


def assert_sequential(spans, slack=1e-9):
    """No two spans overlap; `slack` absorbs start + duration rounding past
    the next span's start when the two share a perf_counter reading."""
    ordered = np.sort(spans, order="start")
    ends = ordered["start"] + ordered["duration"]
    assert np.all(ordered["start"][1:] >= ends[:-1] - slack)


def test_phase_timings_are_sums_of_round_spans():
    server, clients, *_ = build_sim(scheme=SchemeId.DILITHIUM, num_rounds=2)
    result = run_training(server, clients)
    for outcome in result.outcomes:
        spans, t = outcome.spans, outcome.timings
        for phase in Phase:
            durations = spans["duration"][spans["phase"] == phase].tolist()
            assert getattr(t, f"{phase.name.lower()}_s") == sum(durations)
        assert_sequential(spans)  # in process, every party runs on one thread
        assert spans["duration"].sum() <= t.wall_s
        trained = spans["party"][spans["phase"] == Phase.TRAIN]
        assert sorted(trained.tolist()) == [c.client_id for c in clients]


def test_tcp_spans_separate_server_from_concurrent_clients():
    server, clients, *_ = build_sim(scheme=SchemeId.DILITHIUM, num_rounds=2)
    result = run_training_tcp(server, clients)
    ids = [c.client_id for c in clients]
    for outcome in result.outcomes:
        spans = outcome.spans
        own = spans[spans["party"] == SERVER_ID]
        assert len(own) == 4 + 3 * len(clients)  # broadcast, then 3 per upload
        assert own["duration"].sum() <= outcome.timings.wall_s
        for cid in ids:
            # a client's spans come from its own thread: 8 in a row, one train
            mine = spans[spans["party"] == cid]
            assert len(mine) == 8
            assert np.count_nonzero(mine["phase"] == Phase.TRAIN) == 1
            assert_sequential(mine)
        assert set(spans["party"].tolist()) == {SERVER_ID, *ids}
