"""Protocol state machines: key setup, signed distribution, verification
gates, replay defenses, and oracle equivalence of full runs."""

import hashlib
import time

import numpy as np
import pytest

from pqfl import codec, fedcore, protocol, sig
from pqfl.channel import AttackConfig, AttackKind, Channel, Direction
from pqfl.codec import HEADER_LEN, MsgType, ParameterVector, SignedEnvelope, build_header, signed_message
from pqfl.errors import ConnectionFailed, RoundMismatch, UnsupportedScheme
from pqfl.fedcore import TrainConfig, train_seed
from pqfl.protocol import (
    SERVER_ID,
    Phase,
    ProtocolOptions,
    Refused,
    RejectReason,
    RunSpec,
    build_run,
    client_process_round,
    client_receive_model,
    client_submit_update,
    distribute_model,
    finish_round,
    run_training,
    run_training_tcp,
    server_collect_and_verify,
    setup_keys,
)
from pqfl.sig import SchemeId

MASTER = 42


def build_sim(num_clients=4, num_rounds=3, scheme=SchemeId.TEST_SCHEME, options=ProtocolOptions(),
              master=MASTER, samples=160):
    cfg = TrainConfig(num_clients=num_clients, num_rounds=num_rounds, seed=master)
    return build_run(RunSpec(cfg, scheme, (16,), samples, 8, 3, options=options))


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
    server, clients = build_sim(num_clients=10)
    registry = server.registry
    assert len(registry) == 11
    assert all(scheme == SchemeId.TEST_SCHEME for scheme, _pk in registry.values())
    assert registry[0][1] == server.keypair.public_key
    for client in clients:
        assert registry[client.client_id][1] == client.keypair.public_key


def test_registry_is_read_only():
    server, _ = build_sim()
    registry = server.registry
    with pytest.raises(TypeError):
        registry[0] = (SchemeId.TEST_SCHEME, b"\x00" * 32)
    with pytest.raises(TypeError):
        registry[99] = (SchemeId.TEST_SCHEME, b"\x00" * 32)
    assert registry is server.registry and registry[0][1] == server.keypair.public_key


def test_setup_strict_mode_rejects_test_scheme():
    with pytest.raises(UnsupportedScheme):
        build_sim(options=ProtocolOptions(strict=True))


def test_setup_strict_mode_allows_pqc():
    server, _ = build_sim(scheme=SchemeId.DILITHIUM, options=ProtocolOptions(strict=True))
    assert server.keypair.scheme == SchemeId.DILITHIUM


def test_setup_shard_count_mismatch():
    cfg = TrainConfig(num_clients=3, num_rounds=1, seed=0)
    data = fedcore.generate_synthetic(30, 4, 2, 0)
    shards = fedcore.split_iid(data, 2, 0)
    model = fedcore.init_model(fedcore.ModelArchitecture(4, (), 2), 0)
    with pytest.raises(ValueError):
        setup_keys(cfg, SchemeId.TEST_SCHEME, 0, model, shards)


def test_setup_keys_deterministic_for_seedable_schemes():
    server_a, _ = build_sim(scheme=SchemeId.DILITHIUM)
    server_b, _ = build_sim(scheme=SchemeId.DILITHIUM)
    assert server_a.registry == server_b.registry


def test_derived_keys_differ_between_parameter_sets():
    # one seed and participant under every set: no two sets share key material,
    # neither an ML-DSA seed (the whole secret key) nor an SLH-DSA
    # SK.seed || SK.prf || PK.seed (the first 48 bytes of its secret key)
    keys = {scheme: protocol.derive_keypair(scheme, MASTER, 1).secret_key for scheme in SchemeId}
    assert len(set(keys.values())) == len(keys)
    mldsa = {keys[s] for s in (SchemeId.DILITHIUM, SchemeId.ML_DSA_65, SchemeId.ML_DSA_87)}
    slhdsa = {keys[s][:48] for s in (SchemeId.SPHINCS_PLUS, SchemeId.SLH_DSA_SHA2_128F)}
    assert (len(mldsa), len(slhdsa)) == (3, 2)


# --- model distribution -----------------------------------------------------------

def test_distribute_model_payload_and_signature():
    server, _ = build_sim()
    env = distribute_model(server)
    assert env.header.msg_type == MsgType.MODEL_DISTRIBUTION
    assert env.header.sender_id == 0
    assert env.header.round == 0
    assert codec.decode_params(env.payload) == server.model.params
    scheme, pk = server.registry[0]
    assert env.signed == env.header.encode() + hashlib.sha256(env.payload).digest()
    assert sig.verify(pk, scheme, signed_message(env.header, env.payload), env.signature)


def test_distribute_model_tamper_detected():
    server, _ = build_sim()
    env = distribute_model(server)
    tampered = bytearray(env.payload)
    tampered[20] ^= 0x01
    scheme, pk = server.registry[0]
    assert not sig.verify(pk, scheme, signed_message(env.header, bytes(tampered)), env.signature)


def test_client_receive_honest_model():
    server, clients = build_sim()
    env = distribute_model(server)
    model = client_receive_model(clients[0], env)
    assert model.params == server.model.params
    assert clients[0].last_accepted_round == 0


def broadcast(server, payload, round=0, keypair=None):
    """A model distribution of `payload` for `round`, signed with `keypair`,
    the server's by default."""
    keypair = keypair or server.keypair
    header = build_header(MsgType.MODEL_DISTRIBUTION, keypair.scheme, round, SERVER_ID, payload)
    signature = sig.sign(keypair, signed_message(header, payload))
    return SignedEnvelope(header=header, payload=payload, signature=signature)


def relabeled(env, msg_type, sender_id):
    header = build_header(msg_type, env.header.scheme, env.header.round, sender_id, env.payload)
    return SignedEnvelope(header=header, payload=env.payload, signature=env.signature)


def wrong_msg_type(server, clients):
    return relabeled(distribute_model(server), MsgType.UPDATE_SUBMISSION, SERVER_ID)


def foreign_sender(server, clients):
    return relabeled(distribute_model(server), MsgType.MODEL_DISTRIBUTION, 3)


def replayed(server, clients):
    env = distribute_model(server)
    client_receive_model(clients[0], env)
    return env


def signed_by_client_key(server, clients):
    return broadcast(server, codec.encode_params(server.model.params), keypair=clients[1].keypair)


def reshaped(server, clients):
    params = server.model.params
    return broadcast(server, codec.encode_params(ParameterVector(params.values, (params.size, 1))))


@pytest.mark.parametrize("forge, reason, sender_id", [
    (wrong_msg_type, RejectReason.MALFORMED, SERVER_ID),
    (foreign_sender, RejectReason.UNKNOWN_SENDER, 3),
    (replayed, RejectReason.STALE_ROUND, SERVER_ID),
    (signed_by_client_key, RejectReason.SIGNATURE_INVALID, SERVER_ID),
    (reshaped, RejectReason.MALFORMED, SERVER_ID),
], ids=["wrong-msg-type", "foreign-sender", "replayed", "signed-by-client-key", "reshaped"])
def test_client_refuses_broadcast(forge, reason, sender_id):
    server, clients = build_sim()
    env = forge(server, clients)
    watermark = clients[0].last_accepted_round
    with pytest.raises(Refused) as refused:
        client_receive_model(clients[0], env)
    rejection = refused.value.rejection
    assert (rejection.sender_id, rejection.reason) == (sender_id, reason)
    assert clients[0].last_accepted_round == watermark


def test_client_admits_a_broadcast_signed_with_the_servers_key():
    # the control for the forgeries above: each is refused for what it changes
    server, clients = build_sim()
    model = client_receive_model(clients[0], broadcast(server, codec.encode_params(server.model.params)))
    assert model.params == server.model.params and clients[0].last_accepted_round == 0


# header offsets of the u32 round and u32 sender_id fields
ROUND_AT, SENDER_AT = 7, 11


def flip_bit(env, offset, bit):
    raw = bytearray(codec.encode_envelope(env))
    raw[offset] ^= 1 << bit
    return bytes(raw)


# Each flip leaves a header that passes every check before the signature: an
# upload signed for round 1 becomes round 0, the server's; a broadcast's round
# 0 becomes 1, in a fresh client's window; sender 1 becomes 3, a registered
# client. A broadcast's sender has no flip that a client admits: only the
# server's key is registered there.
@pytest.mark.parametrize("direction, signed_round, offset, bit", [
    ("upload", 0, HEADER_LEN + 40, 0),
    ("upload", 1, ROUND_AT, 0),
    ("upload", 0, SENDER_AT, 1),
    ("broadcast", 0, HEADER_LEN + 40, 0),
    ("broadcast", 0, ROUND_AT, 0),
], ids=["upload-payload", "upload-round", "upload-sender", "broadcast-payload", "broadcast-round"])
def test_one_bit_flip_is_refused_as_signature_invalid(direction, signed_round, offset, bit):
    server, clients = build_sim()
    if direction == "upload":
        env = protocol._sign_envelope(
            clients[0].keypair, MsgType.UPDATE_SUBMISSION, signed_round, 1, server.model.params, []
        )
        verified, rejections, _, _ = server_collect_and_verify(server, [flip_bit(env, offset, bit)])
        assert verified == []
        (rejection,) = rejections
    else:
        env = broadcast(server, codec.encode_params(server.model.params), round=signed_round)
        result = client_process_round(clients[0], flip_bit(env, offset, bit))
        assert result.reply is None
        rejection = result.skipped
    assert rejection.reason == RejectReason.SIGNATURE_INVALID


def test_badly_signed_last_round_broadcast_does_not_lock_the_client_out():
    server, clients = build_sim()
    payload = codec.encode_params(server.model.params)
    forged = broadcast(server, payload, round=2**32 - 1, keypair=clients[1].keypair)
    with pytest.raises(Refused) as refused:
        client_receive_model(clients[0], forged)
    assert refused.value.rejection.reason == RejectReason.SIGNATURE_INVALID
    model = client_receive_model(clients[0], distribute_model(server))
    assert model.round == 0 and clients[0].last_accepted_round == 0


def test_client_receive_skips_verification_in_baseline_mode():
    options = ProtocolOptions(verify_models=False, verify_updates=False)
    server, clients = build_sim(options=options)
    env = distribute_model(server)
    resigned = sig.sign(clients[1].keypair, signed_message(env.header, env.payload))
    forged = SignedEnvelope(header=env.header, payload=env.payload, signature=resigned)
    model = client_receive_model(clients[0], forged)  # accepted: nothing checked
    assert model.params == server.model.params


# --- update submission and server verification ---------------------------------------

def test_honest_submission_enters_verified_set():
    server, clients = build_sim()
    blob, update = honest_update(clients[0], server)
    verified, rejections, _, _ = server_collect_and_verify(server, [blob])
    assert rejections == []
    assert len(verified) == 1
    assert verified[0].client_id == clients[0].client_id
    assert verified[0].delta == update.delta


def test_submission_round_must_match_current():
    server, clients = build_sim()
    env = distribute_model(server)
    model = client_receive_model(clients[0], env)
    update = fedcore.local_train(
        model, clients[0].dataset, clients[0].cfg, 1, clients[0].client_id
    )
    stale = fedcore.ModelUpdate(delta=update.delta, client_id=update.client_id, round=7)
    with pytest.raises(RoundMismatch):
        client_submit_update(clients[0], stale)


def test_all_honest_clients_verify():
    server, clients = build_sim(num_clients=10, samples=400)
    blobs = [honest_update(c, server)[0] for c in clients]
    verified, rejections, _, _ = server_collect_and_verify(server, blobs)
    assert len(verified) == 10 and rejections == []


def test_bit_flipped_submissions_rejected():
    server, clients = build_sim(num_clients=10, samples=400)
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
    server, clients = build_sim()
    blob, _ = honest_update(clients[0], server)
    verified, rejections, _, _ = server_collect_and_verify(server, [blob, blob])
    assert len(verified) == 1
    assert [r.reason for r in rejections] == [RejectReason.DUPLICATE]


def test_forged_sender_id_rejected():
    server, clients = build_sim()
    env = distribute_model(server)
    model = client_receive_model(clients[0], env)
    update = fedcore.local_train(
        model, clients[0].dataset, clients[0].cfg, 1, clients[0].client_id
    )
    payload = codec.encode_params(update.delta)
    # client 1 signs an envelope claiming to be client 2
    header = build_header(MsgType.UPDATE_SUBMISSION, clients[0].scheme, 0, 2, payload)
    signature = sig.sign(clients[0].keypair, signed_message(header, payload))
    blob = codec.encode_envelope(SignedEnvelope(header=header, payload=payload, signature=signature))
    verified, rejections, _, _ = server_collect_and_verify(server, [blob])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.SIGNATURE_INVALID]
    assert rejections[0].sender_id == 2


def test_upload_naming_another_scheme_is_refused_before_its_digest(monkeypatch):
    # the digest depends on the header's scheme, whose backend the receiver
    # may not have; the registered scheme is checked first
    server, clients = build_sim()
    keypair = sig.keygen(SchemeId.DILITHIUM, 1)
    wrong = protocol._sign_envelope(keypair, MsgType.UPDATE_SUBMISSION, 0, 1, server.model.params, [])
    honest, _ = honest_update(clients[1], server)
    digested = []
    digest = codec.signed_message
    monkeypatch.setattr(codec, "signed_message", lambda header, payload: (
        digested.append((header.sender_id, header.scheme)), digest(header, payload))[1])
    verified, rejections, _, _ = server_collect_and_verify(
        server, [codec.encode_envelope(wrong), honest]
    )
    assert [u.client_id for u in verified] == [2]
    assert [(r.sender_id, r.reason) for r in rejections] == [(1, RejectReason.SIGNATURE_INVALID)]
    assert digested == [(2, SchemeId.TEST_SCHEME)]


def test_unknown_sender_rejected():
    server, clients = build_sim()
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
    server, clients = build_sim(num_rounds=3)
    blob, _ = honest_update(clients[0], server)
    run_training(server, clients)  # advances server to round 3
    verified, rejections, _, _ = server_collect_and_verify(server, [blob])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.STALE_ROUND]


def test_reshaped_upload_rejected_and_the_round_goes_on():
    # the right element count in another shape must not reach aggregation
    server, clients = build_sim(num_clients=2)
    start = server.model
    _, update_1 = honest_update(clients[0], server)
    blob_2, update_2 = honest_update(clients[1], server)
    delta = update_1.delta
    reshaped = fedcore.ModelUpdate(ParameterVector(delta.values, (delta.size, 1)), 1, 0)
    blob_1 = codec.encode_envelope(client_submit_update(clients[0], reshaped))
    outcome = finish_round(
        server, [blob_1, blob_2], distribute_model(server), [], [], time.perf_counter()
    )
    assert [(r.sender_id, r.reason) for r in outcome.rejections] == [(1, RejectReason.MALFORMED)]
    assert outcome.verified_count == 1
    assert server.model.round == 1
    assert server.model.params == fedcore.aggregate(start, [update_2]).params


def test_client_sits_out_a_reshaped_broadcast():
    server, clients = build_sim()
    result = client_process_round(clients[0], codec.encode_envelope(reshaped(server, clients)))
    assert result.reply is None
    assert result.skipped.reason == RejectReason.MALFORMED
    assert "shape" in result.skipped.detail


def test_garbage_bytes_rejected_as_malformed():
    server, _ = build_sim()
    verified, rejections, _, _ = server_collect_and_verify(server, [b"not an envelope"])
    assert verified == []
    assert [r.reason for r in rejections] == [RejectReason.MALFORMED]
    assert rejections[0].sender_id is None


def announce_blob(client, sender_id, key):
    """A key announce claiming `sender_id` and `key`, signed with `client`'s secret key."""
    env = protocol._sign_envelope(client.keypair, MsgType.PUBLIC_KEY_ANNOUNCE, 0, sender_id, key, [])
    return codec.encode_envelope(env)


# client 1 signs an announce claiming `sender_id` and client `key_of`'s public key
@pytest.mark.parametrize("sender_id, key_of, connected, reason", [
    (None, None, (), RejectReason.MALFORMED),
    (1, 2, (), RejectReason.UNKNOWN_SENDER),
    (99, 1, (), RejectReason.UNKNOWN_SENDER),
    (2, 2, (), RejectReason.SIGNATURE_INVALID),
    (1, 1, (1,), RejectReason.DUPLICATE),
], ids=["garbage", "key-not-registered", "unknown-id", "signed-by-another-client", "second"])
def test_refused_announce_fails_with_its_rejection(sender_id, key_of, connected, reason):
    server, clients = build_sim()
    honest = announce_blob(clients[0], 1, clients[0].keypair.public_key)
    assert protocol._check_announce(server, honest, ()) == 1
    blob = (b"not an envelope" if sender_id is None
            else announce_blob(clients[0], sender_id, clients[key_of - 1].keypair.public_key))
    with pytest.raises(ConnectionFailed) as failed:
        protocol._check_announce(server, blob, connected)
    rejection = failed.value.__cause__.rejection
    assert (rejection.sender_id, rejection.reason) == (sender_id, reason)


def test_non_finite_payload_rejected_in_baseline_mode():
    # with signatures off, the codec's finite check is the last gate
    options = ProtocolOptions(verify_updates=False, verify_models=False)
    server, clients = build_sim(options=options)
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
    server, clients = build_sim(num_rounds=5)
    result = run_training(server, clients)
    assert len(result.outcomes) == 5
    assert [o.round for o in result.outcomes] == list(range(5))
    for outcome in result.outcomes:
        assert outcome.verified_count == len(clients)
        assert outcome.updates_received == outcome.verified_count + len(outcome.rejections)
        assert outcome.rejections == []


def test_unsecured_oracle_equivalence():
    server, clients = build_sim(num_clients=6, num_rounds=4)
    model, shards = server.model, [(c.client_id, c.dataset) for c in clients]
    result = run_training(server, clients)
    oracle = fedcore.run_plain_fedavg(model, shards, server.cfg, eval_data=server.eval_data)
    assert result.model.params == oracle.model.params
    assert result.outcomes[-1].global_loss == pytest.approx(oracle.losses[-1])


def test_scheme_choice_does_not_change_parameters():
    final = {}
    for scheme in (SchemeId.TEST_SCHEME, SchemeId.DILITHIUM):
        server, clients = build_sim(scheme=scheme)
        final[scheme] = run_training(server, clients).model.params
    assert final[SchemeId.TEST_SCHEME] == final[SchemeId.DILITHIUM]


def test_attacked_client_excluded_every_round_matches_oracle():
    server, clients = build_sim(num_clients=5, num_rounds=4)
    model, shards = server.model, [(c.client_id, c.dataset) for c in clients]
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

    oracle = fedcore.run_plain_fedavg(model, shards[1:], server.cfg)
    assert result.model.params == oracle.model.params


def test_empty_verified_set_skips_round():
    server, clients = build_sim(num_rounds=2)
    model = server.model
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
    server, clients = build_sim(num_clients=3, num_rounds=2)
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


def test_client_process_round_sits_out_on_malformed_blob():
    _, clients = build_sim()
    result = client_process_round(clients[0], b"\x00" * 40)
    assert result.reply is None
    assert (result.skipped.sender_id, result.skipped.reason) == (None, RejectReason.MALFORMED)
    # the failed decode is timed like a successful one
    assert [(p, phase) for p, phase, *_ in result.spans] == [(clients[0].client_id, Phase.SERIALIZE)]


def test_soundness_under_randomized_bitflip_campaign():
    """Over >=1000 update envelopes with coin-flip tampering, rejections
    match the channel's tamper count exactly: every flipped envelope is
    rejected and every honest one is verified."""
    total_envelopes = 0
    for seed in range(5):
        server, clients = build_sim(
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
    server, clients = build_sim(scheme=SchemeId.DILITHIUM, num_rounds=1)
    result = run_training(server, clients)
    t = result.outcomes[0].timings
    assert t.wall_s > 0
    assert t.sign_s > 0 and t.verify_s > 0
    assert t.train_s > 0 and t.serialize_s > 0
    # sign_s adds up parties that sign at once, so the bound holds per party,
    # whose own spans are sequential
    spans = result.outcomes[0].spans
    timed = spans[np.isin(spans["phase"], [Phase.SIGN, Phase.VERIFY])]
    for party in set(timed["party"].tolist()):
        assert timed["duration"][timed["party"] == party].sum() <= t.wall_s


def assert_sequential(spans, slack=1e-9):
    """No two spans overlap; `slack` absorbs start + duration rounding past
    the next span's start when the two share a perf_counter reading."""
    ordered = np.sort(spans, order="start")
    ends = ordered["start"] + ordered["duration"]
    assert np.all(ordered["start"][1:] >= ends[:-1] - slack)


def test_phase_timings_are_sums_of_round_spans():
    server, clients = build_sim(scheme=SchemeId.DILITHIUM, num_rounds=2)
    result = run_training(server, clients)
    for outcome in result.outcomes:
        spans, t = outcome.spans, outcome.timings
        for phase in Phase:
            durations = spans["duration"][spans["phase"] == phase].tolist()
            assert getattr(t, f"{phase.name.lower()}_s") == sum(durations)
        # clients may run at once, on the pool's threads, but each party's
        # own spans are sequential, and the server's are its critical path
        for party in set(spans["party"].tolist()):
            assert_sequential(spans[spans["party"] == party])
        assert spans["duration"][spans["party"] == SERVER_ID].sum() <= t.wall_s
        trained = spans["party"][spans["phase"] == Phase.TRAIN]
        assert sorted(trained.tolist()) == [c.client_id for c in clients]


def test_tcp_spans_separate_server_from_concurrent_clients():
    server, clients = build_sim(scheme=SchemeId.DILITHIUM, num_rounds=2)
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
