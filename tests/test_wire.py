"""The one-buffer wire path: sealed envelopes keep the canonical bytes,
decoded values never alias writable memory, and no layer copies a payload.

The allocation guards run at the 784-256-5 MLP's size (202,245 parameters,
an 808,992-byte payload), where one stray copy of a payload dwarfs everything
else a message allocates.
"""

import dataclasses
import hashlib
import socket
import threading
import weakref

import numpy as np
import pytest

from pqfl import channel, codec, fedcore, protocol, sig
from pqfl.channel import Direction, FrameSocket
from pqfl.codec import HEADER_LEN, MsgType, ParameterVector, SignedEnvelope
from pqfl.fedcore import ModelArchitecture, ModelUpdate, TrainConfig
from pqfl.sig import SchemeId

from conftest import LARGE, traced_peak
SMALL = ModelArchitecture(20, (32,), 5)


def parties(scheme: SchemeId, arch: ModelArchitecture):
    """A server at round 0 and client 1, which has accepted round 0, plus an
    update for the client to submit."""
    server_kp, client_kp = sig.keygen(scheme, 1), sig.keygen(scheme, 2)
    cfg = TrainConfig(num_clients=1, num_rounds=1)
    data = fedcore.generate_synthetic(8, arch.input_dim, arch.num_classes, 0)
    registry = protocol.KeyRegistry({0: (scheme, server_kp.public_key), 1: (scheme, client_kp.public_key)})
    server = protocol.ServerState(fedcore.init_model(arch, 0), server_kp, registry, cfg)
    client = protocol.ClientState(
        1, client_kp, server_kp.public_key, scheme, arch, data, cfg, last_accepted_round=0
    )
    values = np.random.default_rng(7).standard_normal(arch.param_count).astype(np.float32)
    update = ModelUpdate(ParameterVector(values, (values.size,)), client_id=1, round=0)
    return server, client, update


def reference_envelope(update: ModelUpdate, signature: sig.SignatureBytes) -> bytes:
    """The envelope assembled from separately encoded parts."""
    payload = codec.encode_params(update.delta)
    header = codec.build_header(MsgType.UPDATE_SUBMISSION, signature.scheme, 0, 1, payload)
    return codec.encode_envelope(SignedEnvelope(header=header, payload=payload, signature=signature))


# --- sealing keeps the canonical bytes ----------------------------------------------

# the version 2 message a signature covers: the header, version byte 2, then
# the payload's digest under each default parameter set
SIGNED_DIGEST = {
    SchemeId.DILITHIUM: ("sha256", 55),  # ML-DSA-44
    SchemeId.FALCON: ("sha512", 87),  # Falcon-1024
    SchemeId.SPHINCS_PLUS: ("sha256", 55),  # SLH-DSA-SHA2-128s
    SchemeId.TEST_SCHEME: ("sha256", 55),
}


def reference_message(header: codec.MessageHeader, payload: bytes) -> bytes:
    digest, length = SIGNED_DIGEST[header.scheme]
    message = header.encode() + hashlib.new(digest, payload).digest()
    assert message[4] == 2 and len(message) == length
    return message


def test_sealed_update_matches_reference_bytes():
    _, client, update = parties(SchemeId.TEST_SCHEME, SMALL)
    blob = codec.encode_envelope(protocol.client_submit_update(client, update))

    payload = codec.encode_params(update.delta)
    header = codec.build_header(MsgType.UPDATE_SUBMISSION, SchemeId.TEST_SCHEME, 0, 1, payload)
    signature = sig.sign(client.keypair, reference_message(header, payload))
    expected = codec.encode_envelope(
        SignedEnvelope(header=header, payload=payload, signature=signature)
    )
    assert isinstance(expected, bytes)
    assert bytes(blob) == expected


@pytest.mark.parametrize("scheme", sig.PQC_SCHEMES, ids=lambda s: s.label)
def test_sealed_update_with_pq_scheme_matches_and_verifies(scheme):
    server, client, update = parties(scheme, SMALL)
    env = protocol.client_submit_update(client, update)
    blob = codec.encode_envelope(env)

    # signing is hedged, so the signature is the one part that cannot be
    # predicted; given it, every byte is the reference layout's
    assert bytes(blob) == reference_envelope(update, env.signature)
    message = reference_message(env.header, codec.encode_params(update.delta))
    assert env.signed == message
    assert sig.verify(client.keypair.public_key, scheme, message, env.signature)
    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [blob])
    assert rejections == [] and [u.client_id for u in verified] == [1]
    assert verified[0].delta == update.delta


def test_encode_envelope_returns_the_sealed_buffer():
    _, client, update = parties(SchemeId.TEST_SCHEME, SMALL)
    env = protocol.client_submit_update(client, update)
    blob = codec.encode_envelope(env)
    assert blob is codec.encode_envelope(env)
    assert blob.readonly


def test_replaced_header_drops_the_wire_bytes():
    # a re-labelled copy must be laid out anew, never sent (or verified) as
    # the original's bytes
    from dataclasses import replace

    server, client, update = parties(SchemeId.TEST_SCHEME, SMALL)
    env = protocol.client_submit_update(client, update)
    relabeled = replace(env, header=replace(env.header, sender_id=3))
    assert relabeled.wire is None
    assert bytes(codec.encode_envelope(relabeled))[:HEADER_LEN] == relabeled.header.encode()
    assert not sig.verify(client.keypair.public_key, env.header.scheme, relabeled.signed, env.signature)


# --- decoded values never alias writable memory ---------------------------------------

def test_params_decoded_from_bytearray_survive_its_mutation():
    original = ParameterVector(np.arange(6, dtype=np.float32), (2, 3))
    raw = bytearray(codec.encode_params(original))
    decoded = codec.decode_params(raw)
    raw[12:] = bytes(len(raw) - 12)  # zero every value in the source buffer
    assert decoded == original
    assert not decoded.values.flags.writeable


def test_envelope_decoded_from_bytearray_survives_its_mutation():
    _, client, update = parties(SchemeId.TEST_SCHEME, SMALL)
    raw = bytearray(codec.encode_envelope(protocol.client_submit_update(client, update)))
    env = codec.decode_envelope(raw)
    params = codec.decode_params(env.payload)
    expected_signed = bytes(env.signed)
    raw[:] = bytes(len(raw))
    assert params == update.delta
    assert bytes(env.signed) == expected_signed


def test_params_decoded_from_bytes_are_views():
    blob = codec.encode_params(ParameterVector(np.arange(4, dtype=np.float32), (4,)))
    decoded = codec.decode_params(blob)
    assert not decoded.values.flags.owndata
    assert not decoded.values.flags.writeable


# --- reused buffers are written again only once nothing refers to them ----------------

def test_reused_buffer_is_replaced_while_held_or_badly_sized():
    buffers = codec.ReusedBuffer()
    held = buffers.take(100)
    assert buffers.take(100).obj is not held.obj
    del held
    kept = weakref.ref(buffers.take(100).obj)
    assert buffers.take(50).obj is kept()  # at most twice the size: reused
    lead = codec.ReusedBuffer.BUFFER_LEAD
    assert len(buffers.take(101).obj) == lead + 101  # too small: replaced
    assert len(buffers.take(50).obj) == lead + 50  # over twice the size: replaced


def test_received_frames_keep_their_bytes_while_held():
    _, client, update = parties(SchemeId.TEST_SCHEME, SMALL)
    negated = ModelUpdate(ParameterVector(-update.delta.values, update.delta.shape), 1, 0)
    blobs = [bytes(codec.encode_envelope(protocol.client_submit_update(client, u)))
             for u in (update, negated, update)]
    a, b = socket.socketpair()
    with a, b:
        sender, receiver = FrameSocket(a), FrameSocket(b)
        for blob in blobs:  # a few KB each: the socket buffers hold them all
            sender.send_frame(blob)
        first = receiver.recv_frame()
        values = codec.decode_params(codec.decode_envelope(first).payload).values
        first_buffer = weakref.ref(first.obj)
        del first  # the decoded values still refer to the buffer
        second = receiver.recv_frame()
        assert second.obj is not first_buffer()
        assert bytes(second) == blobs[1]
        assert np.array_equal(values, update.delta.values)
        kept = weakref.ref(second.obj)
        del second
        third = receiver.recv_frame()
        assert third.obj is kept()  # released, so the next frame reuses it
        assert bytes(third) == blobs[2]


def test_signing_reuses_the_envelope_buffer_only_once_the_envelope_is_dropped():
    server, _, update = parties(SchemeId.TEST_SCHEME, SMALL)

    def broadcast(params):
        server.model = dataclasses.replace(server.model, params=params)
        return protocol.distribute_model(server)

    first = broadcast(update.delta)
    expected = bytes(first.wire)
    second = broadcast(ParameterVector(-update.delta.values, update.delta.shape))
    assert second.wire.obj is not first.wire.obj
    assert bytes(first.wire) == expected
    kept = weakref.ref(second.wire.obj)
    del second
    third = broadcast(update.delta)
    assert third.wire.obj is kept()
    assert bytes(third.wire) == expected


def signed_in_a_plain_room(client, update, path):
    """`update` signed into a room that no ReusedBuffer cut: the start of a
    view of a new array, through the protocol or codec's own calls."""
    room = memoryview(np.zeros(4096, np.uint8))
    if path == "protocol":
        return protocol.client_submit_update(client, update, [], room)
    header = codec.build_header(
        MsgType.UPDATE_SUBMISSION, client.scheme, update.round, client.client_id, update.delta
    )
    laid_out = codec.signed_bytes(header, update.delta, room)
    signature = sig.sign(client.keypair, codec.signed_message(header, laid_out[HEADER_LEN:]))
    return codec.seal(header, room, signature)


@pytest.mark.parametrize("path", ["protocol", "codec"])
def test_an_envelope_signed_into_a_plain_room_is_the_one_admitted(path):
    server, client, update = parties(SchemeId.TEST_SCHEME, SMALL)
    env = signed_in_a_plain_room(client, update, path)
    assert codec.decode_envelope(env.wire) == env
    assert bytes(env.payload) == codec.encode_params(update.delta)
    verified, rejections, _, _ = protocol.server_collect_and_verify(server, [env.wire])
    assert rejections == []
    assert [u.delta for u in verified] == [update.delta]


def test_an_upload_is_laid_out_around_the_values_its_client_trained(monkeypatch):
    cfg = TrainConfig(num_clients=2, num_rounds=1)
    data = fedcore.generate_synthetic(16, SMALL.input_dim, SMALL.num_classes, 0)
    server, clients, _ = protocol.setup_keys(
        cfg, SchemeId.TEST_SCHEME, 1, fedcore.init_model(SMALL, 0), fedcore.split_iid(data, 2, 0)
    )
    trained, replies = {}, {}
    local_train = fedcore.local_train

    def recording(*args):  # args[4] is the client id
        update = trained[args[4]] = local_train(*args)
        return update

    class Recording(channel.Channel):
        def deliver(self, msg, direction, client_id):
            if direction == Direction.CLIENT_TO_SERVER:
                replies[client_id] = msg
            return super().deliver(msg, direction, client_id)

    monkeypatch.setattr(fedcore, "local_train", recording)
    monkeypatch.setattr(protocol, "_PREPARE_ON_DRIVER_BELOW", 0)  # each client trains alone
    protocol.run_training(server, clients, Recording())
    for client in clients:
        cid = client.client_id
        delta = codec.decode_params(codec.decode_envelope(replies[cid]).payload)
        assert np.shares_memory(delta.values, trained[cid].delta.values)
        # the bytes that the same delta, copied, is laid out and signed in
        copied = ModelUpdate(ParameterVector(delta.values.copy(), delta.shape), cid, 0)
        assert bytes(replies[cid]) == bytes(
            codec.encode_envelope(protocol.client_submit_update(client, copied))
        )


# --- allocation guards ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def large():
    server, client, update = parties(SchemeId.DILITHIUM, LARGE)
    protocol.client_submit_update(client, update)  # key expansion and caches
    return server, client, update


def test_sealing_an_update_allocates_one_envelope(large):
    _, client, update = large
    peak, env = traced_peak(lambda: protocol.client_submit_update(client, update))
    size = len(codec.encode_envelope(env))
    assert peak <= 1.25 * size, f"sealing peaked at {peak / size:.2f}x the envelope"


def test_decoding_and_verifying_an_update_copies_no_payload(large):
    server, client, update = large
    blob = codec.encode_envelope(protocol.client_submit_update(client, update))
    protocol.server_collect_and_verify(server, [blob])
    peak, (verified, *_) = traced_peak(lambda: protocol.server_collect_and_verify(server, [blob]))
    assert len(verified) == 1
    payload = len(codec.encode_params(update.delta))
    assert peak < 0.25 * payload, f"decode and verify peaked at {peak / payload:.2f}x the payload"


def test_frame_send_and_receive_hold_one_copy(large):
    _, client, update = large
    blob = codec.encode_envelope(protocol.client_submit_update(client, update))
    a, b = socket.socketpair()
    with a, b:
        sender, receiver = FrameSocket(a), FrameSocket(b)

        def send_and_receive():
            th = threading.Thread(target=sender.send_frame, args=(blob,), daemon=True)
            th.start()
            frame = receiver.recv_frame()
            th.join(timeout=10)
            assert not th.is_alive()
            return frame

        peak, frame = traced_peak(send_and_receive)
    assert frame == blob
    # the receive buffer holds the frame: the payload plus header and signature
    payload = len(codec.encode_params(update.delta))
    assert peak <= 1.05 * payload, f"a frame's round trip peaked at {peak / payload:.2f}x the payload"
    assert memoryview(frame).readonly
