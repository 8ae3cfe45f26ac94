"""Wire format: canonical layouts, bit-exact round trips, malformed input."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pqfl import sig
from pqfl.codec import (
    HEADER_LEN,
    VERSION,
    MsgType,
    ParameterVector,
    SignedEnvelope,
    build_header,
    decode_envelope,
    decode_params,
    encode_envelope,
    encode_params,
    signed_bytes,
    signed_message,
)
from pqfl.errors import MalformedEnvelope, MalformedPayload, NonFiniteValue
from pqfl.sig import SchemeId, SignatureBytes


def pv(values, shape=None) -> ParameterVector:
    arr = np.asarray(values, dtype=np.float32)
    return ParameterVector(arr.reshape(-1), shape or arr.shape)


def test_single_value_exact_bytes():
    encoded = encode_params(pv([1.0], (1,)))
    assert encoded == bytes.fromhex("01000000" + "0100000000000000" + "0000803f")


def test_payload_size_arithmetic():
    encoded = encode_params(pv(np.arange(6), (2, 3)))
    assert len(encoded) == 4 + 16 + 24 == 44


def test_header_is_23_bytes():
    header = build_header(MsgType.MODEL_DISTRIBUTION, SchemeId.TEST_SCHEME, 0, 0, b"xy")
    assert HEADER_LEN == 23
    assert len(header.encode()) == 23


finite_f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=150, deadline=None)
@given(
    arr=npst.arrays(
        dtype=np.float32,
        shape=npst.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
        elements=finite_f32,
    )
)
def test_params_round_trip_bit_exact(arr):
    original = ParameterVector(arr.reshape(-1), arr.shape)
    decoded = decode_params(encode_params(original))
    assert decoded == original
    assert decoded.values.tobytes() == original.values.tobytes()
    # encoding the decoded value reproduces the bytes exactly
    assert encode_params(decoded) == encode_params(original)


def test_negative_zero_round_trips_bitwise():
    original = pv(np.array([-0.0, 0.0], dtype=np.float32), (2,))
    decoded = decode_params(encode_params(original))
    assert decoded.values.tobytes() == original.values.tobytes()


def test_decode_truncated_payload():
    encoded = encode_params(pv([1.0, 2.0], (2,)))
    for cut in (0, 3, 10, len(encoded) - 1):
        with pytest.raises(MalformedPayload):
            decode_params(encoded[:cut])


def test_decode_trailing_bytes_rejected():
    encoded = encode_params(pv([1.0], (1,)))
    with pytest.raises(MalformedPayload):
        decode_params(encoded + b"\x00")


def test_decode_rank_zero_rejected():
    with pytest.raises(MalformedPayload):
        decode_params(struct.pack("<I", 0))


def test_decode_huge_dimension_rejected():
    blob = struct.pack("<I", 1) + struct.pack("<Q", 1 << 50)
    with pytest.raises(MalformedPayload):
        decode_params(blob)


def test_decode_nan_payload_rejected():
    blob = struct.pack("<I", 1) + struct.pack("<Q", 1) + bytes.fromhex("0000c07f")
    with pytest.raises(NonFiniteValue):
        decode_params(blob)


def test_constructing_nonfinite_vector_rejected():
    with pytest.raises(NonFiniteValue):
        ParameterVector(np.array([np.inf], dtype=np.float32), (1,))


def test_shape_product_mismatch_rejected():
    with pytest.raises(MalformedPayload):
        ParameterVector(np.zeros(3, dtype=np.float32), (2, 2))


def make_envelope(
    msg_type=MsgType.UPDATE_SUBMISSION,
    scheme=SchemeId.TEST_SCHEME,
    round=3,
    sender=7,
    payload=b"payload bytes",
    sig_data=b"s" * 32,
) -> SignedEnvelope:
    header = build_header(msg_type, scheme, round, sender, payload)
    return SignedEnvelope(
        header=header, payload=payload, signature=SignatureBytes(scheme, sig_data)
    )


@settings(max_examples=100, deadline=None)
@given(
    msg_type=st.sampled_from(list(MsgType)),
    scheme=st.sampled_from(list(SchemeId)),
    round=st.integers(min_value=0, max_value=2**32 - 1),
    sender=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(min_size=0, max_size=300),
    sig_data=st.binary(min_size=0, max_size=100),
)
def test_envelope_round_trip(msg_type, scheme, round, sender, payload, sig_data):
    env = make_envelope(msg_type, scheme, round, sender, payload, sig_data)
    blob = encode_envelope(env)
    decoded = decode_envelope(blob)
    assert decoded == env
    assert encode_envelope(decoded) == blob


def test_envelope_bad_magic():
    blob = bytearray(encode_envelope(make_envelope()))
    blob[:4] = b"XXXX"
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bytes(blob))


def test_envelope_bad_version():
    blob = bytearray(encode_envelope(make_envelope()))
    blob[4] = VERSION + 1
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bytes(blob))


def test_version_1_envelope_is_refused():
    # version 1 signed header || payload itself; no path verifies it any more
    blob = bytearray(encode_envelope(make_envelope()))
    blob[4] = 1
    with pytest.raises(MalformedEnvelope, match="unsupported version 1"):
        decode_envelope(bytes(blob))


def test_envelope_bad_msg_type_and_scheme():
    blob = bytearray(encode_envelope(make_envelope()))
    blob[5] = 9
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bytes(blob))
    blob = bytearray(encode_envelope(make_envelope()))
    blob[6] = 200
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bytes(blob))


def test_envelope_truncation_and_trailing():
    blob = encode_envelope(make_envelope())
    with pytest.raises(MalformedEnvelope):
        decode_envelope(blob[:-1])
    with pytest.raises(MalformedEnvelope):
        decode_envelope(blob + b"\x00")
    with pytest.raises(MalformedEnvelope):
        decode_envelope(blob[:10])


def test_envelope_signature_scheme_must_match_header():
    header = build_header(MsgType.UPDATE_SUBMISSION, SchemeId.FALCON, 0, 1, b"x")
    with pytest.raises(MalformedEnvelope):
        SignedEnvelope(header=header, payload=b"x", signature=SignatureBytes(SchemeId.DILITHIUM, b"s"))


def test_envelope_payload_len_must_match():
    header = build_header(MsgType.UPDATE_SUBMISSION, SchemeId.TEST_SCHEME, 0, 1, b"abc")
    with pytest.raises(MalformedEnvelope):
        SignedEnvelope(header=header, payload=b"abcd", signature=SignatureBytes(SchemeId.TEST_SCHEME, b"s"))


def test_signed_bytes_length():
    payload = b"p" * 57
    header = build_header(MsgType.UPDATE_SUBMISSION, SchemeId.TEST_SCHEME, 1, 2, payload)
    assert len(signed_bytes(header, payload)) == HEADER_LEN + 57


# (scheme, parameter set, security category in bits of classical strength);
# category 2 (ML-DSA-44) is set by collision search on SHA-256, so 128 bits
CATEGORY_BITS = [
    (SchemeId.DILITHIUM, "ML-DSA-44", 128),
    (SchemeId.ML_DSA_65, "ML-DSA-65", 192),
    (SchemeId.ML_DSA_87, "ML-DSA-87", 256),
    (SchemeId.SPHINCS_PLUS, "SLH-DSA-SHA2-128s", 128),
    (SchemeId.SLH_DSA_SHA2_128F, "SLH-DSA-SHA2-128f", 128),
    (SchemeId.FALCON_512, "Falcon-512", 128),
    (SchemeId.FALCON, "Falcon-1024", 256),
    (SchemeId.TEST_SCHEME, "HMAC-SHA256 (test only)", 128),
]


def test_every_parameter_set_has_a_category():
    assert sorted(scheme for scheme, _, _ in CATEGORY_BITS) == sorted(SchemeId)


# test ids are kept stable across renames; Falcon's stay lowercase
CATEGORY_IDS = [{"Falcon-512": "falcon-512", "Falcon-1024": "falcon-1024"}.get(n, n) for _, n, _ in CATEGORY_BITS]


@pytest.mark.parametrize("scheme, parameter_set, bits", CATEGORY_BITS, ids=CATEGORY_IDS)
def test_each_parameter_sets_digest_reaches_its_category(scheme, parameter_set, bits):
    meta = sig.metadata(scheme)
    assert meta.parameter_set == parameter_set
    # collision search on an n-bit digest takes 2^(n/2) work
    assert 8 * hashlib.new(meta.digest).digest_size >= 2 * bits


@pytest.mark.parametrize("scheme", list(SchemeId), ids=[s.label for s in SchemeId])
def test_signed_message_is_header_and_the_configured_sets_digest(scheme):
    meta = sig.metadata(scheme)
    payload = memoryview(np.arange(1000, dtype=np.uint8)).toreadonly()
    header = build_header(MsgType.UPDATE_SUBMISSION, scheme, 1, 2, payload)
    message = signed_message(header, payload)
    assert len(message) == HEADER_LEN + hashlib.new(meta.digest).digest_size
    assert message == header.encode() + hashlib.new(meta.digest, bytes(payload)).digest()


def test_round_change_invalidates_signature():
    kp = sig.keygen(SchemeId.TEST_SCHEME, seed=0)
    payload = b"model delta"
    header = build_header(MsgType.UPDATE_SUBMISSION, kp.scheme, 1, 2, payload)
    signature = sig.sign(kp, signed_message(header, payload))
    assert sig.verify(kp.public_key, kp.scheme, signed_message(header, payload), signature)

    moved = build_header(MsgType.UPDATE_SUBMISSION, kp.scheme, 2, 2, payload)
    assert not sig.verify(kp.public_key, kp.scheme, signed_message(moved, payload), signature)


def test_sender_change_invalidates_signature():
    kp = sig.keygen(SchemeId.TEST_SCHEME, seed=0)
    payload = b"model delta"
    header = build_header(MsgType.UPDATE_SUBMISSION, kp.scheme, 1, 2, payload)
    signature = sig.sign(kp, signed_message(header, payload))
    forged = build_header(MsgType.UPDATE_SUBMISSION, kp.scheme, 1, 3, payload)
    assert not sig.verify(kp.public_key, kp.scheme, signed_message(forged, payload), signature)


def test_msg_type_change_invalidates_signature():
    kp = sig.keygen(SchemeId.TEST_SCHEME, seed=0)
    payload = b"model delta"
    header = build_header(MsgType.UPDATE_SUBMISSION, kp.scheme, 1, 2, payload)
    signature = sig.sign(kp, signed_message(header, payload))
    relabeled = build_header(MsgType.MODEL_DISTRIBUTION, kp.scheme, 1, 2, payload)
    assert not sig.verify(kp.public_key, kp.scheme, signed_message(relabeled, payload), signature)


def test_parameter_vector_equality_is_bitwise():
    a = pv([1.0, 2.0])
    b = pv([1.0, 2.0])
    c = pv([1.0, 2.5])
    assert a == b
    assert a != c
    assert pv([0.0]) != pv([-0.0])  # equal numerically, different bits
