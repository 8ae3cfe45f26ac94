"""Signature scheme adapters: round trips, tampering, sizes, concurrency."""

import dataclasses
import hashlib
import pickle
import secrets
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pqfl import protocol, sig
from pqfl.codec import MsgType
from pqfl.errors import AdapterFailure, UnsupportedScheme
from pqfl.sig import SchemeId, SignatureBytes

SCHEMES = list(sig.ALL_SCHEMES)


class SeededKeys(dict):
    """Scheme -> key pair, generated from one seed on first lookup.

    Each test pays only for the schemes it touches, so a scheme whose
    backend cannot be set up fails its own tests and no others.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def __missing__(self, scheme):
        self[scheme] = sig.keygen(scheme, seed=self.seed)
        return self[scheme]


@pytest.fixture(scope="session")
def keypairs():
    return SeededKeys(1234)


@pytest.fixture(scope="session")
def other_keypairs():
    return SeededKeys(9999)


def flip_bit(data: bytes, pos: int) -> bytes:
    out = bytearray(data)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
@pytest.mark.parametrize("size", [1, 33, 1024])
def test_sign_verify_round_trip(keypairs, scheme, size):
    kp = keypairs[scheme]
    message = secrets.token_bytes(size)
    signature = sig.sign(kp, message)
    assert signature.scheme == scheme
    assert sig.verify(kp.public_key, scheme, message, signature)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_key_lengths_match_metadata(keypairs, scheme):
    kp = keypairs[scheme]
    meta = sig.metadata(scheme)
    assert len(kp.public_key) == meta.public_key_len
    assert len(kp.secret_key) == meta.secret_key_len
    assert meta.public_key_len > 0 and meta.secret_key_len > 0 and meta.signature_max_len > 0


@pytest.mark.parametrize("short", ["public", "secret"])
def test_keygen_refuses_a_key_one_byte_shorter_than_the_table(monkeypatch, short):
    # the backend's keys are checked against sig's table, not its own numbers
    meta = sig.metadata(SchemeId.TEST_SCHEME)
    lengths = (meta.public_key_len - (short == "public"), meta.secret_key_len - (short == "secret"))

    class Short:
        def keygen(self, seed):
            return (*(bytes(n) for n in lengths), None)

    monkeypatch.setitem(sig._adapters, SchemeId.TEST_SCHEME, Short())
    with pytest.raises(AdapterFailure, match="unexpected key lengths"):
        sig.keygen(SchemeId.TEST_SCHEME, 1)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_signature_length_within_declared_max(keypairs, scheme):
    kp = keypairs[scheme]
    max_len = sig.metadata(scheme).signature_max_len
    for i in range(10):
        signature = sig.sign(kp, f"message {i}".encode())
        assert len(signature.data) <= max_len


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_wrong_key_rejected(keypairs, other_keypairs, scheme):
    message = b"addressed to someone else"
    signature = sig.sign(other_keypairs[scheme], message)
    assert not sig.verify(keypairs[scheme].public_key, scheme, message, signature)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_tampered_message_rejected(keypairs, scheme):
    kp = keypairs[scheme]
    message = secrets.token_bytes(64)
    signature = sig.sign(kp, message)
    for pos in (0, 13, 255, 511):
        assert not sig.verify(kp.public_key, scheme, flip_bit(message, pos), signature)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_truncated_signature_rejected(keypairs, scheme):
    kp = keypairs[scheme]
    message = b"truncation target"
    signature = sig.sign(kp, message)
    clipped = SignatureBytes(scheme=scheme, data=signature.data[:-1])
    assert not sig.verify(kp.public_key, scheme, message, clipped)


def test_exhaustive_bit_flip_sweep_test_scheme():
    # every single-bit corruption of a 64-byte message (512 positions) and
    # of the 32-byte tag (256 positions) must be rejected
    kp = sig.keygen(SchemeId.TEST_SCHEME, seed=7)
    message = secrets.token_bytes(64)
    signature = sig.sign(kp, message)
    for pos in range(len(message) * 8):
        assert not sig.verify(kp.public_key, kp.scheme, flip_bit(message, pos), signature)
    for pos in range(len(signature.data) * 8):
        bad = SignatureBytes(kp.scheme, flip_bit(signature.data, pos))
        assert not sig.verify(kp.public_key, kp.scheme, message, bad)


def test_test_scheme_keygen_deterministic():
    assert sig.keygen(SchemeId.TEST_SCHEME, seed=0) == sig.keygen(SchemeId.TEST_SCHEME, seed=0)
    assert sig.keygen(SchemeId.TEST_SCHEME, seed=0) != sig.keygen(SchemeId.TEST_SCHEME, seed=1)


def test_test_scheme_sign_deterministic():
    kp = sig.keygen(SchemeId.TEST_SCHEME, seed=0)
    assert sig.sign(kp, b"same input") == sig.sign(kp, b"same input")


def test_dilithium_keygen_honors_seed():
    a = sig.keygen(SchemeId.DILITHIUM, seed=5)
    b = sig.keygen(SchemeId.DILITHIUM, seed=5)
    assert a.public_key == b.public_key and a.secret_key == b.secret_key
    assert a.public_key != sig.keygen(SchemeId.DILITHIUM, seed=6).public_key


def test_sphincsplus_keygen_honors_seed():
    a = sig.keygen(SchemeId.SPHINCS_PLUS, seed=5)
    b = sig.keygen(SchemeId.SPHINCS_PLUS, seed=5)
    assert a.public_key == b.public_key and a.secret_key == b.secret_key
    assert a.public_key != sig.keygen(SchemeId.SPHINCS_PLUS, seed=6).public_key
    # FIPS 205 keys: SK.seed || SK.prf || PK.seed || PK.root, the first three
    # the seed stretched to 3n bytes, and the public key PK.seed || PK.root
    n = len(a.public_key) // 2
    stretched = hashlib.shake_256(sig._normalize_seed(5)).digest(3 * n)
    assert a.secret_key == stretched + a.public_key[n:]
    assert a.public_key[:n] == stretched[2 * n :]
    message = b"seeded SLH-DSA"
    assert sig.verify(a.public_key, SchemeId.SPHINCS_PLUS, message, sig.sign(b, message))


def test_unseeded_keygen_gives_fresh_keys():
    for scheme in SCHEMES:
        assert sig.keygen(scheme).public_key != sig.keygen(scheme).public_key


def test_sphincs_signature_larger_than_falcon():
    message = secrets.token_bytes(1024)
    sp = sig.sign(sig.keygen(SchemeId.SPHINCS_PLUS), message)
    fal = sig.sign(sig.keygen(SchemeId.FALCON), message)
    assert len(sp.data) > len(fal.data)


def test_metadata_size_orderings():
    dil = sig.metadata(SchemeId.DILITHIUM)
    fal = sig.metadata(SchemeId.FALCON)
    sph = sig.metadata(SchemeId.SPHINCS_PLUS)
    assert sph.public_key_len < dil.public_key_len < fal.public_key_len
    assert fal.signature_max_len < dil.signature_max_len < sph.signature_max_len


def test_test_scheme_metadata_constants():
    meta = sig.metadata(SchemeId.TEST_SCHEME)
    assert (meta.public_key_len, meta.secret_key_len, meta.signature_max_len) == (32, 32, 32)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_verify_never_raises_on_fuzzed_signatures(keypairs, scheme):
    kp = keypairs[scheme]
    rng = np.random.default_rng(99)
    message = b"fuzz target"
    for _ in range(50):
        junk = rng.bytes(int(rng.integers(0, 4 * sig.metadata(scheme).signature_max_len + 1)))
        assert sig.verify(kp.public_key, scheme, message, SignatureBytes(scheme, junk)) is False


def test_verify_rejects_scheme_mismatch(keypairs):
    # the right key, message and bytes: only the signature's scheme tag is wrong
    kp = keypairs[SchemeId.TEST_SCHEME]
    signature = sig.sign(kp, b"hello")
    assert sig.verify(kp.public_key, SchemeId.TEST_SCHEME, b"hello", signature)
    relabeled = SignatureBytes(SchemeId.DILITHIUM, signature.data)
    assert not sig.verify(kp.public_key, SchemeId.TEST_SCHEME, b"hello", relabeled)


def test_unknown_wire_code_raises():
    with pytest.raises(UnsupportedScheme):
        SchemeId.from_wire(9)
    with pytest.raises(UnsupportedScheme):
        SchemeId.from_label("rsa")


def test_wire_code_round_trip():
    for scheme in SchemeId:
        assert SchemeId.from_wire(scheme.wire_code) == scheme
        assert SchemeId.from_label(scheme.label) == scheme


def test_label_aliases():
    assert SchemeId.from_label("ML-DSA") == SchemeId.DILITHIUM
    assert SchemeId.from_label("sphincs+") == SchemeId.SPHINCS_PLUS
    assert SchemeId.from_label("SLH_DSA") == SchemeId.SPHINCS_PLUS
    # every parameter set by its own name; codes 1-3 are each scheme's default set
    codes = {
        "ml-dsa-44": 1, "falcon-1024": 2, "slh-dsa-sha2-128s": 3, "ml-dsa-65": 5,
        "ml-dsa-87": 6, "falcon-512": 7, "slh-dsa-sha2-128f": 8, "SLH_DSA_SHA2_128F": 8,
    }
    assert {name: SchemeId.from_label(name).wire_code for name in codes} == codes


# code -> parameter set, digest, and the SHA-256 of the public and the secret
# key that seed 1 gives. An ML-DSA secret key is its 32-byte seed, the same for
# every ML-DSA set.
WIRE_CODES = {
    1: ("ML-DSA-44", "sha256",
        "e21e4e98fd7b29e19d18477072bfe9d1fea61418f7a6be37a9c686848d6b062d",
        "a224b6743f34fa027ebfb0797dd84e0441c36630093c7f761d2e30c15ad2b066"),
    2: ("Falcon-1024", "sha512",
        "2305434dcc3ec6fb180e2576d76654cdcf21ff03dac23ed47b6b0117b24dea4d",
        "2feecd5c869eb61d0b9d2a56cd174c91d6d2fe15674c5dfba0b6cba985f054d5"),
    3: ("SLH-DSA-SHA2-128s", "sha256",
        "ed2cf983ce1cc01a9d128a192fd8d7f35392a5a0a0503ab9c944151bac37caed",
        "289718858d67e1e1d42acd48652b6e2b9258427721c67d37b986e5185c608484"),
    4: ("HMAC-SHA256 (test only)", "sha256",
        "c336f1cc9d75ede2df18cca63bf025ac477258635d040e6728ad1bb1101ebf2a",
        "c336f1cc9d75ede2df18cca63bf025ac477258635d040e6728ad1bb1101ebf2a"),
    5: ("ML-DSA-65", "sha512",
        "024e097667ae258cca1cf0d54d62e6ad3d608e05279121e26a852f1413f973c3",
        "a224b6743f34fa027ebfb0797dd84e0441c36630093c7f761d2e30c15ad2b066"),
    6: ("ML-DSA-87", "sha512",
        "42bc94e6e617288cae30c5389edb3c7570324e9a0839360216678e34f45b3dce",
        "a224b6743f34fa027ebfb0797dd84e0441c36630093c7f761d2e30c15ad2b066"),
    7: ("Falcon-512", "sha256",
        "b5172f4c5244a79c4f01366110467fa1557bafc2dab1df57f0ada3854df66736",
        "bf8c6a930eb5a106edc1c50c84cde190599deafdb8f2cfff862b815579301cdc"),
    8: ("SLH-DSA-SHA2-128f", "sha256",
        "d9f6c18ffa542964eca5a0c921847571fb2973a9ad7d585d1def08f7692c8320",
        "a139f8bea2df67a491ceb4d5339101e7be7c20088d6d54a0c6f79e1004005548"),
}


@pytest.fixture(scope="module")
def seed_one_keys():
    return SeededKeys(1)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.label)
def test_wire_code_pins_parameter_set_digest_and_seeded_keys(seed_one_keys, scheme):
    parameter_set, digest, public_sha256, secret_sha256 = WIRE_CODES[scheme.wire_code]
    meta = sig.metadata(scheme)
    assert (meta.parameter_set, meta.digest) == (parameter_set, digest)
    kp = seed_one_keys[scheme]
    assert hashlib.sha256(kp.public_key).hexdigest() == public_sha256
    assert hashlib.sha256(kp.secret_key).hexdigest() == secret_sha256


def test_a_signature_is_refused_under_every_other_code(seed_one_keys):
    # one process signs and verifies with every parameter set, and a signature
    # is good only under the code that made it
    for scheme in SchemeId:
        kp = seed_one_keys[scheme]
        env = protocol._sign_envelope(kp, MsgType.UPDATE_SUBMISSION, 0, 1, b"payload", [])
        assert sig.verify(kp.public_key, scheme, env.signed, env.signature)
        protocol._authenticate(env, MsgType.UPDATE_SUBMISSION, {1: (scheme, kp.public_key)},
                               range(1), True, 0, [])
        for other in SchemeId:
            if other == scheme:
                continue
            relabeled = SignatureBytes(other, env.signature.data)
            assert not sig.verify(kp.public_key, other, env.signed, relabeled)
            with pytest.raises(protocol.Refused) as refused:
                protocol._authenticate(env, MsgType.UPDATE_SUBMISSION, {1: (other, kp.public_key)},
                                       range(1), True, 0, [])
            assert refused.value.rejection.reason == protocol.RejectReason.SIGNATURE_INVALID


def test_sign_empty_message_rejected(keypairs):
    with pytest.raises(ValueError):
        sig.sign(keypairs[SchemeId.TEST_SCHEME], b"")


def test_bad_seed_inputs():
    with pytest.raises(ValueError):
        sig.keygen(SchemeId.TEST_SCHEME, seed=b"short")
    with pytest.raises(TypeError):
        sig.keygen(SchemeId.TEST_SCHEME, seed="not bytes")


def test_wrong_length_secret_key_is_adapter_failure(keypairs):
    kp = keypairs[SchemeId.FALCON]
    broken = sig.KeyPair(scheme=SchemeId.FALCON, public_key=kp.public_key, secret_key=b"\x00" * 5)
    with pytest.raises(AdapterFailure):
        sig.sign(broken, b"message")


def test_keypair_repr_hides_secret(keypairs):
    text = repr(keypairs[SchemeId.DILITHIUM])
    assert "hidden" in text
    assert keypairs[SchemeId.DILITHIUM].secret_key.hex() not in text


@pytest.mark.parametrize("scheme", [SchemeId.DILITHIUM, SchemeId.FALCON], ids=lambda s: s.label)
def test_concurrent_sign_verify(keypairs, scheme):
    # one execution context per simulated client sharing immutable keys
    kp = keypairs[scheme]

    def round_trip(i: int) -> bool:
        message = f"client {i} payload".encode()
        return sig.verify(kp.public_key, scheme, message, sig.sign(kp, message))

    with ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(round_trip, range(32)))


def test_falcon_signing_key_dies_with_its_pair(keypairs):
    kp = keypairs[SchemeId.FALCON]
    pair = sig.KeyPair(kp.scheme, kp.public_key, kp.secret_key)
    sig.sign(pair, b"expands the key")
    key = weakref.ref(pair._prepared)
    del pair
    assert key() is None
    # the pair still held keeps its own key and signs with it
    sig.sign(kp, b"prepared")
    held = kp._prepared
    signature = sig.sign(kp, b"still held")
    assert kp._prepared is held
    assert sig.verify(kp.public_key, kp.scheme, b"still held", signature)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_pair_rebuilt_from_its_bytes_signs_and_equals_the_original(keypairs, scheme):
    kp = keypairs[scheme]
    message = b"signed from the bytes alone"
    sig.sign(kp, message)  # kp holds a prepared key from here on
    rebuilt = sig.KeyPair(scheme, kp.public_key, kp.secret_key)
    copies = [rebuilt, pickle.loads(pickle.dumps(kp)), dataclasses.replace(kp)]
    # the prepared key is no part of the pair's value
    for pair in copies:
        assert pair._prepared is None
        assert pair == kp and hash(pair) == hash(kp) and repr(pair) == repr(kp)
    assert sig.verify(kp.public_key, scheme, message, sig.sign(rebuilt, message))
    assert rebuilt._prepared is not None and rebuilt == kp
