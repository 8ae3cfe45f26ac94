"""Signature scheme adapters: round trips, tampering, sizes, concurrency."""

import hashlib
import secrets
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pqfl import sig
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
    for scheme in SCHEMES:
        assert SchemeId.from_wire(scheme.wire_code) == scheme
        assert SchemeId.from_label(scheme.label) == scheme


def test_label_aliases():
    assert SchemeId.from_label("ML-DSA") == SchemeId.DILITHIUM
    assert SchemeId.from_label("sphincs+") == SchemeId.SPHINCS_PLUS
    assert SchemeId.from_label("SLH_DSA") == SchemeId.SPHINCS_PLUS


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


def test_dilithium_key_cache_stays_bounded():
    first = sig.keygen(SchemeId.DILITHIUM, 9_000)
    for seed in range(9_001, 9_300):
        sig.keygen(SchemeId.DILITHIUM, seed)
    assert sig._adapter(SchemeId.DILITHIUM)._private.cache_info().currsize <= 256
    signature = sig.sign(first, b"after eviction")
    assert sig.verify(first.public_key, SchemeId.DILITHIUM, b"after eviction", signature)
