"""Pluggable digital-signature schemes.

Three quantum-resistant schemes are exposed behind one keygen/sign/verify
interface, plus a deterministic keyed-hash scheme for fast tests. ML-DSA
(FIPS 204) and SLH-DSA (FIPS 205) run in an OpenSSL >= 3.5 libcrypto
(pqfl.libcrypto), FN-DSA (Falcon spec v1.2) in Python/numpy (pqfl.falcon),
and TestScheme is HMAC-SHA256 presented through the same API.

Each parameter set is its own `SchemeId`, whose wire code names the set.
`_SETS` below is the one description of each set: the names `--scheme`
takes (ignoring case, `-`, `_` and `+`), its backend, and its sizes, digest
and name (`SchemeMetadata`), which the backend is handed. Keys and signatures
of the round-3 SPHINCS+ (as in PQClean) do not verify under FIPS 205 SLH-DSA.

Each parameter set names a digest (`SchemeMetadata.digest`) whose collision
strength reaches the set's security category, the rule FIPS 204 §5.4 and
FIPS 205 §10.2 set for a pre-hash: SHA-512 for categories 3 and 5, SHA-256
below, which an x86-64 CPU with SHA extensions runs over 809 KB in 0.7 ms
against SHA-512's 2.0 ms. The protocol signs a payload's digest
(`codec.signed_message`); `sign` and `verify` here take any message as it is.

A key pair is its scheme and key bytes. It also owns the signing key its
backend prepares from them (an EVP_PKEY, Falcon's expanded basis and tree,
or the MAC key): `keygen` attaches the one the backend built, and `sign`
prepares one on first use otherwise. It is freed with the pair; a live pair
holds about 20 KB for ML-DSA-44 and, once it has signed, 0.43 MB for
Falcon-1024. Adapters hold no secret key and are safe to call concurrently.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import importlib
import os
from dataclasses import dataclass, field

from pqfl.errors import AdapterFailure, UnsupportedScheme


class SchemeId(enum.IntEnum):
    """Signature parameter set identifier; the numeric value is the wire code."""

    DILITHIUM = 1
    FALCON = 2
    SPHINCS_PLUS = 3
    TEST_SCHEME = 4
    ML_DSA_65 = 5
    ML_DSA_87 = 6
    FALCON_512 = 7
    SLH_DSA_SHA2_128F = 8

    @property
    def wire_code(self) -> int:
        return int(self)

    @property
    def label(self) -> str:
        return _SETS[self].names[0]

    @classmethod
    def from_wire(cls, code: int) -> "SchemeId":
        try:
            return cls(code)
        except ValueError:
            raise UnsupportedScheme(f"unknown scheme wire code {code}") from None

    @classmethod
    def from_label(cls, text: str) -> "SchemeId":
        for scheme, entry in _SETS.items():
            if _name_key(text) in map(_name_key, entry.names):
                return scheme
        raise UnsupportedScheme(f"unknown scheme name {text!r}")


def _name_key(text: str) -> str:
    return text.strip().lower().replace("-", "").replace("_", "").replace("+", "")


@dataclass(frozen=True)
class SchemeMetadata:
    name: str
    public_key_len: int
    secret_key_len: int
    signature_max_len: int
    # hashlib name of the digest a payload is signed through (codec.signed_message)
    digest: str
    parameter_set: str


@dataclass(frozen=True)
class _Set:
    names: tuple[str, ...]  # the names `from_label` accepts; the first is the label
    backend: str  # the adapter class, imported when the set is first used
    metadata: SchemeMetadata


_LIBCRYPTO = "pqfl.libcrypto.EvpSigner"
_FALCON = "pqfl.falcon.Falcon"

# Key and signature lengths are those of FIPS 204 and FIPS 205 Table 2 and of Falcon
# v1.2 Table 3.3. An ML-DSA secret key is the 32-byte seed it is expanded from. A Falcon
# signature's bound is the compressed format's (FALCON_SIG_COMPRESSED_MAXSIZE).
_SETS = {
    SchemeId.DILITHIUM: _Set(
        ("dilithium", "ml-dsa", "ml-dsa-44"), _LIBCRYPTO,
        SchemeMetadata("Dilithium", 1312, 32, 2420, "sha256", "ML-DSA-44")),
    SchemeId.FALCON: _Set(
        ("falcon", "fn-dsa", "falcon-1024"), _FALCON,
        SchemeMetadata("Falcon", 1793, 2305, 1462, "sha512", "Falcon-1024")),
    SchemeId.SPHINCS_PLUS: _Set(
        ("sphincsplus", "sphincs", "slh-dsa", "slh-dsa-sha2-128s"), _LIBCRYPTO,
        SchemeMetadata("SPHINCS+", 32, 64, 7856, "sha256", "SLH-DSA-SHA2-128s")),
    SchemeId.TEST_SCHEME: _Set(
        ("testscheme", "test"), "pqfl.sig._TestSchemeAdapter",
        SchemeMetadata("TestScheme", 32, 32, 32, "sha256", "HMAC-SHA256 (test only)")),
    SchemeId.ML_DSA_65: _Set(
        ("ml-dsa-65",), _LIBCRYPTO,
        SchemeMetadata("Dilithium", 1952, 32, 3309, "sha512", "ML-DSA-65")),
    SchemeId.ML_DSA_87: _Set(
        ("ml-dsa-87",), _LIBCRYPTO,
        SchemeMetadata("Dilithium", 2592, 32, 4627, "sha512", "ML-DSA-87")),
    SchemeId.FALCON_512: _Set(
        ("falcon-512",), _FALCON,
        SchemeMetadata("Falcon", 897, 1281, 752, "sha256", "Falcon-512")),
    SchemeId.SLH_DSA_SHA2_128F: _Set(
        ("slh-dsa-sha2-128f",), _LIBCRYPTO,
        SchemeMetadata("SPHINCS+", 32, 64, 17088, "sha256", "SLH-DSA-SHA2-128f")),
}

# each scheme's default set: what `all` names on the command line
PQC_SCHEMES = (SchemeId.DILITHIUM, SchemeId.FALCON, SchemeId.SPHINCS_PLUS)
ALL_SCHEMES = (*PQC_SCHEMES, SchemeId.TEST_SCHEME)


@dataclass(frozen=True)
class KeyPair:
    scheme: SchemeId
    public_key: bytes
    secret_key: bytes
    # the backend's signing key, prepared from secret_key; no part of the pair's value
    _prepared: object = field(default=None, init=False, compare=False)

    def __getstate__(self) -> dict:  # copies and pickles carry the bytes alone
        return {**vars(self), "_prepared": None}

    def __repr__(self) -> str:  # never leak key material into logs
        return f"KeyPair(scheme={self.scheme.label}, public_key=<{len(self.public_key)}B>, secret_key=<hidden>)"


@dataclass(frozen=True)
class SignatureBytes:
    scheme: SchemeId
    data: bytes


def _normalize_seed(seed: int | bytes | None) -> bytes | None:
    """Coerce a caller-supplied seed to 32 bytes of entropy."""
    if seed is None:
        return None
    if isinstance(seed, int):
        return hashlib.sha256(b"pqfl.seed.v1:" + str(seed).encode()).digest()
    if isinstance(seed, (bytes, bytearray)):
        if len(seed) != 32:
            raise ValueError(f"seed must be 32 bytes, got {len(seed)}")
        return bytes(seed)
    raise TypeError(f"seed must be int, bytes, or None, not {type(seed).__name__}")


# --- deterministic keyed-hash test scheme ---------------------------------

class _TestSchemeAdapter:
    """HMAC-SHA256 presented through the sign/verify interface.

    NOT a public-key scheme and NOT post-quantum: the "public" key equals
    the MAC key, so any verifier can forge. Exists only to make unit tests
    fast and deterministic; strict protocol mode rejects it.
    """

    def __init__(self, metadata: SchemeMetadata):
        self.metadata = metadata

    def keygen(self, seed: bytes | None) -> tuple[bytes, bytes, bytes]:
        if seed is not None:
            key = hashlib.sha256(b"pqfl.testscheme.v1:" + seed).digest()
        else:
            key = os.urandom(32)
        return key, key, key

    def signing_key(self, secret_key: bytes) -> bytes:
        return bytes(secret_key)

    def sign(self, key: bytes, message: bytes) -> bytes:
        return hmac.new(key, message, hashlib.sha256).digest()

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        expected = hmac.new(public_key, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)


# --- adapter registry ------------------------------------------------------

_adapters: dict[SchemeId, object] = {}


def _entry(scheme: SchemeId) -> _Set:
    if not isinstance(scheme, SchemeId):
        raise UnsupportedScheme(f"not a scheme id: {scheme!r}")
    return _SETS[scheme]


def _adapter(scheme: SchemeId):
    """The process-wide adapter for a parameter set, built on first use.

    Falcon tables and the libcrypto that signs ML-DSA and SLH-DSA are only
    set up here, so importing this module stays cheap and a run sets up
    only the backends of the sets it uses.
    """
    entry = _entry(scheme)
    found = _adapters.get(scheme)
    if found is None:
        module, _, name = entry.backend.rpartition(".")
        found = getattr(importlib.import_module(module), name)(entry.metadata)
        _adapters[scheme] = found
    return found


# --- public operations ------------------------------------------------------

def metadata(scheme: SchemeId) -> SchemeMetadata:
    """Constant size/name characteristics of the parameter set, read from
    the table: no backend is loaded."""
    return _entry(scheme).metadata


def keygen(scheme: SchemeId, seed: int | bytes | None = None) -> KeyPair:
    """Generate a key pair; a seed makes key generation deterministic for every scheme.
    The pair keeps the signing key the backend built, if it built one."""
    public_key, secret_key, prepared = _adapter(scheme).keygen(_normalize_seed(seed))
    meta = metadata(scheme)
    if len(public_key) != meta.public_key_len or len(secret_key) != meta.secret_key_len:
        raise AdapterFailure(
            f"{meta.parameter_set} keygen returned unexpected key lengths "
            f"({len(public_key)}/{len(secret_key)})"
        )
    pair = KeyPair(scheme=scheme, public_key=public_key, secret_key=secret_key)
    object.__setattr__(pair, "_prepared", prepared)
    return pair


def sign(keypair: KeyPair, message: bytes | memoryview) -> SignatureBytes:
    """Sign a message with the key pair's scheme. The message may be any
    contiguous byte buffer; it is passed through without a copy."""
    if not message:
        raise ValueError("refusing to sign an empty message")
    adapter = _adapter(keypair.scheme)
    key = keypair._prepared
    if key is None:  # two threads may both prepare it; either key signs
        key = adapter.signing_key(keypair.secret_key)
        object.__setattr__(keypair, "_prepared", key)
    data = adapter.sign(key, message)
    return SignatureBytes(scheme=keypair.scheme, data=data)


def verify(
    public_key: bytes,
    scheme: SchemeId,
    message: bytes | memoryview,
    signature: SignatureBytes,
) -> bool:
    """True iff the signature is valid for (public_key, message).

    The message is passed through without a copy. Any malformed or
    mismatched input yields False; only an unsupported scheme raises.
    """
    adapter = _adapter(scheme)
    if signature.scheme != scheme:
        return False
    try:
        return bool(adapter.verify(bytes(public_key), message, bytes(signature.data)))
    except Exception:
        return False
