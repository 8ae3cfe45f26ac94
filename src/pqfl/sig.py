"""Pluggable digital-signature schemes.

Three quantum-resistant schemes are exposed behind one keygen/sign/verify
interface, plus a deterministic keyed-hash scheme for fast tests:

    wire code 1  Dilithium    ML-DSA (FIPS 204), via `cryptography`
    wire code 2  Falcon       FN-DSA (Falcon spec v1.2), in Python/numpy (pqfl.falcon)
    wire code 3  SPHINCS+     SLH-DSA (FIPS 205), via an OpenSSL >= 3.5 libcrypto (pqfl.slhdsa)
    wire code 4  TestScheme   HMAC-SHA256 presented through the same API

Parameter sets are fixed per process at import time (env vars
PQFL_DILITHIUM_SET, PQFL_FALCON_SET, PQFL_SPHINCS_SET), so metadata is
constant for the process lifetime. Defaults: ML-DSA-44, Falcon-1024,
SLH-DSA-SHA2-128s. Keys and signatures of the round-3 SPHINCS+ (as in
PQClean) do not verify under FIPS 205 SLH-DSA.

Adapters hold no mutable protocol state (at most internal caches of
immutable key objects) and are safe to call concurrently; key pairs are
immutable byte containers.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import hmac
import os
from dataclasses import dataclass

from pqfl.errors import AdapterFailure, UnsupportedScheme


class SchemeId(enum.IntEnum):
    """Signature scheme identifier; the numeric value is the wire code."""

    DILITHIUM = 1
    FALCON = 2
    SPHINCS_PLUS = 3
    TEST_SCHEME = 4

    @property
    def wire_code(self) -> int:
        return int(self)

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def from_wire(cls, code: int) -> "SchemeId":
        try:
            return cls(code)
        except ValueError:
            raise UnsupportedScheme(f"unknown scheme wire code {code}") from None

    @classmethod
    def from_label(cls, text: str) -> "SchemeId":
        key = text.strip().lower().replace("-", "").replace("_", "").replace("+", "")
        try:
            return _PARSE[key]
        except KeyError:
            raise UnsupportedScheme(f"unknown scheme name {text!r}") from None


_LABELS = {
    SchemeId.DILITHIUM: "dilithium",
    SchemeId.FALCON: "falcon",
    SchemeId.SPHINCS_PLUS: "sphincsplus",
    SchemeId.TEST_SCHEME: "testscheme",
}

_PARSE = {
    "dilithium": SchemeId.DILITHIUM,
    "mldsa": SchemeId.DILITHIUM,
    "falcon": SchemeId.FALCON,
    "fndsa": SchemeId.FALCON,
    "sphincs": SchemeId.SPHINCS_PLUS,
    "sphincsplus": SchemeId.SPHINCS_PLUS,
    "slhdsa": SchemeId.SPHINCS_PLUS,
    "testscheme": SchemeId.TEST_SCHEME,
    "test": SchemeId.TEST_SCHEME,
}

ALL_SCHEMES = (
    SchemeId.DILITHIUM,
    SchemeId.FALCON,
    SchemeId.SPHINCS_PLUS,
    SchemeId.TEST_SCHEME,
)

PQC_SCHEMES = (SchemeId.DILITHIUM, SchemeId.FALCON, SchemeId.SPHINCS_PLUS)


@dataclass(frozen=True)
class SchemeMetadata:
    name: str
    public_key_len: int
    secret_key_len: int
    signature_max_len: int
    parameter_set: str


@dataclass(frozen=True)
class KeyPair:
    scheme: SchemeId
    public_key: bytes
    secret_key: bytes

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


# --- Dilithium (ML-DSA) over `cryptography` -------------------------------

class _DilithiumAdapter:
    """ML-DSA adapter. Secret keys are held in 32-byte seed form and
    expanded on use; signing is hedged (non-deterministic) per FIPS 204.

    Expanded key objects are cached by their byte form, the 256 most
    recently used of each kind.
    """

    _SETS = {
        # parameter set -> (class name suffix, pk len, sig len)
        "ml-dsa-44": ("MLDSA44", 1312, 2420),
        "ml-dsa-65": ("MLDSA65", 1952, 3309),
        "ml-dsa-87": ("MLDSA87", 2592, 4627),
    }

    def __init__(self, parameter_set: str):
        from cryptography.hazmat.primitives.asymmetric import mldsa

        suffix, pk_len, sig_len = self._SETS[parameter_set]
        self._private = functools.lru_cache(maxsize=256)(
            getattr(mldsa, f"{suffix}PrivateKey").from_seed_bytes
        )
        self._public = functools.lru_cache(maxsize=256)(
            getattr(mldsa, f"{suffix}PublicKey").from_public_bytes
        )
        self.metadata = SchemeMetadata(
            name="Dilithium",
            public_key_len=pk_len,
            secret_key_len=32,
            signature_max_len=sig_len,
            parameter_set=parameter_set.upper(),
        )

    def keygen(self, seed: bytes | None) -> tuple[bytes, bytes]:
        sk_seed = seed if seed is not None else os.urandom(32)
        key = self._private(sk_seed)
        return key.public_key().public_bytes_raw(), sk_seed

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        try:
            return self._private(bytes(secret_key)).sign(message)
        except Exception as exc:
            raise AdapterFailure(f"ML-DSA sign failed: {exc}") from exc

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            self._public(bytes(public_key)).verify(signature, message)
            return True
        except Exception:
            return False


# --- deterministic keyed-hash test scheme ---------------------------------

class _TestSchemeAdapter:
    """HMAC-SHA256 presented through the sign/verify interface.

    NOT a public-key scheme and NOT post-quantum: the "public" key equals
    the MAC key, so any verifier can forge. Exists only to make unit tests
    fast and deterministic; strict protocol mode rejects it.
    """

    metadata = SchemeMetadata(
        name="TestScheme",
        public_key_len=32,
        secret_key_len=32,
        signature_max_len=32,
        parameter_set="HMAC-SHA256 (test only)",
    )

    def keygen(self, seed: bytes | None) -> tuple[bytes, bytes]:
        if seed is not None:
            key = hashlib.sha256(b"pqfl.testscheme.v1:" + seed).digest()
        else:
            key = os.urandom(32)
        return key, key

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return hmac.new(secret_key, message, hashlib.sha256).digest()

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        expected = hmac.new(public_key, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)


# --- adapter registry ------------------------------------------------------

_DILITHIUM_SET = os.environ.get("PQFL_DILITHIUM_SET", "ml-dsa-44").lower()
_FALCON_SET = os.environ.get("PQFL_FALCON_SET", "falcon-1024").lower()
_SPHINCS_SET = os.environ.get("PQFL_SPHINCS_SET", "sha2-128s").lower()

_SPHINCS_SETS = {
    "sha2-128s": "SLH-DSA-SHA2-128s",
    "sha2-128f": "SLH-DSA-SHA2-128f",
}

_adapters: dict[SchemeId, object] = {}


def _adapter(scheme: SchemeId):
    """The process-wide adapter for a scheme, built on first use.

    Falcon tables and the SLH-DSA libcrypto are only set up here, so
    importing this module stays cheap and Dilithium-only runs never pay
    for them.
    """
    if not isinstance(scheme, SchemeId):
        raise UnsupportedScheme(f"not a scheme id: {scheme!r}")
    found = _adapters.get(scheme)
    if found is None:
        if scheme == SchemeId.DILITHIUM:
            if _DILITHIUM_SET not in _DilithiumAdapter._SETS:
                raise UnsupportedScheme(f"unknown ML-DSA set {_DILITHIUM_SET!r}")
            found = _DilithiumAdapter(_DILITHIUM_SET)
        elif scheme == SchemeId.FALCON:
            from pqfl.falcon import PARAMS, Falcon

            if _FALCON_SET not in PARAMS:
                raise UnsupportedScheme(f"unknown Falcon set {_FALCON_SET!r}")
            found = Falcon(_FALCON_SET)
        elif scheme == SchemeId.SPHINCS_PLUS:
            from pqfl.slhdsa import SlhDsa

            if _SPHINCS_SET not in _SPHINCS_SETS:
                raise UnsupportedScheme(f"unknown SLH-DSA set {_SPHINCS_SET!r}")
            found = SlhDsa(_SPHINCS_SETS[_SPHINCS_SET])
        else:
            found = _TestSchemeAdapter()
        _adapters[scheme] = found
    return found


# --- public operations ------------------------------------------------------

def metadata(scheme: SchemeId) -> SchemeMetadata:
    """Constant size/name characteristics of the configured parameter set."""
    return _adapter(scheme).metadata


def keygen(scheme: SchemeId, seed: int | bytes | None = None) -> KeyPair:
    """Generate a key pair.

    A seed makes TestScheme, Dilithium and Falcon key generation
    deterministic; SLH-DSA keys always come from OpenSSL's entropy and the
    seed is ignored.
    """
    adapter = _adapter(scheme)
    public_key, secret_key = adapter.keygen(_normalize_seed(seed))
    meta = adapter.metadata
    if len(public_key) != meta.public_key_len or len(secret_key) != meta.secret_key_len:
        raise AdapterFailure(
            f"{meta.name} keygen returned unexpected key lengths "
            f"({len(public_key)}/{len(secret_key)})"
        )
    return KeyPair(scheme=scheme, public_key=public_key, secret_key=secret_key)


def sign(keypair: KeyPair, message: bytes | memoryview) -> SignatureBytes:
    """Sign a message with the key pair's scheme. The message may be any
    contiguous byte buffer; it is passed through without a copy."""
    if not message:
        raise ValueError("refusing to sign an empty message")
    data = _adapter(keypair.scheme).sign(keypair.secret_key, message)
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
