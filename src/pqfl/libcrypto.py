"""ML-DSA (FIPS 204) and SLH-DSA (FIPS 205) via an OpenSSL >= 3.5 libcrypto, reached with ctypes.

Python's own `ssl`/`hashlib` may link an older libcrypto without these
schemes, so a suitable library is looked up and loaded by path on first use:

    1. the path in $PQFL_LIBCRYPTO
    2. ctypes.util.find_library("crypto")
    3. lib/libcrypto.so* under sys.prefix, the running interpreter's own
       installation (a conda Python ships its own libcrypto there)
    4. lib/libcrypto.so* next to the `openssl` executable found on PATH

The first library whose OpenSSL_version_num() is at least 3.5.0 wins.
A signer is built from its parameter set's `sig.SchemeMetadata`, which
holds the key and signature sizes; the set name is the EVP algorithm name.
Signing uses pure mode with an empty context string; ML-DSA signing is
hedged (randomized) as FIPS 204 recommends. ctypes releases the GIL for
the duration of each native call, so signers in different threads overlap.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import glob
import hashlib
import os
import shutil
import sys

import numpy as np

from pqfl.errors import AdapterFailure, UnsupportedScheme
from pqfl.sig import SchemeMetadata

MIN_VERSION = 0x30500000


def _candidates() -> list[str]:
    found = [os.environ.get("PQFL_LIBCRYPTO", ""), ctypes.util.find_library("crypto") or ""]
    prefixes = [sys.prefix]
    openssl = shutil.which("openssl")
    if openssl:
        prefixes.append(os.path.dirname(os.path.dirname(os.path.realpath(openssl))))
    for prefix in prefixes:
        found += sorted(glob.glob(os.path.join(prefix, "lib", "libcrypto.so*")))
    return [path for path in found if path]


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    vp, cp, sz = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
    signatures = {
        "EVP_PKEY_CTX_new_from_name": ((vp, cp, cp), vp),
        "EVP_PKEY_CTX_free": ((vp,), None),
        "EVP_PKEY_keygen_init": ((vp,), ctypes.c_int),
        "EVP_PKEY_CTX_ctrl_str": ((vp, cp, cp), ctypes.c_int),
        "EVP_PKEY_generate": ((vp, ctypes.POINTER(vp)), ctypes.c_int),
        "EVP_PKEY_new_raw_private_key_ex": ((vp, cp, cp, cp, sz), vp),
        "EVP_PKEY_new_raw_public_key_ex": ((vp, cp, cp, cp, sz), vp),
        "EVP_PKEY_get_raw_private_key": ((vp, cp, ctypes.POINTER(sz)), ctypes.c_int),
        "EVP_PKEY_get_raw_public_key": ((vp, cp, ctypes.POINTER(sz)), ctypes.c_int),
        "EVP_PKEY_free": ((vp,), None),
        "EVP_MD_CTX_new": ((), vp),
        "EVP_MD_CTX_free": ((vp,), None),
        "EVP_DigestSignInit_ex": ((vp, vp, cp, vp, cp, vp, vp), ctypes.c_int),
        # messages go by address (void *), so any read-only buffer passes uncopied
        "EVP_DigestSign": ((vp, cp, ctypes.POINTER(sz), vp, sz), ctypes.c_int),
        "EVP_DigestVerifyInit_ex": ((vp, vp, cp, vp, cp, vp, vp), ctypes.c_int),
        "EVP_DigestVerify": ((vp, cp, sz, vp, sz), ctypes.c_int),
        "ERR_clear_error": ((), None),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def load_libcrypto() -> tuple[ctypes.CDLL, str]:
    """Load the first libcrypto that ships ML-DSA and SLH-DSA; returns (library, version)."""
    searched = []
    for path in _candidates():
        try:
            lib = ctypes.CDLL(path)
            version_num = lib.OpenSSL_version_num
        except (OSError, AttributeError) as exc:
            searched.append(f"{path} ({exc})")
            continue
        version_num.restype = ctypes.c_ulong
        version_num.argtypes = ()
        number = version_num()
        if number < MIN_VERSION:
            searched.append(f"{path} (version 0x{number:08x})")
            continue
        lib.OpenSSL_version.restype = ctypes.c_char_p
        lib.OpenSSL_version.argtypes = (ctypes.c_int,)
        return _bind(lib), lib.OpenSSL_version(0).decode()
    raise UnsupportedScheme(
        "ML-DSA and SLH-DSA need an OpenSSL >= 3.5 libcrypto; searched $PQFL_LIBCRYPTO, "
        "find_library('crypto'), the lib/ under sys.prefix and the lib/ next to "
        "`openssl` on PATH: "
        + ("; ".join(searched) or "no candidates found")
    )


def _by_address(message: bytes | memoryview) -> tuple[bytes | int, int]:
    """`message` as a void * argument and its length, without a copy: ctypes
    passes a `bytes` by address itself, and any other buffer goes through a
    numpy view of it."""
    if isinstance(message, bytes):
        return message, len(message)
    data = np.frombuffer(message, dtype=np.uint8)
    return data.ctypes.data, data.size


class _Key:
    """An owned EVP_PKEY *, freed once, when the last reference to it goes."""

    __slots__ = ("pointer", "_free")

    def __init__(self, pointer: int, free) -> None:
        self.pointer = pointer
        self._free = free

    def __del__(self) -> None:
        self._free(self.pointer)

    def __reduce__(self):  # a copy would free the same pointer a second time
        raise TypeError("an EVP_PKEY cannot be copied or pickled")


class EvpSigner:
    """One ML-DSA or SLH-DSA parameter set over a loaded libcrypto.

    A signing key is an owned EVP_PKEY (`_Key`) that the caller keeps, as
    `sig.KeyPair` does. Public keys are cached by their byte form, the 256
    most recently verified with, and freed when evicted.
    """

    def __init__(self, metadata: SchemeMetadata):
        self.metadata = metadata
        self._lib, self.library_version = load_libcrypto()
        self._name = metadata.parameter_set.encode()
        self._from_seed = metadata.parameter_set.startswith("ML-DSA")
        self._public = functools.lru_cache(maxsize=256)(
            functools.partial(self._import, self._lib.EVP_PKEY_new_raw_public_key_ex)
        )

    def _own(self, pointer: int | None, what: str) -> _Key:
        if not pointer:
            self._lib.ERR_clear_error()
            raise AdapterFailure(f"{self.metadata.parameter_set}: {what} failed")
        return _Key(pointer, self._lib.EVP_PKEY_free)

    def _import(self, new_raw_key, key: bytes) -> _Key:
        return self._own(new_raw_key(None, self._name, None, key, len(key)), "key import")

    def _generate(self, seed: bytes | None) -> _Key:
        """A new key, expanded from `seed` when given. "hexseed" sets the
        OSSL_PARAM "seed" from hex text, as `openssl genpkey -pkeyopt` does."""
        lib, pkey = self._lib, ctypes.c_void_p()
        ctx = lib.EVP_PKEY_CTX_new_from_name(None, self._name, None)
        try:
            if (
                ctx
                and lib.EVP_PKEY_keygen_init(ctx) == 1
                and (seed is None or lib.EVP_PKEY_CTX_ctrl_str(ctx, b"hexseed", seed.hex().encode()) == 1)
            ):
                lib.EVP_PKEY_generate(ctx, ctypes.byref(pkey))
        finally:
            lib.EVP_PKEY_CTX_free(ctx)
        return self._own(pkey.value, "key generation")

    def _raw(self, getter, key: _Key, length: int) -> bytes:
        out = ctypes.create_string_buffer(length)
        size = ctypes.c_size_t(length)
        if getter(key.pointer, out, ctypes.byref(size)) != 1 or size.value != length:
            raise AdapterFailure(f"{self.metadata.parameter_set}: could not export a raw key")
        return out.raw

    def keygen(self, seed: bytes | None) -> tuple[bytes, bytes, _Key]:
        """ML-DSA: the pair expanded from `seed` (fresh when None), with the seed
        as secret key. SLH-DSA: the pair FIPS 205 derives from SK.seed || SK.prf ||
        PK.seed, 3n bytes that SHAKE256 stretches `seed` to (fresh when None),
        with the raw 4n-byte secret key. Either comes with the key it was read
        from, which signs."""
        meta, lib = self.metadata, self._lib
        if self._from_seed:
            seed = seed if seed is not None else os.urandom(meta.secret_key_len)
            key = self._generate(seed)
            return self._raw(lib.EVP_PKEY_get_raw_public_key, key, meta.public_key_len), seed, key
        if seed is not None:  # the public key is PK.seed || PK.root, so n is half its length
            seed = hashlib.shake_256(seed).digest(3 * meta.public_key_len // 2)
        key = self._generate(seed)
        return (
            self._raw(lib.EVP_PKEY_get_raw_public_key, key, meta.public_key_len),
            self._raw(lib.EVP_PKEY_get_raw_private_key, key, meta.secret_key_len),
            key,
        )

    def signing_key(self, secret_key: bytes) -> _Key:
        """The key that signs for `secret_key`: an ML-DSA seed expanded, or an
        SLH-DSA secret key imported."""
        meta = self.metadata
        if len(secret_key) != meta.secret_key_len:
            raise AdapterFailure(
                f"{meta.parameter_set} secret key must be {meta.secret_key_len} bytes, "
                f"got {len(secret_key)}"
            )
        if self._from_seed:
            return self._generate(bytes(secret_key))
        return self._import(self._lib.EVP_PKEY_new_raw_private_key_ex, bytes(secret_key))

    def sign(self, key: _Key, message: bytes | memoryview) -> bytes:
        data, size = _by_address(message)
        meta, lib = self.metadata, self._lib
        ctx = lib.EVP_MD_CTX_new()
        try:
            out = ctypes.create_string_buffer(meta.signature_max_len)
            out_len = ctypes.c_size_t(meta.signature_max_len)
            if not (
                ctx
                and lib.EVP_DigestSignInit_ex(ctx, None, None, None, None, key.pointer, None) == 1
                and lib.EVP_DigestSign(ctx, out, ctypes.byref(out_len), data, size) == 1
            ):
                lib.ERR_clear_error()
                raise AdapterFailure(f"{meta.parameter_set} sign failed")
            return out.raw[: out_len.value]
        finally:
            lib.EVP_MD_CTX_free(ctx)

    def verify(self, public_key: bytes, message: bytes | memoryview, signature: bytes) -> bool:
        data, size = _by_address(message)
        meta = self.metadata
        if len(public_key) != meta.public_key_len or len(signature) != meta.signature_max_len:
            return False
        key = self._public(public_key)  # raises AdapterFailure on a malformed key
        lib = self._lib
        ctx = lib.EVP_MD_CTX_new()
        try:
            ok = bool(
                ctx
                and lib.EVP_DigestVerifyInit_ex(ctx, None, None, None, None, key.pointer, None) == 1
                and lib.EVP_DigestVerify(ctx, signature, len(signature), data, size)
                == 1
            )
            if not ok:
                lib.ERR_clear_error()
            return ok
        finally:
            lib.EVP_MD_CTX_free(ctx)
