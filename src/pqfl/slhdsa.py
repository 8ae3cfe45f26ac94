"""SLH-DSA (FIPS 205) through an OpenSSL >= 3.5 libcrypto, reached with ctypes.

Python's own `ssl`/`hashlib` may link an older libcrypto without SLH-DSA,
so a suitable library is looked up and loaded by path on first use:

    1. the path in $PQFL_LIBCRYPTO
    2. ctypes.util.find_library("crypto")
    3. lib/libcrypto.so* under sys.prefix, the running interpreter's own
       installation (a conda Python ships its own libcrypto there)
    4. lib/libcrypto.so* next to the `openssl` executable found on PATH

The first library whose OpenSSL_version_num() is at least 3.5.0 wins.
Signing uses pure mode with an empty context string. Every EVP object a
call creates is freed before the call returns; ctypes releases the GIL for
the duration of each native call, so signers in different threads overlap.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import os
import shutil
import sys

import numpy as np

from pqfl.errors import AdapterFailure, UnsupportedScheme
from pqfl.sig import SchemeMetadata

MIN_VERSION = 0x30500000

# parameter set -> (public key, secret key, signature) lengths, FIPS 205 Table 2
SIZES = {
    "SLH-DSA-SHA2-128s": (32, 64, 7856),
    "SLH-DSA-SHA2-128f": (32, 64, 17088),
}


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
        "EVP_PKEY_Q_keygen": ((vp, cp, cp), vp),
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
    """Load the first libcrypto that ships SLH-DSA; returns (library, version)."""
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
        "SLH-DSA needs an OpenSSL >= 3.5 libcrypto; searched $PQFL_LIBCRYPTO, "
        "find_library('crypto'), the lib/ under sys.prefix and the lib/ next to "
        "`openssl` on PATH: "
        + ("; ".join(searched) or "no candidates found")
    )


class SlhDsa:
    """One SLH-DSA parameter set over a loaded libcrypto."""

    def __init__(self, parameter_set: str):
        pk_len, sk_len, sig_len = SIZES[parameter_set]
        self.metadata = SchemeMetadata(
            name="SPHINCS+",
            public_key_len=pk_len,
            secret_key_len=sk_len,
            signature_max_len=sig_len,
            parameter_set=parameter_set,
        )
        self._lib, self.library_version = load_libcrypto()
        self._name = parameter_set.encode()

    def _raw(self, getter, pkey, length: int) -> bytes:
        out = ctypes.create_string_buffer(length)
        size = ctypes.c_size_t(length)
        if getter(pkey, out, ctypes.byref(size)) != 1 or size.value != length:
            raise AdapterFailure(f"{self.metadata.parameter_set}: could not export a raw key")
        return out.raw

    def keygen(self, seed: bytes | None) -> tuple[bytes, bytes]:
        """A fresh key pair from OpenSSL's entropy; `seed` is not used."""
        lib = self._lib
        pkey = lib.EVP_PKEY_Q_keygen(None, None, self._name)
        if not pkey:
            lib.ERR_clear_error()
            raise AdapterFailure(f"{self.metadata.parameter_set} key generation failed")
        try:
            return (
                self._raw(lib.EVP_PKEY_get_raw_public_key, pkey, self.metadata.public_key_len),
                self._raw(lib.EVP_PKEY_get_raw_private_key, pkey, self.metadata.secret_key_len),
            )
        finally:
            lib.EVP_PKEY_free(pkey)

    def sign(self, secret_key: bytes, message: bytes | memoryview) -> bytes:
        data = np.frombuffer(message, dtype=np.uint8)  # the message in place, passed by address
        meta = self.metadata
        if len(secret_key) != meta.secret_key_len:
            raise AdapterFailure(
                f"{meta.parameter_set} secret key must be {meta.secret_key_len} bytes, "
                f"got {len(secret_key)}"
            )
        lib = self._lib
        pkey = lib.EVP_PKEY_new_raw_private_key_ex(
            None, self._name, None, secret_key, len(secret_key)
        )
        ctx = lib.EVP_MD_CTX_new() if pkey else None
        try:
            out = ctypes.create_string_buffer(meta.signature_max_len)
            size = ctypes.c_size_t(meta.signature_max_len)
            if not (
                ctx
                and lib.EVP_DigestSignInit_ex(ctx, None, None, None, None, pkey, None) == 1
                and lib.EVP_DigestSign(ctx, out, ctypes.byref(size), data.ctypes.data, data.size) == 1
            ):
                lib.ERR_clear_error()
                raise AdapterFailure(f"{meta.parameter_set} sign failed")
            return out.raw[: size.value]
        finally:
            lib.EVP_MD_CTX_free(ctx)
            lib.EVP_PKEY_free(pkey)

    def verify(self, public_key: bytes, message: bytes | memoryview, signature: bytes) -> bool:
        data = np.frombuffer(message, dtype=np.uint8)  # the message in place, passed by address
        meta = self.metadata
        if len(public_key) != meta.public_key_len or len(signature) != meta.signature_max_len:
            return False
        lib = self._lib
        pkey = lib.EVP_PKEY_new_raw_public_key_ex(
            None, self._name, None, public_key, len(public_key)
        )
        ctx = lib.EVP_MD_CTX_new() if pkey else None
        try:
            ok = bool(
                ctx
                and lib.EVP_DigestVerifyInit_ex(ctx, None, None, None, None, pkey, None) == 1
                and lib.EVP_DigestVerify(ctx, signature, len(signature), data.ctypes.data, data.size)
                == 1
            )
            if not ok:
                lib.ERR_clear_error()
            return ok
        finally:
            lib.EVP_MD_CTX_free(ctx)
            lib.EVP_PKEY_free(pkey)
