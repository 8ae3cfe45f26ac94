"""FN-DSA (Falcon) signatures in Python and numpy.

Written from the Falcon specification v1.2 (Fouque et al., 2020), the
basis of draft FIPS 206:

* key generation samples short f, g from a discrete Gaussian, solves the
  NTRU equation f*G - g*F = q with NTRUSolve (field-norm descent, extended
  gcd, lift and Babai reduction on big integers) and publishes
  h = g * f^-1 mod q;
* signing hashes nonce || message to a point with SHAKE256 and draws a
  short preimage with fast Fourier sampling (ffSampling) over the Falcon
  tree of the secret basis, resampling until the norm bound holds;
* verification recomputes s1 = c - s2*h with exact NTT arithmetic mod q.

Keys and signatures use the standard encodings: public key header 0x00+logn
followed by 14-bit coefficients of h; secret key header 0x50+logn followed
by f, g and F (G is recomputed); signature header 0x30+logn, a 40-byte
nonce and the compressed s2. Decompression is strict (header, "-0",
padding bits, trailing bytes, short input), so every malformed signature
is rejected.

Key generation is deterministic in its 32-byte seed, which it expands in
a pqfl-specific way (f and g by inverse CDF from a tagged SHAKE256
stream), so the same seed gives different keys than the reference
implementation. Byte compatibility with the reference implementation is
unverified: no known-answer vectors are in the repository. Signing draws
nonce and sampler randomness from the OS. This code is not
constant-time; it exists to measure and exercise the scheme, not to keep
secrets from a co-located attacker.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from pqfl.errors import AdapterFailure
from pqfl.sig import SchemeMetadata

Q = 12289
_SIGMA_MAX = 1.8205
_NONCE_LEN = 40


@dataclass(frozen=True)
class _Params:
    logn: int
    sigma: float
    sigma_min: float
    beta_sq: int
    fg_bits: int

    @property
    def n(self) -> int:
        return 1 << self.logn


# Falcon specification v1.2, Table 3.3, by parameter set name. Key and
# signature sizes and the payload digest are the set's sig.SchemeMetadata.
PARAMS = {
    "Falcon-512": _Params(9, 165.7366171829776, 1.2778336969128337, 34034726, 6),
    "Falcon-1024": _Params(10, 168.38857144654395, 1.298280334344292, 70265242, 5),
}


# --- complex FFT over R[x]/(x^n + 1) -------------------------------------------
#
# A polynomial is represented by its values at the n roots of x^n + 1, kept
# in "split order": the values at positions 2j and 2j+1 are at the two square
# roots (s, -s) of the j-th root of x^(n/2) + 1. Splitting f(x) =
# f0(x^2) + x*f1(x^2) and merging back are then elementwise operations.

@functools.lru_cache(maxsize=None)
def _fft_tables(n: int):
    theta = np.array([np.pi])
    while len(theta) < n:
        half = theta / 2
        theta = np.stack([half, half + np.pi], axis=1).reshape(-1)
    # root e^{i*theta} = e^{i*pi*(2k+1)/n}; k is its index in numpy's ordering
    order = np.rint((theta * n / np.pi - 1) / 2).astype(np.int64) % n
    twist = np.exp(1j * np.pi * np.arange(n) / n)
    zeta = np.exp(1j * theta[0::2])
    return order, twist, zeta, 0.5 / zeta


def _fft(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    order, twist, _, _ = _fft_tables(len(a))
    return (np.fft.ifft(a * twist) * len(a))[order]


def _ifft(v: np.ndarray) -> np.ndarray:
    n = len(v)
    order, twist, _, _ = _fft_tables(n)
    natural = np.empty(n, dtype=np.complex128)
    natural[order] = v
    return (np.fft.fft(natural) * np.conj(twist)).real / n


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _, _, _, half_inv_zeta = _fft_tables(len(v))
    even, odd = v[0::2], v[1::2]
    return (even + odd) * 0.5, (even - odd) * half_inv_zeta


def _merge(v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    _, _, zeta, _ = _fft_tables(2 * len(v0))
    t = v1 * zeta
    return np.stack([v0 + t, v0 - t], axis=1).reshape(-1)


# --- exact NTT modulo q ------------------------------------------------------------

class _Ntt:
    """Negacyclic number-theoretic transform of length n modulo q."""

    def __init__(self, n: int):
        generator = next(
            x for x in range(2, Q)
            if pow(x, (Q - 1) // 2, Q) != 1 and pow(x, (Q - 1) // 3, Q) != 1
        )
        psi = pow(generator, (Q - 1) // (2 * n), Q)
        psi_inv, n_inv = pow(psi, -1, Q), pow(n, -1, Q)
        powers = np.arange(n)
        self._pre = np.array([pow(psi, int(i), Q) for i in powers], dtype=np.int64)
        self._post = np.array([pow(psi_inv, int(i), Q) * n_inv % Q for i in powers], dtype=np.int64)
        bits = n.bit_length() - 1
        self._rev = np.array([int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]) if bits else powers
        omega, omega_inv = psi * psi % Q, psi_inv * psi_inv % Q
        self._stages = []
        m = 1
        while m < n:
            step = n // (2 * m)
            self._stages.append((
                m,
                np.array([pow(omega, j * step, Q) for j in range(m)], dtype=np.int64),
                np.array([pow(omega_inv, j * step, Q) for j in range(m)], dtype=np.int64),
            ))
            m *= 2

    def _cyclic(self, a: np.ndarray, inverse: bool) -> np.ndarray:
        a = a[self._rev]
        for m, forward, backward in self._stages:
            a = a.reshape(-1, 2, m)
            t = a[:, 1, :] * (backward if inverse else forward) % Q
            u = a[:, 0, :]
            a = np.concatenate((u + t, u - t + Q), axis=1) % Q
        return a.reshape(-1)

    def forward(self, a) -> np.ndarray:
        return self._cyclic(np.asarray(a, dtype=np.int64) % Q * self._pre % Q, False)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return self._cyclic(a, True) * self._post % Q


def _inv_mod_q(a: np.ndarray) -> np.ndarray:
    result, base, e = np.ones_like(a), a.copy(), Q - 2
    while e:
        if e & 1:
            result = result * base % Q
        base = base * base % Q
        e >>= 1
    return result


def _center(a: np.ndarray) -> np.ndarray:
    return np.where(a > Q // 2, a - Q, a)


# --- big-integer polynomial arithmetic for NTRUSolve ---------------------------------

def _bits(*polys: list[int]) -> int:
    return max(max(map(abs, p)) for p in polys).bit_length()


def _offset(count: int, slot_bytes: int) -> int:
    return int.from_bytes((b"\x00" * (slot_bytes - 1) + b"\x80") * count, "little")


def _pack(a: list[int], slot_bytes: int) -> int:
    half = 1 << (8 * slot_bytes - 1)
    raw = b"".join((x + half).to_bytes(slot_bytes, "little") for x in a)
    return int.from_bytes(raw, "little") - _offset(len(a), slot_bytes)


def _unpack(value: int, slot_bytes: int, count: int) -> list[int]:
    half = 1 << (8 * slot_bytes - 1)
    raw = (value + _offset(count, slot_bytes)).to_bytes(count * slot_bytes, "little")
    return [
        int.from_bytes(raw[i:i + slot_bytes], "little") - half
        for i in range(0, count * slot_bytes, slot_bytes)
    ]


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[x]/(x^n + 1), by Kronecker substitution on Python ints."""
    n = len(a)
    if n == 1:
        return [a[0] * b[0]]
    slot_bytes = (_bits(a) + _bits(b) + n.bit_length() + 8) // 8
    packed_a = _pack(a, slot_bytes)
    packed_b = packed_a if b is a else _pack(b, slot_bytes)
    c = _unpack(packed_a * packed_b, slot_bytes, 2 * n - 1)
    return [c[i] - c[i + n] for i in range(n - 1)] + [c[n - 1]]


def _field_norm(f: list[int]) -> list[int]:
    """N(f)(y) = f0(y)^2 - y*f1(y)^2 where f(x) = f0(x^2) + x*f1(x^2)."""
    even, odd = _mul(f[0::2], f[0::2]), _mul(f[1::2], f[1::2])
    shifted = [-odd[-1]] + odd[:-1]
    return [a - b for a, b in zip(even, shifted)]


def _lift(small: list[int], other: list[int]) -> list[int]:
    """small(x^2) * other(-x), with other(-x) = o0(x^2) - x*o1(x^2)."""
    out = [0] * (2 * len(small))
    out[0::2] = _mul(small, other[0::2])
    out[1::2] = [-x for x in _mul(small, other[1::2])]
    return out


def _adj(f: list[int]) -> list[int]:
    """f(1/x) in Z[x]/(x^n + 1)."""
    return [f[0]] + [-x for x in reversed(f[1:])]


def _adjugate(d: list[int]) -> tuple[list[int], int]:
    """(a, r) with d*a = r, r the resultant of d and x^n + 1."""
    if len(d) == 1:
        return [1], d[0]
    sub, r = _adjugate(_field_norm(d))
    spread = [0] * len(d)
    spread[0::2] = sub
    return _mul([x if i % 2 == 0 else -x for i, x in enumerate(d)], spread), r


class _Retry(Exception):
    """This (f, g) has no usable NTRU solution; draw a new pair."""


_EXACT_BELOW = 16


def _reduce_exact(f: list[int], g: list[int], F: list[int], G: list[int]):
    """One Babai step with k rounded exactly in rational arithmetic."""
    adj_f, adj_g = _adj(f), _adj(g)
    num = [a + b for a, b in zip(_mul(F, adj_f), _mul(G, adj_g))]
    den = [a + b for a, b in zip(_mul(f, adj_f), _mul(g, adj_g))]
    adjugate, r = _adjugate(den)  # r > 0: den is positive at every root
    k = [(2 * x + r) // (2 * r) for x in _mul(num, adjugate)]
    fk, gk = _mul(f, k), _mul(g, k)
    return [a - b for a, b in zip(F, fk)], [a - b for a, b in zip(G, gk)]


def _reduce(f: list[int], g: list[int], F: list[int], G: list[int]):
    """Babai-reduce (F, G) against (f, g) until no multiple of (f, g) helps.

    Each pass estimates k = (F*adj(f) + G*adj(g)) / (f*adj(f) + g*adj(g))
    from 53-bit approximations. Truncating F to 53 bits leaves k with an
    absolute error of about n * 2^(bits(F) - 53) / min|(f, g)(z)| over the roots z,
    so a pass rounds k to a multiple 2^t above that error and removes
    about bits(F) - bits(f) - t bits. Where the floats cannot resolve
    (f, g) at some root, where they stop making progress, and at small n
    where it is cheap, k is rounded exactly instead.
    """
    n = len(f)
    if n < _EXACT_BELOW:
        return _reduce_exact(f, g, F, G)
    shift_f = max(0, _bits(f, g) - 53)
    fa = _fft([x >> shift_f for x in f])
    ga = _fft([x >> shift_f for x in g])
    fa_adj, ga_adj = np.conj(fa), np.conj(ga)
    den = (fa * fa_adj + ga * ga_adj).real
    den_min = den.min()
    if den_min <= 0 or (shift_f and den_min < 4.0 ** (n.bit_length() + 4)):
        return _reduce_exact(f, g, F, G)
    log_min = 0.5 * math.log2(den_min)
    size = _bits(F, G)
    for _ in range(1000):
        shift_F = max(0, size - 53)
        Fa = _fft([x >> shift_F for x in F])
        Ga = _fft([x >> shift_F for x in G])
        quotient = _ifft((Fa * fa_adj + Ga * ga_adj) / den)
        t = max(0, math.ceil(n.bit_length() + size - 53 - shift_f - log_min) + 2)
        k = np.rint(np.ldexp(quotient, shift_F - shift_f - t))
        if not k.any():
            return (F, G) if t == 0 else _reduce_exact(f, g, F, G)
        k = [int(x) for x in k]
        fk, gk = _mul(f, k), _mul(g, k)
        F = [a - (b << t) for a, b in zip(F, fk)]
        G = [a - (b << t) for a, b in zip(G, gk)]
        reduced = _bits(F, G)
        if t and reduced >= size:
            return _reduce_exact(f, g, F, G)
        size = reduced
    raise _Retry


def _ntru_solve(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """(F, G) with f*G - g*F = q in Z[x]/(x^n + 1), reduced against (f, g)."""
    if len(f) == 1:
        a, b = f[0], g[0]
        if b == 0 or math.gcd(a, b) != 1:
            raise _Retry
        u = pow(a, -1, abs(b))
        v = (1 - u * a) // b
        return [-Q * v], [Q * u]
    F_small, G_small = _ntru_solve(_field_norm(f), _field_norm(g))
    return _reduce(f, g, _lift(F_small, g), _lift(G_small, f))


# --- encodings -------------------------------------------------------------------------

def _pack_bits(values: np.ndarray, width: int) -> bytes:
    """Big-endian bit string of `width`-bit fields (two's complement)."""
    fields = np.asarray(values, dtype=np.int64) & ((1 << width) - 1)
    bits = (fields[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return np.packbits(bits.astype(np.uint8)).tobytes()


def _unpack_bits(data: bytes, count: int, width: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[: count * width]
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return bits.reshape(count, width).astype(np.int64) @ weights


def _decode_trimmed(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of _pack_bits for signed fields; -2^(width-1) is not allowed."""
    values = _unpack_bits(data, count, width)
    values = np.where(values >= 1 << (width - 1), values - (1 << width), values)
    if (values == -(1 << (width - 1))).any():
        raise AdapterFailure("Falcon secret key holds an out-of-range coefficient")
    return values


def _compress(s2: list[int], max_bytes: int) -> bytes | None:
    parts = []
    for x in s2:
        a = abs(x)
        if a > 2047:
            return None
        parts.append(("1" if x < 0 else "0") + format(a & 127, "07b") + "0" * (a >> 7) + "1")
    bit_string = "".join(parts)
    bit_string += "0" * (-len(bit_string) % 8)
    nbytes = len(bit_string) // 8
    if nbytes > max_bytes:
        return None
    return int(bit_string, 2).to_bytes(nbytes, "big")


def _decompress(data: bytes, n: int) -> list[int] | None:
    """Strict inverse of _compress; None for any malformed input."""
    total = 8 * len(data)
    bit_string = (np.unpackbits(np.frombuffer(data, dtype=np.uint8)) + 48).tobytes().decode("ascii")
    out, pos = [], 0
    for _ in range(n):
        if pos + 8 > total:
            return None
        low = int(bit_string[pos + 1:pos + 8], 2)
        stop = bit_string.find("1", pos + 8)
        if stop < 0 or stop - (pos + 8) > 15:
            return None
        value = low + 128 * (stop - pos - 8)
        if bit_string[pos] == "1":
            if value == 0:
                return None
            value = -value
        out.append(value)
        pos = stop + 1
    if -(-pos // 8) != len(data) or "1" in bit_string[pos:]:
        return None
    return out


def _hash_to_point(nonce: bytes, message: bytes, n: int) -> np.ndarray:
    xof = hashlib.shake_256(nonce)
    xof.update(message)
    length = 2 * n + n // 2
    while True:
        words = np.frombuffer(xof.digest(length), dtype=">u2")
        words = words[words < 5 * Q]
        if len(words) >= n:
            return (words[:n] % Q).astype(np.int64)
        length *= 2


# --- Gaussian sampling ------------------------------------------------------------------

def _gaussian_cdf(sigma: float) -> tuple[np.ndarray, int]:
    """CDF of the discrete Gaussian of width sigma, cut at 12 sigma."""
    bound = int(math.ceil(12 * sigma))
    support = np.arange(-bound, bound + 1)
    weights = np.exp(-support.astype(np.float64) ** 2 / (2 * sigma * sigma))
    return np.cumsum(weights / weights.sum())[:-1], bound


def _uniform(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


class _Sampler:
    """SamplerZ (spec Algorithm 15) over a pool of OS randomness.

    Proposals z = b + (2b-1)*z0, with z0 from the half-Gaussian of width
    sigma_max, are drawn in bulk; each call then only evaluates the
    rejection test exp(-x) against a uniform.
    """

    _BASE_CDF = np.cumsum(np.exp(-np.arange(19.0) ** 2 / (2 * _SIGMA_MAX ** 2)))

    def __init__(self, count: int):
        self._count = count
        self._refill()

    def _refill(self) -> None:
        words = np.frombuffer(os.urandom(16 * self._count), dtype=np.uint64).reshape(2, -1)
        cdf = self._BASE_CDF
        z0 = np.searchsorted(cdf / cdf[-1], _uniform(words[0]), side="right")
        b = (words[0] & np.uint64(1)).astype(np.int64)
        self._z = (b + (2 * b - 1) * z0).tolist()
        self._correction = (z0 * z0 / (2 * _SIGMA_MAX ** 2)).tolist()
        self._u = _uniform(words[1]).tolist()
        self._next = 0

    def __call__(self, mu: float, inv_2sigma_sq: float, ccs: float) -> int:
        floor = math.floor(mu)
        r = mu - floor
        while True:
            if self._next == self._count:
                self._refill()
            i = self._next
            self._next += 1
            z = self._z[i]
            x = (z - r) * (z - r) * inv_2sigma_sq - self._correction[i]
            if self._u[i] < ccs * math.exp(-x):
                return z + floor


# --- Falcon tree and fast Fourier sampling ----------------------------------------------

def _ffldl(g00: np.ndarray, g01: np.ndarray, g11: np.ndarray, leaf):
    """LDL* tree of the self-adjoint 2x2 Gram matrix [[g00, g01], [adj g01, g11]]."""
    l10 = np.conj(g01) / g00
    d11 = g11 - (g01 * np.conj(g01)) / g00
    if len(g00) == 2:
        return complex(l10[0]), leaf(g00[0].real), leaf(d11[0].real)
    a0, a1 = _split(g00)
    b0, b1 = _split(d11)
    return l10, _ffldl(a0, a1, a0, leaf), _ffldl(b0, b1, b0, leaf)


def _ff_sampling(t0: np.ndarray, t1: np.ndarray, tree, sample) -> tuple[np.ndarray, np.ndarray]:
    l10, tree0, tree1 = tree
    if len(t0) == 2:
        # values at x = i: a real polynomial a + b*x splits into (a, b)
        v = complex(t1[0])
        z1 = complex(sample(v.real, *tree1), sample(v.imag, *tree1))
        w = complex(t0[0]) + (v - z1) * l10
        z0 = complex(sample(w.real, *tree0), sample(w.imag, *tree0))
        return np.array([z0, z0.conjugate()]), np.array([z1, z1.conjugate()])
    z1 = _merge(*_ff_sampling(*_split(t1), tree1, sample))
    t0b = t0 + (t1 - z1) * l10
    z0 = _merge(*_ff_sampling(*_split(t0b), tree0, sample))
    return z0, z1


@dataclass(frozen=True)
class _SigningKey:
    f_fft: np.ndarray
    F_fft: np.ndarray
    g_fft: np.ndarray
    G_fft: np.ndarray
    tree: tuple


class Falcon:
    """One Falcon parameter set: keygen, sign and verify over byte strings.

    Expanding a secret key (decoding, recomputing G, checking the NTRU
    equation, building the Falcon tree) is a third of the cost of a
    Falcon-1024 signature, so `signing_key` hands the expanded key to the
    caller to keep: `sig.KeyPair` holds it from its first signature on. An
    expanded key takes about 430 bytes per coefficient (numpy arrays plus
    the Python objects at the leaves of the tree, measured with tracemalloc),
    about 0.43 MB for Falcon-1024. Key generation builds none, so a pair
    that never signs holds none.
    """

    def __init__(self, metadata: SchemeMetadata):
        self.metadata = metadata
        p = self._params = PARAMS[metadata.parameter_set]
        n = p.n
        self._ntt = _Ntt(n)
        self._keygen_cdf = _gaussian_cdf(1.17 * math.sqrt(Q / (2 * n)))

    # key generation

    def _draw_fg(self, seed: bytes, attempt: int) -> np.ndarray:
        n = self._params.n
        stream = hashlib.shake_256(
            b"pqfl.falcon.keygen.v1" + bytes([self._params.logn]) + seed + attempt.to_bytes(4, "little")
        ).digest(16 * n)
        cdf, bound = self._keygen_cdf
        u = _uniform(np.frombuffer(stream, dtype="<u8"))
        return np.searchsorted(cdf, u, side="right").astype(np.int64) - bound

    def keygen(self, seed: bytes | None) -> tuple[bytes, bytes, None]:
        p = self._params
        n = p.n
        seed = seed if seed is not None else os.urandom(32)
        fg_limit = (1 << (p.fg_bits - 1)) - 1
        norm_bound = 1.17 * 1.17 * Q
        for attempt in range(1000):
            z = self._draw_fg(seed, attempt)
            f, g = z[:n], z[n:]
            if np.abs(z).max() > fg_limit or (f.sum() % 2 == 0 and g.sum() % 2 == 0):
                continue
            if int(z @ z) > norm_bound:
                continue
            den = np.abs(_fft(f)) ** 2 + np.abs(_fft(g)) ** 2
            if Q * Q / n * np.sum(1.0 / den) > norm_bound:
                continue
            f_ntt = self._ntt.forward(f)
            if not f_ntt.all():
                continue
            try:
                F, G = _ntru_solve(f.tolist(), g.tolist())
            except _Retry:
                continue
            if max(map(abs, F + G)) > 127:
                continue
            h = self._ntt.inverse(self._ntt.forward(g) * _inv_mod_q(f_ntt) % Q)
            public_key = bytes([p.logn]) + _pack_bits(h, 14)
            secret_key = (
                bytes([0x50 + p.logn])
                + _pack_bits(f, p.fg_bits)
                + _pack_bits(g, p.fg_bits)
                + _pack_bits(np.array(F), 8)
            )
            return public_key, secret_key, None
        raise AdapterFailure("Falcon key generation did not converge")

    # signing

    def signing_key(self, secret_key: bytes) -> _SigningKey:
        p, meta = self._params, self.metadata
        n = p.n
        if len(secret_key) != meta.secret_key_len or secret_key[0] != 0x50 + p.logn:
            raise AdapterFailure(
                f"Falcon secret key must be {meta.secret_key_len} bytes with header "
                f"0x{0x50 + p.logn:02x}, got {len(secret_key)} bytes"
            )
        fg_len = p.fg_bits * n // 8
        f = _decode_trimmed(secret_key[1:1 + fg_len], n, p.fg_bits)
        g = _decode_trimmed(secret_key[1 + fg_len:1 + 2 * fg_len], n, p.fg_bits)
        F = _decode_trimmed(secret_key[1 + 2 * fg_len:], n, 8)
        f_ntt = self._ntt.forward(f)
        if not f_ntt.all():
            raise AdapterFailure("Falcon secret key f is not invertible mod q")
        G = _center(self._ntt.inverse(self._ntt.forward(g) * self._ntt.forward(F) % Q * _inv_mod_q(f_ntt) % Q))
        f_fft, g_fft, F_fft, G_fft = (_fft(x) for x in (f, g, F, G))
        ntru = np.rint(_ifft(f_fft * G_fft - g_fft * F_fft))
        if np.abs(G).max() > 127 or ntru[0] != Q or ntru[1:].any():
            raise AdapterFailure("Falcon secret key does not satisfy the NTRU equation")
        g00 = g_fft * np.conj(g_fft) + f_fft * np.conj(f_fft)
        g01 = g_fft * np.conj(G_fft) + f_fft * np.conj(F_fft)
        g11 = G_fft * np.conj(G_fft) + F_fft * np.conj(F_fft)

        def leaf(value: float) -> tuple[float, float]:
            # SamplerZ needs sigma_min <= sigma' <= sigma_max; the key
            # generation norm checks guarantee it for every valid key
            sigma_leaf = p.sigma / math.sqrt(value) if value > 0 else 0.0
            if not p.sigma_min * (1 - 1e-9) <= sigma_leaf <= _SIGMA_MAX:
                raise AdapterFailure("Falcon secret key basis is not short enough to sign with")
            return 1.0 / (2 * sigma_leaf * sigma_leaf), p.sigma_min / sigma_leaf

        return _SigningKey(f_fft, F_fft, g_fft, G_fft, _ffldl(g00, g01, g11, leaf))

    def sign(self, key: _SigningKey, message: bytes) -> bytes:
        p = self._params
        n = p.n
        nonce = os.urandom(_NONCE_LEN)
        c_fft = _fft(_hash_to_point(nonce, message, n))
        t0 = -c_fft * key.F_fft / Q
        t1 = c_fft * key.f_fft / Q
        sample = _Sampler(3 * n)
        for _ in range(100):
            z0, z1 = _ff_sampling(t0, t1, key.tree, sample)
            d0, d1 = t0 - z0, t1 - z1
            s1 = np.rint(_ifft(d0 * key.g_fft + d1 * key.G_fft))
            s2 = np.rint(_ifft(-(d0 * key.f_fft + d1 * key.F_fft)))
            if s1 @ s1 + s2 @ s2 > p.beta_sq:
                continue
            body = _compress(s2.astype(np.int64).tolist(), self.metadata.signature_max_len - 1 - _NONCE_LEN)
            if body is not None:
                return bytes([0x30 + p.logn]) + nonce + body
        raise AdapterFailure("Falcon signing found no short signature")

    # verification

    def _public_key(self, public_key: bytes) -> np.ndarray | None:
        p = self._params
        if len(public_key) != self.metadata.public_key_len or public_key[0] != p.logn:
            return None
        h = _unpack_bits(public_key[1:], p.n, 14)
        if (h >= Q).any():
            return None
        return self._ntt.forward(h)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        p = self._params
        n = p.n
        h_ntt = self._public_key(bytes(public_key))
        if (
            h_ntt is None
            or not 1 + _NONCE_LEN < len(signature) <= self.metadata.signature_max_len
            or signature[0] != 0x30 + p.logn
        ):
            return False
        s2 = _decompress(signature[1 + _NONCE_LEN:], n)
        if s2 is None:
            return False
        s2 = np.array(s2, dtype=np.int64)
        c = _hash_to_point(signature[1:1 + _NONCE_LEN], message, n)
        s1 = _center((c - self._ntt.inverse(self._ntt.forward(s2) * h_ntt % Q)) % Q)
        return int(s1 @ s1 + s2 @ s2) <= p.beta_sq
