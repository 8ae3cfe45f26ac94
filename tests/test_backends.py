"""The Falcon (pqfl.falcon) and libcrypto (pqfl.libcrypto: ML-DSA, SLH-DSA) backends behind sig."""

import copy
import hashlib
import math
import random
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from pqfl import falcon, sig
from pqfl.errors import AdapterFailure, UnsupportedScheme
from pqfl.sig import SchemeId


def schoolbook(a, b):
    """Product in Z[x]/(x^n + 1), the reference for the fast paths."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
            else:
                out[i + j - n] -= x * y
    return out


def falcon_parts(backend, secret_key):
    p = backend._params
    width = p.fg_bits * p.n // 8
    f = falcon._decode_trimmed(secret_key[1:1 + width], p.n, p.fg_bits)
    g = falcon._decode_trimmed(secret_key[1 + width:1 + 2 * width], p.n, p.fg_bits)
    F = falcon._decode_trimmed(secret_key[1 + 2 * width:], p.n, 8)
    return f, g, F


# --- Falcon ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 32])
def test_big_integer_product_matches_schoolbook(n):
    rng = random.Random(n)
    a = [rng.randint(-2 ** 300, 2 ** 300) for _ in range(n)]
    b = [rng.randint(-2 ** 70, 2 ** 70) for _ in range(n)]
    assert falcon._mul(a, b) == schoolbook(a, b)
    assert falcon._mul(a, a) == schoolbook(a, a)


def test_field_norm_is_f_times_f_of_minus_x():
    rng = random.Random(3)
    f = [rng.randint(-20, 20) for _ in range(16)]
    product = schoolbook(f, [x if i % 2 == 0 else -x for i, x in enumerate(f)])
    assert product[1::2] == [0] * 8
    assert product[0::2] == falcon._field_norm(f)


@pytest.mark.parametrize("n", [2, 64, 1024])
def test_ntt_product_matches_schoolbook(n):
    ntt = falcon._Ntt(n)
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, falcon.Q, n), rng.integers(0, falcon.Q, n)
    got = ntt.inverse(ntt.forward(a) * ntt.forward(b) % falcon.Q)
    assert got.tolist() == [x % falcon.Q for x in schoolbook(a.tolist(), b.tolist())]


def test_falcon_key_solves_ntru_equation_exactly():
    backend = falcon.Falcon(sig.metadata(SchemeId.FALCON))
    _, secret_key, _ = backend.keygen(bytes(range(32)))
    f, g, F = falcon_parts(backend, secret_key)
    G = np.rint(falcon._ifft(backend.signing_key(secret_key).G_fft)).astype(np.int64)
    assert max(np.abs(F).max(), np.abs(G).max()) <= 127
    fG = np.convolve(f, G)
    gF = np.convolve(g, F)
    n = len(f)
    lhs = fG[:n] - gF[:n]
    lhs[: n - 1] -= fG[n:] - gF[n:]
    assert lhs.tolist() == [falcon.Q] + [0] * (n - 1)


def test_falcon_keygen_honors_seed():
    a = sig.keygen(SchemeId.FALCON, seed=5)
    assert a == sig.keygen(SchemeId.FALCON, seed=5)
    assert a.public_key != sig.keygen(SchemeId.FALCON, seed=6).public_key


def test_falcon_512_sizes_and_round_trip():
    backend = falcon.Falcon(sig.metadata(SchemeId.FALCON_512))
    meta = backend.metadata
    assert (meta.public_key_len, meta.secret_key_len, meta.signature_max_len) == (897, 1281, 752)
    public_key, secret_key, prepared = backend.keygen(b"\x07" * 32)
    assert (len(public_key), len(secret_key)) == (897, 1281)
    assert prepared is None  # a Falcon pair expands its key when it first signs
    signature = backend.sign(backend.signing_key(secret_key), b"payload")
    assert len(signature) <= 752 and signature[0] == 0x39
    assert backend.verify(public_key, b"payload", signature)
    assert not backend.verify(public_key, b"payloaD", signature)


def test_decompress_is_strict():
    def encode(bit_string):
        bit_string += "0" * (-len(bit_string) % 8)
        return int(bit_string, 2).to_bytes(len(bit_string) // 8, "big")

    good = falcon._compress([5, -130, 0, 1], 100)
    assert falcon._decompress(good, 4) == [5, -130, 0, 1]
    assert len(good) == 5  # 37 bits: three padding bits in the last byte
    assert falcon._decompress(good + b"\x00", 4) is None  # trailing byte
    assert falcon._decompress(good[:-1], 4) is None  # short input
    assert falcon._decompress(good[:-1] + bytes([good[-1] | 1]), 4) is None  # padding bit set
    # sign, 7 low bits, unary high part: "0" 0000000 "1" is 0, "1" 0000000 "1" is "-0"
    assert falcon._decompress(encode("0" + "0000000" + "1"), 1) == [0]
    assert falcon._decompress(encode("1" + "0000000" + "1"), 1) is None
    # fifteen continuation zeros give 1920 + 127; sixteen would exceed 2047
    assert falcon._decompress(encode("1" + "1111111" + "0" * 15 + "1"), 1) == [-2047]
    assert falcon._decompress(encode("0" + "0000000" + "0" * 16 + "1"), 1) is None


def test_falcon_tree_leaves_multiply_to_determinant():
    # the leaves are the squared Gram-Schmidt norms of the secret basis, each
    # standing for a real and an imaginary coordinate; their product is
    # |det B| = q^n, whatever the order the tree visits them in
    backend = falcon.Falcon(sig.metadata(SchemeId.FALCON_512))
    key = backend.signing_key(backend.keygen(b"\x05" * 32)[1])
    f, g, F, G = key.f_fft, key.g_fft, key.F_fft, key.G_fft
    g00 = g * np.conj(g) + f * np.conj(f)
    g01 = g * np.conj(G) + f * np.conj(F)
    g11 = G * np.conj(G) + F * np.conj(F)
    leaves = []
    falcon._ffldl(g00, g01, g11, leaves.append)
    assert len(leaves) == 512
    assert sum(map(math.log, leaves)) == pytest.approx(512 * math.log(falcon.Q), rel=1e-9)
    # the first leaf is |(g, -f)|^2, the first basis vector's own norm
    assert leaves[0] == pytest.approx(float(np.sum(np.abs(g) ** 2 + np.abs(f) ** 2)) / 512)


@pytest.mark.parametrize("mu, sigma", [(0.3, 1.3), (-7.75, 1.8)])
def test_sampler_z_draws_the_discrete_gaussian(monkeypatch, mu, sigma):
    # chi-square goodness of fit of SamplerZ against D_{Z, mu, sigma}
    rng = np.random.default_rng(11)
    monkeypatch.setattr(falcon.os, "urandom", rng.bytes)
    sample = falcon._Sampler(4096)
    count = 100_000
    ccs = falcon.PARAMS["Falcon-512"].sigma_min / sigma
    draws = np.array([sample(mu, 1 / (2 * sigma * sigma), ccs) for _ in range(count)])
    support = np.arange(math.floor(mu) - 12, math.floor(mu) + 14)
    weights = np.exp(-((support - mu) ** 2) / (2 * sigma * sigma))
    expected = count * weights / weights.sum()
    observed = np.array([np.count_nonzero(draws == z) for z in support])
    assert observed.sum() == count
    kept = expected >= 5  # pool the thin tails into one bin
    expected = np.append(expected[kept], expected[~kept].sum())
    observed = np.append(observed[kept], observed[~kept].sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = len(expected) - 1
    # Wilson-Hilferty upper 1e-6 quantile of chi-square with df degrees of freedom
    critical = df * (1 - 2 / (9 * df) + 4.753 * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 < critical


def test_falcon_rejects_corrupt_secret_key():
    backend = falcon.Falcon(sig.metadata(SchemeId.FALCON_512))
    _, secret_key, _ = backend.keygen(b"\x01" * 32)
    broken = bytearray(secret_key)
    broken[-1] ^= 0x01  # one coefficient of F: f*G - g*F = q no longer holds
    with pytest.raises(AdapterFailure, match="NTRU equation"):
        backend.signing_key(bytes(broken))


# --- libcrypto: ML-DSA and SLH-DSA -------------------------------------------------

@pytest.fixture(scope="module")
def libcrypto():
    from pqfl import libcrypto

    try:
        libcrypto.load_libcrypto()
    except UnsupportedScheme as exc:
        pytest.skip(str(exc))
    return libcrypto


def test_slhdsa_wrong_length_keys(libcrypto):
    backend = libcrypto.EvpSigner(sig.metadata(SchemeId.SPHINCS_PLUS))
    public_key, secret_key, key = backend.keygen(None)
    assert (len(public_key), len(secret_key)) == (32, 64)
    signature = backend.sign(key, b"message")
    with pytest.raises(AdapterFailure):
        backend.signing_key(secret_key[:-1])
    assert not backend.verify(public_key[:-1], b"message", signature)
    assert not backend.verify(public_key, b"message", signature + b"\x00")


def test_slhdsa_missing_library_names_places_searched(monkeypatch, tmp_path):
    from pqfl import libcrypto

    missing = str(tmp_path / "libcrypto-missing.so")
    monkeypatch.setenv("PQFL_LIBCRYPTO", missing)
    monkeypatch.setattr(libcrypto.ctypes.util, "find_library", lambda name: None)
    monkeypatch.setattr(libcrypto.shutil, "which", lambda name: None)
    monkeypatch.setattr(libcrypto.sys, "prefix", str(tmp_path))
    with pytest.raises(UnsupportedScheme) as info:
        libcrypto.load_libcrypto()
    message = str(info.value)
    assert "PQFL_LIBCRYPTO" in message and "sys.prefix" in message and "PATH" in message
    assert missing in message


def test_slhdsa_library_search_order(monkeypatch, tmp_path):
    from pqfl import libcrypto

    for prefix in ("python", "openssl"):
        (tmp_path / prefix / "lib").mkdir(parents=True)
        (tmp_path / prefix / "lib" / "libcrypto.so.3").touch()
        (tmp_path / prefix / "bin").mkdir()
    (tmp_path / "openssl" / "bin" / "openssl").touch()
    monkeypatch.setenv("PQFL_LIBCRYPTO", "/env/libcrypto.so")
    monkeypatch.setattr(libcrypto.ctypes.util, "find_library", lambda name: "libcrypto.so.3")
    monkeypatch.setattr(libcrypto.sys, "prefix", str(tmp_path / "python"))
    monkeypatch.setattr(libcrypto.shutil, "which", lambda name: str(tmp_path / "openssl" / "bin" / name))
    assert libcrypto._candidates() == [
        "/env/libcrypto.so",
        "libcrypto.so.3",
        str(tmp_path / "python" / "lib" / "libcrypto.so.3"),
        str(tmp_path / "openssl" / "lib" / "libcrypto.so.3"),
    ]


def test_importing_sig_loads_no_backend():
    # every set's metadata comes from sig's table, and a keygen builds only its own backend
    code = (
        "import sys; from pqfl import sig; [sig.metadata(s) for s in sig.SchemeId]; "
        "print('pqfl.falcon' in sys.modules, 'pqfl.libcrypto' in sys.modules, len(sig._adapters)); "
        "sig.keygen(sig.SchemeId.DILITHIUM, seed=1); "
        "print('pqfl.falcon' in sys.modules, sig.SchemeId.SPHINCS_PLUS in sig._adapters)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "0", "False", "False"]


def test_dilithium_run_needs_no_cryptography_package():
    code = """
import sys
sys.modules["cryptography"] = None  # any import of it now raises ImportError
from pqfl import fedcore, protocol, sig
from pqfl.fedcore import ModelArchitecture, TrainConfig

kp = sig.keygen(sig.SchemeId.DILITHIUM, seed=1)
assert sig.verify(kp.public_key, kp.scheme, b"m", sig.sign(kp, b"m"))
data = fedcore.generate_synthetic(40, 6, 2, seed=1)
model = fedcore.init_model(ModelArchitecture(6, (4,), 2), seed=1)
cfg = TrainConfig(num_clients=2, num_rounds=1, seed=1)
server, parties, _ = protocol.setup_keys(
    cfg, sig.SchemeId.DILITHIUM, 1, model, fedcore.split_iid(data, 2, seed=1), eval_data=data
)
print([o.verified_count for o in protocol.run_training(server, parties).outcomes])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[2]"]
    assert out.stderr == ""


def test_mldsa_44_key_from_seed_is_pinned():
    # sha256 of the ML-DSA-44 public key that seed 1 gave through pyca/cryptography 48
    public_key = sig.keygen(SchemeId.DILITHIUM, seed=1).public_key
    assert (
        hashlib.sha256(public_key).hexdigest()
        == "e21e4e98fd7b29e19d18477072bfe9d1fea61418f7a6be37a9c686848d6b062d"
    )


@pytest.mark.parametrize("level", [44, 65, 87])
def test_mldsa_matches_pyca_cryptography(libcrypto, level):
    mldsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.mldsa")
    from cryptography.exceptions import InvalidSignature

    backend = libcrypto.EvpSigner(sig.metadata(SchemeId.from_label(f"ml-dsa-{level}")))
    pyca = getattr(mldsa, f"MLDSA{level}PrivateKey")
    for i in range(20):
        seed = hashlib.sha256(b"mldsa compat %d" % i).digest()
        message = b"update %d " % i * (i + 1)
        flipped = bytearray(message)
        flipped[i % len(message)] ^= 1 << (i % 8)
        public_key, secret_key, key = backend.keygen(seed)
        theirs = pyca.from_seed_bytes(seed)
        assert secret_key == seed
        assert public_key == theirs.public_key().public_bytes_raw()

        # the key keygen expanded, then one expanded again from the seed alone
        ours = backend.sign(key if i % 2 else backend.signing_key(secret_key), message)
        theirs.public_key().verify(ours, message)  # raises InvalidSignature on failure
        assert backend.verify(public_key, message, theirs.sign(message))
        assert not backend.verify(public_key, bytes(flipped), ours)
        with pytest.raises(InvalidSignature):
            theirs.public_key().verify(ours, bytes(flipped))


def test_each_key_is_freed_once_when_its_pair_goes(libcrypto, monkeypatch):
    backend = sig._adapter(SchemeId.DILITHIUM)
    free = backend._lib.EVP_PKEY_free
    freed = []
    monkeypatch.setattr(backend._lib, "EVP_PKEY_free", lambda key: (freed.append(key), free(key)))
    kept = sig.keygen(SchemeId.DILITHIUM, hashlib.sha256(b"kept").digest())
    pairs = [sig.keygen(SchemeId.DILITHIUM, hashlib.sha256(b"pair %d" % i).digest()) for i in range(300)]
    pointers = sorted(pair._prepared.pointer for pair in pairs)
    assert freed == [] and len(set(pointers)) == 300
    del pairs
    assert sorted(freed) == pointers
    message = b"still held"
    assert sig.verify(kept.public_key, kept.scheme, message, sig.sign(kept, message))
    with pytest.raises(TypeError):
        copy.copy(kept._prepared)
    assert len(freed) == 300


def test_mldsa_keygen_expands_its_seed_once(libcrypto, monkeypatch):
    backend = sig._adapter(SchemeId.DILITHIUM)
    generate = backend._lib.EVP_PKEY_generate
    calls = []
    monkeypatch.setattr(backend._lib, "EVP_PKEY_generate", lambda *a: (calls.append(1), generate(*a))[1])
    pair = sig.keygen(SchemeId.DILITHIUM, 8)
    for message in b"first", b"second":
        assert sig.verify(pair.public_key, pair.scheme, message, sig.sign(pair, message))
    assert len(calls) == 1


def test_verify_releases_the_gil():
    kp = sig.keygen(SchemeId.DILITHIUM, seed=5)
    message = bytes(8 << 20)
    signature = sig.sign(kp, message)
    calls, results, pauses = [], [], []

    def verify_six_times():
        for _ in range(6):
            start = time.perf_counter()
            results.append(sig.verify(kp.public_key, kp.scheme, message, signature))
            calls.append((start, time.perf_counter()))

    worker = threading.Thread(target=verify_six_times)
    worker.start()
    last = time.perf_counter()
    deadline = last + 60
    while worker.is_alive() and last < deadline:  # record each pause over 0.1 ms
        now = time.perf_counter()
        if now - last > 1e-4:
            pauses.append((last, now))
        last = now
    worker.join(timeout=1)
    assert not worker.is_alive() and results == [True] * 6

    def longest_pause(start, end):
        return max((min(b, end) - max(a, start) for a, b in pauses if a < end and b > start), default=0.0)

    call_s = statistics.median(end - start for start, end in calls)
    paused_s = statistics.median(longest_pause(start, end) for start, end in calls)
    assert paused_s < 0.5 * call_s, f"main thread paused {paused_s:.4f} s of a {call_s:.4f} s verify"
