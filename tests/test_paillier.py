import math
import os
import random
import subprocess
import sys

import pytest

import amisim
import reference
from amisim.crypto import pairing, paillier
from amisim.crypto import (
    decode_reading,
    decrypt,
    draw_r,
    encode_reading,
    encrypt,
    hom_add,
    paillier_keygen,
    randomizers,
)
from amisim.errors import CryptoError, EncodingRangeError


@pytest.fixture(scope="module")
def keys():
    return paillier_keygen(bits=512, rng=random.Random(1234))


def test_keygen_structure(keys):
    pk, sk = keys
    assert pk.n.bit_length() == 512
    assert pk.n % 2 == 1
    assert decrypt(sk, pk, encrypt(pk, 0, rng=random.Random(0))) == 0


def test_keygen_distinct_seeds():
    pk1, _ = paillier_keygen(bits=256, rng=random.Random(1))
    pk2, _ = paillier_keygen(bits=256, rng=random.Random(2))
    assert pk1.n != pk2.n


def test_keygen_deterministic():
    pk1, sk1 = paillier_keygen(bits=256, rng=random.Random(7))
    pk2, sk2 = paillier_keygen(bits=256, rng=random.Random(7))
    assert pk1.n == pk2.n and (sk1.p, sk1.q) == (sk2.p, sk2.q)


def test_keygen_rejects_tiny_keys():
    with pytest.raises(CryptoError):
        paillier_keygen(bits=128)


def test_round_trip_random_sample(keys):
    pk, sk = keys
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randrange(pk.n)
        assert decrypt(sk, pk, encrypt(pk, m, rng=rng)) == m


def test_encrypt_deterministic_with_fixed_r(keys):
    pk, _ = keys
    r = 0x1234567
    assert math.gcd(r, pk.n) == 1
    (randomizer,) = randomizers(pk.n, pk.n_sq, [r])
    c1 = encrypt(pk, 42, randomizer=randomizer)
    c2 = encrypt(pk, 42, randomizer=randomizer)
    assert c1 == c2
    c3 = encrypt(pk, 42, rng=random.Random(5))
    c4 = encrypt(pk, 42, rng=random.Random(6))
    assert c3 != c4


def test_encrypt_rejects_bad_r(keys):
    pk, _ = keys
    # r = 0 and r = n are not in Z_n*; both give the randomizer 0, which is refused.
    with pytest.raises(CryptoError):
        encrypt(pk, 1, randomizer=randomizers(pk.n, pk.n_sq, [0])[0])
    with pytest.raises(CryptoError):
        encrypt(pk, 1, randomizer=randomizers(pk.n, pk.n_sq, [pk.n])[0])


def test_encrypt_with_precomputed_randomizer_matches_online(keys):
    pk, sk = keys
    rng = random.Random(31)
    rs = [draw_r(pk, rng) for _ in range(5)]
    offline = randomizers(pk.n, pk.n_sq, rs)
    online = random.Random(31)  # the same r, drawn inside encrypt
    for m, randomizer in zip([0, 1, 7, pk.n - 1, 10**6], offline):
        c = encrypt(pk, m, randomizer=randomizer)
        assert c == encrypt(pk, m, rng=online)
        assert decrypt(sk, pk, c) == m
    # A drawn r is the same r whether drawn here or inside encrypt.
    assert encrypt(pk, 9, rng=random.Random(31)) == encrypt(pk, 9, randomizer=offline[0])


def test_encrypt_rejects_bad_randomizer(keys):
    pk, _ = keys
    good = randomizers(pk.n, pk.n_sq, [0x1234567])[0]
    for bad in (0, pk.n_sq):
        with pytest.raises(CryptoError):
            encrypt(pk, 1, randomizer=bad)
    with pytest.raises(TypeError):  # encrypt takes no r: one comes only from rng or as R
        encrypt(pk, 1, r=0x1234567, randomizer=good)
    with pytest.raises(CryptoError):  # and without either there is nothing to encrypt with
        encrypt(pk, 1)


def test_encrypt_rejects_out_of_range(keys):
    pk, _ = keys
    with pytest.raises(CryptoError):
        encrypt(pk, -1, rng=random.Random(0))
    with pytest.raises(CryptoError):
        encrypt(pk, pk.n, rng=random.Random(0))


def test_ciphertexts_coprime_to_n_squared(keys):
    pk, _ = keys
    rng = random.Random(11)
    for _ in range(25):
        c = encrypt(pk, rng.randrange(pk.n), rng=rng)
        assert math.gcd(c, pk.n_sq) == 1


def test_hom_add_basics(keys):
    pk, sk = keys
    rng = random.Random(3)
    c3 = encrypt(pk, 3, rng=rng)
    c4 = encrypt(pk, 4, rng=rng)
    assert decrypt(sk, pk, hom_add(c3, c4, pk)) == 7
    c0 = encrypt(pk, 0, rng=rng)
    cm = encrypt(pk, 123456, rng=rng)
    assert decrypt(sk, pk, hom_add(c0, cm, pk)) == 123456
    assert decrypt(sk, pk, hom_add(c3, c4, pk)) == decrypt(sk, pk, hom_add(c4, c3, pk))


def test_hom_add_fold_matches_integer_sum(keys):
    pk, sk = keys
    rng = random.Random(17)
    values = [rng.randrange(10**9) for _ in range(50)]
    acc = encrypt(pk, values[0], rng=rng)
    for v in values[1:]:
        acc = hom_add(acc, encrypt(pk, v, rng=rng), pk)
    assert decrypt(sk, pk, acc) == sum(values) % pk.n


def test_crt_decrypt_equals_lambda_mu_formula(keys):
    # The textbook decryption L(c^lambda mod n^2) mu mod n, with L(u) = (u - 1)/n.
    pk, sk = keys
    assert sk.p * sk.q == pk.n
    lam = math.lcm(sk.p - 1, sk.q - 1)
    mu = pow(lam, -1, pk.n)

    def reference(c):
        return (pow(c, lam, pk.n_sq) - 1) // pk.n * mu % pk.n

    rng = random.Random(23)
    plaintexts = [0, 1, pk.n - 1] + [rng.randrange(pk.n) for _ in range(20)]
    ciphertexts = [encrypt(pk, m, rng=rng) for m in plaintexts]
    acc = ciphertexts[0]
    for c in ciphertexts[1:]:
        acc = hom_add(acc, c, pk)
        ciphertexts.append(acc)
    for m, c in zip(plaintexts, ciphertexts):
        assert decrypt(sk, pk, c) == m
    for c in ciphertexts:
        assert decrypt(sk, pk, c) == reference(c)
    assert decrypt(sk, pk, acc) == sum(plaintexts) % pk.n


def test_decrypt_rejects_bad_ciphertext(keys):
    pk, sk = keys
    with pytest.raises(CryptoError):
        decrypt(sk, pk, pk.n)  # shares a factor with n


def test_reading_codec_round_trip():
    assert encode_reading(1.234) == 1234
    assert decode_reading(1234) == pytest.approx(1.234)
    assert encode_reading(0.0) == 0
    assert decode_reading(encode_reading(0.0015)) == pytest.approx(0.002)


def test_reading_codec_headroom(keys):
    pk, _ = keys
    # 114 meters x 50 kWh at scale 1000 is far below a 512-bit modulus.
    assert 114 * encode_reading(50.0) < pk.n
    encode_reading(50.0, pk=pk, meter_count=114)
    with pytest.raises(EncodingRangeError):
        encode_reading(float(pk.n), pk=pk, meter_count=1)
    with pytest.raises(EncodingRangeError):
        encode_reading(-1.0)


def _plain_prime_test(monkeypatch):
    monkeypatch.setattr(paillier, "_is_probable_prime", reference.is_probable_prime)
    monkeypatch.setattr(pairing, "_is_probable_prime", reference.is_probable_prime)


@pytest.mark.parametrize("bits, seeds", [(256, 200), (512, 60)])
def test_keygen_equals_plain_miller_rabin(monkeypatch, bits, seeds):
    keys = [paillier_keygen(bits, random.Random(s))[1] for s in range(seeds)]
    _plain_prime_test(monkeypatch)
    plain = [paillier_keygen(bits, random.Random(s))[1] for s in range(seeds)]
    assert [(k.p, k.q) for k in keys] == [(k.p, k.q) for k in plain]


def test_exponent_suite_equals_plain_miller_rabin(monkeypatch):
    suites = [pairing.ExponentSuite.generate(s).params_summary() for s in range(4)]
    _plain_prime_test(monkeypatch)
    assert suites == [pairing.ExponentSuite.generate(s).params_summary() for s in range(4)]


class _RecordingRng:
    """Hands out the scripted values first, then draws from a seeded Random;
    records every randrange call with its result."""

    def __init__(self, script=()):
        self.script = list(script)
        self.inner = random.Random(0)
        self.calls = []

    def randrange(self, *args):
        value = self.script.pop(0) if self.script else self.inner.randrange(*args)
        self.calls.append((args, value))
        return value


def _passes_round_one(a, n, m):
    """Whether the base a passes Miller-Rabin's round for n, taken modulo m."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return pow(a, d, m) == 1 or any(pow(a, d << i, m) == m - 1 for i in range(r))


# n, its factor g = gcd(n, product of the primes in (229, 2^16]) and the first
# base. 233 * 65537 and 233^2 have 233 as least factor; 233 * 239 and the
# primes take plain Miller-Rabin (g = n or g = 1).
_N1, _N2 = 233 * 65537, 233**2
_BRANCH_CASES = {
    "fails-mod-g": (_N1, 233, next(a for a in range(2, _N1) if not _passes_round_one(a, _N1, 233))),
    "passes-mod-g-only": (_N1, 233, next(
        a for a in range(2, _N1)
        if _passes_round_one(a, _N1, 233) and not _passes_round_one(a, _N1, _N1)
    )),
    "strong-liar": (_N2, 233, next(a for a in range(2, _N2 - 1) if _passes_round_one(a, _N2, _N2))),
    "sieve-divides-all": (233 * 239, None, 5),
    "prime": (2**127 - 1, None, 3),
    "prime-in-sieve-range": (65521, None, 2),
}


@pytest.mark.parametrize("case", sorted(_BRANCH_CASES))
def test_prime_test_small_factor_branches_draw_like_plain_miller_rabin(monkeypatch, case):
    n, g, first = _BRANCH_CASES[case]
    moduli = []
    real_round = paillier._passes_round

    def spy(a, d, r, m):
        moduli.append(m)
        return real_round(a, d, r, m)

    monkeypatch.setattr(paillier, "_passes_round", spy)
    rng, plain_rng = _RecordingRng([first]), _RecordingRng([first])
    assert paillier._is_probable_prime(n, rng) == reference.is_probable_prime(n, plain_rng)
    assert rng.calls == plain_rng.calls
    if case == "fails-mod-g":
        assert moduli == [g] and rng.calls == [((2, n - 1), first)]
    elif g is not None:
        assert moduli[:2] == [g, n]
    else:
        assert set(moduli) == {n}
    if case == "strong-liar":
        assert len(rng.calls) >= 2  # round one passed modulo n, so round two drew
    if case.startswith("prime"):
        assert len(rng.calls) == paillier.MILLER_RABIN_ROUNDS


def test_sieve_product_is_built_on_the_first_prime_test_not_at_import():
    script = (
        "import random, amisim.cli, amisim.protocol\n"
        "from amisim.crypto import paillier\n"
        "assert paillier._sieve_product.cache_info().currsize == 0\n"
        "assert paillier._is_probable_prime(2**127 - 1, random.Random(0))\n"
        "assert paillier._sieve_product.cache_info().currsize == 1\n"
    )
    src = os.path.dirname(os.path.dirname(amisim.__file__))
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": src})
