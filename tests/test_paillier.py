import math
import random

import pytest

from amisim.crypto import (
    Ciphertext,
    decode_reading,
    decrypt,
    encode_reading,
    encrypt,
    hom_add,
    paillier_keygen,
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
    c1 = encrypt(pk, 42, r=r)
    c2 = encrypt(pk, 42, r=r)
    assert c1.value == c2.value
    c3 = encrypt(pk, 42, rng=random.Random(5))
    c4 = encrypt(pk, 42, rng=random.Random(6))
    assert c3.value != c4.value


def test_encrypt_rejects_bad_r(keys):
    pk, _ = keys
    with pytest.raises(CryptoError):
        encrypt(pk, 1, r=0)
    with pytest.raises(CryptoError):
        encrypt(pk, 1, r=pk.n)


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
        assert math.gcd(c.value, pk.n_sq) == 1


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
        return (pow(c.value, lam, pk.n_sq) - 1) // pk.n * mu % pk.n

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
        decrypt(sk, pk, Ciphertext(value=pk.n))  # shares a factor with n


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
