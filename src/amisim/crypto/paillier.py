"""Paillier additively homomorphic encryption.

Multiplying two ciphertexts modulo n^2 adds their plaintexts modulo n,
which is what lets an untrusted aggregator sum meter readings it cannot
read. Keys use the g = n + 1 variant, so lambda is phi(n) and encryption
needs a single modular exponentiation.

Key sizes below 2048 bits are for tests only; they keep the algebra intact
but offer no real security margin.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from amisim.errors import CryptoError, EncodingRangeError

DEFAULT_KEY_BITS = 2048
TEST_KEY_BITS_MIN = 256

READING_SCALE = 1000  # fixed point at 1 Wh

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    n_sq: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_sq", self.n * self.n)


@dataclass(frozen=True)
class PaillierPrivateKey:
    lam: int
    mu: int


@dataclass(frozen=True)
class Ciphertext:
    value: int


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random, max_tries: int = 100000) -> int:
    for _ in range(max_tries):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise CryptoError(f"no {bits}-bit prime found after {max_tries} tries")


def _l_function(u: int, n: int) -> int:
    return (u - 1) // n


def paillier_keygen(bits: int = DEFAULT_KEY_BITS, rng: random.Random | None = None):
    """Generate a key pair with an n of exactly `bits` bits.

    Pass a seeded random.Random for reproducible keys (simulations); the
    default draws from the OS.
    """
    if bits < TEST_KEY_BITS_MIN:
        raise CryptoError(f"key size must be >= {TEST_KEY_BITS_MIN} bits")
    if rng is None:
        rng = random.SystemRandom()
    half = bits // 2
    for _ in range(1000):
        p1 = _random_prime(half, rng)
        q1 = _random_prime(bits - half, rng)
        if p1 == q1:
            continue
        n = p1 * q1
        if n.bit_length() != bits:
            continue
        lam = math.lcm(p1 - 1, q1 - 1)
        # (n + 1)^lam = 1 + lam*n (mod n^2), so L(g^lam mod n^2) = lam, as lam < n.
        if math.gcd(lam, n) != 1:
            continue
        mu = pow(lam, -1, n)
        return PaillierPublicKey(n=n), PaillierPrivateKey(lam=lam, mu=mu)
    raise CryptoError("key generation failed after bounded retries")


def _draw_r(pk: PaillierPublicKey, rng) -> int:
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            return r


def encrypt(
    pk: PaillierPublicKey,
    m: int,
    r: int | None = None,
    rng: random.Random | None = None,
) -> Ciphertext:
    """Encrypt m in [0, n) under a one-time random r in Z_n*.

    Reusing r across messages leaks plaintext differences, so r defaults
    to a fresh draw per call (from rng when given, else the OS).
    """
    if not isinstance(m, int) or not 0 <= m < pk.n:
        raise CryptoError(f"plaintext must be an int in [0, n), got {m!r}")
    if r is None:
        r = _draw_r(pk, rng if rng is not None else random.SystemRandom())
    else:
        if not 1 <= r < pk.n or math.gcd(r, pk.n) != 1:
            raise CryptoError("r must be in the multiplicative group Z_n*")
    g_m = (1 + m * pk.n) % pk.n_sq  # (n + 1)^m mod n^2
    return Ciphertext(value=(g_m * pow(r, pk.n, pk.n_sq)) % pk.n_sq)


def decrypt(sk: PaillierPrivateKey, pk: PaillierPublicKey, c: Ciphertext) -> int:
    if not 0 < c.value < pk.n_sq or math.gcd(c.value, pk.n) != 1:
        raise CryptoError("ciphertext is not in Z*_{n^2}")
    return (_l_function(pow(c.value, sk.lam, pk.n_sq), pk.n) * sk.mu) % pk.n


def hom_add(c1: Ciphertext, c2: Ciphertext, pk: PaillierPublicKey) -> Ciphertext:
    """Ciphertext of the plaintext sum (mod n)."""
    return Ciphertext(value=(c1.value * c2.value) % pk.n_sq)


def encode_reading(
    kwh: float,
    pk: PaillierPublicKey | None = None,
    meter_count: int = 1,
) -> int:
    """Fixed-point encode a kWh reading at 1 Wh resolution.

    When pk is given, rejects values whose meter_count-fold sum could wrap
    modulo n.
    """
    if not math.isfinite(kwh) or kwh < 0:
        raise EncodingRangeError(f"reading must be finite and >= 0, got {kwh}")
    encoded = round(kwh * READING_SCALE)
    if pk is not None and encoded * meter_count >= pk.n:
        raise EncodingRangeError(
            f"{kwh} kWh x {meter_count} meters overflows the plaintext space"
        )
    return encoded


def decode_reading(value: int) -> float:
    return value / READING_SCALE
