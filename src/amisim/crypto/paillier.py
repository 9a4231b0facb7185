"""Paillier additively homomorphic encryption.

Multiplying two ciphertexts modulo n^2 adds their plaintexts modulo n,
which is what lets an untrusted aggregator sum meter readings it cannot
read. A ciphertext is a plain int in Z*_{n^2}. Keys use the g = n + 1
variant, so encryption needs a single modular exponentiation, r^n mod n^2,
which does not depend on the plaintext and can be computed ahead
(randomizers). encrypt takes that randomizer precomputed or draws r from
the caller's rng; it has no entropy source of its own. The private key
keeps the primes p and q, and decryption works modulo p^2 and q^2 with
half-size exponents, then joins the two halves by the Chinese remainder
theorem (Paillier, EUROCRYPT 1999, sec. 7).

Key sizes below 2048 bits are for tests only; they keep the algebra intact
but offer no real security margin.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

from amisim.errors import CryptoError, EncodingRangeError

DEFAULT_KEY_BITS = 2048
TEST_KEY_BITS_MIN = 256

READING_SCALE = 1000  # fixed point at 1 Wh
MILLER_RABIN_ROUNDS = 40  # a composite passes with probability below 4**-40
PRIME_MAX_TRIES = 100000  # random candidates per prime before giving up

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
    p: int
    q: int
    p_sq: int = field(init=False, repr=False)
    q_sq: int = field(init=False, repr=False)
    h_p: int = field(init=False, repr=False)  # (-q)^-1 mod p
    h_q: int = field(init=False, repr=False)  # (-p)^-1 mod q
    q_inv: int = field(init=False, repr=False)  # q^-1 mod p

    def __post_init__(self):
        p, q = self.p, self.q
        object.__setattr__(self, "p_sq", p * p)
        object.__setattr__(self, "q_sq", q * q)
        object.__setattr__(self, "h_p", pow(-q, -1, p))
        object.__setattr__(self, "h_q", pow(-p, -1, q))
        object.__setattr__(self, "q_inv", pow(q, -1, p))


@functools.cache
def _sieve_product() -> int:
    """The product of the primes in (229, 2^16], built on first use."""
    sieve = bytearray([1]) * (1 << 16)
    for p in range(2, 256):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return math.prod(p for p in range(_SMALL_PRIMES[-1] + 1, len(sieve)) if sieve[p])


def _passes_round(a: int, d: int, r: int, m: int) -> bool:
    """Miller-Rabin's round for n - 1 = 2^r d, taken modulo m (n or a factor
    of n): a^d = 1 or a^(2^i d) = -1 for an i < r."""
    x = pow(a, d, m)
    return x == 1 or any(pow(x, 1 << i, m) == m - 1 for i in range(r))


def _is_probable_prime(n: int, rng: random.Random) -> bool:
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
    a = rng.randrange(2, n - 1)
    # A base that fails round one modulo a factor g of n fails it modulo n
    # too, so n is rejected after the same single draw (HAC sec. 4.4).
    g = math.gcd(n, _sieve_product() % n)
    if 1 < g < n and not _passes_round(a, d, r, g):
        return False
    return _passes_round(a, d, r, n) and all(
        _passes_round(rng.randrange(2, n - 1), d, r, n) for _ in range(MILLER_RABIN_ROUNDS - 1)
    )


def _random_prime(bits: int, rng: random.Random) -> int:
    for _ in range(PRIME_MAX_TRIES):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise CryptoError(f"no {bits}-bit prime found after {PRIME_MAX_TRIES} tries")


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
        # The scheme needs gcd(phi(n), n) = 1; lambda = lcm(p - 1, q - 1) has
        # the same prime factors as phi(n), so gcd(lambda, n) = 1 is the same test.
        if math.gcd((p1 - 1) * (q1 - 1), n) != 1:
            continue
        return PaillierPublicKey(n=n), PaillierPrivateKey(p=p1, q=q1)
    raise CryptoError("key generation failed after bounded retries")


def draw_r(pk: PaillierPublicKey, rng) -> int:
    """A one-time r in Z_n*, drawn from rng."""
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            return r


def randomizers(n: int, n_sq: int, rs) -> list[int]:
    """The offline half of encryption: r^n mod n^2 for each r in rs.

    It needs no plaintext and only public values, so it can run before the
    readings exist and in another process (Paillier, EUROCRYPT 1999, sec. 7).
    """
    return [pow(r, n, n_sq) for r in rs]


def encrypt(
    pk: PaillierPublicKey,
    m: int,
    rng: random.Random | None = None,
    randomizer: int | None = None,
) -> int:
    """Encrypt m in [0, n) as (1 + m n) R mod n^2, R = r^n mod n^2.

    r is one-time and in Z_n*: reusing it across messages leaks plaintext
    differences. R may come precomputed (see randomizers), which leaves one
    multiply online; otherwise r is drawn from rng here. Both ways give the
    same ciphertext for the same r.
    """
    if not isinstance(m, int) or not 0 <= m < pk.n:
        raise CryptoError(f"plaintext must be an int in [0, n), got {m!r}")
    if randomizer is None:
        if rng is None:
            raise CryptoError("encrypt needs an rng or a randomizer")
        (randomizer,) = randomizers(pk.n, pk.n_sq, [draw_r(pk, rng)])
    elif not 0 < randomizer < pk.n_sq:
        raise CryptoError("a randomizer must be in (0, n^2)")
    g_m = (1 + m * pk.n) % pk.n_sq  # (n + 1)^m mod n^2
    return g_m * randomizer % pk.n_sq


def decrypt(sk: PaillierPrivateKey, pk: PaillierPublicKey, c: int) -> int:
    if not 0 < c < pk.n_sq or math.gcd(c, pk.n) != 1:
        raise CryptoError("ciphertext is not in Z*_{n^2}")
    # m = L_p(c^(p-1) mod p^2) h_p mod p, where L_p(u) = (u - 1) / p, and the same mod q.
    m_p = (pow(c, sk.p - 1, sk.p_sq) - 1) // sk.p * sk.h_p % sk.p
    m_q = (pow(c, sk.q - 1, sk.q_sq) - 1) // sk.q * sk.h_q % sk.q
    return m_q + (m_p - m_q) * sk.q_inv % sk.p * sk.q


def hom_add(c1: int, c2: int, pk: PaillierPublicKey) -> int:
    """The ciphertext of the plaintext sum (mod n)."""
    return c1 * c2 % pk.n_sq


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
