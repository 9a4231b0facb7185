"""Hash-and-sign signatures with pairing-based batch verification.

A signer with secret x publishes Y = x*P (P the public-key-side generator)
and signs a payload as sigma = x*H(payload), a bare G1-side element. Every
check, of one signature or of w, is the small-exponents test

    e(sum r_i sigma_i, P) == prod e(r_i H(payload_i), Y_i)

with short exponents r_i derived from the batch, the first fixed at 1, so
a batch of one is the plain equation e(sigma, P) == e(H(payload), Y).
Both backends evaluate it as a single pairing product against one
target-group identity check, so a check costs one final exponentiation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from amisim.errors import CryptoError


@dataclass(frozen=True)
class SigKeypair:
    x: int
    public: object  # Y = x * P, a G2-side element of the active suite


def sig_keygen(suite, rng) -> SigKeypair:
    x = suite.random_scalar(rng)
    public = x * suite.g2_generator()
    if public.is_identity():
        raise CryptoError("degenerate signing key")
    return SigKeypair(x=x, public=public)


def canonical_payload(ciphertext_value: int, ts_ms: int) -> bytes:
    """Bit-exact wire encoding of C || TS.

    4-byte big-endian length of the ciphertext's big-endian magnitude,
    the magnitude bytes, then the timestamp as 8-byte big-endian UNIX
    milliseconds.
    """
    if ciphertext_value < 0:
        raise CryptoError("ciphertext value must be non-negative")
    if not 0 <= ts_ms < 1 << 64:
        raise CryptoError("timestamp out of range")
    c_bytes = ciphertext_value.to_bytes((ciphertext_value.bit_length() + 7) // 8 or 1, "big")
    return len(c_bytes).to_bytes(4, "big") + c_bytes + ts_ms.to_bytes(8, "big")


def sign(x: int, payload: bytes, suite):
    """sigma = x H(payload), a G1-side element of the suite."""
    return x * suite.hash_to_g1(payload)


def verify_single(sigma, public, payload: bytes, suite) -> bool:
    """batch_verify of the one item: e(sigma, P) == e(H(payload), Y)."""
    return batch_verify([(sigma, public, payload)], suite)


def batch_verify(items, suite) -> bool:
    """Verify [(sigma, public, payload), ...] as one batched equation.

    Small-exponents test (Bellare, Garay and Rabin, EUROCRYPT 1998): checks
    e(sum r_i sigma_i, P) == prod e(r_i H(payload_i), Y_i), where the r_i
    are 64-bit exponents derived by hashing the whole batch, so a run is
    deterministic. A batch with any item that fails alone passes only if
    the hash lands on one exponent in 2^64; with all r_i = 1 a pair
    sigma_1 + d, sigma_2 - d would cancel and pass. An identity sigma is
    rejected.
    """
    items = list(items)
    if not items:
        raise CryptoError("batch_verify requires at least one item")
    if any(sigma.is_identity() for sigma, _, _ in items):
        return False
    sigma_sum = suite.g1_identity()
    pairs = []
    for r, (sigma, public, payload) in zip(_batch_exponents(items, suite), items):
        sigma_sum = sigma_sum + r * sigma
        pairs.append((r * suite.hash_to_g1(payload), public))
    check = suite.pair_product([(-sigma_sum, suite.g2_generator())] + pairs)
    return check.is_one()


def _batch_exponents(items, suite) -> list[int]:
    """1 for the first item, then one exponent in [1, 2^64] per further item.

    The exponents come from a hash of every signature, public key and
    payload in the batch; a batch of one (verify_single) hashes nothing.
    Fixing the first at 1 keeps the 2^-64 bound (an error in that item
    alone is never cancelled) and saves two scalar multiplications per batch.
    """
    if len(items) == 1:
        return [1]
    digest = hashlib.sha256(b"batch|")
    for sigma, public, payload in items:
        digest.update(
            suite.g1_serialize(sigma)
            + suite.g2_serialize(public)
            + len(payload).to_bytes(4, "big")
            + payload
        )
    stream = hashlib.shake_256(digest.digest()).digest(8 * len(items))
    return [1] + [
        int.from_bytes(stream[8 * i : 8 * i + 8], "big") + 1 for i in range(1, len(items))
    ]
