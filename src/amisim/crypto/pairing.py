"""Bilinear pairing suites behind one small interface.

Two interchangeable backends:

- ExponentSuite ("exp"): group elements are discrete logs in one fixed
  160-bit prime-order subgroup of Z_p*, so the pairing is literally
  gT^(a*b). Exactly bilinear and fast, but trivially forgeable by anyone
  who reads the representation; it tests protocol logic, not security.
- Bn254Suite ("bn254", in bn254.py): an actual pairing-friendly curve.

A suite exposes only what the signatures call: the prime order, the
generators, the G1 identity, random scalars, hash-to-G1 for payloads,
group arithmetic on the elements themselves (+, -, int * pt, is_identity),
pair_product() into a target group whose elements compare with == and
answer is_one(), and byte serialization for both source groups.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from amisim.errors import CryptoError

# The exponent suite's group: a 160-bit prime ORDER dividing MODULUS - 1
# (MODULUS = 4 ORDER + 1, prime) and an element GT_GENERATOR of order ORDER.
ORDER = 0xD419EEFCD5E73E3F673617D94D7BD307122411E7
MODULUS = 0x35067BBF3579CF8FD9CD85F6535EF4C1C4890479D
GT_GENERATOR = 0x18DC17BB0F0474C96F6A33B9CD65BC7551655A9C8


@dataclass(frozen=True)
class ExpG1:
    """Source-group element, stored as its discrete log modulo ORDER."""

    log: int

    def __add__(self, other: "ExpG1") -> "ExpG1":
        return ExpG1((self.log + other.log) % ORDER)

    def __neg__(self) -> "ExpG1":
        return ExpG1(-self.log % ORDER)

    def __rmul__(self, scalar: int) -> "ExpG1":
        return ExpG1(scalar * self.log % ORDER)

    def is_identity(self) -> bool:
        return self.log == 0


class ExponentSuite:
    """Insecure-but-exact pairing backend over known discrete logs."""

    name = "exp"
    order = ORDER

    # -- group structure ----------------------------------------------------
    def g1_generator(self) -> ExpG1:
        return ExpG1(1)

    g2_generator = g1_generator

    def g1_identity(self) -> ExpG1:
        return ExpG1(0)

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, ORDER)

    def hash_to_g1(self, data: bytes) -> ExpG1:
        # Hash to an exponent, then "exponentiate" the generator.
        digest = hashlib.sha256(b"h2g|" + data).digest()
        return ExpG1(int.from_bytes(digest, "big") % ORDER)

    # -- pairing -------------------------------------------------------------
    def pair_product(self, pairs):
        exponent = sum(a.log * b.log for a, b in pairs) % ORDER
        return _GtElement(pow(GT_GENERATOR, exponent, MODULUS))

    # -- wire format ---------------------------------------------------------
    def g1_serialize(self, pt: ExpG1) -> bytes:
        return pt.log.to_bytes(32, "big")

    def g1_deserialize(self, data: bytes) -> ExpG1:
        if len(data) != 32:
            raise CryptoError("bad G1 encoding length")
        log = int.from_bytes(data, "big")
        if log >= ORDER:
            raise CryptoError("G1 encoding out of range")
        return ExpG1(log)

    g2_serialize = g1_serialize
    g2_deserialize = g1_deserialize


@dataclass(frozen=True)
class _GtElement:
    value: int

    def is_one(self) -> bool:
        return self.value == 1


def make_suite(backend: str = "exp"):
    """A new suite object for the backend name on each call (a caller may wrap its methods)."""
    if backend == "exp":
        return ExponentSuite()
    if backend == "bn254":
        from amisim.crypto.bn254 import Bn254Suite

        return Bn254Suite()
    raise CryptoError(f"unknown pairing backend {backend!r}")
