"""Bilinear pairing suites behind one small interface.

Two interchangeable backends:

- ExponentSuite ("exp"): group elements are discrete logs in a prime-order
  subgroup of Z_p*, so the pairing is literally gT^(a*b). Exactly bilinear
  and fast, but trivially forgeable by anyone who reads the representation;
  it exists to test protocol logic, not to provide security.
- Bn254Suite ("bn254", in bn254.py): an actual pairing-friendly curve.

A suite exposes: prime order, the public-key-side generator, hash-to-group
for payloads, group arithmetic via the element objects themselves (+, -,
int * pt), pair()/pair_product() into a comparable target group, and byte
serialization for both groups.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from amisim.errors import CryptoError
from amisim.crypto.paillier import _is_probable_prime, _random_prime


@dataclass(frozen=True)
class ExpG1:
    """Source-group element, stored as its discrete log modulo the order."""

    log: int
    order: int

    def __add__(self, other: "ExpG1") -> "ExpG1":
        return ExpG1((self.log + other.log) % self.order, self.order)

    def __neg__(self) -> "ExpG1":
        return ExpG1(-self.log % self.order, self.order)

    def __rmul__(self, scalar: int) -> "ExpG1":
        return ExpG1(scalar * self.log % self.order, self.order)

    def is_identity(self) -> bool:
        return self.log == 0


class ExponentSuite:
    """Insecure-but-exact pairing backend over known discrete logs."""

    name = "exp"

    def __init__(self, q: int, p: int, gt_gen: int):
        if (p - 1) % q != 0 or pow(gt_gen, q, p) != 1 or gt_gen == 1:
            raise CryptoError("inconsistent exponent-suite parameters")
        self.order = q
        self.p = p
        self.gt_gen = gt_gen

    @classmethod
    def generate(cls, seed: int | None = None) -> "ExponentSuite":
        """Deterministically build 160-bit-order parameters from a seed (None = OS entropy)."""
        rng = random.Random(seed) if seed is not None else random.SystemRandom()
        q = _random_prime(160, rng)
        # Find p = k*q + 1 prime, then an order-q generator of Z_p*.
        k = 2
        while True:
            p = k * q + 1
            if _is_probable_prime(p, rng):
                break
            k += 2
        while True:
            h = rng.randrange(2, p - 1)
            gt_gen = pow(h, (p - 1) // q, p)
            if gt_gen != 1:
                return cls(q=q, p=p, gt_gen=gt_gen)

    # -- group structure ----------------------------------------------------
    def g1_generator(self) -> ExpG1:
        return ExpG1(1, self.order)

    def g2_generator(self) -> ExpG1:
        return ExpG1(1, self.order)

    def g1_identity(self) -> ExpG1:
        return ExpG1(0, self.order)

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, self.order)

    def scalar_from_hash(self, data: bytes) -> int:
        digest = hashlib.sha256(data).digest()
        return int.from_bytes(digest, "big") % self.order

    def hash_to_g1(self, data: bytes) -> ExpG1:
        # Hash to an exponent, then "exponentiate" the generator.
        log = self.scalar_from_hash(b"h2g|" + data)
        return ExpG1(log, self.order)

    # -- pairing -------------------------------------------------------------
    def pair(self, a: ExpG1, b: ExpG1):
        return _GtElement(pow(self.gt_gen, a.log * b.log % self.order, self.p), self.p)

    def pair_product(self, pairs):
        exponent = 0
        for a, b in pairs:
            exponent = (exponent + a.log * b.log) % self.order
        return _GtElement(pow(self.gt_gen, exponent, self.p), self.p)

    # -- wire format ---------------------------------------------------------
    def g1_serialize(self, pt: ExpG1) -> bytes:
        return pt.log.to_bytes(32, "big")

    def g1_deserialize(self, data: bytes) -> ExpG1:
        if len(data) != 32:
            raise CryptoError("bad G1 encoding length")
        log = int.from_bytes(data, "big")
        if log >= self.order:
            raise CryptoError("G1 encoding out of range")
        return ExpG1(log, self.order)

    g2_serialize = g1_serialize
    g2_deserialize = g1_deserialize

    def params_summary(self) -> dict:
        return {"backend": self.name, "order": self.order, "p": self.p}


@dataclass(frozen=True)
class _GtElement:
    value: int
    modulus: int

    def __mul__(self, other: "_GtElement") -> "_GtElement":
        return _GtElement(self.value * other.value % self.modulus, self.modulus)

    def __pow__(self, exponent: int) -> "_GtElement":
        return _GtElement(pow(self.value, exponent, self.modulus), self.modulus)

    def is_one(self) -> bool:
        return self.value == 1


def make_suite(backend: str = "exp", seed: int | None = None):
    """Factory for pairing suites by backend name."""
    if backend == "exp":
        return ExponentSuite.generate(seed=seed)
    if backend == "bn254":
        from amisim.crypto.bn254 import Bn254Suite

        return Bn254Suite()
    raise CryptoError(f"unknown pairing backend {backend!r}")
