"""Optimal-ate pairing over the 254-bit Barreto-Naehrig curve (alt_bn128).

Self-contained big-integer implementation: Fp2 as Fp[i]/(i^2+1), Fp12 as a
degree-12 extension modulo w^12 - 18 w^6 + 82, points in affine
coordinates, Miller loop over 6u+2 with the two Frobenius line corrections,
and the full (p^12 - 1)/r final exponentiation. Signatures live in G1 (on
the base curve, cofactor 1), public keys in G2 (on the sextic twist).

Pure Python and unhurried: a pairing costs on the order of a second, which
is fine for the handful of direct tests that exercise this backend; bulk
protocol simulations use the exponent backend instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from amisim.errors import CryptoError

FIELD_MODULUS = 21888242871839275222246405745257275088696311157297823662689037894645226208583
CURVE_ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617

# w^12 = 18 w^6 - 82, i.e. the minimal polynomial coefficients at degrees 0 and 6.
_FQ12_COEFF_0 = 82
_FQ12_COEFF_6 = -18

ATE_LOOP_COUNT = 29793968203157093288
LOG_ATE_LOOP_COUNT = 63

CURVE_B = 3

G1_GENERATOR = (1, 2)
G2_GENERATOR = (
    (
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    (
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)


# ---------------------------------------------------------------------------
# Fp2 arithmetic on plain (a, b) tuples representing a + b*i, i^2 = -1
# ---------------------------------------------------------------------------

P = FIELD_MODULUS


def fq2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def fq2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def fq2_neg(x):
    return (-x[0] % P, -x[1] % P)


def fq2_mul(x, y):
    a, b = x
    c, d = y
    ac = a * c
    bd = b * d
    return ((ac - bd) % P, ((a + b) * (c + d) - ac - bd) % P)


def fq2_scalar(x, k):
    return (x[0] * k % P, x[1] * k % P)


def fq2_inv(x):
    a, b = x
    norm_inv = pow(a * a + b * b, -1, P)
    return (a * norm_inv % P, -b * norm_inv % P)


FQ2_ONE = (1, 0)
FQ2_ZERO = (0, 0)

# b-coefficient of the twist curve: 3 / (9 + i)
TWIST_B = fq2_mul((CURVE_B, 0), fq2_inv((9, 1)))


# ---------------------------------------------------------------------------
# Fp12 arithmetic on 12-tuples of ints (coefficients of w^0 .. w^11)
# ---------------------------------------------------------------------------

FQ12_ONE = (1,) + (0,) * 11
FQ12_ZERO = (0,) * 12


def fq12_add(x, y):
    return tuple((a + b) % P for a, b in zip(x, y))


def fq12_sub(x, y):
    return tuple((a - b) % P for a, b in zip(x, y))


def fq12_neg(x):
    return tuple(-a % P for a in x)


def fq12_scalar(x, k):
    return tuple(a * k % P for a in x)


def fq12_mul(x, y):
    acc = [0] * 23
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    acc[i + j] += xi * yj
    # Fold degrees 22..12 with w^12 = 18 w^6 - 82.
    for deg in range(22, 11, -1):
        top = acc[deg]
        if top:
            acc[deg - 6] += top * 18
            acc[deg - 12] -= top * 82
            acc[deg] = 0
    return tuple(a % P for a in acc[:12])


def fq12_square(x):
    return fq12_mul(x, x)


def _poly_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return 0


def _poly_rounded_div(a, b):
    dega = _poly_degree(a)
    degb = _poly_degree(b)
    temp = list(a)
    out = [0] * len(a)
    inv_lead = pow(b[degb], -1, P)
    for d in range(dega - degb, -1, -1):
        factor = temp[degb + d] * inv_lead % P
        out[d] = (out[d] + factor) % P
        for i in range(degb + 1):
            temp[i + d] = (temp[i + d] - b[i] * factor) % P
    return out[: _poly_degree(out) + 1]


def fq12_inv(x):
    # Extended Euclid over Fp[w] modulo the degree-12 minimal polynomial.
    lm, hm = [1] + [0] * 12, [0] * 13
    low = list(x) + [0]
    high = [_FQ12_COEFF_0 % P, 0, 0, 0, 0, 0, _FQ12_COEFF_6 % P] + [0] * 5 + [1]
    while _poly_degree(low):
        r = _poly_rounded_div(high, low)
        r += [0] * (13 - len(r))
        nm = list(hm)
        new = list(high)
        for i in range(13):
            for j in range(13 - i):
                nm[i + j] = (nm[i + j] - lm[i] * r[j]) % P
                new[i + j] = (new[i + j] - low[i] * r[j]) % P
        lm, low, hm, high = nm, new, lm, low
    inv_c0 = pow(low[0], -1, P)
    return tuple(c * inv_c0 % P for c in lm[:12])


def fq12_pow(x, exponent: int):
    result = FQ12_ONE
    base = x
    while exponent:
        if exponent & 1:
            result = fq12_mul(result, base)
        base = fq12_square(base)
        exponent >>= 1
    return result


# ---------------------------------------------------------------------------
# Curve arithmetic, generic over the field via small op tables
# ---------------------------------------------------------------------------

class _Ops:
    __slots__ = ("add", "sub", "neg", "mul", "inv", "scalar", "zero", "one")

    def __init__(self, add, sub, neg, mul, inv, scalar, zero, one):
        self.add, self.sub, self.neg = add, sub, neg
        self.mul, self.inv, self.scalar = mul, inv, scalar
        self.zero, self.one = zero, one


_FP_OPS = _Ops(
    add=lambda a, b: (a + b) % P,
    sub=lambda a, b: (a - b) % P,
    neg=lambda a: -a % P,
    mul=lambda a, b: a * b % P,
    inv=lambda a: pow(a, -1, P),
    scalar=lambda a, k: a * k % P,
    zero=0,
    one=1,
)

_FQ2_OPS = _Ops(fq2_add, fq2_sub, fq2_neg, fq2_mul, fq2_inv, fq2_scalar, FQ2_ZERO, FQ2_ONE)

_FQ12_OPS = _Ops(
    fq12_add, fq12_sub, fq12_neg, fq12_mul, fq12_inv, fq12_scalar, FQ12_ZERO, FQ12_ONE
)


def _pt_double(pt, ops):
    if pt is None:
        return None
    x, y = pt
    if y == ops.zero:
        return None
    slope = ops.mul(ops.scalar(ops.mul(x, x), 3), ops.inv(ops.scalar(y, 2)))
    nx = ops.sub(ops.mul(slope, slope), ops.scalar(x, 2))
    ny = ops.sub(ops.mul(slope, ops.sub(x, nx)), y)
    return (nx, ny)


def _pt_add(p1, p2, ops):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == y2:
            return _pt_double(p1, ops)
        return None
    slope = ops.mul(ops.sub(y2, y1), ops.inv(ops.sub(x2, x1)))
    nx = ops.sub(ops.sub(ops.mul(slope, slope), x1), x2)
    ny = ops.sub(ops.mul(slope, ops.sub(x1, nx)), y1)
    return (nx, ny)


def _pt_neg(pt, ops):
    if pt is None:
        return None
    return (pt[0], ops.neg(pt[1]))


def _pt_mul(pt, k, ops):
    result = None
    addend = pt
    while k:
        if k & 1:
            result = _pt_add(result, addend, ops)
        addend = _pt_double(addend, ops)
        k >>= 1
    return result


def _on_curve(pt, b, ops) -> bool:
    if pt is None:
        return True
    x, y = pt
    lhs = ops.mul(y, y)
    rhs = ops.add(ops.mul(ops.mul(x, x), x), b)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Mapping points into Fp12 for the Miller loop
# ---------------------------------------------------------------------------

_W2 = (0, 0, 1) + (0,) * 9   # w^2
_W3 = (0, 0, 0, 1) + (0,) * 8  # w^3


def _fp_to_fq12(a: int):
    return (a % P,) + (0,) * 11


def _cast_g1(pt):
    if pt is None:
        return None
    return (_fp_to_fq12(pt[0]), _fp_to_fq12(pt[1]))


def _twist(pt):
    """Untwist a G2 point into E(Fp12) via the standard 9+i change of basis."""
    if pt is None:
        return None
    (x0, x1), (y0, y1) = pt
    nx = [0] * 12
    ny = [0] * 12
    nx[0] = (x0 - 9 * x1) % P
    nx[6] = x1 % P
    ny[0] = (y0 - 9 * y1) % P
    ny[6] = y1 % P
    return (fq12_mul(tuple(nx), _W2), fq12_mul(tuple(ny), _W3))


def _linefunc(p1, p2, t):
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        slope = fq12_mul(fq12_sub(y2, y1), fq12_inv(fq12_sub(x2, x1)))
        return fq12_sub(fq12_mul(slope, fq12_sub(xt, x1)), fq12_sub(yt, y1))
    if y1 == y2:
        slope = fq12_mul(
            fq12_scalar(fq12_mul(x1, x1), 3), fq12_inv(fq12_scalar(y1, 2))
        )
        return fq12_sub(fq12_mul(slope, fq12_sub(xt, x1)), fq12_sub(yt, y1))
    return fq12_sub(xt, x1)


def miller_loop(q, p):
    """Miller loop over the untwisted G2 point q and G1 point p (both in Fp12).

    Returns the value BEFORE final exponentiation so products of loops can
    share one exponentiation.
    """
    if q is None or p is None:
        return FQ12_ONE
    r = q
    f = FQ12_ONE
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = fq12_mul(fq12_square(f), _linefunc(r, r, p))
        r = _pt_double(r, _FQ12_OPS)
        if ATE_LOOP_COUNT & (2**i):
            f = fq12_mul(f, _linefunc(r, q, p))
            r = _pt_add(r, q, _FQ12_OPS)
    q1 = (fq12_pow(q[0], P), fq12_pow(q[1], P))
    nq2 = (fq12_pow(q1[0], P), fq12_neg(fq12_pow(q1[1], P)))
    f = fq12_mul(f, _linefunc(r, q1, p))
    r = _pt_add(r, q1, _FQ12_OPS)
    f = fq12_mul(f, _linefunc(r, nq2, p))
    return f


FINAL_EXPONENT = (FIELD_MODULUS**12 - 1) // CURVE_ORDER


def final_exponentiation(f):
    return fq12_pow(f, FINAL_EXPONENT)


# ---------------------------------------------------------------------------
# Public suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class G1Point:
    point: tuple | None

    def __add__(self, other: "G1Point") -> "G1Point":
        return G1Point(_pt_add(self.point, other.point, _FP_OPS))

    def __neg__(self) -> "G1Point":
        return G1Point(_pt_neg(self.point, _FP_OPS))

    def __rmul__(self, scalar: int) -> "G1Point":
        return G1Point(_pt_mul(self.point, scalar % CURVE_ORDER, _FP_OPS))

    def is_identity(self) -> bool:
        return self.point is None


@dataclass(frozen=True)
class G2Point:
    point: tuple | None

    def __add__(self, other: "G2Point") -> "G2Point":
        return G2Point(_pt_add(self.point, other.point, _FQ2_OPS))

    def __neg__(self) -> "G2Point":
        return G2Point(_pt_neg(self.point, _FQ2_OPS))

    def __rmul__(self, scalar: int) -> "G2Point":
        return G2Point(_pt_mul(self.point, scalar % CURVE_ORDER, _FQ2_OPS))

    def is_identity(self) -> bool:
        return self.point is None


@dataclass(frozen=True)
class GtElement:
    value: tuple

    def __mul__(self, other: "GtElement") -> "GtElement":
        return GtElement(fq12_mul(self.value, other.value))

    def __pow__(self, exponent: int) -> "GtElement":
        if exponent < 0:
            return GtElement(fq12_pow(fq12_inv(self.value), -exponent))
        return GtElement(fq12_pow(self.value, exponent))

    def is_one(self) -> bool:
        return self.value == FQ12_ONE


class Bn254Suite:
    name = "bn254"
    order = CURVE_ORDER

    # -- group structure ----------------------------------------------------
    def g1_generator(self) -> G1Point:
        return G1Point(G1_GENERATOR)

    def g2_generator(self) -> G2Point:
        return G2Point(G2_GENERATOR)

    def g1_identity(self) -> G1Point:
        return G1Point(None)

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, CURVE_ORDER)

    def hash_to_g1(self, data: bytes) -> G1Point:
        """Try-and-increment: hash to x, solve the curve equation, pick the
        y whose parity follows the hash. Cofactor is 1, so any curve point
        is already in the prime-order group."""
        counter = 0
        while True:
            digest = hashlib.sha256(b"h2c|%d|" % counter + data).digest()
            x = int.from_bytes(digest, "big") % P
            rhs = (x * x % P * x + CURVE_B) % P
            y = pow(rhs, (P + 1) // 4, P)
            if y * y % P == rhs:
                parity = hashlib.sha256(b"sign|%d|" % counter + data).digest()[0] & 1
                if (y & 1) != parity:
                    y = P - y
                return G1Point((x, y))
            counter += 1

    # -- pairing -------------------------------------------------------------
    def pair(self, a: G1Point, b: G2Point) -> GtElement:
        self._check_points(a, b)
        return GtElement(
            final_exponentiation(miller_loop(_twist(b.point), _cast_g1(a.point)))
        )

    def pair_product(self, pairs) -> GtElement:
        f = FQ12_ONE
        for a, b in pairs:
            self._check_points(a, b)
            f = fq12_mul(f, miller_loop(_twist(b.point), _cast_g1(a.point)))
        return GtElement(final_exponentiation(f))

    @staticmethod
    def _check_points(a: G1Point, b: G2Point):
        if not _on_curve(a.point, CURVE_B, _FP_OPS):
            raise CryptoError("G1 point not on curve")
        if not _on_curve(b.point, TWIST_B, _FQ2_OPS):
            raise CryptoError("G2 point not on twist curve")

    # -- wire format ---------------------------------------------------------
    def g1_serialize(self, pt: G1Point) -> bytes:
        if pt.point is None:
            return b"\x00" * 64
        x, y = pt.point
        return x.to_bytes(32, "big") + y.to_bytes(32, "big")

    def g1_deserialize(self, data: bytes) -> G1Point:
        if len(data) != 64:
            raise CryptoError("bad G1 encoding length")
        if data == b"\x00" * 64:
            return G1Point(None)
        x = int.from_bytes(data[:32], "big")
        y = int.from_bytes(data[32:], "big")
        pt = (x, y)
        if x >= P or y >= P or not _on_curve(pt, CURVE_B, _FP_OPS):
            raise CryptoError("G1 encoding is not a curve point")
        return G1Point(pt)

    def g2_serialize(self, pt: G2Point) -> bytes:
        if pt.point is None:
            return b"\x00" * 128
        (x0, x1), (y0, y1) = pt.point
        return b"".join(v.to_bytes(32, "big") for v in (x0, x1, y0, y1))

    def g2_deserialize(self, data: bytes) -> G2Point:
        if len(data) != 128:
            raise CryptoError("bad G2 encoding length")
        if data == b"\x00" * 128:
            return G2Point(None)
        vals = [int.from_bytes(data[i : i + 32], "big") for i in range(0, 128, 32)]
        if any(v >= P for v in vals):
            raise CryptoError("G2 encoding out of range")
        pt = ((vals[0], vals[1]), (vals[2], vals[3]))
        if not _on_curve(pt, TWIST_B, _FQ2_OPS):
            raise CryptoError("G2 encoding is not a twist point")
        return G2Point(pt)

    def params_summary(self) -> dict:
        return {"backend": self.name, "order": self.order, "p": P}
