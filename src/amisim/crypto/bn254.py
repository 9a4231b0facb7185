"""Optimal-ate pairing over the 254-bit Barreto-Naehrig curve (alt_bn128).

Self-contained big-integer implementation: Fp2 as Fp[i]/(i^2+1), Fp12 as a
degree-12 extension modulo w^12 - 18 w^6 + 82, points in affine
coordinates, Miller loop over 6u+2 with the two Frobenius line corrections,
and the (p^12 - 1)/r final exponentiation split into an easy part (Frobenius
maps and one inverse) and a hard part (one joint exponentiation by four
base-p digits). Signatures live in G1 (on the base curve, cofactor 1),
public keys in G2 (on the sextic twist, cofactor 2p - r). The Miller loop
keeps G2 on the twist in Fp2 and only its sparse line values enter Fp12.

Pure Python: on a 2-core x86 machine with Python 3.11 a pairing takes
0.04-0.08 s, of which the Miller loop is 15-30 ms and the final
exponentiation 25-50 ms. Bulk protocol simulations use the exponent backend
instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from amisim.errors import CryptoError

FIELD_MODULUS = 21888242871839275222246405745257275088696311157297823662689037894645226208583
CURVE_ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617

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


def fq2_pow(x, exponent: int):
    result = FQ2_ONE
    while exponent:
        if exponent & 1:
            result = fq2_mul(result, x)
        x = fq2_mul(x, x)
        exponent >>= 1
    return result


# The twist's non-residue xi = 9 + i (= w^6 in Fp12) and its b coefficient 3 / xi.
XI = (9, 1)
TWIST_B = fq2_mul((CURVE_B, 0), fq2_inv(XI))


# ---------------------------------------------------------------------------
# Fp12 arithmetic on 12-tuples of ints (coefficients of w^0 .. w^11)
# ---------------------------------------------------------------------------

FQ12_ONE = (1,) + (0,) * 11


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
    __slots__ = ("add", "sub", "neg", "mul", "inv", "scalar", "zero")

    def __init__(self, add, sub, neg, mul, inv, scalar, zero):
        self.add, self.sub, self.neg = add, sub, neg
        self.mul, self.inv, self.scalar = mul, inv, scalar
        self.zero = zero


_FP_OPS = _Ops(
    add=lambda a, b: (a + b) % P,
    sub=lambda a, b: (a - b) % P,
    neg=lambda a: -a % P,
    mul=lambda a, b: a * b % P,
    inv=lambda a: pow(a, -1, P),
    scalar=lambda a, k: a * k % P,
    zero=0,
)

_FQ2_OPS = _Ops(fq2_add, fq2_sub, fq2_neg, fq2_mul, fq2_inv, fq2_scalar, FQ2_ZERO)


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
# Miller loop on the twist
# ---------------------------------------------------------------------------
#
# Untwisting sends a twist point (x, y) to (x w^2, y w^3) in E(Fp12), where
# an Fp2 element a + b i embeds as (a - 9b) + b w^6 (w^6 = 9 + i). So a line
# through two twist points has the slope lambda w with lambda in Fp2: R, the
# slopes and the Frobenius images of Q all stay in Fp2.

# w^p = gamma w with gamma = xi^((p-1)/6) in Fp2, so (w^2)^p = gamma^2 w^2 and
# (w^3)^p = gamma^3 w^3.
_GAMMA = fq2_pow(XI, (P - 1) // 6)
_FROB_X = fq2_mul(_GAMMA, _GAMMA)
_FROB_Y = fq2_mul(_FROB_X, _GAMMA)


def _frobenius(pt):
    """The p-power Frobenius of the untwisted point, mapped back to the twist."""
    (x0, x1), (y0, y1) = pt
    return (fq2_mul((x0, -x1 % P), _FROB_X), fq2_mul((y0, -y1 % P), _FROB_Y))


def _line(r, t, p):
    """Value at the G1 point p of the untwisted line through twist points r
    and t (the tangent at r when r == t), as a sparse Fp12 element."""
    (x1, y1), (x2, y2) = r, t
    xp, yp = p
    if x1 != x2:
        slope = fq2_mul(fq2_sub(y2, y1), fq2_inv(fq2_sub(x2, x1)))
    elif y1 == y2:
        slope = fq2_mul(fq2_scalar(fq2_mul(x1, x1), 3), fq2_inv(fq2_scalar(y1, 2)))
    else:
        # Vertical line: x_P - x1 w^2.
        a, b = x1
        return (xp % P, 0, (9 * b - a) % P, 0, 0, 0, 0, 0, -b % P, 0, 0, 0)
    # -y_P + (lambda x_P) w + (y1 - lambda x1) w^3
    l0, l1 = fq2_scalar(slope, xp)
    c0, c1 = fq2_sub(y1, fq2_mul(slope, x1))
    return (-yp % P, (l0 - 9 * l1) % P, 0, (c0 - 9 * c1) % P, 0, 0, 0, l1, 0, c1, 0, 0)


def miller_loop(q, p):
    """Miller loop over the G2 point q (on the twist) and the G1 point p.

    Returns the value BEFORE final exponentiation so products of loops can
    share one exponentiation.
    """
    if q is None or p is None:
        return FQ12_ONE
    r = q
    f = FQ12_ONE
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = fq12_mul(fq12_square(f), _line(r, r, p))
        r = _pt_double(r, _FQ2_OPS)
        if ATE_LOOP_COUNT & (2**i):
            f = fq12_mul(f, _line(r, q, p))
            r = _pt_add(r, q, _FQ2_OPS)
    q1 = _frobenius(q)
    nq2 = _pt_neg(_frobenius(q1), _FQ2_OPS)
    f = fq12_mul(f, _line(r, q1, p))
    r = _pt_add(r, q1, _FQ2_OPS)
    return fq12_mul(f, _line(r, nq2, p))


# ---------------------------------------------------------------------------
# Final exponentiation
# ---------------------------------------------------------------------------
#
# (p^12 - 1)/r = (p^6 - 1)(p^2 + 1) * (p^4 - p^2 + 1)/r (Scott et al., "On the
# Final Exponentiation for Calculating Pairings on Ordinary Elliptic Curves",
# Pairing 2009). The easy part costs Frobenius maps, one inverse and two
# products; the hard part is one joint exponentiation over f, f^p, f^(p^2)
# and f^(p^3) by the four base-p digits of (p^4 - p^2 + 1)/r.

# x^p = sum a_k (w^p)^k. gamma = g0 + g1 i embeds as (g0 - 9 g1) + g1 w^6,
# so w^p = gamma w is:
_W_P = (0, (_GAMMA[0] - 9 * _GAMMA[1]) % P, 0, 0, 0, 0, 0, _GAMMA[1], 0, 0, 0, 0)
_FROB_POWERS = [FQ12_ONE, _W_P]  # (w^p)^k for k = 0 .. 11
for _ in range(10):
    _FROB_POWERS.append(fq12_mul(_FROB_POWERS[-1], _W_P))


def fq12_frobenius(x):
    """x^p, a linear map on the coefficients."""
    acc = [0] * 12
    for a, image in zip(x, _FROB_POWERS):
        if a:
            for j, c in enumerate(image):
                if c:
                    acc[j] += a * c
    return tuple(v % P for v in acc)


def _fq12_inv(x):
    """x^-1 = x^(p + p^2 + ... + p^11) / N(x), where the norm N(x) lies in Fp."""
    image = fq12_frobenius(x)
    rest = image
    for _ in range(10):
        image = fq12_frobenius(image)
        rest = fq12_mul(rest, image)
    norm_inv = pow(fq12_mul(x, rest)[0], -1, P)
    return tuple(c * norm_inv % P for c in rest)


def _hard_digit_indices():
    """Per bit of the base-p digits of (p^4 - p^2 + 1)/r, top bit first, the
    4-bit index of the digits with that bit set (digit k sets bit k)."""
    exponent = (P**4 - P**2 + 1) // CURVE_ORDER
    digits = [exponent // P**k % P for k in range(4)]
    top = max(d.bit_length() for d in digits)
    return [
        sum(((d >> bit) & 1) << k for k, d in enumerate(digits))
        for bit in range(top - 1, -1, -1)
    ]


_HARD_INDICES = _hard_digit_indices()


def final_exponentiation(f):
    """f^((p^12 - 1)/r). Zero, a degenerate product, stays zero."""
    if not any(f):
        return (0,) * 12
    # Easy part: the p^6 power maps w to -w, so it negates odd coefficients.
    conjugate = tuple(-c % P if k & 1 else c for k, c in enumerate(f))
    t = fq12_mul(conjugate, _fq12_inv(f))
    t = fq12_mul(fq12_frobenius(fq12_frobenius(t)), t)
    # Hard part: table[idx] is the product of the bases whose bit is set in idx.
    bases = [t]
    for _ in range(3):
        bases.append(fq12_frobenius(bases[-1]))
    table = [FQ12_ONE]
    for base in bases:
        table += [fq12_mul(entry, base) for entry in table]
    result = FQ12_ONE
    for idx in _HARD_INDICES:
        result = fq12_square(result)
        if idx:
            result = fq12_mul(result, table[idx])
    return result


# ---------------------------------------------------------------------------
# Public suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CurvePoint:
    """Affine point, None for the identity; subclasses name the field ops
    and the curve's b coefficient."""

    point: tuple | None

    def __add__(self, other):
        return type(self)(_pt_add(self.point, other.point, self._ops))

    def __neg__(self):
        return type(self)(_pt_neg(self.point, self._ops))

    def __rmul__(self, scalar: int):
        return type(self)(_pt_mul(self.point, scalar % CURVE_ORDER, self._ops))

    def is_identity(self) -> bool:
        return self.point is None

    def on_curve(self) -> bool:
        return _on_curve(self.point, self._b, self._ops)


class G1Point(_CurvePoint):
    _ops, _b = _FP_OPS, CURVE_B


class G2Point(_CurvePoint):
    _ops, _b = _FQ2_OPS, TWIST_B


@dataclass(frozen=True)
class GtElement:
    value: tuple

    def __mul__(self, other: "GtElement") -> "GtElement":
        return GtElement(fq12_mul(self.value, other.value))

    def __pow__(self, exponent: int) -> "GtElement":
        # A final-exponentiation output lies in the order-r subgroup, so the
        # exponent reduces mod r and a negative one needs no inverse.
        return GtElement(fq12_pow(self.value, exponent % CURVE_ORDER))

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
        return GtElement(final_exponentiation(miller_loop(b.point, a.point)))

    def pair_product(self, pairs) -> GtElement:
        f = FQ12_ONE
        for a, b in pairs:
            self._check_points(a, b)
            f = fq12_mul(f, miller_loop(b.point, a.point))
        return GtElement(final_exponentiation(f))

    @staticmethod
    def _check_points(a: G1Point, b: G2Point):
        for pt in (a, b):
            if not pt.on_curve():
                raise CryptoError(f"{type(pt).__name__} not on its curve")

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
        pt = G1Point((x, y))
        if x >= P or y >= P or not pt.on_curve():
            raise CryptoError("G1 encoding is not a curve point")
        return pt

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
        pt = G2Point(((vals[0], vals[1]), (vals[2], vals[3])))
        if not pt.on_curve():
            raise CryptoError("G2 encoding is not a twist point")
        # The twist has cofactor 2p - r, so a twist point need not lie in G2.
        if _pt_mul(pt.point, CURVE_ORDER, _FQ2_OPS) is not None:
            raise CryptoError("G2 encoding is not in the order-r subgroup")
        return pt

    def params_summary(self) -> dict:
        return {"backend": self.name, "order": self.order, "p": P}
