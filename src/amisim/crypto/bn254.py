"""Optimal-ate pairing over the 254-bit Barreto-Naehrig curve (alt_bn128).

Self-contained big-integer implementation: Fp2 as Fp[i]/(i^2+1), Fp12 as a
degree-12 extension modulo w^12 - 18 w^6 + 82, points in affine
coordinates (addition and scalar multiplication run in Jacobian
coordinates and share one to-affine step, one inversion), one Miller loop
over 6u+2 per pairing product, with the two Frobenius line corrections and
each G2 point's lines prepared once, and the (p^12 - 1)/r final
exponentiation split into an easy part (Frobenius maps and one inverse)
and a hard part (one joint exponentiation by four base-p digits).
Signatures live in G1 (on the base curve, cofactor 1), public keys in G2
(on the sextic twist, cofactor 2p - r). The Miller loop keeps G2 on the
twist in Fp2 and only its sparse line values enter Fp12, through
_mul_by_line, so fq12_mul only ever sees dense elements. Each point has
one check, which pair_product and both deserializers run: on its curve,
and for G2 also in the order-r subgroup (r Q = 0), a result a G2 point
keeps next to its lines.

Pure Python: on a 2-core x86 machine with Python 3.11 (medians of 15) a
product of 2 pairings takes 20-22 ms and one of 4 takes 24-27 ms (41 and
63 ms with one Miller loop per pair), of which the shared loop is 6 and
10 ms and the final exponentiation 15-16 ms. Preparing a G2 point's lines
takes 3 ms and its subgroup check about one G2 scalar multiplication,
each once per point. A 254-bit scalar multiplication takes 1.8-2.1 ms in
G1 and 5-6.3 ms in G2. Bulk protocol simulations use the exponent backend
instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

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


def _fold(acc):
    """Reduce the coefficients of w^0 .. w^(len(acc) - 1) with w^12 = 18 w^6 - 82."""
    for deg in range(len(acc) - 1, 11, -1):
        acc[deg - 6] += acc[deg] * 18
        acc[deg - 12] -= acc[deg] * 82
    return tuple(a % P for a in acc[:12])


def fq12_mul(x, y):
    """x * y from all 144 products: every caller passes dense elements (the
    Miller loop's sparse lines go through _mul_by_line)."""
    acc = [0] * 23
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            acc[i + j] += xi * yj
    return _fold(acc)


def fq12_square(x):
    """x * x from the 78 products x_i x_j with i <= j instead of 144."""
    acc = [0] * 23
    for i, xi in enumerate(x):
        acc[2 * i] += xi * xi
        xi += xi
        for j in range(i + 1, 12):
            acc[i + j] += xi * x[j]
    return _fold(acc)


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


def _pt_neg(pt, ops):
    if pt is None:
        return None
    return (pt[0], ops.neg(pt[1]))


def _jac_double(X, Y, Z, ops):
    """2 (X, Y, Z) in Jacobian coordinates: (X/Z^2, Y/Z^3), Z = 0 the identity."""
    mul, sub, scalar = ops.mul, ops.sub, ops.scalar
    yy = mul(Y, Y)
    s = scalar(mul(X, yy), 4)
    m = scalar(mul(X, X), 3)
    nx = sub(mul(m, m), scalar(s, 2))
    return nx, sub(mul(m, sub(s, nx)), scalar(mul(yy, yy), 8)), scalar(mul(Y, Z), 2)


def _jac_add_affine(X, Y, Z, pt, ops):
    """(X, Y, Z) + pt for an affine pt, in Jacobian coordinates."""
    mul, sub, zero = ops.mul, ops.sub, ops.zero
    if Z == zero:
        return (*pt, ops.one)
    zz = mul(Z, Z)
    h = sub(mul(pt[0], zz), X)
    r = sub(mul(pt[1], mul(zz, Z)), Y)
    if h == zero:  # (X, Y, Z) is pt or -pt
        return _jac_double(X, Y, Z, ops) if r == zero else (X, Y, zero)
    hh = mul(h, h)
    hhh = mul(h, hh)
    v = mul(X, hh)
    nx = sub(sub(mul(r, r), hhh), ops.scalar(v, 2))
    return nx, sub(mul(r, sub(v, nx)), mul(Y, hhh)), mul(Z, h)


def _pt_mul(pt, k, ops):
    """k * pt for any k >= 0, by left-to-right double-and-add in Jacobian
    coordinates: one inversion in all (Cohen, Miyaji and Ono, ASIACRYPT 1998)."""
    if k < 0:
        raise CryptoError("scalar multiplication needs k >= 0")
    if pt is None or k == 0:
        return None
    X, Y, Z = (*pt, ops.one)
    for bit in bin(k)[3:]:
        X, Y, Z = _jac_double(X, Y, Z, ops)
        if bit == "1":
            X, Y, Z = _jac_add_affine(X, Y, Z, pt, ops)
    return _to_affine(X, Y, Z, ops)


def _to_affine(X, Y, Z, ops):
    """The affine point (X/Z^2, Y/Z^3), None for Z = 0, from one inversion."""
    if Z == ops.zero:
        return None
    z_inv = ops.inv(Z)
    z_inv2 = ops.mul(z_inv, z_inv)
    return (ops.mul(X, z_inv2), ops.mul(Y, ops.mul(z_inv2, z_inv)))


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


def _line_step(r, t):
    """The line through twist points r and t (the tangent at r if r == t) and r + t, from one
    inversion: (l0 - 9 l1, l1, c0 - 9 c1, c1) for the slope l = l0 + l1 i and c = y1 - l x1,
    or (9 b - a, -b) for the vertical line x_P - x1 w^2, x1 = a + b i, and r + t = None."""
    (x1, y1), (x2, y2) = r, t
    if x1 != x2:
        slope = fq2_mul(fq2_sub(y2, y1), fq2_inv(fq2_sub(x2, x1)))
    elif y1 == y2:
        slope = fq2_mul(fq2_scalar(fq2_mul(x1, x1), 3), fq2_inv(fq2_scalar(y1, 2)))
    else:
        return ((9 * x1[1] - x1[0]) % P, -x1[1] % P), None
    nx = fq2_sub(fq2_sub(fq2_mul(slope, slope), x1), x2)
    (l0, l1), (c0, c1) = slope, fq2_sub(y1, fq2_mul(slope, x1))
    line = ((l0 - 9 * l1) % P, l1, (c0 - 9 * c1) % P, c1)
    return line, (nx, fq2_sub(fq2_mul(slope, fq2_sub(x1, nx)), y1))


def _prepare_lines(q):
    """The Miller loop's lines for the twist point q: one list per squaring of f, in order."""
    r, steps = q, []
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        line, r = _line_step(r, r)
        steps.append([line])
        if ATE_LOOP_COUNT >> i & 1:
            line, r = _line_step(r, q)
            steps[-1].append(line)
    q1 = _frobenius(q)
    line, r = _line_step(r, q1)
    steps[-1] += [line, _line_step(r, _pt_neg(_frobenius(q1), _FQ2_OPS))[0]]
    return steps


def _mul_by_line(f, line, xp, yp):
    """f times the value of a prepared line at the G1 point (xp, yp), a
    sparse product: -y_P + (l x_P) w + c w^3 is nonzero at w^0, w^1, w^3,
    w^7 and w^9, the vertical line x_P - x1 w^2 at w^0, w^2 and w^8."""
    acc = [0] * 21
    if len(line) == 2:
        v2, v8 = line
        for i, fi in enumerate(f):
            acc[i] += fi * xp
            acc[i + 2] += fi * v2
            acc[i + 8] += fi * v8
        return _fold(acc)
    l1, l7, l3, l9 = line[0] * xp % P, line[1] * xp % P, line[2], line[3]
    for i, fi in enumerate(f):
        acc[i] -= fi * yp
        acc[i + 1] += fi * l1
        acc[i + 3] += fi * l3
        acc[i + 7] += fi * l7
        acc[i + 9] += fi * l9
    return _fold(acc)


def miller_loop_product(pairs):
    """The product of the Miller loops over [(G1Point, G2Point), ...] as one loop (Granger and
    Smart, ePrint 2006/172): each step squares f once and multiplies in every pair's lines.
    A pair with an identity contributes 1. The final exponentiation is left to the caller."""
    live = [(a.point, b.lines) for a, b in pairs if a.point is not None and b.point is not None]
    f = FQ12_ONE
    for step in zip(*(lines for _, lines in live)):
        f = fq12_square(f)
        for ((xp, yp), _), lines in zip(live, step):
            for line in lines:
                f = _mul_by_line(f, line, xp, yp)
    return f


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
        """The sum through _pt_mul's Jacobian addition and one inversion."""
        if self.point is None or other.point is None:
            return other if self.point is None else self
        ops = self._ops
        return type(self)(_to_affine(*_jac_add_affine(*self.point, ops.one, other.point, ops), ops))

    def __neg__(self):
        return type(self)(_pt_neg(self.point, self._ops))

    def __rmul__(self, scalar: int):
        return type(self)(_pt_mul(self.point, scalar % CURVE_ORDER, self._ops))

    def is_identity(self) -> bool:
        return self.point is None

    def check(self):
        """Raise CryptoError unless the point lies in its group. G1 is the
        whole base curve (cofactor 1), so there the curve equation suffices."""
        if self.point is not None:
            (x, y), ops = self.point, self._ops
            if ops.mul(y, y) != ops.add(ops.mul(ops.mul(x, x), x), self._b):
                raise CryptoError(f"{type(self).__name__} not on its curve")


class G1Point(_CurvePoint):
    _ops, _b = _FP_OPS, CURVE_B


class G2Point(_CurvePoint):
    _ops, _b = _FQ2_OPS, TWIST_B

    def check(self):
        """Also require r Q = 0: the twist has cofactor 2p - r, so a twist
        point need not lie in G2 (Barreto et al., "Subgroup Security in
        Pairing-Based Cryptography", LATINCRYPT 2015). A point that passes
        keeps the result, like its lines."""
        self._in_g2  # raises, or reads the cached pass

    @cached_property
    def _in_g2(self):
        super().check()
        if _pt_mul(self.point, CURVE_ORDER, _FQ2_OPS) is not None:
            raise CryptoError("G2Point is not in the order-r subgroup")
        return True

    @cached_property
    def lines(self):  # prepared on first use (Costello and Stebila, "Fixed argument pairings")
        return _prepare_lines(self.point)


_G2_GEN = G2Point(G2_GENERATOR)  # one point, so its lines are prepared once per process


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
        return _G2_GEN

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
        return self.pair_product([(a, b)])

    def pair_product(self, pairs) -> GtElement:
        pairs = list(pairs)
        for a, b in pairs:
            a.check()
            b.check()
        return GtElement(final_exponentiation(miller_loop_product(pairs)))

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
        if x >= P or y >= P:
            raise CryptoError("G1 encoding out of range")
        pt = G1Point((x, y))
        pt.check()
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
        pt.check()
        return pt

    def params_summary(self) -> dict:
        return {"backend": self.name, "order": self.order, "p": P}
