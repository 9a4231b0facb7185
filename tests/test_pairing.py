import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amisim
import reference
from amisim.crypto import make_suite
from amisim.crypto.bn254 import FIELD_MODULUS as P
from amisim.errors import CryptoError


@pytest.fixture(scope="module")
def exp_suite():
    return make_suite("exp")


@pytest.fixture(scope="module")
def bn_suite():
    return make_suite("bn254")


def test_exp_suite_deterministic():
    """The exp group is fixed: a 160-bit prime order q dividing p - 1 for a
    prime p, and a target-group generator of order q."""
    from amisim.crypto.pairing import GT_GENERATOR, MODULUS, ORDER

    rng = random.Random(0)
    assert ORDER.bit_length() == 160
    assert reference.is_probable_prime(ORDER, rng)
    assert reference.is_probable_prime(MODULUS, rng)
    assert (MODULUS - 1) % ORDER == 0
    assert 1 < GT_GENERATOR < MODULUS and pow(GT_GENERATOR, ORDER, MODULUS) == 1
    assert make_suite("exp").order == ORDER
    assert make_suite("exp") is not make_suite("exp")  # perfbench wraps each suite's methods


def test_exp_bilinearity_many(exp_suite):
    suite = exp_suite
    rng = random.Random(5)
    p1 = suite.g1_generator()
    p2 = suite.g2_generator()
    for _ in range(100):
        a = suite.random_scalar(rng)
        b = suite.random_scalar(rng)
        lhs = suite.pair_product([(a * p1, b * p2)])
        assert lhs == suite.pair_product([((a * b % suite.order) * p1, p2)])
        assert lhs == suite.pair_product([(p1, p2), ((a * b - 1) * p1, p2)])
        assert suite.pair_product([(a * p1, b * p2), (-(a * b) * p1, p2)]).is_one()


def test_exp_non_degenerate(exp_suite):
    assert not exp_suite.pair_product([(exp_suite.g1_generator(), exp_suite.g2_generator())]).is_one()


def test_exp_hash_to_group_spread(exp_suite):
    seen = {exp_suite.hash_to_g1(bytes([i])).log for i in range(32)}
    assert len(seen) == 32


def test_exp_serialization_round_trip(exp_suite):
    suite = exp_suite
    pt = 12345 * suite.g1_generator()
    assert suite.g1_deserialize(suite.g1_serialize(pt)) == pt
    with pytest.raises(CryptoError):
        suite.g1_deserialize(b"\xff" * 32)  # above the group order


def test_bn254_bilinearity(bn_suite):
    suite = bn_suite
    rng = random.Random(9)
    p1 = suite.g1_generator()
    p2 = suite.g2_generator()
    assert not suite.pair_product([(p1, p2)]).is_one()
    for _ in range(2):
        a = rng.randrange(1, 2**64)
        b = rng.randrange(1, 2**64)
        lhs = suite.pair_product([(a * p1, b * p2)])
        assert lhs == suite.pair_product([((a * b % suite.order) * p1, p2)])
        assert suite.pair_product([(a * p1, b * p2), (-(a * b) * p1, p2)]).is_one()


def test_bn254_pair_product_matches_single(bn_suite):
    suite = bn_suite
    p1 = suite.g1_generator()
    p2 = suite.g2_generator()
    # e(P, Q) * e(-P, Q) == 1
    check = suite.pair_product([(p1, p2), (-p1, p2)])
    assert check.is_one()


def test_bn254_known_answers(bn_suite):
    """Pin pairing values after final exponentiation: bilinearity alone
    would pass a pairing whose value had changed."""

    def digest(gt):
        return hashlib.sha256(b"".join(c.to_bytes(32, "big") for c in gt.value)).hexdigest()

    suite = bn_suite
    g1, g2 = suite.g1_generator(), suite.g2_generator()
    e = suite.pair_product([(g1, g2)])
    assert digest(e) == "5311faff1dd5b1ffb25301832ff952f5eca7de688000b864642bb986f3957278"
    assert (
        digest(suite.pair_product([(5 * g1, 7 * g2)]))
        == "286cee9f30f07125169664295126402051f3f5e0fb8e2a9f65010b2bb4ea0321"
    )
    for k in (1, 35, suite.order - 2):  # -k g1 is (r - k) g1, and pairs to e^-k
        assert suite.pair_product([(-k * g1, g2)]) == suite.pair_product([((suite.order - k) * g1, g2)])
        assert suite.pair_product([(-k * g1, g2), (k * g1, g2)]).is_one()


def test_bn254_hash_to_g1_on_curve(bn_suite):
    for i in range(6):
        pt = bn_suite.hash_to_g1(b"payload-%d" % i)
        pt.check()  # raises CryptoError off the curve
    a = bn_suite.hash_to_g1(b"same")
    b = bn_suite.hash_to_g1(b"same")
    assert a == b


def test_bn254_group_ops_match_order(bn_suite):
    suite = bn_suite
    p1 = suite.g1_generator()
    assert (suite.order * p1).is_identity()
    pt = 7 * p1
    assert (3 * p1) + (4 * p1) == pt
    assert (pt + (-pt)).is_identity()


def test_bn254_serialization_round_trip(bn_suite):
    suite = bn_suite
    g1 = 31337 * suite.g1_generator()
    g2 = 271828 * suite.g2_generator()
    assert suite.g1_deserialize(suite.g1_serialize(g1)) == g1
    assert suite.g2_deserialize(suite.g2_serialize(g2)) == g2
    bad = bytearray(suite.g1_serialize(g1))
    bad[5] ^= 0x40
    with pytest.raises(CryptoError):
        suite.g1_deserialize(bytes(bad))


def test_bn254_final_exponentiation_equals_plain_power(bn_suite):
    from amisim.crypto.bn254 import CURVE_ORDER, FIELD_MODULUS as P, final_exponentiation
    from reference import fq12_pow, miller_loop

    final_exponent = (P**12 - 1) // CURVE_ORDER
    rng = random.Random(21)
    g1, g2 = bn_suite.g1_generator(), bn_suite.g2_generator()
    inputs = [
        miller_loop((rng.randrange(1, 2**64) * g2).point, (rng.randrange(1, 2**64) * g1).point)
        for _ in range(5)
    ]
    inputs += [tuple(rng.randrange(P) for _ in range(12)) for _ in range(3)]
    inputs.append((0,) * 12)
    for f in inputs:
        assert final_exponentiation(f) == fq12_pow(f, final_exponent)
    assert final_exponentiation((0,) * 12) == (0,) * 12


def _fq2_sqrt(a):
    """A square root in Fp2 (p = 3 mod 4) through the norm, or None."""
    from amisim.crypto.bn254 import FIELD_MODULUS as P, fq2_mul

    a0, a1 = a
    s = pow((a0 * a0 + a1 * a1) % P, (P + 1) // 4, P)
    for delta in ((a0 + s) * pow(2, -1, P) % P, (a0 - s) * pow(2, -1, P) % P):
        x0 = pow(delta, (P + 1) // 4, P)
        if x0 * x0 % P == delta and x0:
            root = (x0, a1 * pow(2 * x0, -1, P) % P)
            return root if fq2_mul(root, root) == (a0 % P, a1 % P) else None
    return None


def _twist_point_outside_g2():
    """The twist point with x = 2 + i; the twist's cofactor 2p - r keeps it out of G2."""
    from amisim.crypto.bn254 import TWIST_B, G2Point, fq2_add, fq2_mul

    x = (2, 1)
    y = _fq2_sqrt(fq2_add(fq2_mul(fq2_mul(x, x), x), TWIST_B))
    assert y is not None
    pt = G2Point((x, y))
    with pytest.raises(CryptoError, match="subgroup"):  # on the twist: only r Q = 0 fails
        pt.check()
    return pt


def test_bn254_g2_deserialize_rejects_points_outside_subgroup(bn_suite):
    from amisim.crypto.bn254 import CURVE_ORDER, FIELD_MODULUS as P, _FQ2_OPS, G2Point, _pt_mul

    pt = _twist_point_outside_g2()
    assert _pt_mul(pt.point, CURVE_ORDER, _FQ2_OPS) is not None  # cofactor 2p - r
    with pytest.raises(CryptoError, match="subgroup"):
        bn_suite.g2_deserialize(bn_suite.g2_serialize(pt))
    # The cofactor times it lies in the subgroup, so that point still decodes.
    g2_pt = G2Point(_pt_mul(pt.point, 2 * P - CURVE_ORDER, _FQ2_OPS))
    assert bn_suite.g2_deserialize(bn_suite.g2_serialize(g2_pt)) == g2_pt


def test_bn254_pair_product_rejects_points_outside_g2(bn_suite):
    """pair_product checks each G2 argument's subgroup, alone and inside a
    product, as g2_deserialize does; a miller_loop_product would accept it."""
    outside = _twist_point_outside_g2()
    g1, g2 = bn_suite.g1_generator(), bn_suite.g2_generator()
    for pairs in ([(g1, outside)], [(g1, g2), (3 * g1, outside)], [(bn_suite.g1_identity(), outside)]):
        with pytest.raises(CryptoError, match="subgroup"):
            bn_suite.pair_product(pairs)
    assert "_in_g2" not in vars(outside)  # a failed check is not kept
    assert bn_suite.pair_product([(g1, g2), (-g1, g2)]).is_one()


@pytest.mark.parametrize("group", ["G1", "G2"])
def test_bn254_jacobian_pt_mul_equals_affine_double_and_add(group):
    from amisim.crypto.bn254 import (
        CURVE_ORDER as R, FIELD_MODULUS as P, G1_GENERATOR, G2_GENERATOR, _FP_OPS, _FQ2_OPS,
        G1Point, G2Point, _pt_mul,
    )

    gen, ops = (G1_GENERATOR, _FP_OPS) if group == "G1" else (G2_GENERATOR, _FQ2_OPS)
    rng = random.Random(23)
    points = [gen, reference.pt_mul(gen, rng.randrange(2, R), ops)]
    # At k = r + 2 the last addition adds pt to (r + 1) pt = pt, a doubling;
    # at k = 2r + 1 it adds pt to the identity.
    scalars = [0, 1, 2, 3, R - 1, R, R + 1, R + 2, 2 * R + 1]
    scalars += [rng.getrandbits(254) for _ in range(4)] + [rng.getrandbits(64) for _ in range(4)]
    for pt in points:
        for k in scalars:
            assert _pt_mul(pt, k, ops) == reference.pt_mul(pt, k, ops), k
    for k in (0, 1, 5, R):
        assert _pt_mul(None, k, ops) is None
    # Point addition runs the same Jacobian formulas and one to-affine step.
    point = G1Point if group == "G1" else G2Point
    a, b = points
    minus_a = reference.pt_mul(a, R - 1, ops)
    pairs = [(a, a), (b, b), (a, minus_a), (None, a), (a, None), (None, None), (a, b), (b, a)]
    pairs += [(reference.pt_mul(gen, rng.randrange(1, R), ops),
               reference.pt_mul(gen, rng.randrange(1, R), ops)) for _ in range(4)]
    for x, y in pairs:
        assert (point(x) + point(y)).point == reference.pt_add(x, y, ops), (x, y)
    assert (point(a) + point(minus_a)).is_identity()
    if group == "G2":
        outside = _twist_point_outside_g2().point
        for k in (2 * P - R, R, (2 * P - R) * R, rng.getrandbits(254)):
            assert _pt_mul(outside, k, ops) == reference.pt_mul(outside, k, ops), k
        assert _pt_mul(outside, (2 * P - R) * R, ops) is None


def test_bn254_pt_mul_refuses_negative_scalars():
    from amisim.crypto.bn254 import G1_GENERATOR, G2_GENERATOR, _FP_OPS, _FQ2_OPS, _pt_mul

    for pt, ops in ((G1_GENERATOR, _FP_OPS), (G2_GENERATOR, _FQ2_OPS), (None, _FP_OPS)):
        with pytest.raises(CryptoError, match="k >= 0"):
            _pt_mul(pt, -1, ops)


def test_unknown_backend_rejected():
    with pytest.raises(CryptoError):
        make_suite("nope")


def _outcome(loop, pairs):
    try:
        return loop(pairs)
    except Exception as exc:  # the reference's own exception, compared below
        return type(exc), exc.args


def _miller_cases():
    from amisim.crypto.bn254 import G1Point, G2Point

    suite = make_suite("bn254")
    g1, g2 = suite.g1_generator(), suite.g2_generator()
    rng = random.Random(41)

    def pair():
        return rng.randrange(1, 2**64) * g1, rng.randrange(1, 2**64) * g2

    cases = {f"{n}-random": [pair() for _ in range(n)] for n in range(1, 6)}
    a, b = pair()
    cases["identity-g1"] = [(G1Point(None), b), pair()]
    cases["identity-g2"] = [pair(), (a, G2Point(None))]
    cases["only-identities"] = [(G1Point(None), G2Point(None))]
    cases["repeated-g2"] = [(a, b), pair(), (7 * a, b), (-a, g2), (a, g2)]
    outside = _twist_point_outside_g2()
    cases["outside-g2"] = [(a, outside)]
    cases["outside-g2-in-product"] = [pair(), (a, outside), (G1Point(None), outside)]
    return cases


@pytest.mark.parametrize("case", sorted(_miller_cases()))
def test_bn254_miller_loop_product_equals_product_of_reference_loops(case):
    """One loop over prepared lines gives the same Fp12 element before the
    final exponentiation as one reference loop per pair (or the same error)."""
    from amisim.crypto.bn254 import FQ12_ONE, miller_loop_product

    pairs = _miller_cases()[case]
    expected = _outcome(reference.miller_loop_product, pairs)
    assert _outcome(miller_loop_product, pairs) == expected
    assert _outcome(miller_loop_product, pairs) == expected  # the lines now come from the cache
    if case == "only-identities":
        assert expected == FQ12_ONE


def test_bn254_fq12_square_equals_mul():
    from amisim.crypto.bn254 import FQ12_ONE, fq12_mul, fq12_square

    rng = random.Random(43)
    elements = [tuple(rng.randrange(P) for _ in range(12)) for _ in range(20)]
    for _ in range(40):  # one to three nonzero coefficients, some at the top
        x = [0] * 12
        for k in rng.sample(range(12), rng.randrange(1, 4)):
            x[k] = rng.choice([1, P - 1, rng.randrange(P)])
        elements.append(tuple(x))
    elements += [FQ12_ONE, (0,) * 12, (0,) * 11 + (P - 1,)]
    for x in elements:
        assert fq12_square(x) == fq12_mul(x, x), x


def test_g2_lines_are_prepared_on_first_use_not_at_import():
    script = (
        "import amisim.cli, amisim.protocol\n"
        "from amisim.crypto import bn254, make_suite\n"
        "gen = make_suite('bn254').g2_generator()\n"
        "assert 'lines' not in vars(gen)\n"
        "gen.lines\n"
        "assert 'lines' in vars(gen) and gen is bn254.Bn254Suite().g2_generator()\n"
    )
    src = os.path.dirname(os.path.dirname(amisim.__file__))
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": src})


def _on_curve_encoding(x):
    """The encoding of a curve point with x in Fp (G1) or Fp2 (the twist),
    or None when no point has that x."""
    from amisim.crypto.bn254 import CURVE_B, TWIST_B, fq2_add, fq2_mul

    if isinstance(x, int):
        y = pow((x**3 + CURVE_B) % P, (P + 1) // 4, P)
        coords = (x, y) if y * y % P == (x**3 + CURVE_B) % P else None
    else:
        y = _fq2_sqrt(fq2_add(fq2_mul(fq2_mul(x, x), x), TWIST_B))
        coords = (*x, *y) if y is not None else None
    return coords and b"".join(v.to_bytes(32, "big") for v in coords)


_FP = st.integers(min_value=0, max_value=P - 1)


@pytest.mark.parametrize("group", ["G1", "G2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bn254_deserialize_fuzz_raises_crypto_error_or_round_trips(bn_suite, group, data):
    """Arbitrary bytes and on-curve points (on the twist mostly outside G2)
    either decode to a point that encodes back to them or raise CryptoError."""
    size, x = (64, _FP) if group == "G1" else (128, st.tuples(_FP, _FP))
    encode = bn_suite.g1_serialize if group == "G1" else bn_suite.g2_serialize
    decode = bn_suite.g1_deserialize if group == "G1" else bn_suite.g2_deserialize
    raw = data.draw(st.one_of(
        st.binary(max_size=size + 2),
        st.binary(min_size=size, max_size=size),
        x.map(_on_curve_encoding).filter(bool),
    ))
    try:
        pt = decode(raw)
    except CryptoError:
        return
    pt.check()  # raises CryptoError outside its group
    assert encode(pt) == raw
    assert decode(encode(pt)) == pt
