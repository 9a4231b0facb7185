import hashlib
import random

import pytest

from amisim.crypto import make_suite
from amisim.errors import CryptoError


@pytest.fixture(scope="module")
def exp_suite():
    return make_suite("exp", seed=2024)


@pytest.fixture(scope="module")
def bn_suite():
    return make_suite("bn254")


def test_exp_suite_deterministic():
    a = make_suite("exp", seed=7)
    b = make_suite("exp", seed=7)
    assert a.params_summary() == b.params_summary()
    assert make_suite("exp", seed=8).params_summary() != a.params_summary()


def test_exp_bilinearity_many(exp_suite):
    suite = exp_suite
    rng = random.Random(5)
    p1 = suite.g1_generator()
    p2 = suite.g2_generator()
    base = suite.pair(p1, p2)
    for _ in range(100):
        a = suite.random_scalar(rng)
        b = suite.random_scalar(rng)
        lhs = suite.pair(a * p1, b * p2)
        rhs = base ** (a * b % suite.order)
        assert lhs == rhs


def test_exp_non_degenerate(exp_suite):
    assert not exp_suite.pair(exp_suite.g1_generator(), exp_suite.g2_generator()).is_one()


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
    base = suite.pair(p1, p2)
    assert not base.is_one()
    for _ in range(2):
        a = rng.randrange(1, 2**64)
        b = rng.randrange(1, 2**64)
        lhs = suite.pair(a * p1, b * p2)
        rhs = base ** (a * b % suite.order)
        assert lhs.value == rhs.value


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
    e = suite.pair(g1, g2)
    assert digest(e) == "5311faff1dd5b1ffb25301832ff952f5eca7de688000b864642bb986f3957278"
    assert (
        digest(suite.pair(5 * g1, 7 * g2))
        == "286cee9f30f07125169664295126402051f3f5e0fb8e2a9f65010b2bb4ea0321"
    )
    for k in (1, 35, suite.order - 2):
        assert e**-k == e ** (suite.order - k)
        assert ((e**-k) * (e**k)).is_one()


def test_bn254_hash_to_g1_on_curve(bn_suite):
    from amisim.crypto.bn254 import CURVE_B, _FP_OPS, _on_curve

    for i in range(6):
        pt = bn_suite.hash_to_g1(b"payload-%d" % i)
        assert _on_curve(pt.point, CURVE_B, _FP_OPS)
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
    from amisim.crypto.bn254 import (
        CURVE_ORDER,
        FIELD_MODULUS as P,
        final_exponentiation,
        fq12_pow,
        miller_loop,
    )

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


def test_bn254_g2_deserialize_rejects_points_outside_subgroup(bn_suite):
    from amisim.crypto.bn254 import (
        CURVE_ORDER,
        FIELD_MODULUS as P,
        TWIST_B,
        _FQ2_OPS,
        G2Point,
        _pt_mul,
        fq2_add,
        fq2_mul,
    )

    x = (2, 1)
    y = _fq2_sqrt(fq2_add(fq2_mul(fq2_mul(x, x), x), TWIST_B))
    assert y is not None
    pt = G2Point((x, y))
    assert pt.on_curve()
    assert _pt_mul(pt.point, CURVE_ORDER, _FQ2_OPS) is not None  # cofactor 2p - r
    with pytest.raises(CryptoError, match="subgroup"):
        bn_suite.g2_deserialize(bn_suite.g2_serialize(pt))
    # The cofactor times it lies in the subgroup, so that point still decodes.
    g2_pt = G2Point(_pt_mul(pt.point, 2 * P - CURVE_ORDER, _FQ2_OPS))
    assert bn_suite.g2_deserialize(bn_suite.g2_serialize(g2_pt)) == g2_pt


def test_unknown_backend_rejected():
    with pytest.raises(CryptoError):
        make_suite("nope")
