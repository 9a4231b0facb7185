import hashlib
import random

import pytest

from amisim.crypto import (
    batch_verify,
    canonical_payload,
    make_suite,
    sig_keygen,
    sign,
    verify_single,
)
from amisim.errors import CryptoError


@pytest.fixture(scope="module")
def suite():
    return make_suite("exp")


@pytest.fixture(scope="module")
def bn_suite():
    return make_suite("bn254")


def test_canonical_payload_layout():
    payload = canonical_payload(0x0102, 1_000_000)
    assert payload == b"\x00\x00\x00\x02" + b"\x01\x02" + (1_000_000).to_bytes(8, "big")
    # Zero ciphertext still records one magnitude byte.
    assert canonical_payload(0, 5)[:5] == b"\x00\x00\x00\x01\x00"


def test_canonical_payload_is_injective_on_fields():
    a = canonical_payload(0x0102, 7)
    b = canonical_payload(0x01, 0x0207)
    assert a != b


def test_sign_verify_round_trip(suite):
    rng = random.Random(0)
    kp = sig_keygen(suite, rng)
    payload = canonical_payload(123456789, 42_000)
    sig = sign(kp.x, payload, suite)
    assert verify_single(sig, kp.public, payload, suite)


def test_verify_rejects_wrong_payload(suite):
    rng = random.Random(1)
    kp = sig_keygen(suite, rng)
    sig = sign(kp.x, b"payload-a", suite)
    assert not verify_single(sig, kp.public, b"payload-b", suite)


def test_verify_rejects_wrong_key(suite):
    rng = random.Random(2)
    kp1 = sig_keygen(suite, rng)
    kp2 = sig_keygen(suite, rng)
    sig = sign(kp1.x, b"payload", suite)
    assert not verify_single(sig, kp2.public, b"payload", suite)


def test_verify_rejects_shifted_sigma(suite):
    rng = random.Random(3)
    kp = sig_keygen(suite, rng)
    sig = sign(kp.x, b"payload", suite)
    forged = sig + suite.g1_generator()
    assert not verify_single(forged, kp.public, b"payload", suite)


def test_verify_rejects_identity_sigma(suite):
    rng = random.Random(4)
    kp = sig_keygen(suite, rng)
    assert not verify_single(suite.g1_identity(), kp.public, b"p", suite)


def test_pairing_sides_agree_for_honest_signature(suite):
    rng = random.Random(5)
    kp = sig_keygen(suite, rng)
    payload = b"compare-both-sides"
    sig = sign(kp.x, payload, suite)
    lhs = suite.pair_product([(sig, suite.g2_generator())])
    rhs = suite.pair_product([(suite.hash_to_g1(payload), kp.public)])
    assert lhs == rhs


def test_batch_of_one_equals_single(suite):
    rng = random.Random(6)
    kp = sig_keygen(suite, rng)
    payload = canonical_payload(777, 1)
    sig = sign(kp.x, payload, suite)
    assert batch_verify([(sig, kp.public, payload)], suite) == verify_single(
        sig, kp.public, payload, suite
    )


@pytest.mark.parametrize("backend", ["exp", "bn254"])
def test_batch_of_one_serializes_and_hashes_nothing(backend, monkeypatch):
    # A one-item batch's exponent list is always [1]; the verdicts stay.
    from amisim.crypto import signatures

    suite = make_suite(backend)
    rng = random.Random(14)
    kp = sig_keygen(suite, rng)
    payload = canonical_payload(4242, 9_000)
    sig = sign(kp.x, payload, suite)
    serialized = []
    for name in ("g1_serialize", "g2_serialize"):
        real = getattr(suite, name)
        monkeypatch.setattr(suite, name, lambda pt, real=real: serialized.append(pt) or real(pt))
    assert signatures._batch_exponents([(sig, kp.public, payload)], suite) == [1]
    assert verify_single(sig, kp.public, payload, suite)
    assert not verify_single(sig + suite.g1_generator(), kp.public, payload, suite)
    assert not batch_verify([(sig, kp.public, payload + b"x")], suite)
    assert serialized == []
    # Two items still hash every signature, key and payload, as before.
    second = sig_keygen(suite, rng)
    items = [(sig, kp.public, payload), (sign(second.x, payload, suite), second.public, payload)]
    exponents = signatures._batch_exponents(items, suite)
    assert len(serialized) == 4
    digest = hashlib.sha256(b"batch|" + b"".join(
        suite.g1_serialize(s) + suite.g2_serialize(y) + len(p).to_bytes(4, "big") + p
        for s, y, p in items)).digest()
    assert exponents == [1, int.from_bytes(hashlib.shake_256(digest).digest(16)[8:], "big") + 1]


def test_batch_114_valid(suite):
    rng = random.Random(7)
    items = []
    for i in range(114):
        kp = sig_keygen(suite, rng)
        payload = canonical_payload(10_000 + i, 60_000)
        items.append((sign(kp.x, payload, suite), kp.public, payload))
    assert batch_verify(items, suite)


def test_batch_detects_each_tampered_index(suite):
    rng = random.Random(8)
    items = []
    for i in range(12):
        kp = sig_keygen(suite, rng)
        payload = canonical_payload(500 + i, 9_000)
        items.append([sign(kp.x, payload, suite), kp.public, payload])
    for bad in range(len(items)):
        tampered = [list(it) for it in items]
        tampered[bad][0] = tampered[bad][0] + suite.g1_generator()
        assert not batch_verify([tuple(it) for it in tampered], suite)
        culprits = [
            idx
            for idx, (sig, pub, payload) in enumerate(tampered)
            if not verify_single(sig, pub, payload, suite)
        ]
        assert culprits == [bad]


@pytest.mark.parametrize("pair", [(0, 1), (1, 3), (0, 3)])
def test_batch_rejects_cancelling_pair(suite, pair):
    # sigma_i + d and sigma_j - d are each invalid, but their sum equals
    # the honest sum, so an unweighted batch check would accept them.
    rng = random.Random(13)
    items = []
    for i in range(4):
        kp = sig_keygen(suite, rng)
        payload = canonical_payload(4_000 + i, 88_000)
        items.append([sign(kp.x, payload, suite), kp.public, payload])
    delta = 5 * suite.g1_generator()
    first, second = pair
    items[first][0] = items[first][0] + delta
    items[second][0] = items[second][0] + (-delta)
    items = [tuple(it) for it in items]
    singles = [verify_single(*it, suite) for it in items]
    assert [i for i, ok in enumerate(singles) if not ok] == list(pair)
    assert not batch_verify(items, suite)


def test_batch_byte_mutations_flip_acceptance(suite):
    rng = random.Random(9)
    items = []
    for i in range(8):
        kp = sig_keygen(suite, rng)
        payload = canonical_payload(31337 + i, 123_456)
        items.append((sign(kp.x, payload, suite), kp.public, payload))
    assert batch_verify(items, suite)
    mut_rng = random.Random(10)
    for _ in range(30):
        idx = mut_rng.randrange(len(items))
        field = mut_rng.randrange(3)
        mutated = [list(it) for it in items]
        sig, pub, payload = mutated[idx]
        if field == 0:
            raw = bytearray(suite.g1_serialize(sig))
            raw[mut_rng.randrange(len(raw))] ^= 1 << mut_rng.randrange(8)
            try:
                mutated[idx][0] = suite.g1_deserialize(bytes(raw))
            except CryptoError:
                continue  # mutation produced an invalid encoding: rejected earlier
        elif field == 1:
            raw = bytearray(suite.g2_serialize(pub))
            raw[mut_rng.randrange(len(raw))] ^= 1 << mut_rng.randrange(8)
            try:
                mutated[idx][1] = suite.g2_deserialize(bytes(raw))
            except CryptoError:
                continue
        else:
            raw = bytearray(payload)
            raw[mut_rng.randrange(len(raw))] ^= 1 << mut_rng.randrange(8)
            mutated[idx][2] = bytes(raw)
        assert not batch_verify([tuple(it) for it in mutated], suite)


def test_batch_empty_rejected(suite):
    with pytest.raises(CryptoError):
        batch_verify([], suite)


def test_sign_verify_on_curve_backend(bn_suite):
    rng = random.Random(11)
    kp = sig_keygen(bn_suite, rng)
    payload = canonical_payload(987654321, 55_000)
    sig = sign(kp.x, payload, bn_suite)
    assert verify_single(sig, kp.public, payload, bn_suite)
    assert not verify_single(sig, kp.public, payload + b"x", bn_suite)


def test_batch_on_curve_backend(bn_suite):
    rng = random.Random(12)
    items = []
    for i in range(3):
        kp = sig_keygen(bn_suite, rng)
        payload = canonical_payload(1000 + i, 77_000)
        items.append((sign(kp.x, payload, bn_suite), kp.public, payload))
    assert batch_verify(items, bn_suite)
    forged = list(items)
    forged[1] = (items[1][0] + bn_suite.g1_generator(), items[1][1], items[1][2])
    assert not batch_verify(forged, bn_suite)


def test_batch_on_curve_backend_prepares_each_g2_point_once(bn_suite, monkeypatch):
    """Each key's Miller-loop lines and subgroup check, and the generator's,
    are made on first use and then read from the point in every later check."""
    from amisim.crypto import bn254

    generator = bn_suite.g2_generator()
    monkeypatch.delitem(vars(generator), "lines", raising=False)
    monkeypatch.delitem(vars(generator), "_in_g2", raising=False)
    prepared, checked = [], []
    real = bn254._prepare_lines
    monkeypatch.setattr(bn254, "_prepare_lines", lambda q: prepared.append(q) or real(q))
    real_mul = bn254._pt_mul

    def pt_mul(pt, k, ops):  # r Q is the subgroup check; no other product has k = r
        if k == bn254.CURVE_ORDER:
            checked.append(pt)
        return real_mul(pt, k, ops)

    monkeypatch.setattr(bn254, "_pt_mul", pt_mul)
    rng = random.Random(13)
    keys = [sig_keygen(bn_suite, rng) for _ in range(3)]
    for ts in (1_000, 2_000):
        payload = canonical_payload(ts, ts)
        items = [(sign(kp.x, payload, bn_suite), kp.public, payload) for kp in keys]
        assert batch_verify(items, bn_suite)
    assert verify_single(*items[0], bn_suite)
    assert sorted(prepared) == sorted([generator.point] + [kp.public.point for kp in keys])
    assert sorted(checked) == sorted(prepared)
