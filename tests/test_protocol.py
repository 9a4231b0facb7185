import random

import numpy as np
import pytest

from amisim.cat import CatConfig, patterns_for_traces
from amisim.crypto import decrypt, encode_reading
from amisim.crypto.paillier import PaillierPrivateKey
from amisim.data import PresenceLabel, SyntheticConfig, synthesize
from amisim.errors import ProtocolError, StaleMessageError, VerificationError
from amisim.protocol import (
    AggregatorState,
    EuState,
    ReadingMsg,
    SetupConfig,
    SimScenario,
    SmState,
    aggregator_collect,
    eu_recover,
    kdc_setup,
    run_simulation,
    sm_report,
)

CAT30 = CatConfig(threshold_percent=10.0, granularity_minutes=30)
SLOT_MS = 30 * 60_000


@pytest.fixture(scope="module")
def system():
    config = SetupConfig(sm_count=5, paillier_bits=256, seed=77)
    params, eu_sk, sm_keys, agg_key = kdc_setup(config)
    return config, params, eu_sk, sm_keys, agg_key


def _fresh_states(params, eu_sk, sm_keys, agg_key, seed=0):
    master = random.Random(seed)
    sms = {
        sm_id: SmState(sm_id=sm_id, keypair=kp, rng=random.Random(master.randrange(2**62)))
        for sm_id, kp in sm_keys.items()
    }
    agg = AggregatorState(
        keypair=agg_key,
        directory=dict(params.sm_publics),
        freshness_ms=2 * SLOT_MS,
    )
    eu = EuState(paillier_sk=eu_sk, agg_public=params.agg_public, freshness_ms=2 * SLOT_MS)
    return sms, agg, eu


def test_kdc_setup_deterministic():
    a = kdc_setup(SetupConfig(sm_count=3, paillier_bits=256, seed=5))
    b = kdc_setup(SetupConfig(sm_count=3, paillier_bits=256, seed=5))
    assert a[0].paillier_pk.n == b[0].paillier_pk.n
    assert a[0].suite.params_summary() == b[0].suite.params_summary()
    assert {k: v.x for k, v in a[2].items()} == {k: v.x for k, v in b[2].items()}


def test_kdc_key_consistency(system):
    _, params, eu_sk, sm_keys, _ = system
    from amisim.crypto import encrypt

    c = encrypt(params.paillier_pk, 12345, rng=random.Random(1))
    assert decrypt(eu_sk, params.paillier_pk, c) == 12345
    assert set(params.sm_publics) == set(sm_keys)


def test_sm_report_cat_fire_and_silence(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, _, _ = _fresh_states(params, eu_sk, sm_keys, agg_key)
    sm = sms["sm0000"]
    msg = sm_report(params, sm, 1.0, PresenceLabel.PRESENT, CAT30, 1_000)
    assert msg is not None  # first-ever reading
    from amisim.crypto import verify_single

    assert verify_single(msg.sigma, params.sm_publics["sm0000"], msg.payload(), params.suite)
    silent = sm_report(params, sm, 1.01, PresenceLabel.PRESENT, CAT30, 1_000 + SLOT_MS)
    assert silent is None  # 1% change under a 10% threshold
    loud = sm_report(params, sm, 2.0, PresenceLabel.PRESENT, CAT30, 1_000 + 2 * SLOT_MS)
    assert loud is not None


def test_sm_report_rerandomizes_equal_plaintexts(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, _, _ = _fresh_states(params, eu_sk, sm_keys, agg_key)
    sm = sms["sm0001"]
    m1 = sm_report(params, sm, 1.0, PresenceLabel.PRESENT, CAT30, 1_000)
    m2 = sm_report(params, sm, 1.0, PresenceLabel.PRESENT, CAT30, 1_000 + SLOT_MS, force=True)
    assert m1 is not None and m2 is not None
    assert m1.ciphertext != m2.ciphertext  # same reading, fresh randomness


def test_sm_report_clock_regression(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, _, _ = _fresh_states(params, eu_sk, sm_keys, agg_key)
    sm = sms["sm0002"]
    sm_report(params, sm, 1.0, PresenceLabel.PRESENT, CAT30, 5_000)
    with pytest.raises(ProtocolError):
        sm_report(params, sm, 2.0, PresenceLabel.PRESENT, CAT30, 4_000)


def _bootstrap_slot(params, sms, agg, now=0):
    msgs = []
    for sm in sms.values():
        msg = sm_report(params, sm, 1.0, PresenceLabel.PRESENT, CAT30, now, force=True)
        msgs.append(msg)
    return aggregator_collect(params, agg, msgs, now)


def test_aggregator_exact_sum_and_reuse(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    agg_msg = _bootstrap_slot(params, sms, agg)
    total = eu_recover(params, eu, agg_msg, 0)
    assert total.total_encoded == 5 * encode_reading(1.0)

    # All silent next slot: aggregate unchanged via stored ciphertexts.
    agg_msg2 = aggregator_collect(params, agg, [], SLOT_MS)
    total2 = eu_recover(params, eu, agg_msg2, SLOT_MS)
    assert total2.total_encoded == total.total_encoded

    # One meter moves by a known delta.
    sm = sms["sm0003"]
    msg = sm_report(params, sm, 3.5, PresenceLabel.PRESENT, CAT30, 2 * SLOT_MS)
    assert msg is not None
    agg_msg3 = aggregator_collect(params, agg, [msg], 2 * SLOT_MS)
    total3 = eu_recover(params, eu, agg_msg3, 2 * SLOT_MS)
    assert total3.total_encoded - total2.total_encoded == encode_reading(3.5) - encode_reading(1.0)


def test_aggregator_requires_bootstrap(system):
    _, params, eu_sk, sm_keys, agg_key = system
    _, agg, _ = _fresh_states(params, eu_sk, sm_keys, agg_key)
    with pytest.raises(ProtocolError):
        aggregator_collect(params, agg, [], 0)


def test_aggregator_drops_forged_message(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    agg_msg = _bootstrap_slot(params, sms, agg)
    baseline = eu_recover(params, eu, agg_msg, 0).total_encoded

    sm = sms["sm0000"]
    good = sm_report(params, sm, 9.0, PresenceLabel.PRESENT, CAT30, SLOT_MS)
    forged = ReadingMsg(
        sender_id="sm0001",
        ciphertext=good.ciphertext,
        ts_ms=good.ts_ms,
        sigma=good.sigma,  # signed by sm0000, claimed from sm0001
    )
    agg_msg2 = aggregator_collect(params, agg, [good, forged], SLOT_MS)
    assert agg.dropped_bad_sig == 1
    total = eu_recover(params, eu, agg_msg2, SLOT_MS).total_encoded
    # Only the honest update applied.
    assert total == baseline + encode_reading(9.0) - encode_reading(1.0)


def test_aggregator_drops_stale_and_unknown(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    _bootstrap_slot(params, sms, agg)
    sm = sms["sm0004"]
    old = sm_report(params, sm, 7.7, PresenceLabel.PRESENT, CAT30, SLOT_MS)
    # Replay far outside the freshness window.
    aggregator_collect(params, agg, [old], 10 * SLOT_MS)
    assert agg.dropped_stale == 1
    stranger = ReadingMsg(sender_id="mallory", ciphertext=old.ciphertext,
                          ts_ms=10 * SLOT_MS, sigma=old.sigma)
    aggregator_collect(params, agg, [stranger], 10 * SLOT_MS)
    assert agg.dropped_unknown == 1


def test_aggregator_drops_in_window_replay():
    # Replaying a meter's earlier message inside the freshness window must
    # not roll its stored ciphertext back.
    params, eu_sk, sm_keys, agg_key = kdc_setup(
        SetupConfig(sm_count=1, paillier_bits=256, seed=78)
    )
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    sm = sms["sm0000"]
    first = sm_report(params, sm, 6.0, PresenceLabel.PRESENT, CAT30, 0)
    aggregator_collect(params, agg, [first], 0)
    fresh = sm_report(params, sm, 10.0, PresenceLabel.PRESENT, CAT30, SLOT_MS)
    aggregator_collect(params, agg, [fresh], SLOT_MS)
    agg_msg = aggregator_collect(params, agg, [first], 2 * SLOT_MS)
    assert agg.dropped_stale == 1
    total = eu_recover(params, eu, agg_msg, 2 * SLOT_MS)
    assert total.total_encoded == encode_reading(10.0)
    assert total.total_kwh == pytest.approx(10.0)


def test_eu_rejects_stale_and_tampered(system):
    _, params, eu_sk, sm_keys, agg_key = system
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    agg_msg = _bootstrap_slot(params, sms, agg)
    with pytest.raises(StaleMessageError):
        eu_recover(params, eu, agg_msg, 50 * SLOT_MS)
    from amisim.protocol import AggMsg

    tampered = AggMsg(
        ciphertext=agg_msg.ciphertext * 2 % params.paillier_pk.n_sq,
        ts_ms=agg_msg.ts_ms,
        sigma=agg_msg.sigma,
    )
    with pytest.raises(VerificationError):
        eu_recover(params, eu, tampered, 0)


def test_aggregator_state_holds_no_private_key(system):
    _, params, eu_sk, sm_keys, agg_key = system
    _, agg, _ = _fresh_states(params, eu_sk, sm_keys, agg_key)
    leaked = [
        v for v in vars(agg).values() if isinstance(v, PaillierPrivateKey)
    ]
    assert leaked == []
    assert not hasattr(agg, "paillier_sk")


def test_run_simulation_exact_and_consistent():
    traces, truth = synthesize(SyntheticConfig(consumer_count=6, day_count=2, rng_seed=3))
    scenario = SimScenario(
        traces=traces,
        presence=truth,
        cat=CatConfig(threshold_percent=10.0, granularity_minutes=30),
        seed=9,
        paillier_bits=256,
    )
    report = run_simulation(scenario)
    assert report.all_exact
    assert report.efficiency_percent == pytest.approx(report.efficiency_without_defense)
    # attacker view carries bits only
    for bits in report.attacker_view.values():
        assert set(np.unique(bits)).issubset({0, 1})
    # without a defense the protocol sends exactly the CAT schedule
    patterns, _ = patterns_for_traces(traces, scenario.cat)
    assert report.attacker_view.keys() == patterns.keys()
    for key, pattern in patterns.items():
        assert np.array_equal(report.attacker_view[key], pattern.bits), key


def test_run_simulation_with_defense_stays_exact():
    # A defense that always fires: absent meters transmit every slot, the
    # wire view stays bits-only, and aggregation stays exact.
    from amisim.defense import DefenseBundle, build_window_dataset, train_defense
    from amisim.nn import Activation, Dense, Flatten, ModelSpec, TrainConfig

    spec = ModelSpec(
        input_length=4,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    windows = build_window_dataset([np.ones(40)], n=4)
    with pytest.warns(UserWarning, match="single-class"):
        params, _ = train_defense(
            windows, spec, TrainConfig(epochs=25, batch_size=16, learning_rate=0.05, rng_seed=0)
        )
    bundle = DefenseBundle(spec=spec, params=params, n=4)

    traces, truth = synthesize(
        SyntheticConfig(consumer_count=3, day_count=2, rng_seed=8, absence_probability=0.7)
    )
    scenario = SimScenario(
        traces=traces,
        presence=truth,
        cat=CatConfig(threshold_percent=10.0, granularity_minutes=30),
        defense=bundle,
        seed=5,
        paillier_bits=256,
    )
    report = run_simulation(scenario)
    assert report.all_exact
    assert report.efficiency_percent < report.efficiency_without_defense
    for (consumer, date_iso), bits in report.attacker_view.items():
        if truth[(consumer, date_iso)] is PresenceLabel.ABSENT:
            assert bits.sum() == len(bits)  # constant-fire defense fills the day


def test_run_simulation_replays_defended_schedule():
    # A random-init defense fires on some, not all, of the absent slots the
    # change rule leaves silent; the protocol sends exactly the
    # simulate_corpus schedule and the utility holds its views.
    from amisim.cat import cat_decide
    from amisim.data import resample
    from amisim.defense import DefenseBundle, simulate_corpus
    from amisim.nn import Activation, Dense, Flatten, ModelSpec, init_params

    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    bundle = DefenseBundle(spec=spec, params=init_params(spec, seed=0), n=6)
    traces, truth = synthesize(
        SyntheticConfig(consumer_count=4, day_count=2, rng_seed=2, absence_probability=0.5)
    )
    scenario = SimScenario(
        traces=traces, presence=truth, cat=CAT30, defense=bundle, seed=5, paillier_bits=256
    )
    report = run_simulation(scenario)
    patterns, views = simulate_corpus(traces, truth, CAT30, bundle)

    assert report.all_exact
    assert report.attacker_view.keys() == patterns.keys()
    assert report.eu_views.keys() == views.keys()
    for key, pattern in patterns.items():
        assert np.array_equal(report.attacker_view[key], pattern.bits), key
        assert np.array_equal(report.eu_views[key].values, views[key].values), key
    assert report.transmissions == sum(p.count() for p in patterns.values())

    silent = fired = 0
    for trace in traces:
        last = None
        for day in resample(trace, 30).days():
            key = (day.consumer_id, day.date.isoformat())
            bits = patterns[key].bits
            for t, reading in enumerate(day.readings):
                if last is not None and not cat_decide(float(reading), last, 10.0):
                    if truth[key] is PresenceLabel.ABSENT:
                        silent += 1
                        fired += int(bits[t])
                    else:
                        assert bits[t] == 0, key
                if bits[t]:
                    last = float(reading)
    assert 0 < fired < silent


def test_run_simulation_deterministic():
    traces, truth = synthesize(SyntheticConfig(consumer_count=3, day_count=1, rng_seed=4))
    scenario = SimScenario(
        traces=traces,
        presence=truth,
        cat=CatConfig(threshold_percent=10.0, granularity_minutes=30),
        seed=2,
        paillier_bits=256,
    )
    r1 = run_simulation(scenario)
    r2 = run_simulation(scenario)
    assert r1.recovered_encoded == r2.recovered_encoded
    assert r1.as_dict() == r2.as_dict()


def test_bn254_protocol_run_exact_and_drops_forgeries():
    from amisim.crypto import batch_verify, verify_single
    from amisim.crypto.signatures import Signature

    params, eu_sk, sm_keys, agg_key = kdc_setup(
        SetupConfig(sm_count=3, paillier_bits=512, pairing_backend="bn254", seed=12)
    )
    assert params.suite.name == "bn254"
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    g1 = params.suite.g1_generator()
    readings = {  # slot -> {meter: kWh}; a meter absent from a slot stays silent
        0: {"sm0000": 1.5, "sm0001": 0.25, "sm0002": 3.0},
        1: {"sm0000": 2.0, "sm0002": 0.75},
        2: {"sm0000": 0.5, "sm0001": 4.25, "sm0002": 1.0},
        3: {},
    }
    forged_slot, forged_meter = 2, "sm0001"
    shadow = {}
    for slot, sent in readings.items():
        now = slot * SLOT_MS
        msgs = []
        for sm_id, kwh in sent.items():
            msg = sm_report(params, sms[sm_id], kwh, None, CAT30, now, force=True)
            if (slot, sm_id) == (forged_slot, forged_meter):
                msg = ReadingMsg(msg.sender_id, msg.ciphertext, msg.ts_ms,
                                 Signature(sigma=msg.sigma.sigma + g1))
            else:
                shadow[sm_id] = encode_reading(kwh)
            msgs.append(msg)
        total = eu_recover(params, eu, aggregator_collect(params, agg, msgs, now), now)
        assert total.total_encoded == sum(shadow.values()), slot
        stored = sum(decrypt(eu_sk, params.paillier_pk, c) for c in agg.store.values())
        assert total.total_encoded == stored
        if slot == forged_slot:
            honest = [m for m in msgs if m.sender_id != forged_meter]
    assert (agg.batch_fallbacks, agg.dropped_bad_sig, agg.dropped_stale) == (1, 1, 0)
    assert shadow[forged_meter] == encode_reading(0.25)

    # sigma_1 + d and sigma_2 - d: each fails alone, and their sum is honest.
    delta = 5 * g1
    items = [(m.sigma, params.sm_publics[m.sender_id], m.payload()) for m in honest]
    assert batch_verify(items, params.suite)
    (s1, y1, p1), (s2, y2, p2) = items
    cancelling = [
        (Signature(sigma=s1.sigma + delta), y1, p1),
        (Signature(sigma=s2.sigma + (-delta)), y2, p2),
    ]
    assert not any(verify_single(*item, params.suite) for item in cancelling)
    assert not batch_verify(cancelling, params.suite)
