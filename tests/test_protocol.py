import dataclasses
import json
import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amisim.protocol as protocol
from amisim.cat import CatConfig, patterns_for_traces
from amisim.cli import main
from amisim.crypto import PaillierPublicKey, decrypt, draw_r, encode_reading, encrypt, randomizers
from amisim.crypto.paillier import PaillierPrivateKey
from amisim.crypto.signatures import SigKeypair
from amisim.data import (
    ConsumptionTrace, PresenceLabel, SyntheticConfig, format_day_key, synthesize, write_traces_csv,
)
from amisim.errors import ConfigError, ProtocolError, StaleMessageError, VerificationError
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
    assert a[0].suite.order == b[0].suite.order
    assert a[0].sm_publics == b[0].sm_publics and a[0].agg_public == b[0].agg_public
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


@pytest.mark.parametrize("bits, seed", [(256, 1), (256, 2), (512, 3)])
def test_sm_report_precomputed_randomizer_gives_the_online_message(bits, seed):
    params, _, sm_keys, _ = kdc_setup(SetupConfig(sm_count=2, paillier_bits=bits, seed=seed))
    pk = params.paillier_pk
    online = SmState(sm_id="sm0001", keypair=sm_keys["sm0001"], rng=random.Random(seed))
    offline = SmState(sm_id="sm0001", keypair=sm_keys["sm0001"], rng=random.Random(seed))
    draws = random.Random(seed)
    for slot, kwh in enumerate([1.5, 1.5, 0.0, 42.125]):
        now = (slot + 1) * SLOT_MS
        (randomizer,) = randomizers(pk.n, pk.n_sq, [draw_r(pk, draws)])
        msg = sm_report(params, offline, kwh, None, CAT30, now, force=True, randomizer=randomizer)
        assert msg == sm_report(params, online, kwh, None, CAT30, now, force=True), slot
    assert offline.rng.getstate() == random.Random(seed).getstate()  # every r came precomputed


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


def test_eu_rejects_in_window_replayed_aggregate(system):
    # A replay of the slot-0 aggregate at slot 1 is still inside the window;
    # returning its total would pass the old total off as the current one.
    _, params, eu_sk, sm_keys, agg_key = system
    sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
    first = _bootstrap_slot(params, sms, agg)
    assert eu_recover(params, eu, first, 0).total_encoded == 5 * encode_reading(1.0)
    with pytest.raises(StaleMessageError, match="replayed"):
        eu_recover(params, eu, first, SLOT_MS)
    assert (eu.rejected_stale, eu.rejected_bad_sig, eu.last_ts_ms) == (1, 0, 0)
    later = aggregator_collect(params, agg, [], SLOT_MS)
    assert eu_recover(params, eu, later, SLOT_MS).total_encoded == 5 * encode_reading(1.0)
    assert eu.last_ts_ms == SLOT_MS
    with pytest.raises(StaleMessageError):
        eu_recover(params, eu, later, SLOT_MS)  # the same timestamp again
    assert eu.rejected_stale == 2


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
    assert eu.last_ts_ms == -1  # a rejected aggregate does not advance the replay guard


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


def _random_init_bundle():
    """A 6-slot defense that fires on some, not all, silent absent slots."""
    from amisim.defense import DefenseBundle
    from amisim.nn import Activation, Dense, Flatten, ModelSpec, init_params

    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    return DefenseBundle(spec=spec, params=init_params(spec, seed=0), n=6)


def _random_init_defense():
    """_random_init_bundle and a 4-consumer, 2-day corpus with absent days."""
    traces, truth = synthesize(
        SyntheticConfig(consumer_count=4, day_count=2, rng_seed=2, absence_probability=0.5)
    )
    return _random_init_bundle(), traces, truth


def test_run_simulation_replays_defended_schedule():
    # A random-init defense fires on some, not all, of the absent slots the
    # change rule leaves silent; the protocol sends exactly the
    # simulate_corpus schedule and the utility holds its readings.
    from amisim.cat import cat_decide
    from amisim.data import resample
    from amisim.defense import simulate_corpus

    bundle, traces, truth = _random_init_defense()
    scenario = SimScenario(
        traces=traces, presence=truth, cat=CAT30, defense=bundle, seed=5, paillier_bits=256
    )
    report = run_simulation(scenario)
    patterns, held = simulate_corpus(traces, truth, CAT30, bundle)

    assert report.all_exact
    assert report.attacker_view.keys() == patterns.keys()
    assert report.held.shape == held.shape
    assert np.array_equal(report.held, held)
    for key, pattern in patterns.items():
        assert np.array_equal(report.attacker_view[key], pattern.bits), key
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


@pytest.mark.parametrize("minutes", [5, 30])
def test_schedules_scale_held_readings_by_powers_of_two(minutes):
    # Metamorphic: readings x 2^k move no reading across a threshold, since
    # every difference and ratio scales exactly, so every day's bits stay and
    # the held readings scale by exactly 2^k, with and without the defense.
    from amisim.defense import simulate_corpus

    bundle, traces, truth = _random_init_defense()
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=minutes)
    for run in (lambda corpus: patterns_for_traces(corpus, cat),
                lambda corpus: simulate_corpus(corpus, truth, cat, bundle)):
        patterns, held = run(traces)
        for k in (-3, 1, 5):
            patterns_k, held_k = run([
                ConsumptionTrace(t.consumer_id, t.start_date, t.granularity_minutes,
                                 t.readings * 2.0**k)
                for t in traces
            ])
            assert patterns_k.keys() == patterns.keys()
            for key, pattern in patterns.items():
                assert np.array_equal(patterns_k[key].bits, pattern.bits), (k, key)
            assert np.array_equal(held_k, held * 2.0**k), k


@pytest.mark.parametrize("minutes", [5, 30])
def test_all_days_present_gives_the_undefended_schedule(minutes):
    # Metamorphic: the defense acts only on days labelled absent.
    from amisim.defense import simulate_corpus

    bundle, traces, truth = _random_init_defense()
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=minutes)
    plain_patterns, plain_held = patterns_for_traces(traces, cat)
    present = dict.fromkeys(truth, PresenceLabel.PRESENT)
    patterns, held = simulate_corpus(traces, present, cat, bundle)
    assert patterns.keys() == plain_patterns.keys()
    for key, pattern in plain_patterns.items():
        assert np.array_equal(patterns[key].bits, pattern.bits), key
    assert np.array_equal(held, plain_held)
    # With the true labels the same defense fires, so the relation is not vacuous.
    fired, _ = simulate_corpus(traces, truth, cat, bundle)
    assert sum(p.count() for p in fired.values()) > sum(p.count() for p in patterns.values())


_SMALL_CORPUS = st.builds(
    lambda seed, consumers, days, absence: synthesize(SyntheticConfig(
        consumer_count=consumers, day_count=days, rng_seed=seed, absence_probability=absence)),
    st.integers(0, 2**16), st.integers(2, 4), st.integers(2, 3), st.sampled_from([0.3, 0.5, 0.8]),
)


def _schedule_runner(minutes, defended):
    """corpus, truth -> (patterns, held): the defended schedule of
    _random_init_bundle or the undefended one, at the given rate."""
    from amisim.defense import simulate_corpus

    cat = CatConfig(threshold_percent=10.0, granularity_minutes=minutes)
    if defended:
        bundle = _random_init_bundle()
        return lambda corpus, truth: simulate_corpus(corpus, truth, cat, bundle)
    return lambda corpus, truth: patterns_for_traces(corpus, cat)


def _assert_same_bits(patterns, expected):
    assert patterns.keys() == expected.keys()
    for key, pattern in expected.items():
        assert np.array_equal(patterns[key].bits, pattern.bits), key


@pytest.mark.parametrize("defended", [False, True])
@pytest.mark.parametrize("minutes", [5, 30])
@settings(max_examples=8, deadline=None)
@given(corpus=_SMALL_CORPUS, data=st.data())
def test_schedule_bits_do_not_depend_on_the_other_consumers(minutes, defended, corpus, data):
    # Metamorphic: each consumer's schedule reads only its own readings and
    # labels, so reversing the consumers or keeping a subset of them changes
    # no consumer-day's bits, and each kept row of held stays as it was.
    traces, truth = corpus
    run = _schedule_runner(minutes, defended)
    patterns, held = run(traces, truth)
    kept = sorted(data.draw(st.sets(st.integers(0, len(traces) - 1), min_size=1)))
    for rows in (list(range(len(traces)))[::-1], kept):
        patterns_r, held_r = run([traces[i] for i in rows], truth)
        _assert_same_bits(patterns_r, {k: v for k, v in patterns.items()
                                       if k[0] in {traces[i].consumer_id for i in rows}})
        assert np.array_equal(held_r, held[rows]), rows


# simulate_corpus seeds each defense memory from the consumer's first present
# day, also one after the absent days it spoofs, so cutting a last day that
# is the first present one changes earlier defended days (CHANGES.md FOUND).
_LOOK_AHEAD = pytest.mark.xfail(reason="the defense memory is seeded from a later day")


@pytest.mark.parametrize("defended", [False, pytest.param(True, marks=_LOOK_AHEAD)])
@pytest.mark.parametrize("minutes", [5, 30])
@settings(max_examples=8, deadline=None)
@given(corpus=_SMALL_CORPUS)
def test_cutting_the_last_day_keeps_every_earlier_day(minutes, defended, corpus):
    _assert_cut_keeps_earlier_days(minutes, defended, corpus)


@pytest.mark.xfail(strict=True, reason="the defense memory is seeded from a later day")
def test_cutting_a_first_present_last_day_keeps_earlier_defended_days():
    # sm0000 is absent on its first two days and present on the third.
    corpus = synthesize(SyntheticConfig(consumer_count=2, day_count=3, rng_seed=0,
                                        absence_probability=0.3))
    _assert_cut_keeps_earlier_days(5, True, corpus)


def _assert_cut_keeps_earlier_days(minutes, defended, corpus):
    # Metamorphic: a slot's decision reads only earlier slots, so dropping
    # the last day of every trace changes no earlier day's bits and no
    # earlier column of held.
    traces, truth = corpus
    run = _schedule_runner(minutes, defended)
    patterns, held = run(traces, truth)
    cut = [ConsumptionTrace(t.consumer_id, t.start_date, t.granularity_minutes,
                            t.readings[:-len(t.days()[-1].readings)]) for t in traces]
    patterns_c, held_c = run(cut, truth)
    last = {day.key for t in traces for day in t.days()[-1:]}
    _assert_same_bits(patterns_c, {k: v for k, v in patterns.items() if k not in last})
    slots_per_day = held.shape[1] // traces[0].day_count
    assert held_c.shape == (len(traces), held.shape[1] - slots_per_day)
    assert np.array_equal(held_c, held[:, :held_c.shape[1]])


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


@pytest.mark.parametrize("defended, seed", [(False, 5), (False, 9), (True, 5)])
def test_run_simulation_reversed_meters_keep_totals_and_views(defended, seed):
    # Metamorphic: reversing the meters gives each consumer another meter id,
    # signing key and rng, and must change no total and no consumer-day view.
    if defended:
        bundle, traces, truth = _random_init_defense()
    else:
        traces, truth = synthesize(SyntheticConfig(consumer_count=6, day_count=2, rng_seed=3))
        bundle = None
    forward, backward = (
        run_simulation(SimScenario(traces=order, presence=truth, cat=CAT30, defense=bundle,
                                   seed=seed, paillier_bits=256))
        for order in (traces, traces[::-1])
    )
    assert forward.all_exact and backward.all_exact
    assert forward.recovered_encoded == backward.recovered_encoded
    assert forward.transmissions == backward.transmissions
    assert forward.efficiency_percent == backward.efficiency_percent
    assert forward.attacker_view.keys() == backward.attacker_view.keys()
    for key, bits in forward.attacker_view.items():
        assert np.array_equal(bits, backward.attacker_view[key]), key
    assert np.array_equal(forward.held, backward.held[::-1])


def _small_scenario(seed, bits):
    traces, truth = synthesize(SyntheticConfig(consumer_count=4, day_count=1, rng_seed=seed))
    return SimScenario(traces=traces, presence=truth, cat=CAT30, seed=seed, paillier_bits=bits)


def _recorded_run(monkeypatch, scenario, cpus):
    """run_simulation with usable_cpus() = cpus; returns the report, the
    public key and (sender, plaintext, ciphertext) of each message in order."""
    keys, senders, encrypted = [], [], []
    real_setup, real_report, real_encrypt = kdc_setup, sm_report, encrypt

    def setup(config):
        keys.append(real_setup(config))
        return keys[-1]

    def report(params, state, *args, **kwargs):
        senders.append(state.sm_id)
        return real_report(params, state, *args, **kwargs)

    def encrypt_recorded(pk, m, **kwargs):
        c = real_encrypt(pk, m, **kwargs)
        encrypted.append((m, c))
        return c

    monkeypatch.setattr(protocol, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(protocol, "kdc_setup", setup)
    monkeypatch.setattr(protocol, "sm_report", report)
    monkeypatch.setattr(protocol, "encrypt", encrypt_recorded)
    result = run_simulation(scenario)
    monkeypatch.undo()
    sent = [(sender, m, c) for sender, (m, c) in zip(senders, encrypted, strict=True)]
    return result, keys[0][0].paillier_pk, sent


@pytest.mark.parametrize("seed, bits", [(1, 256), (2, 256), (3, 512)])
def test_run_simulation_messages_do_not_depend_on_worker_count(monkeypatch, seed, bits):
    scenario = _small_scenario(seed, bits)
    in_process, pk, sent = _recorded_run(monkeypatch, scenario, cpus=1)
    assert in_process.all_exact and len(sent) == in_process.transmissions > 0
    for cpus in (2, 3):  # worker k of W computes the slots t % W == k
        pooled, _, sent_pooled = _recorded_run(monkeypatch, scenario, cpus=cpus)
        assert sent_pooled == sent, cpus
        assert pooled.as_dict() == in_process.as_dict(), cpus
    # Each ciphertext is the one-pass encryption, r drawn inside encrypt,
    # from its meter's rng in sending order.
    master = random.Random(seed)
    rngs = {f"sm{i:04d}": random.Random(master.randrange(2**63)) for i in range(4)}
    for sender, m, c in sent:
        assert encrypt(pk, m, rng=rngs[sender]) == c


def _reachable(obj):
    """obj and all it holds: items, dataclass fields, array entries, rng states."""
    yield obj
    if isinstance(obj, random.Random):
        yield from _reachable(obj.getstate())
    elif isinstance(obj, np.ndarray):
        yield from _reachable(obj.tolist())
    elif dataclasses.is_dataclass(obj):
        yield from _reachable([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _reachable(item)


def test_run_simulation_workers_end_with_the_call_and_see_no_key(monkeypatch):
    import multiprocessing
    from multiprocessing.process import BaseProcess

    given, keys = [], []
    real_start, real_setup, real_collect = BaseProcess.start, kdc_setup, aggregator_collect

    def start(self):  # runs in this process, before the worker exists
        given.append(self._args)
        return real_start(self)

    def setup(config):
        keys.append(real_setup(config))
        return keys[-1]

    monkeypatch.setattr(BaseProcess, "start", start)
    monkeypatch.setattr(protocol, "kdc_setup", setup)
    monkeypatch.setattr(protocol, "usable_cpus", lambda: 2)
    scenario = _small_scenario(5, 256)
    report = run_simulation(scenario)
    assert report.all_exact
    assert multiprocessing.active_children() == []
    params, eu_sk, sm_keys, agg_key = keys[0]
    secrets = {eu_sk.p, eu_sk.q, agg_key.x, *(kp.x for kp in sm_keys.values())}
    assert [args[-2:] for args in given] == [(0, 2), (1, 2)]
    for link, pk, *rest in given:
        assert link.writable and not link.readable  # a worker only sends
        assert pk == params.paillier_pk
        reached = list(_reachable(rest))
        assert not [o for o in reached if isinstance(o, (PaillierPrivateKey, SigKeypair))]
        assert not secrets & {o for o in reached if type(o) is int}

    slots = []

    def collect_until_slot_3(*args):
        slots.append(args[-1])
        if len(slots) == 4:
            raise RuntimeError("aggregator fails at slot 3")
        return real_collect(*args)

    monkeypatch.setattr(protocol, "aggregator_collect", collect_until_slot_3)
    with pytest.raises(RuntimeError, match="slot 3"):
        run_simulation(scenario)
    assert multiprocessing.active_children() == []


def test_offline_randomizers_finish_with_results_larger_than_a_pipe_buffer(monkeypatch):
    # Slots of 20,000 randomizers, about 340 kB each: a worker fills its pipe
    # long before the parent reads the slot, and must wait for it.
    import multiprocessing
    import signal

    def stalled(signum, frame):
        raise TimeoutError("offline randomizers stalled")

    monkeypatch.setattr(protocol, "usable_cpus", lambda: 2)
    pk = PaillierPublicKey(n=(1 << 61) - 1)  # small, so each power is cheap
    senders = [np.arange(20_000) % 3 for _ in range(5)]
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        with protocol._offline_randomizers(pk, [random.Random(m) for m in range(3)],
                                           senders) as ready:
            results = list(ready)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    rngs = [random.Random(m) for m in range(3)]
    assert results == list(protocol._randomizer_stream(pk, rngs, senders))
    assert multiprocessing.active_children() == []


def test_bn254_protocol_run_exact_and_drops_forgeries():
    from amisim.crypto import batch_verify, verify_single

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
                                 msg.sigma + g1)
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
        (s1 + delta, y1, p1),
        (s2 + (-delta), y2, p2),
    ]
    assert not any(verify_single(*item, params.suite) for item in cancelling)
    assert not batch_verify(cancelling, params.suite)


def test_bn254_protocol_messages_equal_those_of_the_reference_crypto(monkeypatch):
    """Jacobian scalar multiplication, the small-factor prime test and the
    one-loop pairing product over prepared lines change no key, ciphertext,
    signature, verification or total against the plain forms."""
    import reference
    from amisim.crypto import bn254, paillier

    def run():
        params, eu_sk, sm_keys, agg_key = kdc_setup(
            SetupConfig(sm_count=2, paillier_bits=512, pairing_backend="bn254", seed=31)
        )
        sms, agg, eu = _fresh_states(params, eu_sk, sm_keys, agg_key)
        out = [(eu_sk.p, eu_sk.q), params.sm_publics, params.agg_public]
        for slot, kwh in enumerate((1.5, 0.25, 3.0)):
            now = slot * SLOT_MS
            msgs = [
                sm_report(params, sms[sm_id], kwh + i, None, CAT30, now, force=True)
                for i, sm_id in enumerate(sorted(sms))
            ]
            agg_msg = aggregator_collect(params, agg, msgs, now)
            total = eu_recover(params, eu, agg_msg, now)
            assert total.total_encoded == encode_reading(kwh) + encode_reading(kwh + 1)
            out.append((msgs, agg_msg, total))
        assert (agg.dropped_bad_sig, agg.batch_fallbacks) == (0, 0)
        return out

    fast = run()
    monkeypatch.setattr(bn254, "_pt_mul", reference.pt_mul)
    monkeypatch.setattr(paillier, "_is_probable_prime", reference.is_probable_prime)
    monkeypatch.setattr(bn254, "miller_loop_product", reference.miller_loop_product)
    assert run() == fast


def _shifted_pair():
    """Two one-day 30-min traces, the second a day later than the first."""
    start = date(2016, 1, 1)
    traces = [
        ConsumptionTrace(f"sm{i:04d}", start + timedelta(days=i), 30, np.linspace(0.1, 1.0, 48))
        for i in range(2)
    ]
    presence = {day.key: PresenceLabel.PRESENT for t in traces for day in t.days()}
    return traces, presence


def test_run_simulation_refuses_traces_on_different_dates():
    traces, presence = _shifted_pair()
    scenario = SimScenario(traces=traces, presence=presence, cat=CAT30, paillier_bits=256)
    with pytest.raises(ConfigError, match="sm0000 covers 1 day.* 2016-01-01 and "
                                          "sm0001 covers 1 day.* 2016-01-02"):
        run_simulation(scenario)


def test_simulate_command_refuses_traces_on_different_dates(tmp_path, capsys):
    traces, presence = _shifted_pair()
    write_traces_csv(tmp_path / "traces.csv", traces)
    (tmp_path / "truth.json").write_text(json.dumps(
        {"labels": {format_day_key(k): v.value for k, v in presence.items()}}
    ))
    code = main(["simulate", "--traces", str(tmp_path / "traces.csv"),
                 "--truth", str(tmp_path / "truth.json"), "--rate", "per30min",
                 "--paillier-bits", "256", "--out", str(tmp_path / "sim.json")])
    assert code == 2
    assert "sm0001 covers 1 day(s) from 2016-01-02" in capsys.readouterr().err
    assert not (tmp_path / "sim.json").exists()
