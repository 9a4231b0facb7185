from datetime import date

import numpy as np
import pytest

from amisim.cat import CatConfig, patterns_for_traces
from amisim.data import (
    DayRecord,
    PresenceLabel,
    Split,
    SyntheticConfig,
    label_days,
    load_labeled_jsonl,
    periods_score,
    resample,
    save_labeled_jsonl,
    split_days,
    synthesize,
)
from amisim.errors import DegenerateDayError


def _day(values):
    return DayRecord(consumer_id="a", date=date(2016, 1, 1), readings=np.array(values))


def _day_from_periods(c3, c1, c2, slots=48):
    third = slots // 3
    readings = np.concatenate(
        [np.full(third, c3 / third), np.full(third, c1 / third), np.full(third, c2 / third)]
    )
    return _day(readings)


def test_periods_score_symmetric_case():
    assert periods_score(_day_from_periods(10, 10, 10)) == pytest.approx(0.0)


def test_periods_score_direct_formula():
    # C1=20, C2=10, C3=20 -> |10/20| + |10/20| = 1.0
    assert periods_score(_day_from_periods(c3=20, c1=20, c2=10)) == pytest.approx(1.0)
    # C1=5, C2=10, C3=5 -> |-5/5| + |-5/5| = 2.0
    assert periods_score(_day_from_periods(c3=5, c1=5, c2=10)) == pytest.approx(2.0)


def test_periods_score_scale_invariant():
    day1 = _day_from_periods(7, 13, 4)
    day2 = _day_from_periods(70, 130, 40)
    assert periods_score(day1) == pytest.approx(periods_score(day2))


def test_periods_score_degenerate():
    with pytest.raises(DegenerateDayError):
        periods_score(_day_from_periods(0.0, 10, 10))


def _synth_corpus(seed=42, consumers=20, days=24):
    config = SyntheticConfig(
        consumer_count=consumers,
        day_count=days,
        rng_seed=seed,
        absence_probability=0.35,
    )
    traces, truth = synthesize(config)
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=5)
    patterns, _ = patterns_for_traces(traces, cat)
    working = [resample(t, 5) for t in traces]
    return working, patterns, truth


def test_label_days_agreement_with_ground_truth():
    traces, patterns, truth = _synth_corpus()
    bits = {k: v.bits for k, v in patterns.items()}
    dataset = label_days(traces, bits, seed=1)
    agree = 0
    for rec in dataset.records:
        key = (rec.day.consumer_id, rec.day.date.isoformat())
        agree += rec.label is truth[key]
    assert agree / len(dataset.records) >= 0.85


def test_label_days_split_fraction_and_determinism():
    traces, patterns, _ = _synth_corpus(seed=7, consumers=6, days=20)
    bits = {k: v.bits for k, v in patterns.items()}
    ds1 = label_days(traces, bits, seed=5)
    ds2 = label_days(traces, bits, seed=5)
    assert [r.split for r in ds1.records] == [r.split for r in ds2.records]
    assert [r.label for r in ds1.records] == [r.label for r in ds2.records]
    for trace in traces:
        recs = [r for r in ds1.records if r.day.consumer_id == trace.consumer_id]
        n_train = sum(r.split is Split.TRAIN for r in recs)
        assert abs(n_train - 0.8 * len(recs)) <= 1.0


def test_split_days_rule():
    for n in range(1, 8):
        rng = np.random.default_rng(n)
        splits = split_days(n, rng)
        assert sum(s is Split.TRAIN for s in splits) == round(0.8 * n)
        # One permutation of n is the only draw.
        twin = np.random.default_rng(n)
        order = twin.permutation(n)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert {int(i) for i in order[: round(0.8 * n)]} == {
            i for i, s in enumerate(splits) if s is Split.TRAIN
        }


def _engineered_trace(consumer, quiet_profile):
    """Six 48-slot days: three active, three quiet with a chosen shape."""
    from amisim.data import ConsumptionTrace

    rng = np.random.default_rng(hash(consumer) % 2**32)
    active = []
    for _ in range(3):
        day = 0.4 + 0.3 * rng.random(48)
        day[32:] *= 2.2  # evening-heavy so the periods score is high
        active.append(day)
    quiet = [quiet_profile.copy() for _ in range(3)]
    readings = np.concatenate(active + quiet)
    trace = ConsumptionTrace(
        consumer_id=consumer,
        start_date=date(2016, 1, 1),
        granularity_minutes=30,
        readings=readings,
    )
    bits = {}
    for i, day in enumerate(trace.days()):
        key = (consumer, day.date.isoformat())
        count = 30 if i < 3 else 2  # active days transmit often, quiet rarely
        pattern = np.zeros(48, dtype=np.uint8)
        pattern[:count] = 1
        bits[key] = pattern
    return trace, bits


def test_label_days_rule_conjunction():
    # Quiet cluster AND low periods score -> absent; quiet cluster alone
    # with an evening-peaked shape (high score) stays present.
    flat = np.full(48, 0.2)
    peaked = np.full(48, 0.05)
    peaked[32:] = 1.5  # evening spike: |(C1-C2)/C1| blows past the cutoff

    trace_a, bits_a = _engineered_trace("flat-quiet", flat)
    trace_b, bits_b = _engineered_trace("peaked-quiet", peaked)
    dataset = label_days([trace_a, trace_b], {**bits_a, **bits_b}, seed=3)

    for rec in dataset.records:
        quiet_day = rec.day.date.day >= 4
        if rec.day.consumer_id == "flat-quiet" and quiet_day:
            assert rec.label is PresenceLabel.ABSENT
        else:
            assert rec.label is PresenceLabel.PRESENT


def test_label_days_short_consumer_defaults_present():
    traces, patterns, _ = _synth_corpus(seed=9, consumers=1, days=1)
    bits = {k: v.bits for k, v in patterns.items()}
    dataset = label_days(traces, bits, seed=0)
    assert all(r.label is PresenceLabel.PRESENT for r in dataset.records)


def test_jsonl_round_trip(tmp_path):
    traces, patterns, _ = _synth_corpus(seed=3, consumers=3, days=6)
    bits = {k: v.bits for k, v in patterns.items()}
    dataset = label_days(traces, bits, seed=2)
    path = tmp_path / "labeled.jsonl"
    save_labeled_jsonl(path, dataset, patterns=bits)
    loaded, loaded_bits = load_labeled_jsonl(path)
    assert len(loaded.records) == len(dataset.records)
    for a, b in zip(dataset.records, loaded.records):
        assert a.label == b.label and a.split == b.split
        assert np.allclose(a.day.readings, b.day.readings)
    assert loaded_bits is not None
    for key, arr in bits.items():
        assert np.array_equal(loaded_bits[key], arr)
