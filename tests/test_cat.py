from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amisim.cat import (
    CatConfig,
    aggregate_error_cdf,
    apply_cat,
    cat_decide,
    efficiency,
    efficiency_table,
    patterns_for_traces,
)
from amisim.data import DayRecord, SyntheticConfig, resample, synthesize
from amisim.errors import ConfigError

CFG10 = CatConfig(threshold_percent=10.0, granularity_minutes=30)


def _day(values, consumer="a"):
    return DayRecord(consumer_id=consumer, date=date(2016, 1, 1), readings=np.array(values, dtype=float))


def test_cat_decide_direct():
    assert cat_decide(111.0, 100.0, 10.0) is True
    assert cat_decide(105.0, 100.0, 10.0) is False


def test_cat_decide_strict_at_threshold():
    assert cat_decide(90.0, 100.0, 10.0) is False


def test_cat_decide_zero_baseline():
    assert cat_decide(0.0, 0.0, 10.0) is False
    assert cat_decide(0.001, 0.0, 10.0) is True


def test_apply_cat_no_change():
    values = [100.0] * 48
    pattern, held, last = apply_cat(_day(values), CFG10, initial_last=None)
    assert pattern.bits[0] == 1
    assert pattern.bits[1:].sum() == 0
    assert np.allclose(held, 100.0)
    assert not held.flags.writeable
    assert last == 100.0


def test_apply_cat_change_sequence():
    values = [100.0, 120.0, 121.0] + [121.0] * 45
    pattern, held, last = apply_cat(_day(values), CFG10)
    assert list(pattern.bits[:3]) == [1, 1, 0]
    assert list(held[:3]) == [100.0, 120.0, 120.0]
    assert last == 120.0


def test_apply_cat_chains_initial_last():
    values = [100.0] * 48
    pattern, held, _ = apply_cat(_day(values), CFG10, initial_last=98.0)
    # 2/98 = 2.04% change: below threshold, so the day is silent.
    assert pattern.bits.sum() == 0
    assert np.allclose(held, 98.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=48, max_size=48),
       st.floats(min_value=1.0, max_value=30.0))
def test_apply_cat_suppression_bound(values, threshold):
    config = CatConfig(threshold_percent=threshold, granularity_minutes=30)
    day = _day(values)
    pattern, held, _ = apply_cat(day, config)
    for t in range(len(values)):
        if pattern.bits[t] == 0 and held[t] > 0:
            err = abs(day.readings[t] - held[t]) / held[t]
            assert err <= threshold / 100.0 + 1e-12


# Readings whose steps include repeats, zeros and moves of exactly 10 %
# (100 -> 110 -> 121, 110 -> 99, 100 -> 90), which a 10 % threshold must
# leave silent.
_READING = st.one_of(
    st.sampled_from([0.0, 90.0, 99.0, 100.0, 110.0, 121.0]),
    st.floats(min_value=0.0, max_value=200.0),
)


@st.composite
def _uneven_traces(draw):
    from amisim.data import ConsumptionTrace

    traces = []
    for c, days in enumerate(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))):
        values = draw(st.lists(_READING, min_size=48 * days, max_size=48 * days))
        traces.append(ConsumptionTrace(f"c{c}", date(2016, 1, 1 + c), 30, values))
    return traces


@settings(max_examples=60, deadline=None)
@given(_uneven_traces(), st.sampled_from([1.0, 10.0]))
def test_patterns_for_traces_equals_apply_cat_chain(traces, threshold):
    config = CatConfig(threshold_percent=threshold, granularity_minutes=30)
    patterns, held = patterns_for_traces(traces, config)
    assert len(patterns) == sum(t.day_count for t in traces)
    assert held.shape == (len(traces), max(len(t.readings) for t in traces))
    assert not held.flags.writeable
    for row, trace in zip(held, traces):
        last = None
        for d, day in enumerate(trace.days()):
            pattern, day_held, last = apply_cat(day, config, last)
            assert np.array_equal(patterns[day.key].bits, pattern.bits)
            assert np.array_equal(row[d * 48 : (d + 1) * 48], day_held)
        # Past a shorter trace's end the utility still holds its last sent reading.
        assert np.all(row[len(trace.readings) :] == last)


def test_pattern_euview_consistency():
    rng = np.random.default_rng(1)
    day = _day(np.abs(rng.normal(1.0, 0.5, size=48)))
    pattern, held, _ = apply_cat(day, CFG10)
    for t in range(48):
        if pattern.bits[t]:
            assert held[t] == day.readings[t]
        elif t > 0:
            assert held[t] == held[t - 1]


def test_efficiency_formula():
    assert efficiency(288, 288) == 0.0
    assert efficiency(288, 0) == 100.0
    assert efficiency(100, 59) == pytest.approx(41.0)


def test_efficiency_rejects_bad_counts():
    with pytest.raises(ConfigError):
        efficiency(0, 0)
    with pytest.raises(ConfigError):
        efficiency(10, 11)


def _corpus(seed=42, consumers=8, days=5):
    traces, truth = synthesize(
        SyntheticConfig(consumer_count=consumers, day_count=days, rng_seed=seed)
    )
    return traces, truth


def test_efficiency_table_constant_trace():
    from amisim.data import ConsumptionTrace

    trace = ConsumptionTrace(
        consumer_id="c",
        start_date=date(2016, 1, 1),
        granularity_minutes=1,
        readings=np.full(1440 * 2, 0.25),
    )
    table = efficiency_table([trace], thresholds=[1.0, 10.0], rates=[1, 30])
    for (rate, _), value in table.items():
        slots = 1440 // rate * 2
        assert value == pytest.approx((slots - 1) / slots * 100.0)


def test_efficiency_monotone_in_threshold():
    traces, _ = _corpus(consumers=4, days=3)
    table = efficiency_table(traces, thresholds=[1.0, 4.0, 7.0, 10.0], rates=[5, 30])
    for rate in (5, 30):
        row = [table[(rate, thr)] for thr in (1.0, 4.0, 7.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(row, row[1:]))


GOLDEN_SEED42_5MIN_10PCT = 52.1875  # regression pin, computed once

def test_efficiency_regression_pin():
    traces, _ = _corpus(seed=42, consumers=8, days=5)
    table = efficiency_table(traces, thresholds=[10.0], rates=[5])
    assert table[(5, 10.0)] == pytest.approx(GOLDEN_SEED42_5MIN_10PCT, abs=1e-6)


def test_aggregate_error_cdf_all_transmit():
    readings, held = [], []
    for c in range(3):
        day = _day(np.linspace(1, 5, 48), consumer=f"c{c}")
        config = CatConfig(threshold_percent=1.0, granularity_minutes=30)
        pattern, day_held, _ = apply_cat(day, config)
        readings.append(day.readings)
        held.append(day_held)
    cdf, skipped = aggregate_error_cdf(np.array(readings), np.array(held))
    assert skipped == 0
    errors = [abs(e) for e, _ in cdf]
    # With a 1% threshold nearly every slot fires; errors are within 1%.
    assert max(errors) <= 1.0


def test_aggregate_error_single_meter_bound():
    traces, _ = _corpus(seed=9, consumers=1, days=2)
    working = [resample(t, 5) for t in traces]
    config = CatConfig(threshold_percent=10.0, granularity_minutes=5)
    patterns, held = patterns_for_traces(traces, config)
    cdf, _ = aggregate_error_cdf(np.array([t.readings for t in working]), held)
    # Suppression bounds |truth - held| by thr% of the HELD value; renormalizing
    # by the true reading loosens the bound to thr/(1 - thr/100).
    bound = 10.0 / (1.0 - 0.10)
    assert all(abs(e) <= bound + 1e-9 for e, _ in cdf)


def test_cdf_is_monotone():
    traces, _ = _corpus(seed=13, consumers=5, days=3)
    working = [resample(t, 30) for t in traces]
    config = CatConfig(threshold_percent=10.0, granularity_minutes=30)
    patterns, held = patterns_for_traces(traces, config)
    cdf, _ = aggregate_error_cdf(np.array([t.readings for t in working]), held)
    probs = [p for _, p in cdf]
    errs = [e for e, _ in cdf]
    assert probs == sorted(probs)
    assert errs == sorted(errs)
    assert probs[-1] == pytest.approx(1.0)
