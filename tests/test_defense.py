from datetime import date

import numpy as np
import pytest

from amisim.cat import CatConfig, apply_cat, patterns_for_traces, schedule
from amisim.data import ConsumptionTrace, DayRecord, PresenceLabel, SyntheticConfig, synthesize
from amisim.defense import (
    DefenseBundle,
    build_defense,
    build_window_dataset,
    defense_decide,
    present_runs,
    simulate_corpus,
    subsample_windows,
    train_defense,
    window_size,
)
from amisim.errors import ConfigError, ProtocolError
from amisim.nn import BitWindowKernel, TrainConfig, init_params
from reference import DefenseState, simulate_day

CAT5 = CatConfig(threshold_percent=10.0, granularity_minutes=5)


def test_window_sizes():
    assert window_size("per5min") == 100
    assert window_size("per30min") == 35
    with pytest.raises(ConfigError):
        window_size("hourly")


def test_defense_architectures():
    from amisim.nn import Activation, Conv1D, GRULayer

    spec5 = build_defense("per5min")
    assert spec5.input_length == 100
    assert [l.filters for l in spec5.layers if isinstance(l, Conv1D)] == [150]
    assert [l.units for l in spec5.layers if isinstance(l, GRULayer)] == [200]
    assert isinstance(spec5.layers[-1], Activation) and spec5.layers[-1].kind == "softmax"
    assert spec5.output_classes == 2

    spec30 = build_defense("per30min")
    assert spec30.input_length == 35
    assert [l.filters for l in spec30.layers if isinstance(l, Conv1D)] == [128, 64, 32]
    assert [l.units for l in spec30.layers if isinstance(l, GRULayer)] == [128]
    assert spec30.output_classes == 2


def test_build_window_dataset_enumeration():
    ds = build_window_dataset([[1, 0, 1, 1]], n=2)
    assert ds.windows.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert ds.labels.tolist() == [1, 1]


def test_build_window_dataset_all_zero():
    ds = build_window_dataset([np.zeros(40)], n=10)
    assert ds.labels.sum() == 0
    assert len(ds.labels) == 30


def test_build_window_dataset_counts_no_spanning():
    days = [np.ones(288) for _ in range(10)]
    ds = build_window_dataset(days, n=100)
    assert len(ds.labels) == 10 * 188


def test_build_window_dataset_skips_short():
    ds = build_window_dataset([np.ones(5), np.ones(80)], n=35)
    assert ds.skipped == 1
    assert len(ds.labels) == 45


def test_present_runs_concatenates_consecutive_days():
    present, absent = PresenceLabel.PRESENT, PresenceLabel.ABSENT
    for days in (
        {1: present, 2: absent, 3: present, 4: present},
        # Day 3 is missing (say, in the other split): days 2 and 4 are not adjacent.
        {1: present, 2: present, 4: present},
    ):
        keys = {d: ("a", f"2016-01-0{d}") for d in days}
        patterns = {keys[d]: np.ones(4, dtype=np.uint8) for d in days}
        labels = {keys[d]: label for d, label in days.items()}
        runs = present_runs(patterns, labels)
        assert sorted(len(r) for r in runs) == [4, 8], days


def test_subsample_windows_balance():
    ds = build_window_dataset([np.tile([1, 1, 1, 0, 0], 200)], n=10)
    sub = subsample_windows(ds, max_samples=200, seed=1, balance=True)
    assert len(sub.labels) == 200
    assert sub.labels.mean() == pytest.approx(0.5)


def test_subsample_windows_rejects_an_empty_budget():
    # A budget below 1 would slice permutations with a negative bound and keep
    # all but a few windows of each class.
    ds = build_window_dataset([np.tile([1, 1, 1, 0, 0], 20)], n=10)
    for budget in (0, -3):
        for balance in (True, False):
            with pytest.raises(ConfigError, match="budget"):
                subsample_windows(ds, max_samples=budget, seed=1, balance=balance)


def test_defense_state_ring_buffer():
    state = DefenseState(3)
    assert not state.ready
    with pytest.raises(ProtocolError):
        state.window()
    for bit in (1, 0, 1, 1):
        state.push(bit)
    assert state.ready
    assert state.window().tolist() == [0.0, 1.0, 1.0]  # oldest evicted


def _tiny_bundle(seed=0):
    from amisim.nn import Activation, Dense, Flatten, ModelSpec

    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    params = init_params(spec, seed=seed)
    return DefenseBundle(spec=spec, params=params, n=6)


def test_defense_decide_deterministic_and_binary():
    bundle = _tiny_bundle()
    state = DefenseState(6)
    state.seed([1, 0, 1, 0, 1, 1])
    a = defense_decide(state, bundle)
    b = defense_decide(state, bundle)
    assert a == b
    assert a in (0, 1)


def test_defense_overfit_probe_fires_on_ones():
    # Trained on always-transmit patterns, the predictor must answer 1 for
    # an all-ones window.
    ds = build_window_dataset([np.ones(60)], n=6)
    from amisim.nn import Activation, Dense, Flatten, ModelSpec

    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    with pytest.warns(UserWarning, match="single-class"):
        params, _ = train_defense(
            ds, spec, TrainConfig(epochs=30, batch_size=16, learning_rate=0.05, rng_seed=0)
        )
    state = DefenseState(6)
    state.seed(np.ones(6))
    assert defense_decide(state, DefenseBundle(spec=spec, params=params, n=6)) == 1


def _flat_day(value=1.0, slots=288, consumer="a", day="2016-01-01"):
    return DayRecord(
        consumer_id=consumer,
        date=date.fromisoformat(day),
        readings=np.full(slots, value),
    )


def test_simulate_day_present_equals_pure_cat():
    rng = np.random.default_rng(0)
    day = DayRecord(
        consumer_id="a",
        date=date(2016, 1, 2),
        readings=np.abs(rng.normal(1.0, 0.4, size=288)),
    )
    bundle = _tiny_bundle()
    state = DefenseState(bundle.n)
    state.seed(np.ones(bundle.n))
    pattern, view, last = simulate_day(
        day, PresenceLabel.PRESENT, CAT5, bundle, state, last_reported=None
    )
    ref_pattern, ref_view, ref_last = apply_cat(day, CAT5, None)
    assert np.array_equal(pattern.bits, ref_pattern.bits)
    assert np.allclose(view.values, ref_view.values)
    assert last == ref_last


def test_simulate_day_absent_without_defense_is_pure_cat():
    day = _flat_day()
    pattern, _, _ = simulate_day(day, PresenceLabel.ABSENT, CAT5, None, None, 1.0)
    assert pattern.bits.sum() == 0  # constant consumption, prior baseline


def test_simulate_day_defense_transmits_real_reading():
    # A bundle whose decision is constant 1 (trained on ones) must produce
    # bits of all ones and an EU view equal to the actual readings.
    ds = build_window_dataset([np.ones(60)], n=6)
    from amisim.nn import Activation, Dense, Flatten, ModelSpec

    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    with pytest.warns(UserWarning, match="single-class"):
        params, _ = train_defense(
            ds, spec, TrainConfig(epochs=30, batch_size=16, learning_rate=0.05, rng_seed=0)
        )
    bundle = DefenseBundle(spec=spec, params=params, n=6)
    state = DefenseState(6)
    state.seed(np.ones(6))
    rng = np.random.default_rng(5)
    day = DayRecord(
        consumer_id="a",
        date=date(2016, 1, 1),
        readings=np.abs(rng.normal(1.0, 0.02, size=288)),
    )
    pattern, view, _ = simulate_day(day, PresenceLabel.ABSENT, CAT5, bundle, state, 1.0)
    assert pattern.bits.all()
    assert np.allclose(view.values, day.readings)


def test_simulate_day_memory_stays_full():
    bundle = _tiny_bundle()
    state = DefenseState(bundle.n)
    state.seed(np.zeros(bundle.n))
    day = _flat_day()
    simulate_day(day, PresenceLabel.ABSENT, CAT5, bundle, state, 1.0)
    assert state.ready
    assert len(state.window()) == bundle.n


def test_simulate_corpus_matches_simulate_day_chain(monkeypatch):
    # Two bundles: Flatten -> Dense, and a random-init per30min
    # conv -> pool -> GRU network, which takes simulate_corpus through the
    # prefix table and the GRU recurrence of BitWindowKernel. Each runs on
    # a corpus of equal day counts and on its prefixes of 4, 1 and 2 days.
    config = SyntheticConfig(consumer_count=3, day_count=4, rng_seed=21,
                             absence_probability=0.5)
    traces, truth = synthesize(config)
    uneven = [
        ConsumptionTrace(t.consumer_id, t.start_date, 1, t.readings[: days * 1440])
        for t, days in zip(traces, (4, 1, 2))
    ]
    per30 = build_defense("per30min")
    bundles = [
        _tiny_bundle(seed=3),
        DefenseBundle(spec=per30, params=init_params(per30, seed=0), n=per30.input_length),
    ]

    import reference
    from amisim.data import resample
    from amisim.defense import _bootstrap_bits

    # simulate_day asks defense_decide exactly on the silent absent slots.
    decisions = []

    def recording_decide(state, bundle):
        decisions.append(defense_decide(state, bundle))
        return decisions[-1]

    monkeypatch.setattr(reference, "defense_decide", recording_decide)
    for bundle in bundles:
        for corpus in (traces, uneven):
            patterns, views = simulate_corpus(corpus, truth, CAT5, bundle=bundle)
            assert len(patterns) == sum(t.day_count for t in corpus)
            decisions.clear()
            for trace in corpus:
                working = resample(trace, 5)
                days = working.days()
                state = DefenseState(bundle.n)
                state.seed(_bootstrap_bits(days, truth, CAT5, bundle.n))
                last = None
                for day in days:
                    pattern, view, last = simulate_day(
                        day, truth[day.key], CAT5, bundle, state, last
                    )
                    assert np.array_equal(pattern.bits, patterns[day.key].bits), day.key
                    assert np.allclose(view.values, views[day.key].values)
            assert 0 < sum(decisions) < len(decisions)


def test_suppression_bound_holds_with_defense_active():
    config = SyntheticConfig(consumer_count=2, day_count=3, rng_seed=31,
                             absence_probability=0.6)
    traces, truth = synthesize(config)
    bundle = _tiny_bundle(seed=1)
    patterns, views = simulate_corpus(traces, truth, CAT5, bundle=bundle)
    from amisim.data import resample

    for trace in traces:
        for day in resample(trace, 5).days():
            key = (day.consumer_id, day.date.isoformat())
            bits = patterns[key].bits
            values = views[key].values
            for t in range(len(bits)):
                if bits[t] == 0 and values[t] > 0:
                    err = abs(day.readings[t] - values[t]) / values[t]
                    assert err <= 0.10 + 1e-12


def _simulate_day_chain(corpus, truth, cat, bundle):
    """The defended patterns of simulate_day chained per consumer."""
    from amisim.data import resample
    from amisim.defense import _bootstrap_bits

    patterns = {}
    for trace in corpus:
        days = resample(trace, cat.granularity_minutes).days()
        state = DefenseState(bundle.n)
        state.seed(_bootstrap_bits(days, truth, cat, bundle.n))
        last = None
        for day in days:
            pattern, _, last = simulate_day(day, truth[day.key], cat, bundle, state, last)
            patterns[day.key] = pattern.bits
    return patterns


@pytest.mark.parametrize("rate, minutes", [("per5min", 5), ("per30min", 30)])
def test_simulate_corpus_decides_several_slots_per_kernel_call(monkeypatch, rate, minutes):
    # The one-call-per-slot policy calls the kernel once per policy call;
    # deciding lag slots (3 at per5min, 2 at per30min) per call must at
    # least halve that, with the decisions of the simulate_day chain. Blocks
    # of 2 slots cannot halve an odd count, hence the rounding up.
    import amisim.defense

    calls = {"kernel": 0, "policy": 0}

    class CountingKernel(BitWindowKernel):
        def __call__(self, windows):
            calls["kernel"] += 1
            return super().__call__(windows)

    def counting_schedule(traces, threshold_percent, presence, policy):
        def counted(*args):
            calls["policy"] += 1
            return policy(*args)

        return schedule(traces, threshold_percent, presence, counted)

    monkeypatch.setattr(amisim.defense, "BitWindowKernel", CountingKernel)
    monkeypatch.setattr(amisim.defense, "schedule", counting_schedule)
    traces, truth = synthesize(SyntheticConfig(consumer_count=3, day_count=2, rng_seed=21,
                                               absence_probability=0.5))
    spec = build_defense(rate)
    bundle = DefenseBundle(spec=spec, params=init_params(spec, seed=3), n=spec.input_length)
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=minutes)
    patterns, _ = simulate_corpus(traces, truth, cat, bundle)
    assert 0 < calls["kernel"] <= (calls["policy"] + 1) // 2
    chain = _simulate_day_chain(traces, truth, cat, bundle)
    assert chain.keys() == patterns.keys()
    for key, bits in chain.items():
        assert np.array_equal(bits, patterns[key].bits), key
    # The defense both fires and stays silent on the absent days.
    raw, _ = patterns_for_traces(traces, cat)
    absent = [k for k in chain if truth[k] is PresenceLabel.ABSENT]
    assert 0 < sum(int(chain[k].sum() - raw[k].count()) for k in absent)
    assert not all(chain[k].all() for k in absent)
