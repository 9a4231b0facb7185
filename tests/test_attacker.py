import numpy as np
import pytest

from amisim.attacker import (
    EvalReport,
    build_attacker,
    build_threeclass,
    confusion_matrix,
    default_attacker_config,
    evaluate,
    evaluate_threeclass,
    roc_curve,
    sr_fa_from_confusion,
    train_attacker,
)
from amisim.cat import RATE_MINUTES, rate_minutes
from amisim.data import slots_per_day
from amisim.defense import build_defense, window_size
from amisim.errors import ConfigError
from amisim.nn import (
    Activation,
    Conv1D,
    Dense,
    Flatten,
    GRULayer,
    ModelSpec,
    init_params,
)


def _conv_filters(spec: ModelSpec):
    return [l.filters for l in spec.layers if isinstance(l, Conv1D)]


def _dense_units(spec: ModelSpec):
    return [l.units for l in spec.layers if isinstance(l, Dense)]


def test_attacker_architecture_per5min():
    spec = build_attacker("per5min")
    assert spec.input_length == 288
    assert _conv_filters(spec) == [150, 85, 45, 25]
    assert _dense_units(spec) == [512, 512, 128, 64, 2]
    assert isinstance(spec.layers[-1], Activation) and spec.layers[-1].kind == "softmax"


def test_attacker_architecture_per30min():
    spec = build_attacker("per30min")
    assert spec.input_length == 48
    assert _conv_filters(spec) == [80, 32, 20]
    assert _dense_units(spec) == [256, 512, 64, 64, 2]
    assert isinstance(spec.layers[-1], Activation) and spec.layers[-1].kind == "sigmoid"


def test_both_attackers_end_in_two_units():
    for rate in ("per5min", "per30min"):
        assert build_attacker(rate).output_classes == 2


def test_threeclass_architectures():
    spec5 = build_threeclass("per5min")
    assert spec5.output_classes == 3
    assert _conv_filters(spec5) == [150]
    assert not any(isinstance(l, GRULayer) for l in spec5.layers)
    spec30 = build_threeclass("per30min")
    assert [l.units for l in spec30.layers if isinstance(l, GRULayer)] == [32]
    assert spec30.output_classes == 3


def test_bad_rate_rejected():
    for build in (build_attacker, build_threeclass, build_defense, window_size, rate_minutes):
        with pytest.raises(ConfigError):
            build("per1min")


def test_attackers_read_one_day_of_slots():
    for rate, minutes in RATE_MINUTES.items():
        for build in (build_attacker, build_threeclass):
            assert build(rate).input_length == slots_per_day(minutes), (build, rate)


def test_sr_fa_verbatim_formulas():
    # rows true (present=0, absent=1), cols predicted
    matrix = [[10, 1], [0, 9]]
    sr, fa, flags = sr_fa_from_confusion(matrix)
    assert sr == pytest.approx(9 / 10)
    assert fa == pytest.approx(1 / 10)
    assert flags == []


def test_sr_fa_zero_denominators_flagged():
    sr, fa, flags = sr_fa_from_confusion([[0, 0], [2, 0]])
    assert sr == 0.0
    assert "sr_zero_denominator" in flags
    sr, fa, flags = sr_fa_from_confusion([[0, 5], [0, 5]])
    assert fa == 0.0
    assert "fa_zero_denominator" in flags


def test_confusion_matrix_sums_to_count():
    m = confusion_matrix([0, 1, 1, 0, 1], [1, 1, 0, 0, 1], classes=2)
    assert m.sum() == 5
    assert (m >= 0).all()


def test_roc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([1, 1, 0, 0])
    points, auc, _ = roc_curve(scores, labels)
    assert auc == pytest.approx(1.0)
    points_inv, auc_inv, _ = roc_curve(1 - scores, labels)
    assert auc_inv == pytest.approx(1.0 - auc)


def test_roc_constant_scores_chance():
    points, auc, _ = roc_curve(np.full(10, 0.5), np.array([0, 1] * 5))
    assert auc == pytest.approx(0.5)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)


def test_roc_monotone_invariance():
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=40)
    labels = (rng.uniform(size=40) < 0.5).astype(int)
    _, auc1, _ = roc_curve(scores, labels)
    _, auc2, _ = roc_curve(np.exp(3 * scores) + 7, labels)
    assert auc1 == pytest.approx(auc2)


def test_roc_random_scores_near_half():
    rng = np.random.default_rng(11)
    scores = rng.uniform(size=1000)
    labels = (rng.uniform(size=1000) < 0.5).astype(int)
    _, auc, _ = roc_curve(scores, labels)
    assert 0.45 <= auc <= 0.55


def test_roc_endpoints_always_corner_to_corner():
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=25)
    labels = np.array([1] * 10 + [0] * 15)
    points, _, _ = roc_curve(scores, labels)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)


def test_roc_single_class_rejected():
    with pytest.raises(ConfigError):
        roc_curve(np.array([0.1, 0.9]), np.array([1, 1]))


def _pattern_corpus(n=60, length=48, seed=0):
    # Dense bursty "present" vs sparse "absent" bit patterns.
    rng = np.random.default_rng(seed)
    x = np.zeros((n, length))
    y = rng.integers(0, 2, size=n)
    for i in range(n):
        p = 0.55 if y[i] == 0 else 0.06
        x[i] = (rng.uniform(size=length) < p).astype(float)
    return x, y


def test_evaluate_perfect_classifier_metrics():
    # A 1-unit-per-class linear model can separate by density; instead of
    # training, monkey-build params that count ones.
    spec = ModelSpec(
        input_length=48,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    params = init_params(spec, seed=0)
    params.weights[1]["W"][:, 0] = 1.0  # present unit likes density
    params.weights[1]["W"][:, 1] = -1.0
    params.weights[1]["b"][:] = [-14.0, 14.0]  # threshold at 14 transmissions
    x, y = _pattern_corpus()
    report = evaluate(spec, params, x, y)
    assert report.sr == pytest.approx(1.0)
    assert report.fa == pytest.approx(0.0)
    assert report.auc == pytest.approx(1.0)
    assert sum(sum(row) for row in report.confusion) == len(y)


def _one_hot_threeclass():
    # Input i votes for class i: logits are 4, 4 and 3 times the bits, so
    # each distinct pattern has its own absent-or-spoofing score.
    spec = ModelSpec(
        input_length=3,
        input_channels=1,
        layers=(Flatten(), Dense(units=3), Activation("softmax")),
        output_classes=3,
    )
    params = init_params(spec, seed=0)
    params.weights[1]["W"][:] = np.diag([4.0, 4.0, 3.0])
    params.weights[1]["b"][:] = 0.0
    return spec, params


A, B, C, D = [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1]  # predicted 0, 1, 2, 0


def test_evaluate_threeclass_hand_computed():
    spec, params = _one_hot_threeclass()
    kd = evaluate_threeclass(spec, params, [A, A, D, C], [B, A], [C, B, D])
    assert kd.confusion3 == ((3, 0, 1), (1, 1, 0), (1, 1, 1))
    assert kd.spoof_flag_rate_on_present == pytest.approx(1 / 4)
    report = kd.report
    # Binarized over present and defended-absent days only; raw absent days
    # are not scored. TP=2, FP=1, TN=3, FN=1.
    assert report.confusion == ((3, 1), (1, 2))
    assert report.sr == pytest.approx(2 / 3)
    assert report.fa == pytest.approx(1 / 4)
    assert report.flags == ()
    # Scores p(absent) + p(spoofing), high to low: B (spoofed), C (one of
    # each), D (one of each), A (two present).
    assert report.roc_points == (
        (0.0, 0.0), (0.0, 1 / 3), (0.25, 2 / 3), (0.5, 1.0), (1.0, 1.0)
    )
    assert report.auc == pytest.approx(5 / 6)
    assert report.sr_at_fa05 == pytest.approx(1.0)


def test_evaluate_threeclass_without_spoofed_days_is_flagged():
    spec, params = _one_hot_threeclass()
    report = evaluate_threeclass(spec, params, [A, C], [B], []).report
    assert report.confusion == ((1, 1), (0, 0))
    assert report.sr == 0.0 and report.fa == pytest.approx(1.0)
    assert report.flags == ("single_class_auc_undefined",)
    assert report.roc_points == ((0.0, 0.0), (1.0, 1.0)) and report.auc == 0.5


def test_train_attacker_imbalance_warning():
    x, _ = _pattern_corpus(n=40)
    y = np.zeros(40, dtype=int)
    y[0] = 1
    spec = build_attacker("per30min")
    with pytest.warns(UserWarning, match="imbalance"):
        train_attacker(spec, x, y, default_attacker_config(seed=0, epochs=0))


def test_train_attacker_deterministic():
    x, y = _pattern_corpus(n=32)
    spec = build_attacker("per30min")
    cfg = default_attacker_config(seed=5, epochs=1)
    p1, _ = train_attacker(spec, x, y, cfg)
    p2, _ = train_attacker(spec, x, y, cfg)
    for a, b in zip(p1.weights, p2.weights):
        for key in a:
            assert a[key].tobytes() == b[key].tobytes()


def test_evaluate_empty_set_rejected():
    spec = build_attacker("per30min")
    params = init_params(spec, seed=0)
    with pytest.raises(ConfigError):
        evaluate(spec, params, np.zeros((0, 48)), np.zeros(0, dtype=int))


def test_eval_report_serializable():
    report = EvalReport(
        sr=0.5,
        fa=0.1,
        auc=0.9,
        roc_points=((0.0, 0.0), (1.0, 1.0)),
        confusion=((1, 2), (3, 4)),
        sr_at_fa05=0.4,
        flags=(),
    )
    d = report.as_dict()
    assert d["sr"] == 0.5 and d["confusion"] == [[1, 2], [3, 4]]


def test_known_defense_rarely_flags_present_days_as_spoofing():
    # On a corpus of uniform household rhythms the machine-generated
    # patterns are crisply recognizable, so genuine present days are
    # (almost) never mistaken for spoofing: rate stays within the 0.05
    # false-alarm budget.
    from amisim.cat import CatConfig, patterns_for_traces
    from amisim.data import SyntheticConfig, synthesize
    from amisim.defense import (
        DefenseBundle,
        build_defense,
        build_window_dataset,
        present_runs,
        subsample_windows,
        train_defense,
    )
    from amisim.attacker import known_defense_attack
    from amisim.nn import TrainConfig

    config = SyntheticConfig(
        consumer_count=16,
        day_count=12,
        rng_seed=42,
        absence_probability=0.45,
        event_rate_present_per_hour=1.7,
        event_rate_absent_per_hour=0.3,
        event_duration_minutes=15.0,
        event_duration_jitter=0.06,
        event_gap_jitter=0.08,
        activity_jitter=0.55,
        jitter_block_minutes=5,
        diurnal_activity=False,
    )
    traces, truth = synthesize(config)
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=5)
    patterns, _ = patterns_for_traces(traces, cat)
    by_consumer = {}
    for key in sorted(patterns):
        by_consumer.setdefault(key[0], []).append(key)
    train_keys, test_keys = [], []
    for _, keys in sorted(by_consumer.items()):
        keys.sort()
        cut = int(round(0.75 * len(keys)))
        train_keys += keys[:cut]
        test_keys += keys[cut:]

    runs = present_runs({k: patterns[k] for k in train_keys}, truth)
    windows = subsample_windows(
        build_window_dataset(runs, n=100), max_samples=4000, seed=0, balance=True
    )
    spec = build_defense("per5min")
    params, _ = train_defense(
        windows,
        spec,
        TrainConfig(epochs=6, batch_size=400, learning_rate=0.0005, rng_seed=42),
    )
    bundle = DefenseBundle(spec=spec, params=params, n=100)
    kd = known_defense_attack(
        bundle, traces, truth, cat, "per5min", train_keys, test_keys,
        config=default_attacker_config(seed=43, epochs=6),
    )
    assert kd.spoof_flag_rate_on_present <= 0.05


def test_threeclass_sets_simulates_only_the_days_read(monkeypatch):
    import amisim.attacker
    from amisim.attacker import threeclass_sets
    from amisim.cat import CatConfig, patterns_for_traces
    from amisim.data import PresenceLabel, SyntheticConfig, synthesize
    from amisim.defense import DefenseBundle, simulate_corpus

    traces, _ = synthesize(SyntheticConfig(consumer_count=3, day_count=4, rng_seed=21))
    dates = [day.date.isoformat() for day in traces[0].days()]
    c0, c1, c2 = (t.consumer_id for t in traces)
    p, a = PresenceLabel.PRESENT, PresenceLabel.ABSENT
    days = {c0: [a, a, p, a], c1: [p, a, p, p], c2: [p, a, a, p]}
    presence = {(c, d): label for c, labels in days.items() for d, label in zip(dates, labels)}
    # c0's one absent key comes before its first present day, whose change-only
    # pattern seeds the defense memory; c1's keys are all present.
    keys = [(c0, dates[0]), (c1, dates[0]), (c1, dates[2]), (c1, dates[3]),
            (c2, dates[2]), (c2, dates[3])]
    present_only = [(c1, dates[0]), (c2, dates[3])]
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=30)
    spec = build_defense("per30min")
    bundle = DefenseBundle(spec=spec, params=init_params(spec, seed=3), n=spec.input_length)

    raw, _ = patterns_for_traces(traces, cat)
    defended, _ = simulate_corpus(traces, presence, cat, bundle)
    expected = (
        [raw[k].bits for k in keys if presence[k] is p],
        [raw[k].bits for k in keys if presence[k] is a],
        [defended[k].bits for k in keys if presence[k] is a],
    )

    simulated = []

    def recording_simulate(cut, *args):
        simulated.append([(t.consumer_id, t.day_count) for t in cut])
        return simulate_corpus(cut, *args)

    monkeypatch.setattr(amisim.attacker, "simulate_corpus", recording_simulate)
    (got,) = threeclass_sets(bundle, traces, presence, cat, keys)
    assert simulated == [[(c0, 3), (c2, 3)]]
    for got_list, expected_list in zip(got, expected):
        assert len(got_list) == len(expected_list)
        for g, e in zip(got_list, expected_list):
            assert np.array_equal(g, e)

    simulated.clear()
    (present, absent_raw, spoofed), = threeclass_sets(bundle, traces, presence, cat, present_only)
    assert simulated == [] and absent_raw == [] and spoofed == []
    assert len(present) == 2
