"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact math (crypto, aggregation, gradients) is checked at full strictness;
the learning-side criteria are ordinal reproductions on a fixed seed-42
synthetic corpus, since headline percentages from the original study depend
on a dataset this artifact does not ship. Run with `pytest -s` to see the
per-criterion lines.
"""

import random
import time

import numpy as np
import pytest

from amisim.attacker import (
    DEFAULT_ATTACKER_BATCH,
    DEFAULT_ATTACKER_LR,
    build_attacker,
    evaluate,
    train_attacker,
)
from amisim.cat import CatConfig, aggregate_error_cdf, apply_cat, cat_decide, efficiency, patterns_for_traces
from amisim.crypto import (
    batch_verify,
    canonical_payload,
    decrypt,
    encrypt,
    hom_add,
    make_suite,
    paillier_keygen,
    sig_keygen,
    sign,
    verify_single,
)
from amisim.data import PresenceLabel, SyntheticConfig, resample, synthesize
from amisim.defense import (
    DefenseBundle,
    build_defense,
    build_window_dataset,
    present_runs,
    simulate_corpus,
    subsample_windows,
    train_defense,
    window_size,
)
from amisim.errors import CryptoError
from amisim.nn import TrainConfig
from amisim.protocol import SimScenario, run_simulation
from reference import known_defense_attack

SEED = 42


def _attacker_config(seed):
    return TrainConfig(epochs=8, batch_size=DEFAULT_ATTACKER_BATCH,
                       learning_rate=DEFAULT_ATTACKER_LR, rng_seed=seed)


def _report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number:2d} {status} - {name} ({detail})")
    assert ok, f"criterion {number}: {name}: {detail}"


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus114():
    """114 meters x 7 days of default household synthesis at 1-min slots."""
    traces, truth = synthesize(
        SyntheticConfig(consumer_count=114, day_count=7, rng_seed=SEED)
    )
    return traces, truth


@pytest.fixture(scope="module")
def chain():
    """Learning-side pipeline at 1/5min: attacker, defense, defended corpus,
    known-defense attacker, plus the 1/30min defense for the efficiency leg.
    All seeds fixed; built once and shared by criteria 7, 8, and 9."""
    config = SyntheticConfig(
        consumer_count=30,
        day_count=16,
        rng_seed=SEED,
        absence_probability=0.45,
        event_rate_present_per_hour=1.7,
        event_rate_absent_per_hour=0.3,
        event_duration_minutes=15.0,
        event_duration_jitter=0.08,
        event_gap_jitter=0.10,
        activity_jitter=0.5,
        jitter_block_minutes=5,
        consumer_rate_spread=0.35,
        consumer_duration_spread=0.3,
        diurnal_activity=False,
    )
    traces, truth = synthesize(config)
    out = {"traces": traces, "truth": truth}

    for rate, gran in (("per5min", 5), ("per30min", 30)):
        cat = CatConfig(threshold_percent=10.0, granularity_minutes=gran)
        patterns, _ = patterns_for_traces(traces, cat)
        keys = sorted(patterns)
        by_consumer = {}
        for key in keys:
            by_consumer.setdefault(key[0], []).append(key)
        train_keys, test_keys = [], []
        for consumer, cks in sorted(by_consumer.items()):
            cks.sort()
            cut = int(round(0.75 * len(cks)))
            train_keys += cks[:cut]
            test_keys += cks[cut:]
        labels = {
            key: (1 if truth[key] is PresenceLabel.ABSENT else 0) for key in keys
        }
        # Defense trained on occupied-home windows from the training split.
        runs = present_runs({k: patterns[k] for k in train_keys}, truth)
        windows = build_window_dataset(runs, n=window_size(rate))
        windows = subsample_windows(
            windows,
            max_samples=6000 if rate == "per5min" else 4000,
            seed=0,
            balance=True,
        )
        spec = build_defense(rate)
        params, _ = train_defense(
            windows,
            spec,
            TrainConfig(
                epochs=8 if rate == "per5min" else 6,
                batch_size=400,
                learning_rate=0.0005,
                rng_seed=SEED,
            ),
        )
        bundle = DefenseBundle(spec=spec, params=params, n=window_size(rate))
        defended, _ = simulate_corpus(traces, truth, cat, bundle=bundle)
        out[rate] = {
            "cat": cat,
            "patterns": patterns,
            "defended": defended,
            "train_keys": train_keys,
            "test_keys": test_keys,
            "labels": labels,
            "bundle": bundle,
        }

    # 2-class attacker at 1/5min.
    ctx = out["per5min"]
    x_tr = np.array([ctx["patterns"][k].bits for k in ctx["train_keys"]], dtype=float)
    y_tr = np.array([ctx["labels"][k] for k in ctx["train_keys"]])
    aspec = build_attacker("per5min")
    aparams, _ = train_attacker(
        aspec, x_tr, y_tr, _attacker_config(SEED)
    )
    out["attacker"] = (aspec, aparams)
    return out


def _test_xy(ctx, source):
    x = np.array([source[k].bits for k in ctx["test_keys"]], dtype=float)
    y = np.array([ctx["labels"][k] for k in ctx["test_keys"]])
    return x, y


# ---------------------------------------------------------------------------
# Criterion 1: Paillier exactness at test key size, under 60 s
# ---------------------------------------------------------------------------

def test_criterion_1_crypto_exactness():
    start = time.time()
    rng = random.Random(SEED)
    pk, sk = paillier_keygen(bits=512, rng=rng)
    for _ in range(1000):
        m = rng.randrange(pk.n)
        assert decrypt(sk, pk, encrypt(pk, m, rng=rng)) == m
    for _ in range(100):
        k = rng.randrange(2, 115)
        values = [rng.randrange(pk.n // 115) for _ in range(k)]
        acc = encrypt(pk, values[0], rng=rng)
        for v in values[1:]:
            acc = hom_add(acc, encrypt(pk, v, rng=rng), pk)
        assert decrypt(sk, pk, acc) == sum(values)
    elapsed = time.time() - start
    _report(
        1,
        "crypto exactness",
        elapsed < 60.0,
        f"1000 round-trips + 100 folds exact in {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: batch verification equals AND of singles; mutations reject
# ---------------------------------------------------------------------------

def test_criterion_2_signature_equivalence():
    suite = make_suite("exp")
    rng = random.Random(SEED)
    signers = [sig_keygen(suite, rng) for _ in range(20)]

    mismatches = 0
    for slot in range(200):
        w = rng.randrange(1, 11)
        items = []
        for _ in range(w):
            kp = signers[rng.randrange(len(signers))]
            payload = canonical_payload(rng.getrandbits(192), slot * 300_000)
            items.append([sign(kp.x, payload, suite), kp.public, payload])
        if rng.random() < 0.3:  # tamper some slots
            idx = rng.randrange(w)
            kind = rng.randrange(3)
            if kind == 0:
                items[idx][0] = items[idx][0] + suite.g1_generator()
            elif kind == 1:
                items[idx][1] = signers[rng.randrange(len(signers))].public
                if verify_single(items[idx][0], items[idx][1], items[idx][2], suite):
                    items[idx][1] = 2 * items[idx][1]
            else:
                items[idx][2] = items[idx][2] + b"x"
        batch = batch_verify([tuple(it) for it in items], suite)
        singles = all(verify_single(s, p, m, suite) for s, p, m in items)
        if batch != singles:
            mismatches += 1

    flipped = 0
    total = 0
    base_items = []
    for i in range(5):
        kp = signers[i]
        payload = canonical_payload(10**12 + i, 12_345_000)
        base_items.append((sign(kp.x, payload, suite), kp.public, payload))
    assert batch_verify(base_items, suite)
    while total < 100:
        idx = rng.randrange(5)
        field = rng.randrange(3)
        mutated = [list(it) for it in base_items]
        sig, pub, payload = mutated[idx]
        rejected_on_parse = False
        if field == 0:
            raw = bytearray(suite.g1_serialize(sig))
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            try:
                mutated[idx][0] = suite.g1_deserialize(bytes(raw))
            except CryptoError:
                rejected_on_parse = True
        elif field == 1:
            raw = bytearray(suite.g2_serialize(pub))
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            try:
                mutated[idx][1] = suite.g2_deserialize(bytes(raw))
            except CryptoError:
                rejected_on_parse = True
        else:
            raw = bytearray(payload)
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            mutated[idx][2] = bytes(raw)
        total += 1
        if rejected_on_parse or not batch_verify([tuple(it) for it in mutated], suite):
            flipped += 1

    _report(
        2,
        "signature equivalence",
        mismatches == 0 and flipped == 100,
        f"batch==AND over 200 slots (mismatches={mismatches}); "
        f"{flipped}/100 byte mutations rejected",
    )


# ---------------------------------------------------------------------------
# Criterion 3: 114-meter, 7-day protocol run decrypts exactly at every slot
# ---------------------------------------------------------------------------

def test_criterion_3_protocol_exactness(corpus114):
    traces, truth = corpus114
    scenario = SimScenario(
        traces=traces,
        presence=truth,
        cat=CatConfig(threshold_percent=10.0, granularity_minutes=5),
        seed=SEED,
        paillier_bits=256,
    )
    report = run_simulation(scenario)
    _report(
        3,
        "protocol exactness",
        report.slots == 2016 and report.all_exact,
        f"{report.exact_slots}/{report.slots} slots exact "
        f"({report.config['meters']} meters)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: suppression bound and threshold monotonicity
# ---------------------------------------------------------------------------

def test_criterion_4_cat_bound(corpus114):
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(100_000):
        last = float(rng.choice([0.0, rng.uniform(0.001, 50.0)]))
        current = float(rng.choice([0.0, rng.uniform(0.0, 50.0)]))
        threshold = float(rng.uniform(0.5, 30.0))
        if not cat_decide(current, last, threshold) and last > 0:
            if abs(current - last) > threshold / 100.0 * last + 1e-12:
                violations += 1

    traces, _ = corpus114
    working = [resample(t, 5) for t in traces]
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=5)
    for trace in working:
        last = None
        for day in trace.days():
            pattern, held, last = apply_cat(day, cat, last)
            suppressed = pattern.bits == 0
            positive = held > 0
            mask = suppressed & positive
            err = np.abs(day.readings[mask] - held[mask])
            if np.any(err > 0.10 * held[mask] + 1e-12):
                violations += 1

    non_monotone = 0
    thresholds = (1.0, 4.0, 7.0, 10.0)
    for gran in (5, 30):
        for trace in traces:
            working_trace = resample(trace, gran)
            sent = []
            for threshold in thresholds:
                cat_t = CatConfig(threshold_percent=threshold, granularity_minutes=gran)
                last = None
                count = 0
                for day in working_trace.days():
                    pattern, _, last = apply_cat(day, cat_t, last)
                    count += pattern.count()
                sent.append(count)
            if any(b > a for a, b in zip(sent, sent[1:])):
                non_monotone += 1

    _report(
        4,
        "CAT bound",
        violations == 0 and non_monotone == 0,
        f"0 bound violations over 1e5 triples + full corpus; "
        f"efficiency monotone on every trace at 5/30 min "
        f"(non-monotone={non_monotone})",
    )


# ---------------------------------------------------------------------------
# Criterion 5: aggregated error 95th percentile under half the threshold
# ---------------------------------------------------------------------------

def test_criterion_5_aggregate_error(corpus114):
    start = time.time()
    traces, _ = corpus114
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=5)
    patterns, held = patterns_for_traces(traces, cat)
    readings = np.array([resample(trace, 5).readings for trace in traces])
    cdf, skipped = aggregate_error_cdf(readings, held)
    abs_errors = np.abs([e for e, _ in cdf])
    p95 = float(np.percentile(abs_errors, 95))
    elapsed = time.time() - start
    _report(
        5,
        "aggregate error",
        p95 < 5.0 and elapsed < 300.0,
        f"95th pct |error| = {p95:.3f}% (< 5%), {skipped} zero slots, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: backprop matches central finite differences
# ---------------------------------------------------------------------------

def test_criterion_6_gradient_fidelity():
    from test_nn_grad import finite_diff_grads, max_rel_error
    from amisim.nn import (
        Activation, Conv1D, Dense, Flatten, GRULayer, MaxPool1D, ModelSpec,
        init_params, loss_and_grads, one_hot,
    )

    cases = {
        "dense": ModelSpec(6, 1, (Flatten(), Dense(10), Activation("elu"),
                                  Dense(3), Activation("softmax")), 3),
        "conv": ModelSpec(12, 2, (Conv1D(4, 3), Activation("relu"),
                                  Conv1D(3, 3, stride=2), Activation("elu"),
                                  Flatten(), Dense(2), Activation("softmax")), 2),
        "maxpool": ModelSpec(11, 1, (Conv1D(3, 2), Activation("elu"),
                                     MaxPool1D(2), Flatten(),
                                     Dense(2), Activation("softmax")), 2),
        "gru": ModelSpec(7, 2, (GRULayer(5), Dense(3), Activation("softmax")), 3),
        "hybrid": ModelSpec(14, 1, (Conv1D(3, 3), Activation("relu"), MaxPool1D(2),
                                    GRULayer(4), Dense(2), Activation("softmax")), 2),
    }
    worst = {}
    for name, spec in cases.items():
        rng = np.random.default_rng(100 + len(worst))
        params = init_params(spec, seed=200 + len(worst))
        x = rng.normal(size=(4, spec.input_length, spec.input_channels))
        y = one_hot(rng.integers(0, spec.output_classes, size=4), spec.output_classes)
        _, _, analytic = loss_and_grads(spec, params, x, y, l2_lambda=0.001)
        numeric = finite_diff_grads(spec, params, x, y, l2_lambda=0.001)
        worst[name] = max_rel_error(analytic, numeric)
    overall = max(worst.values())
    _report(
        6,
        "gradient fidelity",
        overall <= 1e-4,
        "max rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (<= 1e-4)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: attacker works on the undefended corpus; control stays at chance
# ---------------------------------------------------------------------------

def test_criterion_7_attack_efficacy(chain):
    ctx = chain["per5min"]
    aspec, aparams = chain["attacker"]
    x_te, y_te = _test_xy(ctx, ctx["patterns"])
    report = evaluate(aspec, aparams, x_te, y_te)

    x_tr = np.array([ctx["patterns"][k].bits for k in ctx["train_keys"]], dtype=float)
    y_tr = np.array([ctx["labels"][k] for k in ctx["train_keys"]])
    shuffled = np.random.default_rng(SEED).permutation(y_tr)
    spec_c = build_attacker("per5min")
    params_c, _ = train_attacker(
        spec_c, x_tr, shuffled, _attacker_config(SEED)
    )
    from amisim.nn import predict_proba

    probs = predict_proba(spec_c, params_c, x_te[:, :, None])
    control_acc = float((np.argmax(probs, axis=1) == y_te).mean())

    ok = report.sr >= 0.80 and report.auc >= 0.90 and 0.4 <= control_acc <= 0.6
    chain["sr_undefended"] = report.sr
    _report(
        7,
        "attack efficacy",
        ok,
        f"SR={report.sr:.3f} (>=0.80), AUC={report.auc:.3f} (>=0.90), "
        f"shuffled control accuracy={control_acc:.3f} (in [0.4, 0.6])",
    )


# ---------------------------------------------------------------------------
# Criterion 8: defense collapses the attacker; known-defense sits in between
# ---------------------------------------------------------------------------

def test_criterion_8_defense_efficacy(chain):
    ctx = chain["per5min"]
    aspec, aparams = chain["attacker"]
    x_und, y_te = _test_xy(ctx, ctx["patterns"])
    sr_und = evaluate(aspec, aparams, x_und, y_te).sr
    x_def, _ = _test_xy(ctx, ctx["defended"])
    sr_def = evaluate(aspec, aparams, x_def, y_te).sr

    kd = known_defense_attack(
        ctx["bundle"],
        chain["traces"],
        chain["truth"],
        ctx["cat"],
        "per5min",
        ctx["train_keys"],
        ctx["test_keys"],
        config=_attacker_config(SEED + 1),
    )
    sr_kd = kd.report.sr
    chain["known_defense"] = kd
    ok = (sr_def <= 0.5 * sr_und) and (sr_def < sr_kd < sr_und)
    _report(
        8,
        "defense efficacy",
        ok,
        f"SR defended={sr_def:.3f} <= 0.5 x {sr_und:.3f} and "
        f"{sr_def:.3f} < {sr_kd:.3f} < {sr_und:.3f} (strict ordering)",
    )


def test_defense_predicts_next_bit_above_baseline(chain):
    # Supporting check: the next-decision predictor actually learned the
    # occupied-home rhythm instead of guessing the majority class.
    from amisim.nn import predict_proba

    ctx = chain["per5min"]
    runs = present_runs({k: ctx["patterns"][k] for k in ctx["train_keys"]}, chain["truth"])
    windows = build_window_dataset(runs, n=window_size("per5min"))
    held_out = subsample_windows(windows, max_samples=4000, seed=77, balance=True)
    bundle = ctx["bundle"]
    probs = predict_proba(bundle.spec, bundle.params, held_out.windows[:, :, None])
    acc = float((np.argmax(probs, axis=1) == held_out.labels).mean())
    baseline = max(held_out.labels.mean(), 1.0 - held_out.labels.mean())
    assert acc >= 0.70
    assert acc >= baseline + 0.05


def test_defended_days_match_present_transmission_budget(chain):
    # Supporting check: defended absent days spend roughly an occupied day's
    # transmission budget: corpus mean within +-25% of the per-consumer
    # present mean, and most individual days inside that band too.
    ctx = chain["per5min"]
    truth = chain["truth"]
    by_consumer = {}
    for key in ctx["patterns"]:
        by_consumer.setdefault(key[0], []).append(key)
    ratios = []
    for consumer, keys in sorted(by_consumer.items()):
        present = [
            ctx["patterns"][k].count()
            for k in keys
            if truth[k] is PresenceLabel.PRESENT
        ]
        if not present:
            continue
        mean_present = np.mean(present)
        for k in keys:
            if truth[k] is PresenceLabel.ABSENT:
                ratios.append(ctx["defended"][k].count() / mean_present)
    ratios = np.array(ratios)
    assert 0.75 <= ratios.mean() <= 1.25
    assert ((ratios >= 0.75) & (ratios <= 1.25)).mean() >= 0.60


def test_threeclass_consistency_on_raw_absent(chain):
    # Supporting check: fed UNdefended absent days, the defense-aware model
    # still recognizes absence about as well as the 2-class attacker does.
    kd = chain.get("known_defense")
    if kd is None:
        pytest.skip("criterion 8 did not run")
    confusion3 = np.array(kd.confusion3)
    raw_absent_total = confusion3[1].sum()
    raw_absent_as_absent = confusion3[1, 1]
    ctx = chain["per5min"]
    aspec, aparams = chain["attacker"]
    x_und, y_te = _test_xy(ctx, ctx["patterns"])
    two_class = evaluate(aspec, aparams, x_und, y_te)
    two_recall = two_class.confusion[1][1] / max(sum(two_class.confusion[1]), 1)
    three_recall = raw_absent_as_absent / max(raw_absent_total, 1)
    assert three_recall >= two_recall - 0.15


# ---------------------------------------------------------------------------
# Criterion 9: privacy costs efficiency, at both rates
# ---------------------------------------------------------------------------

def test_criterion_9_efficiency_tradeoff(chain):
    details = []
    ok = True
    for rate in ("per5min", "per30min"):
        ctx = chain[rate]
        slots_total = sum(len(p.bits) for p in ctx["patterns"].values())
        sent_plain = sum(p.count() for p in ctx["patterns"].values())
        sent_def = sum(p.count() for p in ctx["defended"].values())
        eff_plain = efficiency(slots_total, sent_plain)
        eff_def = efficiency(slots_total, sent_def)
        ok = ok and (0.0 < eff_def < eff_plain)
        details.append(f"{rate}: {eff_def:.2f}% < {eff_plain:.2f}%")
    _report(9, "efficiency trade-off", ok, "; ".join(details) + " (both > 0)")


# ---------------------------------------------------------------------------
# Criterion 10: CLI pipeline reruns byte-identically
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    from amisim.cli import main

    def run(workdir):
        workdir.mkdir()
        base = [
            "synth", "--consumers", "5", "--days", "4", "--seed", "42",
            "--out", str(workdir / "traces.csv"),
            "--truth", str(workdir / "truth.json"),
            "--absence-probability", "0.4", "--no-diurnal",
        ]
        assert main(base) == 0
        assert main([
            "prep", "--traces", str(workdir / "traces.csv"),
            "--rate", "per30min", "--seed", "42",
            "--truth", str(workdir / "truth.json"),
            "--out", str(workdir / "labeled.jsonl"),
        ]) == 0
        assert main([
            "train", "--dataset", str(workdir / "labeled.jsonl"),
            "--target", "attacker", "--rate", "per30min", "--seed", "42",
            "--epochs", "1",
            "--out", str(workdir / "att.bin"),
            "--history", str(workdir / "hist.csv"),
        ]) == 0
        assert main([
            "eval", "--dataset", str(workdir / "labeled.jsonl"),
            "--params", str(workdir / "att.bin"), "--rate", "per30min",
            "--out", str(workdir / "eval.json"),
            "--roc", str(workdir / "roc.csv"),
        ]) == 0
        assert main([
            "simulate", "--traces", str(workdir / "traces.csv"),
            "--truth", str(workdir / "truth.json"), "--rate", "per30min",
            "--seed", "42", "--paillier-bits", "256",
            "--out", str(workdir / "sim.json"),
            "--error-cdf", str(workdir / "cdf.csv"),
        ]) == 0
        assert main([
            "report",
            "--eval-no-defense", str(workdir / "eval.json"),
            "--eval-with-defense", str(workdir / "eval.json"),
            "--sim-no-defense", str(workdir / "sim.json"),
            "--sim-with-defense", str(workdir / "sim.json"),
            "--out", str(workdir / "table.json"),
        ]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    files = [
        "traces.csv", "truth.json", "labeled.jsonl", "att.bin", "hist.csv",
        "eval.json", "roc.csv", "sim.json", "cdf.csv", "table.json",
    ]
    different = [
        f
        for f in files
        if (tmp_path / "a" / f).read_bytes() != (tmp_path / "b" / f).read_bytes()
    ]
    _report(
        10,
        "determinism",
        not different,
        f"{len(files)} artifacts byte-identical across reruns"
        + (f"; differing: {different}" if different else ""),
    )
