"""Experiment runner: reproducible file-in/file-out commands.

Commands compose into the full study pipeline:

    synth -> prep -> train (attacker/defense/threeclass) -> eval/simulate -> report

Every JSON artifact embeds the resolved configuration and package version;
identical inputs and seeds reproduce outputs byte for byte. Exit codes:
0 success, 1 when simulate decrypts a slot total that is not exact,
2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

import amisim
from amisim.attacker import (
    DEFAULT_ATTACKER_BATCH,
    DEFAULT_ATTACKER_EPOCHS,
    DEFAULT_ATTACKER_LR,
    build_attacker,
    build_threeclass,
    evaluate,
    evaluate_threeclass,
    threeclass_sets,
    train_attacker,
    train_threeclass,
)
from amisim.cat import (
    RATE_MINUTES,
    CatConfig,
    aggregate_error_cdf,
    patterns_for_traces,
    write_cdf_csv,
    write_efficiency_csv,
    efficiency_table,
)
from amisim.data import (
    DEFAULT_PERIODS_THRESHOLD,
    TRAIN_FRACTION,
    LabeledDataset,
    LabeledRecord,
    PresenceLabel,
    Split,
    SyntheticConfig,
    format_day_key,
    ingest_csv,
    label_days,
    load_labeled_jsonl,
    parse_day_key,
    resample,
    save_labeled_jsonl,
    split_days,
    synthesize,
    traces_from_day_records,
    transmission_bits,
    write_traces_csv,
)
from amisim.defense import (
    DefenseBundle,
    build_defense,
    build_window_dataset,
    present_runs,
    subsample_windows,
    train_defense,
)
from amisim.errors import AmisimError, ConfigError, CryptoError, DataFormatError
from amisim.nn import TrainConfig, load_params, save_history_csv, save_params
from amisim.protocol import SimScenario, run_simulation


def _write_json(path, payload: dict):
    payload = dict(payload)
    payload["version"] = amisim.__version__
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataFormatError(f"{path}: not JSON ({exc})") from None


def _read_field(path, *keys):
    """The value under keys in a JSON file; a missing key is a data error."""
    value = _read_json(path)
    try:
        for key in keys:
            value = value[key]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: no {'/'.join(keys)} ({exc!r})") from None
    return value


def _load_truth(path) -> dict:
    labels = _read_field(path, "labels")
    try:
        return {parse_day_key(key): PresenceLabel(value) for key, value in labels.items()}
    except (ValueError, TypeError, AttributeError) as exc:  # not an object, or a bad label
        raise DataFormatError(f"truth file {path}: bad 'labels' ({exc})") from None


def _whole_days(path) -> list:
    """The traces of the readings CSV at path, which must hold a whole day."""
    traces = ingest_csv(path)
    if not traces:
        raise DataFormatError(f"{path}: no whole day of readings")
    return traces


def _cat(args) -> CatConfig:
    return CatConfig(threshold_percent=args.threshold, granularity_minutes=RATE_MINUTES[args.rate])


def _synth_config(args) -> SyntheticConfig:
    return SyntheticConfig(
        consumer_count=args.consumers,
        day_count=args.days,
        rng_seed=args.seed,
        absence_probability=args.absence_probability,
        event_rate_present_per_hour=args.rate_present,
        event_rate_absent_per_hour=args.rate_absent,
        event_duration_minutes=args.event_duration,
        event_duration_jitter=args.duration_jitter,
        event_gap_jitter=args.gap_jitter,
        activity_jitter=args.activity_jitter,
        consumer_rate_spread=args.rate_spread,
        consumer_duration_spread=args.duration_spread,
        diurnal_activity=not args.no_diurnal,
    )


def cmd_synth(args) -> int:
    config = _synth_config(args)
    traces, truth = synthesize(config)
    write_traces_csv(args.out, traces)
    _write_json(
        args.truth,
        {
            "config": {k: str(v) if not isinstance(v, (int, float, bool)) else v
                       for k, v in vars(config).items()},
            "labels": {format_day_key(key): label.value for key, label in sorted(truth.items())},
        },
    )
    print(f"wrote {len(traces)} traces to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    traces = _whole_days(args.infile)
    write_traces_csv(args.out, traces)
    print(f"ingested {len(traces)} traces ({sum(t.day_count for t in traces)} days)")
    return 0


def cmd_prep(args) -> int:
    traces = _whole_days(args.traces)
    cat = _cat(args)
    patterns, _ = patterns_for_traces(traces, cat)
    bits = {key: p.bits for key, p in patterns.items()}
    working = [resample(t, cat.granularity_minutes) for t in traces]
    if args.truth:
        truth = _load_truth(args.truth)
        records = []
        rng = np.random.default_rng(args.seed)
        for trace in working:
            days = trace.days()
            for day, split in zip(days, split_days(len(days), rng)):
                records.append(LabeledRecord(day=day, label=day.label_in(truth), split=split))
        dataset = LabeledDataset(records=tuple(records))
    else:
        dataset = label_days(
            working, bits, periods_threshold=args.periods_threshold, seed=args.seed
        )
    for split in Split:
        if all(r.split is not split for r in dataset.records):
            raise DataFormatError(
                f"{args.traces}: empty {split.value} split; of each consumer's n whole "
                f"days (of each label group's, without --truth) round({TRAIN_FRACTION} x n) "
                "go to train, so a test day needs a group of 3 or more days"
            )
    save_labeled_jsonl(args.out, dataset, patterns=bits)
    n_absent = sum(r.label is PresenceLabel.ABSENT for r in dataset.records)
    print(f"labeled {len(dataset.records)} days ({n_absent} absent) -> {args.out}")
    return 0


def _dataset_patterns(dataset, patterns, split):
    xs, ys = [], []
    for rec in dataset.records:
        if rec.split is not split:
            continue
        xs.append(patterns[rec.day.key])
        ys.append(1 if rec.label is PresenceLabel.ABSENT else 0)
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.int64)


def _threeclass_sets(args, dataset, patterns, split):
    """(present, raw absent, spoofed) patterns of one split, the spoofed ones
    made by the known defense in --defense-params. The raw patterns, made at
    --threshold, must be the bits prep stored, or the attacker would learn
    a different CAT threshold from the one the dataset was prepared at."""
    if not args.defense_params:
        raise ConfigError("the threeclass attacker needs --defense-params")
    bundle = _bundle_from(args)
    traces = traces_from_day_records([r.day for r in dataset.records])
    labels = {r.day.key: r.label for r in dataset.records}
    keys = [r.day.key for r in dataset.records if r.split is split]
    (sets,) = threeclass_sets(bundle, traces, labels, _cat(args), keys)
    present_first = sorted(keys, key=lambda key: labels[key] is not PresenceLabel.PRESENT)
    for key, bits in zip(present_first, sets[0] + sets[1]):
        if not np.array_equal(bits, patterns[key]):
            raise ConfigError(
                f"--threshold {args.threshold:g} gives other transmission bits than "
                f"the dataset's for {format_day_key(key)}; pass prep's --threshold"
            )
    return sets


def _load_dataset(path):
    """A prep output's records and transmission bits; no records is a data error."""
    dataset, patterns = load_labeled_jsonl(path)
    if not dataset.records:
        raise DataFormatError(f"{path}: no records; rerun prep on a corpus with whole days")
    return dataset, patterns


def cmd_train(args) -> int:
    dataset, patterns = _load_dataset(args.dataset)
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        l2_lambda=args.l2_lambda,
        rng_seed=args.seed,
    )
    if args.target == "attacker":
        spec = build_attacker(args.rate)
        x, y = _dataset_patterns(dataset, patterns, Split.TRAIN)
        params, history = train_attacker(spec, x, y, config)
    elif args.target == "defense":
        spec = build_defense(args.rate)
        labels = {r.day.key: r.label for r in dataset.records}
        train_keys = {r.day.key for r in dataset.records if r.split is Split.TRAIN}
        runs = present_runs(
            {k: v for k, v in patterns.items() if k in train_keys}, labels
        )
        windows = build_window_dataset(runs, n=spec.input_length)
        windows = subsample_windows(
            windows, max_samples=args.max_windows, seed=args.seed, balance=True
        )
        params, history = train_defense(windows, spec, config)
    else:  # threeclass: regenerate spoofing patterns with the known defense
        sets = _threeclass_sets(args, dataset, patterns, Split.TRAIN)
        _, params, history = train_threeclass(args.rate, *sets, config=config)
    save_params(args.out, params)
    if args.history:
        save_history_csv(args.history, history)
    print(f"trained {args.target} ({args.epochs} epochs) -> {args.out}")
    return 0


def _bundle_from(args) -> DefenseBundle:
    spec = build_defense(args.rate)
    params = load_params(args.defense_params, spec)
    return DefenseBundle(spec=spec, params=params, n=spec.input_length)


def _attacker_view(path, dataset) -> dict:
    """The patterns of a simulate output's attacker_view for the dataset's
    days, each checked against that day's slot count. Entries for other days
    are never read, so they are dropped."""
    view = _read_field(path, "attacker_view")
    if not isinstance(view, dict):
        raise DataFormatError(f"{path}: attacker_view is not an object")
    slots = {format_day_key(rec.day.key): rec.day.readings.size for rec in dataset.records}
    patterns = {}
    for key, bits in view.items():
        if key not in slots:
            continue
        try:
            patterns[parse_day_key(key)] = transmission_bits(bits, slots[key])
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: attacker_view[{key!r}]: {exc}") from None
    return patterns


def cmd_eval(args) -> int:
    if args.patterns and args.variant == "threeclass":
        raise ConfigError("--patterns is for the twoclass attacker; threeclass makes its own")
    dataset, patterns = _load_dataset(args.dataset)
    if args.patterns:
        patterns = {**patterns, **_attacker_view(args.patterns, dataset)}
    test = [r for r in dataset.records if r.split is Split.TEST]
    if not test:
        raise DataFormatError("empty test split")
    if args.variant == "threeclass":
        sets = _threeclass_sets(args, dataset, patterns, Split.TEST)
        spec = build_threeclass(args.rate)
        params = load_params(args.params, spec)
        report = evaluate_threeclass(spec, params, *sets).report
    else:
        x, y = _dataset_patterns(dataset, patterns, Split.TEST)
        spec = build_attacker(args.rate)
        params = load_params(args.params, spec)
        report = evaluate(spec, params, x, y)
    payload = {
        "config": {
            "rate": args.rate,
            "variant": args.variant,
            "params": os.path.basename(args.params),
            "dataset": os.path.basename(args.dataset),
            "patterns": os.path.basename(args.patterns) if args.patterns else None,
        },
        "report": report.as_dict(),
    }
    _write_json(args.out, payload)
    if args.roc:
        with open(args.roc, "w", encoding="utf-8") as fh:
            fh.write("fa,sr\n")
            for fpr, tpr in report.roc_points:
                fh.write(f"{fpr!r},{tpr!r}\n")
    print(f"SR={report.sr:.4f} FA={report.fa:.4f} AUC={report.auc:.4f} -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    traces = _whole_days(args.traces)
    truth = _load_truth(args.truth)
    cat = _cat(args)
    bundle = _bundle_from(args) if args.defense_params else None
    working = [resample(t, cat.granularity_minutes) for t in traces]
    scenario = SimScenario(
        traces=working,
        presence=truth,
        cat=cat,
        defense=bundle,
        seed=args.seed,
        paillier_bits=args.paillier_bits,
        pairing_backend=args.backend,
    )
    report = run_simulation(scenario)
    _write_json(args.out, report.as_dict())
    if args.error_cdf:
        cdf, _ = aggregate_error_cdf(np.array([t.readings for t in working]), report.held)
        write_cdf_csv(args.error_cdf, cdf)
    print(
        f"simulated {report.slots} slots: exact={report.all_exact} "
        f"efficiency={report.efficiency_percent:.2f}% -> {args.out}"
    )
    return 0 if report.all_exact else 1


def cmd_efficiency(args) -> int:
    traces = _whole_days(args.traces)
    table = efficiency_table(traces, thresholds=args.thresholds, rates=args.rates)
    write_efficiency_csv(args.out, table)
    print(f"wrote {len(table)} efficiency cells -> {args.out}")
    return 0


def cmd_report(args) -> int:
    table = {
        "attacker_sr_without_defense": _read_field(args.eval_no_defense, "report", "sr"),
        "attacker_sr_with_defense": _read_field(args.eval_with_defense, "report", "sr"),
        "efficiency_without_defense": _read_field(args.sim_no_defense, "efficiency_percent"),
        "efficiency_with_defense": _read_field(args.sim_with_defense, "efficiency_percent"),
    }
    payload = {
        "config": {
            "sources": {
                "eval_no_defense": os.path.basename(args.eval_no_defense),
                "eval_with_defense": os.path.basename(args.eval_with_defense),
                "sim_no_defense": os.path.basename(args.sim_no_defense),
                "sim_with_defense": os.path.basename(args.sim_with_defense),
            }
        },
        "table": table,
    }
    _write_json(args.out, payload)
    for key, value in table.items():
        print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amisim",
        description="Desk-scale change-and-transmit metering privacy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic 1-min corpus")
    p.add_argument("--consumers", type=int, required=True)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="traces CSV path")
    p.add_argument("--truth", required=True, help="ground-truth labels JSON path")
    p.add_argument("--absence-probability", type=float, default=SyntheticConfig.absence_probability)
    p.add_argument("--rate-present", type=float, default=SyntheticConfig.event_rate_present_per_hour)
    p.add_argument("--rate-absent", type=float, default=SyntheticConfig.event_rate_absent_per_hour)
    p.add_argument("--event-duration", type=float, default=SyntheticConfig.event_duration_minutes)
    p.add_argument("--duration-jitter", type=float, default=SyntheticConfig.event_duration_jitter)
    p.add_argument("--gap-jitter", type=float, default=SyntheticConfig.event_gap_jitter)
    p.add_argument("--activity-jitter", type=float, default=SyntheticConfig.activity_jitter)
    p.add_argument("--rate-spread", type=float, default=SyntheticConfig.consumer_rate_spread)
    p.add_argument("--duration-spread", type=float, default=SyntheticConfig.consumer_duration_spread)
    p.add_argument("--no-diurnal", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate and normalize a readings CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("prep", help="derive patterns and labels at a working rate")
    p.add_argument("--traces", required=True)
    p.add_argument("--rate", choices=RATE_MINUTES, required=True)
    p.add_argument("--threshold", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--periods-threshold", type=float, default=DEFAULT_PERIODS_THRESHOLD)
    p.add_argument("--truth", help="use ground-truth labels instead of clustering")
    p.add_argument("--out", required=True, help="labeled JSONL path")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--target", choices=("attacker", "defense", "threeclass"), required=True)
    p.add_argument("--rate", choices=RATE_MINUTES, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epochs", type=int, default=DEFAULT_ATTACKER_EPOCHS)
    p.add_argument("--batch-size", type=int, default=DEFAULT_ATTACKER_BATCH)
    p.add_argument("--learning-rate", type=float, default=DEFAULT_ATTACKER_LR)
    p.add_argument("--l2-lambda", type=float, default=0.0)
    p.add_argument("--max-windows", type=int, default=8000)
    p.add_argument("--threshold", type=float, default=10.0)
    p.add_argument("--defense-params", help="required for --target threeclass")
    p.add_argument("--out", required=True, help="params binary path")
    p.add_argument("--history", help="training history CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate an attacker on a test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--rate", choices=RATE_MINUTES, required=True)
    p.add_argument("--variant", choices=("twoclass", "threeclass"), default="twoclass")
    p.add_argument("--threshold", type=float, default=10.0)
    p.add_argument("--defense-params", help="required for --variant threeclass")
    p.add_argument("--patterns", help="simulation JSON whose attacker view overrides patterns")
    p.add_argument("--out", required=True)
    p.add_argument("--roc", help="ROC CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="run the encrypted collection protocol")
    p.add_argument("--traces", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--rate", choices=RATE_MINUTES, required=True)
    p.add_argument("--threshold", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--paillier-bits", type=int, default=512)
    p.add_argument("--backend", choices=("exp", "bn254"), default="exp")
    p.add_argument("--defense-params")
    p.add_argument("--out", required=True)
    p.add_argument("--error-cdf", help="aggregated error CDF CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("efficiency", help="efficiency table across rates/thresholds")
    p.add_argument("--traces", required=True)
    p.add_argument("--thresholds", type=float, nargs="+", default=[1.0, 4.0, 7.0, 10.0])
    p.add_argument("--rates", type=int, nargs="+", default=[1, 5, 15, 30])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("report", help="consolidated with/without-defense table")
    p.add_argument("--eval-no-defense", required=True)
    p.add_argument("--eval-with-defense", required=True)
    p.add_argument("--sim-no-defense", required=True)
    p.add_argument("--sim-with-defense", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CryptoError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AmisimError, OSError, UnicodeDecodeError) as exc:  # or an input not in UTF-8
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
