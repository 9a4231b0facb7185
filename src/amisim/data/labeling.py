"""Presence/absence labeling of consumer-days, and labeled-dataset JSONL IO.

Two independent signals are combined: per-consumer 2-means clustering of
daily activity features, and a same-day comparison of consumption across
three 8-hour periods. A day is labeled absent only when both signals agree.
"""

from __future__ import annotations

import json
from datetime import date as date_type

import numpy as np

from amisim.data.kmeans import kmeans
from amisim.data.traces import (
    ConsumptionTrace,
    DayRecord,
    LabeledDataset,
    LabeledRecord,
    PresenceLabel,
    Split,
)
from amisim.errors import DataFormatError, DegenerateDayError, ParseError

DEFAULT_PERIODS_THRESHOLD = 0.4
TRAIN_FRACTION = 0.8  # share of each consumer's days in the train split


def periods_score(day: DayRecord) -> float:
    """Relative spread of consumption across night/work/evening periods.

    The day splits into 12AM-8AM, 8AM-4PM, and 4PM-12AM. Occupied homes
    concentrate activity in the morning/evening blocks, so a low score
    (all periods alike) suggests nobody was home.
    """
    readings = day.readings
    n = len(readings)
    if n % 3 != 0:
        raise DataFormatError(f"day of {n} slots does not split into 3 periods")
    third = n // 3
    c3 = float(readings[:third].sum())        # 12AM-8AM
    c1 = float(readings[third : 2 * third].sum())  # 8AM-4PM
    c2 = float(readings[2 * third :].sum())   # 4PM-12AM
    if c1 == 0.0 or c3 == 0.0:
        raise DegenerateDayError(
            f"{day.consumer_id} {day.date}: zero consumption over an 8h period"
        )
    return abs((c1 - c2) / c1) + abs((c3 - c2) / c3)


def label_days(
    traces: list[ConsumptionTrace],
    cat_patterns: dict,
    periods_threshold: float = DEFAULT_PERIODS_THRESHOLD,
    seed: int = 0,
) -> LabeledDataset:
    """Label each consumer-day absent/present and assign a train/test split.

    cat_patterns maps (consumer_id, ISO date) to the day's transmission
    bits at the working rate. Per consumer, days are clustered (k=2) on
    z-normalized [transmission count, consumption std, total kWh]; the
    cluster with the lower mean transmission count is the absent candidate.
    A day is absent iff it is in that cluster AND its periods score is at
    or below the threshold (a day with a degenerate periods formula counts
    as a candidate). Consumers with fewer than 2 days are labeled present.

    The split is stratified per consumer and label, seeded, with the train
    share within one record of TRAIN_FRACTION.
    """
    records: list[LabeledRecord] = []
    rng = np.random.default_rng(seed)
    for trace in traces:
        days = trace.days()
        labels = _label_consumer(days, cat_patterns, periods_threshold, seed)
        splits = _stratified_split(labels, rng)
        for day, label, split in zip(days, labels, splits):
            records.append(LabeledRecord(day=day, label=label, split=split))
    return LabeledDataset(records=tuple(records))


def _label_consumer(days, cat_patterns, periods_threshold, seed):
    if len(days) < 2:
        return [PresenceLabel.PRESENT] * len(days)

    tx_counts = []
    features = []
    for day in days:
        key = day.key
        if key not in cat_patterns:
            raise DataFormatError(f"no transmission pattern for {key}")
        bits = np.asarray(cat_patterns[key])
        tx_counts.append(float(bits.sum()))
        features.append(
            [float(bits.sum()), float(day.readings.std()), float(day.readings.sum())]
        )
    feats = np.array(features)
    mean = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd[sd == 0] = 1.0
    assignments, _, _ = kmeans((feats - mean) / sd, k=2, seed=seed)

    tx = np.array(tx_counts)
    cluster_candidate = np.zeros(len(days), dtype=bool)
    in0 = assignments == 0
    in1 = assignments == 1
    if in0.any() and in1.any():
        low = 0 if tx[in0].mean() <= tx[in1].mean() else 1
        cluster_candidate = assignments == low

    labels = []
    for i, day in enumerate(days):
        try:
            periods_candidate = periods_score(day) <= periods_threshold
        except DegenerateDayError:
            periods_candidate = True
        absent = cluster_candidate[i] and periods_candidate
        labels.append(PresenceLabel.ABSENT if absent else PresenceLabel.PRESENT)
    return labels


def split_days(n: int, rng) -> list[Split]:
    """The split rule: a seeded shuffle of n days puts the first
    round(TRAIN_FRACTION * n) in train and the rest in test. So a group of
    one or two days has no test day. Draws one rng.permutation(n)."""
    order = rng.permutation(n)
    splits = [Split.TEST] * n
    for pos in order[: int(round(TRAIN_FRACTION * n))]:
        splits[pos] = Split.TRAIN
    return splits


def _stratified_split(labels, rng):
    """split_days over each label group of one consumer's days."""
    splits = [Split.TRAIN] * len(labels)
    for label in (PresenceLabel.PRESENT, PresenceLabel.ABSENT):
        idx = [i for i, lab in enumerate(labels) if lab is label]
        for i, split in zip(idx, split_days(len(idx), rng)):  # n = 0 draws nothing
            splits[i] = split
    return splits


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def save_labeled_jsonl(path, dataset: LabeledDataset, patterns: dict):
    """Write one JSON object per labeled day with its transmission bits."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in dataset.records:
            obj = {
                "consumer": rec.day.consumer_id,
                "date": rec.day.date.isoformat(),
                "granularity": rec.day.granularity_minutes,
                "readings": [float(x) for x in rec.day.readings],
                "label": rec.label.value,
                "split": rec.split.value,
                "bits": [int(b) for b in patterns[rec.day.key]],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def transmission_bits(value, slots: int):
    """A day's transmission pattern as uint8; DataFormatError unless value is
    a list of `slots` entries, each 0 or 1."""
    if not isinstance(value, list) or len(value) != slots or any(b not in (0, 1) for b in value):
        raise DataFormatError(f"transmission bits are not a list of {slots} 0/1 entries")
    return np.array(value, dtype=np.uint8)


def load_labeled_jsonl(path):
    """Read a labeled dataset; returns (dataset, patterns). Every record must
    carry its transmission bits, as prep writes them."""
    records = []
    patterns: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected an object, got {type(obj).__name__}")
                day = DayRecord(
                    consumer_id=obj["consumer"],
                    date=date_type.fromisoformat(obj["date"]),
                    readings=np.array(obj["readings"], dtype=np.float64),
                )
                record = LabeledRecord(
                    day=day,
                    label=PresenceLabel(obj["label"]),
                    split=Split(obj["split"]),
                )
                bits = transmission_bits(obj["bits"], day.readings.size)
            except (KeyError, TypeError, ValueError, OverflowError, DataFormatError) as exc:
                # JSONDecodeError is a ValueError; KeyError names a missing key.
                raise ParseError(f"malformed record: {exc!r}", line=lineno) from exc
            records.append(record)
            patterns[day.key] = bits
    return LabeledDataset(records=tuple(records)), patterns
