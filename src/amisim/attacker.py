"""Occupancy-inference attacker: models, training, and evaluation metrics.

The attacker sees only per-day transmission patterns. The 2-class model
decides present/absent; the 3-class variant additionally knows the defense
and tries to recognize machine-generated ("spoofing") patterns, treating
either an absent or a spoofing verdict as evidence that nobody is home.

Metric conventions follow the scheme under test: the success rate is
SR = TP / (TP + FP) and the false-alarm rate is FA = FP / (TN + FN), with
absence as the positive class. FA's denominator is unusual on purpose and
kept verbatim; conventional FPR/TPR drive the ROC sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from amisim.cat import CatConfig, patterns_for_traces, rate_minutes
from amisim.data.traces import PresenceLabel, slots_per_day
from amisim.defense import DefenseBundle, simulate_corpus
from amisim.errors import ConfigError
from amisim.nn import (
    Activation,
    Conv1D,
    Dense,
    Flatten,
    GRULayer,
    MaxPool1D,
    ModelSpec,
    Params,
    TrainConfig,
    predict_proba,
    train,
)

DEFAULT_ATTACKER_EPOCHS = 60
DEFAULT_ATTACKER_BATCH = 128
DEFAULT_ATTACKER_LR = 0.001


class AttackClass(Enum):
    PRESENT = 0
    ABSENT = 1
    SPOOFING = 2


def build_attacker(rate: str) -> ModelSpec:
    """2-class CNN over one day of transmission bits."""
    length = slots_per_day(rate_minutes(rate))
    if rate == "per5min":
        layers = (
            Conv1D(filters=150, kernel_size=3),
            Activation("elu"),
            Conv1D(filters=85, kernel_size=3),
            Activation("relu"),
            Conv1D(filters=45, kernel_size=3),
            Activation("relu"),
            Conv1D(filters=25, kernel_size=3),
            Activation("relu"),
            MaxPool1D(pool_size=2),
            Flatten(),
            Dense(units=512),
            Activation("elu"),
            Dense(units=512),
            Activation("relu"),
            Dense(units=128),
            Activation("sigmoid"),
            Dense(units=64),
            Activation("elu"),
            Dense(units=2),
            Activation("softmax"),
        )
    else:
        layers = (
            Conv1D(filters=80, kernel_size=3),
            Activation("relu"),
            Conv1D(filters=32, kernel_size=3),
            Activation("relu"),
            Conv1D(filters=20, kernel_size=3),
            Activation("elu"),
            MaxPool1D(pool_size=2),
            Flatten(),
            Dense(units=256),
            Activation("elu"),
            Dense(units=512),
            Activation("sigmoid"),
            Dense(units=64),
            Activation("elu"),
            Dense(units=64),
            Activation("relu"),
            Dense(units=2),
            Activation("sigmoid"),
        )
    return ModelSpec(
        input_length=length,
        input_channels=1,
        layers=layers,
        output_classes=2,
    )


def build_threeclass(rate: str) -> ModelSpec:
    """3-class (present/absent/spoofing) model for a defense-aware attacker."""
    length = slots_per_day(rate_minutes(rate))
    if rate == "per5min":
        layers = (
            Conv1D(filters=150, kernel_size=3),
            Activation("relu"),
            MaxPool1D(pool_size=4),
            Flatten(),
            Dense(units=128),
            Activation("relu"),
            Dense(units=35),
            Activation("relu"),
            Dense(units=3),
            Activation("softmax"),
        )
    else:
        layers = (
            Conv1D(filters=128, kernel_size=3),
            Activation("relu"),
            MaxPool1D(pool_size=4),
            GRULayer(units=32),
            Dense(units=64),
            Activation("relu"),
            Dense(units=32),
            Activation("relu"),
            Dense(units=3),
            Activation("softmax"),
        )
    return ModelSpec(
        input_length=length,
        input_channels=1,
        layers=layers,
        output_classes=3,
    )


def train_attacker(spec: ModelSpec, patterns, labels, config: TrainConfig):
    """Train on (patterns, 0/1 labels); warns past a 95/5 class imbalance."""
    labels = np.asarray(labels)
    share = labels.mean() if len(labels) else 0.0
    if len(labels) and (share > 0.95 or share < 0.05):
        warnings.warn(
            f"severe class imbalance ({share:.1%} positive); training anyway"
        )
    x = np.asarray(patterns, dtype=np.float64)[:, :, None]
    return train(spec, x, labels, config)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    sr: float
    fa: float
    auc: float
    roc_points: tuple  # (fpr, tpr) pairs, threshold high -> low
    confusion: tuple  # k x k rows=true, cols=predicted
    sr_at_fa05: float
    flags: tuple = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "sr": self.sr,
            "fa": self.fa,
            "auc": self.auc,
            "sr_at_fa05": self.sr_at_fa05,
            "confusion": [list(row) for row in self.confusion],
            "roc_points": [list(p) for p in self.roc_points],
            "flags": list(self.flags),
        }


def confusion_matrix(true_labels, predicted, classes: int):
    matrix = np.zeros((classes, classes), dtype=np.int64)
    for t, p in zip(true_labels, predicted):
        matrix[int(t), int(p)] += 1
    return matrix


def sr_fa_from_confusion(matrix, positive: int = AttackClass.ABSENT.value):
    """Verbatim SR = TP/(TP+FP) and FA = FP/(TN+FN) for a 2x2 matrix.

    Zero denominators report 0.0 with a flag instead of raising.
    """
    matrix = np.asarray(matrix)
    tp = int(matrix[positive, positive])
    fp = int(matrix[1 - positive, positive])
    tn = int(matrix[1 - positive, 1 - positive])
    fn = int(matrix[positive, 1 - positive])
    flags = []
    sr = tp / (tp + fp) if tp + fp else 0.0
    if tp + fp == 0:
        flags.append("sr_zero_denominator")
    fa = fp / (tn + fn) if tn + fn else 0.0
    if tn + fn == 0:
        flags.append("fa_zero_denominator")
    return sr, fa, flags


def roc_curve(scores, labels):
    """Threshold sweep over distinct scores; returns (points, auc, sr_at_fa05).

    Points are conventional (FPR, TPR) from (0,0) to (1,1); AUC is the
    trapezoidal area. sr_at_fa05 is the best verbatim SR over operating
    points whose verbatim FA stays at or under 0.05.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise ConfigError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]

    points = [(0.0, 0.0)]
    sr_at_fa05 = 0.0
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            tp += int(sorted_labels[j] == 1)
            fp += int(sorted_labels[j] == 0)
            j += 1
        i = j
        fn = pos - tp
        tn = neg - fp
        points.append((fp / neg, tp / pos))
        sr = tp / (tp + fp) if tp + fp else 0.0
        fa = fp / (tn + fn) if tn + fn else float("inf")
        if fa <= 0.05:
            sr_at_fa05 = max(sr_at_fa05, sr)
    auc = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        auc += (x2 - x1) * (y1 + y2) / 2.0
    return tuple(points), auc, sr_at_fa05


def _binary_report(truth, flagged, score) -> EvalReport:
    """SR/FA/ROC report for 0/1 truth (1 = absent), 0/1 verdicts and an
    absence score. A one-class truth gets the chance ROC and a flag."""
    matrix = confusion_matrix(truth, flagged, classes=2)
    sr, fa, flags = sr_fa_from_confusion(matrix)
    if len(set(truth.tolist())) > 1:
        points, auc, sr_at_fa05 = roc_curve(score, truth)
    else:
        points, auc, sr_at_fa05 = ((0.0, 0.0), (1.0, 1.0)), 0.5, 0.0
        flags.append("single_class_auc_undefined")
    return EvalReport(
        sr=sr,
        fa=fa,
        auc=auc,
        roc_points=tuple(points),
        confusion=tuple(tuple(int(v) for v in row) for row in matrix),
        sr_at_fa05=sr_at_fa05,
        flags=tuple(flags),
    )


def evaluate(spec: ModelSpec, params: Params, patterns, labels) -> EvalReport:
    """2-class evaluation; absence (label 1) is the positive class."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ConfigError("empty evaluation set")
    probs = predict_proba(spec, params, np.asarray(patterns, dtype=np.float64)[:, :, None])
    return _binary_report(labels, np.argmax(probs, axis=1), probs[:, 1])


# ---------------------------------------------------------------------------
# Defense-aware (3-class) attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnownDefenseReport:
    report: EvalReport  # binarized absent-or-spoofing accounting
    confusion3: tuple  # rows: present, absent(raw), defended-absent
    spoof_flag_rate_on_present: float


def threeclass_sets(bundle: DefenseBundle, traces, presence, cat: CatConfig, *key_sets):
    """Per-class pattern lists, one (present, raw absent, spoofed) triple per
    key set, sharing one undefended and one defended corpus schedule.

    Spoofing patterns are produced by running the known defense over the
    absent days, exactly as a defense-aware attacker would. The defense
    runs only over what _traces_for_days keeps for those days.
    """
    if bundle is None:
        raise ConfigError("defense params are required to build spoofing patterns")
    raw_patterns, _ = patterns_for_traces(traces, cat)
    spoof_keys = {key for keys in key_sets for key in keys
                  if presence[key] is not PresenceLabel.PRESENT}
    cut = _traces_for_days(traces, presence, spoof_keys)
    defended_patterns = simulate_corpus(cut, presence, cat, bundle)[0] if cut else {}
    out = []
    for keys in key_sets:
        present, absent_raw, spoofed = [], [], []
        for key in keys:
            if presence[key] is PresenceLabel.PRESENT:
                present.append(raw_patterns[key].bits)
            else:
                absent_raw.append(raw_patterns[key].bits)
                spoofed.append(defended_patterns[key].bits)
        out.append((present, absent_raw, spoofed))
    return out


def _traces_for_days(traces, presence, keys):
    """The traces that hold a day in keys, each cut after its last such day
    or after its first present day, whichever comes later. A defended day
    depends only on the days before it and on the memory seed taken from the
    first present day, so the cut traces give those days the same schedule."""
    out = []
    for trace in traces:
        days = trace.days()
        read = [d for d, day in enumerate(days) if day.key in keys]
        if not read:
            continue
        first_present = next((d for d, day in enumerate(days)
                              if day.label_in(presence) is PresenceLabel.PRESENT), -1)
        end = (max(read[-1], first_present) + 1) * slots_per_day(trace.granularity_minutes)
        out.append(replace(trace, readings=trace.readings[:end]))
    return out


def _three_classes(present, absent_raw, spoofed):
    """Stacked (rows, length, 1) patterns and their AttackClass values."""
    x = np.array(list(present) + list(absent_raw) + list(spoofed), dtype=np.float64)
    y = np.array(
        [AttackClass.PRESENT.value] * len(present)
        + [AttackClass.ABSENT.value] * len(absent_raw)
        + [AttackClass.SPOOFING.value] * len(spoofed)
    )
    return x[:, :, None], y


def train_threeclass(
    rate: str,
    present,
    absent_raw,
    spoofed,
    config: TrainConfig,
):
    """Train the 3-class model on {present, absent, spoofing} pattern lists."""
    spec = build_threeclass(rate)
    if not (len(present) and len(absent_raw) and len(spoofed)):
        raise ConfigError("training needs all three classes")
    x, y = _three_classes(present, absent_raw, spoofed)
    params, history = train(spec, x, y, config)
    return spec, params, history


def evaluate_threeclass(
    spec: ModelSpec, params: Params, present, absent_raw, spoofed
) -> KnownDefenseReport:
    """Score the defense-aware attacker on a test partition.

    The attacker counts an absent-or-spoofing verdict on a defended absent
    day as success; the binarized report mixes defended absent days with
    genuine present days, which is what an eavesdropper actually sees.
    The 3-class confusion (rows: present, raw absent, defended absent) is
    kept for diagnostics.
    """
    x, true3 = _three_classes(present, absent_raw, spoofed)
    probs = predict_proba(spec, params, x)
    predicted = np.argmax(probs, axis=1)
    seen = true3 != AttackClass.ABSENT.value
    report = _binary_report(
        (true3[seen] == AttackClass.SPOOFING.value).astype(np.int64),
        predicted[seen] != AttackClass.PRESENT.value,
        probs[seen, AttackClass.ABSENT.value] + probs[seen, AttackClass.SPOOFING.value],
    )
    on_present = predicted[true3 == AttackClass.PRESENT.value] == AttackClass.SPOOFING.value
    confusion3 = confusion_matrix(true3, predicted, classes=3)
    return KnownDefenseReport(
        report=report,
        confusion3=tuple(tuple(int(v) for v in row) for row in confusion3),
        spoof_flag_rate_on_present=float(on_present.mean()) if len(on_present) else 0.0,
    )

