"""Spoofing-transmission defense: window dataset, model, and decision loop.

The defense is a next-bit predictor trained on occupied-home transmission
patterns. During an absent day it watches the last n transmission decisions
and, whenever the change rule alone would stay silent, decides whether to
send a redundant real reading so the day's pattern keeps looking occupied.
Change-triggered transmissions are never suppressed, so reading fidelity
at the utility is untouched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date

import numpy as np

from amisim.cat import CatConfig, TransmissionPattern, apply_cat, rate_minutes, schedule
from amisim.data.traces import ConsumptionTrace, PresenceLabel, resample
from amisim.errors import ConfigError
from amisim.nn import (
    Activation,
    BitWindowKernel,
    Conv1D,
    Dense,
    GRULayer,
    MaxPool1D,
    ModelSpec,
    Params,
    TrainConfig,
    forward,
    train,
)


# Not called by the program (it reads spec.input_length); perfbench calls it.
def window_size(rate: str) -> int:
    """How many past transmission decisions the defense reads at a rate."""
    return build_defense(rate).input_length


def build_defense(rate: str) -> ModelSpec:
    """Next-decision predictor architecture for the given reporting rate."""
    rate_minutes(rate)  # ConfigError for an unknown rate
    if rate == "per5min":
        return ModelSpec(
            input_length=100,
            input_channels=1,
            layers=(
                Conv1D(filters=150, kernel_size=3),
                Activation("relu"),
                MaxPool1D(pool_size=4),
                GRULayer(units=200),
                Dense(units=128),
                Activation("relu"),
                Dense(units=32),
                Activation("relu"),
                Dense(units=2),
                Activation("softmax"),
            ),
            output_classes=2,
        )
    return ModelSpec(
        input_length=35,
        input_channels=1,
        layers=(
            Conv1D(filters=128, kernel_size=3),
            Activation("relu"),
            Conv1D(filters=64, kernel_size=3),
            Activation("relu"),
            Conv1D(filters=32, kernel_size=3),
            Activation("relu"),
            MaxPool1D(pool_size=2),
            GRULayer(units=128),
            Dense(units=128),
            Activation("relu"),
            Dense(units=32),
            Activation("relu"),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )


@dataclass(frozen=True)
class WindowDataset:
    windows: np.ndarray  # (count, n) float64 bits
    labels: np.ndarray  # (count,) int 0/1
    n: int
    skipped: int  # sequences too short to yield a sample


def build_window_dataset(present_sequences, n: int) -> WindowDataset:
    """Slide an n-bit window over each occupied-period bit sequence.

    Each sequence yields len - n samples labeled with the bit right after
    the window. Pass per-day patterns for day-bounded windows, or
    concatenated runs of consecutive present days (see present_runs) to let
    windows span midnight. Sequences of n or fewer bits are skipped.
    """
    if n < 1:
        raise ConfigError("window size must be >= 1")
    windows = []
    labels = []
    skipped = 0
    for seq in present_sequences:
        bits = np.asarray(seq, dtype=np.float64).ravel()
        if len(bits) <= n:
            skipped += 1
            continue
        view = np.lib.stride_tricks.sliding_window_view(bits, n)[:-1]
        windows.append(view.copy())
        labels.append(bits[n:].astype(np.int64))
    if windows:
        x = np.concatenate(windows, axis=0)
        y = np.concatenate(labels, axis=0)
    else:
        x = np.zeros((0, n))
        y = np.zeros(0, dtype=np.int64)
    return WindowDataset(windows=x, labels=y, n=n, skipped=skipped)


def present_runs(patterns_by_day, labels_by_day):
    """Concatenate consecutive present-day patterns per consumer.

    Both arguments are keyed by (consumer_id, ISO date). Returns bit
    sequences, one per maximal run of present days on consecutive calendar
    dates: a run breaks at an absent day and at a date patterns_by_day
    lacks, such as a day of the other split.
    """
    by_consumer: dict[str, list] = {}
    for (consumer, date_iso), pattern in patterns_by_day.items():
        by_consumer.setdefault(consumer, []).append((date_iso, pattern))
    runs = []
    for consumer, entries in sorted(by_consumer.items()):
        entries.sort()
        current: list[np.ndarray] = []
        for date_iso, pattern in entries:
            day = date.fromisoformat(date_iso)
            present = labels_by_day[(consumer, date_iso)] is PresenceLabel.PRESENT
            if current and (not present or (day - last).days != 1):
                runs.append(np.concatenate(current))
                current = []
            if present:
                bits = pattern.bits if isinstance(pattern, TransmissionPattern) else pattern
                current.append(np.asarray(bits))
                last = day
        if current:
            runs.append(np.concatenate(current))
    return runs


def subsample_windows(dataset: WindowDataset, max_samples: int, seed: int, balance: bool = True):
    """Deterministic subsample for desk-scale training; optionally 50/50.

    Balancing duplicates nothing: it caps the majority class at the
    minority count (or half the budget, whichever is smaller).
    """
    if max_samples < 1:
        raise ConfigError(f"window budget must be >= 1, got {max_samples}")
    if len(dataset.labels) <= max_samples and not balance:
        return dataset
    rng = np.random.default_rng(seed)
    idx_one = np.flatnonzero(dataset.labels == 1)
    idx_zero = np.flatnonzero(dataset.labels == 0)
    if balance and len(idx_one) and len(idx_zero):
        per_class = min(max_samples // 2, len(idx_one), len(idx_zero))
        take_one = rng.permutation(idx_one)[:per_class]
        take_zero = rng.permutation(idx_zero)[:per_class]
        chosen = np.concatenate([take_one, take_zero])
    else:
        chosen = rng.permutation(len(dataset.labels))[:max_samples]
    chosen = np.sort(chosen)
    return WindowDataset(
        windows=dataset.windows[chosen],
        labels=dataset.labels[chosen],
        n=dataset.n,
        skipped=dataset.skipped,
    )


@dataclass(frozen=True)
class DefenseBundle:
    spec: ModelSpec
    params: Params
    n: int


def train_defense(
    dataset: WindowDataset,
    spec: ModelSpec,
    config: TrainConfig,
) -> tuple[Params, list]:
    """Train the next-decision predictor; returns (params, history)."""
    if dataset.n != spec.input_length:
        raise ConfigError(
            f"window size {dataset.n} does not match model input {spec.input_length}"
        )
    if len(dataset.labels) == 0:
        raise ConfigError("empty window dataset")
    share = dataset.labels.mean()
    if share in (0.0, 1.0):
        warnings.warn("single-class window dataset; the predictor will be constant")
    x = dataset.windows[:, :, None]
    return train(spec, x, dataset.labels, config)


# The per-slot decision of the tests' reference loop; perfbench/spans.py
# traces it as amisim.protocol.defense_decide.
def defense_decide(state, bundle: DefenseBundle) -> int:
    """Run the predictor on state.window(), the last bundle.n decisions as
    floats; 1 means send a redundant reading."""
    window = state.window()
    out, _ = forward(bundle.spec, bundle.params, window[None, :, None])
    return int(np.argmax(out[0]))


# ---------------------------------------------------------------------------
# Corpus-level simulation (the defense as a cat.schedule policy)
# ---------------------------------------------------------------------------

def simulate_corpus(
    traces: list[ConsumptionTrace],
    presence: dict,
    cat: CatConfig,
    bundle: DefenseBundle,
):
    """The defended transmission schedule of every consumer-day; returns
    (patterns, eu_views) keyed by (consumer_id, ISO date).

    cat.schedule with the defense as its policy, and every memory starts
    from _bootstrap_bits (the first present day's change-only pattern). The
    BitWindowKernel built for this call reads a window's first span bits
    only, so the decision at slot t reads no column from t - n + span on,
    and columns before s decide every slot of s .. s + lag - 1, lag =
    n - span + 1. The policy therefore runs such a block in one kernel
    call, over every absent-labelled row of each slot, and answers the
    block's later slots from it. The decisions equal those of the tests'
    per-slot reference (tests/reference.py), which calls forward each slot.
    protocol.run_simulation encrypts exactly these transmissions.
    """
    working = [resample(t, cat.granularity_minutes) for t in traces]
    n = bundle.n
    boot = np.array([_bootstrap_bits(t.days(), presence, cat, n) for t in working], np.uint8)
    predict = BitWindowKernel(bundle.spec, bundle.params)
    lag = n - predict.span + 1
    first, fire = 0, np.zeros((len(working), 0), dtype=bool)  # block start, its decisions

    def spoof(s, rows, bits, absent):
        nonlocal first, fire
        if s >= first + fire.shape[1]:
            first, need = s, absent[:, s : s + lag]
            # The n decisions before each slot; until there are n, bootstrap
            # bits lead. Columns from s on are not final, but no window
            # holds them among its first span bits.
            past = np.hstack([boot[:, min(s, n) :], bits[:, max(s - n, 0) : s + lag - 1]])
            who, j = np.nonzero(need)
            windows = np.lib.stride_tricks.sliding_window_view(past, n, axis=1)[who, j]
            fire = np.zeros(need.shape, dtype=bool)
            fire[who, j] = np.argmax(predict(windows), axis=1) == 1
        return fire[rows, s - first]

    return schedule(working, cat.threshold_percent, presence, spoof)


def _bootstrap_bits(days, presence, cat: CatConfig, n: int) -> np.ndarray:
    """Memory seed: the change-only pattern of the consumer's first present day."""
    for day in days:
        if day.label_in(presence) is PresenceLabel.PRESENT:
            pattern, _, _ = apply_cat(day, cat, None)
            bits = pattern.bits
            if len(bits) >= n:
                return bits[-n:]
            reps = int(np.ceil(n / len(bits)))
            return np.tile(bits, reps)[-n:]
    return np.zeros(n, dtype=np.uint8)
