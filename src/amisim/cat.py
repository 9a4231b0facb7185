"""Change-and-transmit reporting: decision rule, patterns and held readings,
efficiency, and aggregated-error statistics.

A meter under CAT sends a reading only when it moved by more than a
percentage threshold relative to the last reported reading; the utility
carries the last reported value forward through silent slots.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from amisim.data.traces import (
    VALID_GRANULARITIES, ConsumptionTrace, DayRecord, PresenceLabel, resample,
)
from amisim.errors import ConfigError

# The paper's two reporting rates and their slot widths in minutes.
RATE_MINUTES = {"per5min": 5, "per30min": 30}


def rate_minutes(rate: str) -> int:
    """Slot width of a reporting rate; ConfigError for an unknown name."""
    if rate not in RATE_MINUTES:
        raise ConfigError(f"rate must be one of {tuple(RATE_MINUTES)}, got {rate!r}")
    return RATE_MINUTES[rate]


@dataclass(frozen=True)
class CatConfig:
    threshold_percent: float
    granularity_minutes: int

    def __post_init__(self):
        if not 0 < self.threshold_percent < 100:
            raise ConfigError(
                f"threshold_percent must be in (0, 100), got {self.threshold_percent}"
            )
        if self.granularity_minutes not in VALID_GRANULARITIES:
            raise ConfigError(
                f"granularity must be one of {VALID_GRANULARITIES}, "
                f"got {self.granularity_minutes}"
            )


@dataclass(frozen=True)
class TransmissionPattern:
    """Per-day transmit/no-transmit bits, one per slot."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        bits.setflags(write=False)
        if not np.all((bits == 0) | (bits == 1)):
            raise ConfigError("pattern bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    def count(self) -> int:
        return int(self.bits.sum())


def cat_decide(current: float, last_reported: float, threshold_percent: float) -> bool:
    """True when the reading changed enough (strictly) to be worth sending.

    With a zero baseline the percentage change is undefined; any positive
    consumption then transmits.
    """
    if last_reported == 0.0:
        return current > 0.0
    return abs(current - last_reported) / last_reported * 100.0 > threshold_percent


def apply_cat(day: DayRecord, config: CatConfig, initial_last: float | None = None):
    """Run CAT over one day; returns (pattern, held, final_last), where held
    is the read-only per-slot reading the utility holds.

    initial_last is the last reported reading carried in from the previous
    day; None means this is the first-ever slot, which always transmits.
    final_last feeds the next day's call so state chains across days.
    """
    readings = day.readings
    bits = np.zeros(len(readings), dtype=np.uint8)
    held = np.empty(len(readings), dtype=np.float64)
    last = initial_last
    for t, current in enumerate(readings):
        current = float(current)
        if last is None or cat_decide(current, last, config.threshold_percent):
            bits[t] = 1
            last = current
        held[t] = last
    held.setflags(write=False)
    return TransmissionPattern(bits=bits), held, last


def schedule(traces: list[ConsumptionTrace], threshold_percent: float,
             presence: dict | None = None, policy=None):
    """The CAT schedule of every consumer-day, equal to apply_cat chained day
    by day: (patterns, held), patterns keyed by DayRecord.key and held the
    read-only consumers x slots array of the reading the utility holds, row i
    for traces[i] from its first slot. Each slot of a consumers x slots array
    (short traces padded with NaN, which never sends) applies cat_decide to
    every consumer, so held repeats a shorter trace's last sent reading past
    its end (NaN for a trace of no days). With a policy, the slot's silent
    rows on days presence labels absent then go to policy(s, rows, bits,
    absent), where bits is the schedule so far (columns before s are final),
    absent is the consumers x slots mask of days labelled absent, and a true
    entry sends that row's current reading.
    """
    days = [(i, slice(d * len(day.readings), (d + 1) * len(day.readings)), day)
            for i, trace in enumerate(traces) for d, day in enumerate(trace.days())]
    width = max((len(t.readings) for t in traces), default=0)
    readings = np.full((len(traces), width), np.nan)
    absent = np.zeros(readings.shape, dtype=bool)
    for i, cols, day in days:
        readings[i, cols] = day.readings
        if policy is not None:
            absent[i, cols] = day.label_in(presence) is PresenceLabel.ABSENT
    bits = np.zeros(readings.shape, dtype=np.uint8)
    values, absent_at = readings.tolist(), absent.tolist()  # Python floats, as apply_cat uses
    last: list[float | None] = [None] * len(traces)
    for s in range(width):
        silent = []
        for i, row in enumerate(values):
            if last[i] is None or cat_decide(row[s], last[i], threshold_percent):
                bits[i, s] = 1
                last[i] = row[s]
            elif absent_at[i][s]:
                silent.append(i)
        if silent:
            rows = np.array(silent)
            for i in rows[policy(s, rows, bits, absent)]:
                bits[i, s] = 1
                last[i] = values[i][s]
    # The utility holds each consumer's reading from its latest sending slot.
    sent_at = np.maximum.accumulate(np.where(bits, np.arange(width), 0), axis=1)
    held = np.take_along_axis(readings, sent_at, axis=1)
    held.setflags(write=False)
    return {day.key: TransmissionPattern(bits=bits[i, cols]) for i, cols, day in days}, held


def patterns_for_traces(traces: list[ConsumptionTrace], config: CatConfig):
    """The undefended schedule of traces resampled to the config granularity;
    returns schedule's (patterns, held)."""
    working = [resample(t, config.granularity_minutes) for t in traces]
    return schedule(working, config.threshold_percent)


def efficiency(periodic_count: int, transmitted_count: int) -> float:
    """Share of readings saved versus always-transmit, in percent."""
    if periodic_count <= 0:
        raise ConfigError("periodic_count must be > 0")
    if not 0 <= transmitted_count <= periodic_count:
        raise ConfigError(
            f"transmitted_count {transmitted_count} outside [0, {periodic_count}]"
        )
    return (periodic_count - transmitted_count) / periodic_count * 100.0


def efficiency_table(
    traces: list[ConsumptionTrace],
    thresholds: list[float],
    rates: list[int],
) -> dict[tuple[int, float], float]:
    """Efficiency over the whole corpus for every (rate, threshold) pair.

    Keys of the result are (rate_minutes, threshold_percent).
    """
    table: dict[tuple[int, float], float] = {}
    for rate in rates:
        for threshold in thresholds:
            config = CatConfig(threshold_percent=threshold, granularity_minutes=rate)
            patterns, _ = patterns_for_traces(traces, config)
            total = sum(len(p.bits) for p in patterns.values())
            sent = sum(p.count() for p in patterns.values())
            table[(rate, threshold)] = efficiency(total, sent)
    return table


def aggregate_error_cdf(readings, held):
    """Empirical CDF of the per-slot aggregated reading error, in percent.

    readings and held are meters x slots arrays of the true readings and of
    the readings the utility holds, each column one slot of every meter.
    Error at a slot is (sum of true readings - sum of held readings) / sum
    of true x 100. Slots whose true aggregate is zero are skipped and counted.

    Returns (cdf_points, skipped) where cdf_points is a list of
    (error_percent, cumulative_probability) sorted by error.
    """
    truth, held = np.sum(readings, axis=0), np.sum(held, axis=0)
    counted = truth != 0.0
    errors = np.sort((truth - held)[counted] / truth[counted] * 100.0)
    n = errors.size
    cdf = list(zip(errors.tolist(), (np.arange(1, n + 1) / n).tolist()))
    return cdf, truth.size - n


def write_efficiency_csv(path, table: dict[tuple[int, float], float]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "rate", "efficiency"])
        for (rate, threshold) in sorted(table):
            writer.writerow([threshold, rate, f"{table[(rate, threshold)]:.6f}"])


def write_cdf_csv(path, cdf_points):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["error_percent", "cdf"])
        for err, p in cdf_points:
            writer.writerow([f"{err:.9f}", f"{p:.9f}"])
