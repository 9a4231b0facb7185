"""Change-and-transmit reporting: decision rule, pattern/EU-view derivation,
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


@dataclass(frozen=True)
class EuView:
    """Per-slot reading the utility effectively holds after suppression."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def cat_decide(current: float, last_reported: float, threshold_percent: float) -> bool:
    """True when the reading changed enough (strictly) to be worth sending.

    With a zero baseline the percentage change is undefined; any positive
    consumption then transmits.
    """
    if last_reported == 0.0:
        return current > 0.0
    return abs(current - last_reported) / last_reported * 100.0 > threshold_percent


def apply_cat(day: DayRecord, config: CatConfig, initial_last: float | None = None):
    """Run CAT over one day; returns (pattern, eu_view, final_last).

    initial_last is the last reported reading carried in from the previous
    day; None means this is the first-ever slot, which always transmits.
    final_last feeds the next day's call so state chains across days.
    """
    readings = day.readings
    bits = np.zeros(len(readings), dtype=np.uint8)
    values = np.empty(len(readings), dtype=np.float64)
    last = initial_last
    for t, current in enumerate(readings):
        current = float(current)
        if last is None or cat_decide(current, last, config.threshold_percent):
            bits[t] = 1
            last = current
        values[t] = last
    return TransmissionPattern(bits=bits), EuView(values=values), last


def schedule(traces: list[ConsumptionTrace], threshold_percent: float,
             presence: dict | None = None, policy=None):
    """The CAT schedule of every consumer-day: (patterns, eu_views) keyed by
    DayRecord.key, equal to apply_cat chained day by day. Each slot of a
    consumers x slots array (short traces padded with NaN, which never sends)
    applies cat_decide to every consumer; with a policy, the slot's silent
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
    patterns = {day.key: TransmissionPattern(bits=bits[i, cols]) for i, cols, day in days}
    eu_views = {day.key: EuView(values=held[i, cols]) for i, cols, day in days}
    return patterns, eu_views


def patterns_for_traces(traces: list[ConsumptionTrace], config: CatConfig):
    """The undefended schedule of traces resampled to the config granularity;
    returns (patterns, eu_views) keyed by (consumer_id, ISO date)."""
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


def aggregate_error_cdf(day_records, eu_views):
    """Empirical CDF of the per-slot aggregated reading error, in percent.

    day_records and eu_views are parallel dicts keyed by (consumer, date);
    slots are aligned by date across consumers. Error at a slot is
    (sum of true readings - sum of EU-view readings) / sum of true x 100.
    Slots whose true aggregate is zero are skipped and counted.

    Returns (cdf_points, skipped) where cdf_points is a list of
    (error_percent, cumulative_probability) sorted by error.
    """
    by_date: dict[str, list] = {}
    for key, day in day_records.items():
        by_date.setdefault(key[1], []).append((day, eu_views[key]))

    truth, held = [np.zeros(0)], [np.zeros(0)]  # concatenate needs one array
    for date_iso in sorted(by_date):
        pairs = by_date[date_iso]
        truth.append(np.sum([d.readings for d, _ in pairs], axis=0))
        held.append(np.sum([v.values for _, v in pairs], axis=0))
    truth, held = np.concatenate(truth), np.concatenate(held)
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
