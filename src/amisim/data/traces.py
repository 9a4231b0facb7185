"""Consumption traces: domain types, CSV ingestion, synthesis, resampling.

A trace is one consumer's kWh-per-slot series at a fixed granularity,
always covering whole days. Slot 0 of a day starts at midnight; a slot's
reading is the energy consumed during that slot.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from enum import Enum

import numpy as np

from amisim.errors import ConfigError, DataFormatError, ParseError

MINUTES_PER_DAY = 1440
VALID_GRANULARITIES = (1, 5, 15, 30)


def slots_per_day(granularity_minutes: int) -> int:
    return MINUTES_PER_DAY // granularity_minutes


class PresenceLabel(Enum):
    PRESENT = "present"
    ABSENT = "absent"


class Split(Enum):
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True)
class ConsumptionTrace:
    """Per-consumer kWh series at fixed granularity, whole days only."""

    consumer_id: str
    start_date: date
    granularity_minutes: int
    readings: np.ndarray

    def __post_init__(self):
        if self.granularity_minutes not in VALID_GRANULARITIES:
            raise ConfigError(
                f"granularity must be one of {VALID_GRANULARITIES}, "
                f"got {self.granularity_minutes}"
            )
        readings = np.asarray(self.readings, dtype=np.float64)
        readings.setflags(write=False)
        object.__setattr__(self, "readings", readings)
        spd = slots_per_day(self.granularity_minutes)
        if readings.ndim != 1 or len(readings) % spd != 0:
            raise DataFormatError(
                f"trace {self.consumer_id}: {len(readings)} readings is not a "
                f"whole number of {spd}-slot days"
            )
        if not np.all(np.isfinite(readings)) or np.any(readings < 0):
            raise DataFormatError(
                f"trace {self.consumer_id}: readings must be finite and >= 0"
            )

    @property
    def day_count(self) -> int:
        return len(self.readings) // slots_per_day(self.granularity_minutes)

    def days(self) -> list["DayRecord"]:
        """Slice the trace into per-day records."""
        spd = slots_per_day(self.granularity_minutes)
        out = []
        for d in range(self.day_count):
            out.append(
                DayRecord(
                    consumer_id=self.consumer_id,
                    date=self.start_date + timedelta(days=d),
                    readings=self.readings[d * spd : (d + 1) * spd],
                )
            )
        return out


@dataclass(frozen=True)
class DayRecord:
    """One consumer-day of readings; length fixes the granularity."""

    consumer_id: str
    date: date
    readings: np.ndarray

    def __post_init__(self):
        readings = np.asarray(self.readings, dtype=np.float64)
        readings.setflags(write=False)
        object.__setattr__(self, "readings", readings)
        if not isinstance(self.consumer_id, str):
            raise DataFormatError(f"consumer id {self.consumer_id!r} is not a string")
        if len(readings) == 0 or MINUTES_PER_DAY % len(readings) != 0:
            raise DataFormatError(
                f"day record of {len(readings)} slots does not cover 24h evenly"
            )

    @property
    def granularity_minutes(self) -> int:
        return MINUTES_PER_DAY // len(self.readings)

    @property
    def key(self) -> tuple[str, str]:
        """(consumer_id, ISO date): this day's key in pattern and label dicts."""
        return (self.consumer_id, self.date.isoformat())

    def label_in(self, labels: dict) -> PresenceLabel:
        """This day's presence label in labels; a day with none is a data error."""
        if self.key not in labels:
            raise DataFormatError(f"no presence label for {self.key}")
        return labels[self.key]


def format_day_key(key: tuple[str, str]) -> str:
    """A day key (consumer_id, ISO date) as its "consumer|date" text in JSON files."""
    consumer, day = key
    return f"{consumer}|{day}"


def parse_day_key(text: str) -> tuple[str, ...]:
    """The day key that format_day_key wrote as text."""
    return tuple(text.split("|", 1))


@dataclass(frozen=True)
class LabeledRecord:
    day: DayRecord
    label: PresenceLabel
    split: Split


@dataclass(frozen=True)
class LabeledDataset:
    records: tuple[LabeledRecord, ...]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("consumer_id", "timestamp_iso8601", "kwh")


def ingest_csv(path) -> list[ConsumptionTrace]:
    """Read per-consumer traces from a long-format CSV (README.md gives its rules):
    gaps repeat the previous reading, and only whole days are kept.
    """
    rows_by_consumer: dict[str, tuple[list[datetime], list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        try:
            c_idx, t_idx, k_idx = (header.index(col) for col in CSV_COLUMNS)
        except ValueError:
            raise DataFormatError(
                f"missing required columns {','.join(CSV_COLUMNS)} in header {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(c_idx, t_idx, k_idx):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
            consumer = row[c_idx].strip()
            if not consumer:
                raise ParseError("empty consumer id", lineno)
            try:
                ts = datetime.fromisoformat(row[t_idx].strip())
            except ValueError:
                raise ParseError(f"bad timestamp {row[t_idx]!r}", lineno)
            try:
                kwh = float(row[k_idx])
            except ValueError:
                raise ParseError(f"bad kWh value {row[k_idx]!r}", lineno)
            if not math.isfinite(kwh) or kwh < 0:
                raise ParseError(f"kWh must be finite and >= 0, got {row[k_idx]}", lineno)
            times, kwhs = rows_by_consumer.setdefault(consumer, ([], []))
            if times and (ts.tzinfo is None) != (times[0].tzinfo is None):
                raise ParseError(
                    f"consumer {consumer}: timestamps with and without a UTC offset", lineno
                )
            times.append(ts)
            kwhs.append(kwh)
    traces = (_rows_to_trace(c, *rows) for c, rows in rows_by_consumer.items() if len(rows[0]) > 1)
    return [trace for trace in traces if trace is not None]


def _rows_to_trace(consumer: str, times: list[datetime], kwhs: list[float]):
    """Two or more rows of one consumer as its whole days, or None if it has none."""
    gaps = np.array([b - a for a, b in zip(times, times[1:])], dtype="timedelta64[us]")
    if np.any(gaps <= np.timedelta64(0)):
        raise DataFormatError(f"consumer {consumer}: rows not sorted by timestamp")
    steps, rest = np.divmod(gaps, np.timedelta64(1, "m"))
    if rest.any():
        raise DataFormatError(f"consumer {consumer}: timestamps not minute-aligned")
    gran = int(steps.min())
    if gran not in VALID_GRANULARITIES:
        raise DataFormatError(
            f"consumer {consumer}: inferred granularity {gran} min not in {VALID_GRANULARITIES}"
        )
    if np.any(steps % gran):
        raise DataFormatError(f"consumer {consumer}: inconsistent slot widths")
    # A slot with no row repeats the last reading. Days are cut at midnight on
    # the first row's wall clock; with non-zero seconds no slot starts there.
    values = np.repeat(kwhs, np.append(steps // gran, 1))
    t0, spd = times[0], slots_per_day(gran)
    clock = t0.hour * 60 + t0.minute
    start = (-clock % MINUTES_PER_DAY) // gran
    full_days = (len(values) - start) // spd
    if t0.second or clock % gran or full_days <= 0:
        return None
    start_date = (t0 + timedelta(minutes=start * gran)).date()
    return ConsumptionTrace(consumer, start_date, gran, values[start : start + full_days * spd])


def write_traces_csv(path, traces: list[ConsumptionTrace]):
    """Inverse of ingest_csv for round-tripping synthesized corpora."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for trace in traces:
            minutes = trace.granularity_minutes * np.arange(len(trace.readings))
            stamps = np.datetime_as_string(np.datetime64(trace.start_date, "m") + minutes, unit="s")
            kwhs = ["%.9f" % kwh for kwh in trace.readings.tolist()]
            writer.writerows(zip([trace.consumer_id] * len(kwhs), stamps, kwhs))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

# Hourly multiplier on the appliance-session rate for occupied days:
# quiet overnight, busy morning and evening. Mean is 1 by construction.
_OCCUPIED_HOURLY_ACTIVITY = np.array(
    [0.3, 0.2, 0.2, 0.2, 0.3, 0.5, 1.2, 1.6, 1.4, 1.0, 0.9, 1.0,
     1.1, 0.9, 0.8, 0.9, 1.2, 1.6, 1.9, 1.9, 1.7, 1.4, 0.9, 0.5]
)
_OCCUPIED_HOURLY_ACTIVITY = _OCCUPIED_HOURLY_ACTIVITY / _OCCUPIED_HOURLY_ACTIVITY.mean()


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for a stand-in residential corpus (1-min slots).

    Appliance activity is modeled as sessions with a regular-ish cadence
    (think duty-cycled appliances and routine habits): session starts are
    spaced by jittered gaps around the configured rate, and consumption
    inside a session fluctuates strongly enough to keep change-triggered
    reporting active.
    """

    consumer_count: int
    day_count: int
    rng_seed: int
    base_load_mean_kwh: float = 0.005
    base_load_sd_kwh: float = 0.00015
    event_rate_present_per_hour: float = 4.0
    event_rate_absent_per_hour: float = 0.3
    event_magnitude_mean_kwh: float = 0.02
    event_magnitude_sd_kwh: float = 0.008
    absence_probability: float = 0.3
    event_duration_minutes: float = 8.0
    event_duration_jitter: float = 0.25
    event_gap_jitter: float = 0.25
    activity_jitter: float = 0.35
    jitter_block_minutes: int = 5
    consumer_rate_spread: float = 0.0
    consumer_duration_spread: float = 0.0
    diurnal_activity: bool = True
    start_date: date = date(2016, 1, 1)

    def __post_init__(self):
        if self.consumer_count < 1 or self.day_count < 1:
            raise ConfigError("consumer_count and day_count must be >= 1")
        if self.event_rate_present_per_hour < 0 or self.event_rate_absent_per_hour < 0:
            raise ConfigError("event rates must be >= 0")
        if not 0.0 <= self.absence_probability <= 1.0:
            raise ConfigError("absence_probability must be in [0, 1]")
        if self.base_load_mean_kwh <= 0:
            raise ConfigError("base_load_mean_kwh must be > 0")
        for name in ("event_duration_minutes", "event_duration_jitter", "event_gap_jitter"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        # A spread above 1 can make a household's event rate or mean event
        # duration negative.
        for name in ("consumer_rate_spread", "consumer_duration_spread"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")


def synthesize(config: SyntheticConfig):
    """Generate 1-min traces plus the ground-truth presence map.

    Returns (traces, truth) where truth maps (consumer_id, ISO date) to a
    PresenceLabel. Identical config (same seed) reproduces byte-identical
    readings.
    """
    rng = np.random.default_rng(config.rng_seed)
    traces = []
    truth: dict[tuple[str, str], PresenceLabel] = {}
    for c in range(config.consumer_count):
        consumer_id = f"sm{c:04d}"
        # Each household gets its own appliance rhythm.
        rate_mult = 1.0 + config.consumer_rate_spread * float(rng.uniform(-1, 1))
        dur_mult = 1.0 + config.consumer_duration_spread * float(rng.uniform(-1, 1))
        day_arrays = []
        for d in range(config.day_count):
            absent = rng.random() < config.absence_probability
            day = config.start_date + timedelta(days=d)
            truth[(consumer_id, day.isoformat())] = (
                PresenceLabel.ABSENT if absent else PresenceLabel.PRESENT
            )
            day_arrays.append(_synth_day(config, rng, absent, rate_mult, dur_mult))
        traces.append(
            ConsumptionTrace(
                consumer_id=consumer_id,
                start_date=config.start_date,
                granularity_minutes=1,
                readings=np.concatenate(day_arrays),
            )
        )
    return traces, truth


def _synth_day(
    config: SyntheticConfig, rng, absent: bool,
    rate_mult: float = 1.0, dur_mult: float = 1.0,
) -> np.ndarray:
    minutes = MINUTES_PER_DAY
    base = config.base_load_mean_kwh + config.base_load_sd_kwh * rng.standard_normal(minutes)
    readings = np.maximum(base, config.base_load_mean_kwh * 0.01)

    rate = (
        config.event_rate_absent_per_hour if absent else config.event_rate_present_per_hour
    )
    rate *= rate_mult
    mean_duration = config.event_duration_minutes * dur_mult
    if rate <= 0:
        return readings

    # 60/rate is the mean start-to-start period; the post-session gap is
    # whatever remains after the session itself.
    mean_period = 60.0 / rate
    mean_gap = max(1.0, mean_period - mean_duration)
    t = float(rng.uniform(0, mean_period))
    while t < minutes:
        hour = int(t // 60) % 24
        local_gap = mean_gap
        if config.diurnal_activity and not absent:
            local_gap = max(1.0, mean_period / _OCCUPIED_HOURLY_ACTIVITY[hour]
                            - mean_duration)
        duration = max(
            2.0,
            rng.normal(
                mean_duration,
                config.event_duration_jitter * mean_duration,
            ),
        )
        magnitude = abs(
            rng.normal(config.event_magnitude_mean_kwh, config.event_magnitude_sd_kwh)
        )
        magnitude = max(magnitude, 0.25 * config.event_magnitude_mean_kwh)
        lo = int(t)
        hi = min(minutes, int(t + duration))
        if hi > lo:
            # Appliances step between power levels every few minutes rather
            # than fluctuating per minute, so in-session jitter is drawn per
            # block; this keeps the level changes visible after resampling.
            block = max(1, config.jitter_block_minutes)
            n_blocks = -(-(hi - lo) // block)
            steps = 1.0 + config.activity_jitter * rng.standard_normal(n_blocks)
            jitter = np.repeat(steps, block)[: hi - lo]
            readings[lo:hi] += magnitude * np.maximum(jitter, 0.05)
        gap = max(1.0, rng.normal(local_gap, config.event_gap_jitter * local_gap))
        t = t + duration + gap
    return readings


def traces_from_day_records(days: list[DayRecord]) -> list[ConsumptionTrace]:
    """Reassemble contiguous per-day records into whole traces.

    Records are grouped by consumer and must form an unbroken run of
    calendar days at one granularity.
    """
    by_consumer: dict[str, list[DayRecord]] = {}
    for day in days:
        by_consumer.setdefault(day.consumer_id, []).append(day)
    traces = []
    for consumer in sorted(by_consumer):
        recs = sorted(by_consumer[consumer], key=lambda r: r.date)
        for a, b in zip(recs, recs[1:]):
            if (b.date - a.date).days != 1:
                raise DataFormatError(
                    f"consumer {consumer}: days {a.date} and {b.date} not contiguous"
                )
        gran = recs[0].granularity_minutes
        if any(r.granularity_minutes != gran for r in recs):
            raise DataFormatError(f"consumer {consumer}: mixed granularities")
        traces.append(
            ConsumptionTrace(
                consumer_id=consumer,
                start_date=recs[0].date,
                granularity_minutes=gran,
                readings=np.concatenate([r.readings for r in recs]),
            )
        )
    return traces


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def resample(trace: ConsumptionTrace, target_minutes: int) -> ConsumptionTrace:
    """Re-bin a trace to a coarser granularity by summing covered slots.

    Readings are energies, so aggregation is a plain sum and total daily
    energy is preserved exactly.
    """
    src = trace.granularity_minutes
    if target_minutes <= 0 or target_minutes % src != 0:
        raise ConfigError(
            f"target {target_minutes} min must be a positive multiple of {src} min"
        )
    if MINUTES_PER_DAY % target_minutes != 0:
        raise ConfigError(f"target {target_minutes} min must divide 1440")
    if target_minutes == src:
        return trace
    factor = target_minutes // src
    summed = trace.readings.reshape(-1, factor).sum(axis=1)
    return ConsumptionTrace(
        consumer_id=trace.consumer_id,
        start_date=trace.start_date,
        granularity_minutes=target_minutes,
        readings=summed,
    )
