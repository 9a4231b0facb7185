"""Seeded household corpora for the workloads.

Every corpus comes from amisim's own synthetic household generator. The
share of absent days is fixed rather than drawn, because a defended absent
day costs about ten times the inference of a present one: with the share
left to chance, the work in a round would vary by seed far more than the
machine's own timing noise does.
"""

from datetime import date

import numpy as np

import amisim.data
from amisim.data import ConsumptionTrace, PresenceLabel, SyntheticConfig

# The acceptance suite's learning-corpus settings (minus size, seed and
# absence share): sparse, regular appliance sessions, no daily rhythm.
CHAIN_HOUSEHOLDS = dict(
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

START = date(2016, 1, 1)


def dates(days):
    """ISO dates of a corpus's days, as its truth and pattern keys use them."""
    return [date.fromordinal(START.toordinal() + d).isoformat() for d in range(days)]


def households(seed, meters, days, absent_per_day, settings=None):
    """Return (traces, truth) with exactly `absent_per_day` absent meters a day.

    Each meter is synthesized twice from one seed, once always present and
    once always absent, so both versions share the household's appliance
    rhythm; each day then takes the absent version for a seeded choice of
    meters. Meters take their absent days in turn, so a meter is absent on
    at most ceil(days * absent_per_day / meters) days.
    """
    if not 0 <= absent_per_day <= meters:
        raise ValueError("absent_per_day must lie in [0, meters]")
    settings = dict(settings or {})
    settings.pop("absence_probability", None)
    rng = np.random.default_rng([seed, meters, days, absent_per_day])
    meter_seeds = rng.integers(2**31, size=meters)
    rotation = rng.permutation(meters)
    versions = []
    for meter_seed in meter_seeds:
        pair = []
        for share in (0.0, 1.0):
            config = SyntheticConfig(
                consumer_count=1,
                day_count=days,
                rng_seed=int(meter_seed),
                absence_probability=share,
                **settings,
            )
            (trace,), _ = amisim.data.synthesize(config)
            pair.append(trace.readings.reshape(days, -1))
        versions.append(pair)

    absent = np.zeros((meters, days), dtype=bool)
    for d in range(days):
        for j in range(absent_per_day):
            absent[rotation[(d * absent_per_day + j) % meters], d] = True

    traces, truth = [], {}
    for m in range(meters):
        consumer = f"sm{m:04d}"
        present_days, absent_days = versions[m]
        rows = [absent_days[d] if absent[m, d] else present_days[d] for d in range(days)]
        traces.append(
            ConsumptionTrace(
                consumer_id=consumer,
                start_date=START,
                granularity_minutes=1,
                readings=np.concatenate(rows),
            )
        )
        for d, iso in enumerate(dates(days)):
            label = PresenceLabel.ABSENT if absent[m, d] else PresenceLabel.PRESENT
            truth[(consumer, iso)] = label
    return traces, truth
