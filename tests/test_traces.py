from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from amisim.data import (
    ConsumptionTrace,
    PresenceLabel,
    SyntheticConfig,
    format_day_key,
    ingest_csv,
    parse_day_key,
    resample,
    synthesize,
    write_traces_csv,
)
from amisim.errors import ConfigError, DataFormatError, ParseError


def test_day_key_text_round_trip():
    key = ("sm0001", "2016-01-02")
    assert format_day_key(key) == "sm0001|2016-01-02"
    assert parse_day_key(format_day_key(key)) == key
    assert parse_day_key("a|b|c") == ("a", "b|c")  # the date never holds "|"


def _write(tmp_path, text):
    p = tmp_path / "meters.csv"
    p.write_text(text)
    return p


def test_ingest_two_consumers_two_days(tmp_path):
    lines = ["consumer_id,timestamp_iso8601,kwh"]
    for sm in ("a", "b"):
        for day in ("2016-01-01", "2016-01-02"):
            for minute in range(1440):
                hh, mm = divmod(minute, 60)
                lines.append(f"{sm},{day}T{hh:02d}:{mm:02d}:00,0.005")
    traces = ingest_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    assert len(traces) == 2
    assert all(len(t.readings) == 2880 for t in traces)
    assert all(t.granularity_minutes == 1 for t in traces)


def test_ingest_empty_file(tmp_path):
    assert ingest_csv(_write(tmp_path, "consumer_id,timestamp_iso8601,kwh\n")) == []


def test_ingest_negative_kwh_names_line(tmp_path):
    text = (
        "consumer_id,timestamp_iso8601,kwh\n"
        "a,2016-01-01T00:00:00,0.005\n"
        "a,2016-01-01T00:01:00,-0.002\n"
    )
    with pytest.raises(ParseError) as exc:
        ingest_csv(_write(tmp_path, text))
    assert "line 3" in str(exc.value)


def test_ingest_mixed_utc_offsets_names_line(tmp_path):
    text = (
        "consumer_id,timestamp_iso8601,kwh\n"
        "a,2016-01-01T00:00:00+00:00,0.005\n"
        "a,2016-01-01T00:05:00,0.002\n"
    )
    with pytest.raises(ParseError) as exc:
        ingest_csv(_write(tmp_path, text))
    assert "line 3" in str(exc.value)


def test_ingest_forward_fills_gaps(tmp_path):
    lines = ["consumer_id,timestamp_iso8601,kwh"]
    minute = 0
    while minute < 2 * 1440:
        hh, mm = divmod(minute % 1440, 60)
        day = 1 + minute // 1440
        # Skip minutes 10..19 of the first day to create a gap.
        if not (10 <= minute < 20):
            lines.append(f"a,2016-01-{day:02d}T{hh:02d}:{mm:02d}:00,{0.001 * (minute % 7 + 1):.6f}")
        minute += 1
    traces = ingest_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    assert len(traces) == 1
    trace = traces[0]
    assert len(trace.readings) == 2880
    expected_carry = 0.001 * (9 % 7 + 1)
    assert np.allclose(trace.readings[10:20], expected_carry)


def test_ingest_partial_days_dropped(tmp_path):
    lines = ["consumer_id,timestamp_iso8601,kwh"]
    # Half of day 1, all of day 2, three slots of day 3, at 30-min granularity.
    for minute in range(720, 1440 + 1440 + 90, 30):
        day = 1 + minute // 1440
        hh, mm = divmod(minute % 1440, 60)
        lines.append(f"a,2016-01-{day:02d}T{hh:02d}:{mm:02d}:00,0.1")
    traces = ingest_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    assert len(traces) == 1
    assert traces[0].granularity_minutes == 30
    assert len(traces[0].readings) == 48
    assert traces[0].start_date.isoformat() == "2016-01-02"


def test_ingest_inconsistent_granularity(tmp_path):
    text = (
        "consumer_id,timestamp_iso8601,kwh\n"
        "a,2016-01-01T00:00:00,0.1\n"
        "a,2016-01-01T00:05:00,0.1\n"
        "a,2016-01-01T00:12:00,0.1\n"
    )
    with pytest.raises(DataFormatError):
        ingest_csv(_write(tmp_path, text))


def _stamps(first, step_minutes, count, offsets=None):
    """ISO timestamps from first at a fixed step; offsets[i] (hours) sets row i's UTC offset."""
    t0 = datetime.fromisoformat(first)
    stamps = [t0 + timedelta(minutes=step_minutes * i) for i in range(count)]
    if offsets:
        stamps = [t.astimezone(timezone(timedelta(hours=h))) for t, h in zip(stamps, offsets)]
    return [t.isoformat() for t in stamps]


def _csv(stamps, header="consumer_id,timestamp_iso8601,kwh"):
    rows = [f"a,{ts},{0.001 * (i % 7 + 1):.6f}" for i, ts in enumerate(stamps)]
    return "\n".join([header] + rows) + "\n"


# (CSV text, expected): a list of (consumer, start date, slot width, slots) per
# trace, or the (exception type, message fragment) that ingest_csv raises.
INGEST_CASES = {
    "first-row-at-30-seconds": (_csv(_stamps("2016-01-01T00:00:30", 30, 144)), []),
    "first-row-at-5-microseconds": (
        _csv(_stamps("2016-01-01T00:00:00.000005", 30, 100)), [("a", "2016-01-01", 30, 96)]
    ),
    # Midnight on the first row's +01:00 clock; on the later +02:00 clock the
    # first day would start at slot 46, on 2016-01-02.
    "offset-changes-mid-trace": (
        _csv(_stamps("2016-01-01T00:00:00+01:00", 30, 143, offsets=[1] * 48 + [2] * 95)),
        [("a", "2016-01-01", 30, 96)],
    ),
    "unsorted-rows": (
        _csv(_stamps("2016-01-01T00:05:00", 5, 1) + _stamps("2016-01-01T00:00:00", 5, 300)),
        (DataFormatError, "not sorted"),
    ),
    "repeated-timestamp": (
        _csv(_stamps("2016-01-01T00:00:00", 5, 3) + _stamps("2016-01-01T00:10:00", 5, 300)),
        (DataFormatError, "not sorted"),
    ),
    "single-row": (_csv(["2016-01-01T00:00:00"]), []),
    "7-minute-step": (
        _csv(_stamps("2016-01-01T00:00:00", 7, 500)), (DataFormatError, "granularity 7 min")
    ),
    "step-with-30-seconds": (
        _csv(_stamps("2016-01-01T00:00:00", 5.5, 500)), (DataFormatError, "not minute-aligned")
    ),
    "header-without-kwh": (
        _csv(_stamps("2016-01-01T00:00:00", 30, 96), header="consumer_id,timestamp_iso8601,kw"),
        (DataFormatError, "missing required columns"),
    ),
}


@pytest.mark.parametrize("case", list(INGEST_CASES))
def test_ingest_table(tmp_path, case):
    text, expected = INGEST_CASES[case]
    path = _write(tmp_path, text)
    if isinstance(expected, tuple):
        error, fragment = expected
        with pytest.raises(error, match=fragment):
            ingest_csv(path)
        return
    traces = ingest_csv(path)
    got = [(t.consumer_id, t.start_date.isoformat(), t.granularity_minutes, len(t.readings))
           for t in traces]
    assert got == expected


@pytest.mark.parametrize("minutes", [1, 5, 30])
def test_csv_round_trip_is_byte_identical(tmp_path, minutes):
    config = SyntheticConfig(consumer_count=2, day_count=3, rng_seed=minutes,
                             start_date=date(2016, 2, 28))
    traces, _ = synthesize(config)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_traces_csv(first, [resample(t, minutes) for t in traces])
    back = ingest_csv(first)
    write_traces_csv(second, back)
    assert [(t.consumer_id, t.start_date, t.day_count) for t in back] == [
        ("sm0000", date(2016, 2, 28), 3), ("sm0001", date(2016, 2, 28), 3)
    ]
    assert second.read_bytes() == first.read_bytes()


def test_csv_round_trip(tmp_path):
    traces, _ = synthesize(SyntheticConfig(consumer_count=2, day_count=1, rng_seed=3))
    path = tmp_path / "out.csv"
    write_traces_csv(path, traces)
    back = ingest_csv(path)
    assert len(back) == 2
    for a, b in zip(traces, back):
        assert a.consumer_id == b.consumer_id
        assert np.allclose(a.readings, b.readings, atol=1e-9)


def test_synthesize_deterministic():
    config = SyntheticConfig(consumer_count=3, day_count=2, rng_seed=42)
    traces1, truth1 = synthesize(config)
    traces2, truth2 = synthesize(config)
    assert truth1 == truth2
    for a, b in zip(traces1, traces2):
        assert a.readings.tobytes() == b.readings.tobytes()


def test_synthesize_absent_days_base_load_only():
    config = SyntheticConfig(
        consumer_count=2,
        day_count=6,
        rng_seed=7,
        event_rate_absent_per_hour=0.0,
        absence_probability=1.0,
    )
    traces, truth = synthesize(config)
    assert all(lab is PresenceLabel.ABSENT for lab in truth.values())
    for trace in traces:
        sd = trace.readings.std()
        assert sd < 3 * config.base_load_sd_kwh
        assert abs(trace.readings.mean() - config.base_load_mean_kwh) < config.base_load_sd_kwh


def test_synthesize_rejects_bad_config():
    with pytest.raises(ConfigError):
        SyntheticConfig(consumer_count=0, day_count=5, rng_seed=1)
    with pytest.raises(ConfigError):
        SyntheticConfig(consumer_count=1, day_count=5, rng_seed=1, absence_probability=1.5)


def test_synthesize_cat_counts_linearly_separable():
    # Present days generate far more change-triggered transmissions than
    # absent days; a 1-D threshold on the daily count should split them.
    from amisim.cat import CatConfig, patterns_for_traces

    config = SyntheticConfig(
        consumer_count=12,
        day_count=30,
        rng_seed=11,
        event_rate_present_per_hour=4.0,
        event_rate_absent_per_hour=0.2,
        absence_probability=0.4,
    )
    traces, truth = synthesize(config)
    patterns, _ = patterns_for_traces(
        traces, CatConfig(threshold_percent=10.0, granularity_minutes=5)
    )
    counts, labels = [], []
    for key, pattern in patterns.items():
        counts.append(pattern.count())
        labels.append(truth[key] is PresenceLabel.ABSENT)
    counts = np.array(counts)
    labels = np.array(labels)
    best = max(
        (np.mean((counts < thr) == labels) for thr in np.unique(counts)),
        default=0.0,
    )
    assert best >= 0.90


def test_resample_sums_blocks():
    trace = ConsumptionTrace(
        consumer_id="a",
        start_date=__import__("datetime").date(2016, 1, 1),
        granularity_minutes=1,
        readings=np.tile([1.0, 2.0, 3.0, 4.0, 5.0], 288),
    )
    out = resample(trace, 5)
    assert out.granularity_minutes == 5
    assert np.allclose(out.readings, 15.0)


def test_resample_identity_and_energy():
    traces, _ = synthesize(SyntheticConfig(consumer_count=1, day_count=2, rng_seed=5))
    trace = traces[0]
    assert resample(trace, 1) is trace
    for target in (5, 15, 30):
        out = resample(trace, target)
        assert np.isclose(out.readings.sum(), trace.readings.sum(), rtol=0, atol=1e-9)


def test_resample_rejects_bad_target():
    traces, _ = synthesize(SyntheticConfig(consumer_count=1, day_count=1, rng_seed=5))
    coarse = resample(traces[0], 30)
    with pytest.raises(ConfigError):
        resample(coarse, 15)  # finer than source
    with pytest.raises(ConfigError):
        resample(traces[0], 7)  # does not divide 1440 into valid slots
