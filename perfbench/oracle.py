"""Reference checks that do not call amisim.cat.

The benchmark decides what a correct run looks like with its own scalar
change-and-transmit loop and its own aggregate arithmetic, written from the
rule itself: a meter sends when its reading moved by strictly more than the
threshold percentage of the last reading it sent (any positive reading after
a zero), and the utility's decrypted total for a slot is the sum of every
meter's last sent reading in whole watt-hours.
"""

import numpy as np

WH_PER_KWH = 1000


def rebin(readings, minutes):
    """Sum 1-min energies into `minutes`-long slots."""
    return np.asarray(readings, dtype=np.float64).reshape(-1, minutes).sum(axis=1)


def changed(current, last, threshold_percent):
    if last == 0.0:
        return current > 0.0
    return abs(current - last) / last * 100.0 > threshold_percent


def encode(kwh):
    return round(kwh * WH_PER_KWH)


def cat_bits(readings, threshold_percent):
    """Change-and-transmit send bits for one meter; the first slot always sends."""
    bits = []
    last = None
    for current in readings:
        current = float(current)
        send = last is None or changed(current, last, threshold_percent)
        bits.append(1 if send else 0)
        if send:
            last = current
    return bits


def slot_totals(readings, bits):
    """Expected decrypted total per slot, given each meter's send bits.

    readings and bits are [meter][slot]; a meter that has not sent yet adds 0.
    """
    slots = len(bits[0])
    totals = [0] * slots
    for meter_readings, meter_bits in zip(readings, bits):
        held = 0
        for t in range(slots):
            if meter_bits[t]:
                held = encode(float(meter_readings[t]))
            totals[t] += held
    return totals


def defended_slot_faults(readings, bits, absent, threshold_percent):
    """Slots where one meter's send bits break the defended-collection rules.

    readings and bits are one meter's whole run, absent[t] says whether
    slot t lies on an absent day. A silent slot must sit within the
    threshold of the last sent reading; on a present day a slot sends
    exactly when the change rule says so; a send the change rule does not
    call for (a spoof) may happen only on an absent day.
    """
    faults = set()
    last = None
    for t, current in enumerate(readings):
        current = float(current)
        due = last is None or changed(current, last, threshold_percent)
        if bits[t]:
            if not due and not absent[t]:
                faults.add(t)
            last = current
        elif due:
            faults.add(t)
    return faults
