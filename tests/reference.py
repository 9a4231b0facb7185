"""Per-slot references the tests compare the program's batched code with.

The program runs the defense as one corpus schedule
(amisim.defense.simulate_corpus) and the defense-aware attacker as the
CLI's threeclass_sets -> train_threeclass -> evaluate_threeclass sequence.
The definitions here are the plain forms of both: a ring-buffer memory and
a slot-by-slot day loop that calls defense_decide, and the attack as one
function. pytest does not collect this module; tests import from it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from amisim.attacker import (
    KnownDefenseReport,
    evaluate_threeclass,
    threeclass_sets,
    train_threeclass,
)
from amisim.cat import CatConfig, EuView, TransmissionPattern, cat_decide
from amisim.data.traces import DayRecord, PresenceLabel
from amisim.defense import DefenseBundle, defense_decide
from amisim.errors import ConfigError, ProtocolError
from amisim.nn import TrainConfig


class DefenseState:
    """Ring buffer of the last n transmission decisions."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigError("memory size must be >= 1")
        self.n = n
        self._bits: deque[int] = deque(maxlen=n)

    def push(self, bit: int):
        self._bits.append(1 if bit else 0)

    def seed(self, bits):
        """Pre-fill with a history; keeps only the trailing n bits."""
        for b in np.asarray(bits).ravel()[-self.n :]:
            self.push(int(b))

    @property
    def ready(self) -> bool:
        return len(self._bits) == self.n

    def window(self) -> np.ndarray:
        if not self.ready:
            raise ProtocolError(
                f"defense memory holds {len(self._bits)}/{self.n} decisions"
            )
        return np.array(self._bits, dtype=np.float64)


def simulate_day(
    day: DayRecord,
    presence: PresenceLabel,
    cat: CatConfig,
    bundle: DefenseBundle | None,
    state: DefenseState | None,
    last_reported: float | None,
):
    """One consumer-day under CAT plus (optionally) the spoofing defense.

    Per slot: a change-triggered transmission always goes out; otherwise,
    on an absent day with a defense attached, the predictor may fire a
    redundant transmission of the current actual reading. Every decision
    is pushed into the memory. Returns (pattern, eu_view, last_reported).
    """
    readings = day.readings
    bits = np.zeros(len(readings), dtype=np.uint8)
    values = np.empty(len(readings), dtype=np.float64)
    last = last_reported
    use_defense = (
        bundle is not None and state is not None and presence is PresenceLabel.ABSENT
    )
    for t, current in enumerate(readings):
        current = float(current)
        transmit = last is None or cat_decide(current, last, cat.threshold_percent)
        if not transmit and use_defense and defense_decide(state, bundle):
            transmit = True
        if transmit:
            bits[t] = 1
            last = current
        values[t] = last
        if state is not None:
            state.push(int(bits[t]))
    return TransmissionPattern(bits=bits), EuView(values=values), last


def known_defense_attack(
    bundle: DefenseBundle,
    traces,
    presence,
    cat: CatConfig,
    rate: str,
    train_keys,
    test_keys,
    config: TrainConfig,
) -> KnownDefenseReport:
    """Train and evaluate the defense-aware 3-class attacker.

    The attacker regenerates spoofing patterns by running the known defense
    over the absent days, trains on {present, absent, spoofing}, and at test
    time flags a day as unoccupied when it predicts absent OR spoofing.
    train_keys/test_keys are (consumer_id, ISO date) partitions of the corpus.
    """
    tr, te = threeclass_sets(bundle, traces, presence, cat, train_keys, test_keys)
    spec, params, _ = train_threeclass(rate, *tr, config=config)
    return evaluate_threeclass(spec, params, *te)
