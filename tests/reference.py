"""Per-step references the tests compare the program's batched code with.

The program runs the defense as one corpus schedule
(amisim.defense.simulate_corpus), the defense-aware attacker as the CLI's
threeclass_sets -> train_threeclass -> evaluate_threeclass sequence, a GRU
layer as one folded scan over the whole batch, the prime test with a
small-factor gcd before Miller-Rabin, bn254 point addition and scalar
multiplication in Jacobian coordinates and a bn254 pairing product as one
Miller loop over lines prepared once per G2 point. The definitions here
are the plain forms: a ring-buffer memory and a slot-by-slot day loop that
calls defense_decide, the attack as one function, the textbook GRU step,
plain Miller-Rabin, the affine addition and doubling laws with
double-and-add over them, and one Miller loop per pair, which computes
each line and each step of R with its own inversion. pytest does not collect
this module; tests import from it.
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
from amisim.cat import CatConfig, TransmissionPattern, cat_decide
from amisim.crypto.bn254 import (
    _FQ2_OPS,
    ATE_LOOP_COUNT,
    FQ12_ONE,
    LOG_ATE_LOOP_COUNT,
    P,
    _frobenius,
    _pt_neg,
    fq2_inv,
    fq2_mul,
    fq2_scalar,
    fq2_sub,
    fq12_mul,
)
from amisim.crypto.paillier import _SMALL_PRIMES, MILLER_RABIN_ROUNDS
from amisim.data.traces import DayRecord, PresenceLabel
from amisim.defense import DefenseBundle, defense_decide
from amisim.errors import ConfigError, ProtocolError
from amisim.nn import TrainConfig, sigmoid


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
    is pushed into the memory. Returns (pattern, held, last_reported), held
    the read-only per-slot reading the utility holds.
    """
    readings = day.readings
    bits = np.zeros(len(readings), dtype=np.uint8)
    held = np.empty(len(readings), dtype=np.float64)
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
        held[t] = last
        if state is not None:
            state.push(int(bits[t]))
    held.setflags(write=False)
    return TransmissionPattern(bits=bits), held, last


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


def gru_step(weights, x_t, h_prev):
    """One GRU recurrence step (Cho et al., 2014); returns the next state.

    Update gate z and reset gate r are sigmoids of the joined [x, h] input;
    the candidate state uses the reset-scaled hidden state, and z blends the
    candidate into the carried state.
    """
    xh = np.concatenate([x_t, h_prev], axis=1)
    z = sigmoid(xh @ weights["Wz"] + weights["bz"])
    r = sigmoid(xh @ weights["Wr"] + weights["br"])
    xrh = np.concatenate([x_t, r * h_prev], axis=1)
    h_cand = np.tanh(xrh @ weights["Wh"] + weights["bh"])
    return (1.0 - z) * h_prev + z * h_cand


def is_probable_prime(n: int, rng) -> bool:
    """Trial division by the small primes, then MILLER_RABIN_ROUNDS rounds
    of Miller-Rabin with bases drawn from rng."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def pt_double(pt, ops):
    """2 pt in affine coordinates, one inversion; None is the identity."""
    if pt is None:
        return None
    x, y = pt
    if y == ops.zero:
        return None
    slope = ops.mul(ops.scalar(ops.mul(x, x), 3), ops.inv(ops.scalar(y, 2)))
    nx = ops.sub(ops.mul(slope, slope), ops.scalar(x, 2))
    ny = ops.sub(ops.mul(slope, ops.sub(x, nx)), y)
    return (nx, ny)


def pt_add(p1, p2, ops):
    """p1 + p2 in affine coordinates, one inversion; None is the identity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == y2:
            return pt_double(p1, ops)
        return None
    slope = ops.mul(ops.sub(y2, y1), ops.inv(ops.sub(x2, x1)))
    nx = ops.sub(ops.sub(ops.mul(slope, slope), x1), x2)
    ny = ops.sub(ops.mul(slope, ops.sub(x1, nx)), y1)
    return (nx, ny)


def pt_mul(pt, k, ops):
    """k * pt by right-to-left double-and-add in affine coordinates."""
    result = None
    addend = pt
    while k:
        if k & 1:
            result = pt_add(result, addend, ops)
        addend = pt_double(addend, ops)
        k >>= 1
    return result


def _line(r, t, p):
    """Value at the G1 point p of the untwisted line through twist points r
    and t (the tangent at r when r == t), as a sparse Fp12 element."""
    (x1, y1), (x2, y2) = r, t
    xp, yp = p
    if x1 != x2:
        slope = fq2_mul(fq2_sub(y2, y1), fq2_inv(fq2_sub(x2, x1)))
    elif y1 == y2:
        slope = fq2_mul(fq2_scalar(fq2_mul(x1, x1), 3), fq2_inv(fq2_scalar(y1, 2)))
    else:
        # Vertical line: x_P - x1 w^2.
        a, b = x1
        return (xp % P, 0, (9 * b - a) % P, 0, 0, 0, 0, 0, -b % P, 0, 0, 0)
    # -y_P + (lambda x_P) w + (y1 - lambda x1) w^3
    l0, l1 = fq2_scalar(slope, xp)
    c0, c1 = fq2_sub(y1, fq2_mul(slope, x1))
    return (-yp % P, (l0 - 9 * l1) % P, 0, (c0 - 9 * c1) % P, 0, 0, 0, l1, 0, c1, 0, 0)


def miller_loop(q, p):
    """Miller loop over the G2 point q (on the twist) and the G1 point p,
    before the final exponentiation."""
    if q is None or p is None:
        return FQ12_ONE
    r = q
    f = FQ12_ONE
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = fq12_mul(fq12_mul(f, f), _line(r, r, p))
        r = pt_double(r, _FQ2_OPS)
        if ATE_LOOP_COUNT & (2**i):
            f = fq12_mul(f, _line(r, q, p))
            r = pt_add(r, q, _FQ2_OPS)
    q1 = _frobenius(q)
    nq2 = _pt_neg(_frobenius(q1), _FQ2_OPS)
    f = fq12_mul(f, _line(r, q1, p))
    r = pt_add(r, q1, _FQ2_OPS)
    return fq12_mul(f, _line(r, nq2, p))


def miller_loop_product(pairs):
    """The product of one Miller loop per (G1Point, G2Point) pair."""
    f = FQ12_ONE
    for a, b in pairs:
        f = fq12_mul(f, miller_loop(b.point, a.point))
    return f
