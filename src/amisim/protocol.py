"""End-to-end encrypted reading collection over change-and-transmit.

One offline key-distribution step hands out a Paillier key pair (private
half to the utility only), pairing parameters, and per-entity signing keys.
Each slot, reporting meters send ciphertext||timestamp||signature; the
aggregator batch-verifies, reuses stored ciphertexts for silent meters,
multiplies everything into one ciphertext, and signs it onward; the utility
verifies and decrypts the total. Nobody but the utility ever holds the
Paillier private key, and the aggregate decrypts exactly because all
arithmetic is integer arithmetic modulo n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

# apply_cat and defense_decide are not called here; perfbench/spans.py traces them by these names.
from amisim.cat import CatConfig, apply_cat, cat_decide, efficiency, patterns_for_traces  # noqa: F401
from amisim.crypto import (
    Ciphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
    batch_verify,
    canonical_payload,
    decode_reading,
    decrypt,
    encode_reading,
    encrypt,
    hom_add,
    make_suite,
    paillier_keygen,
    sig_keygen,
    sign,
    verify_single,
)
from amisim.crypto.signatures import SigKeypair, Signature
from amisim.data.traces import ConsumptionTrace, PresenceLabel, format_day_key, resample
from amisim.defense import DefenseBundle, defense_decide, simulate_corpus  # noqa: F401
from amisim.errors import (
    ConfigError,
    ProtocolError,
    StaleMessageError,
    VerificationError,
)

SIM_EPOCH_MS = 1_451_606_400_000  # 2016-01-01T00:00:00Z
FRESHNESS_SLOTS = 2  # a message stamped more slots than this from now is stale


@dataclass(frozen=True)
class SetupConfig:
    sm_count: int
    paillier_bits: int = 2048
    pairing_backend: str = "exp"
    seed: int | None = None

    def __post_init__(self):
        if self.sm_count < 1:
            raise ConfigError("need at least one meter")


@dataclass(frozen=True)
class SystemParams:
    """Public bundle published once at setup; never changes afterwards."""

    paillier_pk: PaillierPublicKey
    suite: object
    sm_publics: dict  # sm_id -> signing public key
    agg_public: object


@dataclass(frozen=True)
class ReadingMsg:
    sender_id: str
    ciphertext: int
    ts_ms: int
    sigma: Signature

    def payload(self) -> bytes:
        return canonical_payload(self.ciphertext, self.ts_ms)


@dataclass(frozen=True)
class AggMsg:
    ciphertext: int
    ts_ms: int
    sigma: Signature

    def payload(self) -> bytes:
        return canonical_payload(self.ciphertext, self.ts_ms)


@dataclass
class SmState:
    sm_id: str
    keypair: SigKeypair
    rng: random.Random
    last_reported: float | None = None
    last_ts_ms: int = -1


@dataclass
class AggregatorState:
    keypair: SigKeypair
    directory: dict
    freshness_ms: int
    store: dict = field(default_factory=dict)
    last_ts_ms: dict = field(default_factory=dict)  # sender -> newest accepted ts
    dropped_stale: int = 0
    dropped_bad_sig: int = 0
    dropped_unknown: int = 0
    batch_fallbacks: int = 0


@dataclass
class EuState:
    paillier_sk: PaillierPrivateKey
    agg_public: object
    freshness_ms: int
    rejected_stale: int = 0
    rejected_bad_sig: int = 0


def kdc_setup(config: SetupConfig):
    """One-shot system bootstrap; the KDC plays no further part.

    Returns (params, eu_private_key, sm_keypairs, aggregator_keypair).
    With a seed, the whole key material is reproducible.
    """
    rng = random.Random(config.seed) if config.seed is not None else random.SystemRandom()
    pk, sk = paillier_keygen(bits=config.paillier_bits, rng=rng)
    suite_seed = rng.randrange(2**63) if config.seed is not None else None
    suite = make_suite(config.pairing_backend, seed=suite_seed)
    sm_keys = {f"sm{i:04d}": sig_keygen(suite, rng) for i in range(config.sm_count)}
    agg_key = sig_keygen(suite, rng)
    params = SystemParams(
        paillier_pk=pk,
        suite=suite,
        sm_publics={sm_id: kp.public for sm_id, kp in sm_keys.items()},
        agg_public=agg_key.public,
    )
    return params, sk, sm_keys, agg_key


def sm_report(
    params: SystemParams,
    state: SmState,
    reading_kwh: float,
    presence: PresenceLabel | None,
    cat: CatConfig,
    now_ms: int,
    force: bool = False,
) -> ReadingMsg | None:
    """Per-slot meter logic; returns a signed ciphertext or None.

    Without force the meter applies the CAT rule: its first-ever reading
    and every change above the threshold go out. force=True means the
    caller already decided to send (run_simulation replays a precomputed
    schedule this way). presence is unused; it stays the fourth positional
    argument for callers that pass it. Each transmission carries a fresh
    encryption of the actual reading, so equal plaintexts still produce
    different bytes on the wire.
    """
    if now_ms <= state.last_ts_ms:
        raise ProtocolError(f"{state.sm_id}: clock regression at {now_ms}")
    state.last_ts_ms = now_ms
    transmit = (
        force
        or state.last_reported is None
        or cat_decide(reading_kwh, state.last_reported, cat.threshold_percent)
    )
    if not transmit:
        return None
    state.last_reported = float(reading_kwh)
    m = encode_reading(reading_kwh, pk=params.paillier_pk, meter_count=len(params.sm_publics))
    c = encrypt(params.paillier_pk, m, rng=state.rng)
    payload = canonical_payload(c.value, now_ms)
    sigma = sign(state.keypair.x, payload, params.suite)
    return ReadingMsg(
        sender_id=state.sm_id, ciphertext=c.value, ts_ms=now_ms, sigma=sigma
    )


def aggregator_collect(
    params: SystemParams,
    state: AggregatorState,
    msgs: list[ReadingMsg],
    now_ms: int,
) -> AggMsg:
    """Verify this slot's messages, fold stored ciphertexts, sign the total.

    Stale or unverifiable messages are dropped (and counted), not fatal: the
    meter's stored ciphertext keeps representing it. A message no newer than
    its sender's last accepted one is a replay and counts as stale. A failed
    batch check falls back to per-message verification to isolate offenders.
    """
    fresh = []
    for msg in msgs:
        if abs(now_ms - msg.ts_ms) > state.freshness_ms:
            state.dropped_stale += 1
            continue
        if msg.sender_id not in state.directory:
            state.dropped_unknown += 1
            continue
        fresh.append(msg)

    accepted = []
    if fresh:
        items = [
            (m.sigma, state.directory[m.sender_id], m.payload()) for m in fresh
        ]
        if batch_verify(items, params.suite):
            accepted = fresh
        else:
            state.batch_fallbacks += 1
            for msg, item in zip(fresh, items):
                if verify_single(*item, params.suite):
                    accepted.append(msg)
                else:
                    state.dropped_bad_sig += 1

    for msg in accepted:
        if msg.ts_ms <= state.last_ts_ms.get(msg.sender_id, -1):
            state.dropped_stale += 1
            continue
        state.store[msg.sender_id] = Ciphertext(value=msg.ciphertext)
        state.last_ts_ms[msg.sender_id] = msg.ts_ms

    missing = set(state.directory) - set(state.store)
    if missing:
        raise ProtocolError(
            f"no stored ciphertext for {len(missing)} meters (bootstrap incomplete)"
        )
    total = Ciphertext(value=1)  # the encryption of 0 with r = 1
    for sm_id in sorted(state.store):
        total = hom_add(total, state.store[sm_id], params.paillier_pk)
    payload = canonical_payload(total.value, now_ms)
    sigma = sign(state.keypair.x, payload, params.suite)
    return AggMsg(ciphertext=total.value, ts_ms=now_ms, sigma=sigma)


@dataclass(frozen=True)
class RecoveredTotal:
    total_kwh: float
    total_encoded: int


def eu_recover(
    params: SystemParams, state: EuState, msg: AggMsg, now_ms: int
) -> RecoveredTotal:
    """Freshness gate, signature check, then exact decryption of the total."""
    if abs(now_ms - msg.ts_ms) > state.freshness_ms:
        state.rejected_stale += 1
        raise StaleMessageError(f"aggregate timestamp {msg.ts_ms} outside window")
    if not verify_single(msg.sigma, state.agg_public, msg.payload(), params.suite):
        state.rejected_bad_sig += 1
        raise VerificationError("aggregate signature check failed")
    total = decrypt(state.paillier_sk, params.paillier_pk, Ciphertext(value=msg.ciphertext))
    return RecoveredTotal(total_kwh=decode_reading(total), total_encoded=total)


# ---------------------------------------------------------------------------
# Whole-network simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimScenario:
    traces: list[ConsumptionTrace]
    presence: dict
    cat: CatConfig
    defense: DefenseBundle | None = None
    seed: int = 0
    paillier_bits: int = 512
    pairing_backend: str = "exp"


@dataclass
class SimulationReport:
    config: dict
    slots: int
    exact_slots: int
    recovered_encoded: list
    expected_encoded: list
    efficiency_percent: float
    efficiency_without_defense: float
    transmissions: int
    periodic_total: int
    dropped_stale: int
    dropped_bad_sig: int
    attacker_view: dict  # (sm_id, date) -> bits (presence of transmissions only)
    eu_views: dict  # (sm_id, date) -> EuView, the per-slot kWh the utility holds

    @property
    def all_exact(self) -> bool:
        return self.exact_slots == self.slots

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "slots": self.slots,
            "exact_slots": self.exact_slots,
            "all_exact": self.all_exact,
            "efficiency_percent": self.efficiency_percent,
            "efficiency_without_defense": self.efficiency_without_defense,
            "transmissions": self.transmissions,
            "periodic_total": self.periodic_total,
            "dropped_stale": self.dropped_stale,
            "dropped_bad_sig": self.dropped_bad_sig,
            "recovered_encoded": self.recovered_encoded,
            "expected_encoded": self.expected_encoded,
            "attacker_view": {
                format_day_key(key): [int(b) for b in bits]
                for key, bits in sorted(self.attacker_view.items())
            },
        }


def run_simulation(scenario: SimScenario) -> SimulationReport:
    """Replay the corpus transmission schedule through the encrypted protocol.

    The schedule is computed once, up front: defense.simulate_corpus with a
    defense attached, cat.patterns_for_traces without. Each slot, every
    meter scheduled to send encrypts and signs its actual reading; the
    aggregator and the utility then run as usual. A plaintext shadow of each
    meter's last transmitted (encoded) reading runs alongside the ciphertext
    path; the report counts the slots where the decrypted aggregate equals
    the shadow sum exactly. The attacker view (message-presence bits only,
    change- and defense-triggered sends alike) and the utility views come
    straight from the schedule.
    """
    cat = scenario.cat
    working = [resample(t, cat.granularity_minutes) for t in scenario.traces]
    # A slot adds one reading of each meter, so all traces must cover the same dates.
    covers = {}  # (first date, days) -> the first trace covering them
    for t in working:
        covers.setdefault((t.start_date, t.day_count), t.consumer_id)
    if len(covers) > 1:
        raise ConfigError("all traces must cover the same dates, but " + " and ".join(
            f"{c} covers {days} day(s) from {start}" for (start, days), c in covers.items()))
    plain_patterns, plain_views = patterns_for_traces(working, cat)
    if scenario.defense is None:
        patterns, views = plain_patterns, plain_views
    else:
        patterns, views = simulate_corpus(working, scenario.presence, cat, scenario.defense)

    # meters x slots over the whole run: the scheduled bits, and the reading
    # the utility holds, which in a sending slot is the reading sent.
    keys = [[day.key for day in t.days()] for t in working]
    bits = np.array([np.concatenate([patterns[k].bits for k in row]) for row in keys])
    held = np.array([np.concatenate([views[k].values for k in row]) for row in keys])
    slot_ms = cat.granularity_minutes * 60_000
    freshness_ms = FRESHNESS_SLOTS * slot_ms

    setup = SetupConfig(
        sm_count=len(working),
        paillier_bits=scenario.paillier_bits,
        pairing_backend=scenario.pairing_backend,
        seed=scenario.seed,
    )
    params, eu_sk, sm_keys, agg_key = kdc_setup(setup)
    master = random.Random(scenario.seed)
    sms = [
        SmState(sm_id=sm_id, keypair=keypair, rng=random.Random(master.randrange(2**63)))
        for sm_id, keypair in sm_keys.items()
    ]
    agg = AggregatorState(
        keypair=agg_key, directory=dict(params.sm_publics), freshness_ms=freshness_ms
    )
    eu = EuState(paillier_sk=eu_sk, agg_public=params.agg_public, freshness_ms=freshness_ms)

    shadow = [0] * len(sms)
    recovered = []
    expected = []
    for t in range(bits.shape[1]):
        now = SIM_EPOCH_MS + t * slot_ms
        msgs = []
        for m in np.flatnonzero(bits[:, t]):
            reading = float(held[m, t])
            msgs.append(sm_report(params, sms[m], reading, None, cat, now, force=True))
            shadow[m] = encode_reading(reading)
        agg_msg = aggregator_collect(params, agg, msgs, now)
        recovered.append(eu_recover(params, eu, agg_msg, now).total_encoded)
        expected.append(sum(shadow) % params.paillier_pk.n)

    periodic_total = bits.size
    sent = int(bits.sum())
    plain_sent = sum(p.count() for p in plain_patterns.values())
    return SimulationReport(
        config={
            "meters": len(sms),
            "days": len(keys[0]),
            "granularity_minutes": cat.granularity_minutes,
            "threshold_percent": cat.threshold_percent,
            "defense": scenario.defense is not None,
            "seed": scenario.seed,
            "paillier_bits": scenario.paillier_bits,
            "pairing_backend": scenario.pairing_backend,
        },
        slots=len(recovered),
        exact_slots=sum(r == e for r, e in zip(recovered, expected)),
        recovered_encoded=recovered,
        expected_encoded=expected,
        efficiency_percent=efficiency(periodic_total, sent),
        efficiency_without_defense=efficiency(periodic_total, plain_sent),
        transmissions=sent,
        periodic_total=periodic_total,
        dropped_stale=agg.dropped_stale,
        dropped_bad_sig=agg.dropped_bad_sig,
        attacker_view={key: p.bits for key, p in patterns.items()},
        eu_views=views,
    )
