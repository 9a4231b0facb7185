"""The four workloads: inputs, one round of work, and the round's checks.

A workload object builds its inputs from the run seed in ``setup`` (which
the runner repeats to time it), does one round of identical work in
``run_round``, and judges a round's outcome in ``check``. ``check`` returns
one fingerprint per operation (a slot, or a pipeline command) and the set
of operations whose check failed; the runner also fails an operation whose
fingerprint differs from the same operation's in the run's first round.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil

import numpy as np

import amisim.cli
import amisim.data
import amisim.defense
import amisim.protocol as protocol
from amisim.cat import CatConfig, patterns_for_traces
from amisim.data import ConsumptionTrace, PresenceLabel, SyntheticConfig, resample
from amisim.defense import DefenseBundle, build_defense, window_size
from amisim.nn import init_params

import bench_env
import corpus
import oracle

THRESHOLD = 10.0


def _digest(*parts):
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


class _Simulation:
    """Set-up shared by the collection workloads, plus the scenario and the
    per-slot checks of the two that call protocol.run_simulation."""

    meters = days = absent_per_day = 0
    minutes = 5
    threshold = THRESHOLD
    settings = None

    def __init__(self, seed):
        self.seed = seed
        self.cat = CatConfig(threshold_percent=self.threshold, granularity_minutes=self.minutes)
        self.slots = self.days * (1440 // self.minutes)
        self.meter_slots = self.meters * self.slots
        self.ops = self.slots

    def setup(self):
        self.traces, self.truth = corpus.households(
            self.seed, self.meters, self.days, self.absent_per_day, self.settings
        )
        self.readings = [oracle.rebin(t.readings, self.minutes) for t in self.traces]

    def scenario(self, defense=None):
        return protocol.SimScenario(
            traces=self.traces,
            presence=self.truth,
            cat=self.cat,
            defense=defense,
            seed=self.seed,
            paillier_bits=256,
            pairing_backend="exp",
        )

    def sent_bits(self, report):
        """The report's attacker view as [meter][slot] bits over all days."""
        return [
            [int(b) for d in corpus.dates(self.days)
             for b in report.attacker_view[(t.consumer_id, d)]]
            for t in self.traces
        ]

    def check_totals(self, report, bits, extra_faults=()):
        """Per-slot checks shared by both simulations; returns (prints, failed)."""
        expected = oracle.slot_totals(self.readings, bits)
        whole = (
            report.slots == self.slots
            and len(report.recovered_encoded) == self.slots
            and report.transmissions == sum(map(sum, bits))
        )
        failed = set()
        prints = []
        round_print = _digest(report.as_dict())
        for t in range(self.slots):
            got = report.recovered_encoded[t] if t < len(report.recovered_encoded) else None
            if not whole or got != expected[t] or t in extra_faults:
                failed.add(t)
            prints.append(_digest(round_print, t))
        return prints, failed


class Collect(_Simulation):
    """protocol.run_simulation on 114 meters x 1 day at per5min, 256-bit
    Paillier, `exp` pairings, no defense; 30 % absent meters."""

    name = "collect"
    meters, days, absent_per_day = 114, 1, 34

    def run_round(self):
        return protocol.run_simulation(self.scenario())

    def check(self, report):
        bits = [oracle.cat_bits(r, self.threshold) for r in self.readings]
        sent = self.sent_bits(report)
        faults = {
            t for m in range(self.meters) for t in range(self.slots) if sent[m][t] != bits[m][t]
        }
        return self.check_totals(report, bits, faults)


class CollectDefended(_Simulation):
    """The same protocol with the trained per5min defense attached: 9 meters
    x 2 days, 4 meters absent each day (44 %), acceptance-corpus households."""

    name = "collect-defended"
    meters, days, absent_per_day = 9, 2, 4
    settings = corpus.CHAIN_HOUSEHOLDS
    weights = os.path.join(bench_env.BENCH_DIR, "data", "defense_per5min.npz")

    def __init__(self, seed):
        super().__init__(seed)
        self._reference = None

    def setup(self):
        super().setup()
        spec = build_defense("per5min")
        params = init_params(spec, seed=0)
        with np.load(self.weights) as stored:
            for i, layer in enumerate(params.weights):
                for key in layer:
                    layer[key] = stored[f"{i}/{key}"].astype(np.float64)
        self.bundle = DefenseBundle(spec=spec, params=params, n=window_size("per5min"))

    def run_round(self):
        return protocol.run_simulation(self.scenario(self.bundle))

    def check(self, report):
        bits = self.sent_bits(report)
        if self._reference is None:
            patterns, _ = amisim.defense.simulate_corpus(
                self.traces, self.truth, self.cat, bundle=self.bundle
            )
            self._reference = [
                [int(b) for d in corpus.dates(self.days)
                 for b in patterns[(t.consumer_id, d)].bits]
                for t in self.traces
            ]
        spd = 1440 // self.minutes
        faults = set()
        for m, trace in enumerate(self.traces):
            absent = [
                self.truth[(trace.consumer_id, d)] is PresenceLabel.ABSENT
                for d in corpus.dates(self.days)
                for _ in range(spd)
            ]
            faults |= oracle.defended_slot_faults(
                self.readings[m], bits[m], absent, self.threshold
            )
            faults |= {t for t in range(self.slots) if bits[m][t] != self._reference[m][t]}
        return self.check_totals(report, bits, faults)


class CollectReal(_Simulation):
    """The protocol's per-slot functions at 2048-bit Paillier and `bn254`
    pairings: 3 always-present meters over 4 evening slots at per30min."""

    name = "collect-real"
    meters, days, absent_per_day = 3, 1, 0
    minutes = 30
    first_slot, slot_count = 36, 4  # 18:00 to 20:00
    # At a 1 % threshold nearly every reading goes out, so the number of
    # encryptions and batch items per slot hardly depends on the seed.
    threshold = 1.0
    # Key material is a system constant, not an input. Key generation time
    # depends on the seed through the prime search (0.85-6.9 s over seeds
    # 0-11 on one core of a 2-core Xeon); seed 0 sits at the median, 1.7 s.
    key_seed = 0

    def __init__(self, seed):
        super().__init__(seed)
        self.slots = self.ops = self.slot_count
        self.meter_slots = self.meters * self.slots

    def setup(self):
        super().setup()
        end = self.first_slot + self.slot_count
        self.readings = [r[self.first_slot:end] for r in self.readings]

    def run_round(self):
        params, eu_sk, sm_keys, agg_key = protocol.kdc_setup(
            protocol.SetupConfig(
                sm_count=self.meters, paillier_bits=2048, pairing_backend="bn254",
                seed=self.key_seed,
            )
        )
        slot_ms = 30 * 60_000
        master = random.Random(self.key_seed)
        meters = [
            protocol.SmState(sm_id=sm_id, keypair=kp, rng=random.Random(master.randrange(2**63)))
            for sm_id, kp in sm_keys.items()
        ]
        agg = protocol.AggregatorState(
            keypair=agg_key, directory=dict(params.sm_publics), freshness_ms=2 * slot_ms
        )
        eu = protocol.EuState(
            paillier_sk=eu_sk, agg_public=params.agg_public, freshness_ms=2 * slot_ms
        )
        slots = []
        for t in range(self.slot_count):
            now = protocol.SIM_EPOCH_MS + (self.first_slot + t) * slot_ms
            msgs = []
            for state, readings in zip(meters, self.readings):
                msg = protocol.sm_report(
                    params, state, float(readings[t]), PresenceLabel.PRESENT, self.cat, now,
                    force=(t == 0),
                )
                if msg is not None:
                    msgs.append(msg)
            agg_msg = protocol.aggregator_collect(params, agg, msgs, now)
            total = protocol.eu_recover(params, eu, agg_msg, now)
            slots.append((msgs, agg_msg, total))
        return slots, (agg.dropped_stale, agg.dropped_bad_sig, agg.dropped_unknown)

    def check(self, outcome):
        slots, drops = outcome
        bits = [oracle.cat_bits(r, self.threshold) for r in self.readings]
        expected = oracle.slot_totals(self.readings, bits)
        senders = [f"sm{m:04d}" for m in range(self.meters)]
        failed, prints = set(), []
        for t, (msgs, agg_msg, total) in enumerate(slots):
            sent = [s for s, b in zip(senders, bits) if b[t]]
            if (
                [m.sender_id for m in msgs] != sent
                or total.total_encoded != expected[t]
                or any(drops)
            ):
                failed.add(t)
            prints.append(
                _digest([m.ciphertext for m in msgs], agg_msg.ciphertext, total.total_encoded)
            )
        return prints, failed


class Study:
    """The learning pipeline through amisim.cli.main at per5min: synth ->
    prep (clustering labels) -> train attacker, defense and threeclass ->
    eval 2-class and 3-class, on 8 households x 5 days."""

    name = "study"
    consumers, days = 8, 5
    candidates = 16
    # Estimated defense work of one corpus simulation, in forward rows: a
    # batched forward pass costs about as much as 1.6 extra rows, and the
    # median candidate makes 1,433 passes with 4,490 rows in all.
    work_per_call = 1.6
    work_target = work_per_call * 1433 + 4490
    epochs = 1
    ops = 7

    def __init__(self, seed):
        self.seed = seed
        self.meter_slots = self.consumers * self.days * 288
        self.work = os.path.join(bench_env.OUT_DIR, f"study-{os.getpid()}")

    def setup(self):
        self.synth_seed = self._choose_seed()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def _choose_seed(self):
        """Pick the synth seed among a fixed number drawn from the run seed.

        Nine tenths of a round is defense inference inside the two defended
        corpus simulations, one batched forward pass per slot in which some
        absent-labelled day is silent, one row per such day. The chosen
        candidate's test split holds both classes (a 3-class evaluation
        needs both) and its work, estimated from the undefended patterns and
        the clustering labels prep will compute, is closest to work_target.
        Every candidate is tried, so set-up costs the same each time.
        """
        cat = CatConfig(threshold_percent=THRESHOLD, granularity_minutes=5)
        best = None
        rng = np.random.default_rng([self.seed, 5])
        for candidate in rng.integers(2**31, size=self.candidates):
            candidate = int(candidate)
            traces, _ = amisim.data.synthesize(
                SyntheticConfig(self.consumers, self.days, candidate, **corpus.CHAIN_HOUSEHOLDS)
            )
            # The traces CSV holds readings to 1e-9 kWh, and prep reads them back.
            traces = [
                ConsumptionTrace(t.consumer_id, t.start_date, 1, np.round(t.readings, 9))
                for t in traces
            ]
            patterns, _ = patterns_for_traces(traces, cat)
            bits = {k: p.bits for k, p in patterns.items()}
            labeled = amisim.data.label_days(
                [resample(t, 5) for t in traces], bits, periods_threshold=0.4, seed=candidate
            )
            test = [r.label for r in labeled.records if r.split.value == "test"]
            valid = PresenceLabel.ABSENT in test and PresenceLabel.PRESENT in test
            absent = [
                (r.day.consumer_id, r.day.date.isoformat())
                for r in labeled.records
                if r.label is PresenceLabel.ABSENT
            ]
            work = 0.0
            for day in corpus.dates(self.days):
                quiet = [1 - bits[k].astype(int) for k in absent if k[1] == day]
                if quiet:
                    silent = np.sum(quiet, axis=0)  # silent absent days per slot
                    work += self.work_per_call * np.count_nonzero(silent) + silent.sum()
            score = (not valid, abs(work / self.work_target - 1.0))
            if best is None or score < best[0]:
                best = (score, candidate)
        return best[1]

    def _path(self, name):
        return os.path.join(self.work, name)

    def commands(self):
        seed = str(self.synth_seed)
        p = self._path
        train = ["train", "--dataset", p("labeled.jsonl"), "--rate", "per5min", "--seed", seed,
                 "--epochs", str(self.epochs)]
        # The synth flags spell out corpus.CHAIN_HOUSEHOLDS.
        return [
            (["synth", "--consumers", str(self.consumers), "--days", str(self.days),
              "--seed", seed, "--out", p("traces.csv"), "--truth", p("truth.json"),
              "--absence-probability", "0.45", "--rate-present", "1.7", "--rate-absent", "0.3",
              "--event-duration", "15", "--duration-jitter", "0.08", "--gap-jitter", "0.10",
              "--activity-jitter", "0.5", "--rate-spread", "0.35", "--duration-spread", "0.3",
              "--no-diurnal"], ["traces.csv", "truth.json"]),
            (["prep", "--traces", p("traces.csv"), "--rate", "per5min", "--seed", seed,
              "--out", p("labeled.jsonl")], ["labeled.jsonl"]),
            (train + ["--target", "attacker", "--out", p("attacker.bin"),
                      "--history", p("attacker.csv")], ["attacker.bin", "attacker.csv"]),
            (train + ["--target", "defense", "--batch-size", "400", "--learning-rate", "0.0005",
                      "--max-windows", "800", "--out", p("defense.bin")], ["defense.bin"]),
            (train + ["--target", "threeclass", "--defense-params", p("defense.bin"),
                      "--out", p("threeclass.bin")], ["threeclass.bin"]),
            (["eval", "--dataset", p("labeled.jsonl"), "--params", p("attacker.bin"),
              "--rate", "per5min", "--out", p("eval2.json"), "--roc", p("roc2.csv")],
             ["eval2.json", "roc2.csv"]),
            (["eval", "--dataset", p("labeled.jsonl"), "--params", p("threeclass.bin"),
              "--rate", "per5min", "--variant", "threeclass", "--defense-params",
              p("defense.bin"), "--out", p("eval3.json")], ["eval3.json"]),
        ]

    def run_round(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv, _ in self.commands():
                codes.append(amisim.cli.main(argv))
        return codes

    def check(self, codes):
        failed, prints = set(), []
        for i, ((argv, outputs), code) in enumerate(zip(self.commands(), codes)):
            blobs = []
            for name in outputs:
                try:
                    with open(self._path(name), "rb") as fh:
                        blobs.append(fh.read())
                except OSError:
                    blobs.append(b"")
            prints.append(hashlib.sha256(b"\0".join(blobs)).hexdigest())
            ok = code == 0 and all(blobs)
            if ok and argv[0] == "synth":
                ok = len(json.loads(blobs[1])["labels"]) == self.consumers * self.days
            elif ok and argv[0] == "prep":
                ok = len(blobs[0].splitlines()) == self.consumers * self.days
            elif ok and argv[0] == "eval":
                ok = self._eval_consistent(json.loads(blobs[0])["report"])
            if not ok:
                failed.add(i)
        return prints, failed

    def _eval_consistent(self, report):
        """The report's confusion matrix covers the test split once, and its
        SR and FA are the documented SR = TP / (TP + FP) and FA = FP / (TN +
        FN). FA's denominator lets it exceed 1, so only SR, AUC and
        SR@FA<=0.05 must lie in [0, 1]. The 3-class report is binarized
        over present days plus the defended absent days."""
        present = absent = 0
        with open(self._path("labeled.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["split"] == "test":
                    absent += rec["label"] == "absent"
                    present += rec["label"] == "present"
        (tn, fp), (fn, tp) = report["confusion"]  # rows: true present, absent
        return (
            tn + fp + fn + tp == present + absent
            and report["sr"] == (tp / (tp + fp) if tp + fp else 0.0)
            and report["fa"] == (fp / (tn + fn) if tn + fn else 0.0)
            and all(0.0 <= report[k] <= 1.0 for k in ("sr", "auc", "sr_at_fa05"))
        )

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Collect, CollectDefended, CollectReal, Study)}
