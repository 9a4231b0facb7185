"""Traced runs: spans around calls into each amisim layer.

The tracer replaces public functions at the module attribute where their
caller looks them up (for example ``amisim.protocol.encrypt``, which is the
name ``sm_report`` calls), records one span per call (name, start, end,
parent) in memory, and restores every original on ``uninstall``. The
program's source is not edited. Per-reading scalars such as ``cat_decide``
are not wrapped; their time shows as self time of their callers.
"""

import json
import time
from collections import Counter

import amisim.attacker
import amisim.cat
import amisim.cli
import amisim.data
import amisim.defense
import amisim.nn.training
import amisim.protocol

# (module, attribute, span name). Each row is a call site a layer is entered
# through; several rows may share a span name.
SPANS = [
    (amisim.protocol, "paillier_keygen", "crypto.paillier_keygen"),
    (amisim.protocol, "encrypt", "crypto.encrypt"),
    (amisim.protocol, "decrypt", "crypto.decrypt"),
    (amisim.protocol, "sign", "crypto.sign"),
    (amisim.protocol, "batch_verify", "crypto.batch_verify"),
    (amisim.protocol, "verify_single", "crypto.verify_single"),
    (amisim.protocol, "kdc_setup", "protocol.kdc_setup"),
    (amisim.protocol, "sm_report", "protocol.sm_report"),
    (amisim.protocol, "aggregator_collect", "protocol.aggregator_collect"),
    (amisim.protocol, "eu_recover", "protocol.eu_recover"),
    (amisim.protocol, "defense_decide", "defense.decide"),
    (amisim.protocol, "patterns_for_traces", "cat.patterns_for_traces"),
    (amisim.cli, "patterns_for_traces", "cat.patterns_for_traces"),
    (amisim.attacker, "simulate_corpus", "defense.simulate_corpus"),
    (amisim.cli, "train_defense", "defense.train"),
    (amisim.defense, "forward", "nn.forward"),
    (amisim.nn.training, "forward", "nn.forward"),
    (amisim.nn.training, "backward", "nn.backward"),
    (amisim.nn.training, "adam_step", "nn.adam_step"),
    (amisim.cli, "train_attacker", "attacker.train"),
    (amisim.cli, "train_threeclass", "attacker.train"),
    (amisim.cli, "evaluate", "attacker.evaluate"),
    (amisim.cli, "evaluate_threeclass", "attacker.evaluate"),
    (amisim.cli, "threeclass_sets", "attacker.threeclass_sets"),
    (amisim.data, "synthesize", "data.synthesize"),
    (amisim.cli, "synthesize", "data.synthesize"),
    (amisim.data, "label_days", "data.label_days"),
    (amisim.cli, "label_days", "data.label_days"),
    (amisim.cli, "write_traces_csv", "data.io"),
    (amisim.cli, "ingest_csv", "data.io"),
    (amisim.cli, "save_labeled_jsonl", "data.io"),
    (amisim.cli, "load_labeled_jsonl", "data.io"),
    (amisim.cli, "save_params", "data.io"),
    (amisim.cli, "load_params", "data.io"),
    (amisim.cli, "save_history_csv", "data.io"),
    (amisim.cli, "cmd_synth", "cli.synth"),
    (amisim.cli, "cmd_prep", "cli.prep"),
    (amisim.cli, "cmd_train", "cli.train"),
    (amisim.cli, "cmd_eval", "cli.eval"),
]

# Call sites that are counted but get no span, so their time stays with
# the caller: apply_cat runs once per meter-day inside patterns_for_traces.
COUNTED = [
    (amisim.cat, "apply_cat", "cat.apply_cat_calls"),
    (amisim.protocol, "apply_cat", "cat.apply_cat_calls"),
    (amisim.defense, "apply_cat", "cat.apply_cat_calls"),
]

# Suite methods, wrapped on each suite make_suite returns.
SUITE_SPANS = [("pair_product", "crypto.pair_product"), ("hash_to_g1", "crypto.hash_to_g1")]

TRAINING_SPANS = ("attacker.train", "defense.train")

# Per-layer metrics: (name, unit). Every *_s value is self time; BENCHMARK.json
# gives each one's better direction.
LAYER_METRICS = [
    ("crypto.encrypt_calls", "count"),
    ("crypto.encrypt_s", "s"),
    ("crypto.decrypt_calls", "count"),
    ("crypto.decrypt_s", "s"),
    ("crypto.paillier_keygen_s", "s"),
    ("crypto.batch_verify_calls", "count"),
    ("crypto.batch_verify_items", "count"),
    ("crypto.batch_verify_s", "s"),
    ("crypto.verify_single_s", "s"),
    ("crypto.pair_product_calls", "count"),
    ("crypto.pair_product_s", "s"),
    ("crypto.sign_s", "s"),
    ("crypto.hash_to_g1_s", "s"),
    ("protocol.kdc_setup_s", "s"),
    ("protocol.sm_report_s", "s"),
    ("protocol.aggregator_collect_s", "s"),
    ("protocol.eu_recover_s", "s"),
    ("protocol.slots", "count"),
    ("protocol.transmissions", "count"),
    ("protocol.accepted", "count"),
    ("protocol.dropped", "count"),
    ("protocol.batch_fallbacks", "count"),
    ("defense.decide_calls", "count"),
    ("defense.decide_s", "s"),
    ("defense.fire_ratio", "ratio"),
    ("defense.simulate_corpus_s", "s"),
    ("defense.forward_batch_rows", "rows"),
    ("defense.train_s", "s"),
    ("nn.forward_calls", "count"),
    ("nn.forward_rows", "count"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.adam_step_s", "s"),
    ("nn.train_steps", "count"),
    ("nn.train_samples_per_s", "1/s"),
    ("attacker.train_s", "s"),
    ("attacker.evaluate_s", "s"),
    ("attacker.threeclass_sets_s", "s"),
    ("data.synthesize_s", "s"),
    ("data.label_days_s", "s"),
    ("data.io_s", "s"),
    ("cat.patterns_for_traces_s", "s"),
    ("cat.apply_cat_calls", "count"),
    ("cli.synth_s", "s"),
    ("cli.prep_s", "s"),
    ("cli.train_s", "s"),
    ("cli.eval_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Span recorder; install() wraps every call site in SPANS, COUNTED and
    SUITE_SPANS, uninstall() puts the originals back."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        snapshot, after = SNAPSHOT.get(name), AFTER.get(name)

        def wrapper(*args, **kwargs):
            before = snapshot(args) if snapshot is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, before)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        for module, attr, name in COUNTED:
            self._patch(module, attr, self._count(name, getattr(module, attr)))
        make_suite = amisim.protocol.make_suite

        def traced_make_suite(*args, **kwargs):
            suite = make_suite(*args, **kwargs)
            for method, name in SUITE_SPANS:
                setattr(suite, method, self._wrap(name, getattr(suite, method)))
            return suite

        self._patch(amisim.protocol, "make_suite", traced_make_suite)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- reporting ----------------------------------------------------------
    def totals(self, first, last):
        """Self time, inclusive time and call count per span name, over
        spans[first:last]."""
        child = [0.0] * len(self.spans)
        for i in range(first, last):
            name, start, end, parent = self.spans[i]
            if parent >= first:
                child[parent] += end - start
        self_s, incl_s, calls = Counter(), Counter(), Counter()
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            self_s[name] += end - start - child[i]
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def dump(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def _drops(state):
    return state.dropped_stale + state.dropped_bad_sig + state.dropped_unknown


def _after_collect(tracer, args, result, before):
    state, msgs = args[1], args[2]
    drops, fallbacks = before
    dropped = _drops(state) - drops
    tracer.counts["protocol.slots"] += 1
    tracer.counts["protocol.dropped"] += dropped
    tracer.counts["protocol.accepted"] += len(msgs) - dropped
    tracer.counts["protocol.batch_fallbacks"] += state.batch_fallbacks - fallbacks


def _after_forward(tracer, args, result, before):
    rows = len(args[2])
    tracer.counts["nn.forward_rows"] += rows
    if tracer.parent_name() == "defense.simulate_corpus":
        tracer.counts["defense.forward_calls"] += 1
        tracer.counts["defense.forward_rows"] += rows


def _count_into(key, amount):
    def hook(tracer, args, result, before):
        tracer.counts[key] += amount(args, result)

    return hook


# Counter hooks, run after a call as hook(tracer, args, result, snapshot).
AFTER = {
    "protocol.aggregator_collect": _after_collect,
    "protocol.sm_report": _count_into("protocol.transmissions", lambda a, r: r is not None),
    "defense.decide": _count_into("defense.fires", lambda a, r: int(r)),
    "crypto.batch_verify": _count_into("crypto.batch_verify_items", lambda a, r: len(a[0])),
    "nn.forward": _after_forward,
    "nn.backward": _count_into("nn.train_samples", lambda a, r: len(a[3])),
}

# Taken before a call, for counters the call changes in place.
SNAPSHOT = {
    "protocol.aggregator_collect": lambda args: (_drops(args[1]), args[1].batch_fallbacks),
}


def layer_metrics(tracer, round_first, rounds, overhead_s):
    """Per-layer values: one set-up's spans plus the traced rounds' spans
    divided by the number of traced rounds.

    Spans before round_first belong to the traced set-up, the rest to the
    traced rounds. Counters must have been cleared when the rounds began.
    """
    setup_self, _, _ = tracer.totals(0, round_first)
    r_self, r_incl, r_calls = tracer.totals(round_first, len(tracer.spans))
    per = 1.0 / rounds

    def self_s(name):
        return setup_self[name] + r_self[name] * per

    def calls(name):
        return r_calls[name] * per

    counts = tracer.counts
    train_incl = sum(r_incl[n] for n in TRAINING_SPANS)
    values = {
        "crypto.encrypt_calls": calls("crypto.encrypt"),
        "crypto.decrypt_calls": calls("crypto.decrypt"),
        "crypto.batch_verify_calls": calls("crypto.batch_verify"),
        "crypto.batch_verify_items": counts["crypto.batch_verify_items"] * per,
        "crypto.pair_product_calls": calls("crypto.pair_product"),
        "protocol.slots": counts["protocol.slots"] * per,
        "protocol.transmissions": counts["protocol.transmissions"] * per,
        "protocol.accepted": counts["protocol.accepted"] * per,
        "protocol.dropped": counts["protocol.dropped"] * per,
        "protocol.batch_fallbacks": counts["protocol.batch_fallbacks"] * per,
        "defense.decide_calls": calls("defense.decide"),
        "defense.fire_ratio": _ratio(counts["defense.fires"], r_calls["defense.decide"]),
        "defense.forward_batch_rows": _ratio(
            counts["defense.forward_rows"], counts["defense.forward_calls"]
        ),
        "nn.forward_calls": calls("nn.forward"),
        "nn.forward_rows": counts["nn.forward_rows"] * per,
        "nn.train_steps": calls("nn.adam_step"),
        "nn.train_samples_per_s": _ratio(counts["nn.train_samples"], train_incl),
        "cat.apply_cat_calls": counts["cat.apply_cat_calls"] * per,
        "trace.overhead_s": overhead_s,
    }
    for name, _ in LAYER_METRICS:
        if name not in values:
            values[name] = self_s(name[: -len("_s")])
    return values


def _ratio(num, den):
    return num / den if den else 0.0
