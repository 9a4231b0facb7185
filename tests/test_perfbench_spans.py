"""perfbench/spans.py traces the program by wrapping names in its modules;
every name it pins must resolve, and uninstall must put each original back."""

import importlib.util
from pathlib import Path

import amisim.protocol

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_pinned_name():
    spans = _load_spans()
    rows = [(module, attr) for module, attr, _ in spans.SPANS + spans.COUNTED]
    missing = [f"{m.__name__}.{a}" for m, a in rows if not callable(getattr(m, a, None))]
    assert not missing
    originals = [getattr(m, a) for m, a in rows]
    make_suite = amisim.protocol.make_suite
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(m, a) for m, a in rows]
        suite_wrapped = amisim.protocol.make_suite is not make_suite
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert suite_wrapped
    restored = [f"{m.__name__}.{a}" for (m, a), o in zip(rows, originals) if getattr(m, a) is not o]
    assert not restored
    assert amisim.protocol.make_suite is make_suite
