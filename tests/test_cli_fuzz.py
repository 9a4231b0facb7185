"""Mutated bytes of valid input files through amisim.cli.main.

Each fuzz starts from a file the pipeline wrote (the readings CSV, the
labeled JSONL, an attacker params file), applies a few byte-level edits and
runs the command that reads it. The outcome must be an exit code, 0 or a
documented error (2 config, 3 data), never an exception out of main.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amisim.cli import main

RATE = ["--rate", "per30min"]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    files = {name: d / name for name in ("traces.csv", "truth.json", "labeled.jsonl", "att.bin")}
    steps = [
        ["synth", "--consumers", "2", "--days", "3", "--seed", "1",
         "--out", files["traces.csv"], "--truth", files["truth.json"]],
        ["prep", "--traces", files["traces.csv"], *RATE, "--truth", files["truth.json"],
         "--out", files["labeled.jsonl"]],
        ["train", "--dataset", files["labeled.jsonl"], "--target", "attacker", *RATE,
         "--epochs", "1", "--out", files["att.bin"]],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv[0]
    return files


def _edits(size):
    """One byte-level edit of a size-byte file: (kind, position, bytes)."""
    # half the edits land in the first 256 bytes, where a params file's
    # header and first array header are
    position = st.one_of(st.integers(min_value=0, max_value=size),
                         st.integers(min_value=0, max_value=min(size, 256)))
    return st.one_of(
        st.tuples(st.just("set"), position, st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("insert"), position, st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("delete"), position, st.integers(min_value=1, max_value=64)),
        st.tuples(st.just("repeat"), position, st.integers(min_value=1, max_value=256)),
        st.tuples(st.just("truncate"), position, st.none()),
        # printable swaps keep most of a text file parseable, so the edit
        # reaches the checks behind the parser
        st.tuples(st.just("set"), position, st.sampled_from(
            [b"-", b"0", b"9", b".", b",", b"e", b"\n", b'"', b"T", b"+", b":", b"\x00", b"\xff"]
        )),
    )


def _apply(data: bytes, edit) -> bytes:
    kind, at, arg = edit
    at = min(at, len(data))
    if kind == "set":
        return data[:at] + arg + data[at + len(arg):]
    if kind == "insert":
        return data[:at] + arg + data[at:]
    if kind == "delete":
        return data[:at] + data[at + arg:]
    if kind == "repeat":
        return data[:at + arg] + data[at:at + arg] + data[at + arg:]
    return data[:at]


def _mutated(data, draw):
    for edit in draw(st.lists(_edits(len(data)), min_size=1, max_size=3)):
        data = _apply(data, edit)
    return data


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# The command that reads each file: {} is the (mutated) file, {out} a
# scratch directory and {labeled} the valid labeled JSONL.
COMMANDS = {
    "traces.csv": ["ingest", "--in", "{}", "--out", "{out}/out.csv"],
    "labeled.jsonl": ["train", "--dataset", "{}", "--target", "attacker", *RATE,
                      "--epochs", "1", "--out", "{out}/att.bin"],
    "att.bin": ["eval", "--dataset", "{labeled}", "--params", "{}", *RATE,
                "--out", "{out}/eval.json"],
}


def _run(valid, target, data) -> int:
    """main on target's command, with target's bytes replaced by data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / target
        path.write_bytes(data)
        names = {"{}": str(path), "{labeled}": str(valid["labeled.jsonl"])}
        return main([names.get(a, a.replace("{out}", tmp)) for a in COMMANDS[target]])


@pytest.mark.parametrize("target", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_fuzz_cli_input(valid, target, data):
    assert _run(valid, target, _mutated(valid[target].read_bytes(), data.draw)) in (0, 2, 3)


def _insert_after_spec_hash(blob):
    # One byte after the 40-byte header shifts every count behind it; the
    # loader used to read a 4 GB array name and raise MemoryError.
    return blob[:40] + b"\x00" + blob[40:]


def _unclosed_quote(text):
    # An opening quote that never closes makes one field of the rest of the
    # file; csv.Error ("field larger than field limit") used to escape.
    return text[:text.index(b"\n") + 1] + b'"' + text[text.index(b"\n") + 1:]


FOUND = {
    "params-byte-inserted-after-spec-hash": ("att.bin", _insert_after_spec_hash),
    "csv-unclosed-quote": ("traces.csv", _unclosed_quote),
}


@pytest.mark.parametrize("case", sorted(FOUND))
def test_fuzz_found_input_exits_3(valid, case, capsys):
    target, damage = FOUND[case]
    assert _run(valid, target, damage(valid[target].read_bytes())) == 3
    assert "data error" in capsys.readouterr().err
