import json

import pytest

from amisim.cli import main


@pytest.fixture()
def corpus_files(tmp_path):
    traces = tmp_path / "traces.csv"
    truth = tmp_path / "truth.json"
    code = main([
        "synth", "--consumers", "4", "--days", "4", "--seed", "7",
        "--out", str(traces), "--truth", str(truth),
        "--absence-probability", "0.5", "--no-diurnal",
    ])
    assert code == 0
    return traces, truth


def test_synth_outputs_embed_config_and_version(corpus_files, tmp_path):
    _, truth = corpus_files
    payload = json.loads(truth.read_text())
    assert payload["version"]
    assert payload["config"]["consumer_count"] == 4
    assert len(payload["labels"]) == 16


def test_prep_then_train_eval_round(corpus_files, tmp_path):
    traces, truth = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    assert main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--truth", str(truth), "--out", str(labeled),
    ]) == 0
    params = tmp_path / "att.bin"
    assert main([
        "train", "--dataset", str(labeled), "--target", "attacker",
        "--rate", "per30min", "--seed", "7", "--epochs", "1",
        "--out", str(params),
    ]) == 0
    out = tmp_path / "eval.json"
    roc = tmp_path / "roc.csv"
    assert main([
        "eval", "--dataset", str(labeled), "--params", str(params),
        "--rate", "per30min", "--out", str(out), "--roc", str(roc),
    ]) == 0
    report = json.loads(out.read_text())["report"]
    assert 0.0 <= report["sr"] <= 1.0
    assert roc.read_text().startswith("fa,sr")


def test_prep_without_truth_uses_clustering(corpus_files, tmp_path):
    traces, _ = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    assert main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--out", str(labeled),
    ]) == 0
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    assert {row["label"] for row in rows} <= {"present", "absent"}
    assert all("bits" in row for row in rows)


def test_simulate_writes_report(corpus_files, tmp_path):
    traces, truth = corpus_files
    out = tmp_path / "sim.json"
    assert main([
        "simulate", "--traces", str(traces), "--truth", str(truth),
        "--rate", "per30min", "--seed", "7", "--paillier-bits", "256",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_exact"] is True
    assert payload["config"]["meters"] == 4
    # Eavesdropper view: bits only, no readings.
    sample = next(iter(payload["attacker_view"].values()))
    assert set(sample) <= {0, 1}


def test_efficiency_table_csv(corpus_files, tmp_path):
    traces, _ = corpus_files
    out = tmp_path / "eff.csv"
    assert main([
        "efficiency", "--traces", str(traces),
        "--thresholds", "1", "10", "--rates", "5", "30",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "threshold,rate,efficiency"
    assert len(lines) == 5


def test_missing_input_exits_3(corpus_files, tmp_path):
    traces, _ = corpus_files
    for infile, out in (
        (tmp_path / "nope.csv", tmp_path / "o.csv"),  # a missing input
        (tmp_path, tmp_path / "o.csv"),  # an input that is a directory
        (traces, tmp_path),  # an output that is a directory
    ):
        assert main(["ingest", "--in", str(infile), "--out", str(out)]) == 3, (infile, out)


def test_bad_config_exits_2(corpus_files, tmp_path):
    traces, truth = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--truth", str(truth), "--out", str(labeled),
    ])
    # threeclass training without defense params is a config error
    assert main([
        "train", "--dataset", str(labeled), "--target", "threeclass",
        "--rate", "per30min", "--epochs", "1",
        "--out", str(tmp_path / "x.bin"),
    ]) == 2


def test_train_defense_negative_max_windows_exits_2(corpus_files, tmp_path, capsys):
    traces, truth = corpus_files
    labeled = str(tmp_path / "labeled.jsonl")
    assert main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--truth", str(truth), "--out", labeled,
    ]) == 0
    assert main([
        "train", "--dataset", labeled, "--target", "defense", "--rate", "per30min",
        "--epochs", "0", "--max-windows", "-3", "--out", str(tmp_path / "d.bin"),
    ]) == 2
    assert "window budget must be >= 1" in capsys.readouterr().err


def test_threeclass_threshold_must_match_prep(tmp_path, capsys):
    # The threeclass steps rebuild the undefended patterns at their own
    # --threshold; at 10 % they differ from the bits prep stored at 5 %.
    f = {name: str(tmp_path / name) for name in (
        "traces.csv", "truth.json", "labeled.jsonl", "d.bin", "t.bin", "e.json")}
    for argv in (
        ["synth", "--consumers", "3", "--days", "4", "--seed", "1",
         "--out", f["traces.csv"], "--truth", f["truth.json"]],
        ["prep", "--traces", f["traces.csv"], "--rate", "per30min", "--truth", f["truth.json"],
         "--threshold", "5", "--out", f["labeled.jsonl"]],
        ["train", "--dataset", f["labeled.jsonl"], "--target", "defense", "--rate", "per30min",
         "--epochs", "0", "--out", f["d.bin"]],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    threeclass = ["train", "--dataset", f["labeled.jsonl"], "--target", "threeclass",
                  "--rate", "per30min", "--epochs", "0", "--defense-params", f["d.bin"],
                  "--out", f["t.bin"]]
    evaluate = ["eval", "--dataset", f["labeled.jsonl"], "--params", f["t.bin"],
                "--rate", "per30min", "--variant", "threeclass", "--defense-params", f["d.bin"],
                "--out", f["e.json"]]
    for argv in (threeclass, evaluate):
        assert main(argv + ["--threshold", "5"]) == 0, argv
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "--threshold 10 " in err and "sm000" in err, err


def test_threeclass_eval_with_patterns_exits_2(corpus_files, tmp_path):
    # The threeclass attacker makes its own spoofed days, so --patterns would be ignored.
    traces, truth = corpus_files
    labeled, defense, params, view = (
        str(tmp_path / name) for name in ("labeled.jsonl", "d.bin", "t.bin", "view.json"))
    train = ["train", "--dataset", labeled, "--rate", "per30min", "--epochs", "0"]
    for argv in (
        ["prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
         "--truth", str(truth), "--out", labeled],
        train + ["--target", "defense", "--out", defense],
        train + ["--target", "threeclass", "--defense-params", defense, "--out", params],
    ):
        assert main(argv) == 0, argv
    (tmp_path / "view.json").write_text('{"attacker_view": {}}')
    assert main([
        "eval", "--dataset", labeled, "--params", params, "--rate", "per30min",
        "--variant", "threeclass", "--defense-params", defense, "--patterns", view,
        "--out", str(tmp_path / "e.json"),
    ]) == 2


def test_eval_empty_test_split_fails(corpus_files, tmp_path):
    traces, truth = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--truth", str(truth), "--out", str(labeled),
    ])
    # Rewrite every record as train-only, leaving an empty test split.
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    for row in rows:
        row["split"] = "train"
    labeled.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    params = tmp_path / "att.bin"
    main([
        "train", "--dataset", str(labeled), "--target", "attacker",
        "--rate", "per30min", "--seed", "7", "--epochs", "0",
        "--out", str(params),
    ])
    code = main([
        "eval", "--dataset", str(labeled), "--params", str(params),
        "--rate", "per30min", "--out", str(tmp_path / "e.json"),
    ])
    assert code == 3


@pytest.mark.parametrize("truth_labels", [True, False])
def test_prep_refuses_corpus_without_test_day(tmp_path, capsys, truth_labels):
    # Two whole days per consumer: round(0.8 x 2) = 2 go to train.
    traces, truth = tmp_path / "traces.csv", tmp_path / "truth.json"
    assert main([
        "synth", "--consumers", "2", "--days", "2", "--seed", "1",
        "--out", str(traces), "--truth", str(truth),
    ]) == 0
    labeled = tmp_path / "labeled.jsonl"
    argv = ["prep", "--traces", str(traces), "--rate", "per30min", "--out", str(labeled)]
    capsys.readouterr()
    assert main(argv + (["--truth", str(truth)] if truth_labels else [])) == 3
    assert "empty test split" in capsys.readouterr().err
    assert not labeled.exists()


def _untrained_attacker(corpus_files, tmp_path):
    """A per30min prep output and a 0-epoch attacker params file for it."""
    traces, truth = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    assert main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--truth", str(truth), "--out", str(labeled),
    ]) == 0
    params = tmp_path / "att.bin"
    assert main([
        "train", "--dataset", str(labeled), "--target", "attacker",
        "--rate", "per30min", "--seed", "7", "--epochs", "0",
        "--out", str(params),
    ]) == 0
    return labeled, params


def test_eval_truncated_params_exits_3(corpus_files, tmp_path):
    labeled, params = _untrained_attacker(corpus_files, tmp_path)
    blob = params.read_bytes()
    params.write_bytes(blob[: len(blob) // 2])
    code = main([
        "eval", "--dataset", str(labeled), "--params", str(params),
        "--rate", "per30min", "--out", str(tmp_path / "e.json"),
    ])
    assert code == 3


def test_eval_format_version_1_params_exits_3(corpus_files, tmp_path, capsys):
    labeled, params = _untrained_attacker(corpus_files, tmp_path)
    blob = params.read_bytes()
    params.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    capsys.readouterr()
    code = main([
        "eval", "--dataset", str(labeled), "--params", str(params),
        "--rate", "per30min", "--out", str(tmp_path / "e.json"),
    ])
    assert code == 3
    assert "version 1 " in capsys.readouterr().err


def test_corpus_without_whole_day_exits_3(tmp_path, capsys):
    traces = tmp_path / "one-row.csv"
    traces.write_text("consumer_id,timestamp_iso8601,kwh\na,2016-01-01T00:00:00,0.005\n")
    labeled = tmp_path / "labeled.jsonl"
    prep = ["prep", "--traces", str(traces), "--rate", "per5min", "--out", str(labeled)]
    assert main(prep) == 3
    assert "no whole day" in capsys.readouterr().err
    assert not labeled.exists()
    labeled.write_text("")  # what prep used to write for such a corpus
    for command in (
        ["train", "--target", "attacker", "--out", str(tmp_path / "a.bin")],
        ["eval", "--params", str(tmp_path / "a.bin"), "--out", str(tmp_path / "e.json")],
    ):
        assert main([*command, "--dataset", str(labeled), "--rate", "per5min"]) == 3
        assert "no records" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "missing-key", "not-an-object", "no-readings",
                                    "short-bits", "non-binary-bits"])
def test_train_malformed_dataset_line_exits_3(corpus_files, tmp_path, capsys, damage):
    traces, truth = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    assert main([
        "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
        "--truth", str(truth), "--out", str(labeled),
    ]) == 0
    lines = labeled.read_text().splitlines()
    if damage == "truncated":
        lines[1] = lines[1][: len(lines[1]) // 2]
    elif damage == "missing-key":
        row = json.loads(lines[1])
        del row["label"]
        lines[1] = json.dumps(row)
    elif damage == "no-readings":
        row = json.loads(lines[1])
        row["readings"] = []
        lines[1] = json.dumps(row)
    elif damage == "short-bits":
        row = json.loads(lines[1])
        row["bits"] = row["bits"][:2]
        lines[1] = json.dumps(row)
    elif damage == "non-binary-bits":
        row = json.loads(lines[1])
        row["bits"][0] = 2
        lines[1] = json.dumps(row)
    else:
        lines[1] = "[1, 2, 3]"
    labeled.write_text("\n".join(lines) + "\n")
    code = main([
        "train", "--dataset", str(labeled), "--target", "attacker",
        "--rate", "per30min", "--seed", "7", "--epochs", "0",
        "--out", str(tmp_path / "att.bin"),
    ])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prep", "simulate"])
@pytest.mark.parametrize("damage", ["not-json", "no-labels", "unknown-label", "missing-day"])
def test_malformed_truth_exits_3(corpus_files, tmp_path, capsys, command, damage):
    from amisim.defense import build_defense
    from amisim.nn import init_params, save_params

    traces, truth = corpus_files
    payload = json.loads(truth.read_text())
    if damage == "no-labels":
        del payload["labels"]
    elif damage == "unknown-label":
        payload["labels"]["sm0002|2016-01-02"] = "maybe"
    elif damage == "missing-day":
        del payload["labels"]["sm0001|2016-01-03"]
    text = json.dumps(payload)
    truth.write_text(text[: len(text) // 2] if damage == "not-json" else text)
    if command == "prep":
        argv = ["prep", "--truth", str(truth), "--out", str(tmp_path / "labeled.jsonl")]
    else:  # a defended run, which reads every consumer-day's label
        params = tmp_path / "defense.bin"
        save_params(params, init_params(build_defense("per30min"), seed=0))
        argv = ["simulate", "--truth", str(truth), "--defense-params", str(params),
                "--paillier-bits", "256", "--out", str(tmp_path / "sim.json")]
    code = main(argv + ["--traces", str(traces), "--rate", "per30min", "--seed", "7"])
    assert code == 3
    err = capsys.readouterr().err
    assert {"not-json": "(char ", "no-labels": "'labels'",
            "unknown-label": "'maybe'", "missing-day": "('sm0001', '2016-01-03')"}[damage] in err


@pytest.mark.parametrize("damage,command", [
    ("not-json", "report"), ("missing-key", "report"),
    ("not-json", "eval-patterns"), ("missing-key", "eval-patterns"),
    ("view-not-object", "eval-patterns"), ("view-short-bits", "eval-patterns"),
])
def test_malformed_json_input_exits_3(request, tmp_path, capsys, command, damage):
    bad = tmp_path / "bad.json"
    bad.write_text({"not-json": '{"attacker_view": ', "view-not-object": '{"attacker_view": [1, 2]}'}
                   .get(damage, "{}"))
    if command == "report":
        good_eval = tmp_path / "eval.json"
        good_eval.write_text(json.dumps({"report": {"sr": 0.5}}))
        good_sim = tmp_path / "sim.json"
        good_sim.write_text(json.dumps({"efficiency_percent": 40.0}))
        argv = ["report", "--eval-no-defense", str(good_eval), "--eval-with-defense", str(bad),
                "--sim-no-defense", str(good_sim), "--sim-with-defense", str(good_sim)]
    else:
        traces, truth = request.getfixturevalue("corpus_files")
        labeled = tmp_path / "labeled.jsonl"
        params = tmp_path / "att.bin"
        assert main([
            "prep", "--traces", str(traces), "--rate", "per30min", "--seed", "7",
            "--truth", str(truth), "--out", str(labeled),
        ]) == 0
        assert main([
            "train", "--dataset", str(labeled), "--target", "attacker",
            "--rate", "per30min", "--seed", "7", "--epochs", "0", "--out", str(params),
        ]) == 0
        argv = ["eval", "--dataset", str(labeled), "--params", str(params),
                "--rate", "per30min", "--patterns", str(bad)]
        if damage == "view-short-bits":  # 2 bits for a test-split day of 48 slots
            rows = [json.loads(line) for line in labeled.read_text().splitlines()]
            row = next(r for r in rows if r["split"] == "test")
            bad.write_text(json.dumps({"attacker_view": {f"{row['consumer']}|{row['date']}": [0, 1]}}))
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert "bad.json" in err
    assert {"not-json": "not JSON", "missing-key": "KeyError", "view-not-object": "not an object",
            "view-short-bits": "48 0/1 entries"}[damage] in err


def test_known_defense_and_simulated_view_pipeline(corpus_files, tmp_path):
    traces, truth = corpus_files
    labeled = tmp_path / "labeled.jsonl"
    rate = ["--rate", "per30min", "--seed", "7"]
    train = ["train", "--dataset", str(labeled), "--epochs", "1"] + rate
    files = {name: str(tmp_path / name) for name in (
        "att.bin", "defense.bin", "threeclass.bin", "eval3.json", "sim.json", "evalp.json")}
    for argv in (
        ["prep", "--traces", str(traces), "--truth", str(truth), "--out", str(labeled)] + rate,
        train + ["--target", "attacker", "--out", files["att.bin"]],
        train + ["--target", "defense", "--out", files["defense.bin"]],
        train + ["--target", "threeclass", "--defense-params", files["defense.bin"],
                 "--out", files["threeclass.bin"]],
        ["eval", "--dataset", str(labeled), "--params", files["threeclass.bin"],
         "--rate", "per30min", "--variant", "threeclass",
         "--defense-params", files["defense.bin"], "--out", files["eval3.json"]],
        ["simulate", "--traces", str(traces), "--truth", str(truth), "--paillier-bits", "256",
         "--defense-params", files["defense.bin"], "--out", files["sim.json"]] + rate,
        ["eval", "--dataset", str(labeled), "--params", files["att.bin"], "--rate", "per30min",
         "--patterns", files["sim.json"], "--out", files["evalp.json"]],
    ):
        assert main(argv) == 0, argv
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    test_days = sum(row["split"] == "test" for row in rows)
    assert test_days
    for name in ("eval3.json", "evalp.json"):
        confusion = json.loads((tmp_path / name).read_text())["report"]["confusion"]
        assert sum(map(sum, confusion)) == test_days, name
