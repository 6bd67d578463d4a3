import argparse
import dataclasses
import json
import os
import shlex
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
import yaml

from conftest import ROOT, drop_the_first_instance, list_the_first_instance_twice, rescore
from evarg import harness
from evarg.cli import build_parser, main
from evarg.emitter import PromptStyle
from evarg.harness import SETTING_TYPES, RunConfig, run

BASE = dict(
    ontology_path="fixtures/ontology.yaml",
    train_path="fixtures/train.jsonl",
    test_path="fixtures/test.jsonl",
    k=1,
    selection_mode="same",
    seed=0,
    backend="replay",
    fixture_path="fixtures/completions.jsonl",
)


@pytest.fixture
def config_file(tmp_path, in_repo_root):
    def write(name="cfg.yaml", **overrides):
        path = tmp_path / name
        path.write_text(yaml.safe_dump({**BASE, **overrides}))
        return str(path)

    return write


# --- run -------------------------------------------------------------------


def test_run_writes_golden_report(config_file, tmp_path, golden_dir):
    out = tmp_path / "report.json"
    code = main(["run", "--config", config_file(), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (golden_dir / "run_report.json").read_bytes()


def test_run_prints_report_when_no_out(config_file, capsys, golden_dir):
    assert main(["run", "--config", config_file()]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (golden_dir / "run_report.json").read_bytes()


def test_run_flag_overrides_config_file(config_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--config", config_file(prompt_style="code"), "--style", "t1",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["prompt_style"] == "t1"
    assert report["score"]["micro"]["arg_i"]["f1"] == pytest.approx(52 / 63)


def test_integer_temperature_gives_the_golden_report(config_file, tmp_path, golden_dir):
    """YAML reads ``temperature: 0`` as an int; it must send what ``0.0`` sends."""
    out = tmp_path / "report.json"
    assert main(["run", "--config", config_file(temperature=0), "--out", str(out)]) == 0
    assert out.read_bytes() == (golden_dir / "run_report.json").read_bytes()


def test_run_missing_fixture_entries_exit_3(config_file, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["run", "--config", config_file(fixture_path=str(empty))])
    assert code == 3
    assert "missing from fixtures" in capsys.readouterr().err


def test_run_backend_failure_exit_4(config_file, stub, tmp_path, capsys):
    stub.set_default(400, {"error": "rejected"})
    code = main(
        ["run", "--config", config_file(backend="http", endpoint=stub.url)]
    )
    assert code == 4
    assert "HTTP 400" in capsys.readouterr().err

    # a rejected credential is not retried: a one-instance run sends one request
    first = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines(True)[0]
    one = _write(tmp_path / "one.jsonl", first)
    stub.set_default(401, {"error": "no"})
    sent = len(stub.requests)
    code = main(
        ["run", "--config", config_file(backend="http", endpoint=stub.url, test_path=one)]
    )
    assert code == 4
    assert "rejected credential" in capsys.readouterr().err
    assert len(stub.requests) == sent + 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda tmp: str(tmp / "absent.yaml"),
        lambda tmp: _write(tmp / "list.yaml", "- just\n- a\n- list\n"),
        lambda tmp: _write(tmp / "unknown.yaml", "nonsense_key: 1\n"),
        lambda tmp: _write(tmp / "short.yaml", "k: 1\n"),
        lambda tmp: _write(tmp / "int_key.yaml", "1: x\nfoo: y\n"),
    ],
)
def test_run_bad_config_files_exit_2(tmp_path, in_repo_root, capsys, mutate):
    assert main(["run", "--config", mutate(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", [["run"], ["emit", "--id", "test-001"]])
@pytest.mark.parametrize(
    "override",
    [
        {"prompt_style": "bogus"},
        {"selection_mode": "bogus"},
        {"fixture_path": None},
        # a value of the wrong type
        {"k": "two"},
        {"k": True},
        {"max_in_flight": "4"},
        {"temperature": "hot"},
        # a value out of range
        {"temperature": -1},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"mark_trigger": "no"},
        {"include_keywords": 1},
        {"seed": 1.5},
        {"ontology_path": 3},
        {"model_id": 7},
    ],
)
def test_invalid_config_values_exit_2(config_file, capsys, command, override):
    assert main([*command, "--config", config_file(**override)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(override)) in err


@pytest.mark.parametrize("command", [["run"], ["emit", "--id", "test-001"]])
@pytest.mark.parametrize(
    "old, new",
    [('"role": "agent"', '"role": "pilot"'), ('"entity_type": "PER"', '"entity_type": "ALIEN"')],
    ids=["undefined-role", "unknown-entity-type"],
)
def test_bad_training_example_exit_2_naming_it(config_file, tmp_path, capsys, command, old, new):
    # train-001 is the one example test-001 is shown at k=1
    first, *rest = (ROOT / "fixtures/train.jsonl").read_text().splitlines(keepends=True)
    train = tmp_path / "train.jsonl"
    train.write_text(first.replace(old, new, 1) + "".join(rest))
    assert main([*command, "--config", config_file(train_path=str(train))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "train-001" in err


@pytest.mark.parametrize(
    "bad_line",
    [
        "not json\n",
        '{"response": {"text": ")", "finish_reason": "stop"}}\n',
        '{"digest": "e", "response": {"text": 5, "finish_reason": "stop"}}\n',
    ],
    ids=["not-json", "no-digest", "text-not-string"],
)
def test_run_corrupt_recording_file_exit_2(config_file, tmp_path, capsys, bad_line):
    recording = tmp_path / "rec.jsonl"
    good = {"digest": "d", "response": {"text": ")", "finish_reason": "stop"}}
    recording.write_text(json.dumps(good) + "\n" + bad_line)
    cfg = config_file(
        backend="http", endpoint="http://127.0.0.1:9", record=True, fixture_path=str(recording)
    )
    assert main(["run", "--config", cfg]) == 2
    assert f"{recording}:2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["emit", "--id", "test-001"]])
def test_amr_record_whose_id_is_not_a_string_exit_2(config_file, tmp_path, capsys, command):
    amr = tmp_path / "amr.jsonl"
    amr.write_text('{"id": 5, "amr": "(r / return-01)"}\n')
    assert main([*command, "--config", config_file(amr_path=str(amr))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {amr}:1: bad amr record: ")


@pytest.mark.parametrize(
    "field", ["ontology_path", "train_path", "fixture_path", "amr_path", "config"]
)
def test_non_utf8_input_exit_2_naming_the_file(config_file, tmp_path, capsys, field):
    if field == "config":
        bad = Path(config_file())
        bad.write_bytes(bad.read_bytes() + b"# \xff\n")
        cfg = str(bad)
    else:
        source = ROOT / BASE.get(field, "fixtures/amr.jsonl")
        bad = tmp_path / source.name
        bad.write_bytes(source.read_bytes() + b"\xff\n")
        cfg = config_file(**{field: str(bad)})
    commands = [["run", "--config", cfg]]
    if field == "ontology_path":
        commands.append(["validate", "--ontology", str(bad)])
    if field == "train_path":
        commands.append(["validate", "--ontology", BASE["ontology_path"], "--corpus", str(bad)])
    for command in commands:
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err


def test_run_missing_input_file_exit_2(config_file, capsys):
    code = main(["run", "--config", config_file(train_path="fixtures/nope.jsonl")])
    assert code == 2


def test_key_error_from_a_bug_is_not_reported_as_bad_input(config_file, monkeypatch):
    def broken_score(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(harness, "score", broken_score)
    with pytest.raises(KeyError):
        main(["run", "--config", config_file()])


@pytest.mark.parametrize("command", [["run"], ["emit", "--id", "test-001"]])
def test_every_setting_has_a_flag_with_its_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices[command[0]]._actions}
    for f in dataclasses.fields(RunConfig):
        action = flags[f.name]
        if SETTING_TYPES[f.name] is bool:
            assert isinstance(action, argparse.BooleanOptionalAction), f.name
        else:
            assert action.type is SETTING_TYPES[f.name], f.name
            assert action.choices == f.metadata.get("choices"), f.name
    assert flags["prompt_style"].choices == tuple(style.value for style in PromptStyle)


def test_rejected_flag_value_is_argparse_error(config_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", config_file(), "--style", "prose"])
    assert err.value.code == 2


# --- emit ------------------------------------------------------------------


def test_emit_writes_golden_prompt_bytes(config_file, tmp_path, golden_dir):
    out = tmp_path / "prompt.txt"
    code = main(
        ["emit", "--config", config_file(), "--id", "test-001", "--out-file", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (golden_dir / "prompt_default.txt").read_bytes()


def test_emit_prints_prompt_with_final_newline(config_file, capsys, golden_dir):
    assert main(["emit", "--config", config_file(), "--id", "test-001"]) == 0
    expected = (golden_dir / "prompt_default.txt").read_text() + "\n"
    assert capsys.readouterr().out == expected


def test_emit_style_flag_switches_layout(config_file, capsys, golden_dir):
    code = main(
        ["emit", "--config", config_file(), "--id", "test-001", "--style", "t1"]
    )
    assert code == 0
    expected = (golden_dir / "prompt_t1.txt").read_text() + "\n"
    assert capsys.readouterr().out == expected


def test_emit_boolean_flag_drops_trigger_marking(config_file, capsys):
    code = main(
        ["emit", "--config", config_file(), "--id", "test-001", "--no-mark-trigger"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "**returned**" not in out
    assert "Kim returned to Boston" in out


def test_emit_unknown_id_exit_2(config_file, capsys):
    assert main(["emit", "--config", config_file(), "--id", "test-999"]) == 2
    assert "test-999" in capsys.readouterr().err


# --- compare ---------------------------------------------------------------


@pytest.fixture
def report_file(tmp_path, in_repo_root):
    """Write the report ``run`` gives for the base config with ``overrides``."""

    def write(name="report.json", **overrides):
        path = str(tmp_path / name)
        run(RunConfig(**{**BASE, **overrides, "output_path": path}))
        return path

    return write


def _test_corpus_without_test_001(tmp_path):
    lines = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines(True)
    assert '"test-001"' in lines[0]
    return _write(tmp_path / "short.jsonl", "".join(lines[1:]))


def test_compare_prints_delta_line_when_writing(report_file, tmp_path, capsys):
    out = tmp_path / "compare.json"
    code = main(
        [
            "compare",
            report_file("code.json", prompt_style="code"),
            report_file("t1.json", prompt_style="t1"),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "delta arg_i_f1=+0.0184 arg_c_f1=+0.0188\n"
    assert set(json.loads(out.read_text())) == {"delta"}


def test_compare_prints_full_report_without_out(report_file, capsys):
    code = main(["compare", report_file("a.json"), report_file("b.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"delta": {"arg_i_f1": 0.0, "arg_c_f1": 0.0}}


def test_compare_mismatched_configs_exit_2(report_file, tmp_path, capsys):
    """Reports over different test ids exit 2 naming the first id only one of them holds."""
    full = report_file("full.json")
    short = report_file("short.json", test_path=_test_corpus_without_test_001(tmp_path))
    for first, second in ((full, short), (short, full)):
        assert main(["compare", first, second]) == 2
        err = capsys.readouterr().err
        assert err == f"error: reports cover different ids: 'test-001' is in {full}, not {short}\n"


def test_compare_incomplete_config_exit_2(report_file, tmp_path, capsys):
    report = json.loads(Path(report_file()).read_text(encoding="utf-8"))
    del report["config"]["test_path"]
    incomplete = _write(tmp_path / "short.json", json.dumps(report))
    code = main(["compare", report_file(), incomplete])
    assert code == 2
    assert f"error: report file {incomplete} is malformed: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, times",
    [(drop_the_first_instance, 0), (list_the_first_instance_twice, 2)],
    ids=["dropped-instance", "duplicated-instance"],
)
def test_compare_an_edited_report_exit_2(report_file, tmp_path, capsys, edit, times):
    """An edited report exits 2, even when its score block is recomputed to match."""
    report = json.loads(Path(report_file()).read_text(encoding="utf-8"))
    edit(report)
    rescore(report)
    edited = _write(tmp_path / "edited.json", json.dumps(report))
    assert main(["compare", report_file(), edited]) == 2
    assert f"lists test instance 'test-001' {times} times, not once" in capsys.readouterr().err


def test_readme_quick_start_commands_parse():
    """Each ``evarg`` command in README's Quick start is one the parser accepts."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("evarg ")]
    assert [argv[1] for argv in commands] == [
        "emit", "run", "run", "compare", "variability", "validate"
    ]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README's Quick start command does not parse: {' '.join(argv)}")


# --- variability -----------------------------------------------------------


def test_variability_matches_golden(in_repo_root, capsys, golden_dir):
    code = main(
        [
            "variability",
            "--vectors", "fixtures/vectors.jsonl",
            "--grid", "fixtures/variability_grid.yaml",
        ]
    )
    assert code == 0
    expected = (golden_dir / "variability_report.json").read_text()
    assert capsys.readouterr().out == expected


def test_variability_writes_golden_bytes(in_repo_root, tmp_path, golden_dir):
    out = tmp_path / "variability.json"
    code = main(
        [
            "variability",
            "--vectors", "fixtures/vectors.jsonl",
            "--grid", "fixtures/variability_grid.yaml",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (golden_dir / "variability_report.json").read_bytes()


def test_variability_missing_vector_id_exit_2(in_repo_root, tmp_path, capsys):
    grid = tmp_path / "grid.yaml"
    grid.write_text(
        yaml.safe_dump(
            {
                "clusters": {1: {"Transport": ["train-001", "train-999"]}},
                "arg_c_f1": {1: 0.5},
            }
        )
    )
    code = main(
        ["variability", "--vectors", "fixtures/vectors.jsonl", "--grid", str(grid)]
    )
    assert code == 2
    assert "train-999" in capsys.readouterr().err


def test_variability_mismatched_grid_exit_2(in_repo_root, tmp_path, capsys):
    grid = tmp_path / "grid.yaml"
    grid.write_text(
        yaml.safe_dump(
            {
                "clusters": {1: {"Transport": ["train-001"]}},
                "arg_c_f1": {2: 0.5},
            }
        )
    )
    code = main(
        ["variability", "--vectors", "fixtures/vectors.jsonl", "--grid", str(grid)]
    )
    assert code == 2


def test_variability_constant_f1_has_no_correlation(in_repo_root, tmp_path, capsys):
    grid = yaml.safe_load((ROOT / "fixtures/variability_grid.yaml").read_text())
    grid["arg_c_f1"] = {k: 0.1 for k in grid["arg_c_f1"]}
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(grid))
    code = main(["variability", "--vectors", "fixtures/vectors.jsonl", "--grid", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["correlation"] is None


GRID = {"clusters": {1: {"Transport": ["train-001"]}}, "arg_c_f1": {1: 0.5}}


def _grid(**overrides) -> bytes:
    return yaml.safe_dump({**GRID, **overrides}).encode()


@pytest.mark.parametrize(
    "bad_file, content",
    [
        ("vectors", (ROOT / "fixtures/vectors.jsonl").read_bytes() + b"\xff\n"),
        ("grid", _grid() + b"# \xff\n"),
        ("grid", _grid(clusters={"two": {"Transport": ["train-001"]}})),
        ("grid", _grid(clusters={1: [["train-001"]]})),
        ("grid", _grid(arg_c_f1={1: "high"})),
        ("grid", _grid(arg_c_f1={1: float("nan")})),
        ("grid", _grid(arg_c_f1={1: True})),
        ("grid", _grid(arg_c_f1={1: "0.5"})),
        ("grid", _grid(arg_c_f1={1: 10**400})),
        ("grid", _grid(clusters={1: {"Transport": "train-001"}})),
        ("grid", _grid(clusters={1.5: {"Transport": ["train-001"]}})),
        ("grid", _grid(clusters={True: {"Transport": ["train-001"]}})),
        ("grid", _grid(arg_c_f1={1: 0.5, "01": 0.7})),
    ],
    ids=[
        "vectors-not-utf8",
        "grid-not-utf8",
        "k-not-an-integer",
        "cluster-table-a-list",
        "f1-not-a-number",
        "f1-nan",
        "f1-a-bool",
        "f1-a-numeric-string",
        "f1-too-large-for-a-float",
        "ids-a-string",
        "k-a-float",
        "k-a-bool",
        "k-twice",
    ],
)
def test_variability_bad_input_exit_2_naming_the_file(
    in_repo_root, tmp_path, capsys, bad_file, content
):
    paths = {"vectors": "fixtures/vectors.jsonl", "grid": str(tmp_path / "grid.yaml")}
    Path(paths["grid"]).write_bytes(_grid())
    paths[bad_file] = str(tmp_path / f"bad-{bad_file}")
    Path(paths[bad_file]).write_bytes(content)
    code = main(["variability", "--vectors", paths["vectors"], "--grid", paths["grid"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and paths[bad_file] in err


# --- validate --------------------------------------------------------------


def test_validate_clean_corpus(in_repo_root, capsys):
    code = main(
        [
            "validate",
            "--ontology", "fixtures/ontology.yaml",
            "--corpus", "fixtures/train.jsonl",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_flags_problems_on_stderr(in_repo_root, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    sentence = "Kim returned to Boston ."
    bad.write_text(
        json.dumps(
            {
                "id": "x-1",
                "sentence": sentence,
                "event_type": "Movement:Transport",
                "trigger": {"start": 4, "end": 12, "surface": "returned"},
                "arguments": [
                    {"role": "pilot", "surface": "Kim", "entity_type": "PER", "head": None}
                ],
            }
        )
        + "\n"
    )
    code = main(
        ["validate", "--ontology", "fixtures/ontology.yaml", "--corpus", str(bad)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "pilot" in err


def test_validate_ontology_only(in_repo_root, capsys):
    assert main(["validate", "--ontology", "fixtures/ontology.yaml"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_missing_ontology_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["validate", "--ontology", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read ontology file {missing}: ")


# --- console script and module entry ----------------------------------------


def _assert_cli_exit_codes(command):
    """Run ``command validate ...`` from the source tree in a fresh interpreter.

    A good ontology must print ``ok`` and exit 0; a missing one must exit 2
    with an ``error:`` line, which shows the exit code reaches the process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def call(ontology):
        return subprocess.run(
            [*command, "validate", "--ontology", ontology],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    ok = call("fixtures/ontology.yaml")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.strip() == "ok"
    missing = call("fixtures/missing.yaml")
    assert missing.returncode == 2, missing.stderr
    assert missing.stderr.startswith("error:")


def test_console_script_is_installed_and_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    ep = EntryPoint(
        name="evarg",
        value=pyproject["project"]["scripts"]["evarg"],
        group="console_scripts",
    )
    assert callable(ep.load())
    # What an installer's launcher script does with the declaration.
    launcher = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    _assert_cli_exit_codes([sys.executable, "-c", launcher])
    exe = shutil.which("evarg")
    if exe:
        _assert_cli_exit_codes([exe])


@pytest.mark.parametrize("module", ["evarg", "evarg.cli"])
def test_python_dash_m_runs_cli(module):
    _assert_cli_exit_codes([sys.executable, "-m", module])
