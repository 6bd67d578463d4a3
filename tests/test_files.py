"""Input files: every JSON-lines loader reads and reports through ``files.read_jsonl``,
and every YAML input is parsed by the one loader ``files`` chooses."""

import json

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from conftest import ROOT
from evarg import files
from evarg.cli import main
from evarg.client import CompletionRequest, RecordingBackend, ReplayBackend
from evarg.corpus import load_corpus
from evarg.harness import ConfigError, load_amr
from evarg.variability import load_vectors

# JSON allows these unescaped in a string; str.splitlines() breaks lines at them
SEPARATORS = "a\u2028b\u2029c\u0085d"

# loader name -> (a record holding SEPARATORS, the loader reading it back, what)
LOADERS = {
    "corpus": (
        {
            "id": "x-1",
            "sentence": f"Kim returned {SEPARATORS}",
            "event_type": "Movement:Transport",
            "trigger": {"start": 4, "end": 12, "surface": "returned"},
        },
        lambda path: load_corpus(path, "train").by_id("x-1").sentence[len("Kim returned "):],
        "train",
    ),
    "amr": (
        {"id": "x-1", "amr": SEPARATORS},
        lambda path: load_amr(path)["x-1"],
        "amr",
    ),
    "fixture": (
        {"digest": "d", "response": {"text": SEPARATORS, "finish_reason": "stop"}},
        lambda path: ReplayBackend(path).complete(CompletionRequest(prompt="p"), "d").text,
        "fixture",
    ),
    "vector": (
        {"example_id": SEPARATORS, "values": [1.0, 2.0]},
        lambda path: next(iter(load_vectors(path))),
        "vector",
    ),
}


@pytest.mark.parametrize("loader", LOADERS)
def test_line_separators_inside_a_string_stay_in_the_record(tmp_path, loader):
    record, read, _ = LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text("\n" + json.dumps(record, ensure_ascii=False) + "\n\n", encoding="utf-8")
    assert read(str(path)) == SEPARATORS


@pytest.mark.parametrize("loader", LOADERS)
def test_missing_file_raises_the_loaders_error_naming_the_path(tmp_path, loader):
    _, read, what = LOADERS[loader]
    path = str(tmp_path / "absent.jsonl")
    with pytest.raises(ConfigError) as err:
        read(path)
    assert str(err.value).startswith(f"cannot read {what} file {path}: ")


@pytest.mark.parametrize("loader", LOADERS)
def test_line_that_is_not_json_names_its_position(tmp_path, loader):
    record, read, what = LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(record) + "\nnot json\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read(str(path))
    assert str(err.value).startswith(f"{path}:2: bad {what} record: invalid JSON: ")


def _with_escape(record, escape):
    """``record`` as an ASCII JSON line whose SEPARATORS string is ``escape``, as written."""
    line, escaped = json.dumps(record), json.dumps(SEPARATORS)[1:-1]
    assert escaped in line
    return line.replace(escaped, escape)


@pytest.mark.parametrize("escape", ["\\ud800", "x\\uDFFF", "\\ude00\\ud83d"])
@pytest.mark.parametrize("loader", LOADERS)
def test_lone_surrogate_escape_names_its_position(tmp_path, loader, escape):
    record, read, what = LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(record) + "\n" + _with_escape(record, escape) + "\n")
    with pytest.raises(ConfigError) as err:
        read(str(path))
    assert str(err.value).startswith(f"{path}:2: bad {what} record: ")
    assert str(err.value).endswith(": surrogates not allowed")


@pytest.mark.parametrize(
    "line, escape, column",
    [
        ('{"text":"é\\ud800"}', "\\ud800", 11),
        ('{"text":"\\u00e9\\ud800"}', "\\ud800", 16),
        ('{"a": "\\\\ud800", "text": "x\\ud83d\\n\\ude00"}', "\\ud83d", 28),
        ('{"text": "\\ud83d\\ude00\\udfff"}', "\\udfff", 23),
    ],
    ids=["after-a-character", "after-an-escape", "after-a-backslash", "after-a-pair"],
)
def test_lone_surrogate_message_gives_the_column_in_the_file(tmp_path, line, escape, column):
    """The column counts characters of the line as written, not as Python re-serialises it."""
    path = tmp_path / "input.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert line[column - 1 :].startswith(escape)
    with pytest.raises(ConfigError) as err:
        load_corpus(str(path), "test")
    assert str(err.value) == (
        f"{path}:1: bad test record: escape {escape} at column {column}: surrogates not allowed"
    )


@given(
    st.lists(
        st.sampled_from(
            ["a", "é", "\\\\", "\\n", "\\u00e9", "\\ud83d", "\\uDBFF", "\\ude00", "\\uDC00"]
        ),
        max_size=8,
    )
)
def test_lone_surrogate_check_agrees_with_utf8_encoding(pieces):
    """The escape named is the first character that UTF-8 cannot encode, if any."""
    line = '{"a": "' + "".join(pieces) + '", "b": "' + "".join(reversed(pieces)) + '"}'
    try:
        json.dumps(json.loads(line), ensure_ascii=False).encode("utf-8")
        expected = None
    except UnicodeEncodeError as exc:
        expected = exc.object[exc.start]
    try:
        files._reject_lone_surrogate(line)
        named = None
    except ValueError as exc:
        escape, column = str(exc).split()[1], int(str(exc).split()[4].rstrip(":"))
        assert line[column - 1 :].startswith(escape)
        named = json.loads(f'"{escape}"')
    assert named == expected


@pytest.mark.parametrize("loader", LOADERS)
def test_surrogate_pair_escape_loads_as_its_character(tmp_path, loader):
    record, read, _ = LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text(_with_escape(record, "\\ud83d\\ude00") + "\n")
    assert read(str(path)) == "\U0001F600"


def test_cli_rejects_a_test_corpus_with_a_lone_surrogate(tmp_path, in_repo_root, capsys):
    first, *rest = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines(True)
    corpus = tmp_path / "test.jsonl"
    corpus.write_text("".join(rest) + first.replace(' ."', ' \\ud800 ."', 1), "utf-8")
    assert "\\ud800" in corpus.read_text("utf-8")
    inputs = [
        "--ontology", "fixtures/ontology.yaml", "--train", "fixtures/train.jsonl",
        "--test", str(corpus), "--fixtures", "fixtures/completions.jsonl",
    ]
    for argv in (
        ["validate", "--ontology", "fixtures/ontology.yaml", "--corpus", str(corpus),
         "--split", "test"],
        ["emit", *inputs, "--id", "test-002"],
        ["run", *inputs],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{corpus}:{len(rest) + 1}: bad test record: " in err
        assert "surrogates not allowed" in err and "Traceback" not in err


def test_recording_backend_serves_a_recorded_line_separator(tmp_path):
    record, _, _ = LOADERS["fixture"]
    path = tmp_path / "recording.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    backend = RecordingBackend(inner=None, fixture_path=str(path))
    assert backend.complete(CompletionRequest(prompt="p"), "d").text == SEPARATORS


def test_cli_reads_a_test_corpus_with_a_line_separator(tmp_path, in_repo_root, capsys):
    first, *rest = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines(True)
    record = json.loads(first)
    assert record["id"] == "test-001"
    record["sentence"] += " " + SEPARATORS
    corpus = tmp_path / "test.jsonl"
    corpus.write_text(json.dumps(record, ensure_ascii=False) + "\n" + "".join(rest), "utf-8")

    validate = ["validate", "--ontology", "fixtures/ontology.yaml", "--corpus", str(corpus)]
    assert main([*validate, "--split", "test"]) == 0
    emit = [
        "emit", "--ontology", "fixtures/ontology.yaml", "--train", "fixtures/train.jsonl",
        "--test", str(corpus), "--fixtures", "fixtures/completions.jsonl", "--id", "test-001",
    ]
    assert main(emit) == 0
    assert SEPARATORS in capsys.readouterr().out


# --- YAML inputs -----------------------------------------------------------


def _readme_run_yaml():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("A minimal `run.yaml`:\n\n```yaml\n", 1)[1].split("```", 1)[0]


YAML_DOCUMENTS = {
    "ontology": lambda: (ROOT / "fixtures/ontology.yaml").read_text(encoding="utf-8"),
    "grid": lambda: (ROOT / "fixtures/variability_grid.yaml").read_text(encoding="utf-8"),
    "readme-run-config": _readme_run_yaml,
}


def test_yaml_loader_is_libyaml_when_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert files.YAML_LOADER is expected


@pytest.mark.parametrize("document", YAML_DOCUMENTS)
def test_chosen_yaml_loader_agrees_with_the_pure_python_loader(tmp_path, document):
    text = YAML_DOCUMENTS[document]()
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert isinstance(expected, dict) and expected
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    assert files.read_yaml(str(path), document) == expected


# input -> (the command reading the file at {path}, the start of its error message)
YAML_INPUTS = {
    "config": (["run", "--config", "{path}"], "error: config file {path} is not valid YAML: "),
    "grid": (
        ["variability", "--vectors", "fixtures/vectors.jsonl", "--grid", "{path}"],
        "error: grid file {path} is not valid YAML: ",
    ),
    "ontology": (
        ["validate", "--ontology", "{path}"], "error: ontology file {path} is not valid YAML: "
    ),
}


@pytest.mark.parametrize("what", YAML_INPUTS)
@pytest.mark.parametrize(
    "text", ["k: 1\nseed: \x07\n", "k: 1\n  seed: 0\n"], ids=["control-character", "indentation"]
)
def test_invalid_yaml_exit_2_with_its_message(tmp_path, in_repo_root, capsys, what, text):
    path = tmp_path / f"{what}.yaml"
    path.write_text(text, encoding="utf-8")
    command, prefix = YAML_INPUTS[what]
    assert main([arg.format(path=path) for arg in command]) == 2
    assert capsys.readouterr().err.startswith(prefix.format(path=path))
