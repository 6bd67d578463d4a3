"""JSON-lines inputs: every loader reads and reports through ``files.read_jsonl``."""

import json

import pytest

from conftest import ROOT
from evarg.cli import main
from evarg.client import BackendError, CompletionRequest, RecordingBackend, ReplayBackend
from evarg.corpus import CorpusError, load_corpus
from evarg.harness import ConfigError, load_amr
from evarg.variability import VariabilityError, load_vectors

# JSON allows these unescaped in a string; str.splitlines() breaks lines at them
SEPARATORS = "a\u2028b\u2029c\u0085d"

# loader name -> (a record holding SEPARATORS, the loader reading it back, its error, what)
LOADERS = {
    "corpus": (
        {
            "id": "x-1",
            "sentence": f"Kim returned {SEPARATORS}",
            "event_type": "Movement:Transport",
            "trigger": {"start": 4, "end": 12, "surface": "returned"},
        },
        lambda path: load_corpus(path, "train").by_id("x-1").sentence[len("Kim returned "):],
        CorpusError,
        "train",
    ),
    "amr": (
        {"id": "x-1", "amr": SEPARATORS},
        lambda path: load_amr(path)["x-1"],
        ConfigError,
        "amr",
    ),
    "fixture": (
        {"digest": "d", "response": {"text": SEPARATORS, "finish_reason": "stop"}},
        lambda path: ReplayBackend(path).complete(CompletionRequest(prompt="p"), "d").text,
        BackendError,
        "fixture",
    ),
    "vector": (
        {"example_id": SEPARATORS, "values": [1.0, 2.0]},
        lambda path: next(iter(load_vectors(path))),
        VariabilityError,
        "vector",
    ),
}


@pytest.mark.parametrize("loader", LOADERS)
def test_line_separators_inside_a_string_stay_in_the_record(tmp_path, loader):
    record, read, _, _ = LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text("\n" + json.dumps(record, ensure_ascii=False) + "\n\n", encoding="utf-8")
    assert read(str(path)) == SEPARATORS


@pytest.mark.parametrize("loader", LOADERS)
def test_missing_file_raises_the_loaders_error_naming_the_path(tmp_path, loader):
    _, read, error, what = LOADERS[loader]
    path = str(tmp_path / "absent.jsonl")
    with pytest.raises(error) as err:
        read(path)
    assert str(err.value).startswith(f"cannot read {what} file {path}: ")


@pytest.mark.parametrize("loader", LOADERS)
def test_line_that_is_not_json_names_its_position(tmp_path, loader):
    record, read, error, what = LOADERS[loader]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(record) + "\nnot json\n", encoding="utf-8")
    with pytest.raises(error) as err:
        read(str(path))
    assert str(err.value).startswith(f"{path}:2: bad {what} record: invalid JSON: ")


def test_recording_backend_serves_a_recorded_line_separator(tmp_path):
    record, _, _, _ = LOADERS["fixture"]
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
