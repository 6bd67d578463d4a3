"""Input files: every JSON-lines loader reads and reports through ``files.read_jsonl``,
and every YAML input is parsed by the one loader ``files`` chooses. Reports are
written as ``files.json_text`` spells JSON."""

import collections
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ROOT, k_reports, reference_load_corpus
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
        lambda path: ReplayBackend(path).stored("d")[0],
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


def _loads_outcome(line):
    """``json.loads(line)``, or its error as ``read_jsonl`` words it."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    except (ValueError, RecursionError) as exc:
        return str(exc)


# line -> the record ``read_jsonl`` reads from it, or the error it names; None: as json.loads
SCANNED_LINES = {
    "trailing-blanks": ('{"a": 1} \t \n', None),
    "no-final-newline": ('{"a": 1}', None),
    "bom": ('\ufeff{"a": 1}\n', None),
    "leading-blanks": (' \t{"a": 1}\n', None),
    "nan-and-infinity": ('{"a": NaN, "b": Infinity, "c": -Infinity}\n', None),
    "5000-digit-integer": ('{"a": ' + "7" * 5000 + "}\n", None),
    "deep-nesting": ('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}\n", None),
    "u2028-in-a-string": ('{"a": "x\u2028y"}\n', None),
    "lone-surrogate": (
        '{"a": "\\ud800"}\n', "escape \\ud800 at column 8: surrogates not allowed"
    ),
    "extra-data": ('{"a": 1} {"b": 2}\n', None),
}


@pytest.mark.parametrize("case", SCANNED_LINES)
def test_a_line_reads_as_json_loads_reads_it(tmp_path, case):
    line, expected = SCANNED_LINES[case]
    expected = _loads_outcome(line) if expected is None else expected
    path = tmp_path / "input.jsonl"
    path.write_text(line, encoding="utf-8")
    records = []
    try:
        files.read_jsonl(path, "x", records.append)
    except ConfigError as exc:
        assert str(exc) == f"{path}:1: bad x record: {expected}"
    else:
        assert isinstance(expected, dict)
        assert json.dumps(records) == json.dumps([expected])  # NaN is not equal to itself


def test_a_5000_digit_integer_exits_2_naming_its_line(tmp_path, in_repo_root, capsys):
    path = tmp_path / "train.jsonl"
    path.write_text(SCANNED_LINES["5000-digit-integer"][0], encoding="utf-8")
    assert main([*RUN_FROM_FIXTURES, "--train", str(path)]) == 2
    message = "bad train record: Exceeds the limit (4300 digits) for integer string conversion"
    assert capsys.readouterr().err.startswith(f"error: {path}:1: {message}")


@pytest.mark.parametrize("blank", ["\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\x0b"])
def test_only_json_whitespace_makes_a_line_blank(tmp_path, blank):
    """A line of JSON whitespace is skipped; any other character alone on a line is an error."""
    path = tmp_path / "input.jsonl"
    path.write_text(' \t\n{"a": 1}\n\n' + blank + "\n", encoding="utf-8")
    records = []
    with pytest.raises(ConfigError) as err:
        files.read_jsonl(path, "x", records.append)
    assert str(err.value).startswith(f"{path}:4: bad x record: invalid JSON: ")
    assert records == [{"a": 1}]


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
    assert backend.complete(CompletionRequest(prompt="p"), "d") == (SEPARATORS, "stop")


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
    "ontology": (
        ["validate", "--ontology", "{path}"], "error: ontology file {path} is not valid YAML: "
    ),
}


@pytest.mark.parametrize("what", YAML_INPUTS)
@pytest.mark.parametrize(
    "text",
    ["k: 1\nseed: \x07\n", "k: 1\n  seed: 0\n", "k: 1\nseed: 2001-13-01\n", "k: 1" + "0" * 4300],
    ids=["control-character", "indentation", "impossible-date", "int-of-4301-digits"],
)
def test_invalid_yaml_exit_2_with_its_message(tmp_path, in_repo_root, capsys, what, text):
    path = tmp_path / f"{what}.yaml"
    path.write_text(text, encoding="utf-8")
    command, prefix = YAML_INPUTS[what]
    assert main([arg.format(path=path) for arg in command]) == 2
    assert capsys.readouterr().err.startswith(prefix.format(path=path))


@pytest.mark.parametrize("loader", [yaml.SafeLoader, files.YAML_LOADER], ids=["python", "chosen"])
def test_yaml_nested_to_the_bound_loads_and_deeper_is_refused(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(files, "YAML_LOADER", loader)
    bound = files.MAX_YAML_DEPTH
    path = tmp_path / "config.yaml"
    path.write_text("[" * bound + "]" * bound, encoding="utf-8")
    value = files.read_yaml(path, "config")
    for _ in range(bound - 1):
        (value,) = value
    assert value == []
    path.write_text("- " * bound + "[]", encoding="utf-8")  # block sequences, then a flow one
    message = f"config file {path} nests deeper than {bound} levels"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        files.read_yaml(path, "config")


RUN_FROM_FIXTURES = [
    "run", "--ontology", "fixtures/ontology.yaml", "--train", "fixtures/train.jsonl",
    "--test", "fixtures/test.jsonl", "--fixtures", "fixtures/completions.jsonl",
]
# input -> the command reading it at {path}; later flags override earlier ones
NESTING_BOMB_INPUTS = {
    "ontology": ["validate", "--ontology", "{path}"],
    "config": ["run", "--config", "{path}"],
    "train": [*RUN_FROM_FIXTURES, "--train", "{path}"],
    "test": [*RUN_FROM_FIXTURES, "--test", "{path}"],
    "fixture": [*RUN_FROM_FIXTURES, "--fixtures", "{path}"],
    "amr": [*RUN_FROM_FIXTURES, "--amr", "{path}"],
    "vectors": ["variability", "--vectors", "{path}", "fixtures/golden/run_report.json"],
    "report": ["compare", "{path}", "fixtures/golden/run_report.json"],
    "variability-report": ["variability", "--vectors", "fixtures/vectors.jsonl", "{path}"],
}


@pytest.mark.parametrize("what", NESTING_BOMB_INPUTS)
def test_a_nesting_bomb_in_any_input_exits_2_naming_it(tmp_path, what):
    """A fresh interpreter, because a parser that recurses too deep in C kills it."""
    path = tmp_path / f"{what}.bomb"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [arg.format(path=path) for arg in NESTING_BOMB_INPUTS[what]]
    result = subprocess.run(
        [sys.executable, "-m", "evarg", *command],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert str(path) in result.stderr
    assert "Traceback" not in result.stderr


# input -> what its error message calls a record of it
JSON_LINES_INPUTS = {"train": "train", "test": "test", "fixture": "fixture", "amr": "amr",
                     "vectors": "vector"}


@pytest.mark.parametrize("what", JSON_LINES_INPUTS)
def test_a_line_that_is_not_an_object_exits_2_naming_it(tmp_path, in_repo_root, capsys, what):
    path = tmp_path / f"{what}.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    assert main([arg.format(path=path) for arg in NESTING_BOMB_INPUTS[what]]) == 2
    message = f"bad {JSON_LINES_INPUTS[what]} record: record must be an object, not [1, 2]"
    assert capsys.readouterr().err == f"error: {path}:1: {message}\n"


HUGE = [0] * 300_000  # its repr is 900,000 characters
HUGE_TEXT = "x" * 300_000
_CORPUS_RECORD = LOADERS["corpus"][0]
_HEAD_ARGUMENT = {"role": "agent", "surface": "Kim", "entity_type": "PER"}
# case -> (input, its lines, the start of the last line's error message after
# "bad <what> record: ")
HUGE_VALUES = {
    "record": ("fixture", [HUGE], "record must be an object, not [0, 0, 0, 0, 0, 0, ...]"),
    "response": ("fixture", [{"digest": "d", "response": HUGE}], "response must be an object"),
    "string-field": ("amr", [{"id": HUGE, "amr": "x"}], "id must be a string"),
    "trigger": ("train", [{**_CORPUS_RECORD, "trigger": HUGE}], "trigger must be an object"),
    "offsets": (
        "train",
        [{**_CORPUS_RECORD, "trigger": {"start": HUGE, "end": 1, "surface": "x"}}],
        "offsets must be integers",
    ),
    "argument": ("train", [{**_CORPUS_RECORD, "arguments": [HUGE]}], "argument [0, 0,"),
    "head": (
        "train",
        [{**_CORPUS_RECORD, "arguments": [{**_HEAD_ARGUMENT, "head": HUGE}]}],
        "head must be an object",
    ),
    "sentence": ("test", [{**_CORPUS_RECORD, "sentence": HUGE}], "sentence must be a string"),
    "trigger-surface": (
        "train",
        [{**_CORPUS_RECORD, "trigger": {**_CORPUS_RECORD["trigger"], "surface": HUGE_TEXT}}],
        "trigger surface mismatch for instance 'x-1': 'returned' != 'xxxxxxxxxxxx...",
    ),
    "duplicate-instance-id": (
        "train", [{**_CORPUS_RECORD, "id": HUGE_TEXT}] * 2, "duplicate instance id 'xxx"
    ),
    "empty-amr": ("amr", [{"id": HUGE_TEXT, "amr": " "}], "empty amr for 'xxx"),
    "duplicate-amr-id": ("amr", [{"id": HUGE_TEXT, "amr": "x"}] * 2, "duplicate id 'xxx"),
    "vector-values": (
        "vectors",
        [{"example_id": "e", "values": HUGE_TEXT}],
        "values must be a list of numbers, not 'xxxxxxxxxxxx...xxxxxxxxxxxxx'",
    ),
    "vector-value": (
        "vectors",
        [{"example_id": "e", "values": [HUGE_TEXT]}],
        "'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not a number",
    ),
    "duplicate-vector-id": (
        "vectors", [{"example_id": HUGE_TEXT, "values": [1.0]}] * 2, "duplicate id 'xxx"
    ),
}


@pytest.mark.parametrize("case", HUGE_VALUES)
def test_a_huge_value_in_an_error_is_quoted_short(tmp_path, in_repo_root, capsys, case):
    what, records, message = HUGE_VALUES[case]
    path = tmp_path / f"{what}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main([arg.format(path=path) for arg in NESTING_BOMB_INPUTS[what]]) == 2
    err = capsys.readouterr().err
    where = f"{path}:{len(records)}"  # the last line
    assert err.startswith(f"error: {where}: bad {JSON_LINES_INPUTS[what]} record: {message}")
    assert err.count("\n") == 1 and len(err) < len(str(path)) + 300


def test_a_report_naming_a_huge_missing_id_is_quoted_short(tmp_path, in_repo_root, capsys):
    train = tmp_path / "train.jsonl"
    train.write_text(
        (ROOT / "fixtures/train.jsonl").read_text(encoding="utf-8").replace("train-001", HUGE_TEXT),
        encoding="utf-8",
    )
    reports = k_reports(tmp_path, ks=(1,), train_path=str(train))
    assert main(["variability", "--vectors", "fixtures/vectors.jsonl", *reports]) == 2
    quoted = "['xxxxxxxxxxxx...xxxxxxxxxxxxx']"
    assert capsys.readouterr().err == f"error: vector file lacks ids {quoted} for 'Transport'\n"


@pytest.mark.parametrize(
    "value",
    [[1, 2], {"b": 1, "a": [2]}, "x" * (files.MAX_QUOTED - 2), 10 ** (files.MAX_QUOTED - 1)],
    ids=["list", "dict-in-its-order", "longest-string", "longest-integer"],
)
def test_a_value_with_a_short_repr_is_quoted_whole(value):
    assert files.short_repr(value) == repr(value)
    assert len(repr(value)) <= files.MAX_QUOTED


def test_a_repr_one_character_too_long_is_abbreviated():
    value = "x" * (files.MAX_QUOTED - 1)
    assert len(repr(value)) == files.MAX_QUOTED + 1
    assert files.short_repr(value) == "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"


# fixture file -> the command reading it, run in a directory holding a copy of fixtures/
MUTATED_INPUTS = {
    "ontology.yaml": RUN_FROM_FIXTURES,
    "train.jsonl": RUN_FROM_FIXTURES,
    "test.jsonl": RUN_FROM_FIXTURES,
    "completions.jsonl": RUN_FROM_FIXTURES,
    "amr.jsonl": [*RUN_FROM_FIXTURES, "--amr", "fixtures/amr.jsonl"],
    "vectors.jsonl": NESTING_BOMB_INPUTS["vectors"],
    "golden/run_report.json": ["compare", *["fixtures/golden/run_report.json"] * 2],
    "run.yaml": ["run", "--config", "fixtures/run.yaml"],
}
INSERTED = [b"NaN", b'"\\ud800"', b"1e999", b"[]"]


def _mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    """``data`` truncated, with a bit flipped, a token inserted, a line duplicated,
    a byte deleted or its lines shuffled."""
    at = rng.randrange(len(data))
    lines = data.splitlines(keepends=True)
    kind = rng.randrange(6)
    if kind == 0:
        return data[:at]
    if kind == 1:
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == 2:
        return data[:at] + rng.choice(INSERTED) + data[at:]
    if kind == 3:
        line = rng.randrange(len(lines))
        return b"".join(lines[:line + 1] + lines[line:])
    if kind == 4:
        return data[:at] + data[at + 1:]
    rng.shuffle(lines)
    return b"".join(lines)


def test_a_seeded_mutation_of_any_input_never_ends_in_a_traceback(
    fixtures_dir, tmp_path, monkeypatch, capsys
):
    """Each mutated input file gives one of the documented exit codes and raises nothing."""
    shutil.copytree(fixtures_dir, tmp_path / "fixtures")
    (tmp_path / "fixtures" / "run.yaml").write_text(_readme_run_yaml(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rng = random.Random(7)
    codes = collections.Counter()
    for n in range(300):
        name = rng.choice(list(MUTATED_INPUTS))
        path = tmp_path / "fixtures" / name
        original = path.read_bytes()
        path.write_bytes(_mutate_bytes(original, rng))
        try:
            code = main(MUTATED_INPUTS[name])
        finally:
            path.write_bytes(original)
        assert code in (0, 2, 3, 4), (n, name)
        codes[code] += 1
        capsys.readouterr()
    assert codes[0] and codes[2]


ODD_VALUES = [None, False, True, 0, -1, 2, 1.5, "", "x", [], [1], {}, {"start": 0, "end": 1}]


def _mutate_value(data: bytes, rng: random.Random) -> bytes:
    """``data``, JSON lines, with one to three values on one line each replaced by an odd
    value or deleted; an object may gain a ``head`` key."""
    lines = data.decode("utf-8").splitlines(keepends=True)
    at = rng.randrange(len(lines))
    record = json.loads(lines[at])
    for _ in range(rng.randint(1, 3)):
        node = record
        while True:
            keys = [*node, "head"] if isinstance(node, dict) else range(len(node))
            key = rng.choice(keys)
            child = node[key] if key != "head" else None
            if isinstance(child, (dict, list)) and child and rng.random() < 0.75:
                node = child
            elif isinstance(node, dict) and key in node and rng.random() < 0.2:
                del node[key]
                break
            else:
                node[key] = rng.choice(ODD_VALUES)
                break
    lines[at] = json.dumps(record) + "\n"
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("mutate", [_mutate_bytes, _mutate_value], ids=["bytes", "values"])
@pytest.mark.parametrize("name", ["train.jsonl", "test.jsonl"])
def test_load_corpus_reads_any_file_as_the_field_by_field_reader_does(
    fixtures_dir, tmp_path, name, mutate
):
    """The shipped corpus and 300 seeded mutations of it: equal datasets or equal errors."""
    original = (fixtures_dir / name).read_bytes()
    path = tmp_path / name
    rng = random.Random(11)
    outcomes = collections.Counter()
    for n in range(301):
        path.write_bytes(original if n == 0 else mutate(original, rng))
        try:
            expected = reference_load_corpus(path, "train")
        except ConfigError as exc:
            with pytest.raises(ConfigError) as err:
                load_corpus(path, "train")
            assert str(err.value) == str(exc), n
            outcomes["error"] += 1
        else:
            assert load_corpus(path, "train") == expected, n
            outcomes["dataset"] += 1
    assert outcomes["error"] and outcomes["dataset"] > 1


# --- writing JSON ------------------------------------------------------------

_JSON_STRINGS = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\\u2028\u2029\x00\x1f\x7fé中')),
    max_size=12,
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    st.sampled_from([-0.0, 1e-7, 1e300, math.nan, math.inf, -math.inf]),
    _JSON_STRINGS,
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(_JSON_STRINGS, children, max_size=4)
    ),
    max_leaves=30,
)


def _nested(depth):
    value = []
    for level in range(depth):
        value = {"k": value} if level % 2 else [value, {}]
    return value


@settings(max_examples=200)
@given(_JSON_TREES)
@example(_nested(60))
@example('é\u2028"\\\x00')
@example({"": [], "a": {}, "\u2028": [[], {}, [{}]]})
def test_json_text_is_what_json_dumps_writes_for_a_report(value):
    assert files.json_text(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)



@settings(max_examples=200)
@given(_JSON_TREES, st.integers(min_value=1, max_value=8))
@example(_nested(60), 1)
def test_write_json_pieces_join_to_json_text(value, batch):
    pieces = []
    default, files.JSON_BATCH = files.JSON_BATCH, batch
    try:
        files.write_json(value, pieces.append)
    finally:
        files.JSON_BATCH = default
    assert "".join(pieces) == files.json_text(value)
