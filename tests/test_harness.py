import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import MISSING, fields, replace
from types import SimpleNamespace

import pytest
import yaml

from conftest import ROOT, drop_the_first_instance, list_the_first_instance_twice, rescore
from evarg import client, corpus, harness
from evarg.client import BackendError, HttpBackend, ReplayBackend, request_digest
from evarg.corpus import split_hierarchy
from evarg.harness import (
    ConfigError,
    MissingFixtures,
    RunConfig,
    compare,
    load_report,
    prepare,
    run,
    write_report,
)

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
def cfg_code(in_repo_root):
    return RunConfig(prompt_style="code", **BASE)


@pytest.fixture
def cfg_t1(in_repo_root):
    return RunConfig(prompt_style="t1", **BASE)


def synth_fixture(cfg: RunConfig, path, respond) -> None:
    """Record fixture entries for every prompt a config would send."""
    plan = prepare(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        for inst in plan.test.instances:
            text, finish = respond(inst)
            response = {"text": text, "finish_reason": finish}
            fh.write(json.dumps({"digest": plan.task(inst).digest, "response": response}) + "\n")


# --- golden replay run -----------------------------------------------------


def test_run_matches_golden_report_bytes(cfg_code, golden_dir, tmp_path):
    report = run(cfg_code)
    out = tmp_path / "report.json"
    write_report(report, str(out))
    assert out.read_bytes() == (golden_dir / "run_report.json").read_bytes()


def test_run_is_deterministic(cfg_code):
    a = json.dumps(run(cfg_code), sort_keys=True)
    b = json.dumps(run(cfg_code), sort_keys=True)
    assert a == b


def test_run_micro_scores(cfg_code):
    micro = run(cfg_code)["score"]["micro"]
    assert micro["arg_i"]["f1"] == pytest.approx(0.84375, abs=1e-9)
    assert micro["arg_c"]["f1"] == pytest.approx(0.8125, abs=1e-9)


def test_run_report_structure(cfg_code):
    report = run(cfg_code)
    assert set(report) == {"config", "instances", "skipped", "shortfall", "score"}
    assert "output_path" not in report["config"]
    assert [i["id"] for i in report["instances"]] == [
        f"test-{n:03d}" for n in range(1, 13)
    ]
    for entry in report["instances"]:
        assert len(entry["prompt_digest"]) == 64
        assert entry["prompt_chars"] > 0
        assert len(entry["example_ids"]) == 1
    assert report["skipped"] == []
    assert report["shortfall"] == {}


def test_run_per_instance_diagnostics(cfg_code):
    report = run(cfg_code)
    by_id = {entry["id"]: entry for entry in report["instances"]}

    def kinds(instance_id):
        return {d["kind"] for d in by_id[instance_id]["parsed"]["diagnostics"]}

    assert by_id["test-001"]["parsed"]["diagnostics"] == []
    assert by_id["test-001"]["example_ids"] == ["train-001"]
    assert by_id["test-004"]["finish_reason"] == "length"
    assert "truncated" in kinds("test-004")
    assert "unknown_role" in kinds("test-005")
    assert "unknown_entity_type" in kinds("test-006")
    assert "duplicate_role" in kinds("test-011")
    assert "malformed_tail" in kinds("test-012")
    assert report["score"]["ungrounded_count"] == 1


def test_concurrency_width_does_not_change_results(cfg_code):
    serial = run(replace(cfg_code, max_in_flight=1))
    wide = run(replace(cfg_code, max_in_flight=8))
    assert serial["instances"] == wide["instances"]
    assert serial["score"] == wide["score"]


def test_run_writes_output_path(cfg_code, tmp_path):
    out = tmp_path / "sub" / "report.json"
    report = run(replace(cfg_code, output_path=str(out)))
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(report))


# --- the plan's shared preambles --------------------------------------------


@pytest.mark.parametrize(
    "name, overrides, instance_id, neighbour_id",
    [
        ("prompt_default.txt", {}, "test-001", "test-002"),
        ("prompt_keywords.txt", {"include_keywords": True}, "test-001", "test-002"),
        ("prompt_flat.txt", {"include_hierarchy": False}, "test-001", "test-002"),
        ("prompt_t1.txt", {"prompt_style": "t1"}, "test-001", "test-002"),
        ("prompt_t2.txt", {"prompt_style": "t2"}, "test-001", "test-002"),
        ("prompt_amr.txt", {"amr_path": "fixtures/amr.jsonl"}, "test-001", "test-002"),
        ("prompt_sibling.txt", {"selection_mode": "sibling"}, "test-006", "test-007"),
    ],
)
def test_plan_prompt_equals_the_golden_prompt(
    cfg_code, golden_dir, name, overrides, instance_id, neighbour_id
):
    """The golden prompt, whether the plan builds its preamble or reuses one built for
    ``neighbour_id``, an instance of the same type given the same examples."""
    golden = (golden_dir / name).read_text(encoding="utf-8")
    cfg = replace(cfg_code, **overrides)
    built = prepare(cfg)
    reused = prepare(cfg)
    reused.task(reused.test.by_id(neighbour_id))
    for plan in (built, reused):
        task = plan.task(plan.test.by_id(instance_id))
        assert task.bundle.text == golden
        assert task.digest == request_digest(task.request)


def test_replay_run_builds_each_preamble_once_and_hashes_each_request_once(
    cfg_code, monkeypatch
):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harness, "build_preamble", counted("preamble", harness.build_preamble))
    monkeypatch.setattr(harness, "request_digest", counted("digest", harness.request_digest))
    monkeypatch.setattr(client, "request_digest", counted("digest", client.request_digest))
    report = run(cfg_code)
    keys = {(e["event_type"], tuple(e["example_ids"])) for e in report["instances"]}
    assert len(keys) < len(report["instances"]) == 12
    assert calls == {"preamble": len(keys), "digest": 12}


def test_sibling_tasks_share_the_plans_hierarchy_split(cfg_code, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return split_hierarchy(*args)

    monkeypatch.setattr(corpus, "split_hierarchy", counted)
    monkeypatch.setattr(harness, "split_hierarchy", counted)
    plan = prepare(replace(cfg_code, selection_mode="sibling"))
    for instance_id in ("test-006", "test-007"):
        plan.task(plan.test.by_id(instance_id))
    assert len(calls) == 1


# --- closing the backend ---------------------------------------------------


class FakeSession:
    """Answers every POST with one status and a ``)`` completion; counts ``close``."""

    def __init__(self, status: int):
        self.status = status
        self.closed = 0

    def post(self, url, json, headers, timeout):
        body = {"choices": [{"text": ")", "finish_reason": "stop"}]}
        return SimpleNamespace(status_code=self.status, text="", json=lambda: body)

    def close(self):
        self.closed += 1


@pytest.mark.parametrize("status, record", [(200, True), (200, False), (401, True), (401, False)])
def test_run_closes_the_http_session(cfg_code, tmp_path, monkeypatch, status, record):
    session = FakeSession(status)
    monkeypatch.setattr(
        harness, "HttpBackend", lambda endpoint: HttpBackend(endpoint=endpoint, session=session)
    )
    cfg = replace(
        cfg_code,
        backend="http",
        endpoint="http://localhost",
        record=record,
        fixture_path=str(tmp_path / "recorded.jsonl"),
    )
    if status == 200:
        assert len(run(cfg)["instances"]) == 12
    else:
        with pytest.raises(BackendError):
            run(cfg)
    assert session.closed == 1


def test_replay_run_closes_its_backend_when_fixtures_are_missing(cfg_code, tmp_path, monkeypatch):
    closed = []
    monkeypatch.setattr(ReplayBackend, "close", lambda backend: closed.append(backend))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(MissingFixtures):
        run(replace(cfg_code, fixture_path=str(empty)))
    assert len(closed) == 1


# --- fixture misses, skips, shortfalls -------------------------------------


def test_missing_fixtures_lists_every_digest(cfg_code, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(MissingFixtures) as err:
        run(replace(cfg_code, fixture_path=str(empty)))
    assert len(err.value.digests) == 12
    assert "12 request(s)" in str(err.value)


def test_oversize_prompts_are_skipped_not_sent(cfg_code, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    report = run(replace(cfg_code, fixture_path=str(empty), max_prompt_chars=10))
    assert report["instances"] == []
    assert len(report["skipped"]) == 12
    assert all(entry["prompt_chars"] > 10 for entry in report["skipped"])
    assert report["score"]["micro"]["arg_i"]["f1"] == 0.0


def test_skipped_instances_count_in_the_score_as_predicting_nothing(cfg_code):
    full = run(cfg_code)["score"]
    report = run(replace(cfg_code, max_prompt_chars=1400))
    assert len(report["instances"]) == 1 and len(report["skipped"]) == 11
    per_type = report["score"]["per_type"].values()
    assert sum(counts["n_gold"] for counts in per_type) == 35
    assert report["score"]["per_type"].keys() == full["per_type"].keys()
    assert report["score"]["micro"]["arg_c"]["r"] < full["micro"]["arg_c"]["r"]


def test_shortfall_notes_available_examples(cfg_code, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    report = run(
        replace(cfg_code, k=10, fixture_path=str(empty), max_prompt_chars=1)
    )
    assert report["shortfall"]["Transport"] == {"requested": 10, "available": 5}
    assert report["shortfall"]["Transfer_Money"] == {"requested": 10, "available": 4}
    assert report["shortfall"]["Demonstrate"] == {"requested": 10, "available": 2}


def test_zero_shot_run(cfg_code, tmp_path):
    fixture = tmp_path / "zero.jsonl"
    cfg = replace(cfg_code, k=0, fixture_path=str(fixture))
    synth_fixture(cfg, fixture, lambda inst: (")", "stop"))
    report = run(cfg)
    assert all(entry["example_ids"] == [] for entry in report["instances"])
    assert all(entry["parsed"]["roles"] == {} for entry in report["instances"])
    assert report["score"]["micro"]["arg_c"]["f1"] == 0.0


def test_amr_changes_only_annotated_prompts(cfg_code, tmp_path, golden_dir):
    fixture = tmp_path / "amr.jsonl"
    cfg = replace(cfg_code, amr_path="fixtures/amr.jsonl", fixture_path=str(fixture))
    synth_fixture(cfg, fixture, lambda inst: (")", "stop"))
    with_amr = {e["id"]: e["prompt_digest"] for e in run(cfg)["instances"]}
    golden = json.loads((golden_dir / "run_report.json").read_text())
    without = {e["id"]: e["prompt_digest"] for e in golden["instances"]}
    assert with_amr["test-001"] != without["test-001"]
    assert with_amr["test-010"] != without["test-010"]
    assert with_amr["test-002"] == without["test-002"]


# --- http backend end to end -----------------------------------------------


def test_http_run_records_fixture_that_replays_identically(
    cfg_code, tmp_path, stub, monkeypatch
):
    monkeypatch.delenv("EVARG_API_KEY", raising=False)
    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    recorded = tmp_path / "recorded.jsonl"
    cfg_http = replace(
        cfg_code,
        backend="http",
        endpoint=stub.url,
        record=True,
        fixture_path=str(recorded),
        max_in_flight=3,
    )
    live = run(cfg_http)
    assert len(stub.requests) == 12
    assert len(recorded.read_text().splitlines()) == 12

    replayed = run(replace(cfg_http, backend="http", record=False, endpoint=stub.url))
    cfg_replay = replace(cfg_http, backend="replay", record=False, endpoint=None)
    offline = run(cfg_replay)
    assert offline["instances"] == live["instances"]
    assert offline["score"] == live["score"]
    assert replayed["score"] == live["score"]


def test_recording_resumes_a_partial_fixture(cfg_code, tmp_path, stub):
    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    recorded = tmp_path / "recorded.jsonl"
    cfg = replace(
        cfg_code, backend="http", endpoint=stub.url, record=True, fixture_path=str(recorded)
    )
    full = run(cfg)
    lines = recorded.read_text().splitlines(keepends=True)
    recorded.write_text("".join(lines[:6]))
    stub.requests.clear()
    assert run(cfg) == full
    assert len(stub.requests) == 6
    assert sorted(recorded.read_text().splitlines(keepends=True)) == sorted(lines)


# --- configuration errors --------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"prompt_style": "prose"},
        {"selection_mode": "cousin"},
        {"k": -1},
        {"max_new_tokens": 0},
        {"max_prompt_chars": 0},
        {"max_in_flight": 0},
        {"backend": "carrier-pigeon"},
        {"fixture_path": None},
        {"record": True},
        {"backend": "http", "endpoint": None},
        {"backend": "http", "endpoint": "http://x", "record": True, "fixture_path": None},
        {"k": "1"},
        {"include_hierarchy": 1},
        {"ontology_path": None},
    ],
)
def test_invalid_configs_rejected(overrides):
    cfg = RunConfig(**{**BASE, **overrides})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_readme_configuration_table_lists_every_setting_and_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for row in table.splitlines():
        cells = re.split(r"(?<!\\)\|", row)
        if len(cells) < 3 or "`" not in cells[1]:
            continue
        default = cells[2].strip()
        if default == "required":
            default = MISSING
        elif default == "none":
            default = None
        else:
            default = yaml.safe_load(default.strip("`"))
        listed.update((key, default) for key in re.findall(r"`(\w+)`", cells[1]))
    assert listed == {f.name: f.default for f in fields(RunConfig)}


def test_missing_input_files_are_config_errors(cfg_code):
    with pytest.raises(ConfigError):
        run(replace(cfg_code, ontology_path="fixtures/nope.yaml"))
    with pytest.raises(ConfigError):
        run(replace(cfg_code, train_path="fixtures/nope.jsonl"))


def test_corrupt_fixture_file_is_config_error(cfg_code, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    with pytest.raises(ConfigError):
        run(replace(cfg_code, fixture_path=str(bad)))


def test_sibling_mode_needs_multi_child_data(cfg_code, tmp_path):
    transport_only = tmp_path / "train.jsonl"
    with open("fixtures/train.jsonl", encoding="utf-8") as fh:
        lines = [line for line in fh if '"Movement:Transport"' in line]
    transport_only.write_text("".join(lines))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    cfg = replace(
        cfg_code,
        selection_mode="sibling",
        train_path=str(transport_only),
        fixture_path=str(empty),
    )
    with pytest.raises(ConfigError, match="at least two children"):
        run(cfg)


def test_bad_amr_files_are_config_errors(cfg_code, tmp_path):
    with pytest.raises(ConfigError):
        run(replace(cfg_code, amr_path=str(tmp_path / "absent.jsonl")))
    empty_amr = tmp_path / "amr.jsonl"
    empty_amr.write_text('{"id": "test-001", "amr": "   "}\n')
    with pytest.raises(ConfigError, match="empty amr"):
        run(replace(cfg_code, amr_path=str(empty_amr)))


def test_run_with_a_test_event_type_the_ontology_lacks_is_config_error(cfg_code, tmp_path):
    test = tmp_path / "test.jsonl"
    lines = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8")
    test.write_text(lines.replace('"Movement:Transport"', '"Movement:Teleport"', 1))
    with pytest.raises(ConfigError, match="Teleport"):
        run(replace(cfg_code, test_path=str(test)))


# --- report files ----------------------------------------------------------


def test_write_report_stable_bytes(tmp_path):
    path = tmp_path / "r.json"
    write_report({"b": 1, "a": [2, 3]}, str(path))
    assert path.read_text() == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_write_report_failure_leaves_target_and_no_temp(tmp_path):
    path = tmp_path / "r.json"
    write_report({"ok": 1}, str(path))
    with pytest.raises(TypeError):
        write_report({"bad": object()}, str(path))
    assert json.loads(path.read_text()) == {"ok": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_load_report_verifies_stored_parses(cfg_code, golden_dir, tmp_path):
    golden = golden_dir / "run_report.json"
    loaded = load_report(str(golden))
    assert loaded["score"]["micro"]["arg_c"]["f1"] == pytest.approx(0.8125)
    assert loaded["config"]["k"] == 1

    tampered = json.loads(golden.read_text())
    entry = tampered["instances"][0]
    assert "Kim" in entry["completion"]
    entry["completion"] = entry["completion"].replace("Kim", "Bob")
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    with pytest.raises(ConfigError, match="test-001"):
        load_report(str(bad))


def _set_arg_c_f1(report):
    assert report["score"]["micro"]["arg_c"]["f1"] != 0.99
    report["score"]["micro"]["arg_c"]["f1"] = 0.99


def _rename_an_instance(report):
    report["instances"][0]["id"] = "test-999"


@pytest.mark.parametrize(
    "tamper, message",
    [(_set_arg_c_f1, "stored score"), (_rename_an_instance, "'test-999' is not in the test corpus")],
)
def test_load_report_rechecks_the_score_block(in_repo_root, golden_dir, tmp_path, tamper, message):
    tampered = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    tamper(tampered)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_report(str(bad))


def test_load_report_rechecks_a_report_with_skipped_instances(cfg_code, tmp_path):
    path = tmp_path / "skips.json"
    run(replace(cfg_code, max_prompt_chars=1400, output_path=str(path)))
    assert load_report(str(path))["skipped"]

    tampered = json.loads(path.read_text(encoding="utf-8"))
    tampered["skipped"].pop()
    path.write_text(json.dumps(tampered), encoding="utf-8")
    with pytest.raises(ConfigError, match="stored score"):
        load_report(str(path))


def test_load_report_verifies_a_text_style_report(cfg_t1, tmp_path):
    path = tmp_path / "t1.json"
    run(replace(cfg_t1, output_path=str(path)))
    assert load_report(str(path))["config"]["prompt_style"] == "t1"

    tampered = json.loads(path.read_text(encoding="utf-8"))
    entry = next(e for e in tampered["instances"] if e["parsed"]["roles"])
    entry["completion"] = entry["completion"].replace('"', '"Bob ', 1)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    with pytest.raises(ConfigError, match=re.escape(repr(entry["id"]))):
        load_report(str(bad))


@pytest.mark.parametrize(
    "edit, times, arg_c_f1",
    [(drop_the_first_instance, 0, 0.8), (list_the_first_instance_twice, 2, 0.8235)],
    ids=["dropped", "duplicated"],
)
def test_load_report_rejects_a_report_not_covering_each_test_instance_once(
    in_repo_root, golden_dir, tmp_path, edit, times, arg_c_f1
):
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    assert report["instances"][0]["id"] == "test-001"
    edit(report)
    rescored = rescore(report)["score"]["micro"]["arg_c"]["f1"]
    assert rescored == pytest.approx(arg_c_f1, abs=1e-4)  # the edit moves the score
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(
        ConfigError, match=f"^report file {re.escape(str(bad))} lists test instance "
        f"'test-001' {times} times, not once$"
    ):
        load_report(str(bad))


def _golden_with(edit):
    """The golden report, as text, after ``edit`` changes it in place."""

    def text(golden: dict) -> str:
        edit(golden)
        return json.dumps(golden)

    return text


@pytest.mark.parametrize(
    "make_text",
    [
        lambda golden: "{}",
        lambda golden: "not json",
        lambda golden: "[]",
        lambda golden: '{"config": "fixtures/ontology.yaml"}',
        _golden_with(lambda r: r["instances"][0].pop("completion")),
        _golden_with(lambda r: r["config"].update(ontology_path=5)),
        _golden_with(lambda r: r["config"].update(prompt_style="t3")),
        _golden_with(lambda r: r.update(instances=5)),
        _golden_with(lambda r: r.update(skipped=[{"prompt_chars": 10}])),
        _golden_with(lambda r: r.pop("skipped")),
    ],
    ids=[
        "no-config",
        "not-json",
        "not-an-object",
        "config-not-an-object",
        "instance-without-completion",
        "ontology-path-not-a-string",
        "unknown-prompt-style",
        "instances-not-a-list",
        "skipped-without-id",
        "no-skipped",
    ],
)
def test_load_report_rejects_a_malformed_file_naming_it(
    in_repo_root, golden_dir, tmp_path, make_text
):
    golden = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(make_text(golden), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^report file {re.escape(str(bad))} is malformed: "):
        load_report(str(bad))


def test_load_report_rejects_a_config_without_test_path(in_repo_root, golden_dir, tmp_path):
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    del report["config"]["test_path"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^report file {re.escape(str(bad))} .*'test_path'"):
        load_report(str(bad))


# --- compare ---------------------------------------------------------------


@pytest.fixture
def report_files(cfg_code, cfg_t1, tmp_path):
    """Report files that ``run`` writes for the code and t1 configs."""
    paths = {}
    for cfg in (cfg_code, cfg_t1):
        paths[cfg.prompt_style] = str(tmp_path / f"{cfg.prompt_style}.json")
        run(replace(cfg, output_path=paths[cfg.prompt_style]))
    return paths


def test_compare_code_beats_text_on_fixture_corpus(report_files):
    report = compare(report_files["code"], report_files["t1"])
    assert report["delta"]["arg_i_f1"] == pytest.approx(0.0183531746, abs=1e-9)
    assert report["delta"]["arg_c_f1"] == pytest.approx(0.0188492063, abs=1e-9)


def test_compare_run_against_itself_is_zero(report_files):
    report = compare(report_files["code"], report_files["code"])
    assert report["delta"] == {"arg_i_f1": 0.0, "arg_c_f1": 0.0}


def test_compare_rejects_mismatched_corpora(cfg_t1, report_files, tmp_path):
    lines = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines(True)
    assert '"test-001"' in lines[0]
    short = tmp_path / "short.jsonl"
    short.write_text("".join(lines[1:]), encoding="utf-8")
    other = str(tmp_path / "short.json")
    run(replace(cfg_t1, test_path=str(short), output_path=other))
    code = report_files["code"]
    with pytest.raises(ConfigError, match=f"'test-001' is in {re.escape(code)}, not "):
        compare(code, other)
    with pytest.raises(ConfigError, match=f"'test-001' is in {re.escape(code)}, not "):
        compare(other, code)


def test_compare_writes_report(report_files, tmp_path):
    out = tmp_path / "compare.json"
    write_report(compare(report_files["code"], report_files["t1"]), str(out))
    on_disk = json.loads(out.read_text())
    assert set(on_disk) == {"delta"}
    assert set(on_disk["delta"]) == {"arg_i_f1", "arg_c_f1"}


def test_compare_rejects_an_edited_report(report_files):
    with open(report_files["t1"], encoding="utf-8") as fh:
        edited = json.load(fh)
    edited["score"]["micro"]["arg_c"]["f1"] += 0.5
    with open(report_files["t1"], "w", encoding="utf-8") as fh:
        json.dump(edited, fh)
    with pytest.raises(ConfigError, match="stored score"):
        compare(report_files["code"], report_files["t1"])


def test_importing_harness_leaves_numpy_unloaded():
    """numpy is a test-only dependency; no evarg module, the CLI included, may load it.

    Nor may a replay ``validate``, ``emit`` or ``run`` load ``requests``: only
    an ``HttpBackend`` built without a session imports it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = textwrap.dedent(
        """
        import contextlib, io, sys
        import evarg.harness, evarg.variability
        from evarg.cli import main

        inputs = ["--ontology", "fixtures/ontology.yaml", "--train", "fixtures/train.jsonl",
                  "--test", "fixtures/test.jsonl", "--fixtures", "fixtures/completions.jsonl"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                main(["validate", "--ontology", "fixtures/ontology.yaml",
                      "--corpus", "fixtures/train.jsonl"]),
                main(["emit", *inputs, "--id", "test-001"]),
                main(["run", *inputs]),
            ]
        print(codes, sorted({"numpy", "requests"} & set(sys.modules)))
        evarg.harness.HttpBackend(endpoint="http://127.0.0.1:9").close()
        print(sorted({"numpy", "requests"} & set(sys.modules)))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0, 0, 0] []", "['requests']"]
