import gc
import itertools
import json
import os
import re
import stat
import subprocess
import sys
import textwrap
from collections import Counter
from contextlib import nullcontext
from dataclasses import MISSING, fields, is_dataclass, replace
from types import SimpleNamespace

import pytest
import yaml

from conftest import ROOT, drop_the_first_instance, list_the_first_instance_twice, record, rescore
from evarg import client, corpus, emitter, files, harness
from evarg.client import BackendError, CompletionRequest, HttpBackend, ReplayBackend, request_digest
from evarg.corpus import select_same_type, split_hierarchy
from evarg.emitter import EmitterOptions, PromptBundle, PromptStyle, assemble_prompt
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
from evarg.ontology import derive_class_name, load_ontology
from evarg.parsing import DiagnosticKind, parse_completion

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

    monkeypatch.setattr(emitter, "build_preamble", counted("preamble", emitter.build_preamble))
    monkeypatch.setattr(harness, "request_digest", counted("digest", harness.request_digest))
    monkeypatch.setattr(client, "request_digest", counted("digest", client.request_digest))
    report = run(cfg_code)
    keys = {(e["event_type"], tuple(e["example_ids"])) for e in report["instances"]}
    assert len(keys) < len(report["instances"]) == 12
    assert calls == {"preamble": len(keys), "digest": 12}


def test_a_run_encodes_its_request_settings_once(cfg_code, tmp_path, monkeypatch):
    test = tmp_path / "test.jsonl"
    records = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines()
    with open(test, "w", encoding="utf-8") as fh:
        for n in range(200):
            rec = json.loads(records[n % len(records)])
            fh.write(json.dumps({**rec, "id": f"{rec['id']}-{n}"}) + "\n")
    cfg = replace(cfg_code, test_path=str(test), fixture_path=str(tmp_path / "fixture.jsonl"))
    record(cfg, cfg.fixture_path, lambda inst: (")", "stop"))
    encoded, digests = [], []
    dumps, digest = json.dumps, harness.request_digest

    def counted_dumps(value, *args, **kwargs):
        if isinstance(value, dict) and "stop_patterns" in value:
            encoded.append(value)
        return dumps(value, *args, **kwargs)

    def counted_digest(*args):
        digests.append(args)
        return digest(*args)

    monkeypatch.setattr(json, "dumps", counted_dumps)
    monkeypatch.setattr(harness, "request_digest", counted_digest)
    assert len(run(cfg)["instances"]) == len(digests) == 200
    assert len(encoded) == 1


def _strings(value):
    """Every str reachable from ``value`` through dataclass fields, tuples, lists and dicts."""
    if isinstance(value, str):
        yield value
    elif is_dataclass(value):
        for f in fields(value):
            yield from _strings(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strings(key)
            yield from _strings(item)


def test_tasks_of_one_group_share_one_preamble_and_keep_no_full_prompt(cfg_code):
    plan = prepare(cfg_code)
    first, second = (plan.task(plan.test.by_id(i)) for i in ("test-001", "test-002"))
    assert first.instance.event_type == second.instance.event_type
    assert first.bundle.frame.example_ids == second.bundle.frame.example_ids
    assert first.bundle.frame.preamble is second.bundle.frame.preamble
    for task in (first, second):
        prompt = task.bundle.text
        assert task.request.prompt == prompt
        assert task.bundle.frame.preamble and task.bundle.task
        assert max(len(text) for text in _strings(task)) < len(prompt)


def test_a_record_run_builds_every_task_before_it_sends_a_request(cfg_code, tmp_path, stub):
    """test-004, not the first test instance, draws train-006 as its one example. Training
    records are not checked against the ontology, so a role Transfer_Money lacks there
    fails only when the example is emitted: a run that built its tasks as it sent them
    would have sent test-001's request and created the fixture file by then."""
    train = tmp_path / "train.jsonl"
    lines = (ROOT / "fixtures/train.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (index,) = [n for n, line in enumerate(lines) if '"id": "train-006"' in line]
    assert '"role": "giver"' in lines[index]
    lines[index] = lines[index].replace('"role": "giver"', '"role": "briber"')
    train.write_text("".join(lines), encoding="utf-8")
    fixture = tmp_path / "recorded.jsonl"
    cfg = replace(
        cfg_code,
        train_path=str(train),
        backend="http",
        endpoint=stub.url,
        record=True,
        fixture_path=str(fixture),
    )
    assert [i.id for i in prepare(cfg).test.instances].index("test-004") > 0
    with pytest.raises(ConfigError, match="role 'briber' not defined for Transfer_Money"):
        run(cfg)
    assert stub.requests == []
    assert not fixture.exists()


def _count_requests(monkeypatch) -> list:
    """The list every ``CompletionRequest`` built from now on is appended to."""
    built = []
    check = CompletionRequest.__post_init__

    def counted(request):
        built.append(request)
        check(request)

    monkeypatch.setattr(CompletionRequest, "__post_init__", counted)
    return built


def _unread(bundle):
    raise AssertionError("a full prompt was built")


def test_a_replay_run_builds_no_request_and_no_full_prompt(cfg_code, tmp_path, stub, monkeypatch):
    """A replay backend serves by digest alone; a recording run builds a request only
    for a digest its file lacks, which it sends."""
    built = _count_requests(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(PromptBundle, "text", property(_unread))
        assert len(run(cfg_code)["instances"]) == 12
    assert built == []

    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    recorded = tmp_path / "recorded.jsonl"
    cfg = replace(
        cfg_code, backend="http", endpoint=stub.url, record=True, fixture_path=str(recorded)
    )
    for sent in (12, 0):  # every request sent and recorded, then every one found recorded
        stub.requests.clear()
        assert len(run(cfg)["instances"]) == 12
        assert len(stub.requests) == sent
        assert len(built) == sent
        built.clear()


@pytest.mark.parametrize("recorded", [0, 6, 12])
def test_a_recording_run_builds_a_request_only_for_a_digest_its_file_lacks(
    cfg_code, tmp_path, stub, monkeypatch, recorded
):
    """The file holds the answers to the first ``recorded`` of the 12 test prompts."""
    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    fixture = tmp_path / "recorded.jsonl"
    cfg = replace(
        cfg_code, backend="http", endpoint=stub.url, record=True, fixture_path=str(fixture)
    )
    run(cfg)
    lines = fixture.read_text(encoding="utf-8").splitlines(keepends=True)
    fixture.write_text("".join(lines[:recorded]), encoding="utf-8")
    stub.requests.clear()
    built = _count_requests(monkeypatch)
    assert len(run(cfg)["instances"]) == 12
    assert len(stub.requests) == len(built) == 12 - recorded


def test_a_recording_run_sends_a_repeated_missing_prompt_once(
    cfg_code, tmp_path, stub, monkeypatch
):
    """test-001 is listed twice, next to itself and under two ids: one sentence, trigger and
    type give one prompt, so one digest, which the run sends and appends once."""
    lines = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    twin = {**json.loads(lines[0]), "id": "test-001-twin"}
    test = tmp_path / "test.jsonl"
    test.write_text(lines[0] + json.dumps(twin) + "\n" + "".join(lines[1:]), encoding="utf-8")
    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    fixture = tmp_path / "recorded.jsonl"
    cfg = replace(
        cfg_code,
        test_path=str(test),
        backend="http",
        endpoint=stub.url,
        record=True,
        fixture_path=str(fixture),
    )
    plan = prepare(cfg)
    digests = [plan.task(inst).digest for inst in plan.test.instances]
    assert digests[0] == digests[1] and len(digests) == len(set(digests)) + 1 == 13
    built = _count_requests(monkeypatch)
    report = run(cfg)
    assert len(stub.requests) == len(built) == len(set(digests))
    recorded = [json.loads(line)["digest"] for line in fixture.read_text().splitlines()]
    assert sorted(recorded) == sorted(set(digests))
    first, second = report["instances"][:2]
    assert (first["id"], second["id"]) == ("test-001", "test-001-twin")
    assert first["completion"] == second["completion"]


def test_verifying_an_http_recorded_report_builds_no_request(cfg_code, tmp_path, stub, monkeypatch):
    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    out = tmp_path / "report.json"
    cfg = replace(
        cfg_code,
        backend="http",
        endpoint=stub.url,
        record=True,
        fixture_path=str(tmp_path / "recorded.jsonl"),
        output_path=str(out),
    )
    report = run(cfg)
    stub.requests.clear()
    built = _count_requests(monkeypatch)
    monkeypatch.setattr(PromptBundle, "text", property(_unread))
    assert load_report(str(out)) == json.loads(json.dumps(report))
    assert built == [] and stub.requests == []


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


# --- the training examples a run keeps --------------------------------------


def _fixture_records(split: str) -> list[dict]:
    return [json.loads(line) for line in (ROOT / f"fixtures/{split}.jsonl").open(encoding="utf-8")]


def _write_train(path, copies: dict[str, int]) -> None:
    """The fixture training records, each of class ``c`` written ``copies.get(c, 1)`` times
    under new ids: every record once, then those with copies left again, round by round."""
    records = _fixture_records("train")
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(max(copies.values(), default=1)):
            for rec in records:
                if n < copies.get(derive_class_name(rec["event_type"]), 1):
                    fh.write(json.dumps({**rec, "id": f"{rec['id']}-{n}"}) + "\n")


def _write_test(path, classes=None) -> None:
    """The fixture test records, only those of ``classes`` when it is given."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in _fixture_records("test"):
            if classes is None or derive_class_name(rec["event_type"]) in classes:
                fh.write(json.dumps(rec) + "\n")


# Of the fixture training file's children, Transfer_Money (4 records) and Attack (4)
# are the training children, so these two are the test children of a sibling run.
SIBLING_TEST_CLASSES = ("Transfer_Ownership", "Demonstrate")


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_prepare_keeps_each_class_first_k_training_instances_and_every_count(
    cfg_code, tmp_path, k
):
    train = tmp_path / "train.jsonl"
    _write_train(train, {"Transfer_Ownership": 3, "Attack": 2})
    whole = corpus.load_corpus(train, "train")
    kept = prepare(replace(cfg_code, train_path=str(train), k=k)).train
    first = {inst.id for insts in whole.by_class.values() for inst in insts[:k]}
    assert kept.instances == tuple(inst for inst in whole.instances if inst.id in first)
    assert kept.class_counts == {cls: len(insts) for cls, insts in whole.by_class.items()}
    assert kept.class_counts["Transfer_Ownership"] == 9


@pytest.mark.parametrize("mode", ["same", "sibling", "non_sibling"])
def test_a_run_selects_each_class_examples_once(cfg_code, tmp_path, monkeypatch, mode):
    test = tmp_path / "test.jsonl"
    _write_test(test, SIBLING_TEST_CLASSES if mode == "sibling" else None)
    fixture = tmp_path / "fixture.jsonl"
    cfg = replace(
        cfg_code, test_path=str(test), fixture_path=str(fixture), selection_mode=mode, k=2
    )
    record(cfg, fixture, lambda inst: (")", "stop"))
    calls = []
    for name in ("select_same_type", "select_sibling", "select_non_sibling"):
        select = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *args, select=select: calls.append(args) or select(*args)
        )
    report = run(cfg)
    classes = {entry["event_type"] for entry in report["instances"]}
    assert len(calls) == len(classes) < len(report["instances"])


def test_a_run_fails_at_the_first_instance_whose_examples_cannot_be_selected(
    cfg_code, tmp_path
):
    """Transfer_Ownership's instances run; Attack, the training child of Conflict, is the
    first class that has no examples to give."""
    test = tmp_path / "test.jsonl"
    _write_test(test, ("Transfer_Ownership", "Attack"))
    cfg = replace(cfg_code, test_path=str(test), selection_mode="sibling")
    first = [derive_class_name(i.event_type) for i in prepare(cfg).test.instances]
    assert first[0] == "Transfer_Ownership"
    with pytest.raises(ConfigError, match="'Attack' is the training child of 'Conflict'"):
        run(cfg)


def test_the_split_counts_the_records_a_run_does_not_keep(cfg_code, tmp_path, ontology):
    """Both Transaction children have more than k=2 records: Transfer_Ownership has 9,
    Transfer_Money 4; each keeps 2, and the tie that would leave breaks the other way."""
    train = tmp_path / "train.jsonl"
    _write_train(train, {"Transfer_Ownership": 3, "Demonstrate": 3})
    plan = prepare(replace(cfg_code, train_path=str(train), selection_mode="sibling", k=2))
    assert plan.split["Transaction"].train_child == "Transfer_Ownership"
    assert plan.split["Conflict"].train_child == "Demonstrate"
    assert plan.split == split_hierarchy(ontology, corpus.load_corpus(train, "train"))


def test_non_sibling_picks_the_same_type_at_k_0_as_at_k_2(cfg_code, monkeypatch):
    chosen = []
    select = corpus.select_same_type
    monkeypatch.setattr(
        corpus, "select_same_type", lambda *args: chosen.append(args[1]) or select(*args)
    )
    picks = []
    for k in (0, 2):
        plan = prepare(replace(cfg_code, selection_mode="non_sibling", k=k))
        for inst in plan.test.instances:
            plan.task(inst)
        picks.append(chosen[:])
        chosen.clear()
    assert picks[0] == picks[1] and len(picks[0]) == 6


def test_a_plan_given_the_whole_training_file_runs_the_same(cfg_code, tmp_path, monkeypatch):
    """For every mode, k and seed, a run on the kept examples gives the report, or the
    error, that a plan given the whole training file gives."""
    train, fixture = tmp_path / "train.jsonl", tmp_path / "fixture.jsonl"
    _write_train(train, {"Transfer_Ownership": 3, "Demonstrate": 2, "Arrest_Jail": 4})
    fixture.write_text("")
    def whole(path, split, per_class=None):
        return corpus.load_corpus(path, split)


    def outcome(cfg):
        try:
            return run(cfg)
        except ConfigError as exc:
            return str(exc)

    ran = Counter()
    for mode, classes in [
        ("same", None),
        ("sibling", None),
        ("sibling", ("Transfer_Money", "Demonstrate")),
        ("non_sibling", None),
    ]:
        test = tmp_path / f"test-{mode}-{classes is None}.jsonl"
        _write_test(test, classes)
        for k, seed in itertools.product((0, 1, 2, 3), (0, 1)):
            cfg = replace(
                cfg_code,
                train_path=str(train),
                test_path=str(test),
                fixture_path=str(fixture),
                selection_mode=mode,
                k=k,
                seed=seed,
            )
            try:
                record(cfg, fixture, lambda inst: (f"{inst.id})", "stop"))
            except ConfigError:
                pass
            kept = outcome(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "load_corpus", whole)
                assert outcome(cfg) == kept
            ran[mode] += isinstance(kept, dict)
    assert ran == {"same": 8, "sibling": 8, "non_sibling": 8}


# --- closing the backend ---------------------------------------------------


@pytest.mark.parametrize("status, record", [(200, True), (200, False), (401, True), (401, False)])
def test_run_closes_the_http_session(cfg_code, tmp_path, monkeypatch, stub, status, record):
    """``run`` closes every connection its backend opened, whether a request failed or not."""
    backends = []

    def build(endpoint):
        # held here, so that only ``close`` can close the backend's connections
        backends.append(HttpBackend(endpoint=endpoint))
        return backends[-1]

    monkeypatch.setattr(harness, "HttpBackend", build)
    stub.set_default(status, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    cfg = replace(
        cfg_code,
        backend="http",
        endpoint=stub.url,
        record=record,
        fixture_path=str(tmp_path / "recorded.jsonl"),
    )
    if status == 200:
        assert len(run(cfg)["instances"]) == 12
    else:
        with pytest.raises(BackendError):
            run(cfg)
    assert len(backends) == 1
    clients = {sent["client"] for sent in stub.requests}
    assert clients and stub.wait_closed(clients)


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
    record(cfg, fixture, lambda inst: (")", "stop"))
    report = run(cfg)
    assert all(entry["example_ids"] == [] for entry in report["instances"])
    assert all(entry["parsed"]["roles"] == {} for entry in report["instances"])
    assert report["score"]["micro"]["arg_c"]["f1"] == 0.0


def test_amr_changes_only_annotated_prompts(cfg_code, tmp_path, golden_dir):
    fixture = tmp_path / "amr.jsonl"
    cfg = replace(cfg_code, amr_path="fixtures/amr.jsonl", fixture_path=str(fixture))
    record(cfg, fixture, lambda inst: (")", "stop"))
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
    with pytest.raises(ConfigError):
        RunConfig(**{**BASE, **overrides})


def test_a_config_is_checked_when_replace_builds_it(cfg_code):
    with pytest.raises(ConfigError, match="^k must be >= 0$"):
        replace(cfg_code, k=-1)


@pytest.mark.parametrize("temperature", [10**400, -(10**400)], ids=["positive", "negative"])
def test_an_int_temperature_too_large_for_a_float_is_rejected(temperature):
    with pytest.raises(ConfigError, match="^temperature must be finite and >= 0, not -?inf$"):
        RunConfig(**BASE, temperature=temperature)


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


@pytest.mark.parametrize("style", PromptStyle, ids=lambda style: style.value)
def test_a_default_config_prompts_and_requests_with_the_layer_defaults(in_repo_root, style):
    """``bench/workload.py`` writes its replay fixture from prompts assembled with
    ``EmitterOptions(prompt_style=PromptStyle(...))`` and requests with
    ``CompletionRequest``'s defaults; were a ``RunConfig`` default to drift from
    those, or a style member to prompt otherwise than its value, every benchmark
    replay would miss."""
    assert style == style.value and hash(style) == hash(style.value)
    paths = ("ontology_path", "train_path", "test_path", "fixture_path")
    plan = prepare(RunConfig(**{key: BASE[key] for key in paths}, prompt_style=style.value))
    for inst in plan.test.instances:
        task = plan.task(inst)
        examples = select_same_type(plan.train, inst.event_type, 1)
        for opts in (EmitterOptions(prompt_style=style), EmitterOptions(prompt_style=style.value)):
            bundle = assemble_prompt(plan.ontology, inst.event_type, examples, inst, opts)
            assert bundle == task.bundle
            request = CompletionRequest(prompt=bundle.text, stop_patterns=bundle.stop_patterns)
            assert request_digest(request) == task.digest


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
    twice = tmp_path / "twice.jsonl"
    twice.write_text(
        '{"id": "test-001", "amr": "(r / return-01)"}\n'
        '{"id": "test-001", "amr": "(l / leave-11)"}\n'
    )
    message = f"^{re.escape(str(twice))}:2: bad amr record: duplicate id 'test-001'$"
    with pytest.raises(ConfigError, match=message):
        run(replace(cfg_code, amr_path=str(twice)))


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


def _report_of(n):
    """A report of ``n`` instances holding non-ASCII text, escapes and line separators."""
    return {
        "instances": [
            {
                "id": f"test-{i:06d}",
                "completion": f'agent=[PER("Zoë \\"{i}\\"\u2028中")],\n)\t\x01',
                "example_ids": ["train-é", "train-\U0001f600"],
                "prompt_chars": 2000 + i,
                "parsed": {
                    "roles": {"agent": [{"entity_type": "PER", "surface": "Zoë\u2029"}]},
                    "diagnostics": [],
                },
            }
            for i in range(n)
        ],
        "score": {"micro": {"arg_c": {"f1": 0.5}}},
    }


def test_write_report_streams_the_bytes_of_the_joined_text(tmp_path):
    report = _report_of(2000)
    pieces = []
    files.write_json(report, pieces.append)
    assert len(pieces) >= 3
    path = tmp_path / "r.json"
    write_report(report, str(path))
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == text.encode("utf-8")


def test_write_report_streams_a_report_to_stdout(monkeypatch):
    report = _report_of(20)
    pieces = []
    monkeypatch.setattr(files, "JSON_BATCH", 1)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append))
    write_report(report, None)
    assert len(pieces) >= 3
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert "".join(pieces) == text


def test_a_report_that_fails_after_its_first_piece_leaves_the_target(tmp_path):
    report = _report_of(2000)
    report["instances"][-1]["bad"] = object()
    pieces = []
    with pytest.raises(TypeError):
        files.write_json(report, pieces.append)
    assert pieces  # the bad value comes after a written piece
    path = tmp_path / "r.json"
    write_report({"ok": 1}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        write_report(report, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


@pytest.mark.parametrize("bad", [(1, 2), {1: "a"}, object()])
def test_write_report_rejects_a_value_before_making_a_file(tmp_path, bad):
    with pytest.raises(TypeError):
        write_report({"bad": bad}, str(tmp_path / "r.json"))
    assert list(tmp_path.iterdir()) == []


def test_write_report_leaves_no_cyclic_garbage(tmp_path):
    # Cyclic garbage lives until the collector runs: a writer that made it
    # would hold the report's text chunks through the file write.
    mention = {"entity_type": "PER", "surface": "the young Kim"}
    report = {
        "instances": [
            {
                "id": f"test-{i:06d}",
                "completion": 'agent=[PER("the young Kim")],\n)',
                "example_ids": ["train-000001", "train-000002"],
                "finish_reason": "stop",
                "prompt_chars": 2000 + i,
                "parsed": {"roles": {"agent": [dict(mention)]}, "diagnostics": []},
            }
            for i in range(4000)
        ],
        "score": {"micro": {"arg_c": {"f1": 0.5, "precision": 0.5, "recall": 0.5}}},
    }
    gc.collect()
    gc.disable()
    try:
        write_report(report, str(tmp_path / "r.json"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_run_and_its_verification_leave_no_cyclic_garbage(cfg_code, golden_dir, tmp_path):
    # ``run`` and ``load_report`` pause the collector: garbage they made in
    # cycles would outlive them until its next pass
    gc.collect()
    gc.disable()
    try:
        run(replace(cfg_code, output_path=str(tmp_path / "r.json")))
        load_report(str(golden_dir / "run_report.json"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_record_run_leaves_no_cyclic_garbage(cfg_code, tmp_path, stub):
    stub.set_default(200, {"choices": [{"text": ")", "finish_reason": "stop"}]})
    cfg = replace(
        cfg_code,
        backend="http",
        endpoint=stub.url,
        record=True,
        fixture_path=str(tmp_path / "recorded.jsonl"),
    )
    gc.collect()
    gc.disable()
    try:
        assert len(run(cfg)["instances"]) == 12
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_write_report_creates_the_file_as_open_does(tmp_path):
    path = tmp_path / "r.json"
    previous = os.umask(0o022)
    try:
        write_report({"a": 1}, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        os.umask(0o077)
        write_report({"a": 2}, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
    finally:
        os.umask(previous)
    assert json.loads(path.read_text()) == {"a": 2}


def differs_at(path, key_path: str) -> str:
    """The pattern of ``load_report``'s whole message for a report that is not its rerun."""
    return f"^report file {re.escape(str(path))} differs from its rerun at {re.escape(key_path)}$"


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
    first_surface = "instances[0].parsed.roles.agent[0].surface"
    with pytest.raises(ConfigError, match=differs_at(bad, first_surface)):
        load_report(str(bad))


def _retype_a_diagnostic(report):
    diagnostic = report["instances"][3]["parsed"]["diagnostics"][0]
    assert diagnostic["kind"] == "truncated"
    diagnostic["kind"] = "malformed_tail"


def _retype_a_mention(report):
    mention = report["instances"][0]["parsed"]["roles"]["agent"][0]
    assert mention["entity_type"] == "PER"
    mention["entity_type"] = "ORG"


def _reword_a_mention(report):
    mention = report["instances"][0]["parsed"]["roles"]["agent"][0]
    assert mention["surface"] == "Kim"
    mention["surface"] = "Bob"


@pytest.mark.parametrize(
    "edit, key_path",
    [
        (_retype_a_diagnostic, "instances[3].parsed.diagnostics[0].kind"),
        (_retype_a_mention, "instances[0].parsed.roles.agent[0].entity_type"),
        (_reword_a_mention, "instances[0].parsed.roles.agent[0].surface"),
    ],
    ids=["diagnostic-kind", "entity-type", "surface"],
)
def test_load_report_checks_the_stored_parse_itself(
    in_repo_root, golden_dir, tmp_path, edit, key_path
):
    """The completion is kept; only the stored ``parsed`` block is edited."""
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    edit(report)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ConfigError, match=differs_at(bad, key_path)):
        load_report(str(bad))


def _t2_completion(inst):
    """Every gold argument as a filled slot, then an undefined role, a repeat and a cut."""
    slots = " ".join(f'[{a.role}: "{a.surface}"]' for a in inst.arguments)
    repeat = f'[{inst.arguments[0].role}: "again"] ' if inst.arguments else ""
    return f'{slots} [nonrole: "x"] {repeat}to [desti', "length"


@pytest.mark.parametrize("style", ["code", "t1", "t2"])
def test_a_run_stores_parses_that_are_already_json(cfg_code, tmp_path, style):
    cfg = replace(cfg_code, prompt_style=style)
    if style == "t2":  # the shipped completions hold no t2 prompt
        cfg = replace(cfg, fixture_path=str(tmp_path / "t2.jsonl"))
        record(cfg, cfg.fixture_path, _t2_completion)
    report = run(cfg)
    kinds = {kind.value for kind in DiagnosticKind}
    seen = []
    for entry in report["instances"]:
        parsed = entry["parsed"]
        assert parsed == json.loads(json.dumps(parsed))
        for diagnostic in parsed["diagnostics"]:
            assert type(diagnostic["kind"]) is str and diagnostic["kind"] in kinds
            seen.append(diagnostic["kind"])
    assert len(set(seen)) >= 3


def _set_arg_c_f1(report):
    assert report["score"]["micro"]["arg_c"]["f1"] != 0.99
    report["score"]["micro"]["arg_c"]["f1"] = 0.99


def _rename_an_instance(report):
    report["instances"][0]["id"] = "test-999"


@pytest.mark.parametrize(
    "tamper, key_path",
    [(_set_arg_c_f1, "score.micro.arg_c.f1"), (_rename_an_instance, "instances[0].id")],
    ids=["arg-c-f1", "renamed-instance"],
)
def test_load_report_rechecks_the_score_block(in_repo_root, golden_dir, tmp_path, tamper, key_path):
    tampered = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    tamper(tampered)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    with pytest.raises(ConfigError, match=differs_at(bad, key_path)):
        load_report(str(bad))


def test_load_report_rechecks_a_report_with_skipped_instances(cfg_code, tmp_path):
    path = tmp_path / "skips.json"
    run(replace(cfg_code, max_prompt_chars=1400, output_path=str(path)))
    assert load_report(str(path))["skipped"]

    tampered = json.loads(path.read_text(encoding="utf-8"))
    n = len(tampered["skipped"])
    tampered["skipped"].pop()
    path.write_text(json.dumps(tampered), encoding="utf-8")
    with pytest.raises(ConfigError, match=differs_at(path, f"skipped[{n - 1}]")):
        load_report(str(path))


def test_load_report_verifies_a_text_style_report(cfg_t1, tmp_path):
    path = tmp_path / "t1.json"
    run(replace(cfg_t1, output_path=str(path)))
    assert load_report(str(path))["config"]["prompt_style"] == "t1"

    tampered = json.loads(path.read_text(encoding="utf-8"))
    entry = tampered["instances"][0]
    assert "agent" in entry["parsed"]["roles"]
    entry["completion"] = entry["completion"].replace('"', '"Bob ', 1)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    first_surface = "instances[0].parsed.roles.agent[0].surface"
    with pytest.raises(ConfigError, match=differs_at(bad, first_surface)):
        load_report(str(bad))


@pytest.mark.parametrize(
    "edit, problem, arg_c_f1",
    [
        (
            drop_the_first_instance,
            ": its config gives test instance 'test-001' a prompt that no instance stores",
            0.8,
        ),
        (list_the_first_instance_twice, " differs from its rerun at instances[12]", 0.8235),
    ],
    ids=["dropped", "duplicated"],
)
def test_load_report_rejects_a_report_not_covering_each_test_instance_once(
    in_repo_root, golden_dir, tmp_path, edit, problem, arg_c_f1
):
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    assert report["instances"][0]["id"] == "test-001"
    edit(report)
    rescored = rescore(report)["score"]["micro"]["arg_c"]["f1"]
    assert rescored == pytest.approx(arg_c_f1, abs=1e-4)  # the edit moves the score
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^report file {re.escape(str(bad) + problem)}$"):
        load_report(str(bad))


def test_load_report_rejects_an_event_type_the_test_corpus_does_not_give(
    in_repo_root, golden_dir, tmp_path
):
    """A retyped instance is rejected even with its parse and score re-derived to match."""
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    entry = report["instances"][0]
    assert (entry["id"], entry["event_type"]) == ("test-001", "Transport")
    entry["event_type"] = "Movement"
    ontology = load_ontology(report["config"]["ontology_path"])
    entry["parsed"] = parse_completion(entry["completion"], ontology, "Movement", "code")
    rescore(report)
    bad = tmp_path / "retyped.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ConfigError, match=differs_at(bad, "instances[0].event_type")):
        load_report(str(bad))


def _golden_with(edit):
    """The golden report, as text, after ``edit`` changes it in place."""

    def text(golden: dict) -> str:
        edit(golden)
        return json.dumps(golden)

    return text


MALFORMED = "is malformed: "


@pytest.mark.parametrize(
    "make_text, problem",
    [
        (lambda golden: "{}", MALFORMED),
        (lambda golden: "not json", MALFORMED),
        (lambda golden: "[]", MALFORMED),
        (lambda golden: '{"config": "fixtures/ontology.yaml"}', MALFORMED),
        (lambda golden: "[" * 100_000 + "]" * 100_000, MALFORMED),
        (_golden_with(lambda r: r["instances"][0].pop("completion")), MALFORMED),
        (_golden_with(lambda r: r["config"].update(ontology_path=5)), MALFORMED),
        (_golden_with(lambda r: r["config"].update(prompt_style="t3")), MALFORMED),
        (_golden_with(lambda r: r.update(instances=5)), MALFORMED),
        # the rerun's ``skipped`` is ``[]``, so these two are found as differences
        (
            _golden_with(lambda r: r.update(skipped=[{"prompt_chars": 10}])),
            "differs from its rerun at skipped[0]",
        ),
        (_golden_with(lambda r: r.pop("skipped")), "differs from its rerun at skipped"),
    ],
    ids=[
        "no-config",
        "not-json",
        "not-an-object",
        "config-not-an-object",
        "nested-too-deep",
        "instance-without-completion",
        "ontology-path-not-a-string",
        "unknown-prompt-style",
        "instances-not-a-list",
        "skipped-without-id",
        "no-skipped",
    ],
)
def test_load_report_rejects_a_malformed_file_naming_it(
    in_repo_root, golden_dir, tmp_path, make_text, problem
):
    golden = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(make_text(golden), encoding="utf-8")
    pattern = f"^report file {re.escape(str(bad))} {re.escape(problem)}"
    with pytest.raises(ConfigError, match=pattern):
        load_report(str(bad))


def test_load_report_rejects_a_config_without_test_path(in_repo_root, golden_dir, tmp_path):
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    del report["config"]["test_path"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^report file {re.escape(str(bad))} .*'test_path'"):
        load_report(str(bad))


def test_load_report_quotes_a_huge_instance_id_short(in_repo_root, golden_dir, tmp_path):
    huge = "x" * 300_000
    test = tmp_path / "test.jsonl"
    with open("fixtures/test.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    # a new id and sentence give the first instance a prompt the report does not store
    records[0].update(id=huge, sentence=records[0]["sentence"] + " !")
    test.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    report["config"]["test_path"] = str(test)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_report(str(path))
    message = f"report file {path}: its config gives test instance 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
    assert str(err.value) == message + " a prompt that no instance stores"


# --- the cyclic collector --------------------------------------------------


def _entry_point_call(entry, outcome, cfg, golden_dir, tmp_path):
    """``run`` or ``load_report`` called so that it returns or fails as ``outcome`` says.

    Returns the call and a context that checks how it ends.
    """
    unfit = tmp_path / "unfit.jsonl"
    lines = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8")
    unfit.write_text(lines.replace('"Movement:Transport"', '"Movement:Teleport"', 1))
    unfit_error = pytest.raises(ConfigError, match="does not fit the ontology")
    if entry == "run":
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg, ends = {
            "returns": (cfg, nullcontext()),
            "config-error": (replace(cfg, test_path=str(unfit)), unfit_error),
            "missing-fixtures": (
                replace(cfg, fixture_path=str(empty)),
                pytest.raises(MissingFixtures),
            ),
        }[outcome]
        return lambda: run(cfg), ends
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    ends = nullcontext()
    if outcome == "config-error":
        report["config"]["test_path"] = str(unfit)
        ends = unfit_error
    elif outcome == "missing-fixtures":  # the rerun's MissingFixtures becomes a ConfigError
        drop_the_first_instance(report)
        ends = pytest.raises(ConfigError, match="a prompt that no instance stores")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    return lambda: load_report(str(path)), ends


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["returns", "config-error", "missing-fixtures"])
@pytest.mark.parametrize("entry", ["run", "load_report"])
def test_run_and_load_report_leave_the_collector_as_they_found_it(
    cfg_code, golden_dir, tmp_path, entry, outcome, enabled
):
    call, ends = _entry_point_call(entry, outcome, cfg_code, golden_dir, tmp_path)
    gc.enable() if enabled else gc.disable()
    try:
        with ends:
            call()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _unfit_test_corpus(tmp_path):
    """A copy of the shipped test corpus whose first event type the ontology lacks."""
    unfit = tmp_path / "unfit.jsonl"
    lines = (ROOT / "fixtures/test.jsonl").read_text(encoding="utf-8")
    unfit.write_text(lines.replace('"Movement:Transport"', '"Movement:Teleport"', 1))
    return str(unfit)


def _command(name, tmp_path, **settings):
    """The ``evarg emit`` or ``evarg validate`` command line for ``BASE`` with ``settings``."""
    settings = {**BASE, "prompt_style": "code", **settings}
    if name == "validate":
        corpus = ["--corpus", settings["test_path"], "--split", "test"]
        return ["validate", "--ontology", settings["ontology_path"], *corpus]
    config = tmp_path / "emit.yaml"
    config.write_text(yaml.safe_dump(settings), encoding="utf-8")
    return ["emit", "--config", str(config), "--id", "test-001"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fits", [True, False], ids=["returns", "unfit-test-corpus"])
@pytest.mark.parametrize("name", ["emit", "validate"])
def test_emit_and_validate_leave_the_collector_as_they_found_it(
    in_repo_root, tmp_path, capsys, name, fits, enabled
):
    from evarg.cli import main

    test_path = BASE["test_path"] if fits else _unfit_test_corpus(tmp_path)
    command = _command(name, tmp_path, test_path=test_path)
    gc.enable() if enabled else gc.disable()
    try:
        assert main(command) == (0 if fits else 2)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert ("does not fit" in capsys.readouterr().err) is (name == "emit" and not fits)


def test_no_collection_starts_while_run_or_load_report_works(cfg_code, tmp_path):
    # nor while ``evarg emit`` or ``evarg validate`` works
    from evarg.cli import main

    # 2,000 train records: loading them alone sets off collections
    train = tmp_path / "train.jsonl"
    with open("fixtures/train.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    with open(train, "w", encoding="utf-8") as fh:
        for n in range(100):
            for rec in records:
                fh.write(json.dumps({**rec, "id": f"{rec['id']}-{n}"}) + "\n")
    cfg = replace(
        cfg_code,
        train_path=str(train),
        fixture_path=str(tmp_path / "fixture.jsonl"),
        output_path=str(tmp_path / "report.json"),
    )
    record(cfg, cfg.fixture_path, lambda inst: (")", "stop"))
    emit = _command("emit", tmp_path, train_path=cfg.train_path, fixture_path=cfg.fixture_path)
    validate = _command("validate", tmp_path, test_path=cfg.train_path)
    steps = {
        "load_corpus": lambda: corpus.load_corpus(cfg.train_path, "train"),  # outside the pause
        "run": lambda: run(cfg),
        "load_report": lambda: load_report(cfg.output_path),
        "emit": lambda: main(emit),
        "validate": lambda: main(validate),
    }
    starts = []

    def on_collection(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    counts = []
    gc.callbacks.append(on_collection)
    try:
        for step in steps.values():
            gc.collect()  # the pass owed since the last step resumed the collector
            starts.clear()
            step()
            # counted before any allocation, which would start the pass this step owes
            counts.append(len(starts))
    finally:
        gc.callbacks.remove(on_collection)
    during = dict(zip(steps, counts))
    assert during.pop("load_corpus") > 0
    assert during == dict.fromkeys(during, 0)


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
    with pytest.raises(ConfigError, match=differs_at(report_files["t1"], "score.micro.arg_c.f1")):
        compare(report_files["code"], report_files["t1"])


def test_importing_harness_leaves_numpy_unloaded():
    """numpy is a test-only dependency; no evarg module, the CLI included, may load it.

    Nor may a replay ``validate``, ``emit`` or ``run`` load the HTTP stack
    (``http.client`` and ``ssl``): only building an ``HttpBackend`` imports
    it. No evarg module loads ``requests``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = textwrap.dedent(
        """
        import contextlib, io, sys
        import evarg.harness, evarg.variability
        from evarg.cli import main
        logging_loaded = "logging" in sys.modules

        inputs = ["--ontology", "fixtures/ontology.yaml", "--train", "fixtures/train.jsonl",
                  "--test", "fixtures/test.jsonl", "--fixtures", "fixtures/completions.jsonl"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                main(["validate", "--ontology", "fixtures/ontology.yaml",
                      "--corpus", "fixtures/train.jsonl"]),
                main(["emit", *inputs, "--id", "test-001"]),
                main(["run", *inputs]),
            ]
        watched = {"numpy", "requests", "http.client", "ssl"}
        print(logging_loaded, codes, sorted(watched & set(sys.modules)))
        evarg.harness.HttpBackend(endpoint="http://127.0.0.1:9").close()
        print(sorted(watched & set(sys.modules)))
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
    assert result.stdout.splitlines() == ["False [0, 0, 0] []", "['http.client', 'ssl']"]
