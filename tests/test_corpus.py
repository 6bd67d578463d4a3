import json
import random
from collections import Counter

import pytest

from conftest import make_dataset, make_instance
from evarg import corpus
from evarg.corpus import (
    Dataset,
    GoldArgument,
    Span,
    TrainingInstance,
    Trigger,
    load_corpus,
    select_non_sibling,
    select_same_type,
    select_sibling,
    split_hierarchy,
    validate_against_ontology,
)
from evarg.files import ConfigError
from evarg.ontology import derive_class_name


def _write_corpus(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return str(path)


def _record(instance_id="x-1", sentence="Kim returned home .", start=4, end=12,
            surface="returned", event_type="Movement:Transport", arguments=()):
    return {
        "id": instance_id,
        "sentence": sentence,
        "event_type": event_type,
        "trigger": {"start": start, "end": end, "surface": surface},
        "arguments": list(arguments),
    }


def test_load_fixture_corpora(train_set, test_set):
    assert len(train_set.instances) == 20
    assert len(test_set.instances) == 12
    inst = test_set.by_id("test-001")
    assert inst.sentence[inst.trigger.start : inst.trigger.end] == "returned"
    with pytest.raises(KeyError):
        test_set.by_id("nope")


@pytest.mark.parametrize("split", ["train", "test"])
def test_fixture_records_load_back_field_for_field(fixtures_dir, split):
    path = fixtures_dir / f"{split}.jsonl"
    raw = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    loaded = load_corpus(str(path), split).instances
    assert len(loaded) == len(raw)
    for inst, rec in zip(loaded, raw):
        assert (inst.id, inst.sentence, inst.event_type) == (
            rec["id"], rec["sentence"], rec["event_type"]
        )
        trig = rec["trigger"]
        assert inst.trigger == (trig["start"], trig["end"], trig["surface"])
        assert len(inst.arguments) == len(rec["arguments"])
        for arg, raw_arg in zip(inst.arguments, rec["arguments"]):
            head = raw_arg.get("head")
            assert arg == (
                raw_arg["role"],
                raw_arg["surface"],
                raw_arg.get("entity_type", ""),
                None if head is None else (head["start"], head["end"]),
            )


def test_records_are_immutable(test_set):
    inst = test_set.by_id("test-001")
    arg = inst.arguments[0]
    for record, name in [(inst, "id"), (inst.trigger, "start"), (arg, "role"),
                         (Span(0, 3), "end")]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_record_fields_are_pinned():
    assert Span._fields == ("start", "end")
    assert Trigger._fields == ("start", "end", "surface")
    assert GoldArgument._fields == ("role", "surface", "entity_type", "head")
    assert TrainingInstance._fields == ("id", "sentence", "trigger", "event_type", "arguments")
    assert GoldArgument("agent", "Kim", "PER").head is None
    assert TrainingInstance("a", "Kim left .", Trigger(4, 8, "left"), "Transport").arguments == ()
    assert Span(0, 3) == (0, 3)


def test_by_class_files_raw_and_class_names_under_one_key():
    data = make_dataset(
        [
            make_instance("a", "Kim returned .", "returned", "Movement:Transport"),
            make_instance("b", "Kim paid Joe .", "paid", "Transaction:Transfer-Money"),
            make_instance("c", "Kim left .", "left", "Transport"),
            make_instance("d", "Kim went .", "went", "Movement:Transport"),
        ],
    )
    assert {cls: [i.id for i in insts] for cls, insts in data.by_class.items()} == {
        "Transport": ["a", "c", "d"],
        "Transfer_Money": ["b"],
    }


def test_built_indexes_stay_out_of_equality_and_hash(train_set):
    train_set.by_id("train-001")
    assert train_set.by_class
    fresh = Dataset(train_set.instances, train_set.counts)
    assert fresh == train_set
    assert hash(fresh) == hash(train_set)


def _class_records(classes):
    """One record per class name in ``classes``, in order, ids ``r0``, ``r1``, ..."""
    return [
        _record(instance_id=f"r{n}", event_type=cls) for n, cls in enumerate(classes)
    ]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_cut_load_keeps_each_class_first_k_and_counts_every_record(tmp_path, k):
    # a raw type and its class name are one class, as by_class files them
    classes = ["Movement:Transport", "Attack", "Transport", "Attack", "Movement:Transport"]
    path = _write_corpus(tmp_path, _class_records(classes))
    whole = load_corpus(path, "train")
    cut = load_corpus(path, "train", per_class=k)
    assert whole.counts == cut.counts == (("Transport", 3), ("Attack", 2))
    assert cut.class_counts == whole.class_counts == {"Transport": 3, "Attack": 2}
    assert cut.by_class == {c: i[:k] for c, i in whole.by_class.items() if k}
    # the classes alternate, so the first k of each are the file's first 2k records
    assert [i.id for i in cut.instances] == [f"r{n}" for n in range(5)][: 2 * k]


def test_a_cut_dataset_stays_hashable_and_its_counts_count_in_equality(tmp_path):
    path = _write_corpus(tmp_path, _class_records(["Attack", "Attack", "Transport"]))
    cut = load_corpus(path, "train", per_class=1)
    cut.by_id("r0")
    assert cut.by_class and cut.class_counts
    fresh = Dataset(cut.instances, cut.counts)
    assert fresh == cut
    assert hash(fresh) == hash(cut)
    assert Dataset(cut.instances, ()) != cut


# raw event types; each pair names one class, as by_class files them
EVENT_TYPES = ("Movement:Transport", "Transport", "Conflict:Attack", "Attack",
               "Justice:Arrest-Jail", "Arrest_Jail", "Life:Die")
WORDS = ("Kim", "Joe", "Boston", "the", "old", "car", "left", "went", "paid", "of", "in", ",")


def _synthetic_records(rng, n):
    """``n`` valid records of random classes, each with one to three arguments."""
    records = []
    for i in range(n):
        words = [rng.choice(WORDS) for _ in range(rng.randint(3, 9))]
        sentence = " ".join(words)
        starts = [sum(len(w) + 1 for w in words[:j]) for j in range(len(words))]
        at = rng.randrange(len(words))
        trigger = {"start": starts[at], "end": starts[at] + len(words[at]), "surface": words[at]}
        arguments = []
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(words))
            arg = {"role": rng.choice(("agent", "place")), "surface": words[j]}
            if rng.random() < 0.5:
                arg["entity_type"] = rng.choice(("PER", "GPE"))
            if rng.random() < 0.5:
                arg["head"] = {"start": starts[j], "end": starts[j] + len(words[j])}
            arguments.append(arg)
        records.append({"id": f"r{i}", "sentence": sentence, "trigger": trigger,
                        "event_type": rng.choice(EVENT_TYPES), "arguments": arguments})
    return records


def _bad_json(records, i, rng):
    return json.dumps(records[i])[: -rng.randint(1, 5)]


def _missing_key(records, i, rng):
    rec = records[i]
    owner, key = rng.choice([
        (rec, "id"), (rec, "sentence"), (rec, "trigger"), (rec, "event_type"),
        (rec["trigger"], "start"), (rec["trigger"], "surface"),
        (rec["arguments"][-1], "role"), (rec["arguments"][-1], "surface"),
    ])
    del owner[key]
    return json.dumps(rec)


def _wrong_type(records, i, rng):
    rec, arg = records[i], records[i]["arguments"][-1]
    owner, key = rng.choice([
        (rec, "id"), (rec, "sentence"), (rec, "event_type"), (rec["trigger"], "surface"),
        (rec["trigger"], "end"), (arg, "role"), (arg, "surface"), (arg, "entity_type"),
        (arg, "head"), (rec["arguments"], 0),
    ])
    owner[key] = rng.choice((5, 1.5, True, "x", [], [1]) if key == "head" else (5, 1.5, None, []))
    return json.dumps(rec)


def _trigger_mismatch(records, i, rng):
    rec = records[i]
    rec["trigger"]["surface"] += rng.choice(("x", " ", "s"))
    return json.dumps(rec)


def _head_out_of_bounds(records, i, rng):
    rec = records[i]
    end = len(rec["sentence"]) + rng.randint(1, 3)
    rec["arguments"][-1]["head"] = rng.choice(({"start": 0, "end": end}, {"start": -1, "end": 2}))
    return json.dumps(rec)


def _duplicate_id(records, i, rng):
    rec = records[i]
    rec["id"] = rng.choice([r["id"] for n, r in enumerate(records) if n != i])
    return json.dumps(rec)


def _non_list_arguments(records, i, rng):
    rec = records[i]
    rec["arguments"] = rng.choice(("", "ab", {}, {"role": "agent"}, None, 3))
    return json.dumps(rec)


FAULTS = [_bad_json, _missing_key, _wrong_type, _trigger_mismatch, _head_out_of_bounds,
          _duplicate_id, _non_list_arguments]


def _first_k_of_each_class(instances, k):
    seen = Counter()
    kept = []
    for inst in instances:
        cls = derive_class_name(inst.event_type)
        seen[cls] += 1
        if seen[cls] <= k:
            kept.append(inst)
    return tuple(kept), tuple(seen.items())


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_cut_load_equals_a_whole_load_faults_included(tmp_path, k):
    """Seeded files with one fault of each kind before or past its class's cut, or none:
    a cut load raises a whole load's error, or keeps its first k per class and its counts."""
    path = tmp_path / "train.jsonl"
    rng = random.Random(33 + k)
    outcomes = Counter()
    for n in range(420):
        records = _synthetic_records(rng, 16)
        ranks = Counter()
        before, past = [], []
        for i, rec in enumerate(records):
            cls = derive_class_name(rec["event_type"])
            (before if ranks[cls] < k else past).append(i)
            ranks[cls] += 1
        lines = [json.dumps(rec) for rec in records]
        fault, where = FAULTS[n % 7], ("before", "past", "none")[n // 7 % 3]
        if where == "none":
            fault = None
        else:
            candidates = before if where == "before" else past
            if not candidates:
                continue
            at = rng.choice(candidates)
            lines[at] = fault(records, at, rng)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            whole = load_corpus(path, "train")
        except ConfigError as exc:
            with pytest.raises(ConfigError) as err:
                load_corpus(path, "train", per_class=k)
            assert str(err.value) == str(exc), n
            outcomes[fault.__name__, where, "error"] += 1
        else:
            cut = load_corpus(path, "train", per_class=k)
            assert (cut.instances, cut.counts) == _first_k_of_each_class(whole.instances, k), n
            outcomes[getattr(fault, "__name__", None), where, "dataset"] += 1
    wheres = ("past",) if k == 0 else ("before", "past")
    for fault in FAULTS:
        for where in wheres:
            assert outcomes[fault.__name__, where, "error"], (fault.__name__, where)
    assert outcomes[None, "none", "dataset"]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_cut_load_builds_only_what_it_keeps(tmp_path, monkeypatch, k):
    path = _write_corpus(tmp_path, _synthetic_records(random.Random(k), 60))
    built = Counter()

    def counted(cls, fields):
        built[cls.__name__] += 1
        return tuple.__new__(cls, fields)

    monkeypatch.setattr(corpus, "_new", counted)
    cut = load_corpus(path, "train", per_class=k)
    arguments = [arg for inst in cut.instances for arg in inst.arguments]
    assert sum(count for _, count in cut.counts) == 60
    assert built == Counter(
        TrainingInstance=len(cut.instances),
        Trigger=len(cut.instances),
        GoldArgument=len(arguments),
        Span=sum(arg.head is not None for arg in arguments),
    )


def test_selection_at_k_0_sees_every_class_with_data(ontology, train_set, fixtures_dir):
    cut = load_corpus(fixtures_dir / "train.jsonl", "train", per_class=0)
    assert cut.instances == () and cut.by_class == {}
    assert split_hierarchy(ontology, cut) == split_hierarchy(ontology, train_set)
    for seed in range(5):
        assert select_non_sibling(cut, ontology, "Transfer_Ownership", 0, seed) == []


def test_trigger_surface_mismatch_rejected(tmp_path):
    path = _write_corpus(tmp_path, [_record(surface="return")])
    with pytest.raises(ConfigError, match="mismatch"):
        load_corpus(path, "train")


def test_trigger_span_out_of_bounds_rejected(tmp_path):
    path = _write_corpus(tmp_path, [_record(start=4, end=99, surface="returned")])
    with pytest.raises(ConfigError, match="bounds"):
        load_corpus(path, "train")


def test_duplicate_ids_rejected(tmp_path):
    path = _write_corpus(tmp_path, [_record(), _record()])
    with pytest.raises(ConfigError, match="duplicate"):
        load_corpus(path, "train")


def test_invalid_json_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_corpus(str(path), "train")


_HEAD_ARG = {"role": "agent", "surface": "Kim", "entity_type": "PER"}


def _without(key):
    record = _record()
    del record[key]
    return record


@pytest.mark.parametrize(
    "record, message",
    [
        (_record(arguments=[5]), "argument 5 is not an object"),
        (_record(arguments=["x"]), "argument 'x' is not an object"),
        (_record(start=4.0), "offsets must be integers, not 4.0 and 12"),
        (_record(end=12.5), "offsets must be integers, not 4 and 12.5"),
        (
            _record(arguments=[{**_HEAD_ARG, "head": {"start": 0.5, "end": 3}}]),
            "offsets must be integers, not 0.5 and 3",
        ),
        (
            _record(arguments=[{**_HEAD_ARG, "head": {"start": 0, "end": True}}]),
            "offsets must be integers, not 0 and True",
        ),
        (_record(instance_id=7), "id must be a string, not 7"),
        (_record(event_type=5), "event_type must be a string, not 5"),
        (_record(arguments=[{**_HEAD_ARG, "role": 5}]), "role must be a string, not 5"),
        (_record(arguments=[{**_HEAD_ARG, "surface": 5}]), "surface must be a string, not 5"),
        (
            _record(arguments=[{**_HEAD_ARG, "entity_type": 5}]),
            "entity_type must be a string, not 5",
        ),
        (
            _record(arguments=[{**_HEAD_ARG, "head": {"start": 0, "end": 99}}]),
            "argument head span out of bounds for instance 'x-1'",
        ),
        (_without("trigger"), "missing key 'trigger'"),
        ({**_record(), "trigger": 5}, "trigger must be an object, not 5"),
        (
            _record(arguments=[{**_HEAD_ARG, "head": [0, 3]}]),
            "head must be an object, not [0, 3]",
        ),
        (_without("sentence"), "missing key 'sentence'"),
        ([1, 2], "record must be an object, not [1, 2]"),
    ],
    ids=["int-argument", "str-argument", "float-start", "float-end", "float-head",
         "bool-head", "int-id", "int-event-type", "int-role", "int-surface",
         "int-entity-type", "head-out-of-bounds", "no-trigger", "int-trigger",
         "list-head", "no-sentence", "not-an-object"],
)
def test_malformed_record_rejected_naming_its_line(tmp_path, record, message):
    path = _write_corpus(tmp_path, [record])
    with pytest.raises(ConfigError) as excinfo:
        load_corpus(path, "train")
    assert str(excinfo.value) == f"{path}:1: bad train record: {message}"


@pytest.mark.parametrize(
    "arguments, shown",
    [("", "''"), ({}, "{}"), ("ab", "'ab'"), ({"role": "agent"}, "{'role': 'agent'}"),
     (None, "None"), (3, "3")],
    ids=["empty-str", "empty-object", "str", "object", "null", "int"],
)
@pytest.mark.parametrize("per_class", [None, 0])
def test_arguments_that_are_not_a_list_rejected(tmp_path, arguments, shown, per_class):
    record = {**_record(), "arguments": arguments}
    path = _write_corpus(tmp_path, [record])
    with pytest.raises(ConfigError) as excinfo:
        load_corpus(path, "train", per_class=per_class)
    message = f"{path}:1: bad train record: arguments must be a list, not {shown}"
    assert str(excinfo.value) == message


def test_a_record_without_arguments_has_none(tmp_path):
    path = _write_corpus(tmp_path, [_without("arguments")])
    assert load_corpus(path, "train").instances[0].arguments == ()


def test_same_type_selection_in_corpus_order(train_set):
    picked = select_same_type(train_set, "Movement:Transport", 3)
    assert [p.id for p in picked] == ["train-001", "train-002", "train-003"]
    # raw and class names select identically
    by_class = select_same_type(train_set, "Transport", 3)
    assert [p.id for p in by_class] == [p.id for p in picked]


def test_same_type_selection_prefix_property(train_set):
    for event_type in ("Transport", "Transfer_Money", "Attack", "Demonstrate"):
        previous = []
        for k in range(0, 7):
            current = [i.id for i in select_same_type(train_set, event_type, k)]
            assert current[: len(previous)] == previous
            assert len(current) <= k
            previous = current


def test_same_type_negative_k_rejected(train_set):
    with pytest.raises(ValueError):
        select_same_type(train_set, "Transport", -1)


def test_split_prefers_higher_count(ontology, train_set):
    split = split_hierarchy(ontology, train_set)
    assert split["Transaction"].train_child == "Transfer_Money"  # 4 > 3
    assert split["Transaction"].test_children == ("Transfer_Ownership",)
    assert split["Conflict"].train_child == "Attack"  # 4 > 2
    # single-child parents stay in the map but offer no test types
    assert split["Movement"].test_children == ()
    assert split["Justice"].test_children == ()


def test_split_tie_breaks_lexicographically(ontology):
    data = make_dataset(
        [
            make_instance("a", "Kim paid Joe .", "paid", "Transaction:Transfer-Money"),
            make_instance("b", "Kim bought it .", "bought", "Transaction:Transfer-Ownership"),
        ],
    )
    split = split_hierarchy(ontology, data)
    assert split["Transaction"].train_child == "Transfer_Money"


def test_sibling_selection_uses_training_sibling(ontology, train_set):
    split = split_hierarchy(ontology, train_set)
    picked = select_sibling(train_set, ontology, "Transfer_Ownership", 2, split)
    assert [p.id for p in picked] == ["train-006", "train-007"]
    assert all(p.event_type == "Transaction:Transfer-Money" for p in picked)


def test_sibling_selection_rejects_training_child_and_roots(ontology, train_set):
    split = split_hierarchy(ontology, train_set)
    with pytest.raises(ConfigError, match="is the training child of"):
        select_sibling(train_set, ontology, "Transfer_Money", 2, split)
    with pytest.raises(ConfigError, match="has no sibling training type"):
        select_sibling(train_set, ontology, "Transaction", 2, split)


def test_non_sibling_excludes_relatives(ontology, train_set):
    for seed in range(10):
        picked = select_non_sibling(train_set, ontology, "Transfer_Ownership", 2, seed)
        assert picked, "non-sibling selection must find a donor type"
        types = {p.event_type for p in picked}
        assert len(types) == 1
        donor = types.pop()
        assert donor not in (
            "Transaction:Transfer-Ownership",
            "Transaction:Transfer-Money",
            "Transaction",
        )


def test_non_sibling_deterministic_per_seed(ontology, train_set):
    a = select_non_sibling(train_set, ontology, "Transport", 3, seed=7)
    b = select_non_sibling(train_set, ontology, "Transport", 3, seed=7)
    assert [x.id for x in a] == [x.id for x in b]


def test_non_sibling_errors_when_no_candidates(ontology):
    data = make_dataset(
        [make_instance("a", "Kim paid Joe .", "paid", "Transaction:Transfer-Money")],
    )
    with pytest.raises(ConfigError, match="no non-sibling event type with data"):
        select_non_sibling(data, ontology, "Transfer_Ownership", 1, seed=0)


def test_validate_against_ontology_flags_problems(ontology):
    data = make_dataset(
        [
            make_instance(
                "bad-1",
                "Kim returned home .",
                "returned",
                "Movement:Transport",
                args=[("pilot", "Kim", "PER"), ("agent", "Kim", "ALIEN")],
            ),
            make_instance("bad-2", "Kim left .", "left", "No:Such-Type"),
        ],
    )
    problems = validate_against_ontology(data, ontology)
    joined = "\n".join(problems)
    assert "pilot" in joined
    assert "ALIEN" in joined
    assert "Such_Type" in joined or "Such-Type" in joined


def test_validate_lets_a_bug_in_the_lookup_propagate(monkeypatch, ontology, test_set):
    def broken(self, name):
        raise KeyError(name)

    monkeypatch.setattr(type(ontology), "resolve_event", broken)
    with pytest.raises(KeyError):
        validate_against_ontology(test_set, ontology)


def test_fixture_corpora_validate_cleanly(ontology, train_set, test_set):
    assert validate_against_ontology(train_set, ontology) == []
    assert validate_against_ontology(test_set, ontology) == []
