"""Seeded synthetic workloads for the evarg benchmark, with a built-in oracle.

A workload is an ontology, a train and a test corpus, the completions a
model returns for each test prompt, and the run configuration that drives
``evarg.harness.run`` over them. Every sentence is distinct; every argument
surface is multi-word and ends in a head word that occurs exactly once in
its sentence, so grounding and head matching are known by construction.

Completions carry seeded perturbations (an omitted argument, a wrong role,
an ungrounded extra surface, a last argument cut mid-string with
``finish_reason: length``, text after a stop pattern). The oracle -- the
parsed roles of every test instance and the whole score block -- is derived
from how each completion was written, never by running evarg's parser or
scorer. evarg is used only to render prompts and digest requests, which
are lookup keys for the completions.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from evarg.client import CompletionRequest, request_digest
from evarg.corpus import load_corpus
from evarg.emitter import EmitterOptions, PromptStyle, assemble_prompt
from evarg.ontology import load_ontology


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; sizes are instance counts."""

    style: str  # code | t1 | t2
    mode: str  # same | non_sibling
    n_train: int
    n_test: int
    record: bool = False  # http backend recording to a half-filled fixture
    k: int = 2

    def scaled(self, factor: float) -> "Spec":
        return replace(
            self,
            n_train=max(1, round(self.n_train * factor)),
            n_test=max(1, round(self.n_test * factor)),
        )


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "same-code": Spec("code", "same", n_train=240, n_test=4000),
    "nonsibling-t2": Spec("t2", "non_sibling", n_train=8000, n_test=150),
    "record-resume": Spec("code", "same", n_train=240, n_test=600, record=True),
}

ENTITY_TYPES = {
    "PER": "A person or a group of people.",
    "ORG": "An organization such as a company, institution, or armed group.",
    "GPE": "A geo-political entity such as a country, state, or city.",
    "LOC": "A location that is not a geo-political entity.",
    "FAC": "A facility such as a building, base, or bridge.",
    "VEH": "A vehicle such as a car, ship, or aircraft.",
    "WEA": "A weapon such as a gun, bomb, or missile.",
}
ROLE_POOL = (
    "agent artifact vehicle origin destination giver recipient beneficiary "
    "place buyer seller attacker target instrument entity person victim "
    "defendant adjudicator defender"
).split()
CONNECTORS = ("with", "against", "near", "for", "from", "beside", "after")
ADJECTIVES = (
    "northern local senior armed small former rival young coastal federal "
    "elderly remote"
).split()
# Words the head rule treats as phrase boundaries, and words kept out of
# completions because a stop pattern would cut them.
_BOUNDARY_WORDS = frozenset(
    """
    about above across after against along among around as at before behind
    below beneath beside between beyond by down during for from in inside
    into near of off on onto out outside over past since through throughout
    to toward towards under until up upon with within without the and
    """.split()
)
_STOP_SUBSTRINGS = ("class", "print", "#", '"')

_ONSETS = "b d f g k l m n p r s t v z br dr kr tr st".split()
_VOWELS = "a e i o u ai ou".split()
_CODAS = ["", "", "", "n", "r", "l", "s", "k", "m"]

KINDS = ("none", "omit", "wrong_role", "extra", "cut", "stop_tail")
KIND_WEIGHTS = (40, 12, 12, 12, 12, 12)
CODE_TAILS = ("\n\nclass Extra:\n    pass", "\nprint(event)", "\n# done", '\n"""Next."""')
TEXT_TAIL = "\n\nTranslate the following sentence into an instance of Extra."

_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class Words:
    """Pseudo-words that are never English boundary words or stop patterns."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self, syllables: int = 2) -> str:
        rng = self.rng
        while True:
            w = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if len(w) >= 4 and w not in _BOUNDARY_WORDS and not any(
                s in w for s in _STOP_SUBSTRINGS
            ):
                return w

    def name(self) -> str:
        return self.word(self.rng.choice((2, 3))).capitalize()


@dataclass(frozen=True)
class Leaf:
    raw: str
    cls: str
    parent: str
    roles: tuple[tuple[str, tuple[str, ...]], ...]  # (name, allowed types)
    template: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class Arg:
    role: str
    entity_type: str
    surface: str
    short: str  # a shorter surface with the same head word
    start: int


@dataclass(frozen=True)
class Pred:
    role: str
    entity_type: str
    surface: str
    gold: int | None  # index of the gold argument it grounds to, None if ungrounded


def make_ontology(rng: random.Random, words: Words, n_parents=4, n_children=3):
    """Ontology document plus the leaf types, as (doc, {parent: [Leaf]})."""
    events: list[dict] = []
    tree: dict[str, list[Leaf]] = {}
    used: set[str] = set()

    def fresh() -> str:
        while True:
            w = words.name()
            if w not in used:
                used.add(w)
                return w

    for _ in range(n_parents):
        parent = fresh()
        events.append({"name": parent, "template": f"A {parent.lower()} event occurs."})
        tree[parent] = []
        for _ in range(n_children):
            a, b = fresh(), fresh()
            role_names = rng.sample(ROLE_POOL, rng.randint(3, 5))
            roles = tuple(
                (r, tuple(sorted(rng.sample(sorted(ENTITY_TYPES), rng.randint(1, 3)))))
                for r in role_names
            )
            verb = words.word() + "ed"
            template = f"{{{role_names[0]}}} {verb} " + " ".join(
                f"{rng.choice(CONNECTORS)} {{{r}}}" for r in role_names[1:]
            ) + "."
            keywords = tuple(words.word() + "ed" for _ in range(3))
            leaf = Leaf(f"{parent}:{a}-{b}", f"{a}_{b}", parent, roles, template, keywords)
            tree[parent].append(leaf)
            events.append(
                {
                    "name": leaf.raw,
                    "parent": parent,
                    "template": template,
                    "keywords": list(keywords),
                    "roles": [
                        {"name": r, "types": list(t), "description": f"the {r} of the event"}
                        for r, t in roles
                    ],
                }
            )
    doc = {
        "entities": [{"name": n, "description": d} for n, d in ENTITY_TYPES.items()],
        "events": events,
    }
    return doc, tree


def _phrase(rng: random.Random, words: Words) -> tuple[str, str]:
    """A multi-word surface and a shorter one ending in the same head word."""
    name, head = words.name(), words.name()
    surface = f"the {rng.choice(ADJECTIVES)} {name} {head}"
    return surface, rng.choice((f"{name} {head}", head))


def make_instance(rng, words, leaf: Leaf, iid: str, seen: set[str]):
    """One instance record (corpus format) and its gold arguments."""
    role_names = [r for r, _ in leaf.roles]
    types = dict(leaf.roles)
    while True:
        chosen = rng.sample(role_names, rng.randint(2, min(4, len(role_names))))
        if rng.random() < 0.2:
            chosen.append(chosen[0])  # a role with two mentions
        rng.shuffle(chosen)
        phrases = [_phrase(rng, words) for _ in chosen]
        trigger = rng.choice(leaf.keywords)
        pieces: list[str] = []
        starts: list[int] = []
        offset = 0
        trigger_start = 0
        for i, (surface, _) in enumerate(phrases):
            if i == 1:
                trigger_start = offset
                pieces.append(trigger)
                offset += len(trigger) + 1
            elif i > 1:
                conn = rng.choice(CONNECTORS)
                pieces.append(conn)
                offset += len(conn) + 1
            starts.append(offset)
            pieces.append(surface)
            offset += len(surface) + 1
        sentence = " ".join(pieces) + " ."
        ok = sentence not in seen and all(
            sentence.count(surface.rsplit(" ", 1)[1]) == 1
            and sentence.find(surface) == start
            and sentence.find(short) == start + len(surface) - len(short)
            for (surface, short), start in zip(phrases, starts)
        )
        if ok:
            break
    seen.add(sentence)
    args = [
        Arg(role, rng.choice(types[role]), surface, short, start)
        for role, (surface, short), start in zip(chosen, phrases, starts)
    ]
    record = {
        "id": iid,
        "sentence": sentence,
        "event_type": leaf.raw,
        "trigger": {
            "start": trigger_start,
            "end": trigger_start + len(trigger),
            "surface": trigger,
        },
        "arguments": [],
    }
    for a in args:
        gold = {"role": a.role, "surface": a.surface, "entity_type": a.entity_type}
        if rng.random() < 0.3:  # explicit head span on some gold arguments
            end = a.start + len(a.surface)
            gold["head"] = {"start": end - len(a.surface.rsplit(" ", 1)[1]), "end": end}
        record["arguments"].append(gold)
    return record, args


def _grouped(leaf: Leaf, preds: list[Pred]) -> list[tuple[str, list[Pred]]]:
    order = [r for r, _ in leaf.roles]
    groups: dict[str, list[Pred]] = {}
    for p in preds:
        groups.setdefault(p.role, []).append(p)
    return [(r, groups[r]) for r in order if r in groups]


def make_completion(rng, words, leaf: Leaf, args: list[Arg], sentence: str, style: str):
    """Completion text, finish reason, and the groups the parser must return."""
    preds = [
        Pred(a.role, a.entity_type, rng.choice((a.surface, a.short)), i)
        for i, a in enumerate(args)
    ]
    kind = rng.choices(KINDS, KIND_WEIGHTS)[0]
    if kind == "omit" and len(preds) > 1:
        del preds[rng.randrange(len(preds))]
    elif kind == "wrong_role":
        free = [r for r, _ in leaf.roles if r not in {p.role for p in preds}]
        if free:
            i = rng.randrange(len(preds))
            preds[i] = replace(preds[i], role=rng.choice(free))
    elif kind == "extra":
        while True:
            surface = f"{words.name()} {words.name()}"
            if surface.lower() not in sentence.lower():
                break
        preds.append(replace(preds[0], surface=surface, gold=None))
    groups = _grouped(leaf, preds)

    cut = None
    if kind == "cut":
        role, ms = groups[-1]
        last = ms[-1]
        cut = (role, ms, last.surface[: rng.randint(1, len(last.surface) - 1)])
    if style == "code":
        text, kept = _code_text(groups, cut)
    elif style == "t1":
        text, kept = _t1_text(groups, cut)
    else:
        text, kept = _t2_text(leaf, groups, cut)
    if kind == "stop_tail":
        text += rng.choice(CODE_TAILS) if style == "code" else TEXT_TAIL
    return text, ("length" if cut else "stop"), kept


def _code_text(groups, cut):
    def ctor(p: Pred) -> str:
        return f'{p.entity_type}("{p.surface}")'

    kwargs = [f"{r}=[{', '.join(ctor(p) for p in ms)}]" for r, ms in groups]
    if cut is None:
        return ",\n    ".join(kwargs) + ",\n)", groups
    role, ms, partial = cut
    # a kwarg cut inside a string is dropped whole by the parser
    head = [ctor(p) for p in ms[:-1]] + [f'{ms[-1].entity_type}("{partial}']
    return ",\n    ".join(kwargs[:-1] + [f"{role}=[{', '.join(head)}"]), groups[:-1]


def _quoted(surfaces) -> str:
    return "; ".join(f'"{s}"' for s in surfaces)


def _t1_text(groups, cut):
    lines = [f"{r}: {_quoted(p.surface for p in ms)}" for r, ms in groups]
    if cut is None:
        return " " + "\n".join(lines), groups
    role, ms, partial = cut
    # complete literals before the cut on the last line survive
    last = f"{role}: " + "; ".join([f'"{p.surface}"' for p in ms[:-1]] + [f'"{partial}'])
    kept = groups[:-1] + ([(role, ms[:-1])] if len(ms) > 1 else [])
    return " " + "\n".join(lines[:-1] + [last]), kept


def _t2_text(leaf: Leaf, groups, cut):
    filled = dict(groups)

    def fill(match: re.Match) -> str:
        role = match.group(1)
        if role not in filled:
            return f"[{role}]"
        return f"[{role}: {_quoted(p.surface for p in filled[role])}]"

    if cut is None:
        return " " + _SLOT_RE.sub(fill, leaf.template), groups
    role, ms, partial = cut
    # an unclosed slot is dropped whole; the text ends inside it
    before = _SLOT_RE.sub(fill, leaf.template[: leaf.template.index("{" + role + "}")])
    last = f"[{role}: " + "; ".join([f'"{p.surface}"' for p in ms[:-1]] + [f'"{partial}'])
    return " " + before + last, groups[:-1]


def _counts(args: list[Arg], kept) -> dict:
    preds = [p for _, ms in kept for p in ms]
    grounded = [p for p in preds if p.gold is not None]
    return {
        "n_gold": len(args),
        "n_pred": len(preds),
        "tp_identified": len(grounded),
        "tp_classified": sum(p.role == args[p.gold].role for p in grounded),
        "ungrounded": len(preds) - len(grounded),
    }


def _metric(tp: int, n_pred: int, n_gold: int) -> dict:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    return {"p": p, "r": r, "f1": 2 * p * r / (p + r) if p + r else 0.0}


def _score_block(per_type: dict[str, dict], ungrounded: int) -> dict:
    total = {key: sum(c[key] for c in per_type.values()) for key in
             ("n_gold", "n_pred", "tp_identified", "tp_classified")}
    return {
        "per_type": per_type,
        "micro": {
            "arg_i": _metric(total["tp_identified"], total["n_pred"], total["n_gold"]),
            "arg_c": _metric(total["tp_classified"], total["n_pred"], total["n_gold"]),
        },
        "ungrounded_count": ungrounded,
    }


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class Workload:
    """Paths of one generated workload, relative to the repository root."""

    config: dict  # RunConfig keyword arguments, without endpoint/output_path
    oracle_path: str
    stub_table_path: str | None  # record workloads: prompt sha256 -> response
    seed_fixture_path: str | None  # record workloads: the half-recorded fixture
    n_test: int


def generate(spec: Spec, seed: int, out_dir: Path, max_in_flight: int = 2) -> Workload:
    """Write one workload under ``out_dir`` (relative to the cwd) from ``seed``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    words = Words(rng)
    doc, tree = make_ontology(rng, words)
    leaves = [leaf for children in tree.values() for leaf in children]
    by_raw = {leaf.raw: leaf for leaf in leaves}

    # In non_sibling mode one child per parent carries most training data
    # (split_hierarchy makes it the training child) and only the other
    # children are tested, so restricting hierarchy runs to test children
    # leaves this workload unchanged.
    if spec.mode == "non_sibling":
        train_weights = [3 if leaf is tree[leaf.parent][0] else 1 for leaf in leaves]
        test_leaves = [leaf for leaf in leaves if leaf is not tree[leaf.parent][0]]
    else:
        train_weights = [1] * len(leaves)
        test_leaves = leaves

    seen: set[str] = set()
    train_records, train_by_cls = [], {leaf.cls: [] for leaf in leaves}
    for i in range(spec.n_train):
        # every type first gets k examples, then types are drawn by weight
        if i < spec.k * len(leaves):
            leaf = leaves[i % len(leaves)]
        else:
            leaf = rng.choices(leaves, train_weights)[0]
        rec, _ = make_instance(rng, words, leaf, f"train-{i:06d}", seen)
        train_records.append(rec)
        train_by_cls[leaf.cls].append(rec["id"])

    test_records, completions = [], []
    expected_roles: dict[str, dict] = {}
    per_type: dict[str, dict] = {}
    ungrounded = 0
    for i in range(spec.n_test):
        leaf = rng.choice(test_leaves)
        rec, args = make_instance(rng, words, leaf, f"test-{i:06d}", seen)
        text, finish, kept = make_completion(rng, words, leaf, args, rec["sentence"], spec.style)
        test_records.append(rec)
        completions.append((text, finish))
        expected_roles[rec["id"]] = {
            role: [
                {"entity_type": p.entity_type if spec.style == "code" else None,
                 "surface": p.surface}
                for p in ms
            ]
            for role, ms in kept
        }
        counts = _counts(args, kept)
        ungrounded += counts.pop("ungrounded")
        tally = per_type.setdefault(leaf.cls, dict.fromkeys(counts, 0))
        for key, value in counts.items():
            tally[key] += value

    paths = {name: out_dir / name for name in
             ("ontology.yaml", "train.jsonl", "test.jsonl", "oracle.json")}
    paths["ontology.yaml"].write_text(
        yaml.safe_dump(doc, sort_keys=False, allow_unicode=True), encoding="utf-8"
    )
    _write_jsonl(paths["train.jsonl"], train_records)
    _write_jsonl(paths["test.jsonl"], test_records)

    # Examples by construction: the first k training instances of the type
    # (same), or of one seeded choice among the types outside the test
    # type's family that carry data (non_sibling).
    def examples_for(leaf: Leaf) -> list[str]:
        if spec.mode == "same":
            return train_by_cls[leaf.cls][: spec.k]
        family = {c.cls for c in tree[leaf.parent]} | {leaf.parent}
        candidates = sorted(c for c in train_by_cls if c not in family and train_by_cls[c])
        return train_by_cls[random.Random(seed).choice(candidates)][: spec.k]

    ontology = load_ontology(paths["ontology.yaml"])
    train = {inst.id: inst for inst in load_corpus(paths["train.jsonl"], "train").instances}
    test = load_corpus(paths["test.jsonl"], "test").instances
    style = PromptStyle(spec.style)
    opts = EmitterOptions(prompt_style=style)
    example_cache: dict[str, list] = {}
    fixture, digests, table = [], [], {}
    for inst, (text, finish) in zip(test, completions):
        leaf = by_raw[inst.event_type]
        if leaf.cls not in example_cache:
            example_cache[leaf.cls] = [train[i] for i in examples_for(leaf)]
        bundle = assemble_prompt(ontology, inst.event_type, example_cache[leaf.cls], inst, opts)
        request = CompletionRequest(prompt=bundle.text, stop_patterns=bundle.stop_patterns)
        response = {"text": text, "finish_reason": finish}
        digests.append(request_digest(request))
        fixture.append({"digest": digests[-1], "response": response})
        if spec.record:
            table[hashlib.sha256(bundle.text.encode("utf-8")).hexdigest()] = [text, finish]

    paths["oracle.json"].write_text(
        json.dumps({
            "roles": expected_roles,
            "score": _score_block(per_type, ungrounded),
            "digests": digests,
        }),
        encoding="utf-8",
    )
    config = {
        "ontology_path": str(paths["ontology.yaml"]),
        "train_path": str(paths["train.jsonl"]),
        "test_path": str(paths["test.jsonl"]),
        "prompt_style": spec.style,
        "k": spec.k,
        "selection_mode": spec.mode,
        "seed": seed,
        "max_in_flight": max_in_flight,
    }
    if not spec.record:
        _write_jsonl(out_dir / "fixture.jsonl", fixture)
        config.update(backend="replay", fixture_path=str(out_dir / "fixture.jsonl"))
        return Workload(config, str(paths["oracle.json"]), None, None, spec.n_test)

    # An interrupted recording: answers for a seeded half of the test prompts.
    half = sorted(rng.sample(range(len(fixture)), len(fixture) // 2))
    _write_jsonl(out_dir / "recorded_half.jsonl", [fixture[i] for i in half])
    (out_dir / "stub_table.json").write_text(json.dumps(table), encoding="utf-8")
    config.update(backend="http", record=True, fixture_path=str(out_dir / "recording.jsonl"))
    return Workload(
        config,
        str(paths["oracle.json"]),
        str(out_dir / "stub_table.json"),
        str(out_dir / "recorded_half.jsonl"),
        spec.n_test,
    )


def check_report(report: dict, oracle: dict) -> tuple[int, list[str]]:
    """Failed test instances and error messages for one run's report.

    An instance fails when it is missing from the report or its parsed
    roles differ from what the generator wrote; a score block that differs
    from the oracle's is an error on its own.
    """
    errors: list[str] = []
    got = {entry["id"]: entry["parsed"]["roles"] for entry in report["instances"]}
    failed = 0
    for iid, roles in oracle["roles"].items():
        if got.get(iid) != roles:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{iid}: parsed roles {got.get(iid)!r} != expected {roles!r}")
    if len(got) != len(oracle["roles"]):
        errors.append(f"report has {len(got)} instances, expected {len(oracle['roles'])}")
    if report["score"] != oracle["score"]:
        errors.append("score block differs from the oracle")
    return failed, errors


def fixture_digests(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["digest"] for line in fh if line.strip()]
