"""Acceptance suite: ten checks covering the pipeline's contract.

Each test prints one [PASS]/[FAIL] line on the terminal (bypassing
capture) and enforces its runtime bound. Check 10 needs a live endpoint
and is skipped unless EVARG_LIVE_ENDPOINT is set.
"""

import json
import math
import os
import random
import time
from dataclasses import replace

import pytest

from conftest import exhaustive_match, make_dataset, make_instance, untyped_parse
from evarg.client import truncate_at_stop
from evarg.corpus import Span, select_same_type, split_hierarchy
from evarg.emitter import (
    CODE_STOP_PATTERNS,
    EmitterOptions,
    PromptStyle,
    assemble_prompt,
    escape_literal,
)
from evarg.harness import RunConfig, compare, load_amr, run, write_report
from evarg.parsing import parse_completion
from evarg.scoring import _match_instance, score
from evarg.variability import variability

SEED = 20240823
ROLES = ["agent", "artifact", "vehicle", "origin", "destination"]
ENTITY_TYPES = ["PER", "ORG", "GPE", "VEH", "WEA", "FAC", "LOC"]
SURFACE_CHARS = 'abcXYZ ,"[]()\\\n#='


def _announce(capfd, num, desc, fn, bound=None):
    start = time.monotonic()
    ok = False
    try:
        fn()
        elapsed = time.monotonic() - start
        if bound is not None and elapsed >= bound:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds bound {bound}s")
        ok = True
    finally:
        elapsed = time.monotonic() - start
        timing = f" ({elapsed:.2f}s < {bound:g}s)" if bound is not None and ok else ""
        with capfd.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {desc}{timing}")


def _random_completion(rng, max_roles, max_fillers, max_surface):
    """Render a kwargs completion plus the structure it should parse to."""
    expected = {}
    parts = []
    for role in rng.sample(ROLES, rng.randint(0, max_roles)):
        mentions = []
        for _ in range(rng.randint(0, max_fillers)):
            surface = "".join(
                rng.choice(SURFACE_CHARS) for _ in range(rng.randint(1, max_surface))
            )
            mentions.append({"entity_type": rng.choice(ENTITY_TYPES), "surface": surface})
        expected[role] = mentions
        inner = ", ".join(
            f'{m["entity_type"]}("{escape_literal(m["surface"])}")' for m in mentions
        )
        parts.append(f"{role}=[{inner}]")
    return ", ".join(parts) + ")", expected


# 1 ------------------------------------------------------------------------


def test_criterion_01_golden_prompt_fixtures(
    capfd, ontology, train_set, test_set, golden_dir, fixtures_dir
):
    def body():
        task = test_set.by_id("test-001")
        example = [train_set.by_id("train-001")]
        amr = load_amr(str(fixtures_dir / "amr.jsonl"))["test-001"]
        cases = {
            "prompt_default.txt": (task, example, task.event_type, EmitterOptions()),
            "prompt_keywords.txt": (
                task, example, task.event_type, EmitterOptions(include_keywords=True),
            ),
            "prompt_amr.txt": (task, example, task.event_type, EmitterOptions()),
            "prompt_flat.txt": (
                task, example, task.event_type, EmitterOptions(include_hierarchy=False),
            ),
            "prompt_t1.txt": (
                task, example, task.event_type,
                EmitterOptions(prompt_style=PromptStyle.TEXT_T1),
            ),
            "prompt_t2.txt": (
                task, example, task.event_type,
                EmitterOptions(prompt_style=PromptStyle.TEXT_T2),
            ),
            "prompt_sibling.txt": (
                test_set.by_id("test-006"),
                [train_set.by_id("train-006")],
                "Transaction:Transfer-Ownership",
                EmitterOptions(),
            ),
        }
        for name, (inst, examples, etype, opts) in cases.items():
            task_amr = amr if name == "prompt_amr.txt" else None
            bundle = assemble_prompt(ontology, etype, examples, inst, opts, amr=task_amr)
            golden = (golden_dir / name).read_text(encoding="utf-8")
            assert bundle.text == golden, f"{name} drifted from its golden bytes"

        default = (golden_dir / "prompt_default.txt").read_text(encoding="utf-8")
        assert "**returned**" in default
        assert "List[GPE | ORG | PER]" in default
        assert "class Movement(Event):" in default
        assert "class Transport(Movement):" in default
        keywords = (golden_dir / "prompt_keywords.txt").read_text(encoding="utf-8")
        assert "Keywords: transport, move, travel" in keywords
        assert amr in (golden_dir / "prompt_amr.txt").read_text(encoding="utf-8")

    _announce(capfd, 1, "golden prompt fixtures reproduce byte-exactly", body, bound=1.0)


# 2 ------------------------------------------------------------------------


def test_criterion_02_parser_round_trip(capfd, ontology):
    def body():
        rng = random.Random(SEED)
        for _ in range(200):
            text, expected = _random_completion(
                rng, max_roles=5, max_fillers=3, max_surface=14
            )
            event = parse_completion(text, ontology, "Movement:Transport")
            assert event["roles"] == expected
            assert event["diagnostics"] == []

    _announce(capfd, 2, "200 rendered events round-trip with zero diagnostics", body, bound=5.0)


# 3 ------------------------------------------------------------------------


def test_criterion_03_parser_totality_and_monotonicity(capfd, ontology):
    def body():
        rng = random.Random(SEED + 1)
        for _ in range(100_000):
            noise = rng.randbytes(rng.randint(0, 32)).decode("latin-1")
            event = parse_completion(noise, ontology, "Movement:Transport")
            assert set(event) == {"roles", "diagnostics"}
        for _ in range(500):
            text, expected = _random_completion(
                rng, max_roles=3, max_fillers=2, max_surface=8
            )
            full = parse_completion(text, ontology, "Movement:Transport")
            assert full["roles"] == expected
            for i in range(len(text)):
                prefix = parse_completion(text[:i], ontology, "Movement:Transport")
                for role, mentions in prefix["roles"].items():
                    assert full["roles"][role] == mentions

    _announce(capfd, 3, "parser is total over noise; prefixes are sub-maps", body, bound=60.0)


# 4 ------------------------------------------------------------------------


def test_criterion_04_scorer_matches_exhaustive_oracle(capfd):
    def body():
        rng = random.Random(SEED + 2)
        spans = [Span(0, 1), Span(2, 3), Span(4, 5)]
        for _ in range(500):
            gold_pairs = [
                (rng.choice("abc"), rng.choice(spans + [None]))
                for _ in range(rng.randint(0, 5))
            ]
            pred_pairs = [
                (rng.choice("abc"), rng.choice(spans + [None]))
                for _ in range(rng.randint(0, 5))
            ]
            assert _match_instance(gold_pairs, pred_pairs) == exhaustive_match(
                gold_pairs, pred_pairs
            )

        golds = make_dataset(
            [
                make_instance(
                    "a1", "alpha beta gamma struck .", "struck", "Conflict:Attack",
                    args=[("attacker", "alpha", "PER"), ("place", "beta", "GPE")],
                ),
                make_instance(
                    "b1", "one two three seven moved .", "moved", "Movement:Transport",
                    args=[
                        ("agent", "one", "PER"),
                        ("artifact", "two", "WEA"),
                        ("destination", "three", "GPE"),
                    ],
                ),
            ],
        )
        preds = [
            ("a1", untyped_parse({"attacker": ["alpha"], "target": ["gamma"]})),
            ("b1", untyped_parse({"agent": ["one"], "artifact": ["two"], "vehicle": ["seven"]})),
        ]
        micro = score(preds, golds)["micro"]
        for metric in (micro["arg_i"], micro["arg_c"]):
            assert abs(metric["p"] - 0.6) < 1e-9
            assert abs(metric["r"] - 0.6) < 1e-9
            assert abs(metric["f1"] - 0.6) < 1e-9

    _announce(capfd, 4, "greedy matching equals exhaustive; pooled micro F1 = 0.6", body, bound=10.0)


# 5 ------------------------------------------------------------------------


def test_criterion_05_metric_orderings(capfd, train_set):
    def body():
        rng = random.Random(SEED + 3)
        words = ["ax", "bx", "cx", "dx", "ex"]
        roles = ["attacker", "target", "place"]
        sentence = " ".join(words) + " hit ."
        for _ in range(200):
            gold_args = [
                (rng.choice(roles), rng.choice(words), "PER")
                for _ in range(rng.randint(0, 4))
            ]
            golds = make_dataset(
                [make_instance("i1", sentence, "hit", "Conflict:Attack", args=gold_args)],
            )
            pred_roles = {}
            for _ in range(rng.randint(0, 4)):
                pred_roles.setdefault(rng.choice(roles), []).append(rng.choice(words))
            report = score([("i1", untyped_parse(pred_roles))], golds)
            assert report["micro"]["arg_c"]["f1"] <= report["micro"]["arg_i"]["f1"]

        inst = train_set.by_id("train-002")
        golds = make_dataset([inst])
        mirrored: dict = {}
        for arg in inst.arguments:
            mirrored.setdefault(arg.role, []).append(arg.surface)
        perfect = score([(inst.id, untyped_parse(mirrored))], golds)
        assert perfect["micro"]["arg_i"]["f1"] == 1.0
        assert perfect["micro"]["arg_c"]["f1"] == 1.0

        empty = score([(inst.id, untyped_parse({}))], golds)
        for metric in (empty["micro"]["arg_i"], empty["micro"]["arg_c"]):
            assert (metric["p"], metric["r"], metric["f1"]) == (0.0, 0.0, 0.0)

    _announce(capfd, 5, "Arg-C <= Arg-I everywhere; perfect 1.0; empty 0.0", body)


# 6 ------------------------------------------------------------------------


def test_criterion_06_stop_pattern_truncation(capfd):
    def body():
        targeted = {
            '"""': 'x=[] )\n"""\nEpilogue',
            "class": "x=[] )\nclass Next:",
            "print": 'x=[] )\nprint("done")',
            "#": "x=[] )\n# trailing note",
        }
        for pattern, text in targeted.items():
            out, hit = truncate_at_stop(text, CODE_STOP_PATTERNS)
            assert hit
            assert out == text[: text.index(pattern)]

        stacked = 'y=[] )\n# one\nclass Two:\nprint("three")\n"""'
        out, _ = truncate_at_stop(stacked, CODE_STOP_PATTERNS)
        assert out == "y=[] )\n"

        rng = random.Random(SEED + 4)
        filler_chars = "bdxyz w"
        for _ in range(100):
            pieces = []
            cut_at = None
            offset = 0
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.4:
                    piece = rng.choice(CODE_STOP_PATTERNS)
                    if cut_at is None:
                        cut_at = offset
                else:
                    piece = "".join(
                        rng.choice(filler_chars) for _ in range(rng.randint(1, 6))
                    )
                pieces.append(piece)
                offset += len(piece)
            text = "".join(pieces)
            out, hit = truncate_at_stop(text, CODE_STOP_PATTERNS)
            assert hit == (cut_at is not None)
            assert out == (text if cut_at is None else text[:cut_at])
            assert truncate_at_stop(out, CODE_STOP_PATTERNS) == (out, False)

    _announce(capfd, 6, "stop patterns cut at the earliest occurrence", body)


# 7 ------------------------------------------------------------------------


def test_criterion_07_selection_determinism_and_split(capfd, ontology, train_set):
    def body():
        for event_type in (
            "Movement:Transport",
            "Transaction:Transfer-Money",
            "Conflict:Attack",
            "Conflict:Demonstrate",
        ):
            for k in range(0, 5):
                shorter = select_same_type(train_set, event_type, k)
                longer = select_same_type(train_set, event_type, k + 1)
                assert [i.id for i in shorter] == [i.id for i in longer][:k]

        rows = []
        table = [
            ("Transaction:Transfer-Money", "paid", "Pat paid Lee .", 121),
            ("Transaction:Transfer-Ownership", "sold", "Pat sold it .", 85),
            ("Conflict:Attack", "attacked", "Troops attacked the town .", 1211),
            ("Conflict:Demonstrate", "protested", "Crowds protested downtown .", 62),
        ]
        serial = 0
        for event_type, trigger, sentence, count in table:
            for _ in range(count):
                rows.append(
                    make_instance(f"m-{serial:04d}", sentence, trigger, event_type)
                )
                serial += 1
        mirrored = make_dataset(rows)
        split = split_hierarchy(ontology, mirrored)
        assert split["Transaction"].train_child == "Transfer_Money"
        assert tuple(split["Transaction"].test_children) == ("Transfer_Ownership",)
        assert split["Conflict"].train_child == "Attack"
        assert tuple(split["Conflict"].test_children) == ("Demonstrate",)

    _announce(capfd, 7, "k-selection prefixes; split favors larger children", body)


# 8 ------------------------------------------------------------------------


def test_criterion_08_variability_formula(capfd):
    def body():
        def oracle(vectors):
            dim = len(vectors[0])
            n = len(vectors)
            mean = [sum(v[i] for v in vectors) / n for i in range(dim)]
            return (
                sum(
                    math.sqrt(sum((v[i] - mean[i]) ** 2 for i in range(dim)))
                    for v in vectors
                )
                / n
            )

        rng = random.Random(SEED + 5)
        for _ in range(100):
            dim = rng.randint(1, 6)
            vectors = tuple(
                tuple(rng.uniform(-10, 10) for _ in range(dim))
                for _ in range(rng.randint(1, 8))
            )
            got = variability(vectors)
            assert abs(got - oracle(vectors)) < 1e-9

        assert variability(((0.0, 0.0), (2.0, 0.0))) == 1.0
        assert variability(((3.0, 4.0),)) == 0.0

    _announce(capfd, 8, "variability equals direct recomputation to 1e-9", body, bound=2.0)


# 9 ------------------------------------------------------------------------


def test_criterion_09_end_to_end_determinism(capfd, in_repo_root, golden_dir, tmp_path):
    def body():
        cfg = RunConfig(
            ontology_path="fixtures/ontology.yaml",
            train_path="fixtures/train.jsonl",
            test_path="fixtures/test.jsonl",
            prompt_style="code",
            k=1,
            selection_mode="same",
            seed=0,
            backend="replay",
            fixture_path="fixtures/completions.jsonl",
        )
        first = json.dumps(run(cfg), sort_keys=True)
        second = json.dumps(run(cfg), sort_keys=True)
        assert first == second

        out = tmp_path / "report.json"
        write_report(run(cfg), str(out))
        assert out.read_bytes() == (golden_dir / "run_report.json").read_bytes()

        again = tmp_path / "again.json"
        run(replace(cfg, output_path=str(again)))
        self_compare = compare(str(out), str(again))
        assert self_compare["delta"] == {"arg_i_f1": 0.0, "arg_c_f1": 0.0}

    _announce(capfd, 9, "replay runs are byte-identical; self-compare delta is 0", body, bound=10.0)


# 10 -----------------------------------------------------------------------


def test_criterion_10_live_endpoint(capfd, in_repo_root, tmp_path):
    endpoint = os.environ.get("EVARG_LIVE_ENDPOINT")
    if not endpoint:
        pytest.skip(
            "manual check: set EVARG_LIVE_ENDPOINT (and EVARG_API_KEY) to run "
            "against a live completions endpoint; excluded from CI"
        )

    def body():
        first_line = open("fixtures/test.jsonl", encoding="utf-8").readline()
        single = tmp_path / "one.jsonl"
        single.write_text(first_line)
        cfg = RunConfig(
            ontology_path="fixtures/ontology.yaml",
            train_path="fixtures/train.jsonl",
            test_path=str(single),
            prompt_style="code",
            k=0,
            backend="http",
            endpoint=endpoint,
            model_id=os.environ.get("EVARG_LIVE_MODEL", "gpt-3.5-turbo-instruct"),
        )
        report = run(cfg)
        assert len(report["instances"]) == 1
        entry = report["instances"][0]
        kinds = {d["kind"] for d in entry["parsed"]["diagnostics"]}
        assert "malformed_tail" not in kinds
        assert entry["finish_reason"] == "stop"

    _announce(capfd, 10, "live endpoint 0-shot run parses cleanly", body)
