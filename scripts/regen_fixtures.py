#!/usr/bin/env python3
"""Regenerate every derived fixture under fixtures/.

Sources of truth live in this script: the corpus tables, the canned
completion texts, the vector seeds. Derived artifacts (corpus JSONL with
computed spans, completion fixtures keyed by request digest, golden
prompt files, the golden run report, the golden variability report) are
rewritten in place. Run from anywhere; paths inside generated reports
stay relative to the repository root.

Completion fixtures are recorded by ``record``, as a live run records
them through ``RecordingBackend``; tests import it to record theirs.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from evarg.client import RecordingBackend  # noqa: E402
from evarg.corpus import load_corpus, validate_against_ontology  # noqa: E402
from evarg.harness import RunConfig, _run, prepare, run, write_report  # noqa: E402
from evarg.ontology import load_ontology  # noqa: E402
from evarg.variability import load_points, load_vectors, variability_report  # noqa: E402

FIXTURES = Path("fixtures")
GOLDEN = FIXTURES / "golden"

# --- corpus tables ---------------------------------------------------------
# (id, event_type, sentence, trigger_word, [(role, surface, entity_type)])

TRAIN = [
    ("train-001", "Movement:Transport",
     "Kelly , the Irish teacher , returned to Houston .", "returned",
     [("agent", "Kelly", "PER"), ("destination", "Houston", "GPE")]),
    ("train-002", "Movement:Transport",
     "The army moved tanks into Baghdad .", "moved",
     [("agent", "army", "ORG"), ("artifact", "tanks", "VEH"),
      ("destination", "Baghdad", "GPE")]),
    ("train-003", "Movement:Transport",
     "Welch and his wife flew home from New York .", "flew",
     [("artifact", "Welch", "PER"), ("artifact", "wife", "PER"),
      ("origin", "New York", "GPE")]),
    ("train-004", "Movement:Transport",
     "Protesters were bused to the rally from Cairo .", "bused",
     [("artifact", "Protesters", "PER"), ("origin", "Cairo", "GPE")]),
    ("train-005", "Movement:Transport",
     "She drove her car to Dallas .", "drove",
     [("agent", "She", "PER"), ("vehicle", "car", "VEH"),
      ("destination", "Dallas", "GPE")]),
    ("train-006", "Transaction:Transfer-Money",
     "Washington paid the contractors in January .", "paid",
     [("giver", "Washington", "GPE"), ("recipient", "contractors", "ORG")]),
    ("train-007", "Transaction:Transfer-Money",
     "The bank loaned money to farmers in Iowa .", "loaned",
     [("giver", "bank", "ORG"), ("recipient", "farmers", "PER"),
      ("place", "Iowa", "GPE")]),
    ("train-008", "Transaction:Transfer-Money",
     "Donors gave funds to the hospital .", "gave",
     [("giver", "Donors", "PER"), ("recipient", "hospital", "ORG")]),
    ("train-009", "Transaction:Transfer-Money",
     "Moscow donated fuel to the plant last winter .", "donated",
     [("giver", "Moscow", "GPE"), ("recipient", "plant", "ORG")]),
    ("train-010", "Transaction:Transfer-Ownership",
     "Iraq bought rifles from dealers in Jordan .", "bought",
     [("buyer", "Iraq", "GPE"), ("artifact", "rifles", "WEA"),
      ("seller", "dealers", "PER"), ("place", "Jordan", "GPE")]),
    ("train-011", "Transaction:Transfer-Ownership",
     "The airline sold two jets to a leasing firm .", "sold",
     [("seller", "airline", "ORG"), ("artifact", "jets", "VEH"),
      ("buyer", "firm", "ORG")]),
    ("train-012", "Transaction:Transfer-Ownership",
     "Farmers acquired the warehouse from the city .", "acquired",
     [("buyer", "Farmers", "PER"), ("artifact", "warehouse", "FAC"),
      ("seller", "city", "GPE")]),
    ("train-013", "Conflict:Attack",
     "Rebels attacked the barracks with mortars at dawn .", "attacked",
     [("attacker", "Rebels", "PER"), ("target", "barracks", "FAC"),
      ("instrument", "mortars", "WEA")]),
    ("train-014", "Conflict:Attack",
     "Planes bombed the depot near Mosul .", "bombed",
     [("instrument", "Planes", "VEH"), ("target", "depot", "FAC"),
      ("place", "Mosul", "GPE")]),
    ("train-015", "Conflict:Attack",
     "The militia struck a convoy in the valley .", "struck",
     [("attacker", "militia", "ORG"), ("target", "convoy", "VEH"),
      ("place", "valley", "LOC")]),
    ("train-016", "Conflict:Attack",
     "Gunmen fired on the embassy in Amman .", "fired",
     [("attacker", "Gunmen", "PER"), ("target", "embassy", "FAC"),
      ("place", "Amman", "GPE")]),
    ("train-017", "Conflict:Demonstrate",
     "Thousands rallied in Karachi against the war .", "rallied",
     [("entity", "Thousands", "PER"), ("place", "Karachi", "GPE")]),
    ("train-018", "Conflict:Demonstrate",
     "Workers marched through the capital on Monday .", "marched",
     [("entity", "Workers", "PER"), ("place", "capital", "LOC")]),
    ("train-019", "Justice:Arrest-Jail",
     "Police detained the suspect in Manila .", "detained",
     [("agent", "Police", "ORG"), ("person", "suspect", "PER"),
      ("place", "Manila", "GPE")]),
    ("train-020", "Justice:Arrest-Jail",
     "Agents arrested two brokers at the airport .", "arrested",
     [("agent", "Agents", "PER"), ("person", "brokers", "PER"),
      ("place", "airport", "FAC")]),
]

TEST = [
    ("test-001", "Movement:Transport",
     "Kim returned to Boston on Friday .", "returned",
     [("agent", "Kim", "PER"), ("destination", "Boston", "GPE")]),
    ("test-002", "Movement:Transport",
     "The ferry carried tourists from Dover to Calais .", "carried",
     [("artifact", "tourists", "PER"), ("vehicle", "ferry", "VEH"),
      ("origin", "Dover", "GPE"), ("destination", "Calais", "GPE")]),
    ("test-003", "Movement:Transport",
     "Lee and his brother drove home from Austin .", "drove",
     [("agent", "Lee", "PER"), ("agent", "brother", "PER"),
      ("origin", "Austin", "GPE")]),
    ("test-004", "Transaction:Transfer-Money",
     "Berlin paid the builders in March .", "paid",
     [("giver", "Berlin", "GPE"), ("recipient", "builders", "ORG")]),
    ("test-005", "Transaction:Transfer-Money",
     "The charity loaned money to fishermen in Kerala .", "loaned",
     [("giver", "charity", "ORG"), ("recipient", "fishermen", "PER"),
      ("place", "Kerala", "GPE")]),
    ("test-006", "Transaction:Transfer-Ownership",
     "Jordan bought trucks from a dealer in Amman .", "bought",
     [("buyer", "Jordan", "GPE"), ("artifact", "trucks", "VEH"),
      ("seller", "dealer", "PER"), ("place", "Amman", "GPE")]),
    ("test-007", "Transaction:Transfer-Ownership",
     "The museum acquired the estate from a collector .", "acquired",
     [("buyer", "museum", "ORG"), ("artifact", "estate", "FAC"),
      ("seller", "collector", "PER")]),
    ("test-008", "Conflict:Attack",
     "Raiders attacked the outpost with rockets at night .", "attacked",
     [("attacker", "Raiders", "PER"), ("target", "outpost", "FAC"),
      ("instrument", "rockets", "WEA")]),
    ("test-009", "Conflict:Attack",
     "Jets bombed the bridge near Tikrit .", "bombed",
     [("instrument", "Jets", "VEH"), ("target", "bridge", "FAC"),
      ("place", "Tikrit", "GPE")]),
    ("test-010", "Conflict:Demonstrate",
     "Students protested in Athens on Tuesday .", "protested",
     [("entity", "Students", "PER"), ("place", "Athens", "GPE")]),
    ("test-011", "Justice:Arrest-Jail",
     "Police arrested the smuggler at the border .", "arrested",
     [("agent", "Police", "ORG"), ("person", "smuggler", "PER"),
      ("place", "border", "LOC")]),
    ("test-012", "Movement:Transport",
     "The pilot flew the senator , a Texan , to El Paso .", "flew",
     [("agent", "pilot", "PER"),
      ("artifact", "the senator , a Texan", "PER"),
      ("destination", "El Paso", "GPE")]),
]

# --- canned completions ----------------------------------------------------
# Raw backend responses for the frozen replay runs; stop-pattern tails are
# deliberate to exercise client-side truncation.

CODE_RESPONSES = {
    "test-001": ('agent=[PER("Kim")],\n    destination=[GPE("Boston")],\n)\n\n'
                 "class Foo:\n    pass", "stop"),
    "test-002": ('artifact=[PER("tourists")],\n    vehicle=[VEH("ferry")],\n'
                 '    origin=[GPE("Dover")],\n)\nprint(transport_event)', "stop"),
    "test-003": ('agent=[PER("Lee"), PER("brother")],\n    origin=[GPE("Austin")],\n'
                 '    destination=[GPE("United States")],\n)\n# done', "stop"),
    "test-004": ('giver=[GPE("Berlin")],\n    recipient=[PER("build', "length"),
    "test-005": ('giver=[ORG("charity")],\n    amount=[ORG("money")],\n'
                 '    recipient=[PER("fishermen")],\n    place=[GPE("Kerala")],\n)\n"""',
                 "stop"),
    "test-006": ('buyer=[COUNTRY("Jordan")],\n    artifact=[VEH("trucks")],\n'
                 '    seller=[PER("dealer")],\n    place=[GPE("Amman")],\n)\nclass',
                 "stop"),
    "test-007": ('seller=[PER("collector")],\n    artifact=[ORG("museum")],\n)\nclass',
                 "stop"),
    "test-008": ('attacker=[PER("Raiders")],\n    target=[FAC("outpost")],\n'
                 '    instrument=[WEA("rockets")],\n)\nprint', "stop"),
    "test-009": (")", "stop"),
    "test-010": ('entity="Students",\n    place=[GPE("Athens")],\n)\n# end', "stop"),
    "test-011": ('agent=[ORG("Police")],\n    person=[PER("smuggler")],\n'
                 '    person=[PER("smuggler")],\n)\nclass', "stop"),
    "test-012": ('agent=[PER("pilot")],\n    artifact=[PER(senator)],\n'
                 '    destination=[GPE("El Paso")],\n)\nclass', "stop"),
}

T1_RESPONSES = {
    "test-001": (' agent: "Kim"\ndestination: "Boston"\n\nTranslate the following',
                 "stop"),
    "test-002": (' artifact: "tourists"\nvehicle: "ferry"\norigin: "Dover"', "stop"),
    "test-003": (' agent: "Lee"; "brother"\norigin: "Austin"\n'
                 'destination: "United States"', "stop"),
    "test-004": (' giver: "Berlin"\nrecipient: "build', "length"),
    "test-005": (' giver: "charity"\namount: "money"\nrecipient: "fishermen"\n'
                 'place: "Kerala"', "stop"),
    "test-006": (' buyer: "Jordan"\nartifact: "trucks"\nseller: "dealer"\n'
                 'place: "Amman"', "stop"),
    "test-007": (' seller: "collector"\nartifact: "museum"', "stop"),
    "test-008": (' attacker: "Raiders"\ntarget: "outpost"', "stop"),
    "test-009": ("", "stop"),
    "test-010": (' entity: "Students"\nplace: "Athens"', "stop"),
    "test-011": (' agent: "Police"\nperson: "smuggler"\nperson: "smuggler"', "stop"),
    "test-012": (' agent: "pilot"\nartifact: senator\ndestination: "El Paso"', "stop"),
}

AMR = {
    "test-001": ('(r / return-01 :ARG1 (p / person :name (n / name :op1 "Kim")) '
                 ':ARG4 (c / city :name (n2 / name :op1 "Boston")) '
                 ':time (d / date-entity :weekday (f / friday)))'),
    "test-010": ('(p / protest-01 :ARG0 (s / student) '
                 ':location (c / city :name (n / name :op1 "Athens")) '
                 ':time (d / date-entity :weekday (t / tuesday)))'),
}

# The run every golden prompt and the frozen replay runs start from.
BASE = RunConfig(
    ontology_path="fixtures/ontology.yaml",
    train_path="fixtures/train.jsonl",
    test_path="fixtures/test.jsonl",
    k=1,
    selection_mode="same",
    seed=0,
    backend="replay",
    fixture_path="fixtures/completions.jsonl",
)

# golden prompt file -> (settings over BASE, test instance id)
GOLDEN_PROMPTS = {
    "prompt_default.txt": ({}, "test-001"),
    "prompt_keywords.txt": ({"include_keywords": True}, "test-001"),
    "prompt_amr.txt": ({"amr_path": "fixtures/amr.jsonl"}, "test-001"),
    "prompt_flat.txt": ({"include_hierarchy": False}, "test-001"),
    "prompt_t1.txt": ({"prompt_style": "t1"}, "test-001"),
    "prompt_t2.txt": ({"prompt_style": "t2"}, "test-001"),
    "prompt_sibling.txt": ({"selection_mode": "sibling"}, "test-006"),
}


def find_span(sentence: str, surface: str) -> tuple[int, int]:
    start = sentence.find(surface)
    if start < 0:
        raise SystemExit(f"surface {surface!r} not in {sentence!r}")
    return start, start + len(surface)


def corpus_record(row) -> dict:
    instance_id, event_type, sentence, trigger_word, args = row
    t_start, t_end = find_span(sentence, trigger_word)
    return {
        "id": instance_id,
        "sentence": sentence,
        "event_type": event_type,
        "trigger": {"start": t_start, "end": t_end, "surface": trigger_word},
        "arguments": [
            {"role": role, "surface": surface, "entity_type": entity_type}
            for role, surface, entity_type in args
        ],
    }


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {path}")


def emit_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


class AnswerSource:
    """A backend that stores nothing and answers each test instance of ``plan`` by ``answer``."""

    def __init__(self, plan, answer):
        self._instances = {plan.task(inst).digest: inst for inst in plan.test.instances}
        self._answer = answer

    def stored(self, digest: str) -> None:
        """No answer is stored here: each is made."""

    def complete(self, req, digest: str) -> tuple[str, str]:
        return self._answer(self._instances[digest])

    def close(self) -> None:
        """Nothing to release."""


def record(cfg: RunConfig, fixture_path, answer) -> dict:
    """``cfg``'s report; ``answer(instance)`` gives each ``(text, finish_reason)`` not yet
    in ``fixture_path``, and ``RecordingBackend`` appends it there."""
    plan = prepare(cfg)
    return _run(plan, lambda cfg: RecordingBackend(AnswerSource(plan, answer), str(fixture_path)))


def main() -> None:
    os.chdir(REPO_ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)

    write_jsonl(FIXTURES / "train.jsonl", (corpus_record(r) for r in TRAIN))
    write_jsonl(FIXTURES / "test.jsonl", (corpus_record(r) for r in TEST))
    write_jsonl(
        FIXTURES / "amr.jsonl",
        ({"id": k, "amr": v} for k, v in AMR.items()),
    )

    rng = random.Random(20240817)
    write_jsonl(
        FIXTURES / "vectors.jsonl",
        (
            {
                "example_id": row[0],
                "values": [round(rng.uniform(-1.0, 1.0), 4) for _ in range(4)],
            }
            for row in TRAIN
        ),
    )

    ontology = load_ontology("fixtures/ontology.yaml")
    train = load_corpus("fixtures/train.jsonl", "train")
    test = load_corpus("fixtures/test.jsonl", "test")
    for split_name, dataset in (("train", train), ("test", test)):
        problems = validate_against_ontology(dataset, ontology)
        if problems:
            raise SystemExit(f"{split_name} corpus invalid: {problems}")

    for name, (settings, instance_id) in GOLDEN_PROMPTS.items():
        plan = prepare(replace(BASE, **settings))
        emit_golden(name, plan.task(plan.test.by_id(instance_id)).bundle.text)

    # completion fixtures for the frozen replay runs (k=1), one thread keeping task order
    completions = FIXTURES / "completions.jsonl"
    completions.unlink(missing_ok=True)
    for style, responses in (("code", CODE_RESPONSES), ("t1", T1_RESPONSES)):
        cfg = replace(BASE, prompt_style=style, max_in_flight=1)
        record(cfg, completions, lambda inst: responses[inst.id])
    print(f"wrote {completions}")

    report = run(BASE)
    write_report(report, str(GOLDEN / "run_report.json"))
    print(f"wrote {GOLDEN / 'run_report.json'}")

    vectors = load_vectors("fixtures/vectors.jsonl")
    var_report = variability_report(load_points([str(GOLDEN / "run_report.json")], vectors))
    write_report(var_report, str(GOLDEN / "variability_report.json"))
    print(f"wrote {GOLDEN / 'variability_report.json'}")

    micro = report["score"]["micro"]
    print(
        "golden run micro: "
        f"arg_i f1={micro['arg_i']['f1']:.4f} arg_c f1={micro['arg_c']['f1']:.4f}"
    )


if __name__ == "__main__":
    main()
