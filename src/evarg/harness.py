"""End-to-end runs: select examples, build prompts, complete, parse, score.

``prepare`` validates a configuration and loads its inputs once; the plan
it returns builds every instance's prompt, request and digest.
``run`` drives one configuration over a test corpus and produces a
report dict that serializes byte-identically across runs when the
backend is replay. Reports are written atomically (temp file then
rename); ``load_report`` re-checks one, and ``compare`` reports the F1
differences between two re-checked reports.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import typing
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

from . import client as client_mod
from .client import (
    CompletionRequest,
    HttpBackend,
    HashedPrefix,
    MissingFixtures,
    RecordingBackend,
    ReplayBackend,
    hash_prefix,
    request_digest,
)
from .corpus import (
    Dataset,
    HierarchySplit,
    TrainingInstance,
    load_corpus,
    select_non_sibling,
    select_same_type,
    select_sibling,
    split_hierarchy,
)
from .emitter import (
    EmitterOptions,
    PromptBundle,
    PromptStyle,
    assemble_prompt,
    build_preamble,
)
from .files import ConfigError, read_jsonl, string_field
from .ontology import Ontology, derive_class_name, load_ontology
from .parsing import ParsedEvent, parse_completion
from .scoring import score


def _one_of(default: str, choices: typing.Iterable[str]) -> typing.Any:
    """A setting restricted to ``choices``; its flag offers them."""
    return field(default=default, metadata={"choices": tuple(choices)})


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, declared once.

    A field's annotation is its type and ``choices`` metadata lists the
    values it may take; the CLI flags and ``validate`` both read them here.
    """

    ontology_path: str
    train_path: str
    test_path: str
    prompt_style: str = _one_of("code", (style.value for style in PromptStyle))
    k: int = 1
    selection_mode: str = _one_of("same", ("same", "sibling", "non_sibling"))
    seed: int = 0
    mark_trigger: bool = True
    include_description: bool = True
    include_type_annotation: bool = True
    include_hierarchy: bool = True
    include_keywords: bool = False
    amr_path: str | None = None
    backend: str = _one_of("replay", ("replay", "http"))
    record: bool = False
    fixture_path: str | None = None
    endpoint: str | None = None
    model_id: str = "fixture-model"
    max_new_tokens: int = 128
    temperature: float = 0.0
    max_prompt_chars: int | None = None
    max_in_flight: int = 4
    output_path: str | None = None

    def __post_init__(self) -> None:
        # YAML reads ``temperature: 0`` as an int; store the float that
        # ``--temperature 0`` gives, so both send the same request
        for name, kind in SETTING_TYPES.items():
            if kind is float and type(getattr(self, name)) is int:
                object.__setattr__(self, name, float(getattr(self, name)))

    def validate(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), SETTING_TYPES[f.name]
            if value is None and f.default is None:
                continue
            if type(value) is not kind:
                raise ConfigError(f"{f.name} must be of type {kind.__name__}, not {value!r}")
            choices = f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {list(choices)}, not {value!r}")
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if self.max_new_tokens <= 0:
            raise ConfigError("max_new_tokens must be positive")
        if not 0 <= self.temperature < float("inf"):
            raise ConfigError(f"temperature must be finite and >= 0, not {self.temperature!r}")
        if self.max_prompt_chars is not None and self.max_prompt_chars <= 0:
            raise ConfigError("max_prompt_chars must be positive")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.backend == "replay":
            if self.fixture_path is None:
                raise ConfigError("replay backend requires fixture_path")
            if self.record:
                raise ConfigError("recording requires the http backend")
        else:
            if self.endpoint is None:
                raise ConfigError("http backend requires endpoint")
            if self.record and self.fixture_path is None:
                raise ConfigError("recording requires fixture_path")


# Each setting's type, without the ``| None`` of an optional setting.
SETTING_TYPES: dict[str, type] = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def _build_backend(cfg: RunConfig):
    if cfg.backend == "replay":
        return ReplayBackend(cfg.fixture_path)
    backend = HttpBackend(endpoint=cfg.endpoint)
    return RecordingBackend(backend, cfg.fixture_path) if cfg.record else backend


def load_amr(path: str) -> dict[str, str]:
    """Read {id, amr} records keyed by instance id."""
    table: dict[str, str] = {}

    def add(rec: dict) -> None:
        instance_id, amr = string_field(rec, "id"), string_field(rec, "amr")
        if not amr.strip():
            raise ValueError(f"empty amr for {instance_id!r}")
        table[instance_id] = amr

    read_jsonl(path, "amr", add)
    return table


@dataclass(frozen=True)
class Task:
    """One test instance with the prompt and request a run sends for it."""

    instance: TrainingInstance
    bundle: PromptBundle
    request: CompletionRequest
    digest: str


@dataclass(frozen=True)
class Plan:
    """A validated config with everything its prompts are built from.

    Instances of one event type given the same examples share a preamble;
    the plan builds and hashes each such preamble once.
    """

    cfg: RunConfig
    ontology: Ontology
    train: Dataset
    test: Dataset
    amr: dict[str, str]
    options: EmitterOptions
    # the parent -> training child split, for the modes that select by hierarchy
    split: dict[str, HierarchySplit]
    # (class name, example ids) -> the preamble, hashed as a request prefix
    _preambles: dict[tuple, HashedPrefix] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def task(self, inst: TrainingInstance) -> Task:
        cfg, train, event_type = self.cfg, self.train, inst.event_type
        if cfg.selection_mode == "same":
            examples = select_same_type(train, event_type, cfg.k)
        elif cfg.selection_mode == "sibling":
            examples = select_sibling(train, self.ontology, event_type, cfg.k, self.split)
        else:
            examples = select_non_sibling(train, self.ontology, event_type, cfg.k, cfg.seed)
        key = (derive_class_name(event_type), tuple(e.id for e in examples))
        prefix = self._preambles.get(key)
        if prefix is None:
            preamble = build_preamble(self.ontology, event_type, examples, self.options)
        else:
            preamble = prefix.text
        bundle = assemble_prompt(
            self.ontology, event_type, examples, inst, self.options, preamble,
            amr=self.amr.get(inst.id),
        )
        request = CompletionRequest(
            prompt=bundle.text,
            max_new_tokens=cfg.max_new_tokens,
            temperature=cfg.temperature,
            stop_patterns=bundle.stop_patterns,
            model_id=cfg.model_id,
        )
        if prefix is None:
            prefix = self._preambles[key] = hash_prefix(request, preamble)
        return Task(inst, bundle, request, request_digest(request, prefix))


def prepare(cfg: RunConfig) -> Plan:
    """Validate ``cfg`` and load once what ``run`` and ``evarg emit`` build prompts from."""
    cfg.validate()
    ontology = load_ontology(cfg.ontology_path)
    train = load_corpus(cfg.train_path, "train")
    test = load_corpus(cfg.test_path, "test")

    split = {}
    if cfg.selection_mode in ("sibling", "non_sibling"):
        split = split_hierarchy(ontology, train)
        if not any(entry.test_children for entry in split.values()):
            raise ConfigError(
                f"selection mode {cfg.selection_mode!r} needs a parent type "
                "with at least two children carrying data"
            )

    amr = load_amr(cfg.amr_path) if cfg.amr_path else {}
    options = EmitterOptions(
        mark_trigger=cfg.mark_trigger,
        include_description=cfg.include_description,
        include_type_annotation=cfg.include_type_annotation,
        include_hierarchy=cfg.include_hierarchy,
        include_keywords=cfg.include_keywords,
        prompt_style=PromptStyle(cfg.prompt_style),
    )
    return Plan(cfg, ontology, train, test, amr, options, split)


def _parsed_to_dict(parsed: ParsedEvent) -> dict:
    return {
        "roles": {
            role: [
                {"entity_type": m.entity_type, "surface": m.surface} for m in mentions
            ]
            for role, mentions in parsed.roles.items()
        },
        "diagnostics": [
            {"kind": d.kind.value, "detail": d.detail} for d in parsed.diagnostics
        ],
    }


def _parse_and_score(
    entries: list[tuple], skipped: list[str], ontology: Ontology, test: Dataset, style: str
) -> tuple[list[dict], dict]:
    """Each ``(id, event_type, completion)`` entry's stored parse, and the score block.

    Each instance id in ``skipped`` counts as predicting nothing.
    """
    preds = [(i, parse_completion(text, ontology, t, style)) for i, t, text in entries]
    block = score(preds + [(i, ParsedEvent()) for i in skipped], test).to_dict()
    return [_parsed_to_dict(parsed) for _, parsed in preds], block


def run(cfg: RunConfig) -> dict:
    """Execute one configuration end to end and return the report dict."""
    plan = prepare(cfg)
    shortfall: dict[str, dict] = {}
    skipped: list[dict] = []
    tasks: list[Task] = []
    for inst in plan.test.instances:
        task = plan.task(inst)
        available = len(task.bundle.example_ids)
        if available < cfg.k:
            cls = derive_class_name(inst.event_type)
            note = shortfall.setdefault(cls, {"requested": cfg.k, "available": available})
            note["available"] = max(note["available"], available)
        if cfg.max_prompt_chars is not None and len(task.bundle.text) > cfg.max_prompt_chars:
            skipped.append({"id": inst.id, "prompt_chars": len(task.bundle.text)})
            continue
        tasks.append(task)

    backend = _build_backend(cfg)

    def complete_one(task: Task):
        try:
            return client_mod.complete(backend, task.request, task.digest)
        except MissingFixtures as exc:
            return exc

    try:
        with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
            # a replay lookup holds the GIL throughout: threads would only add overhead
            mapper = map if cfg.backend == "replay" else pool.map
            results = list(mapper(complete_one, tasks))
    finally:
        backend.close()

    misses = [d for r in results if isinstance(r, MissingFixtures) for d in r.digests]
    if misses:
        raise MissingFixtures(misses)

    entries = [(t.instance.id, t.instance.event_type, r.text) for t, r in zip(tasks, results)]
    parses, score_block = _parse_and_score(
        entries, [entry["id"] for entry in skipped], plan.ontology, plan.test, cfg.prompt_style
    )
    instances = [
        {
            "id": task.instance.id,
            "event_type": derive_class_name(task.instance.event_type),
            "prompt_digest": task.digest,
            "prompt_chars": len(task.bundle.text),
            "example_ids": list(task.bundle.example_ids),
            "completion": response.text,
            "finish_reason": response.finish_reason,
            "parsed": parsed,
        }
        for task, response, parsed in zip(tasks, results, parses)
    ]
    report = {
        "config": {k: v for k, v in asdict(cfg).items() if k != "output_path"},
        "instances": instances,
        "skipped": skipped,
        "shortfall": shortfall,
        "score": score_block,
    }
    if cfg.output_path:
        write_report(report, cfg.output_path)
    return report


def write_report(report: dict, path: str | None) -> None:
    """Serialize with stable key order and atomically replace the target.

    Without a ``path`` the same bytes go to stdout.
    """
    payload = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if not path:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_report(path: str) -> dict:
    """Load a report; re-check its parses, its score and its coverage of ``config["test_path"]``.

    The ids of ``instances`` and ``skipped`` together must name every test
    instance exactly once. Relative paths in the config are read from the
    current directory, so a report is re-checked from the directory its run
    was started in.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        config = report["config"]
        ontology_path = string_field(config, "ontology_path")
        test_path = string_field(config, "test_path")
        style = PromptStyle(config.get("prompt_style", "code")).value
        entries = [
            tuple(string_field(e, key) for key in ("id", "event_type", "completion"))
            for e in report["instances"]
        ]
        stored = [e["parsed"] for e in report["instances"]]
        skipped = [string_field(e, "id") for e in report["skipped"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"report file {path} is malformed: {exc!r}") from exc
    ontology = load_ontology(ontology_path)
    test = load_corpus(test_path, "test")
    try:
        parses, score_block = _parse_and_score(entries, skipped, ontology, test, style)
    except KeyError as exc:
        raise ConfigError(f"instance {exc} is not in the test corpus") from None
    for (i, _, _), parsed, kept in zip(entries, parses, stored):
        if parsed != kept:
            raise ConfigError(f"instance {i!r}: stored parse does not match its completion")
    if score_block != report.get("score"):
        raise ConfigError("stored score does not match the stored parses")
    counts = Counter([e[0] for e in entries] + skipped)
    wrong = next((i.id for i in test.instances if counts[i.id] != 1), None)
    if wrong is not None:
        n = counts[wrong]
        raise ConfigError(f"report file {path} lists test instance {wrong!r} {n} times, not once")
    return report


def compare(first_path: str, second_path: str) -> dict:
    """First-minus-second micro F1 of two reports, each re-checked by ``load_report``.

    Both reports must cover the same test instance ids; a report compared
    with itself yields exact zero deltas.
    """
    first, second = load_report(first_path), load_report(second_path)
    ids = [{e["id"] for e in [*r["instances"], *r["skipped"]]} for r in (first, second)]
    only = min(ids[0] ^ ids[1], default=None)
    if only is not None:
        holder, other = (first_path, second_path) if only in ids[0] else (second_path, first_path)
        raise ConfigError(f"reports cover different ids: {only!r} is in {holder}, not {other}")
    a, b = first["score"]["micro"], second["score"]["micro"]
    return {
        "delta": {
            "arg_i_f1": a["arg_i"]["f1"] - b["arg_i"]["f1"],
            "arg_c_f1": a["arg_c"]["f1"] - b["arg_c"]["f1"],
        }
    }
