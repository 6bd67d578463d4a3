"""End-to-end runs: select examples, build prompts, complete, parse, score.

``prepare`` loads a configuration's inputs once and encodes the run's
decoding settings once. Of the training file it keeps only what
selection can read: each class's first ``k`` instances and every class's
count. The plan it returns builds every instance's task from its group,
the instances of one class: their examples are selected once, the
group's frame holds their shared preamble, the task block around the
sentence and the stop patterns, and the preamble is hashed once as a
digest prefix. A task holds only its own task block and its request's
digest, hashed from the group's prefix state over that block alone.
``run`` builds every task before it builds a backend, so an input no
prompt can be built from fails the run before any request is sent. It
then hands the tasks to ``client.complete``, the one answer step, which
looks each digest up in what the backend stores (a replay fixture, a
recording's file, or a report's own completions), sends each miss once,
building its request and full prompt only then, and cuts every answer
at the stop patterns. The report serializes byte-identically across
runs when the backend is replay. Reports are written atomically, a
piece at a time into a temp file that then replaces the target.
``load_report`` verifies one by rerunning its config on its own
completions; ``compare`` differences the F1 of two verified reports.
``run`` and ``load_report`` pause CPython's cyclic collector while they
work and then restore its state: a run's objects form no reference cycles,
so its collections would free nothing, only walk the corpus it keeps.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields

from . import client as client_mod
from .client import (
    CompletionRequest,
    HttpBackend,
    HashedPrefix,
    MissingFixtures,
    RecordingBackend,
    ReplayBackend,
    check_endpoint,
    request_digest,
    settings_prefix,
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
    validate_against_ontology,
)
from .emitter import (
    STOP_PATTERNS,
    EmitterOptions,
    PromptBundle,
    PromptFrame,
    assemble_prompt,
    prompt_frame,
)
from .files import (
    ConfigError,
    read_jsonl,
    short_repr,
    short_text,
    string_field,
    write_json,
)
from .ontology import Ontology, derive_class_name, load_ontology
from .parsing import parse_completion
from .scoring import score


def _one_of(default: str, choices: typing.Iterable[str]) -> typing.Any:
    """A setting restricted to ``choices``; its flag offers them."""
    return field(default=default, metadata={"choices": tuple(choices)})


@dataclass(frozen=True, kw_only=True)
class RunConfig(EmitterOptions):
    """Every run setting, declared once; the prompt settings are inherited from ``EmitterOptions``.

    A field's annotation is its type and ``choices`` metadata lists the
    values it may take; the CLI flags and the checks in ``__post_init__``
    read them here. A bad config raises ``ConfigError`` when it is built.
    """

    ontology_path: str
    train_path: str
    test_path: str
    k: int = 1
    selection_mode: str = _one_of("same", ("same", "sibling", "non_sibling"))
    seed: int = 0
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
        for f in fields(self):
            value, kind = getattr(self, f.name), SETTING_TYPES[f.name]
            if kind is float and type(value) is int:
                # YAML reads ``temperature: 0`` as an int; store the float that
                # ``--temperature 0`` gives, so both send the same request
                try:
                    value = float(value)
                except OverflowError:  # too large for a float, as ``--temperature 1e999`` is
                    value = math.inf if value > 0 else -math.inf
                object.__setattr__(self, f.name, value)
            if type(value) is not kind and (value is not None or f.default is not None):
                raise ConfigError(
                    f"{f.name} must be of type {kind.__name__}, not {short_repr(value)}"
                )
            choices = f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(
                    f"{f.name} must be one of {list(choices)}, not {short_repr(value)}"
                )
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
            check_endpoint(self.endpoint)
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
            raise ValueError(f"empty amr for {short_repr(instance_id)}")
        if instance_id in table:
            raise ValueError(f"duplicate id {short_repr(instance_id)}")
        table[instance_id] = amr

    read_jsonl(path, "amr", add)
    return table


@dataclass(frozen=True)
class Task:
    """One test instance with its prompt's two parts and its request's digest.

    The full prompt is not kept: ``request`` builds it each time it is
    read, so a run holds it only while it sends it.
    """

    instance: TrainingInstance
    bundle: PromptBundle
    digest: str
    cfg: RunConfig = field(repr=False)

    @property
    def request(self) -> CompletionRequest:
        """The request that sends this prompt with the run's decoding settings."""
        cfg = self.cfg
        return CompletionRequest(
            prompt=self.bundle.text,
            max_new_tokens=cfg.max_new_tokens,
            temperature=cfg.temperature,
            stop_patterns=self.bundle.stop_patterns,
            model_id=cfg.model_id,
        )


@dataclass(frozen=True)
class Plan:
    """A config with everything its prompts are built from.

    The instances of one class form a group. Selection depends only on
    the class, as ``k``, the seed and the split are fixed for the run, so
    the plan selects a group's examples on its first instance; the group
    shares a prompt frame: the preamble, the task block around its
    sentence and the stop patterns. The plan builds each group's frame
    once, and hashes its preamble once, from the run's settings encoded
    once; an instance's digest then hashes only its task block.
    """

    cfg: RunConfig
    ontology: Ontology
    train: Dataset
    test: Dataset
    amr: dict[str, str]
    # the parent -> training child split, for the modes that select by hierarchy
    split: dict[str, HierarchySplit]
    # the run's decoding settings and stop patterns: the empty prefix of its every request
    settings: HashedPrefix
    # class name -> the group's examples, its frame, and its preamble hashed as a prefix
    _groups: dict[str, tuple[list[TrainingInstance], PromptFrame, HashedPrefix]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def task(self, inst: TrainingInstance) -> Task:
        cls = derive_class_name(inst.event_type)
        group = self._groups.get(cls)
        if group is None:
            group = self._groups[cls] = self._group(inst.event_type)
        examples, frame, prefix = group
        bundle = assemble_prompt(
            self.ontology, inst.event_type, examples, inst, self.cfg, frame,
            amr=self.amr.get(inst.id),
        )
        return Task(inst, bundle, request_digest(bundle.task, prefix), self.cfg)

    def _group(self, event_type: str) -> tuple[list[TrainingInstance], PromptFrame, HashedPrefix]:
        """The examples, frame and hashed preamble of ``event_type``'s group."""
        cfg, train = self.cfg, self.train
        if cfg.selection_mode == "same":
            examples = select_same_type(train, event_type, cfg.k)
        elif cfg.selection_mode == "sibling":
            examples = select_sibling(train, self.ontology, event_type, cfg.k, self.split)
        else:
            examples = select_non_sibling(train, self.ontology, event_type, cfg.k, cfg.seed)
        frame = prompt_frame(self.ontology, event_type, examples, cfg)
        return examples, frame, self.settings.extended(frame.preamble)


def prepare(cfg: RunConfig) -> Plan:
    """Load once what ``run`` and ``evarg emit`` build prompts from."""
    ontology = load_ontology(cfg.ontology_path)
    # every selection mode reads at most a class's first k instances and every class's count
    train = load_corpus(cfg.train_path, "train", per_class=cfg.k)
    test = load_corpus(cfg.test_path, "test")
    # the test gold is what gets scored, so it must fit the ontology as `evarg validate` checks
    problems = validate_against_ontology(test, ontology)
    if problems:
        listing = "\n  ".join(problems)
        raise ConfigError(f"test corpus {cfg.test_path} does not fit the ontology:\n  {listing}")

    split = {}
    if cfg.selection_mode in ("sibling", "non_sibling"):
        split = split_hierarchy(ontology, train)
        if not any(entry.test_children for entry in split.values()):
            raise ConfigError(
                f"selection mode {cfg.selection_mode!r} needs a parent type "
                "with at least two children carrying data"
            )

    amr = load_amr(cfg.amr_path) if cfg.amr_path else {}
    stop_patterns = STOP_PATTERNS[cfg.prompt_style]
    settings = settings_prefix(cfg.model_id, cfg.max_new_tokens, cfg.temperature, stop_patterns)
    return Plan(cfg, ontology, train, test, amr, split, settings)


def collector_paused(func):
    """``func`` with the cyclic collector off until it returns, then as it was found.

    The collector resumes after ``func``'s frame is gone, so the corpora
    and plan it held are freed by reference counting, never walked.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@collector_paused
def run(cfg: RunConfig) -> dict:
    """Execute one configuration end to end and return the report dict."""
    report = _run(prepare(cfg), _build_backend)
    if cfg.output_path:
        write_report(report, cfg.output_path)
    return report


def _run(plan: Plan, build_backend) -> dict:
    """The report of ``plan``'s run, completed by ``build_backend(plan.cfg)``."""
    cfg = plan.cfg
    skipped: list[dict] = []
    tasks: list[Task] = []
    for inst in plan.test.instances:
        task = plan.task(inst)
        chars = len(task.bundle.frame.preamble) + len(task.bundle.task)
        if cfg.max_prompt_chars is not None and chars > cfg.max_prompt_chars:
            skipped.append({"id": inst.id, "prompt_chars": chars})
            continue
        tasks.append(task)

    style = cfg.prompt_style
    backend = build_backend(cfg)
    try:
        answers = client_mod.complete(backend, tasks, STOP_PATTERNS[style], cfg.max_in_flight)
    finally:
        backend.close()

    instances = []
    for t, (text, finish) in zip(tasks, answers):
        instances.append(
            {
                "id": t.instance.id,
                "event_type": derive_class_name(t.instance.event_type),
                "prompt_digest": t.digest,
                "prompt_chars": len(t.bundle.frame.preamble) + len(t.bundle.task),
                "example_ids": list(t.bundle.frame.example_ids),
                "completion": text,
                "finish_reason": finish,
                "parsed": parse_completion(text, plan.ontology, t.instance.event_type, style),
            }
        )
    # a skipped instance counts as predicting nothing
    nothing = [(entry["id"], {"roles": {}, "diagnostics": []}) for entry in skipped]
    preds = [(entry["id"], entry["parsed"]) for entry in instances] + nothing
    return {
        "config": {k: v for k, v in asdict(cfg).items() if k != "output_path"},
        "instances": instances,
        "skipped": skipped,
        # each class's examples were selected once, for its group
        "shortfall": {
            cls: {"requested": cfg.k, "available": len(examples)}
            for cls, (examples, _, _) in plan._groups.items()
            if len(examples) < cfg.k
        },
        "score": score(preds, plan.test),
    }


def write_report(report: dict, path: str | None) -> None:
    """Serialize with stable key order and atomically replace the target.

    The bytes are ``json.dumps(report, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a line break, written a piece at a time by
    ``write_json``. Without a ``path`` they go to stdout, where the pieces
    before a value that is not JSON (``TypeError``) stay written. A file is
    written into a temp file in the target's directory, which then replaces
    the target; a report that cannot be written leaves the target as it was
    and no temp file. The file gets the mode ``open(path, "w")`` gives a new
    file: ``0o666`` less the umask.
    """
    if not path:
        write_json(report, sys.stdout.write)
        sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".report-{os.urandom(8).hex()}.tmp")
    # created as open() creates a file, so the umask applies; O_EXCL keeps it ours
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write_json(report, fh.write)
            fh.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


_ABSENT = object()


def _first_difference(stored: typing.Any, rerun: typing.Any, at: str = "") -> str | None:
    """Where the two first differ, as a key path like ``instances[0].k``; ``1`` is not ``1.0``."""
    if isinstance(stored, list) and isinstance(rerun, list):
        stored, rerun = dict(enumerate(stored)), dict(enumerate(rerun))
        step = "{}[{}]".format
    elif isinstance(stored, dict) and isinstance(rerun, dict):
        step = "{}.{}".format if at else lambda _, key: key
    else:
        return None if type(stored) is type(rerun) and stored == rerun else at
    for key in sorted(stored.keys() | rerun.keys()):
        found = _first_difference(stored.get(key, _ABSENT), rerun.get(key, _ABSENT), step(at, key))
        if found is not None:
            return found
    return None


@collector_paused
def load_report(path: str) -> dict:
    """Load a report and verify it: rerun on its own completions, its config gives it back.

    Only each stored ``completion`` and ``finish_reason``, served by its
    stored ``prompt_digest``, is trusted; no endpoint is contacted.
    Relative config paths are read from the current directory.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        cfg = RunConfig(**report["config"])
        entries = {
            string_field(e, "prompt_digest"): (
                string_field(e, "completion"),
                string_field(e, "finish_reason"),
            )
            for e in report["instances"]
        }
    except (KeyError, TypeError, ValueError, RecursionError, ConfigError) as exc:
        raise ConfigError(f"report file {path} is malformed: {short_text(repr(exc))}") from exc
    try:
        plan = prepare(cfg)
        rerun = _run(plan, lambda cfg: ReplayBackend(path, entries=entries))
    except ConfigError as exc:
        raise ConfigError(f"report file {path}: {exc}") from exc
    except MissingFixtures as exc:
        first = next(i.id for i in plan.test.instances if plan.task(i).digest in exc.digests)
        message = f"gives test instance {short_repr(first)} a prompt that no instance stores"
        raise ConfigError(f"report file {path}: its config {message}") from None
    difference = _first_difference(report, rerun)
    if difference is not None:
        raise ConfigError(f"report file {path} differs from its rerun at {short_text(difference)}")
    return report


def compare(first_path: str, second_path: str) -> dict:
    """First-minus-second micro F1 of two reports, each verified by ``load_report``.

    Both reports must cover the same test instance ids; a report compared
    with itself yields exact zero deltas.
    """
    first, second = load_report(first_path), load_report(second_path)
    ids = [{e["id"] for e in [*r["instances"], *r["skipped"]]} for r in (first, second)]
    only = min(ids[0] ^ ids[1], default=None)
    if only is not None:
        holder, other = (first_path, second_path) if only in ids[0] else (second_path, first_path)
        raise ConfigError(
            f"reports cover different ids: {short_repr(only)} is in {holder}, not {other}"
        )
    a, b = first["score"]["micro"], second["score"]["micro"]
    return {
        "delta": {
            "arg_i_f1": a["arg_i"]["f1"] - b["arg_i"]["f1"],
            "arg_c_f1": a["arg_c"]["f1"] - b["arg_c"]["f1"],
        }
    }
