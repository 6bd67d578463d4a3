"""Training/test corpora and deterministic in-context example selection.

Corpus files are newline-delimited JSON records (one instance per line);
character offsets are 0-based, end-exclusive, counted in Unicode code
points. Datasets are read-only after loading.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple

from .files import ConfigError, not_a_string, read_jsonl, short_repr, short_text
from .ontology import Ontology, ancestors, derive_class_name, siblings


class Span(NamedTuple):
    start: int
    end: int


class GoldArgument(NamedTuple):
    role: str
    surface: str
    entity_type: str
    head: Span | None = None


class TrainingInstance(NamedTuple):
    id: str
    sentence: str
    trigger: Span
    event_type: str
    arguments: tuple[GoldArgument, ...] = ()


@dataclass(frozen=True)
class Dataset:
    """A corpus's instances in file order, and how many each class had there.

    ``counts`` holds every class of the file with how many instances it had
    there, in the order the classes first appear, however the file was
    loaded. A dataset loaded whole holds every instance. One cut at ``k`` per
    class by ``load_corpus(..., per_class=k)`` holds only each class's first
    ``k`` instances, in file order; the records past the cut were checked as
    strictly as the kept ones, but no instance was built for them.
    """

    instances: tuple[TrainingInstance, ...]
    counts: tuple[tuple[str, int], ...]

    @cached_property
    def _ids(self) -> dict[str, TrainingInstance]:
        return {inst.id: inst for inst in self.instances}

    @cached_property
    def by_class(self) -> dict[str, tuple[TrainingInstance, ...]]:
        """Class name -> its kept instances in corpus order; classes without any are absent."""
        groups: dict[str, list[TrainingInstance]] = {}
        for inst in self.instances:
            groups.setdefault(derive_class_name(inst.event_type), []).append(inst)
        return {cls: tuple(insts) for cls, insts in groups.items()}

    @cached_property
    def class_counts(self) -> dict[str, int]:
        """Class name -> how many instances it had in the file; classes without any are absent."""
        return dict(self.counts)

    def by_id(self, instance_id: str) -> TrainingInstance:
        return self._ids[instance_id]


def load_corpus(path: str | Path, split: str, per_class: int | None = None) -> Dataset:
    """Load a corpus file, validating spans and id uniqueness, and count its classes.

    ``split`` names the file in error messages. With ``per_class``, every
    record is still read, checked and counted and every id checked unique
    across the file, but only each class's first ``per_class`` instances are
    built and kept; a record past its class's cut goes through the same
    checks, in the same order, and builds nothing. See ``Dataset``.
    """
    # id -> its instance; None for one past its class's cut, kept for the duplicate check
    instances: dict[str, TrainingInstance | None] = {}
    counts: dict[str, int] = {}

    def add(rec: dict) -> None:
        # the class is read before the checks; a record without a str event_type
        # takes the kept path, whose checks reject it in their usual order
        event_type = rec.get("event_type")
        cls = derive_class_name(event_type) if type(event_type) is str else None
        keep = cls is None or per_class is None or counts.get(cls, 0) < per_class
        inst = _instance_from_record(rec, keep)
        instance_id = inst.id if keep else inst
        if instance_id in instances:
            raise ValueError(f"duplicate instance id {short_repr(instance_id)}")
        counts[cls] = counts.get(cls, 0) + 1
        instances[instance_id] = inst if keep else None

    read_jsonl(path, split, add)
    kept = tuple(inst for inst in instances.values() if inst is not None)
    return Dataset(kept, tuple(counts.items()))


_new = tuple.__new__  # a NamedTuple from all its fields, skipping its Python-level __new__


def _offsets(rec: Any, what: str) -> tuple[int, int]:
    """The ``what`` span record's ``start`` and ``end``.

    The record must be an object, and each offset an int; a bool is not one.
    """
    if type(rec) is not dict:
        raise TypeError(f"{what} must be an object, not {short_repr(rec)}")
    start, end = rec["start"], rec["end"]
    if type(start) is not int or type(end) is not int:
        raise TypeError(f"offsets must be integers, not {short_repr(start)} and {short_repr(end)}")
    return start, end


def _instance_from_record(rec: dict, keep: bool = True) -> TrainingInstance | str:
    """The instance ``rec`` holds, each field checked as it is read: the first fault
    in reading order raises ``KeyError``, ``TypeError`` or ``ValueError``.

    Without ``keep`` the same checks run in the same order, but nothing is
    built: the result is the record's id.
    """
    instance_id = rec["id"]
    if type(instance_id) is not str:
        raise not_a_string("id", instance_id)
    sentence = rec["sentence"]
    if type(sentence) is not str:
        raise not_a_string("sentence", sentence)
    trig = rec["trigger"]
    start, end = _offsets(trig, "trigger")
    surface = trig["surface"]
    if type(surface) is not str:
        raise not_a_string("surface", surface)
    if not (0 <= start <= end <= len(sentence)):
        raise ValueError(f"trigger span out of bounds for instance {short_repr(instance_id)}")
    if sentence[start:end] != surface:
        raise ValueError(
            f"trigger surface mismatch for instance {short_repr(instance_id)}: "
            f"{short_repr(sentence[start:end])} != {short_repr(surface)}"
        )
    records = rec.get("arguments", [])
    if type(records) is not list:
        raise TypeError(f"arguments must be a list, not {short_repr(records)}")
    arguments: list[GoldArgument] = []
    for arg in records:
        if type(arg) is not dict:
            raise TypeError(f"argument {short_repr(arg)} is not an object")
        head = arg.get("head")
        if head is not None:
            head_start, head_end = _offsets(head, "head")
            if not (0 <= head_start <= head_end <= len(sentence)):
                raise ValueError(
                    f"argument head span out of bounds for instance {short_repr(instance_id)}"
                )
            head = _new(Span, (head_start, head_end)) if keep else None
        role = arg["role"]
        if type(role) is not str:
            raise not_a_string("role", role)
        text = arg["surface"]
        if type(text) is not str:
            raise not_a_string("surface", text)
        entity_type = arg.get("entity_type", "")
        if type(entity_type) is not str:
            raise not_a_string("entity_type", entity_type)
        if keep:
            arguments.append(_new(GoldArgument, (role, text, entity_type, head)))
    event_type = rec["event_type"]
    if type(event_type) is not str:
        raise not_a_string("event_type", event_type)
    if not keep:
        return instance_id
    trigger = _new(Span, (start, end))
    return _new(TrainingInstance, (instance_id, sentence, trigger, event_type, tuple(arguments)))


def validate_against_ontology(dataset: Dataset, ontology: Ontology) -> list[str]:
    """Check instance event types and roles against an ontology.

    Returns a list of problem descriptions, empty when clean.
    """
    problems: list[str] = []
    for inst in dataset.instances:
        name = short_text(inst.id)
        try:
            event = ontology.resolve_event(inst.event_type)
        except ConfigError:
            problems.append(f"{name}: unknown event type {short_repr(inst.event_type)}")
            continue
        for arg in inst.arguments:
            if arg.role not in event.role_names:
                problems.append(
                    f"{name}: role {short_repr(arg.role)} not defined for {event.class_name}"
                )
            if arg.entity_type and arg.entity_type not in ontology.entity_types:
                problems.append(f"{name}: unknown entity type {short_repr(arg.entity_type)}")
    return problems


def select_same_type(dataset: Dataset, event_type: str, k: int) -> list[TrainingInstance]:
    """First ``min(k, available)`` instances of ``event_type`` in corpus order.

    ``k`` is not negative: ``RunConfig`` rejects a negative one. Fewer than
    ``k`` available is legal; callers observe the shortfall from the result
    length.
    """
    return list(dataset.by_class.get(derive_class_name(event_type), ())[:k])


@dataclass(frozen=True)
class HierarchySplit:
    train_child: str
    test_children: tuple[str, ...]


def split_hierarchy(ontology: Ontology, dataset: Dataset) -> dict[str, HierarchySplit]:
    """Per parent type, pick the child with the most training instances in the file.

    The highest-count child becomes the training type (ties broken by
    lexicographically smaller class name); all other children become test
    types. Parents whose children carry no data at all are omitted.
    """
    counts = dataset.class_counts
    out: dict[str, HierarchySplit] = {}
    for ev in ontology.event_types.values():
        children = ontology.children(ev.class_name)
        if not any(c in counts for c in children):
            continue
        train_child = min(children, key=lambda c: (-counts.get(c, 0), c))
        test_children = tuple(c for c in children if c != train_child)
        out[ev.class_name] = HierarchySplit(
            train_child=train_child, test_children=test_children
        )
    return out


def select_sibling(
    dataset: Dataset, ontology: Ontology, event_type: str, k: int, split: dict[str, HierarchySplit]
) -> list[TrainingInstance]:
    """Examples for a test type from the training sibling ``split_hierarchy`` chose for it."""
    event = ontology.resolve_event(event_type)
    if event.parent is None or event.parent not in split:
        raise ConfigError(
            f"event type {short_repr(event.class_name)} has no sibling training type with data"
        )
    decision = split[event.parent]
    if event.class_name == decision.train_child:
        raise ConfigError(
            f"event type {short_repr(event.class_name)} is the training child of "
            f"{short_repr(event.parent)}, not a test type"
        )
    return select_same_type(dataset, decision.train_child, k)


def select_non_sibling(
    dataset: Dataset,
    ontology: Ontology,
    event_type: str,
    k: int,
    seed: int,
) -> list[TrainingInstance]:
    """Examples from one seeded-random event type unrelated to ``event_type``.

    The candidate pool excludes the type itself, its siblings, and its
    ancestors; candidates must carry at least one instance. The chosen type
    is stable for a fixed seed.
    """
    event = ontology.resolve_event(event_type)
    excluded = {event.class_name}
    excluded.update(siblings(ontology, event.class_name))
    excluded.update(ancestors(ontology, event.class_name))
    candidates = sorted(
        cls for cls in ontology.event_types if cls not in excluded and cls in dataset.class_counts
    )
    if not candidates:
        raise ConfigError(
            f"no non-sibling event type with data exists for {short_repr(event.class_name)}"
        )
    chosen = random.Random(seed).choice(candidates)
    return select_same_type(dataset, chosen, k)
