"""Hierarchical event/entity ontology: model, loader, validator, queries.

The on-disk format is a small YAML document (see README for the schema).
Ontology values are immutable after loading and safe to share across
threads.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .files import ConfigError, read_yaml, short_repr, short_text

logger = logging.getLogger(__name__)

# every ontology name and every name a completion reader accepts; a name must fullmatch
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
IDENTIFIER_RE = re.compile(IDENTIFIER)
PLACEHOLDER_RE = re.compile(rf"\{{({IDENTIFIER})\}}")


@functools.cache
def derive_class_name(type_name: str) -> str:
    """Class identifier for a source type string.

    Takes the last colon-separated segment and maps ``-`` to ``_``,
    e.g. ``"Justice:Arrest-Jail"`` -> ``"Arrest_Jail"``.
    """
    return type_name.rsplit(":", 1)[-1].replace("-", "_")


def instance_variable(class_name: str) -> str:
    """Variable name used when instantiating an event class."""
    return class_name.lower() + "_event"


@dataclass(frozen=True)
class EntityTypeDef:
    name: str
    description: str


@dataclass(frozen=True)
class RoleSpec:
    name: str
    allowed_entity_types: tuple[str, ...]
    role_description: str = ""


@dataclass(frozen=True)
class EventTypeDef:
    class_name: str
    parent: str | None  # class_name of the parent event type
    roles: tuple[RoleSpec, ...]
    description_template: str
    keywords: tuple[str, ...] = ()

    @functools.cached_property
    def role_names(self) -> frozenset[str]:
        """The names of this type's roles; computed once per type."""
        return frozenset(role.name for role in self.roles)


@dataclass(frozen=True)
class Ontology:
    """Validated ontology. Maps preserve file order."""

    entity_types: dict[str, EntityTypeDef]
    event_types: dict[str, EventTypeDef]  # keyed by class_name

    def resolve_event(self, name: str) -> EventTypeDef:
        """Look up an event type by raw name or class name."""
        cls = derive_class_name(name)
        try:
            return self.event_types[cls]
        except KeyError:
            raise ConfigError(f"unknown event type: {short_repr(name)}") from None

    def children(self, parent: str) -> list[str]:
        """Class names of the direct children of ``parent``, in file order."""
        pcls = self.resolve_event(parent).class_name
        return [e.class_name for e in self.event_types.values() if e.parent == pcls]


def ancestors(ontology: Ontology, event_type: str) -> list[str]:
    """Parent chain of ``event_type``, immediate parent first.

    Excludes the type itself and the synthetic base class.
    """
    node = ontology.resolve_event(event_type)
    chain: list[str] = []
    while node.parent is not None:
        chain.append(node.parent)
        node = ontology.event_types[node.parent]
    return chain


def siblings(ontology: Ontology, event_type: str) -> set[str]:
    """Event types sharing the immediate parent of ``event_type``.

    A type with no parent has no siblings; that case is logged and yields
    the empty set.
    """
    node = ontology.resolve_event(event_type)
    if node.parent is None:
        logger.warning("siblings(%s): type has no parent", short_text(node.class_name))
        return set()
    return set(ontology.children(node.parent)) - {node.class_name}


def load_ontology(path: str | Path) -> Ontology:
    """Load and validate an ontology document from ``path``."""
    doc = read_yaml(path, "ontology")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("ontology document must be a mapping")
    unknown = set(doc) - {"entities", "events"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {short_repr(sorted(unknown, key=str))}")

    problems: list[str] = []
    entity_types = _parse_entities(doc.get("entities", []), problems)
    event_types = _parse_events(doc.get("events", []), entity_types, problems)
    if problems:
        raise ConfigError("invalid ontology:\n  " + "\n  ".join(problems))
    return Ontology(entity_types=entity_types, event_types=event_types)


def _parse_entities(raw: object, problems: list[str]) -> dict[str, EntityTypeDef]:
    out: dict[str, EntityTypeDef] = {}
    if not isinstance(raw, list):
        raise ConfigError("'entities' must be a list")
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"entities[{i}] must be a mapping")
        name = item.get("name")
        description = item.get("description")
        if not isinstance(name, str) or not IDENTIFIER_RE.fullmatch(name):
            problems.append(f"entity name {short_repr(name)} is not a valid identifier")
            continue
        if name in out:
            problems.append(f"duplicate entity type {short_repr(name)}")
            continue
        if not isinstance(description, str) or not description.strip():
            problems.append(f"entity {short_repr(name)} has an empty description")
            continue
        out[name] = EntityTypeDef(name=name, description=description)
    return out


def _parse_events(
    raw: object,
    entity_types: dict[str, EntityTypeDef],
    problems: list[str],
) -> dict[str, EventTypeDef]:
    if not isinstance(raw, list):
        raise ConfigError("'events' must be a list")

    # First pass: collect names so parents can be declared in any order.
    records: list[dict] = []
    by_class: dict[str, str] = {}  # class_name -> the name as written
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"events[{i}] must be a mapping")
        name = item.get("name")
        if not isinstance(name, str) or not name.strip():
            problems.append(f"events[{i}] has no usable name")
            continue
        cls, event = derive_class_name(name), f"event {short_repr(name)}"
        if not IDENTIFIER_RE.fullmatch(cls):
            problems.append(f"{event} derives invalid class name {short_repr(cls)}")
            continue
        if cls in by_class:
            problems.append(
                f"{event} collides with {short_repr(by_class[cls])} on class name {short_repr(cls)}"
            )
            continue
        by_class[cls] = name
        records.append(item)

    out: dict[str, EventTypeDef] = {}
    for item in records:
        name = item["name"]
        cls, event = derive_class_name(name), f"event {short_repr(name)}"
        parent_ref = item.get("parent")
        parent: str | None = None
        if parent_ref is not None:
            if not isinstance(parent_ref, str):
                problems.append(f"{event}: parent must be a string")
            else:
                pcls = derive_class_name(parent_ref)
                if pcls not in by_class:
                    problems.append(f"{event}: parent {short_repr(parent_ref)} is not defined")
                elif pcls == cls:
                    problems.append(f"{event} is its own parent")
                else:
                    parent = pcls

        template = item.get("template")
        if not isinstance(template, str) or not template.strip():
            problems.append(f"{event} has an empty template")
            template = ""

        keywords_raw = item.get("keywords", [])
        keywords: tuple[str, ...] = ()
        if keywords_raw is not None:
            if not isinstance(keywords_raw, list) or not all(
                isinstance(k, str) and k.strip() for k in keywords_raw
            ):
                problems.append(f"{event}: keywords must be non-empty strings")
            else:
                keywords = tuple(keywords_raw)

        roles = _parse_roles(item.get("roles", []), name, entity_types, problems)
        for ph in PLACEHOLDER_RE.findall(template):
            if ph not in {r.name for r in roles}:
                problems.append(f"{event}: template placeholder {{{short_text(ph)}}} names no role")

        out[cls] = EventTypeDef(
            class_name=cls,
            parent=parent,
            roles=roles,
            description_template=template,
            keywords=keywords,
        )

    _check_acyclic(out, problems)
    return out


def _parse_roles(
    raw: object,
    event_name: str,
    entity_types: dict[str, EntityTypeDef],
    problems: list[str],
) -> tuple[RoleSpec, ...]:
    if raw is None:
        return ()
    event = f"event {short_repr(event_name)}"
    if not isinstance(raw, list):
        raise ConfigError(f"{event}: roles must be a list")
    roles: list[RoleSpec] = []
    seen: set[str] = set()
    for item in raw:
        if not isinstance(item, dict):
            raise ConfigError(f"{event}: each role must be a mapping")
        rname = item.get("name")
        if not isinstance(rname, str) or not IDENTIFIER_RE.fullmatch(rname):
            problems.append(f"{event}: role name {short_repr(rname)} is invalid")
            continue
        if rname in seen:
            problems.append(f"{event}: duplicate role {short_repr(rname)}")
            continue
        seen.add(rname)
        role = f"{event}: role {short_repr(rname)}"
        types = item.get("types")
        if not isinstance(types, list) or not types:
            problems.append(f"{role} lists no types")
            continue
        ok = True
        for t in types:
            if not isinstance(t, str) or t not in entity_types:
                problems.append(f"{role} uses unknown entity type {short_repr(t)}")
                ok = False
        if not ok:
            continue
        desc = item.get("description", "")
        if desc is None:
            desc = ""
        if not isinstance(desc, str):
            problems.append(f"{role} description must be text")
            continue
        roles.append(
            RoleSpec(name=rname, allowed_entity_types=tuple(types), role_description=desc)
        )
    return tuple(roles)


def _check_acyclic(events: dict[str, EventTypeDef], problems: list[str]) -> None:
    for cls in events:
        seen = {cls}
        node = events[cls]
        while node.parent is not None:
            if node.parent in seen:
                problems.append(f"event hierarchy cycle through {short_repr(node.parent)}")
                return
            seen.add(node.parent)
            node = events[node.parent]
