"""Deterministic prompt rendering.

Renders an ontology, optional in-context examples, and a task instance
into either the class-definition code prompt or one of two labelled text
prompt layouts. All output is byte-deterministic for fixed inputs; the
exact layouts are frozen by golden fixtures under ``fixtures/golden/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum

from .corpus import TrainingInstance
from .files import ConfigError
from .ontology import (
    Ontology,
    EventTypeDef,
    ancestors,
    derive_class_name,
    instance_variable,
)


class EmitError(ConfigError):
    """Prompt rendering failed (unknown type, bad span, bad gold data)."""


class PromptStyle(Enum):
    CODE = "code"
    TEXT_T1 = "t1"
    TEXT_T2 = "t2"


# Stop patterns for code completions; generation is clipped at the earliest
# occurrence of any of these.
CODE_STOP_PATTERNS: tuple[str, ...] = ('"""', "class", "print", "#")

# Text completions end at the first blank line.
TEXT_STOP_PATTERNS: tuple[str, ...] = ("\n\n",)

TASK_INSTRUCTION = (
    "Translate the following sentence into an instance of {class_name}; "
    "the trigger is marked with **."
)

T2_INSTRUCTION = (
    "Fill in the event template for a {class_name} event; "
    "the trigger is marked with **."
)

_BASE_ENTITY_BLOCK = "class Entity:\n    def __init__(self, name: str):\n        self.name = name"
_BASE_EVENT_BLOCK = "class Event:\n    pass"


@dataclass(frozen=True)
class EmitterOptions:
    """Prompt component toggles.

    The boolean toggles each govern one localized region of the output;
    ``amr_text`` is an optional precomputed semantic-graph string appended
    after the task sentence.
    """

    mark_trigger: bool = True
    include_description: bool = True
    include_type_annotation: bool = True
    include_hierarchy: bool = True
    include_keywords: bool = False
    amr_text: str | None = None
    prompt_style: PromptStyle = PromptStyle.CODE

    def __post_init__(self) -> None:
        if self.amr_text is not None and not self.amr_text.strip():
            raise ValueError("amr_text must be non-empty when present")


@dataclass(frozen=True)
class PromptBundle:
    text: str
    stop_patterns: tuple[str, ...]
    completion_prefix: str
    example_ids: tuple[str, ...]
    style: PromptStyle


def escape_literal(surface: str) -> str:
    """Escape a mention surface for a double-quoted string literal."""
    return surface.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _docstring_block(lines: list[str], indent: str) -> list[str]:
    out = [f'{indent}"""']
    for line in lines:
        out.extend(f"{indent}{part}" for part in line.split("\n"))
    out.append(f'{indent}"""')
    return out


def rewrite_template(template: str, style: str) -> str:
    """Rewrite ``{role}`` placeholders to the style's role reference form."""
    if style == "member":
        return re.sub(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", r"self.\1", template)
    if style == "slot":
        return re.sub(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", r"[\1]", template)
    raise ValueError(style)


def emit_entity_class(ontology: Ontology, name: str) -> str:
    try:
        entity = ontology.entity_types[name]
    except KeyError:
        raise EmitError(f"unknown entity type: {name!r}") from None
    lines = [f"class {entity.name}(Entity):"]
    lines.extend(_docstring_block(entity.description.splitlines() or [""], "    "))
    return "\n".join(lines)


def emit_event_class(ontology: Ontology, event_type: str, opts: EmitterOptions) -> str:
    """Render one event class definition block."""
    try:
        event = ontology.resolve_event(event_type)
    except Exception as exc:
        raise EmitError(str(exc)) from None

    parent = event.parent if (opts.include_hierarchy and event.parent) else "Event"
    lines = [f"class {event.class_name}({parent}):"]

    doc_lines: list[str] = []
    if opts.include_description and event.description_template:
        doc_lines.extend(rewrite_template(event.description_template, "member").splitlines())
    if opts.include_keywords and event.keywords:
        doc_lines.append("Keywords: " + ", ".join(event.keywords))
    if doc_lines:
        lines.extend(_docstring_block(doc_lines, "    "))

    if event.roles:
        lines.append("    def __init__(")
        lines.append("        self,")
        for role in event.roles:
            if opts.include_type_annotation:
                union = " | ".join(role.allowed_entity_types)
                lines.append(f"        {role.name}: List[{union}] = [],")
            else:
                lines.append(f"        {role.name} = [],")
        lines.append("    ):")
        for role in event.roles:
            lines.append(f"        self.{role.name} = {role.name}")
    elif not doc_lines:
        lines.append("    pass")
    return "\n".join(lines)


def _marked_sentence(inst: TrainingInstance, opts: EmitterOptions) -> str:
    sentence = inst.sentence
    start, end = inst.trigger.start, inst.trigger.end
    if not (0 <= start <= end <= len(sentence)):
        raise EmitError(f"trigger span out of bounds for instance {inst.id!r}")
    if not opts.mark_trigger:
        return sentence
    return sentence[:start] + "**" + sentence[start:end] + "**" + sentence[end:]


def emit_task_prompt(inst: TrainingInstance, event_type: str, opts: EmitterOptions) -> str:
    """Task docstring plus the unfinished instantiation line."""
    cls = derive_class_name(event_type)
    if derive_class_name(inst.event_type) != cls:
        raise EmitError(
            f"instance {inst.id!r} has type {inst.event_type!r}, expected {event_type!r}"
        )
    doc = [TASK_INSTRUCTION.format(class_name=cls), _marked_sentence(inst, opts)]
    if opts.amr_text is not None:
        doc.extend(opts.amr_text.splitlines())
    lines = _docstring_block(doc, "")
    lines.append(f"{instance_variable(cls)} = {cls}(")
    return "\n".join(lines)


def _grouped_gold(inst: TrainingInstance, event: EventTypeDef) -> list[tuple[str, list]]:
    """Gold arguments grouped per role, in ontology role order."""
    defined = [r.name for r in event.roles]
    groups: dict[str, list] = {name: [] for name in defined}
    for arg in inst.arguments:
        if arg.role not in groups:
            raise EmitError(
                f"instance {inst.id!r}: role {arg.role!r} not defined for {event.class_name}"
            )
        groups[arg.role].append(arg)
    return [(name, groups[name]) for name in defined if groups[name]]


def emit_example(inst: TrainingInstance, ontology: Ontology, opts: EmitterOptions) -> str:
    """A completed in-context example: task prompt plus gold argument list.

    Examples never carry the task's semantic-graph augmentation; that is
    appended only to the final task prompt.
    """
    try:
        event = ontology.resolve_event(inst.event_type)
    except Exception as exc:
        raise EmitError(str(exc)) from None
    for arg in inst.arguments:
        if arg.entity_type not in ontology.entity_types:
            raise EmitError(
                f"instance {inst.id!r}: unresolvable entity type {arg.entity_type!r}"
            )
    example_opts = replace(opts, amr_text=None)
    task = emit_task_prompt(inst, inst.event_type, example_opts)
    filled = _grouped_gold(inst, event)
    if not filled:
        return task + ")"
    lines = [task]
    for role, args in filled:
        calls = ", ".join(
            f'{arg.entity_type}("{escape_literal(arg.surface)}")' for arg in args
        )
        lines.append(f"    {role}=[{calls}],")
    lines.append(")")
    return "\n".join(lines)


def _event_definition_order(
    ontology: Ontology,
    event_type: str,
    examples: list[TrainingInstance],
    opts: EmitterOptions,
) -> list[str]:
    """Classes to define: example-type chains first, the task type last."""
    target = ontology.resolve_event(event_type).class_name
    ordered: list[str] = []
    seen: set[str] = set()

    def add_chain(cls: str) -> None:
        chain = list(reversed(ancestors(ontology, cls))) if opts.include_hierarchy else []
        for name in chain + [cls]:
            if name not in seen:
                seen.add(name)
                ordered.append(name)

    for inst in examples:
        cls = ontology.resolve_event(inst.event_type).class_name
        if cls != target:
            add_chain(cls)
    add_chain(target)
    return ordered


def _reachable_entities(ontology: Ontology, event_classes: list[str]) -> list[str]:
    reachable: set[str] = set()
    for cls in event_classes:
        for role in ontology.event_types[cls].roles:
            reachable.update(role.allowed_entity_types)
    return [name for name in ontology.entity_types if name in reachable]


# --- text prompt layouts ---------------------------------------------------


def _type_list(names: tuple[str, ...]) -> str:
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " or " + names[-1]


def _t1_entity_block(ontology: Ontology, names: list[str]) -> str:
    lines = ["Entity definitions:"]
    for name in names:
        desc = " ".join(ontology.entity_types[name].description.splitlines())
        lines.append(f"- {name}: {desc}")
    return "\n".join(lines)


def _t1_event_block(ontology: Ontology, cls: str, opts: EmitterOptions) -> str:
    event = ontology.event_types[cls]
    header = f"{event.class_name} event"
    if opts.include_hierarchy:
        header += f" (subtype of {event.parent or 'Event'})"
    if opts.include_description and event.description_template:
        header += ": " + rewrite_template(event.description_template, "slot")
    else:
        header += "."
    lines = ["Event definition:", header]
    if opts.include_keywords and event.keywords:
        lines.append("Keywords: " + ", ".join(event.keywords))
    if event.roles:
        lines.append("Arguments:")
        for role in event.roles:
            entry = f"- {role.name}"
            if opts.include_description and role.role_description:
                entry += f" ({role.role_description})"
            if opts.include_type_annotation:
                entry += f": list of {_type_list(role.allowed_entity_types)}"
            lines.append(entry)
    return "\n".join(lines)


def _t1_task_block(inst: TrainingInstance, cls: str, opts: EmitterOptions) -> str:
    lines = [
        TASK_INSTRUCTION.format(class_name=cls),
        "Sentence: " + _marked_sentence(inst, opts),
    ]
    if opts.amr_text is not None:
        amr = opts.amr_text.splitlines()
        lines.append("AMR: " + amr[0])
        lines.extend(amr[1:])
    lines.append("Arguments:")
    return "\n".join(lines)


def _t1_example_block(inst: TrainingInstance, ontology: Ontology, opts: EmitterOptions) -> str:
    event = ontology.resolve_event(inst.event_type)
    block = _t1_task_block(inst, event.class_name, replace(opts, amr_text=None))
    lines = [block]
    for role, args in _grouped_gold(inst, event):
        fillers = "; ".join(f'"{escape_literal(a.surface)}"' for a in args)
        lines.append(f"{role}: {fillers}")
    return "\n".join(lines)


def _t2_task_block(
    inst: TrainingInstance, event: EventTypeDef, opts: EmitterOptions, answer: str | None
) -> str:
    lines = [
        T2_INSTRUCTION.format(class_name=event.class_name),
        "Sentence: " + _marked_sentence(inst, opts),
    ]
    if opts.amr_text is not None:
        amr = opts.amr_text.splitlines()
        lines.append("AMR: " + amr[0])
        lines.extend(amr[1:])
    lines.append("Template: " + rewrite_template(event.description_template, "slot"))
    lines.append("Answer:" if answer is None else "Answer: " + answer)
    return "\n".join(lines)


def _t2_filled_template(inst: TrainingInstance, event: EventTypeDef) -> str:
    groups: dict[str, list[str]] = {}
    for role, args in _grouped_gold(inst, event):
        groups[role] = [a.surface for a in args]

    def fill(match: "re.Match[str]") -> str:
        role = match.group(1)
        surfaces = groups.get(role)
        if not surfaces:
            return f"[{role}]"
        quoted = "; ".join(f'"{escape_literal(s)}"' for s in surfaces)
        return f"[{role}: {quoted}]"

    return re.sub(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", fill, event.description_template)


# --- whole prompts ---------------------------------------------------------


def build_preamble(
    ontology: Ontology,
    event_type: str,
    examples: list[TrainingInstance],
    opts: EmitterOptions,
) -> str:
    """Every block before the task block, each followed by its blank line.

    The preamble depends on the event type, the examples and every option
    but ``amr_text``, so all instances sharing those share it. It is empty
    only for a ``t2`` prompt without examples.
    """
    if opts.prompt_style is PromptStyle.TEXT_T2:
        blocks = []
        for inst in examples:
            event = ontology.resolve_event(inst.event_type)
            answer = _t2_filled_template(inst, event)
            blocks.append(_t2_task_block(inst, event, replace(opts, amr_text=None), answer))
    else:
        event_classes = _event_definition_order(ontology, event_type, examples, opts)
        entities = _reachable_entities(ontology, event_classes)
        if opts.prompt_style is PromptStyle.CODE:
            blocks = [_BASE_ENTITY_BLOCK, _BASE_EVENT_BLOCK]
            blocks.extend(emit_entity_class(ontology, name) for name in entities)
            blocks.extend(emit_event_class(ontology, cls, opts) for cls in event_classes)
            blocks.extend(emit_example(inst, ontology, opts) for inst in examples)
        else:
            blocks = [_t1_entity_block(ontology, entities)]
            blocks.extend(_t1_event_block(ontology, cls, opts) for cls in event_classes)
            blocks.extend(_t1_example_block(inst, ontology, opts) for inst in examples)
    return "".join(block + "\n\n" for block in blocks)


def assemble_prompt(
    ontology: Ontology,
    event_type: str,
    examples: list[TrainingInstance],
    task: TrainingInstance,
    opts: EmitterOptions,
    preamble: str | None = None,
) -> PromptBundle:
    """Full prompt: ontology definitions, k examples, then the task prompt.

    Code style defines classes; ``t1`` uses labelled text blocks and
    ``t2`` fills a template. ``preamble`` is ``build_preamble``'s result
    for the same arguments, when the caller already has it.
    """
    if preamble is None:
        preamble = build_preamble(ontology, event_type, examples, opts)
    style = opts.prompt_style
    cls = derive_class_name(event_type)
    if style is PromptStyle.CODE:
        task_block = emit_task_prompt(task, event_type, opts)
        prefix, stops = f"{instance_variable(cls)} = {cls}(", CODE_STOP_PATTERNS
    elif style is PromptStyle.TEXT_T1:
        task_block = _t1_task_block(task, cls, opts)
        prefix, stops = "Arguments:", TEXT_STOP_PATTERNS
    else:
        task_block = _t2_task_block(task, ontology.resolve_event(event_type), opts, None)
        prefix, stops = "Answer:", TEXT_STOP_PATTERNS
    return PromptBundle(
        text=preamble + task_block,
        stop_patterns=stops,
        completion_prefix=prefix,
        example_ids=tuple(inst.id for inst in examples),
        style=style,
    )
