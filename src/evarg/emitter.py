"""Deterministic prompt rendering.

Renders an ontology, optional in-context examples, and a task instance
into either the class-definition code prompt or one of two labelled text
prompt layouts. All output is byte-deterministic for fixed inputs; the
exact layouts are frozen by golden fixtures under ``fixtures/golden/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .corpus import TrainingInstance
from .files import ConfigError, short_repr
from .ontology import (
    PLACEHOLDER_RE,
    EventTypeDef,
    Ontology,
    ancestors,
    derive_class_name,
    instance_variable,
)


class PromptStyle(str, Enum):
    CODE = "code"
    TEXT_T1 = "t1"
    TEXT_T2 = "t2"


# Stop patterns for code completions; generation is clipped at the earliest
# occurrence of any of these.
CODE_STOP_PATTERNS: tuple[str, ...] = ('"""', "class", "print", "#")

# Text completions end at the first blank line.
TEXT_STOP_PATTERNS: tuple[str, ...] = ("\n\n",)

# t1 heads a list of arguments with this line: a definition's roles, an answer's fillers.
_T1_ARGUMENTS = "Arguments:"

# style -> the stop patterns of its prompts; a style's value looks up its entry too
STOP_PATTERNS: dict[PromptStyle, tuple[str, ...]] = {
    PromptStyle.CODE: CODE_STOP_PATTERNS,
    PromptStyle.TEXT_T1: TEXT_STOP_PATTERNS,
    PromptStyle.TEXT_T2: TEXT_STOP_PATTERNS,
}

# style -> the completion prefix its task block ends with
_COMPLETION_PREFIX: dict[PromptStyle, str] = {
    PromptStyle.CODE: "{var} = {cls}(",
    PromptStyle.TEXT_T1: _T1_ARGUMENTS,
    PromptStyle.TEXT_T2: "Answer:",
}

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
    """Per-run prompt toggles; each governs one localized region of the output.

    A run's ``RunConfig`` extends this class. ``prompt_style`` is a PromptStyle or its value.
    """

    mark_trigger: bool = True
    include_description: bool = True
    include_type_annotation: bool = True
    include_hierarchy: bool = True
    include_keywords: bool = False
    prompt_style: str = field(
        default="code", metadata={"choices": tuple(style.value for style in PromptStyle)}
    )

    def __post_init__(self) -> None:
        PromptStyle(self.prompt_style)  # an unknown style raises ValueError


@dataclass(frozen=True)
class PromptFrame:
    """What the prompts for one event type given the same examples share.

    A prompt is ``preamble``, then its task block: ``head``, the task's
    sentence, its AMR lines after ``amr_lead`` when it has any, then
    ``tail``, which ends with the style's completion prefix.
    """

    class_name: str
    preamble: str
    head: str
    amr_lead: str
    tail: str
    mark_trigger: bool
    stop_patterns: tuple[str, ...]
    example_ids: tuple[str, ...]

    def task_block(self, inst: TrainingInstance, amr: str | None) -> str:
        """``inst``'s task block; ``amr`` is its sentence's semantic graph."""
        sentence = _marked_sentence(inst, self.mark_trigger)
        amr_lines = [] if amr is None else amr.splitlines()
        if not amr_lines:
            return self.head + sentence + self.tail
        return self.head + sentence + self.amr_lead + "\n".join(amr_lines) + self.tail


@dataclass(frozen=True)
class PromptBundle:
    """A prompt kept as its frame, shared by its group, and its own task block.

    Instances of one type given the same examples can share one frame, so
    a prompt's full text exists only while ``text`` is in use.
    """

    frame: PromptFrame
    task: str

    @property
    def stop_patterns(self) -> tuple[str, ...]:
        return self.frame.stop_patterns

    @property
    def text(self) -> str:
        """The full prompt: the preamble, then the task block."""
        return self.frame.preamble + self.task


def escape_literal(surface: str) -> str:
    """Escape a mention surface for a double-quoted string literal."""
    return surface.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _docstring_block(lines: list[str], indent: str) -> list[str]:
    out = [f'{indent}"""']
    for line in lines:
        out.extend(f"{indent}{part}" for part in line.split("\n"))
    out.append(f'{indent}"""')
    return out


def _slots(template: str) -> str:
    """The template with each ``{role}`` placeholder written as a ``[role]`` slot."""
    return PLACEHOLDER_RE.sub(r"[\1]", template)


def emit_entity_class(ontology: Ontology, name: str) -> str:
    try:
        entity = ontology.entity_types[name]
    except KeyError:
        raise ConfigError(f"unknown entity type: {name!r}") from None
    lines = [f"class {entity.name}(Entity):"]
    lines.extend(_docstring_block(entity.description.splitlines() or [""], "    "))
    return "\n".join(lines)


def emit_event_class(ontology: Ontology, event_type: str, opts: EmitterOptions) -> str:
    """Render one event class definition block."""
    event = ontology.resolve_event(event_type)

    parent = event.parent if (opts.include_hierarchy and event.parent) else "Event"
    lines = [f"class {event.class_name}({parent}):"]

    doc_lines: list[str] = []
    if opts.include_description and event.description_template:
        doc_lines.extend(PLACEHOLDER_RE.sub(r"self.\1", event.description_template).splitlines())
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


def _marked_sentence(inst: TrainingInstance, mark_trigger: bool) -> str:
    sentence = inst.sentence
    start, end = inst.trigger.start, inst.trigger.end
    if not (0 <= start <= end <= len(sentence)):
        raise ConfigError(f"trigger span out of bounds for instance {short_repr(inst.id)}")
    if not mark_trigger:
        return sentence
    return sentence[:start] + "**" + sentence[start:end] + "**" + sentence[end:]


def _task_frame(event: EventTypeDef, opts: EmitterOptions) -> tuple[str, str, str]:
    """The task block as the style poses it, around its sentence and the sentence's AMR.

    The block is the first part, the sentence, the second part and the AMR
    lines when there are any, then the third part, which ends with the
    style's completion prefix. The AMR goes after the sentence, with
    ``AMR: `` before its first line in the text styles.
    """
    style, cls = opts.prompt_style, event.class_name
    completion = _COMPLETION_PREFIX[style].format(var=instance_variable(cls), cls=cls)
    if style == PromptStyle.CODE:
        return f'"""\n{TASK_INSTRUCTION.format(class_name=cls)}\n', "\n", f'\n"""\n{completion}'
    instruction = T2_INSTRUCTION if style == PromptStyle.TEXT_T2 else TASK_INSTRUCTION
    head = f"{instruction.format(class_name=cls)}\nSentence: "
    if style == PromptStyle.TEXT_T2:
        completion = f"Template: {_slots(event.description_template)}\n{completion}"
    return head, "\nAMR: ", f"\n{completion}"


def _answer(
    inst: TrainingInstance, event: EventTypeDef, ontology: Ontology, style: str
) -> str:
    """The gold arguments as ``style`` writes them after the task block, in role order."""
    literals: dict[str, list[str]] = {role.name: [] for role in event.roles}
    for arg in inst.arguments:
        if arg.role not in literals:
            raise ConfigError(
                f"instance {short_repr(inst.id)}: role {short_repr(arg.role)} "
                f"not defined for {event.class_name}"
            )
        literal = f'"{escape_literal(arg.surface)}"'
        if style == PromptStyle.CODE:
            if arg.entity_type not in ontology.entity_types:
                raise ConfigError(
                    f"instance {short_repr(inst.id)}: "
                    f"unresolvable entity type {short_repr(arg.entity_type)}"
                )
            literal = f"{arg.entity_type}({literal})"
        literals[arg.role].append(literal)
    sep = ", " if style == PromptStyle.CODE else "; "
    filled = {role: sep.join(found) for role, found in literals.items() if found}
    if style == PromptStyle.CODE:
        calls = "".join(f"\n    {role}=[{f}]," for role, f in filled.items())
        return calls + ("\n)" if filled else ")")
    if style == PromptStyle.TEXT_T1:
        return "".join(f"\n{role}: {f}" for role, f in filled.items())

    def fill(match: re.Match[str]) -> str:
        role = match.group(1)
        return f"[{role}: {filled[role]}]" if role in filled else f"[{role}]"

    return " " + PLACEHOLDER_RE.sub(fill, event.description_template)


def emit_example(inst: TrainingInstance, ontology: Ontology, opts: EmitterOptions) -> str:
    """A completed in-context example: the task block, then its gold answer.

    Examples never carry the task's semantic-graph augmentation; that is
    appended only to the final task prompt.
    """
    event = ontology.resolve_event(inst.event_type)
    head, _, tail = _task_frame(event, opts)
    sentence = _marked_sentence(inst, opts.mark_trigger)
    return head + sentence + tail + _answer(inst, event, ontology, opts.prompt_style)


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
        header += ": " + _slots(event.description_template)
    else:
        header += "."
    lines = ["Event definition:", header]
    if opts.include_keywords and event.keywords:
        lines.append("Keywords: " + ", ".join(event.keywords))
    if event.roles:
        lines.append(_T1_ARGUMENTS)
        for role in event.roles:
            entry = f"- {role.name}"
            if opts.include_description and role.role_description:
                entry += f" ({role.role_description})"
            if opts.include_type_annotation:
                entry += f": list of {_type_list(role.allowed_entity_types)}"
            lines.append(entry)
    return "\n".join(lines)


# --- whole prompts ---------------------------------------------------------


def build_preamble(
    ontology: Ontology,
    event_type: str,
    examples: list[TrainingInstance],
    opts: EmitterOptions,
) -> str:
    """Every block before the task block, each followed by its blank line.

    The preamble depends on the event type, the examples and the options,
    so all instances sharing those share it. It is empty only for a ``t2``
    prompt without examples.
    """
    style = opts.prompt_style
    blocks: list[str] = []
    if style != PromptStyle.TEXT_T2:
        event_classes = _event_definition_order(ontology, event_type, examples, opts)
        entities = _reachable_entities(ontology, event_classes)
        if style == PromptStyle.CODE:
            blocks = [_BASE_ENTITY_BLOCK, _BASE_EVENT_BLOCK]
            blocks.extend(emit_entity_class(ontology, name) for name in entities)
            blocks.extend(emit_event_class(ontology, cls, opts) for cls in event_classes)
        else:
            blocks = [_t1_entity_block(ontology, entities)]
            blocks.extend(_t1_event_block(ontology, cls, opts) for cls in event_classes)
    blocks.extend(emit_example(inst, ontology, opts) for inst in examples)
    return "".join(block + "\n\n" for block in blocks)


def prompt_frame(
    ontology: Ontology,
    event_type: str,
    examples: list[TrainingInstance],
    opts: EmitterOptions,
) -> PromptFrame:
    """What every prompt for a task of ``event_type`` given ``examples`` shares."""
    preamble = build_preamble(ontology, event_type, examples, opts)
    event = ontology.resolve_event(event_type)
    head, amr_lead, tail = _task_frame(event, opts)
    return PromptFrame(
        class_name=event.class_name,
        preamble=preamble,
        head=head,
        amr_lead=amr_lead,
        tail=tail,
        mark_trigger=opts.mark_trigger,
        stop_patterns=STOP_PATTERNS[opts.prompt_style],
        example_ids=tuple(inst.id for inst in examples),
    )


def assemble_prompt(
    ontology: Ontology,
    event_type: str,
    examples: list[TrainingInstance],
    task: TrainingInstance,
    opts: EmitterOptions,
    frame: PromptFrame | None = None,
    amr: str | None = None,
) -> PromptBundle:
    """Full prompt: ontology definitions, k examples, then the task prompt.

    Code style defines classes; ``t1`` uses labelled text blocks and
    ``t2`` fills a template. ``frame`` is ``prompt_frame``'s result for
    the same arguments, when the caller already has it; the bundle keeps
    that object. ``amr``, the task sentence's semantic graph, must not be
    blank.
    """
    if amr is not None and not amr.strip():
        raise ConfigError(f"instance {short_repr(task.id)}: empty AMR")
    if frame is None:
        frame = prompt_frame(ontology, event_type, examples, opts)
    if derive_class_name(task.event_type) != frame.class_name:
        raise ConfigError(
            f"instance {short_repr(task.id)} has type {short_repr(task.event_type)}, "
            f"expected {short_repr(event_type)}"
        )
    return PromptBundle(frame, frame.task_block(task, amr))
