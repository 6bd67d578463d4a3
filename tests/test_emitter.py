import pytest

from conftest import make_instance
from evarg.emitter import (
    CODE_STOP_PATTERNS,
    TEXT_STOP_PATTERNS,
    EmitterOptions,
    PromptStyle,
    assemble_prompt,
    build_preamble,
    emit_event_class,
    emit_example,
    escape_literal,
)
from evarg.files import ConfigError, short_repr


@pytest.fixture
def kim(test_set):
    return test_set.by_id("test-001")


@pytest.fixture
def kelly(train_set):
    return train_set.by_id("train-001")


def _bundle(ontology, task, examples, amr=None, **kwargs):
    return assemble_prompt(
        ontology, task.event_type, examples, task, EmitterOptions(**kwargs), amr=amr
    )


# --- golden files ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("prompt_default.txt", {}),
        ("prompt_keywords.txt", {"include_keywords": True}),
        ("prompt_flat.txt", {"include_hierarchy": False}),
        ("prompt_t1.txt", {"prompt_style": PromptStyle.TEXT_T1}),
        ("prompt_t2.txt", {"prompt_style": PromptStyle.TEXT_T2}),
    ],
)
def test_golden_prompts(golden_dir, ontology, kim, kelly, name, kwargs):
    bundle = _bundle(ontology, kim, [kelly], **kwargs)
    assert bundle.text == (golden_dir / name).read_text(encoding="utf-8")


def test_golden_amr_prompt(golden_dir, fixtures_dir, ontology, kim, kelly):
    from evarg.harness import load_amr

    amr = load_amr(str(fixtures_dir / "amr.jsonl"))["test-001"]
    bundle = _bundle(ontology, kim, [kelly], amr=amr)
    assert bundle.text == (golden_dir / "prompt_amr.txt").read_text(encoding="utf-8")
    assert amr in bundle.text


def test_golden_sibling_prompt(golden_dir, ontology, train_set, test_set):
    task = test_set.by_id("test-006")
    example = train_set.by_id("train-006")
    bundle = _bundle(ontology, task, [example])
    assert bundle.text == (golden_dir / "prompt_sibling.txt").read_text(encoding="utf-8")
    # definition order: shared parent, example's type, then the task type
    order = [
        bundle.text.index("class Transaction(Event):"),
        bundle.text.index("class Transfer_Money(Transaction):"),
        bundle.text.index("class Transfer_Ownership(Transaction):"),
    ]
    assert order == sorted(order)


# --- structural properties -------------------------------------------------


def test_bundle_metadata(ontology, kim, kelly):
    bundle = _bundle(ontology, kim, [kelly])
    assert bundle.stop_patterns == CODE_STOP_PATTERNS
    assert bundle.text.endswith("\ntransport_event = Transport(")
    assert bundle.frame.example_ids == ("train-001",)


def test_text_bundles_stop_on_blank_line(ontology, kim, kelly):
    for style, prefix in (
        (PromptStyle.TEXT_T1, "Arguments:"),
        (PromptStyle.TEXT_T2, "Answer:"),
    ):
        bundle = _bundle(ontology, kim, [kelly], prompt_style=style)
        assert bundle.stop_patterns == TEXT_STOP_PATTERNS
        assert bundle.text.endswith("\n" + prefix)


def test_docstring_quotes_balanced(ontology, kim, kelly):
    bundle = _bundle(ontology, kim, [kelly])
    assert bundle.text.count('"""') % 2 == 0


def test_zero_shot_prompt_has_no_examples(ontology, kim):
    bundle = _bundle(ontology, kim, [])
    assert bundle.frame.example_ids == ()
    # exactly one task block, no completed instantiation
    assert bundle.text.count("transport_event = Transport(") == 1


def test_annotation_union_form(ontology, kim):
    text = _bundle(ontology, kim, []).text
    assert "agent: List[GPE | ORG | PER] = []," in text
    assert "vehicle: List[VEH] = []," in text


# --- toggle locality -------------------------------------------------------


def test_trigger_marking_is_the_only_difference(ontology, kim, kelly):
    marked = _bundle(ontology, kim, [kelly]).text
    plain = _bundle(ontology, kim, [kelly], mark_trigger=False).text
    assert "**returned**" in marked
    assert (
        marked.replace("Kim **returned** to", "Kim returned to").replace(
            "Kelly , the Irish teacher , **returned** to",
            "Kelly , the Irish teacher , returned to",
        )
        == plain
    )


def test_keyword_toggle_adds_only_keyword_lines(ontology, kim, kelly):
    base = _bundle(ontology, kim, [kelly]).text.splitlines()
    with_kw = _bundle(ontology, kim, [kelly], include_keywords=True).text.splitlines()
    added = [line for line in with_kw if line not in base]
    assert added == ["    Keywords: transport, move, travel"]


def test_annotation_toggle_only_touches_parameters(ontology, kim, kelly):
    base = _bundle(ontology, kim, [kelly]).text.splitlines()
    bare = _bundle(
        ontology, kim, [kelly], include_type_annotation=False
    ).text.splitlines()
    assert len(base) == len(bare)
    for a, b in zip(base, bare):
        if a != b:
            assert "List[" in a
            assert b.endswith(" = [],")


def test_hierarchy_toggle_changes_parents_and_ancestors(ontology, kim, kelly):
    flat = _bundle(ontology, kim, [kelly], include_hierarchy=False).text
    assert "class Transport(Event):" in flat
    assert "class Movement" not in flat
    deep = _bundle(ontology, kim, [kelly]).text
    assert "class Movement(Event):" in deep
    assert "class Transport(Movement):" in deep


def test_description_toggle_removes_template_docstring(ontology, kim):
    text = _bundle(ontology, kim, [], include_description=False).text
    assert "transported" not in text.split("transport_event")[0].replace(
        "Translate the following", ""
    )
    # class with neither description nor keywords and no roles gets a pass body
    assert "class Movement(Event):\n    pass" in text


# --- examples --------------------------------------------------------------


def test_example_renders_gold_arguments_in_role_order(ontology, train_set):
    inst = train_set.by_id("train-005")  # agent, vehicle, destination
    rendered = emit_example(inst, ontology, EmitterOptions())
    lines = rendered.splitlines()
    assert lines[-4:] == [
        '    agent=[PER("She")],',
        '    vehicle=[VEH("car")],',
        '    destination=[GPE("Dallas")],',
        ")",
    ]


def test_example_multi_filler_single_list(ontology, train_set):
    rendered = emit_example(train_set.by_id("train-003"), ontology, EmitterOptions())
    assert '    artifact=[PER("Welch"), PER("wife")],' in rendered


def test_example_with_no_arguments_closes_inline(ontology):
    inst = make_instance("e-0", "Kim returned .", "returned", "Movement:Transport")
    rendered = emit_example(inst, ontology, EmitterOptions())
    assert rendered.endswith("transport_event = Transport()")


def test_example_escapes_literals(ontology):
    inst = make_instance(
        "e-1",
        'The "Maru" , a freighter , sailed to Kobe .',
        "sailed",
        "Movement:Transport",
        args=[("vehicle", '"Maru"', "VEH"), ("destination", "Kobe", "GPE")],
    )
    rendered = emit_example(inst, ontology, EmitterOptions())
    assert 'VEH("\\"Maru\\"")' in rendered


def test_escape_literal_round_trip_chars():
    assert escape_literal('a"b') == 'a\\"b'
    assert escape_literal("a\\b") == "a\\\\b"
    assert escape_literal("a\nb") == "a\\nb"


def test_example_never_carries_task_amr(ontology, kim, kelly):
    bundle = _bundle(ontology, kim, [kelly], amr="(r / return-01)")
    assert bundle.text.count("(r / return-01)") == 1
    task_block = bundle.text.split("\n\n")[-1]
    assert "(r / return-01)" in task_block


def test_example_rejects_undefined_role(ontology):
    inst = make_instance(
        "e-2",
        "Kim returned .",
        "returned",
        "Movement:Transport",
        args=[("pilot", "Kim", "PER")],
    )
    with pytest.raises(ConfigError, match="pilot"):
        emit_example(inst, ontology, EmitterOptions())


def test_example_rejects_unknown_entity_type(ontology):
    inst = make_instance(
        "e-3",
        "Kim returned .",
        "returned",
        "Movement:Transport",
        args=[("agent", "Kim", "ALIEN")],
    )
    with pytest.raises(ConfigError, match="ALIEN"):
        emit_example(inst, ontology, EmitterOptions())


def test_task_prompt_type_mismatch_rejected(ontology, kim):
    with pytest.raises(ConfigError, match="expected 'Conflict:Attack'"):
        assemble_prompt(ontology, "Conflict:Attack", [], kim, EmitterOptions())


def test_event_class_for_unknown_type_rejected(ontology):
    with pytest.raises(ConfigError, match="unknown event type: 'Nope'"):
        emit_event_class(ontology, "Nope", EmitterOptions())


# --- text styles -----------------------------------------------------------


def test_t1_lists_roles_with_types_and_descriptions(ontology, kim, kelly):
    text = _bundle(ontology, kim, [kelly], prompt_style=PromptStyle.TEXT_T1).text
    assert "Entity definitions:" in text
    assert "- agent (the agent doing the transporting): list of GPE, ORG or PER" in text
    assert "Transport event (subtype of Movement):" in text
    assert "[agent] transported [artifact]" in text
    assert 'agent: "Kelly"' in text


def test_t1_annotation_toggle_drops_type_lists(ontology, kim):
    text = _bundle(
        ontology,
        kim,
        [],
        prompt_style=PromptStyle.TEXT_T1,
        include_type_annotation=False,
    ).text
    assert "list of" not in text
    assert "- agent (the agent doing the transporting)" in text


def test_t2_fills_known_slots_and_leaves_rest_bare(ontology, kim, kelly):
    text = _bundle(ontology, kim, [kelly], prompt_style=PromptStyle.TEXT_T2).text
    assert 'Answer: [agent: "Kelly"]' in text
    assert "[artifact] in [vehicle] vehicle" in text
    assert '[destination: "Houston"] place.' in text
    # the unanswered task line is last
    assert text.endswith("Answer:")


def test_amr_line_in_text_styles(ontology, kim):
    text = _bundle(
        ontology, kim, [], prompt_style=PromptStyle.TEXT_T1, amr="(x / y)"
    ).text
    assert "AMR: (x / y)" in text


def test_t2_amr_lines_sit_between_sentence_and_template(ontology, kim):
    amr = "(r / return-01\n   :ARG1 (p / person))"
    text = _bundle(ontology, kim, [], prompt_style=PromptStyle.TEXT_T2, amr=amr).text
    assert text == (
        "Fill in the event template for a Transport event; the trigger is marked with **.\n"
        "Sentence: Kim **returned** to Boston on Friday .\n"
        "AMR: (r / return-01\n"
        "   :ARG1 (p / person))\n"
        "Template: [agent] transported [artifact] in [vehicle] vehicle from [origin] place"
        " to [destination] place.\n"
        "Answer:"
    )


def test_t2_zero_shot_preamble_is_empty(ontology, kim):
    opts = EmitterOptions(prompt_style=PromptStyle.TEXT_T2)
    assert build_preamble(ontology, kim.event_type, [], opts) == ""
    text = assemble_prompt(ontology, kim.event_type, [], kim, opts).text
    assert text.startswith("Fill in the event template")


@pytest.mark.parametrize(
    "style, block",
    [
        (
            PromptStyle.TEXT_T1,
            "Translate the following sentence into an instance of Transport;"
            " the trigger is marked with **.\n"
            "Sentence: Kim **returned** .\n"
            "Arguments:",
        ),
        (
            PromptStyle.TEXT_T2,
            "Fill in the event template for a Transport event; the trigger is marked with **.\n"
            "Sentence: Kim **returned** .\n"
            "Template: [agent] transported [artifact] in [vehicle] vehicle from [origin] place"
            " to [destination] place.\n"
            "Answer: [agent] transported [artifact] in [vehicle] vehicle from [origin] place"
            " to [destination] place.",
        ),
    ],
    # a style is named as the member, PromptStyle.TEXT_T1, not as its value
    ids=lambda value: f"PromptStyle.{value.name}" if isinstance(value, PromptStyle) else None,
)
def test_text_example_without_arguments(ontology, kim, style, block):
    inst = make_instance("e-0", "Kim returned .", "returned", "Movement:Transport")
    preamble = build_preamble(
        ontology, kim.event_type, [inst], EmitterOptions(prompt_style=style)
    )
    assert preamble.split("\n\n")[-2:] == [block, ""]


def test_t1_definitions_of_every_example_type_precede_the_examples(
    ontology, train_set, kim, kelly
):
    examples = [train_set.by_id("train-006"), kelly]
    text = _bundle(ontology, kim, examples, prompt_style=PromptStyle.TEXT_T1).text
    heads = [block.split("\n")[:2] for block in text.split("\n\n")]
    assert [head[0] for head in heads] == ["Entity definitions:"] + ["Event definition:"] * 4 + [
        "Translate the following sentence into an instance of Transfer_Money;"
        " the trigger is marked with **.",
        "Translate the following sentence into an instance of Transport;"
        " the trigger is marked with **.",
        "Translate the following sentence into an instance of Transport;"
        " the trigger is marked with **.",
    ]
    assert [head[1].split(" event")[0] for head in heads[1:5]] == [
        "Transaction",
        "Transfer_Money",
        "Movement",
        "Transport",
    ]


def test_empty_amr_rejected(ontology, kim):
    with pytest.raises(ConfigError, match="empty AMR"):
        _bundle(ontology, kim, [], amr="   ")


HUGE_ID = "i" * 300_000


@pytest.mark.parametrize(
    "case", ["trigger-bounds", "role", "entity-type", "empty-amr", "type-mismatch"]
)
def test_an_instance_message_quotes_a_huge_id_short(ontology, kim, kelly, case):
    task, examples, amr = kim._replace(id=HUGE_ID), [kelly], None
    argument = kelly.arguments[0]
    if case == "trigger-bounds":
        task = task._replace(trigger=task.trigger._replace(end=len(task.sentence) + 1))
    elif case == "role":
        examples = [kelly._replace(id=HUGE_ID, arguments=(argument._replace(role=HUGE_ID),))]
    elif case == "entity-type":
        typed = argument._replace(entity_type=HUGE_ID)
        examples = [kelly._replace(id=HUGE_ID, arguments=(typed,))]
    elif case == "empty-amr":
        amr = " "
    else:
        task = task._replace(event_type="Conflict:Attack")
    with pytest.raises(ConfigError) as err:
        assemble_prompt(ontology, kim.event_type, examples, task, EmitterOptions(), amr=amr)
    message = str(err.value)
    assert f"instance {short_repr(HUGE_ID)}" in message and len(message) < 1000


def test_an_unknown_style_is_rejected_when_the_options_are_built():
    with pytest.raises(ValueError, match="'prose' is not a valid PromptStyle"):
        EmitterOptions(prompt_style="prose")
