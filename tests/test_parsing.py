import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evarg import parsing
from evarg.emitter import escape_literal
from evarg.parsing import DiagnosticKind, _literals, _tokens, parse_completion

ET = "Movement:Transport"


def parse(text, ontology):
    return parse_completion(text, ontology, ET)


def mention(entity_type, surface):
    return {"entity_type": entity_type, "surface": surface}


def has(event, kind):
    return any(d["kind"] == kind for d in event["diagnostics"])


# --- clean input -----------------------------------------------------------


def test_closing_paren_alone_is_clean(ontology):
    event = parse(")", ontology)
    assert event["roles"] == {}
    assert event["diagnostics"] == []


def test_empty_input_is_clean(ontology):
    event = parse("", ontology)
    assert event["roles"] == {}
    assert event["diagnostics"] == []


def test_multiline_completion(ontology):
    text = '\n    agent=[PER("Kelly")],\n    destination=[GPE("Houston")],\n)'
    event = parse(text, ontology)
    assert event["roles"] == {
        "agent": [mention("PER", "Kelly")],
        "destination": [mention("GPE", "Houston")],
    }
    assert event["diagnostics"] == []


def test_trailing_text_after_close_paren_ignored(ontology):
    event = parse('agent=[PER("Kim")]) and then some junk ===', ontology)
    assert event["roles"] == {"agent": [mention("PER", "Kim")]}
    assert event["diagnostics"] == []


def test_recovering_parser_lexes_nothing_after_the_closing_paren(ontology, monkeypatch):
    lex = parsing._tokens
    taken = []

    def tokens(text):
        for tok in lex(text):
            taken.append(tok.text)
            yield tok

    monkeypatch.setattr(parsing, "_tokens", tokens)
    # a bare string and a stray 7 send it down the recovering path
    event = parse('agent=[PER("Kim")], artifact="car", 7) vehicle=[VEH("x")] "cut', ontology)
    assert event["roles"] == {
        "agent": [mention("PER", "Kim")],
        "artifact": [mention(None, "car")],
    }
    assert [d["kind"] for d in event["diagnostics"]] == ["malformed_tail"]
    # the leading well-formed argument is read by the regexes, never lexed
    assert taken == ["artifact", "=", '"car"', ",", "7", ")"]


def test_missing_separator_between_kwargs_tolerated(ontology):
    event = parse('agent=[PER("a")] destination=[GPE("b")])', ontology)
    assert set(event["roles"]) == {"agent", "destination"}
    assert event["diagnostics"] == []


# --- value normalization ---------------------------------------------------


def test_bare_string_becomes_untyped_singleton(ontology):
    event = parse('agent="Students")', ontology)
    assert event["roles"] == {"agent": [mention(None, "Students")]}


def test_bare_constructor_becomes_singleton(ontology):
    event = parse('agent=PER("Kim"))', ontology)
    assert event["roles"] == {"agent": [mention("PER", "Kim")]}


def test_nested_lists_flatten(ontology):
    event = parse('agent=[[PER("a")], [["b"]], PER("c")])', ontology)
    assert event["roles"] == {
        "agent": [
            mention("PER", "a"),
            mention(None, "b"),
            mention("PER", "c"),
        ]
    }
    assert event["diagnostics"] == []


def test_string_escapes(ontology):
    event = parse('agent=[PER("a\\"b\\\\c\\nd")])', ontology)
    assert event["roles"]["agent"] == [mention("PER", 'a"b\\c\nd')]


def test_unrecognized_escape_passes_through(ontology):
    event = parse('agent=[PER("a\\tb")])', ontology)
    assert event["roles"]["agent"] == [mention("PER", "a\\tb")]


# --- truncation ------------------------------------------------------------


def test_truncated_final_kwarg_is_dropped(ontology):
    event = parse('artifact=[PER("Welch"), PER("wife")], destinati', ontology)
    assert event["roles"] == {
        "artifact": [mention("PER", "Welch"), mention("PER", "wife")]
    }
    assert [d["kind"] for d in event["diagnostics"]] == [DiagnosticKind.TRUNCATED]
    assert "destinati" in event["diagnostics"][0]["detail"]


@pytest.mark.parametrize(
    "text",
    [
        "agent",
        "agent=",
        'agent=[PER("Kel',
        'agent=[PER("Kelly")',
        'agent=[PER("Kelly"), ',
        "agent=[PER",
        "agent=[PER(",
    ],
)
def test_truncation_points_inside_a_kwarg(ontology, text):
    event = parse(text, ontology)
    assert event["roles"] == {}
    assert has(event, DiagnosticKind.TRUNCATED)


def test_truncation_keeps_earlier_arguments(ontology):
    event = parse('agent=[PER("a")], vehicle=[VEH("car")], origin=[GPE', ontology)
    assert set(event["roles"]) == {"agent", "vehicle"}
    assert has(event, DiagnosticKind.TRUNCATED)


# --- recovery --------------------------------------------------------------


def test_unquoted_constructor_argument_skips_only_that_kwarg(ontology):
    event = parse('artifact=[PER(senator)], destination=[GPE("El Paso")])', ontology)
    assert event["roles"] == {"destination": [mention("GPE", "El Paso")]}
    kinds = [d["kind"] for d in event["diagnostics"]]
    assert kinds == [DiagnosticKind.MALFORMED_TAIL]
    assert "artifact" in event["diagnostics"][0]["detail"]


def test_leading_junk_recovers_at_comma(ontology):
    event = parse('@@ ==, agent=[PER("a")])', ontology)
    assert event["roles"] == {"agent": [mention("PER", "a")]}
    assert has(event, DiagnosticKind.MALFORMED_TAIL)


def test_identifier_without_equals_is_skipped(ontology):
    event = parse('foo bar, agent=[PER("a")])', ontology)
    assert event["roles"] == {"agent": [mention("PER", "a")]}
    assert has(event, DiagnosticKind.MALFORMED_TAIL)


def test_trailing_junk_without_close_paren_flagged(ontology):
    event = parse('agent=[PER("a")], @@@', ontology)
    assert event["roles"] == {"agent": [mention("PER", "a")]}
    assert has(event, DiagnosticKind.MALFORMED_TAIL)


def test_deep_nesting_is_rejected_not_crashed(ontology):
    event = parse("agent=" + "[" * 200, ontology)
    assert event["roles"] == {}
    assert has(event, DiagnosticKind.MALFORMED_TAIL)


# --- diagnostics on recorded roles -----------------------------------------


def test_unknown_role_recorded_and_flagged(ontology):
    event = parse('amount=[PER("x")])', ontology)
    assert "amount" in event["roles"]
    assert has(event, DiagnosticKind.UNKNOWN_ROLE)


def test_unknown_entity_type_recorded_and_flagged(ontology):
    event = parse('origin=[COUNTRY("United States")])', ontology)
    assert event["roles"]["origin"] == [mention("COUNTRY", "United States")]
    assert has(event, DiagnosticKind.UNKNOWN_ENTITY_TYPE)


def test_duplicate_role_merges_in_order(ontology):
    event = parse('agent=[PER("a")], agent=[PER("b")])', ontology)
    assert event["roles"]["agent"] == [
        mention("PER", "a"),
        mention("PER", "b"),
    ]
    assert has(event, DiagnosticKind.DUPLICATE_ROLE)


def test_empty_string_literal_kept_but_flagged(ontology):
    event = parse('agent=[PER("")])', ontology)
    assert event["roles"]["agent"] == [mention("PER", "")]
    assert any(
        d["kind"] == DiagnosticKind.MALFORMED_TAIL and "empty string" in d["detail"]
        for d in event["diagnostics"]
    )


# --- properties ------------------------------------------------------------

FULL = (
    'agent=[PER("Kelly"), ORG("the army")], artifact=[PER("Welch")], '
    'destination=[GPE("Houston")])'
)


@given(st.integers(min_value=0, max_value=len(FULL)))
def test_prefix_roles_are_a_submap_of_the_full_parse(ontology, i):
    full = parse(FULL, ontology)["roles"]
    prefix = parse(FULL[:i], ontology)["roles"]
    for role, mentions in prefix.items():
        assert full[role] == mentions


@settings(max_examples=200)
@given(st.binary(max_size=120))
def test_parser_is_total_over_noise(ontology, data):
    event = parse(data.decode("latin-1"), ontology)
    assert set(event) == {"roles", "diagnostics"}


_SURFACE = st.text(min_size=1, max_size=12)
_KWARGS = st.lists(
    st.tuples(
        st.sampled_from(["agent", "artifact", "vehicle", "origin", "destination"]),
        st.lists(
            st.tuples(st.sampled_from(["PER", "ORG", "GPE", "VEH"]), _SURFACE),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda kw: kw[0],
)


@given(_KWARGS)
def test_rendered_arguments_round_trip(ontology, kwargs):
    parts = []
    for role, mentions in kwargs:
        inner = ", ".join(f'{t}("{escape_literal(s)}")' for t, s in mentions)
        parts.append(f"{role}=[{inner}]")
    event = parse(", ".join(parts) + ")", ontology)
    assert event["roles"] == {
        role: [mention(t, s) for t, s in mentions] for role, mentions in kwargs
    }
    assert event["diagnostics"] == []


def _reference_strings(text):
    """(text, value, complete) of each string literal, read one character at a time."""
    found = []
    start = text.find('"')
    while start >= 0:
        chars, complete, i = [], False, start + 1
        while i < len(text):
            ch = text[i]
            if ch == '"':
                complete, i = True, i + 1
                break
            if ch == "\\" and i + 1 < len(text):
                chars.append({'"': '"', "\\": "\\", "n": "\n"}.get(text[i + 1], text[i : i + 2]))
                i += 2
                continue
            chars.append(ch)
            i += 1
        found.append((text[start:i], "".join(chars), complete))
        start = text.find('"', i)
    return found


# quotes, backslashes and line breaks, each drawn more often than the rest
_LITERAL_TEXT = st.lists(
    st.sampled_from(['"'] * 3 + ["\\"] * 3 + ["\n"] * 2 + ["\u2028", "\x85", "n", "a", " ", "("]),
    max_size=40,
).map("".join)


@settings(max_examples=500)
@given(_LITERAL_TEXT)
def test_every_reader_lexes_strings_as_the_reference_reader_does(text):
    expected = _reference_strings(text)
    lexed = [(tok.text, tok.value, tok.complete) for tok in _tokens(text) if tok.kind == "STRING"]
    assert lexed == expected
    cut_off = bool(expected) and not expected[-1][2]
    assert _literals(text) == ([value for _, value, complete in expected if complete], cut_off)


# --- the regex path for well-formed code completions ------------------------

# characters str.isspace accepts, ASCII and beyond: the lexer skips each of them
_SPACE_CHARS = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"
_SPACE = st.text(alphabet=_SPACE_CHARS, max_size=2)
# pieces of literal bodies: escapes and characters the grammar uses included
_BODY_PIECES = [
    "a", "b c", "é", '\\"', "\\\\", "\\n", "\\x", "\\\n", " ", ")", "]", ",", '=[X(\\"',
]
_BODY = st.lists(st.sampled_from(_BODY_PIECES), max_size=4).map("".join)
_ROLE_NAMES = ["agent", "artifact", "destination", "amount", "bogus"]
_ROLES = st.sampled_from(_ROLE_NAMES)
_CTOR_NAMES = ["PER", "GPE", "VEH", "COUNTRY"]
_CTORS = st.sampled_from(_CTOR_NAMES)


@st.composite
def _code_completions(draw):
    """A completion from the well-formed grammar, and whether it was kept whole."""
    out = [draw(_SPACE)]

    def comma():
        out.extend([",", draw(_SPACE)])

    mention_lists = st.lists(st.tuples(_CTORS, _BODY), max_size=3)
    arguments = draw(st.lists(st.tuples(_ROLES, mention_lists), max_size=4))
    for i, (role, mentions) in enumerate(arguments):
        if i:
            comma()
        out.extend([role, draw(_SPACE), "=", draw(_SPACE), "[", draw(_SPACE)])
        for j, (ctor, body) in enumerate(mentions):
            if j:
                comma()
            out.extend([ctor, draw(_SPACE), "(", draw(_SPACE), f'"{body}"', draw(_SPACE), ")"])
            out.append(draw(_SPACE))
        if mentions and draw(st.booleans()):
            comma()
        out.extend(["]", draw(_SPACE)])
    if arguments and draw(st.booleans()):
        comma()
    out.append(")")
    out.append(draw(st.text(alphabet='ab ,)"=[(', max_size=6)))
    text = "".join(out)
    change = draw(st.sampled_from(["none", "cut", "delete", "insert"]))
    if change == "none":
        return text, True
    at = draw(st.integers(0, len(text)))
    if change == "cut":
        return text[:at], False
    if change == "delete":
        return text[:at] + text[at + 1 :], False
    return text[:at] + draw(st.sampled_from(list(',)(]["=\\ x'))) + text[at:], False


def _recovered(text, ontology):
    event = {"roles": {}, "diagnostics": []}
    known_roles = {r.name for r in ontology.resolve_event(ET).roles}
    parsing._recover_code(text, event, known_roles, ontology)
    return event


@settings(max_examples=300)
@given(_code_completions())
def test_regex_path_reads_as_the_recovering_parser_does(ontology, completion):
    text, whole = completion
    if whole:
        assert parsing._WELL_FORMED_RE.match(text)
    got, expected = parse(text, ontology), _recovered(text, ontology)
    assert list(got["roles"].items()) == list(expected["roles"].items())
    assert got["diagnostics"] == expected["diagnostics"]


# every text ``_SPACE`` draws
_SPACES = ["", *_SPACE_CHARS, *(a + b for a in _SPACE_CHARS for b in _SPACE_CHARS)]


def _seeded_code_completion(rng):
    """A completion drawn as ``_code_completions`` draws one, then cut, or with one
    character deleted or inserted."""
    space = functools.partial(rng.choice, _SPACES)
    out = [space()]
    for i in range(rng.randrange(5)):
        if i:
            out += [",", space()]
        role = rng.choice(_ROLE_NAMES)
        out += [role, space(), "=", space(), "[", space()]
        for j in range(rng.randrange(4)):
            if j:
                out += [",", space()]
            body = "".join(rng.choices(_BODY_PIECES, k=rng.randrange(5)))
            ctor = rng.choice(_CTOR_NAMES)
            out += [ctor, space(), "(", space(), f'"{body}"', space(), ")"]
            out.append(space())
        if rng.random() < 0.3:
            out += [",", space()]
        out += ["]", space()]
    out += [")", *rng.choices('ab ,)"=[(', k=rng.randrange(7))]
    text = "".join(out)
    at = rng.randrange(len(text) + 1)
    change = rng.choice(["cut", "delete", "insert"])
    if change == "cut":
        return text[:at]
    if change == "delete":
        return text[:at] + text[at + 1 :]
    return text[:at] + rng.choice(',)(]["=\\ x') + text[at:]


def test_a_damaged_completion_reads_as_the_recovering_parser_reads_it(ontology):
    """100,000 seeded completions, most of which the regexes read only in part."""
    rng = random.Random(30)
    for _ in range(100_000):
        text = _seeded_code_completion(rng)
        got, expected = parse(text, ontology), _recovered(text, ontology)
        assert list(got["roles"].items()) == list(expected["roles"].items()), text
        assert got["diagnostics"] == expected["diagnostics"], text


def test_a_cut_completion_hands_the_tokenizer_only_its_tail(ontology, monkeypatch):
    lex, lexed = parsing._tokens, []

    def tokens(text):
        lexed.append(text)
        return lex(text)

    monkeypatch.setattr(parsing, "_tokens", tokens)
    head = 'agent=[PER("Kim"), PER("Lee")],\n    artifact=[VEH("car, [or] \\"van\\"")], '
    tail = 'destination=[GPE("Par'
    event = parse(head + tail, ontology)
    assert lexed == [tail]
    assert event["roles"] == {
        "agent": [mention("PER", "Kim"), mention("PER", "Lee")],
        "artifact": [mention("VEH", 'car, [or] "van"')],
    }
    assert [d["kind"] for d in event["diagnostics"]] == ["truncated"]
    lexed.clear()
    assert _recovered(head + tail, ontology) == event
    assert lexed == [head + tail]


class _TokenizerReached(Exception):
    pass


def test_well_formed_golden_completions_never_reach_the_tokenizer(
    ontology, golden_dir, test_set, monkeypatch
):
    def tokenize(text):
        raise _TokenizerReached

    monkeypatch.setattr(parsing, "_tokens", tokenize)
    report = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    entries = {e["id"]: e for e in report["instances"]}
    recovered = {"test-004", "test-010", "test-012"}  # cut, bare string, malformed
    assert len(entries) == 12 and recovered <= set(entries)
    for i, entry in entries.items():
        args = (entry["completion"], ontology, test_set.by_id(i).event_type)
        if i in recovered:
            with pytest.raises(_TokenizerReached):
                parse_completion(*args)
        else:
            assert parse_completion(*args) == entry["parsed"]


# --- text styles -----------------------------------------------------------

# surfaces mixing plain text with quotes, escapes and the characters that
# end a line for str.splitlines or delimit a t2 slot or filler
_TEXT_SURFACE = st.text(alphabet='ab "\\\n\r\x0c];\u2028\x85', min_size=1, max_size=10)
_TEXT_FILLERS = st.lists(
    st.tuples(
        st.sampled_from(["agent", "artifact", "vehicle", "origin", "destination"]),
        st.lists(_TEXT_SURFACE, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda filler: filler[0],
)


def _quoted(surfaces):
    return "; ".join(f'"{escape_literal(s)}"' for s in surfaces)


@settings(max_examples=200)
@given(_TEXT_FILLERS)
def test_t1_rendered_fillers_round_trip(ontology, fillers):
    text = "\n".join(f"{role}: {_quoted(surfaces)}" for role, surfaces in fillers)
    event = parse_completion(text, ontology, ET, "t1")
    assert event["roles"] == {
        role: [mention(None, s) for s in surfaces] for role, surfaces in fillers
    }
    assert event["diagnostics"] == []


@settings(max_examples=200)
@given(_TEXT_FILLERS)
def test_t2_rendered_fillers_round_trip(ontology, fillers):
    text = " and ".join(f"[{role}: {_quoted(surfaces)}]" for role, surfaces in fillers)
    event = parse_completion(text, ontology, ET, "t2")
    assert event["roles"] == {
        role: [mention(None, s) for s in surfaces] for role, surfaces in fillers
    }
    assert event["diagnostics"] == []


def test_t1_basic_lines(ontology):
    text = '  agent: "Kelly"\n  destination: "Houston"\n'
    event = parse_completion(text, ontology, ET, "t1")
    assert event["roles"] == {
        "agent": [mention(None, "Kelly")],
        "destination": [mention(None, "Houston")],
    }
    assert event["diagnostics"] == []


def test_t1_multiple_fillers_on_one_line(ontology):
    event = parse_completion('artifact: "Welch", "wife"', ontology, ET, "t1")
    assert event["roles"]["artifact"] == [
        mention(None, "Welch"),
        mention(None, "wife"),
    ]


def test_t1_line_without_label_is_skipped(ontology):
    event = parse_completion('not a label line\nagent: "a"', ontology, ET, "t1")
    assert event["roles"] == {"agent": [mention(None, "a")]}
    assert has(event, DiagnosticKind.MALFORMED_TAIL)


def test_t1_dangling_quote_is_truncation(ontology):
    event = parse_completion('agent: "Kel', ontology, ET, "t1")
    assert event["roles"] == {}
    assert has(event, DiagnosticKind.TRUNCATED)


def test_t1_label_without_fillers_is_absent(ontology):
    event = parse_completion("agent:\n", ontology, ET, "t1")
    assert event["roles"] == {}
    assert event["diagnostics"] == []


def test_t1_unknown_role_flagged(ontology):
    event = parse_completion('amount: "ten"', ontology, ET, "t1")
    assert "amount" in event["roles"]
    assert has(event, DiagnosticKind.UNKNOWN_ROLE)


def test_t2_filled_and_unfilled_slots(ontology):
    text = (
        '[agent: "Kim"] transported [artifact] in [vehicle] vehicle '
        'from [origin] place to [destination: "Boston"] place.'
    )
    event = parse_completion(text, ontology, ET, "t2")
    assert event["roles"] == {
        "agent": [mention(None, "Kim")],
        "destination": [mention(None, "Boston")],
    }
    assert event["diagnostics"] == []


def test_t2_unclosed_slot_is_truncation(ontology):
    event = parse_completion('[agent: "Kim"] from [desti', ontology, ET, "t2")
    assert event["roles"] == {"agent": [mention(None, "Kim")]}
    assert has(event, DiagnosticKind.TRUNCATED)
    assert "desti" in event["diagnostics"][-1]["detail"]


def test_t2_literal_holding_an_escaped_line_break_is_kept(ontology):
    event = parse_completion(' [agent: "a\\\nb"] moved [artifact: "c"]', ontology, ET, "t2")
    assert event["roles"] == {
        "agent": [mention(None, "a\\\nb")],
        "artifact": [mention(None, "c")],
    }
    assert event["diagnostics"] == []
    code = parse('agent=[PER("a\\\nb")])', ontology)
    assert code["roles"] == {"agent": [mention("PER", "a\\\nb")]}


def test_t2_prose_without_slots_flagged(ontology):
    event = parse_completion("no slots here at all", ontology, ET, "t2")
    assert event["roles"] == {}
    assert has(event, DiagnosticKind.MALFORMED_TAIL)


def test_t2_blank_is_clean(ontology):
    event = parse_completion("   \n", ontology, ET, "t2")
    assert event["roles"] == {}
    assert event["diagnostics"] == []


def test_style_accepts_enum_or_value_and_rejects_unknown(ontology):
    from evarg.emitter import PromptStyle

    for style in (PromptStyle.TEXT_T1, "t1"):
        event = parse_completion('agent: "a"', ontology, ET, style)
        assert event["roles"] == {"agent": [mention(None, "a")]}
    for style in (PromptStyle.CODE, "code"):
        event = parse_completion('agent=[PER("a")])', ontology, ET, style)
        assert event["roles"] == {"agent": [mention("PER", "a")]}
    with pytest.raises(ValueError):
        parse_completion("", ontology, ET, "t3")
