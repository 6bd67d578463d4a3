"""Total parsers for model completions.

``parse_completion`` reads every prompt style: a recovering recursive-descent
parser takes the constructor-call body that follows ``<var>_event = <Class>(``,
one token at a time and up to the ``)`` that closes it, and line and slot
patterns take the two labelled text layouts. A well-formed
code completion, a list of ``role=[Ctor("literal"), ...]`` arguments, is read
by regexes instead, to the same result and much faster; of any other, the
regexes read the well-formed arguments it starts with, each followed by its
comma, and the recovering parser reads only the rest. It returns
the report's ``parsed`` block, plain dicts and strings. It never raises on
completion text: garbage degrades into diagnostics, and truncated input
keeps every fully parsed argument.

Grammar for code completions:

    Completion := ArgList ")"? Trailing
    ArgList    := [kwarg ("," kwarg)* [","]]
    kwarg      := IDENT "=" value
    value      := list | ctor | string
    list       := "[" [value ("," value)*] "]"
    ctor       := IDENT "(" string ")"

for t1 completions, one role per line:

    line       := IDENT ":" (string | other)*

and for t2 completions, slots anywhere in the text:

    slot       := "[" IDENT [":" (string | other)*] "]"

where ``other`` is any character but a double quote (in a slot, nor "]").
IDENT is ``ontology.IDENTIFIER``. A string is one rule in every style: it
opens with a double quote, a backslash escapes any one character (a line
break included), and the closing quote may be missing only where the input
ends, which reads as truncation. Recognized escapes are \\" \\\\ \\n;
any other pair passes through literally. Bare strings and bare constructors
where a list is expected are wrapped into singleton lists without complaint.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, NamedTuple

from .emitter import PromptStyle
from .ontology import IDENTIFIER, Ontology


class DiagnosticKind(str, Enum):
    UNKNOWN_ROLE = "unknown_role"
    UNKNOWN_ENTITY_TYPE = "unknown_entity_type"
    TRUNCATED = "truncated"
    MALFORMED_TAIL = "malformed_tail"
    DUPLICATE_ROLE = "duplicate_role"


def _diagnostic(kind: DiagnosticKind, detail: str) -> dict:
    return {"kind": kind.value, "detail": detail}


# --- lexemes ---------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # IDENT STRING LB RB LP RP COMMA EQ JUNK EOF
    text: str
    value: str
    complete: bool


_EOF = _Token("EOF", "", "", True)

# A string literal: a backslash escapes any one character, a line break included;
# where the input ends, the closing quote may be missing and a lone backslash left.
_LITERAL_BODY = r'[^"\\]*(?s:\\.[^"\\]*)*'
_LITERAL = rf'"(?P<body>{_LITERAL_BODY}\\?)(?P<closed>"?)'
_LITERAL_RE = re.compile(_LITERAL)
# One lexeme of a code completion: a token, whose kind is the name of its group, with
# the whitespace after it. ``\s`` is exactly what ``str.isspace`` accepts and JUNK takes
# any other character, so the only text a search skips is leading whitespace.
_LEXEME_RE = re.compile(
    rf"(?:(?P<STRING>{_LITERAL})|(?P<IDENT>{IDENTIFIER})|(?P<LB>\[)|(?P<RB>\])|(?P<LP>\()"
    r"|(?P<RP>\))|(?P<COMMA>,)|(?P<EQ>=)|(?P<JUNK>\S))\s*"
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}


def _unescape(body: str) -> str:
    """``body`` with \\" \\\\ \\n decoded; any other backslash pair passes through."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group()), body)


def _tokens(text: str) -> Iterator[_Token]:
    """The tokens of ``text`` then EOF, each lexed only when it is taken."""
    for m in _LEXEME_RE.finditer(text):
        kind = m.lastgroup
        raw = m[kind]
        if kind == "STRING":
            yield _Token(kind, raw, _unescape(m["body"]), bool(m["closed"]))
        else:
            yield _Token(kind, raw, raw, True)
    yield _EOF


# --- recursive descent with recovery ---------------------------------------


def _truncated(name: str) -> dict:
    return _diagnostic(DiagnosticKind.TRUNCATED, f"input ends inside argument {name!r}")


class _Truncated(Exception):
    pass


class _Malformed(Exception):
    pass


class _Parser:
    """Takes tokens one at a time: nothing past the last token peeked is lexed."""

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.token = next(self.tokens)
        # open-delimiter count relative to the argument list, so recovery
        # knows when a ')' actually closes the list rather than a value
        self.depth = 0

    def peek(self) -> _Token:
        return self.token

    def advance(self) -> _Token:
        tok = self.token
        if tok.kind != "EOF":
            self.token = next(self.tokens)
            if tok.kind in ("LB", "LP"):
                self.depth += 1
            elif tok.kind in ("RB", "RP"):
                self.depth = max(0, self.depth - 1)
        return tok

    def _expect(self, kind: str, problem: str) -> _Token:
        """Consume a ``kind`` token; end of input or an unterminated string truncates."""
        tok = self.peek()
        if tok.kind == "EOF" or (tok.kind == kind == "STRING" and not tok.complete):
            raise _Truncated
        if tok.kind != kind:
            raise _Malformed(problem)
        return self.advance()

    def parse_value(self) -> list[dict]:
        """One value position; always normalized to a mention list."""
        if self.depth > 64:
            raise _Malformed("value nesting too deep")
        tok = self.peek()
        if tok.kind == "LB":
            return self.parse_list()
        if tok.kind == "IDENT":
            return [self.parse_ctor()]
        problem = f"unexpected {tok.text!r} where a value was expected"
        return [{"entity_type": None, "surface": self._expect("STRING", problem).value}]

    def parse_list(self) -> list[dict]:
        self.advance()  # LB
        mentions: list[dict] = []
        while True:
            tok = self.peek()
            if tok.kind == "RB":
                self.advance()
                return mentions
            if tok.kind == "EOF":
                raise _Truncated
            if tok.kind == "COMMA":
                self.advance()
                continue
            # nested lists are flattened
            mentions.extend(self.parse_value())

    def parse_ctor(self) -> dict:
        name = self.advance().value
        problem = f"constructor {name!r} takes a single string literal"
        self._expect("LP", f"expected '(' after constructor {name!r}")
        surface = self._expect("STRING", problem).value
        self._expect("RP", problem)
        return {"entity_type": name, "surface": surface}

    def skip_to_separator(self) -> str:
        """Recovery: drop tokens up to an argument-list comma or its ')'."""
        skipped: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if self.depth == 0 and tok.kind == "COMMA":
                if not skipped:
                    skipped.append(self.advance().text)
                    break
                self.advance()
                break
            if self.depth == 0 and tok.kind == "RP":
                break
            skipped.append(self.advance().text)
        return " ".join(skipped)


# A well-formed argument list, read without the parser: ``role=[Ctor("literal"), ...]``
# arguments, then ")". Each argument and each mention is followed by a comma or by the
# bracket that closes its list. Built from ``_LEXEME_RE``'s fragments, so both readers
# see the same lexemes.
_CTOR = rf'{IDENTIFIER}\s*\(\s*"{_LITERAL_BODY}"\s*\)'
_ARGUMENT = rf"{IDENTIFIER}\s*=\s*\[\s*(?:{_CTOR}\s*(?:,\s*|(?=\])))*\]"
_WELL_FORMED_RE = re.compile(rf"\s*(?:{_ARGUMENT}\s*(?:,\s*|(?=\))))*\)")
# the well-formed arguments that lead any list, each with the comma after it: the
# recovering parser reads them as the regexes do, and reads on from their end as
# it would from the start of a list
_LEADING_RE = re.compile(rf"\s*(?:{_ARGUMENT}\s*,\s*)*")
# within a well-formed list, its argument's name and the text between its brackets
_ARGUMENT_RE = re.compile(rf'({IDENTIFIER})\s*=\s*\[((?:[^\]"]|"{_LITERAL_BODY}")*)\]')
_MENTION_RE = re.compile(rf'({IDENTIFIER})\s*\(\s*"({_LITERAL_BODY})"')


def _parse_code(text: str, event: dict, known_roles: frozenset[str], o: Ontology) -> None:
    well_formed = _WELL_FORMED_RE.match(text)
    # any other list is read by the regexes to the end of its leading arguments
    read = well_formed or _LEADING_RE.match(text)
    # between the arguments and mentions of a well-formed list lie only spaces and
    # commas, which no match starts with, so each search finds the next one in order
    for name, inside in _ARGUMENT_RE.findall(text, 0, read.end()):
        pairs = _MENTION_RE.findall(inside)
        mentions = [{"entity_type": ctor, "surface": _unescape(body)} for ctor, body in pairs]
        _record_role(event, name, mentions, known_roles, o)
    if well_formed is None:
        _recover_code(text[read.end():], event, known_roles, o)


def _recover_code(text: str, event: dict, known_roles: frozenset[str], o: Ontology) -> None:
    """The recovering parser: reads any text, well-formed or not."""
    diagnostics = event["diagnostics"]
    parser = _Parser(text)
    while True:
        tok = parser.peek()
        if tok.kind == "EOF":
            break
        if tok.kind == "RP":
            # closes the argument list; anything after is ignored
            break
        if tok.kind == "COMMA":
            parser.advance()
            continue
        if tok.kind != "IDENT":
            detail = parser.skip_to_separator()
            diagnostics.append(_diagnostic(DiagnosticKind.MALFORMED_TAIL, f"skipped {detail!r}"))
            continue

        name = parser.advance().value
        tok = parser.peek()
        if tok.kind == "EOF":
            diagnostics.append(_truncated(name))
            break
        if tok.kind != "EQ":
            # not a kwarg after all; discard through the next separator
            detail = parser.skip_to_separator()
            diagnostics.append(
                _diagnostic(DiagnosticKind.MALFORMED_TAIL, f"skipped {name!r} {detail!r}")
            )
            continue
        parser.advance()

        try:
            mentions = parser.parse_value()
        except _Truncated:
            diagnostics.append(_truncated(name))
            break
        except _Malformed as exc:
            parser.skip_to_separator()
            diagnostics.append(
                _diagnostic(DiagnosticKind.MALFORMED_TAIL, f"argument {name!r}: {exc}")
            )
            continue

        _record_role(event, name, mentions, known_roles, o)


def _record_role(
    event: dict, name: str, mentions: list[dict], known_roles: frozenset[str], ontology: Ontology
) -> None:
    roles, diagnostics = event["roles"], event["diagnostics"]
    if name in roles:
        roles[name].extend(mentions)
        diagnostics.append(
            _diagnostic(DiagnosticKind.DUPLICATE_ROLE, f"role {name!r} repeated; merged")
        )
    else:
        roles[name] = mentions
        if name not in known_roles:
            diagnostics.append(
                _diagnostic(DiagnosticKind.UNKNOWN_ROLE, f"role {name!r} not defined")
            )
    for mention in mentions:
        entity_type = mention["entity_type"]
        if entity_type is not None and entity_type not in ontology.entity_types:
            diagnostics.append(
                _diagnostic(
                    DiagnosticKind.UNKNOWN_ENTITY_TYPE, f"entity type {entity_type!r} not defined"
                )
            )
        if mention["surface"] == "":
            detail = f"empty string literal for role {name!r}"
            diagnostics.append(_diagnostic(DiagnosticKind.MALFORMED_TAIL, detail))


# --- text completions ------------------------------------------------------

_T1_LINE_RE = re.compile(rf"^\s*({IDENTIFIER})\s*:\s*(.*)$")
_T2_OPEN = rf"\[\s*({IDENTIFIER})"
_T2_OPEN_RE = re.compile(_T2_OPEN)
_T2_SLOT_RE = re.compile(rf'{_T2_OPEN}\s*(?::((?:"{_LITERAL_BODY}"|[^\]"])*))?\]')


def _literals(text: str) -> tuple[list[str], bool]:
    """The string literals in ``text``, unescaped, and whether the last is cut off."""
    values: list[str] = []
    for m in _LITERAL_RE.finditer(text):
        if not m["closed"]:
            return values, True
        values.append(_unescape(m["body"]))
    return values, False


def _untyped(surfaces: list[str]) -> list[dict]:
    return [{"entity_type": None, "surface": s} for s in surfaces]


def _parse_t1(text: str, event: dict, known_roles: frozenset[str], o: Ontology) -> None:
    diagnostics = event["diagnostics"]
    # only "\n" ends a line: a filler may hold "\r", U+2028 or U+0085
    for line in text.split("\n"):
        if not line.strip():
            continue
        m = _T1_LINE_RE.match(line)
        if m is None:
            diagnostics.append(
                _diagnostic(DiagnosticKind.MALFORMED_TAIL, f"skipped line {line.strip()!r}")
            )
            continue
        name = m.group(1)
        surfaces, cut_off = _literals(m.group(2))
        if cut_off:
            diagnostics.append(_truncated(name))
        if not surfaces:
            continue
        _record_role(event, name, _untyped(surfaces), known_roles, o)


def _parse_t2(text: str, event: dict, known_roles: frozenset[str], o: Ontology) -> None:
    matched_any = False
    last_end = 0
    for m in _T2_SLOT_RE.finditer(text):
        matched_any = True
        last_end = m.end()
        name, filler = m.group(1), m.group(2)
        if filler is None or not filler.strip():
            continue  # unfilled slot
        surfaces = _literals(filler)[0]
        if not surfaces:
            continue
        _record_role(event, name, _untyped(surfaces), known_roles, o)
    tail = text[last_end:]
    if "[" in tail:
        name_m = _T2_OPEN_RE.search(tail)
        detail = f"input ends inside argument {name_m.group(1)!r}" if name_m else "unclosed slot"
        event["diagnostics"].append(_diagnostic(DiagnosticKind.TRUNCATED, detail))
    elif not matched_any and text.strip():
        event["diagnostics"].append(
            _diagnostic(DiagnosticKind.MALFORMED_TAIL, "no template slots found")
        )


# a style's value looks up its reader too: a PromptStyle hashes and compares as its value
_READERS = {
    PromptStyle.CODE: _parse_code,
    PromptStyle.TEXT_T1: _parse_t1,
    PromptStyle.TEXT_T2: _parse_t2,
}


def parse_completion(
    text: str, ontology: Ontology, event_type: str, style: PromptStyle | str = PromptStyle.CODE
) -> dict:
    """Parse a stop-truncated completion in ``style`` into the report's ``parsed`` block.

    The block is ``{"roles": {role: [{"entity_type", "surface"}]},
    "diagnostics": [{"kind", "detail"}]}``, roles and mentions in reading
    order and each ``kind`` a DiagnosticKind value. ``style`` is a
    PromptStyle or its value; an unknown value raises ``ValueError``. Total
    over arbitrary text: a complete argument is always kept, one cut off by
    the end of input is dropped with a truncated diagnostic, and an
    unparseable stretch is skipped with a malformed_tail one. Text-style
    mentions carry no entity type (``None``).
    """
    known_roles = ontology.resolve_event(event_type).role_names
    event: dict = {"roles": {}, "diagnostics": []}
    reader = _READERS.get(style) or _READERS[PromptStyle(style)]
    reader(text, event, known_roles, ontology)
    return event
