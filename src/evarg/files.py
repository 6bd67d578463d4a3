"""Reading the pipeline's input files: JSON lines and YAML.

``ConfigError`` is the one bad-input error: every loader and validator
raises it, so one ``except`` clause catches any bad input.

A JSON-lines file is UTF-8 with one JSON object per line; a line of JSON
whitespace (space, tab, CR, LF) alone is skipped. Only a line break ends a
record, so a string may hold U+2028, U+2029 or U+0085 unescaped, as
``json.dumps(ensure_ascii=False)`` writes. A line is decoded by json's C
scanner from its first character; a line whose value does not fill it up to
the line break is decoded again by ``json.loads``, so padding, a BOM or an
error gets ``json.loads``'s value or message. Errors quote by ``short_repr``.

YAML is parsed by PyYAML's libyaml-backed ``CSafeLoader`` when PyYAML was
built with libyaml, and by its pure-Python ``SafeLoader`` otherwise; both
accept the same safe subset. Both build a document's nodes by recursion, so
a document nested deeper than ``MAX_YAML_DEPTH`` is refused before that.

``write_json`` writes the report format, the text of
``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``,
to a writer a piece at a time.
"""

from __future__ import annotations

import json
import re
import reprlib
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable

import yaml

YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_SCAN_ONCE = json.JSONDecoder().scan_once  # json.loads's C scanner, without its two regex passes
MAX_QUOTED = 200  # the longest repr an error message quotes whole
_ABBREVIATED = reprlib.Repr()
_ABBREVIATED.maxlevel = 1  # a container inside the value prints as [...] or {...}
MAX_YAML_DEPTH = 100  # the shipped YAML files nest at most 6 levels
JSON_BATCH = 4096  # chunks per piece ``write_json`` writes; a run report's piece is ~110 kB
_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")  # only an escape puts a surrogate in a string
# one escape in a JSON string, a surrogate pair counting as one; group 1 is a lone surrogate
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|u([dD]...)|.)")


class ConfigError(Exception):
    """Invalid or inconsistent run configuration or input."""


def read_jsonl(path: str | Path, what: str, record: Callable[[dict], None]) -> None:
    """Call ``record`` on each line's object, in file order.

    A line that is not a JSON object, that nests too deeply to decode
    (``RecursionError``), whose strings hold a lone surrogate, or whose
    object ``record`` rejects with a ``ValueError``, ``KeyError``,
    ``TypeError`` or ``OverflowError`` (a number too large for a float),
    raises ``ConfigError("path:line: bad <what> record: ...")``, a ``KeyError``
    reading ``missing key '<key>'``; a file that cannot be read as UTF-8
    raises ``ConfigError("cannot read <what> file path: ...")``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                # strip copies the line, so only a line that starts blank is stripped
                if line[0] in " \t\r\n" and not line.strip(" \t\r\n"):
                    continue
                try:
                    try:
                        value, end = _SCAN_ONCE(line, 0)
                    except StopIteration:  # no value at the first character
                        end = 0
                    if line[end:] not in ("", "\n"):
                        value = json.loads(line)
                    if "\\" in line and _SURROGATE_ESCAPE.search(line):  # the cheap test first
                        _reject_lone_surrogate(line)
                    if type(value) is not dict:
                        raise TypeError(f"record must be an object, not {short_repr(value)}")
                    record(value)
                except KeyError as exc:
                    message = f"{path}:{lineno}: bad {what} record: missing key {exc.args[0]!r}"
                    raise ConfigError(message) from exc
                except (TypeError, ValueError, OverflowError, RecursionError) as exc:
                    invalid = "invalid JSON: " if isinstance(exc, json.JSONDecodeError) else ""
                    message = f"{path}:{lineno}: bad {what} record: {invalid}{exc}"
                    raise ConfigError(message) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def _reject_lone_surrogate(line: str) -> None:
    """Raise ``ValueError`` naming the first unpaired surrogate escape in ``line`` by column.

    ``line`` is valid JSON, so each backslash in it starts an escape in a string
    and each ``\\u`` is followed by four hex digits.
    """
    lone = next((m for m in _ESCAPE.finditer(line) if m.group(1)), None)
    if lone is not None:
        column = lone.start() + 1
        raise ValueError(f"escape {lone.group()} at column {column}: surrogates not allowed")


def short_repr(value: Any) -> str:
    """``repr(value)``, or reprlib's abbreviation of it when longer than ``MAX_QUOTED``."""
    text = repr(value)
    return text if len(text) <= MAX_QUOTED else _ABBREVIATED.repr(value)


def short_text(text: str) -> str:
    """``text`` unquoted, or only its ends around ``...`` when longer than ``MAX_QUOTED``."""
    return text if len(text) <= MAX_QUOTED else f"{text[:12]}...{text[-12:]}"


def not_a_string(key: str, value: Any) -> TypeError:
    """The error for a field ``key`` whose ``value`` is not a string."""
    return TypeError(f"{key} must be a string, not {short_repr(value)}")


def string_field(rec: dict, key: str) -> str:
    """``rec[key]``, which must be a string."""
    value = rec[key]
    if not isinstance(value, str):
        raise not_a_string(key, value)
    return value


def read_yaml(path: str | Path, what: str) -> Any:
    """The YAML document in ``path``; a bad or too deeply nested file raises ``ConfigError``.

    Parse events come without recursion, so counting the collections open
    among them finds the depth before anything recurses.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        depth = 0
        for event in yaml.parse(text, Loader=YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_YAML_DEPTH:
                    message = f"{what} file {path} nests deeper than {MAX_YAML_DEPTH} levels"
                    raise ConfigError(message)
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        return yaml.load(text, Loader=YAML_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # a value like 2001-13-01 raises ValueError
        raise ConfigError(f"{what} file {path} is not valid YAML: {exc}") from exc


def write_json(value: Any, write: Callable[[str], Any]) -> None:
    """Pass ``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)`` to ``write``.

    The text is built in one pass and passed in pieces of about
    ``JSON_BATCH`` chunks, so only one piece is held at a time. ``value`` is
    a tree of dicts with str keys, lists, strs, ints, floats, bools and None;
    anything else, a tuple or a non-str key included, raises ``TypeError``
    after the pieces before it were written. On Python 3.11 ``json.dumps``
    with ``indent`` runs its pure-Python encoder, which takes more than twice
    as long.
    """
    chunks: list[str] = []
    _append_json(value, chunks, "\n", write)
    write("".join(chunks))


_INFINITY = float("inf")


# Module level, not a closure: a closure that calls itself is a reference
# cycle, which keeps ``chunks`` alive until the cycle collector runs.
def _append_json(value: Any, chunks: list[str], newline: str, write: Callable[[str], Any]) -> None:
    """Append the JSON text of ``value`` to ``chunks``; ``newline`` begins a line at its depth.

    A str inside a container is written with its key or separator, in one
    chunk. When ``JSON_BATCH`` or more chunks are pending after a value,
    they are passed to ``write`` joined and ``chunks`` is emptied.
    """
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            if isinstance(item, str):
                chunks.append(f"{separator}{encode_basestring(key)}: {encode_basestring(item)}")
            else:
                chunks.append(f"{separator}{encode_basestring(key)}: ")
                _append_json(item, chunks, inner, write)
            separator = comma
        chunks.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "[" + inner
        for item in value:
            if isinstance(item, str):
                chunks.append(separator + encode_basestring(item))
            else:
                chunks.append(separator)
                _append_json(item, chunks, inner, write)
            separator = comma
        chunks.append(newline + "]")
    elif isinstance(value, str):
        chunks.append(encode_basestring(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            chunks.append("NaN")
        elif value == _INFINITY:
            chunks.append("Infinity")
        elif value == -_INFINITY:
            chunks.append("-Infinity")
        else:
            chunks.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if len(chunks) >= JSON_BATCH:
        write("".join(chunks))
        chunks.clear()
