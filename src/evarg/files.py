"""Reading the pipeline's input files: JSON lines and YAML.

``ConfigError`` is the one bad-input error: every loader and validator
raises it, so one ``except`` clause catches any bad input.

A JSON-lines file is UTF-8 with one JSON value per line; blank lines are
skipped. Only a line break ends a record, so a string may hold U+2028,
U+2029 or U+0085 unescaped, as ``json.dumps(ensure_ascii=False)`` writes.

YAML is parsed by PyYAML's libyaml-backed ``CSafeLoader`` when PyYAML was
built with libyaml, and by its pure-Python ``SafeLoader`` otherwise; both
accept the same safe subset.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable

import yaml

YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")  # only an escape puts a surrogate in a string
# one escape in a JSON string, a surrogate pair counting as one; group 1 is a lone surrogate
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|u([dD]...)|.)")


class ConfigError(Exception):
    """Invalid or inconsistent run configuration or input."""


def read_jsonl(path: str | Path, what: str, record: Callable[[Any], None]) -> None:
    """Call ``record`` on each line's value, in file order.

    A line that is not JSON, whose strings hold a lone surrogate, or whose
    value ``record`` rejects with a ``ValueError``, ``KeyError``,
    ``TypeError`` or ``OverflowError`` (a number too large for a float),
    raises ``ConfigError("path:line: bad <what> record: ...")``; a file that cannot
    be read as UTF-8 raises ``ConfigError("cannot read <what> file path: ...")``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    value = json.loads(line)
                    if "\\" in line and _SURROGATE_ESCAPE.search(line):  # the cheap test first
                        _reject_lone_surrogate(line)
                    record(value)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def string_field(rec: dict, key: str, default: str | None = None) -> str:
    """``rec[key]``, or ``default`` for a missing key when one is given; it must be a string."""
    value = rec[key] if default is None else rec.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, not {value!r}")
    return value


def read_yaml(path: str | Path, what: str) -> Any:
    """The YAML document in ``path``; an unreadable or invalid file raises ``ConfigError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.load(fh, Loader=YAML_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} file {path} is not valid YAML: {exc}") from exc
