"""Every name a module imports is read somewhere in that module, no
module of the package imports another's underscore-prefixed name, every
top-level name of the package is referenced somewhere, and the package's
runtime dependencies are the third-party modules it imports.

No linter is a dependency, so this walks ``src/evarg``, ``scripts`` and
``tests`` with ``ast``; ``bench/`` counts only as a place that references
the package's names. Tests may import private names: they check the
module that defines them.
"""

import ast
import re
import sys

import pytest

from conftest import ROOT

CHECKED = ("src/evarg/*.py", "scripts/*.py", "tests/*.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import in ``source`` binds and nothing reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore-prefixed name ``source`` imports from an evarg module."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "evarg")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_the_check_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom json import dumps as d, loads\nsys.exit(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "loads")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for pattern in CHECKED
        for path in sorted(ROOT.glob(pattern))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_check_finds_a_private_import_from_the_package():
    source = (
        "from ._x import a\nfrom .corpus import _text, b\nfrom evarg.y import _c\n"
        "from os import _exit\nfrom . import _d\n"
    )
    assert private_imports(source) == [(2, "_text"), (3, "_c"), (5, "_d")]


def test_no_package_module_imports_another_modules_private_name():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.glob("src/evarg/*.py"))
        for line, name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def top_level_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, class and name assigned at the top level of ``source``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node.lineno, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return found


def referenced_names(source: str) -> set[str]:
    """Names ``source`` reads, reads as an attribute, or imports from a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_check_finds_a_dead_name():
    source = (
        "import os\nA, (B, C) = 1, (2, 3)\nD: int = A\nclass E:\n    F = 0\n"
        "def f():\n    G = os.sep\n    return C\nasync def g(): pass\n"
    )
    assert top_level_names(source) == [
        (2, "A"), (2, "B"), (2, "C"), (3, "D"), (4, "E"), (6, "f"), (9, "g")
    ]
    assert referenced_names(source + "from x import g\nE.f = B\n") == {
        "os", "sep", "int", "A", "C", "g", "f", "E", "B"
    }


# a module's version string, read by nothing in the repository
NOT_REFERENCED = {"__version__"}


def test_every_top_level_name_of_the_package_is_referenced():
    referenced = set().union(
        *(
            referenced_names(path.read_text(encoding="utf-8"))
            for pattern in (*CHECKED, "bench/*.py")
            for path in sorted(ROOT.glob(pattern))
        )
    )
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.glob("src/evarg/*.py"))
        for line, name in top_level_names(path.read_text(encoding="utf-8"))
        if name not in referenced | NOT_REFERENCED
    ]
    assert found == []


# a distribution's top-level module, where the two names differ
MODULE_OF = {"pyyaml": "yaml"}


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports from outside the
    standard library and the package, wherever the import statement stands."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"evarg"}


def declared_dependencies() -> set[str]:
    """The top-level module of each entry of ``dependencies`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9._-]+", spec).group().lower() for spec in project["dependencies"]}
    return {MODULE_OF.get(name, name.replace("-", "_")) for name in names}


def test_the_check_finds_third_party_imports():
    source = (
        "import os, yaml.constructor\nfrom requests import Session\nfrom . import corpus\n"
        "from evarg import files\nfrom __future__ import annotations\n"
        "def f():\n    import numpy as np\n"
    )
    assert third_party_imports(source) == {"yaml", "requests", "numpy"}


def test_runtime_dependencies_are_the_third_party_modules_the_package_imports():
    imported = set().union(
        *(third_party_imports(path.read_text(encoding="utf-8"))
          for path in sorted(ROOT.glob("src/evarg/*.py")))
    )
    assert imported == declared_dependencies()
