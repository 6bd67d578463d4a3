"""The benchmark under ``bench/`` imports evarg names; each must still resolve."""

import ast
import importlib
import json

import pytest

from conftest import ROOT
from evarg.harness import RunConfig, run

BENCH = ROOT / "bench"


def bench_imports() -> set[tuple[str, str]]:
    """Every (module, name) of a ``from evarg... import name`` in ``bench/*.py``."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "evarg" or node.module.startswith("evarg."):
                    found.update((node.module, alias.name) for alias in node.names)
    return found


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_every_name_the_benchmark_imports_resolves():
    names = bench_imports()
    assert names, "found no evarg import under bench/"
    unresolved = []
    for module, name in sorted(names):
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                unresolved.append(f"{module}.{name}")
    assert unresolved == []


# The one name ``bench/spans.py`` still wraps that evarg no longer defines.
STALE_TRACE_TARGETS = {"evarg.harness.parse_text_completion"}


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_the_benchmark_tracer_finds_the_layers_it_wraps(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        tracer.restore()
    prefix = "trace: not found, left untraced: "
    missing = set()
    for line in capsys.readouterr().err.splitlines():
        if line.startswith(prefix):
            missing.update(line[len(prefix) :].split(", "))
    assert missing <= STALE_TRACE_TARGETS


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_the_benchmark_tracer_times_one_answer_step_per_run(monkeypatch, in_repo_root, golden_dir):
    """``client.complete`` is a run's whole answer step, so a replay run is timed there too."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    golden = json.loads((golden_dir / "run_report.json").read_text(encoding="utf-8"))
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        report = run(RunConfig(**golden["config"]))
    finally:
        tracer.restore()
    assert report == golden
    assert [span.name for span in tracer.spans].count("client.complete") == 1
