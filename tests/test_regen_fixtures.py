"""The fixture regenerator reproduces every committed fixture byte for byte."""

import shutil
import subprocess
import sys

from conftest import ROOT


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_regenerator_is_byte_exact(tmp_path):
    for name in ("src", "scripts", "fixtures"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    # an answer the tables no longer give must not survive in the recorded completions
    stale = tmp_path / "fixtures/completions.jsonl"
    text = stale.read_text(encoding="utf-8")
    stale.write_text(text.replace('"finish_reason": "stop"', '"finish_reason": "length"', 1))
    for _ in range(2):  # a second run rewrites the first's files, adding nothing to them
        subprocess.run(
            [sys.executable, "scripts/regen_fixtures.py"],
            cwd=tmp_path,
            check=True,
            capture_output=True,
            timeout=120,
        )
    regenerated, committed = _files(tmp_path / "fixtures"), _files(ROOT / "fixtures")
    assert sorted(regenerated) == sorted(committed)
    for name, data in committed.items():
        assert regenerated[name] == data, f"fixtures/{name} differs after regeneration"
