"""The demos and the README quick start use only names the library exports,
and every demo runs to completion.

Each source is parsed first, so a deleted or renamed export fails in
milliseconds; each demo then runs in a subprocess against ``src/``, which
also catches a changed return value that the name check cannot see.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shellball

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/*.py"))
SOURCES = DEMOS + [ROOT / "README.md"]


def _code(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


def _missing(tree: ast.AST) -> list[str]:
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "sb" and node.attr not in shellball.__all__:
                missing.append(f"sb.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shellball"):
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)
            ]
    return missing


def test_sources_are_found():
    assert len(SOURCES) >= 7 and "sb.MinorSpec" in _code(ROOT / "README.md")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_uses_only_exported_names(path):
    tree = ast.parse(_code(path), filename=str(path))
    assert _missing(tree) == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
