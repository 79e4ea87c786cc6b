"""The demos and the README quick start use only names the library exports,
and every demo runs to completion with its pinned output.

Each source is parsed first, so a deleted or renamed export fails in
milliseconds; each demo then runs in a subprocess against ``src/``, which
also catches a changed return value that the name check cannot see.  The
sha256 of each demo's stdout is pinned in ``DEMO_STDOUT``; it changes only
with a deliberate change to a demo or to what it prints.
"""

import ast
import hashlib
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
DEMO_STDOUT = {
    "01_grid_path_balls.py": "30b7a56dbd349a95fa6d05491e0559265927519cc9853a8dd5de93be16164c81",
    "02_multiplicity_bounds.py": "66eb016181ce13c1a22e7fa82c7ce108fa72e54c0190074da39f20eb9445d5cd",
    "03_betti_tables.py": "e92b47b5e3dfed43cd642d96dcd483cb1f0f3040dd7ef476e1a6dfa922c1c0d2",
    "04_corner_spectrum.py": "8cfe1e2f14bef6f7127f656b34e9e3dfa3e2989de678ee8852a9040bd2a99ea1",
    "05_polarization.py": "bc68117337857b33ec0f1071619dd07502b6125edbdb37a845a357e6d85504b8",
    "06_alexander_duality.py": "7d5c7ee121d83ff40e0452f2b64424505e0470eb5cb1471d0ca1e5d25a5a2264",
}


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
    assert hashlib.sha256(done.stdout.encode("utf-8")).hexdigest() == DEMO_STDOUT[path.name]
