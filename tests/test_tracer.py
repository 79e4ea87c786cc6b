"""The benchmark tracer's names must exist in the library it wraps."""

import ast
import importlib
from pathlib import Path

from shellball.complexes import SimplicialComplex

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_exist():
    # read TRACED off the source without importing it, so nothing is written there
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"shellball.{layer}"), name, None))
    ]
    assert not missing, f"traced names missing from shellball: {missing}"
    assert callable(getattr(SimplicialComplex, "faces_by_size", None))
