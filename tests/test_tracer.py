"""The benchmark tracer's names, and the arguments it counts, must exist in the library it wraps."""

import ast
import importlib
import inspect
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


def test_counted_arguments_keep_their_names():
    # the counters read args[0] or kwargs[<name>]; a renamed or keyword-only
    # first parameter would turn every traced instance into a failure
    for layer, name, first in [
        ("homology", "hochster_betti_table", "cx"),
        ("exactrank", "rank_int_columns", "columns"),
        ("exactrank", "rank_gf2_columns", "columns"),
    ]:
        fn = getattr(importlib.import_module(f"shellball.{layer}"), name)
        param = next(iter(inspect.signature(fn).parameters.values()))
        assert param.name == first, f"{layer}.{name}"
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, f"{layer}.{name}"
