"""The benchmark tracer's names, and the arguments it counts, must exist in the library it wraps."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from shellball import homology
from shellball.bounds import check_conjecture
from shellball.complexes import SimplicialComplex
from shellball.paths import MinorSpec, path_complex

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


@pytest.mark.parametrize(
    "field, used, unused",
    [(2, "rank_gf2_columns", "rank_int_columns"), (0, "rank_int_columns", "rank_gf2_columns")],
)
def test_betti_tables_call_the_field_rank_through_homology(monkeypatch, field, used, unused):
    # the traced betti-boundaries run tells an instance's field by which rank
    # routine ran, wrapped where `homology` looks it up; a table that ranked
    # nothing there, or took the other routine, would fail that run
    calls = Counter()
    for name in (used, unused):
        original = getattr(homology, name)

        def spy(columns, *rest, name=name, original=original):
            calls[name] += 1
            return original(columns, *rest)

        monkeypatch.setattr(homology, name, spy)
    rep = check_conjecture(*path_complex(MinorSpec.diagonal(3, 4, 2)), field_char=field)
    assert rep.betti_table is not None
    assert calls[used] >= 1 and calls[unused] == 0, calls
