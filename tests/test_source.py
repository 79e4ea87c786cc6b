"""Checks on the library source itself."""

import ast
from pathlib import Path

import shellball


def test_no_assert_statements():
    # `python -O` strips assert statements, so checks must raise instead
    found = []
    for path in sorted(Path(shellball.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the library: {found}"


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "float constant"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"


def test_no_floats():
    # arithmetic stays exact: no float values, and no `/`, which makes one from integers
    found = []
    for path in sorted(Path(shellball.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {what}" for line, what in _float_uses(tree)]
    assert not found, f"floats in the library: {found}"


def test_all_is_sorted_unique_and_resolves():
    names = shellball.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(shellball, n)] == []
