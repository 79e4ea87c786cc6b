"""Checks on the library source itself."""

import ast
from pathlib import Path

import shellball
from tests.test_demos import ROOT, _code


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


def _unused_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        for p in params:
            if p not in read and p not in ("self", "cls"):
                yield node.lineno, f"{name}({p})"


def test_no_unused_parameters():
    # a parameter the body never reads is a dead part of the signature
    found = []
    for path in sorted(Path(shellball.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {what}" for line, what in _unused_parameters(tree)]
    assert not found, f"unused parameters in the library: {found}"


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


LIBRARY = [p for p in sorted(Path(shellball.__file__).parent.glob("*.py")) if p.name != "__init__.py"]


def _non_test_reads():
    """Names read outside the tests: by the library modules, the demos, the
    benchmark harness and the README's code, plus the names the benchmark
    tracer wraps by name with getattr."""
    sources = LIBRARY + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    sources.append(ROOT / "README.md")
    read = set()
    for path in sources:
        read.update(_names_read(ast.parse(_code(path), filename=str(path))))
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    read.update(name for names in traced.values() for name in names)
    return read


def test_every_export_has_a_non_test_reader():
    # an export that only the tests read is a test oracle: it belongs in
    # tests/oracles.py, not in the library
    read = _non_test_reads()
    unread = [name for name in shellball.__all__ if name not in read]
    assert not unread, f"exports read only by the tests: {unread}"


def test_every_definition_has_a_non_test_reader():
    # a module-level function or class that nothing outside the tests reads
    # is dead code or a test oracle, exported or not
    read = _non_test_reads()
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in LIBRARY
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    ]
    assert not unread, f"definitions read only by the tests: {unread}"


def test_every_method_has_a_non_test_reader():
    # a method or property that nothing outside the tests reads is dead code
    # or a test oracle; dataclass fields are exempt, as `fields()` reads them
    read = _non_test_reads()
    unread = [
        f"{path.name}:{node.lineno} {cls.name}.{node.name}"
        for path in LIBRARY
        for cls in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]
    assert not unread, f"methods read only by the tests: {unread}"


def _unused_imports(tree):
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_no_unused_imports():
    # an import the module never reads is left over from code since removed
    found = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert not found, f"unused imports in the library: {found}"


def _private_imports(tree):
    modules = set()  # the names bound to a library module, as in `from . import bounds as bnd`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("shellball")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"{node.module}.{alias.name}"
                if node.module in (None, "shellball"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_private_imports_between_modules():
    # a private name has one home: a second module that needs it, imported
    # by name or read through the module, shows the name should move or
    # become public.  The oracles count as a module too: one that borrows a
    # private helper of the code it checks is no independent oracle.
    found = []
    oracles = Path(__file__).with_name("oracles.py")
    for path in [*sorted(Path(shellball.__file__).parent.glob("*.py")), oracles]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _private_imports(tree)]
    assert not found, f"private names imported from another module: {found}"
