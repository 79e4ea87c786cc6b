"""Golden report corpus: every `check_conjecture` report stays byte-identical.

`golden_reports.json` maps each input name to the sha256 digests of its
report rendered as JSON, CSV and text (the renderings `shellball check`
prints), or to the type and message of the exception it raises.  The inputs
are deterministic:

* every minor ``[rows | cols]`` of an m x n matrix with m <= 3, n <= 4,
  under the deterministic shelling order, two seeded random linear
  extensions and one shuffled order (it fails to shell on 11 of the 91
  minors), over Q and GF(2); the full Betti table is computed once per complex and field, under the
  deterministic order, and the other orders pass ``max_vertices=4``;
* polars (2,2), (3,2), (2,3), (3,3), (4,2), forward and reversed;
* seeded random pure complexes over Q, GF(2) and GF(3);
* a simplex (m undefined) and a sphere (no boundary).

It also maps each ``shellball`` command line in `cli_cases` to its exit code,
the sha256 of its stdout and its exact stderr.  Each command runs in a fresh
directory holding the files its case names, so relative paths and the
files that ``generate`` writes stay put.

The data file changes only with a named report contract change.  Rewrite it
with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import pytest

from shellball.bounds import CSV_FIELDS, check_conjecture
from shellball.cli import _report_text, canonical_json, main
from shellball.complexes import build_complex
from shellball.homology import DEFAULT_VERTEX_CAP
from shellball.paths import MinorSpec, enumerate_facets, path_complex, random_shelling_orders
from shellball.polarization import power_ideal_complex

GOLDEN = Path(__file__).with_name("golden_reports.json")
CAP_HIT = 4


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv(rep) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerow(rep.csv_row())
    return buf.getvalue()


def _outcome(run) -> dict:
    try:
        rep = run()
    except Exception as exc:  # the exception itself is the pinned outcome
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "json": _sha(canonical_json(rep.to_json_dict())),
        "csv": _sha(_csv(rep)),
        "text": _sha(_report_text(rep)),
    }


def _runs(name, build):
    """Outcomes of one input group; `build` returns (complex, [(label, order, field, cap)])."""
    try:
        cx, runs = build()
    except Exception as exc:
        return {name: {"raises": type(exc).__name__, "message": str(exc)}}
    return {
        f"{name} {label}": _outcome(
            lambda: check_conjecture(cx, order, field, cap, instance=f"{name} {label}")
        )
        for label, order, field, cap in runs
    }


def _minor(spec):
    fams = enumerate_facets(spec)
    cx, order = path_complex(spec, fams)
    pos = {mask: k for k, mask in enumerate(cx.facets)}
    orders = [("det", order, DEFAULT_VERTEX_CAP)]
    for seed in (0, 1):
        (ext,) = random_shelling_orders(fams, 1, seed=seed)
        orders.append((f"seed={seed}", [pos[f.mask] for f in ext], CAP_HIT))
    shuffled = list(range(len(cx.facets)))
    random.Random(len(shuffled)).shuffle(shuffled)
    orders.append(("shuffled", shuffled, CAP_HIT))
    return cx, [
        (f"{label} field={field}", o, field, cap)
        for label, o, cap in orders
        for field in (0, 2)
    ]


def _polar(n, t):
    cx, order = power_ideal_complex(n, t)
    return cx, [
        ("forward", order, 0, DEFAULT_VERTEX_CAP),
        ("reversed", order[::-1], 0, DEFAULT_VERTEX_CAP),
    ]


def _random_pure(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    k = rng.randint(2, min(4, n - 1))
    facets = {tuple(sorted(rng.sample(range(n), k))) for _ in range(rng.randint(2, 7))}
    cx = build_complex(sorted(facets), n)
    order = list(range(len(cx.facets)))
    rng.shuffle(order)
    return cx, [(f"field={(0, 2, 3)[seed % 3]}", order, (0, 2, 3)[seed % 3], DEFAULT_VERTEX_CAP)]


@functools.cache
def groups():
    """Input groups by name, each built lazily."""
    out = {}
    for m in range(1, 4):
        for n in range(m, 5):
            for r in range(1, m + 1):
                for rows in combinations(range(1, m + 1), r):
                    for cols in combinations(range(1, n + 1), r):
                        sigma = ",".join(map(str, rows)) + "|" + ",".join(map(str, cols))
                        out[f"minor m={m} n={n} sigma={sigma}"] = (
                            lambda spec=MinorSpec(m, n, rows, cols): _minor(spec)
                        )
    for n, t in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        out[f"polar n={n} t={t}"] = lambda n=n, t=t: _polar(n, t)
    for seed in range(60):
        out[f"random seed={seed}"] = lambda seed=seed: _random_pure(seed)
    out["simplex"] = lambda: (build_complex([{0, 1, 2}], 3), [("det", [0], 0, DEFAULT_VERTEX_CAP)])
    out["sphere"] = lambda: (
        build_complex(combinations(range(4), 3), 4),
        [("det", [0, 1, 2, 3], 0, DEFAULT_VERTEX_CAP)],
    )
    return out


BALL = "n=6\n0 1 2 3\n1 2 3 4\n2 3 4 5\n"
BALL_021 = "n=6\n0 1 2 3\n2 3 4 5\n1 2 3 4\n"  # BALL's facets in the order [0, 2, 1]
SPHERE = "n=6\n0 1 2\n0 1 3\n0 2 3\n1 2 4\n1 3 4\n2 3 5\n2 4 5\n3 4 5\n"
THREE_TRIANGLES = "n=5\n0 1 2\n0 1 3\n0 1 4\n"


@functools.cache
def cli_cases() -> dict[str, tuple[str, dict[str, str]]]:
    """Golden key -> (argv, files written before the run)."""
    runs = [
        *(
            f"check minor m=3 n=4 {p} --format {fmt}"
            for p in ("r=2", "sigma=01,2|1,3", "sigma=1,3|2,4")
            for fmt in ("json", "csv", "text")
        ),
        "check minor m=3 n=4 r=3",
        "check minor m=3 n=4 sigma=1,2,3|1,2,3",
        "check minor m=2 n=3 r=1 --field 2 --seed 5",
        "check minor m=3 n=4 r=2 --max-vertices 4 --format text",
        "check polar n=3 t=2",
        "check polar n=2 t=2 --format csv",
        "check polar n=3 t=3 --format text",
        "generate minor m=2 n=3 r=1",
        "generate minor m=3 n=4 sigma=1,3|2,4 --out delta.cx",
        "generate polar n=2 t=2",
        # minors with incomparable facet pairs: these pin the deterministic order
        "generate minor m=3 n=4 r=1",
        "generate minor m=4 n=5 r=2",
        "generate minor m=4 n=5 sigma=1,3|2,4",
        *(f"dual m={m} n={n}" for m in range(2, 7) for n in range(m, 7)),
        "dual m=4 n=8",
        "dual m=3 n=9",
        "corners m=4 n=5 r=2",
        "corners m=4 n=4 r=2",
        "corners m=4 n=6 r=2",
        "cyclic n=8 d=5",
        "cyclic n=7 d=4",
        # every error command line of tests/test_cli.py
        "generate minor m=2 n=3 r=3",
        "dual m=3 n=4 --format csv",
        "cyclic n=8 d=5 --max-facets 10",
        "corners m=4 n=5 r=2 --max-vertices 4",
        "generate polar n=2 t=2 --seed 1",
        "check minor m=2",
        "check minor m=3 n=2 r=1",
        "check minor m=3 n=4 r=0",
        "check minor m=3 n=4 r=4",
        "check polar n=0 t=1",
        "check polar n=20 t=7",
        "check minor m=12 n=12 r=1",
        "generate minor m=3 n=4 r=1 --max-facets 0",
        "dual m=1 n=3",
        "corners m=3 n=4 r=3",
        "cyclic n=5 d=5",
        "check minor m=2 n=3 r=1 feild=2",
        "check minor m=3 n=4 r=1 sigma=1,2|1,2",
        "check minor m=2 n=3 r=1 r=2",
        "check polar n=2 t=2 r=5",
        "generate polar n=2 t=2 r=5",
        "corners m=4 n=5 r=1 x=1",
        "cyclic n=8 d=5 q=1",
        "dual m=2 n=3 r=9",
        *(f"check minor m=3 n=4 sigma={s}" for s in ("1,2", "1|2|3", "a|b", "|", "1;2|1,3")),
        # missing and non-integer parameters
        "check minor m=3 n=4",
        "check minor n=4 r=1",
        "check minor m=3 r=1",
        "check minor m=x n=4 r=1",
        "check minor m=3 n=4.0 r=1",
        "check minor m=3 n=4 r=",
        "check minor m=x n=4 sigma=1|1",
    ]
    cases = {f"shellball {argv}": (argv, {}) for argv in runs}
    files = [
        ("check --file ball.cx", {"ball.cx": BALL}),
        ("check --file ball.cx --format text", {"ball.cx": BALL}),
        ("check --file sphere.cx", {"sphere.cx": SPHERE}),
        ("check --file three.cx", {"three.cx": THREE_TRIANGLES}),
        ("check --file bad.cx", {"bad.cx": "n=5\n0 1 2\n3 4\n"}),
        ("check polar n=3 t=2 --file ball.cx", {"ball.cx": BALL}),
        *(
            (f"check --file ball.cx{fmt}", {"ball.cx": BALL_021})
            for fmt in ("", " --format csv", " --format text")
        ),
        *(
            ("check --file bad.cx", {"bad.cx": text})
            for text in (
                "n=abc\n0 1\n",
                "n=-1\n0\n",
                "# ball\n0 1\n",
                "",
                "n=3\n0 1\n0 x\n",
                "# ball\nn=4\n\n0 1\n1 9\n",
                "n=4\n0 -1\n",
                "n=3\n0 1\n0 0 1\n",
                "n=3\nlabels=a,b\n0 1 2\n",
                "# ball\nn=3\nlabels=a,b,a\n0 1 2\n",
                "n=3\nlabels=a,b,c\n# no facets\n",
            )
        ),
    ]
    for argv, written in files:
        listing = ", ".join(f"{name}={text!r}" for name, text in written.items())
        cases[f"shellball {argv} [{listing}]"] = (argv, written)
    return cases


def run_cli(argv: str, files: dict[str, str]) -> dict:
    """Run ``shellball <argv>`` in a fresh directory holding ``files``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            # argparse wraps its usage line to the terminal width
            with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
                code = main(argv.split())
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": _sha(out.getvalue()), "stderr": err.getvalue()}


def compute_all() -> dict:
    out = {}
    for name, build in groups().items():
        out.update(_runs(name, build))
    for key, (argv, files) in cli_cases().items():
        out[key] = run_cli(argv, files)
    return out


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def golden_changes(old: dict, new: dict) -> list[str]:
    """`key: old -> new` for each entry added, changed or dropped (a missing side is null)."""
    return [
        f"{key}: {json.dumps(old.get(key), sort_keys=True)} -> "
        f"{json.dumps(new.get(key), sort_keys=True)}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]


@pytest.mark.parametrize("name", list(groups()))
def test_reports_match_golden(name):
    got = _runs(name, groups()[name])
    golden = _load()
    assert got == {key: golden.get(key) for key in got}


@pytest.mark.parametrize("key", list(cli_cases()))
def test_cli_matches_golden(key):
    assert run_cli(*cli_cases()[key]) == _load().get(key)


def test_golden_file_lists_exactly_the_corpus():
    keys = set(cli_cases())
    for name, build in groups().items():
        try:
            _, runs = build()
        except Exception:
            keys.add(name)
            continue
        keys.update(f"{name} {label}" for label, *_ in runs)
    assert keys == set(_load())


def test_golden_changes_lists_every_added_changed_and_dropped_key():
    old = {"kept": {"exit": 0}, "changed": {"exit": 0}, "dropped": {"exit": 2}}
    new = {"kept": {"exit": 0}, "changed": {"exit": 3}, "added": {"exit": 1}}
    assert golden_changes(old, new) == [
        'added: null -> {"exit": 1}',
        'changed: {"exit": 0} -> {"exit": 3}',
        'dropped: {"exit": 2} -> null',
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    new = compute_all()
    # a re-pin is listed, never silent
    for line in golden_changes(_load(), new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
