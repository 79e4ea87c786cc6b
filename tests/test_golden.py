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

The data file changes only with a named report contract change.  Rewrite it
with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from shellball.bounds import CSV_FIELDS, check_conjecture
from shellball.cli import _report_text, canonical_json
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


def compute_all() -> dict:
    out = {}
    for name, build in groups().items():
        out.update(_runs(name, build))
    return out


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(groups()))
def test_reports_match_golden(name):
    got = _runs(name, groups()[name])
    golden = _load()
    assert got == {key: golden.get(key) for key in got}


def test_golden_file_lists_exactly_the_corpus():
    keys = set()
    for name, build in groups().items():
        try:
            _, runs = build()
        except Exception:
            keys.add(name)
            continue
        keys.update(f"{name} {label}" for label, *_ in runs)
    assert keys == set(_load())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
