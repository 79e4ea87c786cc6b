"""Command-line entry point and machine-readable reporting.

Commands take key=value parameters, e.g.::

    shellball generate minor m=2 n=3 r=1 --out delta.cx
    shellball check minor m=2 n=3 r=1 --format json
    shellball check polar n=3 t=2
    shellball check --file delta.cx
    shellball dual m=3 n=4
    shellball corners m=6 n=7 r=3
    shellball cyclic n=8 d=5

`generate` writes the facet lines in the certified shelling order, and
`check --file` takes its order from the file's lines, so the file is the
one record of both the complex and its order.  `corners` lists under
`constructions` the corners of the first enumerated witness of each count.

Exit codes: 0 all verdicts PASS, 1 any FAIL, 2 usage or I/O error,
3 verdicts INAPPLICABLE only, 4 an internal check failed (an
``ArithmeticError``, printed as one ``internal error:`` line).  Reports
are byte-stable for fixed inputs: canonical JSON key order, sorted lists,
and every numeric field an exact integer or a rational rendered as "p/q".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import bounds as bnd
from . import complexes as cxmod
from . import duality, paths, polarization
from .homology import DEFAULT_VERTEX_CAP

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _params(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in keys:
            raise UsageError(f"unknown parameter {k!r} (want {', '.join(keys)})")
        if k in out:
            raise UsageError(f"parameter {k} given twice")
        out[k] = v
    return out


def _int_param(kv: dict[str, str], key: str) -> int:
    if key not in kv:
        raise UsageError(f"missing parameter {key}=<int>")
    try:
        return int(kv[key])
    except ValueError:
        raise UsageError(f"parameter {key} must be an integer, got {kv[key]!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_instance(kind: str, tokens: list[str], max_facets: int):
    """Returns (complex, shelling order, instance name)."""
    if kind == "minor":
        kv = _params(tokens, ("m", "n", "r", "sigma"))
        m, n = _int_param(kv, "m"), _int_param(kv, "n")
        if "sigma" in kv:
            if "r" in kv:
                raise UsageError("minor takes r or sigma, not both")
            try:
                rows, cols = (tuple(map(int, half.split(","))) for half in kv["sigma"].split("|"))
            except ValueError:
                raise UsageError(f"expected sigma=<a1,..|b1,..>, got sigma={kv['sigma']}") from None
            spec = paths.MinorSpec(m, n, rows, cols)
            name = f"minor m={m} n={n} sigma={kv['sigma']}"
        else:
            r = _int_param(kv, "r")
            spec = paths.MinorSpec.diagonal(m, n, r)
            name = f"minor m={m} n={n} r={r}"
        if m * n > cxmod.MAX_VERTICES:
            raise ValueError(f"grid size {m * n} exceeds vertex cap {cxmod.MAX_VERTICES}")
        cx, order = paths.path_complex(spec, paths.enumerate_facets(spec, max_facets))
        return cx, order, name
    # argparse admits only minor and polar
    kv = _params(tokens, ("n", "t"))
    n, t = _int_param(kv, "n"), _int_param(kv, "t")
    cx, order = polarization.power_ideal_complex(n, t)
    return cx, order, f"polar n={n} t={t}"


def cmd_generate(args) -> int:
    cx, order, name = _build_instance(args.kind, args.params, args.max_facets)
    out_path = args.out or (name.replace(" ", "_").replace("=", "") + ".cx")
    # the text is built before the file is opened, so a refused complex leaves no file
    _emit(cxmod.complex_to_text(cx, order), out_path)
    meta = {
        "instance": name,
        "file": out_path,
        "n": cx.n,
        "facets": len(cx.facets),
        "dim": cx.dim,
        "shelling_order": order,
    }
    _emit(canonical_json(meta), None)
    return EXIT_PASS


def _report_text(rep) -> str:
    js = rep.to_json_dict()
    lines = [
        f"instance: {js['instance']}",
        f"n={js['n']} d={js['d']} m={js['m']} e={js['e']}",
        f"h: {js['h']}",
        f"boundary h: {js['boundary_h']}",
        f"closed-form bounds: L={js['L']} U={js['U']}",
        f"betti bounds: L={js['L_betti']} U={js['U_betti']}",
        f"A1={js['A1']} A2={js['A2']} shelling={js['shelling_pass']} ball={js['ball_pass']}",
        f"verdict: {js['verdict']}",
    ]
    if js["reasons"]:
        lines.append("reasons: " + "; ".join(js["reasons"]))
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    if args.file:
        if args.kind:
            raise UsageError("check takes a kind (minor|polar) or --file, not both")
        with open(args.file, "r", encoding="utf-8") as fh:
            cx, order = cxmod.complex_from_text_with_order(fh.read())
        name = f"file {args.file}"
    else:
        if not args.kind:
            raise UsageError("check needs a kind (minor|polar) or --file")
        cx, order, name = _build_instance(args.kind, args.params, args.max_facets)
    rep = bnd.check_conjecture(
        cx, order, field_char=args.field, max_vertices=args.max_vertices, instance=name
    )
    if args.format == "json":
        payload = rep.to_json_dict()
        payload["seed"] = args.seed
        _emit(canonical_json(payload), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=bnd.CSV_FIELDS)
        writer.writeheader()
        writer.writerow(rep.csv_row())
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_report_text(rep), args.out)
    if rep.verdict == "FAIL":
        return EXIT_FAIL
    if rep.verdict == "INAPPLICABLE":
        return EXIT_INAPPLICABLE
    return EXIT_PASS


def cmd_dual(args) -> int:
    kv = _params(args.params, ("m", "n"))
    m, n = _int_param(kv, "m"), _int_param(kv, "n")
    verdict = duality.verify_dual_theorem(m, n)
    _emit(canonical_json(verdict.to_json_dict()), args.out)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_corners(args) -> int:
    kv = _params(args.params, ("m", "n", "r"))
    m, n, r = _int_param(kv, "m"), _int_param(kv, "n"), _int_param(kv, "r")
    facets = paths.enumerate_facets(paths.MinorSpec.diagonal(m, n, r), args.max_facets)
    witnesses = paths.corner_spectrum(facets)
    expected = list(range(r, r * (m - r) + 1))
    payload = {
        "kind": "corner-spectrum",
        "m": m,
        "n": n,
        "r": r,
        "facets": len(facets),
        "spectrum": sorted(witnesses),
        "expected": expected,
        "matches": sorted(witnesses) == expected,
        "constructions": {str(t): sorted(map(list, f.corners)) for t, f in witnesses.items()},
    }
    _emit(canonical_json(payload), args.out)
    return EXIT_PASS if payload["matches"] else EXIT_FAIL


def cmd_cyclic(args) -> int:
    kv = _params(args.params, ("n", "d"))
    n, d = _int_param(kv, "n"), _int_param(kv, "d")
    h = bnd.cyclic_h(n, d)
    mult = sum(h)
    ms = bnd.cyclic_max_shifts(n, d)
    upper = bnd.shift_bound(ms)
    even_case = (d - 1) % 2 == 0
    payload = {
        "kind": "cyclic-comparator",
        "n": n,
        "d": d,
        "h": list(h),
        "multiplicity": mult,
        "max_shifts": ms,
        "shift_bound": bnd.json_rational(upper),
        "bound_holds": mult <= upper,
        "equality_expected": even_case,
        "equality": mult == upper,
    }
    _emit(canonical_json(payload), args.out)
    return EXIT_PASS if mult <= upper and (not even_case or mult == upper) else EXIT_FAIL


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shellball", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, max_facets=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="write the report/file here")
        if max_facets:
            p.add_argument("--max-facets", type=int, default=paths.DEFAULT_FACET_CAP)
        p.set_defaults(func=func)
        return p

    g = command("generate", cmd_generate, "write a complex file for a minor or polar instance", True)
    g.add_argument("kind", choices=["minor", "polar"])
    g.add_argument("params", nargs="*")

    c = command("check", cmd_check, "run the multiplicity-bound pipeline", True)
    c.add_argument("kind", nargs="?", choices=["minor", "polar"])
    c.add_argument("params", nargs="*")
    c.add_argument("--file", default=None, help="read the complex from a file instead")
    c.add_argument("--format", choices=["json", "csv", "text"], default="json")
    c.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP)
    c.add_argument("--seed", type=int, default=0, help="echoed into the JSON report")
    c.add_argument("--field", type=int, default=0, help="0 or a prime")

    d = command("dual", cmd_dual, "verify the dual-matrix cover identity")
    d.add_argument("params", nargs="*")

    co = command("corners", cmd_corners, "corner spectrum of non-flippable facets", True)
    co.add_argument("params", nargs="*")

    cy = command("cyclic", cmd_cyclic, "cyclic-polytope h-vector and shift bound")
    cy.add_argument("params", nargs="*")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
