"""Multiplicity bounds for boundary spheres of shellable balls.

For a ball whose smallest nonface has m vertices, the resolution shifts of
the boundary sphere are pinned down in closed form, giving exact rational
bounds

    L = n * prod_{i=1}^{n-d} (m+i-1) / (n-d+1)!
    U = n * prod_{i=1}^{n-d} (d-m+i) / (n-d+1)!

valid under two hypotheses checked per instance: a minimal inside face of
dimension d-m exists and none smaller than m-1 (A1), and the boundary
h-vector is unimodal (A2), with m constrained to 2 <= m <= (d+1)//2.  The
same bounds can be derived from an actual Betti table; both routes are
reported.  Cyclic-polytope comparators give the upper-bound chain.  All
arithmetic is exact: integers and fractions only, no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

from . import complexes as cxmod
from .complexes import SimplicialComplex, vector_profile
from .homology import (
    DEFAULT_VERTEX_CAP,
    BettiTable,
    check_field,
    hochster_betti_table,
    shifts,
)
from .shelling import BallCertificate, certified_h, certified_inside_faces, verify_ball


@dataclass(frozen=True)
class BoundParams:
    """n = vertex count, d = Krull dimension of the ball ring, m = least nonface size."""

    n: int
    d: int
    m: int

    @property
    def m_in_range(self) -> bool:
        return 2 <= self.m <= (self.d + 1) // 2


def closed_form_bounds(params: BoundParams) -> tuple[Fraction, Fraction]:
    """Exact (L, U); consult params.m_in_range for applicability."""
    n, d, m = params.n, params.d, params.m
    denom = factorial(n - d + 1)
    lo = Fraction(n * prod(m + i - 1 for i in range(1, n - d + 1)), denom)
    hi = Fraction(n * prod(d - m + i for i in range(1, n - d + 1)), denom)
    return lo, hi


def betti_bounds(table: BettiTable) -> tuple[Fraction, Fraction]:
    """prod(m_i)/p! and prod(M_i)/p! from an actual Betti table."""
    mins, maxs = shifts(table)
    if any(v is None for v in mins):
        raise ValueError("gap in resolution")
    denom = factorial(table.p)
    return Fraction(prod(mins), denom), Fraction(prod(maxs), denom)


def lower_bound_estimate(params: BoundParams) -> int:
    """Sphere multiplicity estimate from the forced symmetric unimodal h-profile."""
    n, d, m = params.n, params.d, params.m
    return 2 * sum(comb(n - d + i, i) for i in range(m)) + (d - 2 * m) * comb(
        n - d + m - 1, m - 1
    )


def linear_ball_boundary_h(n: int, d: int, m: int) -> tuple[int, ...]:
    """Boundary h-vector forced by a linear resolution: binomial ramp, flat middle."""
    out = []
    for i in range(d):
        if i <= m - 2:
            out.append(comb(n - d + i, i))
        elif i <= d - m:
            out.append(comb(n - d + m - 1, m - 1))
        else:
            out.append(comb(n - d + (d - 1 - i), d - 1 - i))
    return tuple(out)


# ---------------------------------------------------------------------------
# cyclic polytope comparators


def cyclic_h(n: int, d: int) -> tuple[int, ...]:
    """h-vector of the boundary sphere of the cyclic (d-1)-polytope on n vertices."""
    if n < d or d < 1:
        raise ValueError("need n >= d >= 1")
    return tuple(comb(n - d + min(i, d - 1 - i), min(i, d - 1 - i)) for i in range(d))


def cyclic_multiplicity(n: int, d: int) -> int:
    return sum(cyclic_h(n, d))


def cyclic_max_shifts(n: int, d: int) -> list[int]:
    """Maximal resolution shifts of the cyclic boundary sphere, length n-d+1."""
    if n <= d:
        raise ValueError("need n > d")
    sphere_dim = d - 1
    if sphere_dim % 2 == 0:
        out = [(d - 1) // 2 + i for i in range(1, n - d + 1)]
    else:
        out = [(d - 1) // 2 + i + 1 for i in range(1, n - d + 1)]
    out.append(n)
    return out


# ---------------------------------------------------------------------------
# the full per-instance verdict


def _rat(x):
    if x is None:
        return None
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


@dataclass
class ConjectureReport:
    instance: str
    n: int
    d: int
    m: int | None
    e: int | None
    f: tuple[int, ...]
    h: tuple[int, ...]
    boundary_h: tuple[int, ...] | None
    L: Fraction | None
    U: Fraction | None
    L_betti: Fraction | None
    U_betti: Fraction | None
    A1: bool | None
    A2: bool | None
    m_in_range: bool | None
    all_vertices_on_boundary: bool | None
    shelling_pass: bool
    ball_pass: bool
    betti_table: BettiTable | None
    verdict: str  # PASS | FAIL | INAPPLICABLE
    reasons: list[str] = field(default_factory=list)
    certificate: BallCertificate | None = None

    @property
    def betti_bounds_ok(self) -> bool | None:
        if self.L_betti is None or self.e is None:
            return None
        return self.L_betti <= self.e <= self.U_betti

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "e": self.e,
            "f": list(self.f),
            "h": list(self.h),
            "boundary_h": list(self.boundary_h) if self.boundary_h is not None else None,
            "L": _rat(self.L),
            "U": _rat(self.U),
            "L_betti": _rat(self.L_betti),
            "U_betti": _rat(self.U_betti),
            "A1": self.A1,
            "A2": self.A2,
            "m_in_range": self.m_in_range,
            "all_vertices_on_boundary": self.all_vertices_on_boundary,
            "betti_bounds_ok": self.betti_bounds_ok,
            "shelling_pass": self.shelling_pass,
            "ball_pass": self.ball_pass,
            "betti_table": self.betti_table.to_json_dict() if self.betti_table else None,
            "verdict": self.verdict,
            "reasons": self.reasons,
        }

    def csv_row(self) -> dict:
        row = self.to_json_dict()
        return {k: row[k] for k in CSV_FIELDS}


CSV_FIELDS = ["instance", "n", "d", "m", "e", "L", "U", "A1", "A2", "verdict"]


def check_conjecture(
    ball: SimplicialComplex,
    order,
    field_char: int = 0,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    instance: str = "",
) -> ConjectureReport:
    """Run the whole pipeline on a shelled ball and render an exact verdict.

    The verdict is PASS/FAIL by exact comparison L <= e <= U when every
    hypothesis holds; any failed hypothesis (no boundary, uncertified ball,
    undefined or out-of-range m, interior vertices, A1, A2) downgrades the
    verdict to INAPPLICABLE with all computable data still reported.
    The ball's h (hence f, and m from f) is read off a passing shelling
    certificate and its minimal inside faces off a passing ball certificate;
    only an order that fails falls back to the ball's face lattice.
    """
    check_field(field_char)
    if not ball.is_pure:
        raise ValueError("not pure")
    cert = verify_ball(ball, order)
    d = ball.dim + 1
    n = len(ball.used_vertices)
    if cert.shelling.ok:
        h = certified_h(ball, cert.shelling)
        f = cxmod.f_from_h(h, d)
    else:
        f = cxmod.f_vector(ball)
        h = cxmod.h_vector(f, d)
    boundary = cxmod.boundary_complex(ball)
    reasons: list[str] = []
    if not cert.shelling.ok:
        reasons.append(f"shelling failed: {cert.shelling.reason}")
    elif not cert.ok:
        reasons.append(f"ball certification failed: {cert.reason}")

    m = cxmod.smallest_nonface_size(f)
    e = bh = on_boundary = A1 = A2 = m_in_range = L = U = None
    table = L_betti = U_betti = None
    if not boundary.facets:
        reasons.append("no boundary")
    else:
        e = len(boundary.facets)
        bh = cxmod.h_vector(cxmod.f_vector(boundary), d - 1)
        if sum(bh) != e:
            raise ArithmeticError(
                f"boundary h-vector sum {sum(bh)} disagrees with facet count {e}"
            )

        on_boundary = boundary.used_mask == ball.used_mask
        if not on_boundary:
            reasons.append("interior vertex: not every vertex lies on the boundary")

        if m is None:
            reasons.append("m undefined (no nonfaces: full simplex)")
        else:
            params = BoundParams(n=n, d=d, m=m)
            m_in_range = params.m_in_range
            L, U = closed_form_bounds(params)
            if not m_in_range:
                reasons.append(f"m out of range: need 2 <= {m} <= {(d + 1) // 2}")
            if cert.ok:
                inside = certified_inside_faces(ball, cert)
            else:
                inside = cxmod.minimal_inside_faces(ball, boundary)
            inside_dims = {len(g) - 1 for g in inside}
            A1 = (d - m in inside_dims) and not any(dd < m - 1 for dd in inside_dims)
            if not A1:
                reasons.append(f"A1 fails: minimal inside-face dimensions {sorted(inside_dims)}")
            A2 = vector_profile(bh).unimodal
            if not A2:
                reasons.append(f"A2 fails: boundary h-vector {bh} not unimodal")

        if len(boundary.used_vertices) <= max_vertices:
            table = hochster_betti_table(boundary, field=field_char, max_vertices=max_vertices)
            L_betti, U_betti = betti_bounds(table)

    if reasons:
        verdict = "INAPPLICABLE"
    else:
        verdict = "PASS" if L <= e <= U else "FAIL"
    return ConjectureReport(
        instance=instance, n=n, d=d, m=m, e=e, f=f, h=h, boundary_h=bh,
        L=L, U=U, L_betti=L_betti, U_betti=U_betti, A1=A1, A2=A2,
        m_in_range=m_in_range, all_vertices_on_boundary=on_boundary,
        shelling_pass=cert.shelling.ok, ball_pass=cert.ok, betti_table=table,
        verdict=verdict, reasons=reasons, certificate=cert,
    )
