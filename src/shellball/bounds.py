"""Multiplicity bounds for boundary spheres of shellable balls.

For a ball whose smallest nonface has m vertices, the resolution shifts of
the boundary sphere are pinned down in closed form, giving exact rational
bounds, each the shift bound prod(shifts)/p! of the shifts that m forces:

    L = (m)(m+1)...(m+n-d-1) * n / (n-d+1)!
    U = (d-m+1)(d-m+2)...(n-m) * n / (n-d+1)!

valid under two hypotheses checked per instance: a minimal inside face of
dimension d-m exists and none smaller than m-1 (A1), and the boundary
h-vector is unimodal (A2), with m constrained to 2 <= m <= (d+1)//2.  The
same bounds can be derived from an actual Betti table; both routes are
reported.  Cyclic-polytope comparators give the upper-bound chain; their
spheres are neighborly, so their h-vector and maximal shifts are the ones
forced at m = (d+1)//2.  All arithmetic is exact: integers and fractions
only, no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import comb, factorial, prod
from typing import Sequence

from . import complexes as cxmod
from .complexes import SimplicialComplex, vector_profile
from .homology import (
    DEFAULT_VERTEX_CAP,
    BettiTable,
    check_field,
    hochster_betti_table,
    shifts,
)
from .shelling import certified_h, certified_inside_faces, verify_ball


def shift_bound(degrees: Sequence[int]) -> Fraction:
    """prod(degrees) / p! for one shift per homological index 1..p."""
    return Fraction(prod(degrees), factorial(len(degrees)))


def _forced_shifts(n: int, d: int, m: int) -> tuple[list[int], list[int]]:
    """Least and greatest shifts forced by m: m+i-1 and d-m+i for i <= n-d, then n."""
    return [*range(m, m + n - d), n], [*range(d - m + 1, n - m + 1), n]


def closed_form_bounds(n: int, d: int, m: int) -> tuple[Fraction, Fraction]:
    """Exact (L, U), the shift bounds of the forced shifts; applicable for 2 <= m <= (d+1)//2."""
    lo, hi = _forced_shifts(n, d, m)
    return shift_bound(lo), shift_bound(hi)


def betti_bounds(table: BettiTable) -> tuple[Fraction, Fraction]:
    """prod(m_i)/p! and prod(M_i)/p! from an actual Betti table."""
    mins, maxs = shifts(table)
    if any(v is None for v in mins):
        raise ValueError("gap in resolution")
    return shift_bound(mins), shift_bound(maxs)


def linear_ball_boundary_h(n: int, d: int, m: int) -> tuple[int, ...]:
    """Boundary h-vector of a ball on n vertices with facets of size d whose
    ideal has an m-linear resolution; for 1 <= m <= (d+1)//2.

    A Cohen-Macaulay quotient of codimension c = n - d with an m-linear
    resolution has h-vector (1, c, C(c+1, 2), ..., C(c+m-2, m-1), 0, ...),
    and the boundary's h is its partial-sum transform (`boundary_h_from_h`):
    a binomial ramp up to C(c+m-1, m-1), a flat middle and the mirror ramp.
    Past (d+1)//2 the two ramps overlap and the middle dips, as in
    (1, 4, 0, 4, 1) for (n, d, m) = (8, 5, 4).
    """
    h = [1] + [comb(n - d + i - 1, i) for i in range(1, m)]
    return cxmod.boundary_h_from_h(h + [0] * (d + 1 - m))


# ---------------------------------------------------------------------------
# cyclic polytope comparators


def cyclic_h(n: int, d: int) -> tuple[int, ...]:
    """h-vector of the boundary sphere of the cyclic (d-1)-polytope on n vertices."""
    if n < d or d < 1:
        raise ValueError("need n >= d >= 1")
    return linear_ball_boundary_h(n, d, (d + 1) // 2)


def cyclic_max_shifts(n: int, d: int) -> list[int]:
    """Maximal resolution shifts of the cyclic boundary sphere, length n-d+1."""
    if n <= d:
        raise ValueError("need n > d")
    return _forced_shifts(n, d, (d + 1) // 2)[1]


# ---------------------------------------------------------------------------
# the full per-instance verdict


def json_rational(x):
    """A Fraction as an int when it is whole and as "p/q" otherwise; any other value as is."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _json_value(x):
    if isinstance(x, tuple):
        return list(x)
    if isinstance(x, BettiTable):
        return x.to_json_dict()
    return json_rational(x)


@dataclass
class ConjectureReport:
    instance: str
    n: int
    d: int
    m: int | None
    e: int | None
    f: tuple[int, ...] | None
    h: tuple[int, ...] | None
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

    @property
    def betti_bounds_ok(self) -> bool | None:
        if self.L_betti is None or self.e is None:
            return None
        return self.L_betti <= self.e <= self.U_betti

    def to_json_dict(self) -> dict:
        out = {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}
        out["betti_bounds_ok"] = self.betti_bounds_ok
        return out

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
    verdict to INAPPLICABLE with all computable data still reported.  So
    does a ridge in three or more facets (not a pseudomanifold): then the
    boundary and everything read off it (e, boundary h, Betti table, L, U,
    A1, A2) stay null.  A boundary that `f_vector` will not count (more
    used vertices than its cube bound) leaves its h-vector and A2 null and
    says so in the reasons.
    The ball's h (hence f, and m from f) is read off a passing shelling
    certificate and its minimal inside faces off a passing ball certificate;
    the ball's face lattice is never built, so an order that fails to shell
    leaves f, h, m and everything derived from m null.
    """
    check_field(field_char)
    if max_vertices < 0:
        raise ValueError(f"need max_vertices >= 0, got {max_vertices}")
    cert = verify_ball(ball, order)
    d = ball.dim + 1
    n = len(ball.used_vertices)
    f = h = m = e = bh = on_boundary = A1 = A2 = m_in_range = L = U = None
    table = L_betti = U_betti = None
    if cert.shelling.ok:
        h = certified_h(ball, cert.shelling)
        f = cxmod.f_from_h(h)
        m = cxmod.smallest_nonface_size(f)
    reasons: list[str] = []
    if not cert.shelling.ok:
        reasons.append(f"shelling failed: {cert.shelling.reason}")
    elif not cert.ok:
        reasons.append(f"ball certification failed: {cert.reason}")
    try:
        boundary = cxmod.boundary_complex(ball)
    except ValueError as exc:  # void and non-pure input raised above: a ridge in 3+ facets
        boundary = None
        reasons.append(str(exc))

    if boundary is not None and not boundary.facets:
        reasons.append("no boundary")
    elif boundary is not None:
        e = len(boundary.facets)
        try:
            boundary_f = cxmod.f_vector(boundary)
        except ValueError as exc:  # a dense boundary past the cube's vertex bound
            reasons.append(f"boundary has {exc}")
        else:
            bh = cxmod.h_vector(boundary_f)
            if sum(bh) != e:
                raise ArithmeticError(
                    f"boundary h-vector sum {sum(bh)} disagrees with facet count {e}"
                )

        on_boundary = boundary.used_mask == ball.used_mask
        if not on_boundary:
            reasons.append("interior vertex: not every vertex lies on the boundary")

        if m is not None:
            m_in_range = 2 <= m <= (d + 1) // 2
            L, U = closed_form_bounds(n, d, m)
            if not m_in_range:
                reasons.append(f"m out of range: need 2 <= {m} <= {(d + 1) // 2}")
            # m implies a shelling; one failing the ball check has no boundary or raised above
            inside = certified_inside_faces(ball, cert)
            inside_dims = {len(g) - 1 for g in inside}
            A1 = (d - m in inside_dims) and not any(dd < m - 1 for dd in inside_dims)
            if not A1:
                reasons.append(f"A1 fails: minimal inside-face dimensions {sorted(inside_dims)}")
            if bh is not None:
                A2 = vector_profile(bh).unimodal
                if not A2:
                    reasons.append(f"A2 fails: boundary h-vector {bh} not unimodal")
        elif f is not None:
            reasons.append("m undefined (no nonfaces: full simplex)")

        if len(boundary.used_vertices) <= max_vertices:
            # a passing ball certificate makes the boundary a homology sphere
            table = hochster_betti_table(
                boundary, field=field_char, max_vertices=max_vertices, sphere=cert.ok
            )
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
        verdict=verdict, reasons=reasons,
    )
