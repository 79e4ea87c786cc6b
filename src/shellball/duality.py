"""Alexander duals and the dual-matrix identity for maximal-minor ideals.

The dual of a complex on a fixed universe has as facets the complements of
the minimal nonfaces; equivalently, the minimal generators of the dual
ideal are the minimal vertex covers of the original generators.  For the
initial ideal of the maximal minors of an m x n matrix X, those covers are
exactly the maximal-minor diagonals of an (n-m+1) x n matrix Y glued to X
along shifted diagonals: `dual_matrix(m, n)` maps each entry of Y to the
entry of X it is identified with, or to None when it is a free variable.
Verifying the identity is one set equality: the diagonals, rewritten
through the identification, are the minimal covers.  That is the same as
asking that every diagonal be a cover and every minimal cover a diagonal.
Given both, a diagonal holds some minimal cover, which is itself a
diagonal; all diagonals have n-m+1 points, so the two are equal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

from .complexes import SimplicialComplex, mask_of, minimal_vertex_covers, vertices_of
from .paths import MinorSpec, Point, sr_generators


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose facets are the universe complements of the minimal nonfaces.

    The nonfaces are `minimal_nonface_masks` over the whole universe rather
    than the used vertices: the minimal covers of the universe complements
    of the facets, so no face lattice is built.  An unused vertex lies in
    every complement and comes out as a singleton nonface, which keeps the
    dual an involution; the void complex's one minimal nonface is the empty
    set.
    """
    full = (1 << cx.n) - 1
    nonfaces = minimal_vertex_covers([full ^ f for f in cx.facets])
    if not nonfaces:
        raise ValueError("dual undefined (zero ideal)")
    return SimplicialComplex(cx.n, [full ^ m for m in nonfaces], cx.labels)


def dual_matrix(m: int, n: int) -> dict[Point, Point | None]:
    """The (n-m+1) x n dual matrix Y, row by row: Y[k, c] -> X[c-k+1, c] or None.

    Entry (k, c) is identified with X[c-k+1, c] exactly when
    k <= c <= k+m-1, and is a free variable (None) otherwise.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return {
        (k, c): (c - k + 1, c) if k <= c <= k + m - 1 else None
        for k in range(1, n - m + 2)
        for c in range(1, n + 1)
    }


@dataclass
class DualTheoremVerdict:
    m: int
    n: int
    passed: bool
    diagonal_count: int
    cover_count: int
    failures: list[str]

    def to_json_dict(self) -> dict:
        return {"kind": "dual-matrix-identity", **asdict(self)}


def verify_dual_theorem(m: int, n: int) -> DualTheoremVerdict:
    """Check that the rewritten dual-matrix diagonals are the minimal vertex covers.

    The generators of the initial maximal-minor ideal of X are the
    Stanley-Reisner generators of the [1..m-1 | 1..m-1] complex.  A
    maximal-minor diagonal of Y has columns c_1 < ... < c_{n-m+1}, so
    k <= c_k <= k+m-1 and every entry Y[k, c_k] is identified with
    X[c_k-k+1, c_k]: the rewritten diagonal is a set of n-m+1 points, one
    per column.  `failures` lists the minimal covers that are no diagonal,
    then the diagonals that are no minimal cover.
    """
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    ymat = dual_matrix(m, n)
    spec = MinorSpec.diagonal(m, n, m - 1)
    generators = [mask_of(map(spec.vertex_index, d)) for d in sr_generators(spec)]
    diagonals = {
        mask_of(spec.vertex_index(ymat[k, c]) for k, c in enumerate(cols, 1))
        for cols in combinations(range(1, n + 1), n - m + 1)
    }
    covers = minimal_vertex_covers(generators)
    missing = [c for c in covers if c not in diagonals]
    extra = sorted(diagonals.difference(covers))
    failures = [f"minimal cover {vertices_of(c)} is not a dual diagonal" for c in missing]
    failures += [f"dual diagonal {vertices_of(g)} is not a minimal cover" for g in extra]
    return DualTheoremVerdict(
        m=m,
        n=n,
        passed=not failures,
        diagonal_count=len(diagonals),
        cover_count=len(covers),
        failures=failures,
    )
