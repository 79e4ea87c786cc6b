"""Alexander duals and the dual-matrix identity for maximal-minor ideals.

The dual of a complex on a fixed universe has as facets the complements of
the minimal nonfaces; equivalently, the minimal generators of the dual
ideal are the minimal vertex covers of the original generators.  For the
initial ideal of the maximal minors of an m x n matrix X, those covers are
exactly the maximal-minor diagonals of an (n-m+1) x n matrix Y glued to X
along shifted diagonals: `dual_matrix(m, n)` maps each entry of Y to the
entry of X it is identified with, or to None when it is a free variable.
Verifying the identity reduces to two finite inclusions over the
identified variables, checked here by explicit enumeration of diagonals on
one side and of minimal covers on the other.
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
    """Check that dual-matrix diagonals and minimal vertex covers coincide.

    The generators of the initial maximal-minor ideal of X are the
    Stanley-Reisner generators of the [1..m-1 | 1..m-1] complex.  (a) every
    maximal-minor diagonal of Y, rewritten through the identification (all
    its entries must be identified, which the strictly increasing column
    condition forces), covers every generator; (b) every minimal vertex
    cover of the generators is such a rewritten diagonal.
    """
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    ymat = dual_matrix(m, n)
    spec = MinorSpec.diagonal(m, n, m - 1)
    failures: list[str] = []
    generators = [mask_of(map(spec.vertex_index, d)) for d in sr_generators(spec)]

    diag_masks: set[int] = set()
    for cols in combinations(range(1, n + 1), n - m + 1):
        support = []
        for k, c in enumerate(cols, start=1):
            if ymat[k, c] is None:
                failures.append(f"diagonal entry Y[{k},{c}] is not identified with X")
                continue
            support.append(spec.vertex_index(ymat[k, c]))
        mask = mask_of(support)
        diag_masks.add(mask)
        uncovered = [g for g in generators if g & mask == 0]
        if uncovered:
            failures.append(
                f"diagonal {cols} misses generator {vertices_of(uncovered[0])}"
            )

    covers = minimal_vertex_covers(generators)
    for c in covers:
        if c not in diag_masks:
            failures.append(f"minimal cover {vertices_of(c)} is not a dual diagonal")

    return DualTheoremVerdict(
        m=m,
        n=n,
        passed=not failures,
        diagonal_count=len(diag_masks),
        cover_count=len(covers),
        failures=failures,
    )
