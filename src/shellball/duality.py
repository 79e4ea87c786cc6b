"""Alexander duals and the dual-matrix identity for maximal-minor ideals.

The dual of a complex on a fixed universe has as facets the complements of
the minimal nonfaces; equivalently, the minimal generators of the dual
ideal are the minimal vertex covers of the original generators.  For the
initial ideal of the maximal minors of an m x n matrix X, those covers are
exactly the maximal-minor diagonals of an (n-m+1) x n matrix Y glued to X
along Y[i, j+i-1] = X[j, j+i-1]; verifying that identity reduces to two
finite inclusions over the identified variables, checked here by explicit
enumeration of diagonals on one side and of minimal covers on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    SimplicialComplex,
    iter_bits,
    mask_of,
    minimal_masks,
    minimal_nonface_masks,
    vertices_of,
)


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """Complex whose facets are the universe complements of the minimal nonfaces.

    Computed over the full universe: an unused vertex is itself a minimal
    nonface, which keeps the construction an involution.
    """
    nonfaces = minimal_nonface_masks(cx, over_universe=True)
    if not nonfaces:
        raise ValueError("dual undefined (zero ideal)")
    full = (1 << cx.n) - 1
    return SimplicialComplex(cx.n, [full ^ m for m in nonfaces], cx.labels)


def minimal_vertex_covers(supports: list[int], n: int) -> list[int]:
    """All inclusion-minimal vertex covers (as masks) of a set of support masks.

    Branch and bound over the first uncovered support; candidate covers are
    pruned to the inclusion-minimal ones at the end.
    """
    supports = sorted(set(supports))
    if not supports:
        return [0]
    found: set[int] = set()

    def rec(chosen: int) -> None:
        for s in supports:
            if s & chosen == 0:
                for v in iter_bits(s):
                    rec(chosen | (1 << v))
                return
        found.add(chosen)

    rec(0)
    return sorted(minimal_masks(found))


@dataclass(frozen=True)
class DualMatrixMap:
    """Identification of the dual matrix Y with entries of X.

    Y has shape (n-m+1) x n; entry (k, c) is identified with X[c-k+1, c]
    exactly when k <= c <= k+m-1, and is a free variable otherwise.
    """

    m: int
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n - self.m + 1, self.n)

    def is_identified(self, k: int, c: int) -> bool:
        return k <= c <= k + self.m - 1

    def x_entry(self, k: int, c: int) -> tuple[int, int]:
        if not self.is_identified(k, c):
            raise ValueError(f"Y[{k},{c}] is a free variable")
        return (c - k + 1, c)

    def identified_entries(self) -> dict[tuple[int, int], tuple[int, int]]:
        rows, cols = self.shape
        return {
            (k, c): self.x_entry(k, c)
            for k in range(1, rows + 1)
            for c in range(1, cols + 1)
            if self.is_identified(k, c)
        }

    def free_entries(self) -> list[tuple[int, int]]:
        rows, cols = self.shape
        return [
            (k, c)
            for k in range(1, rows + 1)
            for c in range(1, cols + 1)
            if not self.is_identified(k, c)
        ]

    def display(self) -> str:
        rows, cols = self.shape
        out = []
        for k in range(1, rows + 1):
            row = []
            for c in range(1, cols + 1):
                if self.is_identified(k, c):
                    i, j = self.x_entry(k, c)
                    row.append(f"X{i}{j}")
                else:
                    row.append(f"Y{k}{c}")
            out.append(" ".join(f"{e:>4}" for e in row))
        return "\n".join(out)


def dual_matrix(m: int, n: int) -> DualMatrixMap:
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return DualMatrixMap(m, n)


def maximal_minor_diagonals(m: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """Main diagonals of the m x m minors of an m x n matrix, as (row, col) tuples."""
    return [
        tuple((k + 1, cols[k]) for k in range(m))
        for cols in combinations(range(1, n + 1), m)
    ]


@dataclass
class DualTheoremVerdict:
    m: int
    n: int
    passed: bool
    diagonal_count: int
    cover_count: int
    failures: list[str]

    def to_json_dict(self) -> dict:
        return {
            "kind": "dual-matrix-identity",
            "m": self.m,
            "n": self.n,
            "passed": self.passed,
            "diagonal_count": self.diagonal_count,
            "cover_count": self.cover_count,
            "failures": self.failures,
        }


def verify_dual_theorem(m: int, n: int) -> DualTheoremVerdict:
    """Check that dual-matrix diagonals and minimal vertex covers coincide.

    (a) every maximal-minor diagonal of Y, rewritten through the
    identification (all its entries must be identified, which the strictly
    increasing column condition forces), covers every generator diagonal of
    the initial maximal-minor ideal of X; (b) every minimal vertex cover of
    those generators is such a rewritten diagonal.
    """
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    dmap = dual_matrix(m, n)
    failures: list[str] = []

    def xindex(pt: tuple[int, int]) -> int:
        return (pt[0] - 1) * n + (pt[1] - 1)

    generators = [mask_of(xindex(p) for p in d) for d in maximal_minor_diagonals(m, n)]

    y_rows = n - m + 1
    diag_masks: set[int] = set()
    for cols in combinations(range(1, n + 1), y_rows):
        support = []
        for k, c in enumerate(cols, start=1):
            if not dmap.is_identified(k, c):
                failures.append(f"diagonal entry Y[{k},{c}] is not identified with X")
                continue
            support.append(xindex(dmap.x_entry(k, c)))
        mask = mask_of(support)
        diag_masks.add(mask)
        uncovered = [g for g in generators if g & mask == 0]
        if uncovered:
            failures.append(
                f"diagonal {cols} misses generator {vertices_of(uncovered[0])}"
            )

    covers = minimal_vertex_covers(generators, m * n)
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
