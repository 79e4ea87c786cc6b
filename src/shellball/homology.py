"""Reduced simplicial homology ranks and graded Betti tables.

Betti numbers of a Stanley-Reisner quotient come from Hochster's formula:
beta_{i,j} for i >= 1 is the sum over vertex subsets W of size j of the
reduced homology rank of the induced subcomplex in dimension j-i-1, and
beta_{0,0} = 1.  Homology ranks come from exact boundary-matrix ranks
(fraction-free over Q, elimination over GF(p)) in every degree.  A face of
an induced subcomplex has its whole boundary there, so each face's boundary
column is built once per table, over fixed row indices, and every induced
subcomplex ranks the subset of those columns that it holds.

Only the unions of minimal nonfaces are summed (the support of the lcm
lattice).  If some vertex x of W lies in no minimal nonface inside W, then
adding x to a face of the induced subcomplex on W gives a face again, so
that subcomplex is a cone over x and has no reduced homology.  One binary
walk over the used vertices finds the remaining W: it filters the face
list and the minimal nonfaces once per excluded vertex and cuts a subtree
as soon as a chosen vertex lies in no minimal nonface avoiding the excluded
ones.  A single row is `hochster_betti_table(...).row(i)`; past the default
cap of 16 used vertices pass `max_vertices`.

A homology sphere of dimension D on the vertex set V (|V| = u) halves the
walk by Alexander duality: for nonempty W != V, H~_q(Delta_W) is isomorphic
to H~^{D-q-1}(Delta_{V-W}) over every field (Bjorner-Tancer 2009; Miller-
Sturmfels, Thm 5.6).  So an entry (i, j) of a leaf W has the mirror entry
(u-D-1-i, u-j) from its complement, and the walk stops choosing vertices at
u // 2.  The boundary of a certified ball qualifies: a shellable
pseudomanifold with boundary is a PL ball (Danaraj-Klee), and its boundary
is a PL sphere, a homology sphere over every field.  Only a caller holding
that certificate passes `sphere=True`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import isqrt
from operator import or_

from .complexes import SimplicialComplex, iter_bits, minimal_nonface_masks
from .exactrank import rank_gf2_columns, rank_int_columns, rank_modp_columns

DEFAULT_VERTEX_CAP = 16


def check_field(char: int) -> int:
    if char == 0:
        return 0
    if char < 2 or any(char % q == 0 for q in range(2, isqrt(char) + 1)):
        raise ValueError(f"field characteristic must be 0 or prime, got {char}")
    return char


def _columns(faces: list[int], char: int) -> dict[int, int | dict[int, int]]:
    """Boundary column of every face in `faces` (a closed, sorted face list).

    A face's row is its position among the faces of its own size, so the
    rows stay fixed for every subcomplex ranked later.  Over GF(2) a column
    is a bit mask; otherwise it is {row: +-1}, the sign alternating in
    increasing vertex order.
    """
    row: dict[int, int] = {}
    seen: Counter[int] = Counter()
    for m in faces:
        s = m.bit_count()
        row[m] = seen[s]
        seen[s] += 1
    cols: dict[int, int | dict[int, int]] = {}
    for m in faces:
        rows = [row[m ^ (1 << v)] for v in iter_bits(m)]
        if char == 2:
            cols[m] = sum(1 << r for r in rows)
        else:
            cols[m] = {r: (-1) ** i for i, r in enumerate(rows)}
    return cols


def _rank(columns: list, char: int) -> int:
    if char == 2:
        return rank_gf2_columns(columns)
    if char == 0:
        return rank_int_columns(columns)
    return rank_modp_columns(columns, char)


def _reduced_ranks(faces: list[int], cols: dict, char: int) -> dict[int, int]:
    """Reduced homology ranks in dimensions -1..dim of the complex `faces`.

    `faces` is closed under taking subsets and `cols` holds their columns
    (see `_columns`); in dimension k the rank is f_k - rank d_k - rank
    d_{k+1}, where d_k maps the faces of size k+1 to those of size k.
    """
    groups: dict[int, list] = {}
    for m in faces:
        groups.setdefault(m.bit_count(), []).append(cols[m])
    rank = {s: _rank(group, char) for s, group in groups.items()}
    return {
        k: len(groups.get(k + 1, ())) - rank.get(k + 1, 0) - rank.get(k + 2, 0)
        for k in range(-1, max(groups, default=0))
    }


def _sorted_faces(cx: SimplicialComplex) -> list[int]:
    return sorted(m for masks in cx.faces_by_size().values() for m in masks)


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    """Sparse graded Betti numbers of a quotient ring S/I.

    `entries` maps (homological index i, internal degree j) to beta_{i,j};
    beta_{0,0} = 1 always.  `p` is the projective dimension (largest i with
    an entry).
    """

    entries: dict[tuple[int, int], int]
    p: int

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def row(self, i: int) -> dict[int, int]:
        return {j: b for (ii, j), b in self.entries.items() if ii == i}

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "entries": [[i, j, b] for (i, j), b in sorted(self.entries.items())],
        }


def _betti_from_entries(entries: dict[tuple[int, int], int]) -> BettiTable:
    entries = {k: v for k, v in entries.items() if v}
    entries[(0, 0)] = 1
    return BettiTable(entries=entries, p=max(i for i, _ in entries))


def _hochster_entries(
    cx: SimplicialComplex, char: int, sphere: bool
) -> dict[tuple[int, int], int]:
    """Hochster sums over the nonempty unions W of minimal nonfaces.

    `faces` and `nonfaces` in the walk are those avoiding every excluded
    vertex; a subtree in which a chosen vertex lies in none of the nonfaces
    holds only cones (see the module docstring) and is cut.  With `sphere`
    only |W| <= u // 2 is walked: a leaf with 2|W| < u also adds its
    complement's entries, a leaf with 2|W| = u has its complement walked as
    a leaf too, and W = V is the top class.  A cut W spans a cone, so its
    complement is acyclic as well and owns no entry.
    """
    used = cx.used_vertices
    u = len(used)
    largest = u // 2 if sphere else u
    p = u - cx.dim - 1  # a sphere's projective dimension, home of its top class
    faces = _sorted_faces(cx)
    cols = _columns(faces, char)
    nonfaces = minimal_nonface_masks(cx)
    entries: Counter[tuple[int, int]] = Counter()
    if sphere:
        entries[(p, u)] = 1

    def process(w_size: int, faces: list[int]) -> None:
        for dim, rank in _reduced_ranks(faces, cols, char).items():
            if rank:
                i = w_size - 1 - dim
                entries[(i, w_size)] += rank
                if sphere and 2 * w_size < u:
                    entries[(p - i, u - w_size)] += rank

    def rec(k: int, faces: list[int], nonfaces: list[int], chosen: int) -> None:
        if k == u:
            if chosen:
                process(chosen.bit_count(), faces)
            return
        bit = 1 << used[k]
        rest = [m for m in nonfaces if not m & bit]
        # exclude only while the chosen vertices stay covered, choose only
        # when a remaining nonface passes through the vertex
        if chosen & ~reduce(or_, rest, 0) == 0:
            rec(k + 1, [f for f in faces if not f & bit], rest, chosen)
        if len(rest) < len(nonfaces) and chosen.bit_count() < largest:
            rec(k + 1, faces, nonfaces, chosen | bit)

    rec(0, faces, nonfaces, 0)
    return entries


def hochster_betti_table(
    cx: SimplicialComplex,
    field: int = 0,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    *,
    sphere: bool = False,
) -> BettiTable:
    """Full graded Betti table of S/I via induced-subcomplex homology.

    Set `sphere` only when `cx` is certified a homology sphere: the walk then
    visits only |W| <= u/2 and reads the rest off Alexander duality (see the
    module docstring).  Without it every union of minimal nonfaces is walked.
    """
    char = check_field(field)
    if max_vertices < 0:
        raise ValueError(f"need max_vertices >= 0, got {max_vertices}")
    u = len(cx.used_vertices)
    if u > max_vertices:
        raise ValueError(f"used-vertex count {u} exceeds cap {max_vertices}")
    return _betti_from_entries(_hochster_entries(cx, char, sphere))


def shifts(table: BettiTable) -> tuple[list[int | None], list[int | None]]:
    """Minimal and maximal degrees per homological index 1..p.

    A position with no entries yields None (betti_bounds treats that as a
    resolution gap).
    """
    mins: list[int | None] = []
    maxs: list[int | None] = []
    for i in range(1, table.p + 1):
        js = [j for (ii, j) in table.entries if ii == i]
        mins.append(min(js) if js else None)
        maxs.append(max(js) if js else None)
    return mins, maxs


def has_linear_resolution(table: BettiTable, m: int) -> bool:
    """True iff the ideal is generated in degree m with all shifts M_i = m+i-1."""
    return linear_resolution_reason(table, m)[0]


def linear_resolution_reason(table: BettiTable, m: int) -> tuple[bool, str]:
    mins, maxs = shifts(table)
    if table.p == 0:
        return True, "zero ideal"
    if mins[0] != m or maxs[0] != m:
        return False, "not equigenerated"
    for i in range(1, table.p + 1):
        if maxs[i - 1] != m + i - 1:
            return False, f"nonlinear shift M_{i}={maxs[i - 1]} (expected {m + i - 1})"
    return True, "linear"


def canonical_generator_degrees(table: BettiTable, n: int, d: int) -> list[int]:
    """Degrees of canonical-module generators from the top of the resolution.

    For a Cohen-Macaulay quotient on n vertices of Krull dimension d the
    projective dimension is n-d and the degrees are n-j with multiplicity
    beta_{n-d,j}.  The projective dimension is checked, not assumed.
    """
    if table.p != n - d:
        raise ValueError(
            f"not Cohen-Macaulay at this vertex count: pdim {table.p} != n-d = {n - d}"
        )
    if table.p == 0:
        return []
    out: list[int] = []
    for j, b in table.row(n - d).items():
        out.extend([n - j] * b)
    return sorted(out)
