"""Reduced simplicial homology ranks and graded Betti tables.

Betti numbers of a Stanley-Reisner quotient come from Hochster's formula:
beta_{i,j} for i >= 1 is the sum over vertex subsets W of size j of the
reduced homology rank of the induced subcomplex in dimension j-i-1, and
beta_{0,0} = 1.  Homology ranks come from exact boundary-matrix ranks
(fraction-free over Q, elimination over GF(p)); connectivity in degree one
is handled by union-find instead of a matrix.

Only the unions of minimal nonfaces are summed (the support of the lcm
lattice).  If some vertex x of W lies in no minimal nonface inside W, then
adding x to a face of the induced subcomplex on W gives a face again, so
that subcomplex is a cone over x and has no reduced homology.  One binary
walk over the used vertices finds the remaining W: it filters the face
list and the minimal nonfaces once per excluded vertex and cuts a subtree
as soon as a chosen vertex lies in no minimal nonface avoiding the excluded
ones.  Full tables and single rows (`hochster_betti_row`) share this walk;
the default cap of 16 used vertices applies to full tables only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .complexes import SimplicialComplex, iter_bits, minimal_nonface_masks
from .exactrank import rank_gf2_columns, rank_int_columns, rank_modp_columns

DEFAULT_VERTEX_CAP = 16


def check_field(char: int) -> int:
    if char == 0:
        return 0
    if char < 2 or any(char % q == 0 for q in range(2, int(char**0.5) + 1)):
        raise ValueError(f"field characteristic must be 0 or prime, got {char}")
    return char


def _boundary_rank(lower: list[int], upper: list[int], char: int) -> int:
    """Rank of the boundary map from faces `upper` to faces `lower`."""
    if not lower or not upper:
        return 0
    index = {m: i for i, m in enumerate(lower)}
    if char == 2:
        cols = []
        for f in upper:
            c = 0
            for v in iter_bits(f):
                c |= 1 << index[f ^ (1 << v)]
            cols.append(c)
        return rank_gf2_columns(cols)
    cols_d = []
    for f in upper:
        col = {}
        sign = 1
        for v in iter_bits(f):
            col[index[f ^ (1 << v)]] = sign
            sign = -sign
        cols_d.append(col)
    if char == 0:
        return rank_int_columns(cols_d)
    return rank_modp_columns(cols_d, char)


def _component_count(vertex_masks: list[int], edge_masks: list[int]) -> int:
    parent = {m: m for m in vertex_masks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_masks:
        b = e & -e
        u, v = b, e ^ b
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(m) for m in vertex_masks})


def _reduced_ranks(levels: dict[int, list[int]], char: int) -> dict[int, int]:
    """Reduced homology ranks by dimension for faces grouped by cardinality.

    `levels` maps size >= 1 to the masks of that size; the empty face is
    implicit.  An empty `levels` is the complex {emptyset} with one unit of
    homology in dimension -1.
    """
    if not levels:
        return {-1: 1}
    top = max(levels)
    f = {k: len(levels.get(k + 1, ())) for k in range(-1, top)}
    f[-1] = 1
    bnd = {0: 1 if f[0] else 0}
    verts = levels.get(1, [])
    edges = levels.get(2, [])
    bnd[1] = f[0] - _component_count(verts, edges) if verts else 0
    for k in range(2, top):
        bnd[k] = _boundary_rank(levels.get(k, []), levels.get(k + 1, []), char)
    bnd[top] = 0
    out = {}
    for k in range(-1, top):
        out[k] = f[k] - bnd.get(k, 0) - bnd.get(k + 1, 0)
    return out


def reduced_homology_ranks(cx: SimplicialComplex, field: int = 0) -> dict[int, int]:
    """Ranks of reduced homology in dimensions -1..dim.

    The empty complex (only the empty face) has rank 1 in dimension -1;
    nonzero entries only are not guaranteed, every dimension in range is
    reported.
    """
    char = check_field(field)
    if not cx.facets or cx.facets == (0,):
        return {-1: 1}
    levels = {
        s: sorted(masks) for s, masks in cx.faces_by_size().items() if s >= 1
    }
    return _reduced_ranks(levels, char)


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


def _hochster_entries(cx: SimplicialComplex, char: int) -> dict[tuple[int, int], int]:
    """Hochster sums over the nonempty unions W of minimal nonfaces.

    `faces` and `nonfaces` in the walk are those avoiding every excluded
    vertex; a subtree in which a chosen vertex lies in none of the nonfaces
    holds only cones (see the module docstring) and is cut.
    """
    used = cx.used_vertices
    faces = sorted(m for s, masks in cx.faces_by_size().items() if s for m in masks)
    nonfaces = minimal_nonface_masks(cx)
    entries: dict[tuple[int, int], int] = {}

    def process(w_size: int, faces: list[int]) -> None:
        grouped: dict[int, list[int]] = {}
        for m in faces:
            grouped.setdefault(m.bit_count(), []).append(m)
        for dim, rank in _reduced_ranks(grouped, char).items():
            if rank:
                key = (w_size - 1 - dim, w_size)
                entries[key] = entries.get(key, 0) + rank

    def rec(k: int, faces: list[int], nonfaces: list[int], chosen: int) -> None:
        if k == len(used):
            if chosen:
                process(chosen.bit_count(), faces)
            return
        bit = 1 << used[k]
        rest = [m for m in nonfaces if not m & bit]
        # exclude only while the chosen vertices stay covered, choose only
        # when a remaining nonface passes through the vertex
        if chosen & ~reduce(or_, rest, 0) == 0:
            rec(k + 1, [f for f in faces if not f & bit], rest, chosen)
        if len(rest) < len(nonfaces):
            rec(k + 1, faces, nonfaces, chosen | bit)

    rec(0, faces, nonfaces, 0)
    return entries


def hochster_betti_table(
    cx: SimplicialComplex, field: int = 0, max_vertices: int = DEFAULT_VERTEX_CAP
) -> BettiTable:
    """Full graded Betti table of S/I via induced-subcomplex homology."""
    char = check_field(field)
    u = len(cx.used_vertices)
    if u > max_vertices:
        raise ValueError(f"used-vertex count {u} exceeds cap {max_vertices}")
    return _betti_from_entries(_hochster_entries(cx, char))


def hochster_betti_row(
    cx: SimplicialComplex, i: int, field: int = 0
) -> dict[int, int]:
    """Single homological index of the Betti table: {j: beta_{i,j}}.

    Read from the same pruned walk as the full table, without its vertex
    cap, so it stays usable past the cap.
    """
    char = check_field(field)
    return _betti_from_entries(_hochster_entries(cx, char)).row(i)


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
    for (i, j), b in table.entries.items():
        if i == n - d:
            out.extend([n - j] * b)
    return sorted(out)


def betti_row_degrees(row: dict[int, int], n: int) -> list[int]:
    """Degrees n-j with multiplicity from a single Betti row (see above)."""
    out: list[int] = []
    for j, b in row.items():
        out.extend([n - j] * b)
    return sorted(out)
