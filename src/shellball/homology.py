"""Reduced simplicial homology ranks and graded Betti tables.

Betti numbers of a Stanley-Reisner quotient come from Hochster's formula:
beta_{i,j} for i >= 1 is the sum over vertex subsets W of size j of the
reduced homology rank of the induced subcomplex in dimension j-i-1, and
beta_{0,0} = 1.  Homology ranks come from exact boundary-matrix ranks
(fraction-free over Q, elimination over GF(p)).

Only the unions of minimal nonfaces are summed (the support of the lcm
lattice).  If some vertex x of W lies in no minimal nonface inside W, then
adding x to a face of the induced subcomplex on W gives a face again, so
that subcomplex is a cone over x and has no reduced homology.  One binary
walk over the used vertices finds the remaining W: it filters the minimal
nonfaces once per excluded vertex and cuts a subtree as soon as a chosen
vertex lies in no minimal nonface avoiding the excluded ones.  The faces of
size >= 2 are laid out once, by size and then mask, and the walk carries
the faces still alive as one int of bits over that list: excluding a
vertex is one AND with the bitset of the faces that avoid it.  At a leaf W
the alive faces are exactly the faces inside W.

A leaf takes its bottom ranks in closed form.  f_{-1} = 1, f_0 = |W|, and
each larger f_k is a popcount of the alive bits in the range of size k+1.
The map from vertices to the empty face has rank 1.  The map from edges to
vertices is the oriented incidence matrix of the graph on W (an induced
subcomplex holds every edge inside W), whose rank is |W| - c(W) over every
field, c(W) its connected components; c(W) comes from a bitmask search.
Only faces of size >= 3 are ranked by elimination.  A face's boundary column
is built the first time a leaf reads it and kept for the table; the row of
a face is its position within the range of its own size, so rows never
change.  A single row is `hochster_betti_table(...).row(i)`; past
the default cap of 16 used vertices pass `max_vertices`.

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


def _rank(columns: list, char: int) -> int:
    if char == 2:
        return rank_gf2_columns(columns)
    if char == 0:
        return rank_int_columns(columns)
    return rank_modp_columns(columns, char)


def _column(face: int, row: dict[int, int], char: int):
    """Boundary column of `face`: over GF(2) a bit mask of rows, otherwise
    {row: +-1} with the sign alternating in increasing vertex order.  A
    face's row is its position among the faces of its own size."""
    rows = [row[face ^ (1 << v)] for v in iter_bits(face)]
    if char == 2:
        return sum(1 << r for r in rows)
    return {r: (-1) ** i for i, r in enumerate(rows)}


class _FaceBits:
    """The faces of size >= 2 of one complex, by size and then mask; a set
    of them is an int whose bit i stands for `faces[i]`.  `span[s]` holds the
    faces of size s, `avoid[k]` those without the k-th used vertex, and
    `adjacent` maps each vertex bit to its neighbours.  `cols[i]` is built on
    first read."""

    def __init__(self, cx: SimplicialComplex, char: int):
        levels = cx.faces_by_size()
        self.char = char
        self.faces: list[int] = []
        self.row: dict[int, int] = {}
        self.span: dict[int, int] = {}
        for s in range(2, max(levels, default=0) + 1):
            level = sorted(levels[s])
            self.row.update(zip(level, range(len(level))))
            self.span[s] = ((1 << len(level)) - 1) << len(self.faces)
            self.faces += level
        # lay the faces' bytes end to end and read bit j of each byte as the
        # digit "1" when it is clear; from the last face down, every width-th
        # digit from byte v >> 3 on is then the bitset avoiding v in base 2
        width = (cx.n + 7) >> 3
        packed = b"".join(f.to_bytes(width, "little") for f in self.faces)
        digits = [packed.translate(bytes(49 - (x >> j & 1) for x in range(256))) for j in range(8)]
        self.avoid = [
            int(digits[v & 7][v >> 3 :: width][::-1] or b"0", 2) for v in cx.used_vertices
        ]
        self.adjacent = {1 << v: 0 for v in cx.used_vertices}  # vertex bit -> neighbours
        for f in levels.get(2, ()):
            low = f & -f
            self.adjacent[low] |= f ^ low
            self.adjacent[f ^ low] |= low
        self.cols: list = [None] * len(self.faces)

    def components(self, w: int) -> int:
        """Connected components of the graph induced on the vertex set `w`."""
        count = 0
        while w:
            count += 1
            reach = grow = w & -w
            while grow:
                near = 0
                while grow:
                    low = grow & -grow
                    near |= self.adjacent[low]
                    grow ^= low
                grow = near & w & ~reach
                reach |= grow
            w &= ~reach
        return count

    def reduced_ranks(self, w: int, alive: int) -> dict[int, int]:
        """Reduced homology ranks in dimensions 0..dim of the subcomplex
        induced on the nonempty vertex set `w`, whose faces of size >= 2 are
        `alive`.  In dimension k the rank is f_k - rank d_k - rank d_{k+1},
        where d_k maps the faces of size k+1 to those of size k; d_0 and d_1
        are ranked in closed form (see the module docstring)."""
        f = {0: w.bit_count()}
        rank = {0: 1, 1: f[0] - self.components(w)}
        cols = self.cols
        for s, span in self.span.items():
            here = alive & span
            if not here:
                break
            f[s - 1] = here.bit_count()
            if s > 2:
                group = []
                while here:
                    low = here & -here
                    here ^= low
                    i = low.bit_length() - 1
                    col = cols[i]
                    if col is None:
                        col = cols[i] = _column(self.faces[i], self.row, self.char)
                    group.append(col)
                rank[s - 1] = _rank(group, self.char)
        return {k: f[k] - rank[k] - rank.get(k + 1, 0) for k in f}


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

    `alive` (a bitset over `_FaceBits.faces`) and `nonfaces` in the walk
    hold the faces and minimal nonfaces avoiding every excluded vertex; a
    subtree in which a chosen vertex lies in none of the nonfaces holds only
    cones (see the module docstring) and is cut.  With `sphere` only
    |W| <= u // 2 is walked: a leaf with 2|W| < u also adds its complement's
    entries, a leaf with 2|W| = u has its complement walked as a leaf too,
    and W = V is the top class.  A cut W spans a cone, so its complement is
    acyclic as well and owns no entry.
    """
    used = cx.used_vertices
    u = len(used)
    largest = u // 2 if sphere else u
    p = u - cx.dim - 1  # a sphere's projective dimension, home of its top class
    faces = _FaceBits(cx, char)
    nonfaces = minimal_nonface_masks(cx)
    entries: Counter[tuple[int, int]] = Counter()
    if sphere:
        entries[(p, u)] = 1

    def rec(k: int, alive: int, nonfaces: list[int], chosen: int) -> None:
        if k == u:
            if chosen:
                w_size = chosen.bit_count()
                for dim, rank in faces.reduced_ranks(chosen, alive).items():
                    if rank:
                        i = w_size - 1 - dim
                        entries[(i, w_size)] += rank
                        if sphere and 2 * w_size < u:
                            entries[(p - i, u - w_size)] += rank
            return
        bit = 1 << used[k]
        rest = [m for m in nonfaces if not m & bit]
        # exclude only while the chosen vertices stay covered, choose only
        # when a remaining nonface passes through the vertex
        if chosen & ~reduce(or_, rest, 0) == 0:
            rec(k + 1, alive & faces.avoid[k], rest, chosen)
        if len(rest) < len(nonfaces) and chosen.bit_count() < largest:
            rec(k + 1, alive, nonfaces, chosen | bit)

    rec(0, (1 << len(faces.faces)) - 1, nonfaces, 0)
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
