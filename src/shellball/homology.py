"""Reduced simplicial homology ranks and graded Betti tables.

Betti numbers of a Stanley-Reisner quotient come from Hochster's formula:
beta_{i,j} for i >= 1 is the sum over vertex subsets W of size j of the
reduced homology rank of the induced subcomplex in dimension j-i-1, and
beta_{0,0} = 1.  Homology ranks come from exact boundary-matrix ranks: one
fraction-free elimination over Q and every odd GF(p), xor of bit masks over
GF(2).

Only the unions of minimal nonfaces are summed (the support of the lcm
lattice).  If some vertex x of W lies in no minimal nonface inside W, then
adding x to a face of the induced subcomplex on W gives a face again, so
that subcomplex is a cone over x and has no reduced homology.  One binary
walk over the used vertices finds the remaining W.  It carries the minimal
nonfaces avoiding every excluded vertex as one int of bits over their list,
so excluding a vertex is one AND with the bitset of those without it, and it
cuts a subtree as soon as a chosen vertex lies in none of them.  The
nonempty faces are laid out once, by size and then mask, vertices first,
and the walk carries the faces still alive the same way.  At a leaf W the
alive faces are exactly the nonempty faces inside W, and the alive
vertices are W.

A leaf ranks only the faces outside one vertex star.  The closed star
st_W(v) of a vertex v of W, the faces F of Delta_W with F + v in Delta_W,
is a cone over v, so the long exact sequence of the pair gives H~_k(Delta_W)
= H_k(Delta_W, st_W(v)) over every field (Hatcher, Algebraic Topology,
Section 2.1; Hochster's formula as in Miller-Sturmfels, Cor. 5.12).  The
relative cells are the faces of W outside the star, vertices included, so
h~_k = f_k - r_k - r_{k+1}, f_k counting the cells of dimension k and r_k
the rank of their boundary map, r_0 = 0 as the empty face lies in the
star.  A relative column is the face's boundary column with the star's
rows dropped.  The leaf takes the v that lies in the most faces of W, so
that its star covers many of them.  A face's boundary column is built the
first time a leaf reads it and kept for the table; the row of a face is
its position within the range of its own size, so rows never change.  The
star of v in W is the alive part of its star in the whole complex: the
faces with v and each F - v for a face F with v.  The position of F - v is
found the first time a leaf with that v holds F, so once per pair.

With `sphere` (below) no leaf has more than u // 2 vertices, so only the
faces and minimal nonfaces of at most that size are laid out.  This is
exact: a leaf holds no face and no minimal nonface larger than itself, and
a chosen vertex that only larger nonfaces hold lies in no minimal nonface
inside any leaf below it, so the walk reaches the same leaves.  A single row is
`hochster_betti_table(...).row(i)`; past the default cap of 16 used
vertices pass `max_vertices`.

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
from math import isqrt

from .complexes import SimplicialComplex, iter_bits, minimal_nonface_masks
from .exactrank import rank_gf2_columns, rank_int_columns

DEFAULT_VERTEX_CAP = 16


def check_field(char: int) -> int:
    if char == 0:
        return 0
    if char < 2 or any(char % q == 0 for q in range(2, isqrt(char) + 1)):
        raise ValueError(f"field characteristic must be 0 or prime, got {char}")
    return char


def _column(face: int, row: dict[int, int], char: int):
    """Boundary column of `face`: over GF(2) a bit mask of rows, otherwise
    {row: +-1} with the sign alternating in increasing vertex order.  A
    face's row is its position among the faces of its own size."""
    rows = [row[face ^ (1 << v)] for v in iter_bits(face)]
    if char == 2:
        return sum(1 << r for r in rows)
    return {r: (-1) ** i for i, r in enumerate(rows)}


class _FaceBits:
    """The faces of size 1..largest of one complex, by size and then mask; a
    set of them is an int whose bit i stands for `faces[i]`, and a vertex is
    named by its bit.  `levels[s - 1]` is (position of the first face of size
    s, bitset of those faces).  A face's row is its position within its own
    size.  For a vertex v, `holding[v]` is the faces with v, `star[v]` holds
    them and the faces F - v found so far, and `unseen[v]` holds the faces F
    of size >= 2 with v whose F - v is not yet in `star[v]`.  `cols[i]` is
    built on first read."""

    def __init__(self, cx: SimplicialComplex, char: int, largest: int):
        levels = cx.faces_by_size()
        self.char = char
        self.faces: list[int] = []
        self.row: dict[int, int] = {}
        self.levels: list[tuple[int, int]] = []
        for s in range(1, min(max(levels, default=0), largest) + 1):
            level = sorted(levels[s])
            self.row.update(zip(level, range(len(level))))
            start = len(self.faces)
            self.levels.append((start, ((1 << len(level)) - 1) << start))
            self.faces += level
        # lay the faces' bytes end to end and read bit j of each byte as the
        # digit "1" when it is set; from the last face down, every width-th
        # digit from byte v >> 3 on is then the bitset holding v in base 2
        width = (cx.n + 7) >> 3
        packed = b"".join(f.to_bytes(width, "little") for f in self.faces)
        digits = [packed.translate(bytes(48 + (x >> j & 1) for x in range(256))) for j in range(8)]
        self.holding = {
            1 << k: int(digits[v & 7][v >> 3 :: width][::-1] or b"0", 2)
            for k, v in enumerate(cx.used_vertices)
        }
        self.star = dict(self.holding)
        big = -1 << len(self.holding)  # the faces after the vertices
        self.unseen = {v: big & on for v, on in self.holding.items()}
        self.cols: list = [None] * len(self.faces)

    def reduced_ranks(self, alive: int) -> dict[int, int]:
        """Reduced homology ranks in dimensions 0..dim of the induced
        subcomplex whose faces are the nonempty `alive`, relative to the star
        of its vertex in the most of them (see the module docstring)."""
        holding, best, rest = self.holding, -1, alive & self.levels[0][1]
        while rest:
            b = rest & -rest
            rest ^= b
            count = (alive & holding[b]).bit_count()
            if count > best:
                best, v = count, b
        return self._relative_ranks(alive, v)

    def _relative_ranks(self, alive: int, v: int) -> dict[int, int]:
        """The ranks of `reduced_ranks` read off the pair (Delta_W, st_W(v))
        for the bit `v` of a vertex of W: in dimension k, f_k - r_k - r_{k+1},
        where f_k counts the faces of size k+1 outside the star and r_k is
        the rank of their boundary columns with the star's rows dropped."""
        char, cols, faces, row, levels = self.char, self.cols, self.faces, self.row, self.levels
        new = alive & self.unseen[v]
        if new:
            self.unseen[v] ^= new
            image, x = 0, faces[v.bit_length() - 1]
            while new:
                low = new & -new
                new ^= low
                g = faces[low.bit_length() - 1] ^ x
                image |= 1 << levels[g.bit_count() - 1][0] + row[g]
            self.star[v] |= image
        star = self.star[v]
        outside = alive & ~star
        top = faces[outside.bit_length() - 1].bit_count() if outside else 0
        f, rank = [], [0] * (top + 1)
        keep = 0  # the empty face lies in the star, so a vertex keeps no row
        for s, (start, span) in enumerate(levels[:top]):
            here = (outside & span) >> start
            f.append(here.bit_count())
            if here and keep:
                group = []
                while here:
                    low = here & -here
                    here ^= low
                    i = start + low.bit_length() - 1
                    col = cols[i]
                    if col is None:
                        col = cols[i] = _column(faces[i], row, char)
                    if char == 2:
                        col &= keep
                    else:
                        col = {r: x for r, x in col.items() if keep >> r & 1}
                    if col:
                        group.append(col)
                rank[s] = rank_gf2_columns(group) if char == 2 else rank_int_columns(group, char)
            keep = ~((star & span) >> start)
        return {k: f[k] - rank[k] - rank[k + 1] for k in range(top)}


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

    `alive` (a bitset over `_FaceBits.faces`, vertices included) and `live`
    (over `nonfaces`) in the walk hold the faces and minimal nonfaces
    avoiding every excluded vertex, so a leaf's alive vertices are W, and
    `held` has, per chosen vertex, the bitset of the nonfaces holding it.  A
    subtree in which a chosen vertex lies in no live nonface holds only
    cones (see the module docstring) and is cut.  With `sphere` only
    |W| <= u // 2 is walked: a leaf with 2|W| < u also adds its complement's
    entries, a leaf with 2|W| = u has its complement walked as a leaf too,
    and W = V is the top class.  A cut W spans a cone, so its
    complement is acyclic as well and owns no entry.
    """
    used = cx.used_vertices
    u = len(used)
    largest = u // 2 if sphere else u
    p = u - cx.dim - 1  # a sphere's projective dimension, home of its top class
    faces = _FaceBits(cx, char, largest)
    nonfaces = [m for m in minimal_nonface_masks(cx) if m.bit_count() <= largest]
    every = (1 << len(faces.faces)) - 1
    # the faces without each vertex, kept positive: on a large layout an AND
    # with a negative int such as ~holding costs about ten times as much
    without = [every ^ faces.holding[1 << k] for k in range(u)]
    holds = [sum(1 << i for i, m in enumerate(nonfaces) if m >> v & 1) for v in used]
    entries: Counter[tuple[int, int]] = Counter()
    if sphere:
        entries[(p, u)] = 1

    def rec(k: int, alive: int, live: int, held: tuple[int, ...]) -> None:
        # a vertex in no live nonface cannot be chosen, and excluding it
        # uncovers no chosen vertex
        while k < u and not live & holds[k]:
            alive &= without[k]
            k += 1
        if k == u:
            w_size = len(held)
            if w_size:
                for dim, rank in faces.reduced_ranks(alive).items():
                    if rank:
                        i = w_size - 1 - dim
                        entries[(i, w_size)] += rank
                        if sphere and 2 * w_size < u:
                            entries[(p - i, u - w_size)] += rank
            return
        rest = live & ~holds[k]
        # exclude only while each chosen vertex stays in a live nonface
        for h in held:
            if not rest & h:
                break
        else:
            rec(k + 1, alive & without[k], rest, held)
        if len(held) < largest:
            rec(k + 1, alive, live, (*held, holds[k]))

    rec(0, every, (1 << len(nonfaces)) - 1, ())
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
