"""Facet families of determinantal initial complexes as lattice-path systems.

The complex attached to a minor [a_1..a_r | b_1..b_r] of an m x n generic
matrix has vertex set the grid points (i,j) and facets the families of r
pairwise disjoint monotone paths, path k running from (a_k, n) to (m, b_k)
by unit steps that increase the row or decrease the column.

Profiles.  Let L_k(x) be path k's smallest column in row x, for
a_k <= x <= m, and put L_k(a_k - 1) = n.  Path k's points in row x are the
columns L_k(x)..L_k(x-1), so a family is exactly an integer array with
L_k(m) = b_k, L_k(x) <= L_k(x-1), and L_{k-1}(x-1) < L_k(x) for
a_k <= x <= m (path k-1 stays left of path k).  A `PathFamily` stores
these entries path by path as its `profile`, and nothing else: its points,
corners and vertex mask are derived from the profile where they are read.

Room lemma.  Paths 1..k of such an array extend to a whole family iff,
for each s >= 0 with k+s <= r, L_k(x) <= n - s whenever x >= a_{k+s} - s,
and L_k(x) <= b_{k+s} - s whenever x >= m - s.  (s = 0 says L_k <= n and
L_k(m) <= b_k.)

Proof.  Only if: separation and monotonicity give L_{k+s}(x+s) >= L_k(x) + s
in any completion whenever a_{k+s} <= x+s <= m, by induction on s.  With
L_{k+s} <= n, L_{k+s}(m) = b_{k+s} and L_k non-increasing this gives both
bounds.  If: L_{k+s}(y) = max(L_k(y-s) + s, b_{k+s}) for s >= 1 is a
completion; the bounds keep it at most n and make it end at b_{k+s}, and
b_{k+s-1} < b_{k+s} separates it from path k+s-1.

So `enumerate_facets` walks path k row by row and takes every L_k(x) from
max(b_k, L_{k-1}(x-1) + 1) up to min(bound, L_k(x-1)), and each one
extends: path k goes on with L_k(y) = max(b_k, L_{k-1}(y-1) + 1), which
path k-1's bound for s+1 keeps within path k's bound for s.  That range is
never empty, so the walk meets no dead end.

Facets are ordered entrywise by profile; the linear extensions of that
order are shellings.  The canonical order, by sorted vertex indices, is one
of them:

Lemma.  If f <= g entrywise on profiles and f != g, then f's sorted vertex
indices are lexicographically smaller than g's.

Proof.  Take the first row x0 where some L_k differs; the rows above x0
are identical.  In row x0 each segment L_k(x0)..L_k(x0-1) of f has the same
right end as g's and reaches at least as far left, and one reaches strictly
further.  So f's column set in row x0 strictly contains g's.  Vertex
indices are row-major, so the sorted lists agree up to the smallest column
c of row x0 that g lacks, where f has (x0, c) and g a larger index.

So `shelling_order` is a sort, and `path_complex`, whose complex stores its
facets in that order, returns the order 0..t-1.  The relation itself serves
only `random_shelling_orders`.  It is built without comparing facet pairs:
for each profile entry and value, one bitset holds the facets whose entry is
at least that value, and the facets above a facet are the AND of one bitset
per entry.

A *corner* of a path is a point whose upper and left neighbours both lie on
the same path.  Here corners give the corner-count h-vector, the flip sites
behind per-path non-flippability and the corner spectrum with its witnesses,
and corner-maximality (no facet has a larger corner set).  The flip move
itself, the corner-maximal generators of the minimal inside faces and the
prefix boundary test are checked in tests/oracles.py.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat

from .complexes import SimplicialComplex, iter_bits, mask_of, minimal_masks, vertices_of

Point = tuple[int, int]

DEFAULT_FACET_CAP = 200_000


@dataclass(frozen=True)
class MinorSpec:
    """A minor [rows | cols] of an m x n matrix of indeterminates."""

    m: int
    n: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if not self.rows or len(self.cols) != len(self.rows):
            raise ValueError("rows and cols must be nonempty and of equal length")
        if list(self.rows) != sorted(set(self.rows)) or list(self.cols) != sorted(set(self.cols)):
            raise ValueError("row and column indices must be strictly increasing")
        if self.rows[-1] > self.m or self.cols[-1] > self.n or self.rows[0] < 1 or self.cols[0] < 1:
            raise ValueError("minor indices out of matrix range")

    @classmethod
    def diagonal(cls, m: int, n: int, r: int) -> "MinorSpec":
        """The minor [1..r | 1..r]; its ideal is generated by all (r+1)-minors."""
        if not 1 <= r <= m:
            raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
        idx = tuple(range(1, r + 1))
        return cls(m, n, idx, idx)

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def facet_size(self) -> int:
        return self.r * (self.m + self.n + 1) - sum(self.rows) - sum(self.cols)

    def vertex_index(self, pt: Point) -> int:
        i, j = pt
        return (i - 1) * self.n + (j - 1)

    def point_of(self, v: int) -> Point:
        return (v // self.n + 1, v % self.n + 1)

    def grid_labels(self) -> tuple[str, ...]:
        return tuple(f"X_{i}_{j}" for i in range(1, self.m + 1) for j in range(1, self.n + 1))


def path_corners(path: tuple[Point, ...]) -> frozenset[Point]:
    """Points whose upper and left neighbours both lie on the same path."""
    pts = set(path)
    return frozenset(p for p in path if (p[0] - 1, p[1]) in pts and (p[0], p[1] - 1) in pts)


@dataclass(frozen=True)
class PathFamily:
    """A facet: r disjoint monotone paths with the prescribed endpoints.

    ``profile`` is the facet's one stored form: per path k and row x it
    crosses, in order, path k's smallest column L_k(x), and path k covers
    the columns L_k(x)..L_k(x-1) of row x (module docstring).  A path only
    moves down or left, so its leftmost point in row x is its leftmost point
    in all rows <= x: f1 <= f2 iff f1.profile <= f2.profile entry by entry.
    Profiles and facets are in bijection, so equality and hashing compare
    profiles.  The paths, corners, mask and vertex indices are derived from
    the profile when first read; the mask alone builds no point.
    """

    spec: MinorSpec
    profile: tuple[int, ...]

    def _rows(self) -> Iterator[tuple[int, int, int, int]]:
        """(k, x, lo, hi) for each path k and row x: path k covers columns lo..hi."""
        entries = iter(self.profile)
        for k, a in enumerate(self.spec.rows):
            hi = self.spec.n
            for x, lo in zip(range(a, self.spec.m + 1), entries):
                yield k, x, lo, hi
                hi = lo

    @cached_property
    def paths(self) -> tuple[tuple[Point, ...], ...]:
        """Each path's points from its start, row by row, right to left within a row."""
        out: list[list[Point]] = [[] for _ in self.spec.rows]
        for k, x, lo, hi in self._rows():
            out[k].extend(zip(repeat(x), range(hi, lo - 1, -1)))
        return tuple(map(tuple, out))

    @cached_property
    def corners(self) -> frozenset[Point]:
        return frozenset().union(*map(path_corners, self.paths))

    @cached_property
    def index_tuple(self) -> tuple[int, ...]:
        return vertices_of(self.mask)

    @cached_property
    def mask(self) -> int:
        n, mask = self.spec.n, 0
        for _, x, lo, hi in self._rows():
            mask |= ((2 << (hi - lo)) - 1) << ((x - 1) * n + lo - 1)
        return mask

    def __len__(self) -> int:
        return self.mask.bit_count()


# ---------------------------------------------------------------------------
# enumeration


def _room(spec: MinorSpec, k: int, x: int) -> int:
    """The largest column that path k's profile may take in row x (room lemma)."""
    bound = spec.n
    for s, (a, b) in enumerate(zip(spec.rows[k:], spec.cols[k:])):
        if x >= a - s:
            bound = min(bound, spec.n - s)
        if x >= spec.m - s:
            bound = min(bound, b - s)
    return bound


def enumerate_facets(spec: MinorSpec, max_facets: int = DEFAULT_FACET_CAP) -> list[PathFamily]:
    """All families of disjoint paths, canonically ordered by vertex-index sets.

    Each path is walked row by row on its profile, and row x of path k takes
    every column from ``max(b_k, L_{k-1}(x-1) + 1)`` up to
    ``min(_room(spec, k, x), L_k(x-1))``.  By the room lemma (module
    docstring) every such value extends to a family, so the walk meets no
    dead end, and an empty range is a broken invariant (`ArithmeticError`).
    """
    if max_facets < 0:
        raise ValueError(f"need max_facets >= 0, got {max_facets}")
    m, n, r = spec.m, spec.n, spec.r
    room = [[_room(spec, k, x) for x in range(m + 1)] for k in range(r)]
    low = [[n] * (m + 1) for _ in range(r)]  # low[k][x] = L_k(x), with L_k(a_k - 1) = n
    out: list[PathFamily] = []

    def walk(k: int, x: int) -> None:
        top = min(room[k][x], low[k][x - 1])
        bottom = max(spec.cols[k], low[k - 1][x - 1] + 1) if k else spec.cols[k]
        if bottom > top:
            raise ArithmeticError(f"path {k + 1} has no room in row {x}")
        for col in range(bottom, top + 1):
            low[k][x] = col
            if x < m:
                walk(k, x + 1)
            elif k + 1 < r:
                walk(k + 1, spec.rows[k + 1])
            elif len(out) >= max_facets:
                raise ValueError(f"facet cap {max_facets} exceeded (partial count {len(out)})")
            else:
                profile = tuple(v for a, row in zip(spec.rows, low) for v in row[a:])
                out.append(PathFamily(spec, profile))

    walk(0, spec.rows[0])
    expected = spec.facet_size
    for fam in out:
        if len(fam) != expected:
            raise ArithmeticError(
                f"facet cardinality {len(fam)} violates the closed formula {expected}"
            )
    out.sort(key=lambda fam: fam.index_tuple)
    return out


# ---------------------------------------------------------------------------
# flips


def _flip_sites(path: tuple[Point, ...]) -> list[Point]:
    """Points v with v, v+(1,0), v+(0,1) on the path and neither neighbour a corner."""
    free = set(path) - path_corners(path)
    return [v for v in path if (v[0] + 1, v[1]) in free and (v[0], v[1] + 1) in free]


def is_non_flippable(family: PathFamily) -> bool:
    """No path of the family admits a flip, ignoring the sibling paths."""
    return not any(_flip_sites(p) for p in family.paths)


def is_corner_maximal(family: PathFamily, facets: list[PathFamily]) -> bool:
    """No facet of the complex has a strictly larger corner set."""
    return not any(o.corners > family.corners for o in facets)


# ---------------------------------------------------------------------------
# facet partial order and shellings


def _check_specs(facets: list[PathFamily]) -> None:
    """Refuse facets of two minors and a facet listed twice (its profile repeats)."""
    spec = next((f.spec for f in facets), None)
    if any(f.spec != spec for f in facets):
        raise ValueError("mismatched specs")
    seen: set[tuple[int, ...]] = set()
    for f in facets:
        if f.profile in seen:
            raise ValueError(f"repeated facet {list(f.index_tuple)}")
        seen.add(f.profile)


def _successors(facets: list[PathFamily]) -> list[list[int]]:
    """For each facet, the increasing indices of the other facets above it.

    The order is the entrywise order on row profiles.  Bit k of
    ``at_least[c][v]`` is set when facet k has ``profile[c] >= v``, so the
    facets above facet j are the AND of one such bitset per profile entry
    of j, without comparing pairs.
    """
    _check_specs(facets)
    profiles = [f.profile for f in facets]
    at_least = []
    for column in zip(*profiles):
        bits = [0] * (max(column) + 2)
        for k, v in enumerate(column):
            bits[v] |= 1 << k
        for v in range(len(bits) - 2, -1, -1):
            bits[v] |= bits[v + 1]
        at_least.append(bits)
    succ = []
    for j, profile in enumerate(profiles):
        above = ~(1 << j)
        for bits, v in zip(at_least, profile):
            above &= bits[v]
        succ.append(list(iter_bits(above)))
    return succ


def _extension(succ: list[list[int]], pick) -> list[int]:
    """A linear extension of the relation ``succ``, one ``pick(ready)`` per step.

    ``ready`` holds the facets whose predecessors are all placed and is kept
    sorted on every insert, so ``pick`` sees the same list, and makes the same
    choices and rng draws, as if ``ready`` were sorted after every step.  The
    work is linear in facets plus comparable pairs, plus the ``insort`` moves.
    """
    indeg = [0] * len(succ)
    for ks in succ:
        for k in ks:
            indeg[k] += 1
    ready = [j for j, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    while ready:
        j = pick(ready)
        ready.remove(j)
        order.append(j)
        for k in succ[j]:
            indeg[k] -= 1
            if indeg[k] == 0:
                insort(ready, k)
    if len(order) != len(succ):
        raise ValueError("facet order inconsistency: cycle detected")
    return order


def shelling_order(facets: list[PathFamily]) -> list[PathFamily]:
    """The facets in canonical order, by sorted vertex indices.

    By the module's lemma this is a linear extension of the facet order,
    hence a shelling; `enumerate_facets` already returns it.  Facets of
    different minors and a repeated facet raise `ValueError`.
    """
    _check_specs(facets)
    return sorted(facets, key=lambda fam: fam.index_tuple)


def random_shelling_orders(
    facets: list[PathFamily], count: int, seed: int
) -> list[list[PathFamily]]:
    """Seeded random linear extensions of the facet order."""
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    rng = random.Random(seed)
    succ = _successors(facets)
    return [
        [facets[i] for i in _extension(succ, rng.choice)] for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# corner counts


def h_via_corners(facets: list[PathFamily]) -> tuple[int, ...]:
    """h-vector read off as the number of facets with each corner count."""
    if not facets:
        raise ValueError("no facets")
    d = len(facets[0])
    counts = Counter(len(fam.corners) for fam in facets)
    return tuple(counts[i] for i in range(d + 1))


def corner_spectrum(facets: list[PathFamily]) -> dict[int, PathFamily]:
    """Each corner count of a per-path non-flippable facet, mapped to its witness:
    the first such facet in list order.  On [1..r|1..r] the counts fill [r, r(m-r)]."""
    if not facets:
        raise ValueError("no facets")
    spec = facets[0].spec
    if not 1 <= spec.r <= spec.m - 1:
        raise ValueError("need 1 <= r <= m-1 and m <= n")
    witnesses: dict[int, PathFamily] = {}
    for fam in facets:
        if is_non_flippable(fam):
            witnesses.setdefault(len(fam.corners), fam)
    return witnesses


# ---------------------------------------------------------------------------
# Stanley-Reisner generators


def sr_generators(spec: MinorSpec) -> list[tuple[Point, ...]]:
    """Main-diagonal supports of the minors outside the upper order ideal of sigma.

    These are the minimal monomial generators of the initial ideal, hence
    the minimal nonfaces of the complex.  Minors of size above r+1 never
    contribute minimal generators: any of their (r+1)-subdiagonals already
    violates the order.
    """
    m, n, r = spec.m, spec.n, spec.r
    cands: list[int] = []
    for s in range(1, r + 2):
        for rows in combinations(range(1, m + 1), s):
            for cols in combinations(range(1, n + 1), s):
                geq = s <= r and all(
                    spec.rows[i] <= rows[i] and spec.cols[i] <= cols[i] for i in range(s)
                )
                if not geq:
                    cands.append(mask_of(map(spec.vertex_index, zip(rows, cols))))
    # row-major indices order a diagonal's points, and diagonals, as the points do
    return [tuple(map(spec.point_of, vertices_of(g))) for g in minimal_masks(cands)]


# ---------------------------------------------------------------------------
# bridging to simplicial complexes


def path_complex(
    spec: MinorSpec, facets: list[PathFamily] | None = None
) -> tuple[SimplicialComplex, list[int]]:
    """The simplicial complex of a minor plus a shelling order (facet indices).

    The complex stores its facets in `shelling_order`'s canonical order, so
    the shelling is 0..t-1 whatever the order of ``facets``.  Facets of
    another minor than ``spec`` raise `ValueError`.
    """
    if facets is None:
        facets = enumerate_facets(spec)
    # `shelling_order` refuses facets of another minor than the first, and repeats
    if facets and facets[0].spec != spec:
        raise ValueError("mismatched specs")
    masks = [fam.mask for fam in shelling_order(facets)]
    cx = SimplicialComplex(spec.m * spec.n, masks, labels=spec.grid_labels())
    return cx, list(range(len(cx.facets)))


def render_ascii(family: PathFamily) -> str:
    """Matrix-coordinate sketch: path letters a, b, ...; corners in upper case."""
    m, n = family.spec.m, family.spec.n
    grid = [["."] * n for _ in range(m)]
    for k, path in enumerate(family.paths):
        crn = path_corners(path)
        for (i, j) in path:
            ch = chr(ord("a") + k)
            grid[i - 1][j - 1] = ch.upper() if (i, j) in crn else ch
    return "\n".join(" ".join(row) for row in grid)
