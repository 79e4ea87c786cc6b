"""Reference functions that only the tests call.

Each one restates a result of the paper in its most direct form: the flip
sites and the flip move on one path, a facet's points, family flips against
corner-maximality, the corner-maximal generators of the minimal inside
faces, the prefix boundary test, reduced homology of a whole complex, face
membership by lookup in the face lattice, the unions of minimal nonfaces by
a union closure, minimal vertex covers by branch and bound,
inclusion-minimal and -maximal masks pair by pair in the canonical order,
the h-vector of a minor counted by corners, the unused vertices of a
complex, a facet's row profile read off its points, and the facet walk that
follows every dead end.  No pipeline stage, CLI command or demo calls them;
the library computes the same objects from shelling certificates, Hochster
walks, Berge's transversal step, a per-vertex containment index and a walk
that keeps room for the later paths, and the tests compare the two.
Keeping them here keeps `shellball` to the pipeline and the paper's
objects, and keeps each oracle apart from the code it checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from shellball.complexes import (
    SimplicialComplex,
    iter_bits,
    minimal_nonface_masks,
    vertices_of,
)
from shellball.exactrank import rank_gf2_columns, rank_int_columns
from shellball.homology import check_field
from shellball.paths import (
    MinorSpec,
    PathFamily,
    Point,
    is_corner_maximal,
    path_corners,
)


def is_face(cx: SimplicialComplex, mask: int) -> bool:
    return mask in cx.faces_by_size().get(mask.bit_count(), ())


# ---------------------------------------------------------------------------
# flips and corner-maximal facets


def flip_sites(path: tuple[Point, ...]) -> list[Point]:
    """The points v of a path whose v+(1,0) and v+(0,1) lie on it too, neither
    of them a corner."""
    free = set(path) - path_corners(path)
    return [(x, y) for x, y in path if {(x + 1, y), (x, y + 1)} <= free]


def flip(path: tuple[Point, ...], v: Point) -> tuple[Point, ...]:
    """Replace v by v+(1,1) at the same index; legal at a flip site (v, v+(1,0),
    v+(0,1) lie on the path and neither neighbour is a corner).  The corner set
    grows by exactly v+(1,1)."""
    if v not in flip_sites(path):
        raise ValueError(f"not flippable at {v}")
    k = path.index(v)
    out = path[:k] + ((v[0] + 1, v[1] + 1),) + path[k + 1 :]
    if path_corners(out) != path_corners(path) | {out[k]}:
        raise ArithmeticError(f"path flipped at {v} has corners {sorted(path_corners(out))}")
    return out


def points_of(family: PathFamily) -> frozenset[Point]:
    """The points of a facet's paths."""
    return frozenset(p for path in family.paths for p in path)


def admits_family_flip(family: PathFamily) -> bool:
    """Some path admits a flip whose new point misses the sibling paths (it is
    never on its own path, which runs v+(0,1), v, v+(1,0))."""
    points = points_of(family)
    return any(
        (x + 1, y + 1) not in points for path in family.paths for (x, y) in flip_sites(path)
    )


def canonical_generators(facets: list[PathFamily]) -> list[tuple[Point, ...]]:
    """The faces F - corners(F) of the corner-maximal facets, by size, then points.

    Corner-maximality, not per-path non-flippability, is what indexes the
    minimal inside faces: a per-path flip may be blocked by a sibling path,
    leaving the facet corner-maximal although a path of it is flippable in
    isolation.
    """
    faces = [
        tuple(sorted(points_of(f) - f.corners)) for f in facets if is_corner_maximal(f, facets)
    ]
    return sorted(faces, key=lambda face: (len(face), face))


def boundary_via_corners(facets: list[PathFamily], i: int):
    """Membership test for the boundary of the length-i shelling prefix.

    A face G of the prefix lies on the boundary iff no prefix facet F
    containing G has F - G inside the corner set of F.  Returns a predicate
    on point collections; faces outside the prefix test False.
    """
    data = [(points_of(fam), fam.corners) for fam in facets[:i]]

    def predicate(face_points) -> bool:
        fp = frozenset(face_points)
        in_prefix = False
        for pts, crn in data:
            if fp <= pts:
                in_prefix = True
                if pts - fp <= crn:
                    return False
        return in_prefix

    return predicate


# ---------------------------------------------------------------------------
# homology of a whole complex


def reduced_homology_ranks(cx: SimplicialComplex, field: int = 0) -> dict[int, int]:
    """Ranks of reduced homology in dimensions -1..dim.

    Every dimension in range is reported, zeros included.  The complex whose
    only face is the empty face has rank 1 in dimension -1; the void complex
    (no faces at all, e.g. the boundary of a sphere) has none, so it gives
    {-1: 0}.  Every face's boundary column is built, a face's row being its
    position among the faces of its own size; in dimension k the rank is
    f_k - rank d_k - rank d_{k+1}, where d_k maps the faces of size k+1 to
    those of size k.  Over GF(2) a column is a bit mask, otherwise {row: +-1}
    with the sign alternating in increasing vertex order.
    """
    char = check_field(field)
    faces = sorted(m for masks in cx.faces_by_size().values() for m in masks)
    row: dict[int, int] = {}
    groups: dict[int, list] = {}
    for m in faces:
        group = groups.setdefault(m.bit_count(), [])
        row[m] = len(group)
        rows = [row[m ^ (1 << v)] for v in iter_bits(m)]
        if char == 2:
            group.append(sum(1 << r for r in rows))
        else:
            group.append({r: (-1) ** i for i, r in enumerate(rows)})
    rank = {
        s: rank_gf2_columns(group) if char == 2 else rank_int_columns(group, char)
        for s, group in groups.items()
    }
    return {
        k: len(groups.get(k + 1, ())) - rank.get(k + 1, 0) - rank.get(k + 2, 0)
        for k in range(-1, max(groups, default=0))
    }


def nonface_unions(cx: SimplicialComplex, largest: int) -> set[int]:
    """The unions of minimal nonfaces with at most `largest` vertices, by a
    union closure: the vertex sets the Hochster walk ranks."""
    generators = [m for m in minimal_nonface_masks(cx) if m.bit_count() <= largest]
    unions = set(generators)
    for g in generators:
        unions |= {w | g for w in unions if (w | g).bit_count() <= largest}
    return unions


# ---------------------------------------------------------------------------
# minimal vertex covers


def branch_and_bound_covers(supports: list[int]) -> list[int]:
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
    return sorted(pairwise_minimal_masks(found))


# ---------------------------------------------------------------------------
# inclusion-extreme masks, pair by pair


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Size, then vertex tuples in lex order."""
    return mask.bit_count(), vertices_of(mask)


def pairwise_minimal_masks(masks) -> list[int]:
    """Inclusion-minimal members of a family of masks, in canonical order."""
    out: list[int] = []
    for m in sorted(set(masks), key=canonical_key):
        if not any(g & ~m == 0 for g in out):
            out.append(m)
    return out


def pairwise_maximal_masks(masks) -> list[int]:
    """Inclusion-maximal members of a family of masks, in canonical order."""
    masks = sorted(set(masks), key=canonical_key)
    by_size: dict[int, list[int]] = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    keep = []
    for m in masks:
        s = m.bit_count()
        if not any(m & ~g == 0 for t, group in by_size.items() if t > s for g in group):
            keep.append(m)
    return keep


# ---------------------------------------------------------------------------
# faces and facets by exhaustive walks


def unused_vertices(cx: SimplicialComplex) -> tuple[int, ...]:
    """Universe members on no facet."""
    return vertices_of(~cx.used_mask & ((1 << cx.n) - 1))


def corner_h(spec: MinorSpec) -> tuple[int, ...]:
    """h-vector of a minor's complex, counting families by corners without listing them.

    A transfer over the rows x = 1..m on the state (L_1(x), ..., L_r(x)) of
    the `paths` module docstring, a path not yet started standing at column
    n.  Row x gives path k, once started, every L_k(x) from
    max(b_k, L_{k-1}(x-1) + 1) up to L_k(x-1), and only b_k in row m.  Path k
    has a corner in row x > a_k exactly when L_k(x) < L_k(x-1), so each step
    weighs t^(new corners), and h_k is the number of families with k corners.
    """
    m, n = spec.m, spec.n
    ends = list(zip(spec.rows, spec.cols))
    counts = Counter({((n,) * spec.r, 0): 1})  # (state, corners so far) -> partial families
    for x in range(1, m + 1):
        step: Counter = Counter()
        for (prev, corners), ways in counts.items():
            choices = []
            for k, (a, b) in enumerate(ends):
                low = max(b, prev[k - 1] + 1) if k else b
                high = prev[k] if x < m else min(prev[k], b)
                choices.append(range(low, high + 1) if x >= a else (n,))
            for cur in product(*choices):
                new = sum(a < x and c < p for (a, _), c, p in zip(ends, cur, prev))
                step[cur, corners + new] += ways
        counts = step
    h: Counter = Counter()
    for (_, corners), ways in counts.items():
        h[corners] += ways
    return tuple(h[k] for k in range(spec.facet_size + 1))


def profile_of(paths) -> tuple[int, ...]:
    """Per path and row it crosses, in order, the path's smallest column in that row."""
    out: list[int] = []
    for path in paths:
        low: dict[int, int] = {}
        for x, y in path:
            low[x] = min(y, low.get(x, y))
        out.extend(low[x] for x in sorted(low))
    return tuple(out)


def walk_all_facets(spec: MinorSpec) -> list[tuple[tuple[Point, ...], ...]]:
    """All families of disjoint paths as point tuples, by a walk that also
    follows every dead end, in canonical order (by sorted vertex indices).

    Each path is walked left before down from its start, skipping only the
    points of the paths before it, so a partial family that leaves the later
    paths no room is found out only when they fail to reach their ends.
    """
    m, n, r = spec.m, spec.n, spec.r
    out: list[tuple[tuple[Point, ...], ...]] = []
    acc: list[tuple[Point, ...]] = []

    def walk(idx: int, pt: Point, occupied: set[Point], current: list[Point]) -> None:
        if pt in occupied:
            return
        current.append(pt)
        occupied.add(pt)
        if pt == (m, spec.cols[idx]):
            acc.append(tuple(current))
            if idx + 1 == r:
                out.append(tuple(acc))
            else:
                walk(idx + 1, (spec.rows[idx + 1], n), occupied, [])
            acc.pop()
        else:
            i, j = pt
            if j > spec.cols[idx]:
                walk(idx, (i, j - 1), occupied, current)
            if i < m:
                walk(idx, (i + 1, j), occupied, current)
        occupied.discard(pt)
        current.pop()

    walk(0, (spec.rows[0], n), set(), [])
    return sorted(out, key=lambda fam: sorted(spec.vertex_index(p) for path in fam for p in path))
