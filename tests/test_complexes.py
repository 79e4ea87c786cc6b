import random
import re
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_

import pytest

from shellball.complexes import (
    CUBE_VERTEX_BOUND,
    SimplicialComplex,
    _canonical_key,
    boundary_complex,
    boundary_h_from_h,
    build_complex,
    complex_from_text_with_order,
    complex_to_text,
    f_from_h,
    f_vector,
    h_vector,
    mask_of,
    minimal_inside_faces,
    minimal_masks,
    minimal_nonface_masks,
    minimal_nonfaces,
    minimal_vertex_covers,
    multiplicity,
    smallest_nonface_size,
    vector_profile,
    vertices_of,
)
from shellball.duality import alexander_dual
from shellball.paths import MinorSpec, path_complex
from shellball.polarization import power_ideal_complex
from tests.oracles import pairwise_maximal_masks, pairwise_minimal_masks, unused_vertices

# the 2x3 maximal-minor complex, facets frozen from the three path families
MINOR23 = [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
# its boundary sphere, frozen by counting which triangles lie in one facet
SPHERE23 = [
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
]


def brute_f_vector(cx):
    """Independent oracle: scan all subsets of the universe."""
    counts = {}
    for s in range(1 << cx.n):
        if s and any(s & ~f == 0 for f in cx.facets):
            counts[s.bit_count()] = counts.get(s.bit_count(), 0) + 1
    top = max(counts) if counts else 0
    return tuple(counts.get(k, 0) for k in range(1, top + 1))


def test_build_filters_duplicates_and_subsets():
    cx = build_complex([{0, 1}, {1, 2}, {0, 1}], 3)
    assert [vertices_of(f) for f in cx.facets] == [(0, 1), (1, 2)]
    cx = build_complex([{0}, {0, 1}], 2)
    assert [vertices_of(f) for f in cx.facets] == [(0, 1)]


def test_build_errors():
    with pytest.raises(ValueError, match="empty complex"):
        build_complex([], 3)
    with pytest.raises(ValueError, match="out of range"):
        build_complex([{0, 3}], 3)
    with pytest.raises(ValueError, match="capped"):
        SimplicialComplex(200, [1])


def test_simplicial_complex_input_errors():
    with pytest.raises(ValueError, match="vertex out of range"):
        SimplicialComplex(2, [4])
    with pytest.raises(ValueError, match="labels length must equal n"):
        SimplicialComplex(2, [3], ["a"])
    with pytest.raises(ValueError, match="labels must be distinct"):
        SimplicialComplex(2, [3], ["a", "a"])


def test_simplicial_complex_refuses_negative_masks():
    # a negative int has endless set bits, so no walk over its vertices would end
    for masks in ([-2, 4], [-2, 5], [3, -8], [-1]):
        with pytest.raises(ValueError, match="vertex out of range"):
            SimplicialComplex(3, masks)


def mask_families():
    """The empty family, then seeded random families with duplicates, the
    mask 0 and masks on vertex 127 among them."""
    rng = random.Random(34)
    yield []
    for _ in range(400):
        width = rng.choice((3, 6, 12, 128))
        family = [
            mask_of(rng.sample(range(width), rng.randint(0, min(width, 6))))
            for _ in range(rng.randint(1, 40))
        ]
        family += rng.choices(family, k=rng.randint(0, 5))
        if rng.random() < 0.2:
            family.append(0)
        if width == 128:
            family += [g | 1 << 127 for g in rng.choices(family, k=3)]
        yield family


def test_minimal_masks_match_the_pairwise_oracle():
    for family in mask_families():
        assert minimal_masks(family) == pairwise_minimal_masks(family), family


def test_constructor_keeps_the_pairwise_maximal_masks():
    rng = random.Random(21)
    for pure in (True, False):
        for _ in range(300):
            n = rng.choice((1, 4, 8, 128))
            sizes = [rng.randint(0, min(n, 6))] if pure else range(min(n, 6) + 1)
            masks = [
                mask_of(rng.sample(range(n), rng.choice(sizes))) for _ in range(rng.randint(1, 30))
            ]
            cx = SimplicialComplex(n, masks)
            assert cx.facets == tuple(pairwise_maximal_masks(masks)), (n, masks)


def test_canonical_order_is_size_then_lex():
    cx = build_complex([{2, 3, 4}, {0, 3}, {1, 2}], 5)
    assert [vertices_of(f) for f in cx.facets] == [(0, 3), (1, 2), (2, 3, 4)]


def test_canonical_key_matches_vertex_tuple_order():
    # masks wider than 128 bits too: sr_generators passes whole grids
    rng = random.Random(7)
    masks = [0, 1, 1 << 300, (1 << 129) | 1, (1 << 300) - 1]
    for _ in range(3000):
        width = rng.randint(1, 300)
        masks.append(rng.getrandbits(width))
        masks.append(mask_of(rng.sample(range(width), min(width, rng.randint(1, 4)))))
    old = sorted(masks, key=lambda m: (m.bit_count(), vertices_of(m)))
    assert sorted(masks, key=_canonical_key) == old


def test_f_vector_simplex_and_edges():
    assert f_vector(build_complex([{0, 1, 2}], 3)) == (3, 3, 1)
    assert f_vector(build_complex([{0, 1}, {2, 3}], 4)) == (4, 2)


def test_f_vector_matches_bruteforce_oracle():
    for facets, n in [
        (MINOR23, 6),
        ([{0, 1, 2}, {1, 2, 3}, {3, 4}], 5),
        ([{0, 2, 4}, {1, 3}, {0, 1}], 5),
    ]:
        cx = build_complex(facets, n)
        assert f_vector(cx) == brute_f_vector(cx)


def takes_cube_route(cx):
    """The rule `f_vector` counts by: 2^u <= sum(2^|F|) over the facets."""
    return 1 << cx.used_mask.bit_count() <= sum(1 << f.bit_count() for f in cx.facets)


def lattice_f_vector(cx):
    levels = cx.faces_by_size()
    return tuple(len(levels.get(k, ())) for k in range(1, max(levels, default=0) + 1))


def f_vector_cases():
    """The void and empty complexes, then random complexes with unused vertices."""
    rng = random.Random(25)
    cases = [SimplicialComplex(3, []), SimplicialComplex(0, [0]), SimplicialComplex(4, [0])]
    for pure in (True, False):
        for _ in range(200):
            n = rng.randint(1, 10)
            used = rng.sample(range(n), rng.randint(1, n))
            # a high floor leans to the cube route; a full facet would absorb the rest
            low = rng.randint(1, len(used))
            sizes = [low] if pure else range(low, max(low, len(used) - 1) + 1)
            facets = [rng.sample(used, rng.choice(sizes)) for _ in range(rng.randint(1, 12))]
            cases.append(build_complex(facets, n))
    return cases


def test_f_vector_cube_route_matches_lattice_and_brute_force():
    kinds = Counter()
    for cx in f_vector_cases() + OUTSIDE_CASES:
        # f_vector first, so that it reads no lattice cached by the oracle
        assert f_vector(cx) == lattice_f_vector(cx) == brute_f_vector(cx), cx
        if len(cx.facets) > 1:
            kinds[takes_cube_route(cx), cx.is_pure, bool(unused_vertices(cx))] += 1
    # both routes, on pure and non-pure complexes, with and without unused vertices
    assert len(kinds) == 8 and min(kinds.values()) >= 10, kinds


@pytest.mark.parametrize(
    "name, cube",
    [
        ("minor 4 5 2", True),
        ("minor 3 6 2", True),
        ("minor 4 6 1", False),
        ("minor 4 5 1", False),
        ("minor 3 6 1", False),
        ("minor 3 4 1", False),
        ("minor 3 4 2", True),
        ("minor 3 5 1", False),
        ("polar 3 3", True),
        ("polar 4 3", True),
        ("polar 5 2", False),
    ],
)
def test_f_vector_routes_agree_on_workload_boundaries(name, cube):
    # every ball that the benchmark's check workloads run
    kind, *args = name.split()
    args = map(int, args)
    ball = path_complex(MinorSpec.diagonal(*args)) if kind == "minor" else power_ideal_complex(*args)
    boundary = boundary_complex(ball[0])
    assert takes_cube_route(boundary) is cube
    got = f_vector(boundary)
    # the cube route leaves no lattice behind; the other one caches it
    assert (boundary._faces is None) is cube
    assert got == lattice_f_vector(boundary)


def union_f_vector(cx):
    """Oracle: face counts by inclusion-exclusion over the facets' subsets."""
    counts = [0] * (cx.dim + 2)
    for r in range(1, len(cx.facets) + 1):
        for group in combinations(cx.facets, r):
            common = reduce(and_, group).bit_count()
            for k in range(len(counts)):
                counts[k] += (-1) ** (r + 1) * comb(common, k)
    return tuple(counts[1:])


def test_f_vector_cube_route_past_one_chunk():
    # 17-20 used vertices: the cube spans 2-16 chunks of 2^16 positions.  Two
    # facets missing one used vertex each put it on the cube route, and small
    # facets through both missing vertices leave faces only one chunk holds.
    rng = random.Random(3)
    for u in (17, 18, 19, 20, 20):
        used = rng.sample(range(u + 3), u)
        a, b = used[:2]
        facets = [set(used) - {a}, set(used) - {b}]
        facets += [{a, b, *rng.sample(used[2:], rng.randint(0, 3))} for _ in range(3)]
        cx = build_complex(facets, u + 3)
        assert takes_cube_route(cx) and not cx.is_pure
        assert f_vector(cx) == union_f_vector(cx)


def spy_bytearrays(monkeypatch) -> list:
    """Record the size of every bytearray that `complexes` allocates (the vertex cube)."""
    made = []

    def spy(size):
        made.append(size)
        return bytearray(size)

    monkeypatch.setattr("shellball.complexes.bytearray", spy, raising=False)
    return made


def test_f_vector_takes_no_cube_past_the_vertex_bound(monkeypatch):
    made = spy_bytearrays(monkeypatch)
    u = CUBE_VERTEX_BOUND + 1
    simplex = SimplicialComplex(u, [(1 << u) - 1])
    assert takes_cube_route(simplex)
    with pytest.raises(ValueError, match=f"^{u} used vertices, past the count bound 30$"):
        f_vector(simplex)
    # a sparse complex past the bound is counted off its lattice
    cycle = build_complex([{v, (v + 1) % 40} for v in range(40)], 40)
    assert f_vector(cycle) == (40, 40)
    assert made == []
    simplex = SimplicialComplex(16, [(1 << 16) - 1])
    assert f_vector(simplex) == tuple(comb(16, k) for k in range(1, 17))
    assert made == [1 << 13]  # one chunk of 2^16 bits


def test_h_vector_simplex():
    assert h_vector((3, 3, 1)) == (1, 0, 0, 0)


def test_h_vector_minor23():
    cx = build_complex(MINOR23, 6)
    assert f_vector(cx) == (6, 12, 10, 3)
    assert h_vector((6, 12, 10, 3)) == (1, 2, 0, 0, 0)


def test_f_h_round_trip():
    for f in [(3, 3, 1), (6, 12, 10, 3), (4, 4), (5,)]:
        assert f_from_h(h_vector(f)) == f


def test_minimal_nonfaces_square():
    cx = build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4)
    assert minimal_nonfaces(cx) == [(0, 2), (1, 3)]
    assert smallest_nonface_size(f_vector(cx)) == 2


def test_minimal_nonfaces_full_simplex():
    cx = build_complex([{0, 1, 2}], 3)
    assert minimal_nonfaces(cx) == []
    assert smallest_nonface_size(f_vector(cx)) is None


def test_smallest_nonface_size_reads_f_vector():
    assert smallest_nonface_size(()) is None
    assert smallest_nonface_size((1,)) is None  # a point
    assert smallest_nonface_size((3, 3, 1)) is None  # a triangle
    assert smallest_nonface_size((5,)) == 2  # five points
    assert smallest_nonface_size((4, 4)) == 2  # the square
    assert smallest_nonface_size((4, 6, 4)) == 4  # the tetrahedron's boundary
    assert smallest_nonface_size((6, 12, 10, 3)) == 2  # MINOR23


def test_minimal_nonfaces_minor23():
    cx = build_complex(MINOR23, 6)
    assert minimal_nonfaces(cx) == [(0, 4), (0, 5), (1, 5)]


def test_minimal_nonfaces_bruteforce_oracle():
    # oracle: scan every subset, keep nonfaces whose proper subsets are faces
    cx = build_complex([{0, 1, 2}, {1, 2, 3}, {3, 4}], 5)
    faces = {s for s in range(1 << cx.n) if any(s & ~f == 0 for f in cx.facets)}
    expected = sorted(
        vertices_of(s)
        for s in range(1, 1 << cx.n)
        if s & ~cx.used_mask == 0
        and s not in faces
        and all((s ^ (1 << v)) in faces for v in vertices_of(s))
    )
    assert sorted(minimal_nonfaces(cx)) == expected


def seen_set_minimal_outside(levels, used, within=None):
    """Oracle: the minimal sets outside ``levels``, found by extending every
    (k-1)-set by every used vertex and dropping repeats through a set."""
    out = []
    k = 1
    while base := levels.get(k - 1):
        cur = levels.get(k, ())
        keep = within.get(k, ()) if within is not None else None
        seen = set()
        for f in base:
            for v in vertices_of(used & ~f):
                g = f | 1 << v
                if g in seen:
                    continue
                seen.add(g)
                if g in cur or (keep is not None and g not in keep):
                    continue
                if all((g ^ (1 << w)) in base for w in vertices_of(g)):
                    out.append(g)
        k += 1
    return out


def oracle_balls():
    """Minors, a non-diagonal one among them, and polars."""
    specs = [MinorSpec.diagonal(*p) for p in [(2, 3, 1), (3, 4, 1), (3, 4, 2), (3, 5, 2)]]
    specs.append(MinorSpec(3, 4, (1, 3), (2, 4)))
    balls = [path_complex(spec)[0] for spec in specs]
    return balls + [power_ideal_complex(*p)[0] for p in [(2, 2), (3, 2), (2, 3), (3, 3)]]


def outside_oracle_cases():
    """Random pure and non-pure complexes, plus the balls and their boundaries."""
    rng = random.Random(11)
    cases = [SimplicialComplex(3, []), SimplicialComplex(3, [0])]
    for pure in (True, False):
        for _ in range(150):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            facets = [
                rng.sample(range(n), k if pure else rng.randint(1, n))
                for _ in range(rng.randint(1, 6))
            ]
            cases.append(build_complex(facets, n))
    return cases + ORACLE_BALLS + [boundary_complex(cx) for cx in ORACLE_BALLS]


ORACLE_BALLS = oracle_balls()
OUTSIDE_CASES = outside_oracle_cases()


def test_minimal_nonfaces_match_seen_set_oracle():
    for cx in OUTSIDE_CASES:
        found = seen_set_minimal_outside(cx.faces_by_size(), cx.used_mask)
        assert minimal_nonface_masks(cx) == sorted(found, key=_canonical_key), cx
        if cx.facets:
            # over the whole universe each unused vertex is a singleton
            # nonface, and the nonfaces are the covers of the facet complements
            full = (1 << cx.n) - 1
            found += [1 << v for v in unused_vertices(cx)]
            assert minimal_vertex_covers([full ^ f for f in cx.facets]) == sorted(found), cx


def test_alexander_dual_matches_seen_set_oracle():
    for cx in OUTSIDE_CASES:
        found = seen_set_minimal_outside(cx.faces_by_size(), cx.used_mask)
        found += [1 << v for v in unused_vertices(cx)]
        if not cx.facets:
            # the void complex has no empty face, so the lattice walk finds no
            # nonface; but the empty set is not a face, so it is the one
            # minimal nonface, and the dual is the full simplex
            found.append(0)
        if not found:
            with pytest.raises(ValueError, match="zero ideal"):
                alexander_dual(cx)
            continue
        full = (1 << cx.n) - 1
        assert alexander_dual(cx) == SimplicialComplex(cx.n, [full ^ g for g in found]), cx


def test_minimal_inside_faces_match_seen_set_oracle():
    checked = 0
    for cx in OUTSIDE_CASES:
        try:
            bd = boundary_complex(cx)
        except ValueError:
            continue
        if not bd.facets:
            continue
        found = seen_set_minimal_outside(bd.faces_by_size(), cx.used_mask, cx.faces_by_size())
        expected = [vertices_of(g) for g in sorted(found, key=_canonical_key)]
        assert minimal_inside_faces(cx) == expected, cx
        checked += 1
    assert checked >= 50


def test_minimal_nonfaces_of_larger_boundaries_match_seen_set_oracle():
    # 16 and 18 used vertices: many covers are kept when a support is added
    for cx in (power_ideal_complex(4, 4)[0], path_complex(MinorSpec.diagonal(3, 6, 2))[0]):
        bd = boundary_complex(cx)
        found = seen_set_minimal_outside(bd.faces_by_size(), bd.used_mask)
        assert minimal_nonface_masks(bd) == sorted(found, key=_canonical_key), cx


def test_boundary_of_edge():
    cx = build_complex([{0, 1}], 2)
    bd = boundary_complex(cx)
    assert [vertices_of(f) for f in bd.facets] == [(0,), (1,)]


def test_boundary_minor23_is_frozen_sphere():
    cx = build_complex(MINOR23, 6)
    bd = boundary_complex(cx)
    assert [vertices_of(f) for f in bd.facets] == SPHERE23
    assert multiplicity(bd) == 8


def test_boundary_errors():
    with pytest.raises(ValueError, match="not pure"):
        boundary_complex(build_complex([{0, 1, 2}, {3, 4}], 5))
    # three triangles on a common edge
    with pytest.raises(ValueError, match="pseudomanifold"):
        boundary_complex(build_complex([{0, 1, 2}, {0, 1, 3}, {0, 1, 4}], 5))


def test_minimal_inside_faces_edge():
    cx = build_complex([{0, 1}], 2)
    assert minimal_inside_faces(cx) == [(0, 1)]


def test_minimal_inside_faces_minor23():
    cx = build_complex(MINOR23, 6)
    assert minimal_inside_faces(cx) == [(1, 2, 3), (2, 3, 4)]


def test_minimal_inside_faces_sphere_errors():
    sphere = build_complex(SPHERE23, 6)
    with pytest.raises(ValueError, match="no boundary"):
        minimal_inside_faces(sphere)


def test_multiplicity():
    assert multiplicity(build_complex([{0, 1, 2}], 3)) == 1
    assert multiplicity(build_complex(MINOR23, 6)) == 3
    with pytest.raises(ValueError, match="not pure"):
        multiplicity(build_complex([{0, 1, 2}, {3, 4}], 5))


def test_boundary_h_from_h():
    assert boundary_h_from_h((1, 0, 0, 0)) == (1, 1, 1)
    assert boundary_h_from_h((1, 2, 0, 0, 0)) == (1, 3, 3, 1)


def test_boundary_h_matches_direct_boundary_on_minor23():
    cx = build_complex(MINOR23, 6)
    bd = boundary_complex(cx)
    direct = h_vector(f_vector(bd))
    assert boundary_h_from_h(h_vector(f_vector(cx))) == direct == (1, 3, 3, 1)


def test_vector_profile():
    assert vector_profile((1, 3, 3, 1)) == (True, True)
    assert vector_profile((1, 2, 1, 2, 1)) == (True, False)
    assert vector_profile((1, 2, 0, 0, 0)) == (False, True)
    assert vector_profile((1, 1, 1)) == (True, True)


def test_nonface_monotonicity_spot_check():
    # gluing a minimal nonface onto the complex removes it and adds only
    # strictly larger minimal nonfaces
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 6)
        k = rng.randint(2, 3)
        facets = {tuple(sorted(rng.sample(range(n), k))) for _ in range(rng.randint(2, 5))}
        cx = build_complex(list(facets), n)
        nf = minimal_nonfaces(cx)
        if not nf:
            continue
        target = rng.choice(nf)
        bigger = build_complex([vertices_of(f) for f in cx.facets] + [target], n)
        before = {mask_of(t) for t in nf}
        after = {mask_of(t) for t in minimal_nonfaces(bigger)}
        tm = mask_of(target)
        assert tm not in after
        for new in after - before:
            assert new & ~tm != 0 and tm & ~new == 0  # strict superset of target
        size = len(target)
        assert sum(1 for a in after if a.bit_count() <= size) == sum(
            1 for b in before if b.bit_count() <= size
        ) - 1


def test_text_round_trip():
    cx = build_complex(MINOR23, 6, labels=[f"v{i}" for i in range(6)])
    text = complex_to_text(cx, [2, 0, 1])
    assert text.splitlines() == ["n=6", "labels=v0,v1,v2,v3,v4,v5", "2 3 4 5", "0 1 2 3", "1 2 3 4"]
    back, order = complex_from_text_with_order(text)
    assert back == cx and back.labels == cx.labels and order == [2, 0, 1]


@pytest.mark.parametrize(
    "labels, bad",
    [
        (("a,b", "c", "d"), "a,b"),
        (("a", "b\nc", "d"), "b\nc"),
        (("a", "b\rc", "d"), "b\rc"),
        ((" a", "b", "c "), " a"),
        (("a", "b", "c "), "c "),
    ],
    ids=["comma", "line feed", "carriage return", "leading space", "trailing space"],
)
def test_text_writer_refuses_labels_it_cannot_read_back(labels, bad):
    # the reader would reject each of these files or change its labels
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r}")):
        complex_to_text(build_complex([{0, 1, 2}], 3, labels), [0])


@pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 3], [0, 1, 2, 0]])
def test_text_writer_refuses_an_order_that_is_not_a_permutation(order):
    with pytest.raises(ValueError, match="not a permutation"):
        complex_to_text(build_complex(MINOR23, 6), order)


def test_text_reader_tolerates_order_and_tracks_it():
    text = "n=4\n2 3\n0 1\n"
    cx, order = complex_from_text_with_order(text)
    assert [vertices_of(f) for f in cx.facets] == [(0, 1), (2, 3)]
    assert order == [1, 0]


def test_text_reader_order_skips_duplicate_and_absorbed_lines():
    # canonical facets: {0,1} -> 0, {0,4} -> 1, {2,3,4} -> 2; {2,3} is absorbed
    text = "n=5\n2 3 4\n0 1\n2 3\n0 1\n0 4\n2 3 4\n"
    cx, order = complex_from_text_with_order(text)
    assert [vertices_of(f) for f in cx.facets] == [(0, 1), (0, 4), (2, 3, 4)]
    assert order == [2, 0, 1]


@pytest.mark.parametrize(
    "cx, message",
    [
        (SimplicialComplex(3, []), "void complex"),
        (build_complex([set()], 3), "no line for an empty facet"),
    ],
    ids=["void", "only the empty face"],
)
def test_text_writer_refuses_complexes_without_a_facet_line(cx, message):
    with pytest.raises(ValueError, match=message):
        complex_to_text(cx, range(len(cx.facets)))


def test_text_reader_rejects_garbage():
    with pytest.raises(ValueError):
        complex_from_text_with_order("facets only\n0 1\n")
    # a repeated vertex is refused, not merged into the facet 0 1
    with pytest.raises(ValueError, match=r"^line 2: expected distinct vertex indices, got '0 0 1'$"):
        complex_from_text_with_order("n=3\n0 0 1\n")
