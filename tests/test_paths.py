import random
from fractions import Fraction
from math import comb

import pytest

from shellball.complexes import (
    boundary_complex,
    f_vector,
    h_vector,
    minimal_inside_faces,
    minimal_nonfaces,
    multiplicity,
    vertices_of,
)
from shellball.paths import (
    MinorSpec,
    PathFamily,
    admits_family_flip,
    boundary_via_corners,
    canonical_generators,
    construct_nonflippable,
    corner_spectrum,
    enumerate_facets,
    facet_leq,
    flip,
    h_via_corners,
    is_corner_maximal,
    is_non_flippable,
    nonflippable_discrepancies,
    path_complex,
    path_corners,
    random_shelling_orders,
    render_ascii,
    shelling_order,
    sr_generators,
)
from shellball.shelling import certified_h, certified_inside_faces, verify_ball, verify_shelling

FIGURE_CORNERS = {(2, 2), (3, 4), (4, 3), (4, 6), (5, 5), (6, 4)}

SMALL_SPECS = [(2, 3, 1), (3, 4, 1), (3, 4, 2), (3, 5, 1), (4, 5, 2)]


def lgv_count(spec: MinorSpec) -> int:
    """Independent oracle: determinant of the path-count matrix."""
    r = spec.r
    mat = [
        [
            Fraction(
                comb(
                    (spec.m - spec.rows[i]) + (spec.n - spec.cols[j]),
                    spec.m - spec.rows[i],
                )
            )
            for j in range(r)
        ]
        for i in range(r)
    ]
    # fraction-free expansion is overkill at r <= 3; plain elimination
    det = Fraction(1)
    for c in range(r):
        piv = next((k for k in range(c, r) if mat[k][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for k in range(c + 1, r):
            factor = mat[k][c] / mat[c][c]
            for j in range(c, r):
                mat[k][j] -= factor * mat[c][j]
    assert det.denominator == 1
    return int(det)


def test_minor_spec_validation():
    with pytest.raises(ValueError):
        MinorSpec(3, 2, (1,), (1,))
    with pytest.raises(ValueError):
        MinorSpec(3, 4, (2, 1), (1, 2))
    with pytest.raises(ValueError):
        MinorSpec.diagonal(3, 4, 0)
    spec = MinorSpec.parse("m=3 n=4 sigma=1,2|1,3")
    assert spec.rows == (1, 2) and spec.cols == (1, 3)
    assert MinorSpec.parse("m=2 n=3 r=1") == MinorSpec.diagonal(2, 3, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("m=3 n=4 sigma=a|b", "expected sigma=<a1,..|b1,..>, got sigma=a|b"),
        ("m=3 n=4 sigma=|", "expected sigma=<a1,..|b1,..>, got sigma=|"),
        ("m=3 n=4 sigma=1;2|1,3", "expected sigma=<a1,..|b1,..>, got sigma=1;2|1,3"),
        ("m=3 n=4 sigma=1,2", "expected sigma=<a1,..|b1,..>, got sigma=1,2"),
        ("m=3 n=4", "missing parameter r=<int>"),
        ("n=4 r=1", "missing parameter m=<int>"),
        ("m=3 r=1", "missing parameter n=<int>"),
    ],
)
def test_minor_spec_parse_names_malformed_input(text, message):
    with pytest.raises(ValueError) as info:
        MinorSpec.parse(text)
    assert str(info.value) == message


def test_enumerate_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    assert [f.index_tuple for f in fams] == [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]


def test_enumerate_2x2():
    fams = enumerate_facets(MinorSpec.diagonal(2, 2, 1))
    assert len(fams) == 2


def test_enumerate_3x3_r2():
    spec = MinorSpec.diagonal(3, 3, 2)
    fams = enumerate_facets(spec)
    assert len(fams) == 3 == lgv_count(spec)
    cx, _ = path_complex(spec, fams)
    assert multiplicity(cx) == 3


@pytest.mark.parametrize("m,n,r", SMALL_SPECS + [(6, 7, 3)])
def test_facet_counts_match_lgv_oracle(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    assert len(fams) == lgv_count(spec)
    assert all(len(f) == spec.facet_size for f in fams)


def test_facet_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_facets(MinorSpec.diagonal(6, 7, 3), max_facets=100)


def test_corners_of_staircase_and_bend():
    assert path_corners(((1, 3), (1, 2), (1, 1), (2, 1))) == frozenset()
    assert path_corners(((1, 3), (1, 2), (2, 2), (2, 1))) == {(2, 2)}


def test_figure_construction_r_corners():
    fam = construct_nonflippable(6, 7, 3, 3)
    assert fam.corners == {(2, 2), (3, 3), (4, 4)}


def test_figure_construction_t6():
    fam = construct_nonflippable(6, 7, 3, 6)
    assert fam.corners == FIGURE_CORNERS
    assert is_non_flippable(fam)


def test_flip_on_minor23():
    stair = ((1, 3), (1, 2), (1, 1), (2, 1))
    flipped = flip(stair, (1, 1))
    assert flipped == ((1, 3), (1, 2), (2, 2), (2, 1))
    with pytest.raises(ValueError, match="not flippable"):
        flip(flipped, (1, 2))


def test_internal_checks_raise(monkeypatch):
    # the checks are raised errors, not asserts, so `python -O` keeps them
    import shellball.paths as paths

    monkeypatch.setattr(paths, "path_corners", lambda path: frozenset())
    with pytest.raises(ArithmeticError, match="corner set"):
        flip(((1, 3), (1, 2), (1, 1), (2, 1)), (1, 1))
    with pytest.raises(ArithmeticError, match="has corners"):
        construct_nonflippable(6, 7, 3, 3)


def test_flip_grows_corners_everywhere():
    # every path flip on every facet strictly enlarges the corner set
    for m, n, r in SMALL_SPECS:
        for fam in enumerate_facets(MinorSpec.diagonal(m, n, r)):
            for path in fam.paths:
                pts = set(path)
                crn = path_corners(path)
                for v in path:
                    down, right = (v[0] + 1, v[1]), (v[0], v[1] + 1)
                    if down in pts and right in pts and down not in crn and right not in crn:
                        assert path_corners(flip(path, v)) > crn


def test_non_flippable_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    assert [is_non_flippable(f) for f in fams] == [False, True, True]


def test_corner_maximality_vs_pathwise():
    # they agree except where a flip collides with a sibling path; the
    # known smallest case is one facet of the 3x4, r=2 complex
    fams = enumerate_facets(MinorSpec.diagonal(3, 4, 2))
    disc = nonflippable_discrepancies(fams)
    assert len(disc) == 1
    fam = disc[0]
    assert fam.corners == {(2, 3), (3, 4)}
    assert is_corner_maximal(fam, fams) and not is_non_flippable(fam)
    for m, n, r in SMALL_SPECS:
        fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
        for f in fams:
            assert is_corner_maximal(f, fams) == (not admits_family_flip(f))


def test_facet_leq_basics():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    stair, f1, f2 = fams
    assert facet_leq(stair, stair)
    assert facet_leq(stair, f1) and facet_leq(stair, f2)
    assert not facet_leq(f1, stair)
    with pytest.raises(ValueError, match="mismatched"):
        facet_leq(stair, enumerate_facets(MinorSpec.diagonal(2, 2, 1))[0])


def test_facet_leq_is_partial_order_with_incomparable_pairs():
    fams = enumerate_facets(MinorSpec.diagonal(3, 4, 1))
    incomparable = 0
    for a in fams:
        for b in fams:
            ab, ba = facet_leq(a, b), facet_leq(b, a)
            if ab and ba:
                assert a is b or a.mask == b.mask
            if not ab and not ba:
                incomparable += 1
            for c in fams:
                if ab and facet_leq(b, c):
                    assert facet_leq(a, c)
    assert incomparable > 0


def test_shelling_order_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    ordered = shelling_order(fams)
    assert [f.index_tuple for f in ordered] == [
        (0, 1, 2, 3),
        (1, 2, 3, 4),
        (2, 3, 4, 5),
    ]


@pytest.mark.parametrize("m,n,r", SMALL_SPECS)
def test_shelling_order_passes_and_respects_partial_order(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    ordered = shelling_order(fams)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            assert not (facet_leq(b, a) and b.mask != a.mask)
    cx, order = path_complex(spec, fams)
    assert verify_shelling(cx, order).ok
    assert verify_ball(cx, order).ok


def test_random_extensions_pass():
    spec = MinorSpec.diagonal(3, 4, 2)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    pos = {mask: k for k, mask in enumerate(cx.facets)}
    for ordered in random_shelling_orders(fams, 10, seed=11):
        order = [pos[f.mask] for f in ordered]
        assert verify_shelling(cx, order).ok


# Oracle for the facet order: point-pair dominance, a dense `less` matrix
# with an antisymmetry sweep, and the topological sort over its rows.


def pointwise_facet_leq(f1, f2):
    for c, d in zip(f1.paths, f2.paths):
        for (x, y) in d:
            if not any(u <= x and v <= y for (u, v) in c):
                return False
    return True


def less_matrix(facets):
    t = len(facets)
    less = [
        [i != j and pointwise_facet_leq(facets[i], facets[j]) for j in range(t)] for i in range(t)
    ]
    for i in range(t):
        for j in range(i + 1, t):
            if less[i][j] and less[j][i]:
                raise ValueError("facet order inconsistency: antisymmetry violated")
    return less


def matrix_extension(less, pick):
    t = len(less)
    indeg = [sum(less[i][j] for i in range(t)) for j in range(t)]
    ready = sorted(j for j in range(t) if indeg[j] == 0)
    order = []
    while ready:
        j = pick(ready)
        ready.remove(j)
        order.append(j)
        for k in range(t):
            if less[j][k]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    ready.append(k)
        ready.sort()
    if len(order) != t:
        raise ValueError("facet order inconsistency: cycle detected")
    return order


ORDER_SPECS = [f"m={m} n={n} r={r}" for m, n, r in SMALL_SPECS] + [
    "m=3 n=5 sigma=2|3",
    "m=4 n=5 sigma=1,2|2,4",
    "m=4 n=5 sigma=2,3|1,4",
    "m=4 n=4 sigma=1,2,4|1,3,4",
]


@pytest.mark.parametrize("text", ORDER_SPECS)
def test_facet_leq_matches_pointwise_oracle(text):
    fams = enumerate_facets(MinorSpec.parse(text))
    for a in fams:
        for b in fams:
            assert facet_leq(a, b) == pointwise_facet_leq(a, b)


@pytest.mark.parametrize("text", ORDER_SPECS)
def test_distinct_facets_have_distinct_profiles(text):
    spec = MinorSpec.parse(text)
    fams = enumerate_facets(spec)
    assert len({fam.profile for fam in fams}) == len(fams)
    for fam in fams:
        # the profile takes row minima, so it ignores how a path stores its points
        shuffled = PathFamily(spec, tuple(tuple(reversed(path)) for path in fam.paths))
        assert shuffled.profile == fam.profile


@pytest.mark.parametrize("text", ORDER_SPECS + ["m=5 n=7 r=1"])
def test_orders_match_matrix_oracle(text):
    fams = enumerate_facets(MinorSpec.parse(text))
    less = less_matrix(fams)
    assert shelling_order(fams) == [fams[i] for i in matrix_extension(less, lambda ready: ready[0])]
    for seed in (0, 1, 7):
        rng = random.Random(seed)
        expected = [[fams[i] for i in matrix_extension(less, rng.choice)] for _ in range(3)]
        assert random_shelling_orders(fams, 3, seed) == expected


def test_repeated_facet_is_a_cycle():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    with pytest.raises(ValueError, match="cycle detected"):
        shelling_order(fams + fams[:1])


def test_canonical_generators_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    gens = canonical_generators(fams)
    assert [(face, deg) for face, deg in gens] == [
        (((1, 2), (1, 3), (2, 1)), 3),
        (((1, 3), (2, 1), (2, 2)), 3),
    ]


@pytest.mark.parametrize("m,n,r", SMALL_SPECS)
def test_canonical_generators_match_inside_faces(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    gens = sorted(
        tuple(sorted(spec.vertex_index(p) for p in face))
        for face, _ in canonical_generators(fams)
    )
    assert gens == sorted(tuple(g) for g in minimal_inside_faces(cx))


@pytest.mark.parametrize("seed", [None, 5, 17])
@pytest.mark.parametrize("m,n,r", SMALL_SPECS + [(2, 5, 1), (4, 6, 1)])
def test_certificate_restriction_faces_are_corner_sets(m, n, r, seed):
    # criterion 9c step by step: the vertices whose removal lands in an
    # earlier facet are exactly the corners, so the certificate readers
    # agree with the corner-count h-vector and the canonical generators
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    cx, order = path_complex(spec, fams)
    if seed is not None:
        pos = {mask: k for k, mask in enumerate(cx.facets)}
        (ordered,) = random_shelling_orders(fams, 1, seed=seed)
        order = [pos[fam.mask] for fam in ordered]
    by_mask = {fam.mask: fam for fam in fams}
    cert = verify_ball(cx, order)
    assert cert.ok
    restrictions = [0]
    for step in cert.shelling.steps:
        fi = cx.facets[step.facet_index]
        restrictions.append(sum(fi ^ g.ridge for g in step.glued))
    for k, rest in zip(order, restrictions):
        fam = by_mask[cx.facets[k]]
        assert rest == sum(1 << spec.vertex_index(p) for p in fam.corners)
    assert certified_h(cx, cert.shelling) == h_via_corners(fams)
    gens = sorted(
        tuple(sorted(spec.vertex_index(p) for p in face))
        for face, _ in canonical_generators(fams)
    )
    assert sorted(certified_inside_faces(cx, cert)) == gens


@pytest.mark.parametrize(
    "m,n,r,expected",
    [(2, 3, 1, {1}), (4, 5, 2, {2, 3, 4}), (3, 4, 1, {1, 2})],
)
def test_corner_spectrum(m, n, r, expected):
    assert corner_spectrum(m, n, r) == expected == set(range(r, r * (m - r) + 1))


def test_construct_nonflippable_whole_range():
    for m, n, r in [(4, 5, 2), (6, 7, 3)]:
        for t in range(r, r * (m - r) + 1):
            fam = construct_nonflippable(m, n, r, t)
            assert fam.corner_count == t and is_non_flippable(fam)
    with pytest.raises(ValueError, match="range"):
        construct_nonflippable(4, 5, 2, 5)
    with pytest.raises(ValueError, match="range"):
        construct_nonflippable(4, 5, 2, 1)


@pytest.mark.parametrize("m,n,r", [(2, 3, 1), (3, 4, 1), (3, 4, 2)])
def test_h_via_corners_equals_transform(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    f = f_vector(cx)
    assert h_via_corners(fams) == h_vector(f, len(f))


def test_h_via_corners_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    assert h_via_corners(fams) == (1, 2, 0, 0, 0)


def test_corner_counts_capped_by_spectrum_top():
    # no facet at all carries more than r(m-r) corners, so the h-vector
    # vanishes beyond that index
    for m, n, r in SMALL_SPECS:
        fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
        top = r * (m - r)
        assert max(f.corner_count for f in fams) <= top
        h = h_via_corners(fams)
        assert all(x == 0 for x in h[top + 1 :])


def test_sr_generators():
    assert sr_generators(MinorSpec.diagonal(2, 3, 1)) == [
        ((1, 1), (2, 2)),
        ((1, 1), (2, 3)),
        ((1, 2), (2, 3)),
    ]
    assert len(sr_generators(MinorSpec.diagonal(3, 4, 2))) == 4
    # sigma of full size: zero ideal
    assert sr_generators(MinorSpec.diagonal(3, 4, 3)) == []


@pytest.mark.parametrize("m,n,r", SMALL_SPECS)
def test_sr_generators_are_the_minimal_nonfaces(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    cx, _ = path_complex(spec)
    expected = sorted(
        tuple(sorted(spec.vertex_index(p) for p in diag))
        for diag in sr_generators(spec)
    )
    assert expected == sorted(tuple(nf) for nf in minimal_nonfaces(cx))


def test_sr_generators_general_sigma():
    # a non-diagonal minor picks up small generators from index violations
    spec = MinorSpec(2, 3, (2,), (2,))
    gens = sr_generators(spec)
    assert ((1, 1),) in gens  # the 1x1 minor [1|1] is not >= [2|2]


@pytest.mark.parametrize("m,n,r", [(2, 3, 1), (3, 4, 2)])
def test_boundary_via_corners_matches_direct(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    ordered = shelling_order(fams)
    for i in range(1, len(ordered) + 1):
        prefix_cx, _ = path_complex(spec, ordered[:i])
        bd = boundary_complex(prefix_cx)
        pred = boundary_via_corners(ordered, i)
        for size, masks in prefix_cx.faces_by_size().items():
            if size == 0:
                continue
            for mask in masks:
                pts = [spec.point_of(v) for v in vertices_of(mask)]
                assert pred(pts) == bd.is_face(mask)


def test_dropped_corner_lands_in_unique_earlier_facet():
    # within the shelling, dropping a corner lands in exactly one earlier
    # facet and dropping a non-corner lands in none
    for m, n, r in SMALL_SPECS:
        spec = MinorSpec.diagonal(m, n, r)
        ordered = shelling_order(enumerate_facets(spec))
        for k, fam in enumerate(ordered):
            for v in sorted(fam.points):
                ridge = fam.points - {v}
                containing = [
                    j for j in range(k) if ridge <= ordered[j].points
                ]
                if v in fam.corners:
                    assert len(containing) == 1
                else:
                    assert not containing


def test_core_containment_implies_corner_containment():
    # F'-corners(F') subset of F-corners(F) forces corners(F) subset of
    # corners(F'), for every facet pair; this is the direction that makes
    # corner-maximal facets index the minimal inside faces
    for m, n, r in SMALL_SPECS:
        fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
        for a in fams:
            for b in fams:
                if (b.points - b.corners) <= (a.points - a.corners):
                    assert a.corners <= b.corners


def test_corner_containment_does_not_imply_core_containment():
    # the converse is false, already on the 2x3 grid: the staircase has no
    # corners, so its corner set sits inside every other facet's, yet the
    # other cores are not subsets of the staircase
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    stair, _, f2 = fams
    assert stair.corners <= f2.corners
    assert not (f2.points - f2.corners) <= (stair.points - stair.corners)
    # and with nonempty corner sets on both sides, on the 3x4 grid
    fams = enumerate_facets(MinorSpec.diagonal(3, 4, 1))
    witnesses = [
        (a, b)
        for a in fams
        for b in fams
        if a.corners and a.corners < b.corners
        and not (b.points - b.corners) <= (a.points - a.corners)
    ]
    assert witnesses


def test_render_ascii():
    fam = enumerate_facets(MinorSpec.diagonal(2, 3, 1))[1]
    art = render_ascii(fam)
    assert art.splitlines() == [". a a", "a A ."]


def test_path_complex_labels():
    spec = MinorSpec.diagonal(2, 3, 1)
    cx, _ = path_complex(spec)
    assert cx.labels[spec.vertex_index((1, 1))] == "X_1_1"
    assert cx.labels[spec.vertex_index((2, 3))] == "X_2_3"
