import random
from itertools import combinations
from math import comb

import pytest

from shellball import duality
from shellball.cli import main
from shellball.complexes import (
    SimplicialComplex,
    boundary_complex,
    build_complex,
    mask_of,
    minimal_inside_faces,
    minimal_nonface_masks,
    minimal_nonfaces,
    minimal_vertex_covers,
    vertices_of,
)
from shellball.duality import alexander_dual, dual_matrix, verify_dual_theorem
from shellball.paths import MinorSpec, enumerate_facets, path_complex, sr_generators
from shellball.polarization import power_ideal_complex
from shellball.shelling import certified_inside_faces, verify_ball
from tests.oracles import branch_and_bound_covers, unused_vertices
from tests.test_bounds import spy_lattices
from tests.test_complexes import MINOR23


def test_dual_of_square_is_two_edges():
    cx = build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4)
    dual = alexander_dual(cx)
    assert [vertices_of(f) for f in dual.facets] == [(0, 2), (1, 3)]


def test_dual_full_simplex_errors():
    with pytest.raises(ValueError, match="zero ideal"):
        alexander_dual(build_complex([{0, 1, 2}], 3))


def test_dual_of_void_is_full_simplex():
    # the empty set is the void complex's one minimal nonface
    assert alexander_dual(SimplicialComplex(3, [])) == SimplicialComplex(3, [0b111])


def test_dual_generators_are_vertex_covers_minor23():
    cx = build_complex(MINOR23, 6)
    dual = alexander_dual(cx)
    gens = sorted(vertices_of(m) for m in minimal_nonface_masks(dual))
    assert gens == [(0, 1), (0, 5), (4, 5)]
    supports = minimal_nonface_masks(cx)
    covers = sorted(
        vertices_of(c) for c in minimal_vertex_covers(supports)
    )
    assert gens == covers


def dual_instances():
    yield build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4)
    yield build_complex(MINOR23, 6)
    for m, n, r in [(3, 4, 1), (3, 4, 2), (3, 5, 1)]:
        yield path_complex(MinorSpec.diagonal(m, n, r))[0]
    for n, t in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        yield power_ideal_complex(n, t)[0]


def test_dual_is_an_involution():
    for cx in dual_instances():
        assert alexander_dual(alexander_dual(cx)) == cx


def universe_nonfaces(cx):
    """Minimal nonfaces over the whole universe: an unused vertex is one."""
    return minimal_nonface_masks(cx) + [1 << v for v in unused_vertices(cx)]


def test_generator_cover_duality():
    for cx in dual_instances():
        gens = sorted(universe_nonfaces(alexander_dual(cx)))
        assert gens == minimal_vertex_covers(universe_nonfaces(cx))


def test_duality_builds_no_face_lattice(monkeypatch):
    instances = list(dual_instances())
    asked = spy_lattices(monkeypatch)
    for cx in instances:
        alexander_dual(cx)
    assert verify_dual_theorem(4, 6).passed
    assert asked == []


def test_nonfaces_and_inside_faces_build_no_face_lattice(monkeypatch):
    # both are minimal covers of facet complements, on the (4,5,3) ball and
    # its 20-vertex boundary alike
    ball, order = path_complex(MinorSpec.diagonal(4, 5, 3))
    bd = boundary_complex(ball)
    asked = spy_lattices(monkeypatch)
    for cx in (ball, bd):
        assert minimal_nonfaces(cx)
        alexander_dual(cx)
    inside = minimal_inside_faces(ball)
    assert asked == []
    assert inside == certified_inside_faces(ball, verify_ball(ball, order))


def test_minimal_vertex_covers_simple():
    covers = minimal_vertex_covers([mask_of([0, 1]), mask_of([1, 2])])
    assert sorted(vertices_of(c) for c in covers) == [(0, 2), (1,)]
    assert minimal_vertex_covers([]) == [0]
    assert minimal_vertex_covers([mask_of([0, 1]), 0]) == []


def test_minimal_vertex_covers_refuse_a_negative_support():
    # a negative mask has infinitely many bits, so the transversal step never ended
    for supports in ([-2], [mask_of([0, 1]), -2, 5]):
        with pytest.raises(ValueError, match="support mask -2 is negative"):
            minimal_vertex_covers(supports)


def cover_families():
    """The empty family, an empty support, then seeded random families on at
    most 9 vertices, some with a duplicate or a nested support added, and
    larger ones of 10 to 40 small supports on up to 12 vertices, where a
    kept cover often holds the vertex that extends a new one."""
    rng = random.Random(24)
    yield []
    yield [0]
    yield [mask_of([0, 1]), 0, mask_of([2])]
    for _ in range(400):
        n = rng.randint(1, 9)
        family = [
            mask_of(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.3:
            family.append(rng.choice(family))
        if rng.random() < 0.3:
            family.append(rng.choice(family) | 1 << rng.randrange(n))
        if rng.random() < 0.05:
            family.append(0)
        yield family
    for _ in range(100):
        n = rng.randint(6, 12)
        yield [mask_of(rng.sample(range(n), rng.randint(2, 5))) for _ in range(rng.randint(10, 40))]


def generator_masks(spec):
    return [mask_of(map(spec.vertex_index, d)) for d in sr_generators(spec)]


def test_minimal_vertex_covers_match_branch_and_bound():
    shapes = [(m, n) for m in range(2, 8) for n in range(m, 8)]
    maximal_minors = [generator_masks(MinorSpec.diagonal(m, n, m - 1)) for m, n in shapes]
    for family in [*cover_families(), *maximal_minors]:
        assert minimal_vertex_covers(family) == branch_and_bound_covers(family), family


def _free(ymat):
    return [yc for yc, x in ymat.items() if x is None]


def test_dual_matrix_3x4_matches_known_identification():
    ymat = dual_matrix(3, 4)
    assert list(ymat) == [(k, c) for k in (1, 2) for c in (1, 2, 3, 4)]
    assert ymat[1, 1] == (1, 1) and ymat[1, 2] == (2, 2) and ymat[1, 3] == (3, 3)
    assert ymat[2, 2] == (1, 2) and ymat[2, 3] == (2, 3) and ymat[2, 4] == (3, 4)
    assert _free(ymat) == [(1, 4), (2, 1)]


def test_dual_matrix_square():
    ymat = dual_matrix(3, 3)
    assert ymat == {(1, 1): (1, 1), (1, 2): (2, 2), (1, 3): (3, 3)}
    assert _free(ymat) == []


@pytest.mark.parametrize("m,n", [(0, 3), (4, 3)])
def test_dual_matrix_needs_m_at_most_n(m, n):
    with pytest.raises(ValueError, match="need 1 <= m <= n"):
        dual_matrix(m, n)


def test_dual_of_dual_recovers_original_entries():
    # the double dual Z of X has Z[k,c] = Y[c-k+1, c]; composing the two
    # identifications lands back on X[k,c]
    for m, n in [(3, 5), (2, 4), (3, 4)]:
        ymat = dual_matrix(m, n)
        back = dual_matrix(n - m + 1, n)
        for (k, c), yc in back.items():
            if yc is not None:
                i, j = yc
                assert j == c and ymat[i, c] in (None, (k, c))


def test_diagonal_entries_always_identified():
    for m, n in [(2, 3), (2, 4), (3, 4), (3, 5), (2, 5)]:
        ymat = dual_matrix(m, n)
        for cols in combinations(range(1, n + 1), n - m + 1):
            for k, c in enumerate(cols, start=1):
                assert ymat[k, c] is not None


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 4), (3, 5)])
def test_dual_theorem(m, n):
    verdict = verify_dual_theorem(m, n)
    assert verdict.passed, verdict.failures
    assert verdict.diagonal_count == comb(n, n - m + 1) == verdict.cover_count


def test_dual_theorem_failure_path(monkeypatch, capsys):
    # without the main diagonal (1,1),(2,2),(3,3), every generator holds
    # X[3,4], vertex 11: that one point is a minimal cover and no diagonal
    monkeypatch.setattr(duality, "sr_generators", lambda spec: sr_generators(spec)[1:])
    verdict = verify_dual_theorem(3, 4)
    assert not verdict.passed
    assert verdict.failures[0] == "minimal cover (11,) is not a dual diagonal"
    assert main(["dual", "m=3", "n=4"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_dual_theorem_through_n_9():
    for m in range(2, 10):
        for n in range(m, 10):
            verdict = verify_dual_theorem(m, n)
            assert verdict.passed, verdict.failures
            assert verdict.cover_count == verdict.diagonal_count == comb(n, m - 1)
            # the minimal covers of the minimal nonfaces are the facet complements
            spec = MinorSpec.diagonal(m, n, m - 1)
            full = (1 << m * n) - 1
            complements = sorted(full ^ fam.mask for fam in enumerate_facets(spec))
            assert minimal_vertex_covers(generator_masks(spec)) == complements, (m, n)


def test_dual_theorem_verdict_json():
    js = verify_dual_theorem(3, 4).to_json_dict()
    assert js == {
        "kind": "dual-matrix-identity",
        "m": 3,
        "n": 4,
        "passed": True,
        "diagonal_count": 6,
        "cover_count": 6,
        "failures": [],
    }
    assert list(js) == ["kind", "m", "n", "passed", "diagonal_count", "cover_count", "failures"]


def maximal_minor_diagonals(m, n):
    """Main diagonals of the m x m minors of an m x n matrix (test oracle)."""
    return [tuple(zip(range(1, m + 1), cols)) for cols in combinations(range(1, n + 1), m)]


def test_maximal_minor_diagonals():
    assert maximal_minor_diagonals(2, 3) == [
        ((1, 1), (2, 2)),
        ((1, 1), (2, 3)),
        ((1, 2), (2, 3)),
    ]
    # the dual theorem's generators are the Stanley-Reisner generators of
    # the [1..m-1 | 1..m-1] complex, in the same order
    for m in range(2, 8):
        for n in range(m, 8):
            assert sr_generators(MinorSpec.diagonal(m, n, m - 1)) == maximal_minor_diagonals(m, n)
