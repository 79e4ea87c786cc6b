import pytest

from shellball.complexes import (
    boundary_complex,
    boundary_h_from_h,
    minimal_nonfaces,
    vertices_of,
)
from shellball.polarization import (
    grid_index,
    multicomplex_facets,
    polarize,
    power_generators,
    power_ideal_complex,
    theta,
)
from shellball.shelling import certified_h, verify_ball, verify_shelling


def test_polarize_basic():
    # x1^2 * x2 on a 2x2 grid: cells (1,1), (1,2), (2,1)
    assert polarize((2, 1), 2) == (0, 1, 2)
    assert polarize((0, 0), 2) == ()
    with pytest.raises(ValueError, match="grid too small"):
        polarize((3,), 2)


def test_power_generators():
    assert power_generators(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(power_generators(3, 3)) == 10


def test_polarized_square_generators():
    gens = sorted(polarize(g, 2) for g in power_generators(2, 2))
    assert gens == [(0, 1), (0, 2), (2, 3)]


def test_multicomplex_facets_22():
    assert multicomplex_facets(2, 2) == [(0, 0), (0, 1), (1, 0)]


def test_multicomplex_facets_counts():
    from math import comb

    for n, t in [(1, 4), (2, 3), (3, 2), (3, 3)]:
        assert len(multicomplex_facets(n, t)) == comb(n + t - 1, n)
    assert multicomplex_facets(1, 4) == [(0,), (1,), (2,), (3,)]


def test_multicomplex_order_is_degree_then_lex():
    fac = multicomplex_facets(3, 3)
    degs = [sum(a) for a in fac]
    assert degs == sorted(degs)
    for a, b in zip(fac, fac[1:]):
        assert (sum(a), a) < (sum(b), b)


def test_theta_22():
    assert theta((0, 0), 2, 2) == (grid_index(1, 2, 2), grid_index(2, 2, 2))
    assert theta((1, 0), 2, 2) == (grid_index(1, 1, 2), grid_index(2, 2, 2))
    assert theta((0, 1), 2, 2) == (grid_index(1, 2, 2), grid_index(2, 1, 2))


def test_power_complex_22_is_a_path():
    cx, order = power_ideal_complex(2, 2)
    assert [vertices_of(f) for f in cx.facets] == [(0, 3), (1, 2), (1, 3)]
    assert minimal_nonfaces(cx) == [(0, 1), (0, 2), (2, 3)]
    bd = boundary_complex(cx)
    assert [vertices_of(f) for f in bd.facets] == [(0,), (2,)]
    assert verify_ball(cx, order).ok
    # minimal inside faces are the two interior vertices of the path
    from shellball.complexes import minimal_inside_faces

    assert minimal_inside_faces(cx) == [(1,), (3,)]


def test_power_complex_32():
    cx, order = power_ideal_complex(3, 2)
    assert len(cx.facets) == 4 and cx.dim == 2 and cx.n == 6
    assert verify_ball(cx, order).ok


def test_power_complex_23():
    cx, order = power_ideal_complex(2, 3)
    assert len(cx.facets) == 6 and cx.dim == 3 and cx.n == 6
    assert verify_ball(cx, order).ok


@pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (5, 2)])
def test_power_complex_certified(n, t):
    cx, order = power_ideal_complex(n, t)
    assert len(cx.facets) == len(order)
    assert verify_ball(cx, order).ok
    # minimal nonfaces are exactly the polarized degree-t generators
    gens = sorted(polarize(g, t) for g in power_generators(n, t))
    assert [tuple(nf) for nf in minimal_nonfaces(cx)] == gens


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_one_row_grid_is_the_boundary_of_a_simplex(t):
    # n = 1: the facets are the t ridges of the (t-1)-simplex on the row, so
    # the order shells a sphere, and the ball check fails at the last step
    cx, order = power_ideal_complex(1, t)
    full = (1 << t) - 1
    assert sorted(cx.facets) == sorted(full ^ (1 << v) for v in range(t))
    assert verify_shelling(cx, order).ok
    ball = verify_ball(cx, order)
    assert not ball.ok
    assert ball.failed_step == t - 1
    assert ball.reason == "all ridges glued: closes to a sphere or worse"


@pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_gluing_steps_follow_neighbour_structure(n, t):
    # each glued ridge at step k drops a cell (i,j) with j <= a_k(i); its
    # unique earlier facet is a_k with coordinate i lowered to j-1, and the
    # unglued ridge drops column t in the first row with entry < t-1
    gamma = multicomplex_facets(n, t)
    images = [theta(a, n, t) for a in gamma]
    cx, order = power_ideal_complex(n, t)
    cert = verify_shelling(cx, order)
    assert cert.ok
    facet_of_step = {step.position: gamma[step.position] for step in cert.steps}
    image_masks = []
    for img in images:
        m = 0
        for v in img:
            m |= 1 << v
        image_masks.append(m)
    for step in cert.steps:
        a = facet_of_step[step.position]
        fmask = image_masks[step.position]
        assert len(step.glued) == sum(a)
        for g in step.glued:
            dropped = fmask & ~g.ridge
            v = dropped.bit_length() - 1
            i, j = v // t + 1, v % t + 1
            assert j <= a[i - 1], "glued ridge must drop a cell at or below the exponent"
            neighbour = list(a)
            neighbour[i - 1] = j - 1
            assert gamma[g.in_earlier[0]] == tuple(neighbour)
        q = next(i for i in range(n) if a[i] < t - 1)
        unglued = frozenset(images[step.position]) - {grid_index(q + 1, t, t)}
        assert all(frozenset(vertices_of(g.ridge)) != unglued for g in step.glued)


def test_vertex_cap():
    with pytest.raises(ValueError, match="cap"):
        power_ideal_complex(20, 20)


# Shellings of the boundary spheres of polar (3,3), (4,3) and (3,4), as
# indices into `boundary_complex(cx).facets`.  A greedy search found them
# once: it took the boundary facets in order of the first ball step whose
# facet holds them, and added the first one that keeps the restriction-face
# condition.  The canonical and the reversed orders of these boundaries do
# not shell.
POLAR_BOUNDARY_SHELLINGS = {
    (3, 3): [
        20, 26, 19, 25, 21, 17, 29, 8, 16, 18, 23, 24, 28, 14, 15, 22, 27, 10, 7, 9, 11,
        13, 4, 5, 6, 12, 0, 1, 2, 3,
    ],
    (4, 3): [
        47, 53, 65, 46, 52, 64, 48, 44, 56, 35, 71, 15, 43, 45, 50, 51, 62, 63, 55, 70,
        41, 42, 49, 61, 54, 37, 69, 17, 34, 36, 38, 40, 59, 68, 31, 32, 33, 39, 58, 60,
        67, 27, 28, 29, 30, 57, 66, 21, 14, 16, 20, 18, 23, 26, 11, 12, 13, 19, 22, 25,
        6, 7, 8, 9, 10, 24, 0, 1, 2, 3, 4, 5,
    ],
    (3, 4): [
        66, 78, 65, 77, 68, 85, 62, 74, 37, 46, 64, 76, 67, 84, 69, 59, 60, 55, 89, 34,
        35, 28, 13, 58, 61, 73, 75, 63, 56, 82, 83, 88, 53, 54, 57, 71, 72, 80, 81, 87,
        40, 50, 51, 52, 70, 79, 86, 38, 31, 16, 33, 36, 39, 45, 41, 29, 49, 14, 26, 27,
        30, 32, 43, 44, 48, 22, 23, 24, 25, 42, 47, 18, 11, 12, 15, 17, 19, 21, 6, 7, 8,
        9, 10, 20, 0, 1, 2, 3, 4, 5,
    ],
}


@pytest.mark.parametrize(
    "n,t,bh",
    [
        (3, 3, (1, 4, 10, 10, 4, 1)),
        (4, 3, (1, 5, 15, 15, 15, 15, 5, 1)),
        (3, 4, (1, 4, 10, 20, 20, 20, 10, 4, 1)),
    ],
)
def test_polar_boundary_spheres_shell(n, t, bh):
    # the paper's shellable spheres: the pinned order passes the certificate,
    # and its h-vector is the one the ball's h-vector gives its boundary
    cx, order = power_ideal_complex(n, t)
    ball = verify_ball(cx, order)
    assert ball.ok
    bd = boundary_complex(cx)
    assert not verify_shelling(bd, range(len(bd.facets))).ok
    shell = verify_shelling(bd, POLAR_BOUNDARY_SHELLINGS[n, t])
    assert shell.ok, shell.reason
    assert certified_h(bd, shell) == boundary_h_from_h(certified_h(cx, ball.shelling)) == bh
