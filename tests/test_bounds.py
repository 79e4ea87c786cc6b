import csv
import io
import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from shellball.bounds import (
    CSV_FIELDS,
    betti_bounds,
    check_conjecture,
    closed_form_bounds,
    cyclic_h,
    cyclic_max_shifts,
    linear_ball_boundary_h,
    shift_bound,
)
from shellball.complexes import (
    SimplicialComplex,
    boundary_complex,
    boundary_h_from_h,
    build_complex,
)
from shellball.homology import BettiTable, hochster_betti_table
from shellball.paths import MinorSpec, path_complex
from shellball.polarization import power_ideal_complex
from tests.test_complexes import MINOR23, SPHERE23, spy_bytearrays
from tests.test_homology import spy_leaves


def test_closed_form_bounds_2x3():
    lo, hi = closed_form_bounds(6, 4, 2)
    assert (lo, hi) == (6, 12)


def test_closed_form_degenerate():
    # n - d = 1: single product term
    lo, hi = closed_form_bounds(5, 4, 2)
    assert lo == Fraction(5 * 2, 2) == 5
    assert hi == Fraction(5 * 3, 2)


def test_closed_form_coincide_at_midpoint():
    # m - 1 = d - m makes the two products equal term by term
    lo, hi = closed_form_bounds(8, 5, 3)
    assert lo == hi


def test_shift_bound():
    assert shift_bound([3, 4, 5, 8]) == Fraction(3 * 4 * 5 * 8, 24) == 20
    assert shift_bound([2, 3, 6]) == 6
    assert shift_bound([]) == 1


def test_m_range_flag():
    # check_conjecture applies 2 <= m <= (d+1)//2
    cases = [
        (path_complex(MinorSpec.diagonal(2, 3, 1)), 4, 2, True),
        (power_ideal_complex(2, 2), 2, 2, False),
        (power_ideal_complex(2, 3), 4, 3, False),
    ]
    for (cx, order), d, m, in_range in cases:
        rep = check_conjecture(cx, order)
        assert (rep.d, rep.m, rep.m_in_range) == (d, m, in_range)
        assert any("m out of range" in r for r in rep.reasons) is not in_range


def test_betti_bounds_sphere23():
    tab = hochster_betti_table(build_complex(SPHERE23, 6))
    assert betti_bounds(tab) == (6, 12)


def test_betti_bounds_square_equality():
    tab = hochster_betti_table(build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4))
    assert betti_bounds(tab) == (4, 4)


def test_betti_bounds_simplex():
    tab = hochster_betti_table(build_complex([{0, 1, 2}], 3))
    assert betti_bounds(tab) == (1, 1)


def test_betti_bounds_gap_error():
    broken = BettiTable(entries={(0, 0): 1, (2, 4): 1}, p=2)
    with pytest.raises(ValueError, match="gap"):
        betti_bounds(broken)


# The closed forms that the shift products and the neighborly identity
# replaced, kept as oracles.


def old_closed_form_bounds(n, d, m):
    denom = factorial(n - d + 1)
    lo = Fraction(n * prod(m + i - 1 for i in range(1, n - d + 1)), denom)
    hi = Fraction(n * prod(d - m + i for i in range(1, n - d + 1)), denom)
    return lo, hi


def old_cyclic_max_shifts(n, d):
    if (d - 1) % 2 == 0:
        out = [(d - 1) // 2 + i for i in range(1, n - d + 1)]
    else:
        out = [(d - 1) // 2 + i + 1 for i in range(1, n - d + 1)]
    return out + [n]


def old_cyclic_h(n, d):
    return tuple(comb(n - d + min(i, d - 1 - i), min(i, d - 1 - i)) for i in range(d))


def old_linear_ball_boundary_h(n, d, m):
    # the binomial ramp up, the flat middle and the ramp down
    out = []
    for i in range(d):
        if i <= m - 2:
            out.append(comb(n - d + i, i))
        elif i <= d - m:
            out.append(comb(n - d + m - 1, m - 1))
        else:
            out.append(comb(n - d + (d - 1 - i), d - 1 - i))
    return tuple(out)


def old_multiplicity_estimate(n, d, m):
    return 2 * sum(comb(n - d + i, i) for i in range(m)) + (d - 2 * m) * comb(n - d + m - 1, m - 1)


ORACLE_ND = [(n, d) for d in range(1, 13) for n in range(d + 1, d + 9)]
ORACLE_NDM = [(n, d, m) for n, d in ORACLE_ND for m in range(2, (d + 1) // 2 + 1)]


def test_closed_form_bounds_match_old_form():
    assert len(ORACLE_NDM) == 240
    for n, d, m in ORACLE_NDM:
        assert closed_form_bounds(n, d, m) == old_closed_form_bounds(n, d, m), (n, d, m)


def test_cyclic_comparators_match_old_forms():
    for n, d in ORACLE_ND:
        assert cyclic_h(n, d) == old_cyclic_h(n, d), (n, d)
        assert cyclic_max_shifts(n, d) == old_cyclic_max_shifts(n, d), (n, d)


def test_linear_ball_boundary_h_matches_old_ramp():
    # plus the n = d rows (codimension 0) and the m = 1 rows (a single
    # generator degree 1 is no generator at all: the ball is a simplex)
    rows = ORACLE_NDM + [(d, d, m) for d in range(1, 13) for m in range(1, (d + 1) // 2 + 1)]
    rows += [(n, d, 1) for n, d in ORACLE_ND]
    for n, d, m in rows:
        assert linear_ball_boundary_h(n, d, m) == old_linear_ball_boundary_h(n, d, m), (n, d, m)


def test_forced_h_profile_sum():
    # the forced h-profile sums to the old closed-form estimate
    assert sum(linear_ball_boundary_h(6, 4, 2)) == 8
    assert sum(linear_ball_boundary_h(5, 4, 2)) == 6
    # d = 2m kills the estimate's second term
    assert sum(linear_ball_boundary_h(7, 4, 2)) == 2 * (1 + 4)
    for n, d, m in ORACLE_NDM:
        assert sum(linear_ball_boundary_h(n, d, m)) == old_multiplicity_estimate(n, d, m)


def test_linear_ball_boundary_h():
    assert linear_ball_boundary_h(6, 4, 2) == (1, 3, 3, 1)
    assert linear_ball_boundary_h(9, 6, 3) == (1, 4, 10, 10, 4, 1)


def test_cyclic_h():
    assert cyclic_h(6, 5) == (1, 2, 3, 2, 1)
    assert sum(cyclic_h(6, 5)) == 9
    assert cyclic_h(5, 4) == (1, 2, 2, 1)
    assert cyclic_h(4, 4) == (1, 1, 1, 1)


def test_cyclic_h_transform_round_trip():
    from shellball.complexes import f_from_h, h_vector

    h = cyclic_h(6, 5)  # five entries: the sphere ring has dimension 4
    assert h_vector(f_from_h(h)) == h


def test_cyclic_max_shifts():
    assert cyclic_max_shifts(8, 5) == [3, 4, 5, 8]
    assert cyclic_max_shifts(8, 4) == [3, 4, 5, 6, 8]


@pytest.mark.parametrize("n,d", [(6, 5), (8, 5)])
def test_cyclic_equality_even_sphere_dimension(n, d):
    assert sum(cyclic_h(n, d)) == shift_bound(cyclic_max_shifts(n, d))


@pytest.mark.parametrize("n,d", [(7, 4), (8, 4)])
def test_cyclic_strict_odd_sphere_dimension(n, d):
    assert sum(cyclic_h(n, d)) < shift_bound(cyclic_max_shifts(n, d))


def test_check_conjecture_minor23():
    cx, order = path_complex(MinorSpec.diagonal(2, 3, 1))
    rep = check_conjecture(cx, order, instance="minor 2x3")
    assert rep.verdict == "PASS"
    assert (rep.e, rep.L, rep.U) == (8, 6, 12)
    assert rep.A1 and rep.A2 and rep.shelling_pass and rep.ball_pass
    assert rep.boundary_h == (1, 3, 3, 1)
    assert (rep.L_betti, rep.U_betti) == (6, 12)
    assert rep.betti_bounds_ok


def test_check_conjecture_polar22_inapplicable_with_betti_bracket():
    cx, order = power_ideal_complex(2, 2)
    rep = check_conjecture(cx, order)
    assert rep.verdict == "INAPPLICABLE"
    assert any("m out of range" in r for r in rep.reasons)
    assert rep.L_betti <= rep.e <= rep.U_betti


def test_check_conjecture_simplex_m_undefined():
    cx = build_complex([{0, 1, 2}], 3)
    rep = check_conjecture(cx, [0])
    assert rep.verdict == "INAPPLICABLE"
    assert any("m undefined" in r for r in rep.reasons)


def test_check_conjecture_sphere_no_boundary():
    sphere = build_complex(SPHERE23, 6)
    rep = check_conjecture(sphere, list(range(8)))
    assert rep.verdict == "INAPPLICABLE"
    assert "no boundary" in rep.reasons[-1]


def spy_lattices(monkeypatch) -> list:
    """Record every complex whose face lattice is asked for."""
    asked = []
    original = SimplicialComplex.faces_by_size

    def faces_by_size(cx):
        asked.append(cx)
        return original(cx)

    monkeypatch.setattr(SimplicialComplex, "faces_by_size", faces_by_size)
    return asked


def _reordered(instance, reorder):
    cx, order = instance
    return cx, reorder(list(order))


@pytest.mark.parametrize(
    "cx, order, shells",
    [
        (*path_complex(MinorSpec.diagonal(3, 4, 2)), True),
        (*power_ideal_complex(3, 3), True),
        (build_complex(MINOR23, 6), [0, 2, 1], False),
        (
            *_reordered(
                path_complex(MinorSpec.diagonal(4, 5, 2)),
                lambda order: random.Random(0).sample(order, len(order)),
            ),
            False,
        ),
        (*_reordered(power_ideal_complex(3, 3), lambda order: order[::-1]), False),
    ],
    ids=[
        "minor 3 4 2",
        "polar 3 3",
        "minor23 failing order",
        "minor 4 5 2 shuffled",
        "polar 3 3 reversed",
    ],
)
def test_check_never_builds_the_ball_face_lattice(monkeypatch, cx, order, shells):
    asked = spy_lattices(monkeypatch)
    rep = check_conjecture(cx, order)
    assert rep.shelling_pass is shells
    # whatever the order, only a Betti table builds a lattice: the boundary's
    if rep.betti_table is None:
        assert asked == []
    else:
        assert asked and all(c == boundary_complex(cx) for c in asked)
    if shells:
        assert rep.ball_pass and rep.verdict == "PASS"
    else:
        assert rep.verdict == "INAPPLICABLE" and rep.reasons[0].startswith("shelling failed")
        assert (rep.f, rep.h, rep.m, rep.L, rep.U, rep.m_in_range, rep.A1, rep.A2) == (None,) * 8


def test_sphere_table_asks_for_the_boundary_lattice_once(monkeypatch):
    # the walk's nonfaces are covers of the facet complements; only the
    # face bitsets read the lattice
    bd = boundary_complex(path_complex(MinorSpec.diagonal(3, 4, 2))[0])
    asked = spy_lattices(monkeypatch)
    hochster_betti_table(bd, sphere=True)
    assert len(asked) == 1 and asked[0] is bd


def test_check_counts_a_dense_boundary_without_a_lattice(monkeypatch):
    # the 20-vertex boundary of (4,5,2) is past the Betti cap, and f_vector
    # counts its faces in the vertex cube
    cx, order = path_complex(MinorSpec.diagonal(4, 5, 2))
    asked = spy_lattices(monkeypatch)
    rep = check_conjecture(cx, order)
    assert rep.verdict == "PASS" and rep.betti_table is None
    assert rep.boundary_h == boundary_h_from_h(rep.h) == (1, 7, 28, 44, *[50] * 6, 44, 28, 7, 1)
    assert asked == []


def test_check_stops_at_the_cube_vertex_bound(monkeypatch):
    # the 35-vertex boundary of (5,7,3) would take a cube of 2^35 bits
    cx, order = path_complex(MinorSpec.diagonal(5, 7, 3))
    order = list(order)
    random.Random(0).shuffle(order)
    made = spy_bytearrays(monkeypatch)
    rep = check_conjecture(cx, order)
    assert made == []
    assert not rep.shelling_pass and rep.verdict == "INAPPLICABLE"
    assert rep.e == len(boundary_complex(cx).facets) and rep.boundary_h is None
    assert rep.betti_table is None and rep.A2 is None
    assert rep.reasons[-1] == "boundary has 35 used vertices, past the count bound 30"


@pytest.mark.parametrize(
    "cx, order, certified",
    [
        (*path_complex(MinorSpec.diagonal(3, 4, 2)), True),
        (*power_ideal_complex(3, 3), True),
        (build_complex(MINOR23, 6), [0, 2, 1], False),
    ],
    ids=["minor 3 4 2", "polar 3 3", "minor23 failing order"],
)
def test_duality_walk_needs_a_passing_ball_certificate(monkeypatch, cx, order, certified):
    leaves = spy_leaves(monkeypatch)
    rep = check_conjecture(cx, order)
    assert rep.ball_pass is certified
    walked = len(leaves)
    bd = boundary_complex(cx)
    counts = {}
    for sphere in (False, True):
        leaves.clear()
        assert hochster_betti_table(bd, sphere=sphere).entries == rep.betti_table.entries
        counts[sphere] = len(leaves)
    assert counts[True] < counts[False]
    assert walked == counts[certified]


def test_check_not_pure():
    with pytest.raises(ValueError, match="not pure"):
        check_conjecture(build_complex([{0, 1, 2}, {3, 4}], 5), [0, 1])


def test_check_void_complex_raises():
    with pytest.raises(ValueError, match="void complex"):
        check_conjecture(SimplicialComplex(3, []), [])


# the report fields read off the boundary
BOUNDARY_FIELDS = "e boundary_h betti_table L U L_betti U_betti m_in_range A1 A2".split() + [
    "all_vertices_on_boundary"
]


@pytest.mark.parametrize(
    "facets, order, shelled",
    [
        # three triangles on the edge 01: every order shells, none is a ball
        ([{0, 1, 2}, {0, 1, 3}, {0, 1, 4}], [2, 0, 1], True),
        # a fourth triangle meeting them in the vertex 2 breaks the shelling
        ([{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {2, 5, 6}], [0, 3, 1, 2], False),
    ],
    ids=["shelled", "not shelled"],
)
def test_non_pseudomanifold_is_inapplicable(facets, order, shelled):
    rep = check_conjecture(build_complex(facets, 7), order)
    assert rep.verdict == "INAPPLICABLE" and rep.shelling_pass is shelled and not rep.ball_pass
    assert rep.reasons[-1] == "not a pseudomanifold: ridge (0, 1) lies in 3 facets"
    js = rep.to_json_dict()
    assert [k for k in BOUNDARY_FIELDS if js[k] is not None] == []
    # f, h and m still come from the shelling certificate
    certified = ([5, 7, 3], [1, 2, 0, 0], 2) if shelled else (None, None, None)
    assert (js["f"], js["h"], js["m"]) == certified


def test_report_rationals_render_exactly():
    cx, order = power_ideal_complex(3, 3)
    rep = check_conjecture(cx, order)
    js = rep.to_json_dict()
    assert js["L"] == "45/2" and js["U"] == 45
    assert js["verdict"] == "PASS"


def test_comparison_chain_h_entrywise():
    # boundary h-vector is dominated entrywise by the cyclic comparator
    for make in [
        lambda: path_complex(MinorSpec.diagonal(2, 3, 1)),
        lambda: path_complex(MinorSpec.diagonal(3, 4, 2)),
        lambda: power_ideal_complex(3, 2),
        lambda: power_ideal_complex(3, 3),
    ]:
        cx, order = make()
        rep = check_conjecture(cx, order)
        star = cyclic_h(rep.n, rep.d)
        assert len(rep.boundary_h) == len(star)
        assert all(a <= b for a, b in zip(rep.boundary_h, star))
        assert rep.e <= sum(star)
        assert sum(linear_ball_boundary_h(rep.n, rep.d, rep.m)) <= rep.e


def test_report_csv_row():
    cx, order = path_complex(MinorSpec.diagonal(2, 3, 1))
    rep = check_conjecture(cx, order, instance="x")
    row = rep.csv_row()
    assert row["e"] == 8 and row["verdict"] == "PASS" and row["L"] == 6


@pytest.mark.parametrize(
    "facets, n, order, instance, line",
    [
        (SPHERE23, 6, list(range(8)), "sphere", "sphere,6,3,2,,,,,,INAPPLICABLE"),
        ([{0, 1, 2}], 3, [0], "simplex", "simplex,3,3,,3,,,,,INAPPLICABLE"),
    ],
)
def test_csv_row_leaves_missing_fields_empty(facets, n, order, instance, line):
    rep = check_conjecture(build_complex(facets, n), order, instance=instance)
    buf = io.StringIO()
    csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n").writerow(rep.csv_row())
    assert buf.getvalue() == line + "\n"
