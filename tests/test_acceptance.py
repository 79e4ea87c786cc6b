"""Acceptance suite: one test per desk-scale criterion, exact arithmetic only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Criterion 9b has no test here, because the corner/core
biconditional is false over arbitrary facet pairs: containment transfers
from cores to corner sets but not back.  tests/test_paths.py checks each
direction: test_core_containment_implies_corner_containment on the five
pipeline shapes, and test_corner_containment_does_not_imply_core_containment
with the 2x3 and 3x4 counterexamples.  Criterion 4 compares the library
with the corner-maximal generators in tests/oracles.py.
"""

import pytest

import shellball as sb
from tests.oracles import canonical_generators, points_of

SEED = 20240811


def line(tag: str, text: str) -> None:
    print(f"ACCEPTANCE {tag}: {text}")


@pytest.fixture(scope="module")
def minor(request):
    cache = {}

    def get(m, n, r):
        key = (m, n, r)
        if key not in cache:
            spec = sb.MinorSpec.diagonal(m, n, r)
            fams = sb.enumerate_facets(spec)
            cx, order = sb.path_complex(spec, fams)
            cache[key] = (spec, fams, cx, order)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def polar():
    cache = {}

    def get(n, t):
        if (n, t) not in cache:
            cache[(n, t)] = sb.power_ideal_complex(n, t)
        return cache[(n, t)]

    return get


PIPELINE_INSTANCES = [(2, 3, 1), (3, 4, 1), (3, 4, 2), (3, 5, 1), (4, 5, 2)]


def test_criterion_1_minor_2x3_pipeline(minor):
    spec, fams, cx, order = minor(2, 3, 1)
    assert len(fams) == 3
    assert cx.dim == 3
    f = sb.f_vector(cx)
    assert sb.h_vector(f) == (1, 2, 0, 0, 0)
    boundary = sb.boundary_complex(cx)
    bh = sb.h_vector(sb.f_vector(boundary))
    assert bh == (1, 3, 3, 1)
    assert sb.multiplicity(boundary) == 8

    rep = sb.check_conjecture(cx, order, instance="minor m=2 n=3 r=1")
    assert rep.verdict == "PASS"
    assert (rep.L, rep.U, rep.e) == (6, 12, 8)
    assert rep.A1 and rep.A2

    table = sb.hochster_betti_table(boundary)
    mins, maxs = sb.shifts(table)
    assert mins == [2, 3, 6] and maxs == [3, 4, 6]
    # closed forms m_i = m+i-1, M_i = d-m+i for i <= n-d, then n
    n, d, m = 6, 4, 2
    assert mins == [m + i - 1 for i in range(1, n - d + 1)] + [n]
    assert maxs == [d - m + i for i in range(1, n - d + 1)] + [n]
    # self-duality of the sphere table
    for (i, j), b in table.entries.items():
        assert table.beta(3 - i, 6 - j) == b
    line("criterion 1", f"PASS  e=8 in [6,12], shifts {mins}/{maxs}, h'={bh}")


def test_criterion_2_linear_resolution_dichotomy(minor):
    results = {}
    for r in (1, 2):
        _, _, cx, _ = minor(3, 4, r)
        assert len(cx.used_vertices) == 12
        m = sb.smallest_nonface_size(sb.f_vector(cx))
        table = sb.hochster_betti_table(cx)
        results[r] = sb.has_linear_resolution(table, m)
    assert results == {1: False, 2: True}
    line("criterion 2", "PASS  3x4 initial complexes: linear iff r = m-1 = 2")


def test_criterion_3_corner_spectrum(minor):
    for m, n, r in [(2, 3, 1), (4, 5, 2), (6, 7, 3)]:
        spec = sb.MinorSpec.diagonal(m, n, r)
        fams = sb.enumerate_facets(spec)
        witnesses = sb.corner_spectrum(fams)
        assert set(witnesses) == set(range(r, r * (m - r) + 1))
    figure = witnesses[6]
    assert figure.corners == {(2, 2), (3, 4), (4, 3), (4, 6), (5, 5), (6, 4)}
    line("criterion 3", "PASS  spectra = {r..r(m-r)}; (6,7,3,t=6) corner set reproduced")


def test_criterion_4_canonical_degrees(minor):
    for m, n, r in [(2, 3, 1), (3, 4, 2), (3, 5, 1)]:
        spec, fams, cx, _ = minor(m, n, r)
        degrees = sorted(len(face) for face in canonical_generators(fams))
        inside = sorted(len(g) for g in sb.minimal_inside_faces(cx))
        assert degrees == inside
        lo, hi = r * n, r * (n + m - r - 1)
        assert sorted(set(degrees)) == list(range(lo, hi + 1))
        table = sb.hochster_betti_table(cx)
        hochster = sb.canonical_generator_degrees(table, len(cx.used_vertices), cx.dim + 1)
        assert degrees == hochster
    line("criterion 4", "PASS  degrees span [rn, r(n+m-r-1)] and match inside faces + resolution top")


def test_criterion_5_cyclic_comparators():
    for n, d in [(6, 5), (8, 5)]:
        e = sum(sb.cyclic_h(n, d))
        bound = sb.shift_bound(sb.cyclic_max_shifts(n, d))
        assert e == bound
    for n, d in [(7, 4), (8, 4)]:
        e = sum(sb.cyclic_h(n, d))
        bound = sb.shift_bound(sb.cyclic_max_shifts(n, d))
        assert e < bound
    line("criterion 5", "PASS  shift product exact for even sphere dim, strict for odd")


def test_criterion_6_polarization(polar):
    verdicts = {}
    for n, t in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        cx, order = polar(n, t)
        assert sb.verify_shelling(cx, order).ok
        assert sb.verify_ball(cx, order).ok
        gens = sorted(sb.polarize(g, t) for g in sb.polarization.power_generators(n, t))
        assert [tuple(nf) for nf in sb.minimal_nonfaces(cx)] == gens
        assert sb.has_linear_resolution(sb.hochster_betti_table(cx), t)
        rep = sb.check_conjecture(cx, order, instance=f"polar n={n} t={t}")
        profile = sb.vector_profile(rep.boundary_h)
        assert profile.symmetric and profile.unimodal
        if rep.verdict == "INAPPLICABLE":
            assert rep.m_in_range is False
            assert rep.betti_bounds_ok
        else:
            assert rep.verdict == "PASS"
        verdicts[(n, t)] = rep.verdict
    assert verdicts[(3, 2)] == verdicts[(3, 3)] == "PASS"
    line("criterion 6", f"PASS  verdicts {verdicts}")


def test_criterion_7_alexander_duality(minor, polar):
    for m, n in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        verdict = sb.verify_dual_theorem(m, n)
        assert verdict.passed, verdict.failures
    generated = [minor(*key)[2] for key in [(2, 3, 1), (3, 4, 1), (3, 4, 2), (3, 5, 1)]]
    generated += [polar(n, t)[0] for n, t in [(2, 2), (3, 2), (2, 3), (3, 3)]]
    for cx in generated:
        assert sb.alexander_dual(sb.alexander_dual(cx)) == cx
    line("criterion 7", "PASS  dual-matrix identity on 4 shapes; dual involution on 8 complexes")


def test_criterion_8_cross_oracle_h_identities(minor, polar):
    for m, n, r in PIPELINE_INSTANCES:
        spec, fams, cx, order = minor(m, n, r)
        h = sb.h_vector(sb.f_vector(cx))
        assert sb.h_via_corners(fams) == h
        assert sum(h) == len(cx.facets)
        assert sb.verify_ball(cx, order).ok
        boundary = sb.boundary_complex(cx)
        bh = sb.h_vector(sb.f_vector(boundary))
        assert sb.boundary_h_from_h(h) == bh
        assert sum(bh) == len(boundary.facets)
    for n, t in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        cx, order = polar(n, t)
        h = sb.h_vector(sb.f_vector(cx))
        assert sum(h) == len(cx.facets)
        boundary = sb.boundary_complex(cx)
        assert sb.boundary_h_from_h(h) == sb.h_vector(sb.f_vector(boundary))
    line("criterion 8", "PASS  corner tally = transform; boundary h identity; sum(h) = facets")


def test_criterion_9a_random_extensions(minor):
    for m, n, r in PIPELINE_INSTANCES:
        spec, fams, cx, _ = minor(m, n, r)
        pos = {mask: k for k, mask in enumerate(cx.facets)}
        for ordered in sb.random_shelling_orders(fams, 100, seed=SEED):
            order = [pos[fam.mask] for fam in ordered]
            assert sb.verify_shelling(cx, order).ok
    line("criterion 9a", f"PASS  100 seeded extensions shell on all of {PIPELINE_INSTANCES}")


def test_criterion_9c_glue_uniqueness(minor):
    for m, n, r in PIPELINE_INSTANCES:
        spec, fams, _, _ = minor(m, n, r)
        ordered = sb.shelling_order(fams)
        points = [points_of(fam) for fam in ordered]
        for k, fam in enumerate(ordered):
            for v in points[k]:
                ridge = points[k] - {v}
                containing = [j for j in range(k) if ridge <= points[j]]
                assert len(containing) == (1 if v in fam.corners else 0)
    line("criterion 9c", "PASS  dropped corner = unique earlier facet, dropped non-corner = none")
