"""Randomized invariants over generated complexes (all seeded via hypothesis)."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shellball.bounds import check_conjecture
from shellball.complexes import (
    SimplicialComplex,
    boundary_complex,
    boundary_h_from_h,
    build_complex,
    f_from_h,
    f_vector,
    h_vector,
    minimal_inside_faces,
    multiplicity,
    smallest_nonface_size,
    vector_profile,
    vertices_of,
)
from shellball.paths import MinorSpec, enumerate_facets, path_complex, random_shelling_orders
from shellball.polarization import power_ideal_complex
from shellball.shelling import certified_h, certified_inside_faces, verify_ball, verify_shelling
from tests.test_complexes import SPHERE23


@st.composite
def complexes(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    n_facets = draw(st.integers(min_value=1, max_value=5))
    facets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n))
        for _ in range(n_facets)
    ]
    return build_complex(facets, n)


@st.composite
def pure_complexes(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    n_facets = draw(st.integers(min_value=1, max_value=6))
    facets = [
        draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k
            )
        )
        for _ in range(n_facets)
    ]
    return build_complex(facets, n)


@given(complexes())
def test_f_h_round_trip(cx):
    f = f_vector(cx)
    d = len(f)
    assert f_from_h(h_vector(f, d), d) == f


@given(pure_complexes())
def test_h_sums_to_facet_count(cx):
    if not cx.is_pure:
        return
    f = f_vector(cx)
    assert sum(h_vector(f, len(f))) == len(cx.facets) == multiplicity(cx)


MINOR_INSTANCES = [(2, 3, 1), (3, 4, 1), (3, 4, 2), (3, 5, 1)]
POLAR_INSTANCES = [(2, 2), (3, 2), (2, 3), (3, 3)]


@given(st.sampled_from(MINOR_INSTANCES), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_minor_extensions_shell(params, seed):
    m, n, r = params
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    pos = {mask: k for k, mask in enumerate(cx.facets)}
    (ordered,) = random_shelling_orders(fams, 1, seed=seed)
    order = [pos[f.mask] for f in ordered]
    assert verify_shelling(cx, order).ok
    assert verify_ball(cx, order).ok


@given(st.sampled_from(MINOR_INSTANCES + [(4, 5, 2)]))
@settings(max_examples=10, deadline=None)
def test_ball_boundary_h_identity(params):
    m, n, r = params
    cx, order = path_complex(MinorSpec.diagonal(m, n, r))
    assert verify_ball(cx, order).ok
    d = cx.dim + 1
    bd = boundary_complex(cx)
    direct = h_vector(f_vector(bd), d - 1)
    assert boundary_h_from_h(h_vector(f_vector(cx), d), d) == direct
    assert vector_profile(direct).symmetric


@given(st.sampled_from(POLAR_INSTANCES))
@settings(max_examples=8, deadline=None)
def test_polar_boundary_h_identity(params):
    n, t = params
    cx, order = power_ideal_complex(n, t)
    assert verify_ball(cx, order).ok
    d = cx.dim + 1
    bd = boundary_complex(cx)
    direct = h_vector(f_vector(bd), d - 1)
    assert boundary_h_from_h(h_vector(f_vector(cx), d), d) == direct
    assert vector_profile(direct).symmetric


@given(st.sampled_from(MINOR_INSTANCES), st.sampled_from([0, 2, 3]))
@settings(max_examples=12, deadline=None)
def test_verdicts_are_field_independent(params, char):
    m, n, r = params
    cx, order = path_complex(MinorSpec.diagonal(m, n, r))
    rep = check_conjecture(cx, order, field_char=char, max_vertices=12)
    assert rep.verdict == "PASS"


def bruteforce_inside_faces(cx):
    """Oracle: scan every subset of the used vertices for the faces off the
    boundary none of whose codimension-one subsets is off the boundary."""
    bd = boundary_complex(cx)
    used = cx.used_mask

    def inside(s):
        return cx.is_face(s) and not bd.is_face(s)

    return sorted(
        vertices_of(s)
        for s in range(1, 1 << cx.n)
        if s & ~used == 0 and inside(s) and not any(inside(s ^ (1 << v)) for v in vertices_of(s))
    )


@st.composite
def shelled_ball_orders(draw, max_n=9):
    # grow a ball one facet at a time: cone a boundary ridge to any vertex
    # and keep the new facet only if the ball certificate still passes
    size = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=size + 1, max_value=max_n))
    facets = [(1 << size) - 1]
    for _ in range(draw(st.integers(min_value=3, max_value=12))):
        cx = SimplicialComplex(n, facets)
        ridges = sorted(boundary_complex(cx).facets)
        ridge = draw(st.sampled_from(ridges))
        v = draw(st.sampled_from([v for v in range(n) if not ridge >> v & 1]))
        new = ridge | 1 << v
        if new in facets:
            continue
        grown = SimplicialComplex(n, facets + [new])
        if verify_ball(grown, [grown.facets.index(f) for f in facets + [new]]).ok:
            facets.append(new)
    cx = SimplicialComplex(n, facets)
    return cx, [cx.facets.index(f) for f in facets]


def shelled_balls(max_n=9):
    return shelled_ball_orders(max_n).map(lambda case: case[0])


@given(shelled_balls())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_minimal_inside_faces_bruteforce_oracle_on_random_balls(cx):
    assert sorted(minimal_inside_faces(cx)) == bruteforce_inside_faces(cx)


@pytest.mark.parametrize(
    "instance", [("minor", *p) for p in MINOR_INSTANCES] + [("polar", *p) for p in POLAR_INSTANCES]
)
def test_minimal_inside_faces_bruteforce_oracle_on_small_instances(instance):
    if instance[0] == "minor":
        cx, _ = path_complex(MinorSpec.diagonal(*instance[1:]))
    else:
        cx, _ = power_ideal_complex(*instance[1:])
    assert sorted(minimal_inside_faces(cx)) == bruteforce_inside_faces(cx)


def lattice_smallest_nonface_size(cx):
    """Oracle: the first size whose face count in the full face lattice
    drops below the binomial count over the used vertices."""
    levels = cx.faces_by_size()
    u = cx.used_mask.bit_count()
    for k in range(1, u + 1):
        if len(levels.get(k, ())) < comb(u, k):
            return k
    return None


def subset_smallest_nonface_size(cx):
    """Oracle: the first size k at which the distinct k-subsets of the
    facets are fewer than the k-subsets of the used vertices, listing one
    size at a time."""
    bits = [[1 << v for v in vertices_of(f)] for f in cx.facets]
    u = cx.used_mask.bit_count()
    for k in range(1, u + 1):
        if len({sum(c) for b in bits for c in combinations(b, k)}) < comb(u, k):
            return k
    return None


@given(complexes())
@example(build_complex([{0, 1, 2}], 3))
@example(build_complex([{0, 1, 2}], 5))
@example(build_complex([{0, 1}, {1, 2}, {4}], 6))
@example(build_complex([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}], 4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_smallest_nonface_size_matches_lattice_oracle(cx):
    m = smallest_nonface_size(f_vector(cx))
    assert m == lattice_smallest_nonface_size(cx) == subset_smallest_nonface_size(cx)


@st.composite
def minor_orders(draw):
    # the deterministic linear extension or a seeded random one
    spec = MinorSpec.diagonal(*draw(st.sampled_from(MINOR_INSTANCES)))
    fams = enumerate_facets(spec)
    cx, order = path_complex(spec, fams)
    seed = draw(st.none() | st.integers(min_value=0, max_value=2**31 - 1))
    if seed is not None:
        pos = {mask: k for k, mask in enumerate(cx.facets)}
        (ordered,) = random_shelling_orders(fams, 1, seed=seed)
        order = [pos[f.mask] for f in ordered]
    return cx, order


certified_balls = st.one_of(
    shelled_ball_orders(),
    minor_orders(),
    st.sampled_from(POLAR_INSTANCES).map(lambda p: power_ideal_complex(*p)),
)


@given(st.one_of(certified_balls, st.just((build_complex(SPHERE23, 6), list(range(8))))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_certified_h_matches_lattice(case):
    cx, order = case
    shell = verify_shelling(cx, order)
    assert shell.ok
    assert certified_h(cx, shell) == h_vector(f_vector(cx), cx.dim + 1)


@given(certified_balls)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_certified_inside_faces_match_lattice(case):
    cx, order = case
    cert = verify_ball(cx, order)
    assert cert.ok
    inside = certified_inside_faces(cx, cert)
    assert inside == minimal_inside_faces(cx)
    assert sorted(inside) == bruteforce_inside_faces(cx)


@given(certified_balls)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_smallest_nonface_size_from_certified_f(case):
    cx, order = case
    f = f_from_h(certified_h(cx, verify_shelling(cx, order)), cx.dim + 1)
    m = smallest_nonface_size(f)
    assert m == lattice_smallest_nonface_size(cx) == subset_smallest_nonface_size(cx)
