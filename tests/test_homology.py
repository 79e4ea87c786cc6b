import functools
import random
from collections import Counter
from itertools import combinations
from math import comb, isqrt

import pytest
from hypothesis import given, settings

from shellball import homology
from shellball.complexes import (
    boundary_complex,
    build_complex,
    f_from_h,
    iter_bits,
    minimal_nonfaces,
    smallest_nonface_size,
)
from shellball.exactrank import rank_gf2_columns, rank_int_columns
from shellball.homology import (
    BettiTable,
    _betti_from_entries,
    canonical_generator_degrees,
    has_linear_resolution,
    hochster_betti_table,
    linear_resolution_reason,
    shifts,
)
from shellball.paths import MinorSpec, path_complex
from shellball.polarization import power_ideal_complex
from shellball.shelling import certified_h, verify_ball
from tests.oracles import nonface_unions, reduced_homology_ranks
from tests.test_complexes import MINOR23, SPHERE23
from tests.test_properties import grow_shellable_ball, pure_complexes


def square():
    return build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4)


# path on 4 vertices: the polarized square of the maximal ideal in 2 variables
PATH22 = [{1, 2}, {1, 3}, {0, 3}]


def test_reduced_homology_circle():
    ranks = reduced_homology_ranks(square())
    assert ranks[1] == 1
    assert all(r == 0 for d, r in ranks.items() if d != 1)


def test_reduced_homology_two_points():
    ranks = reduced_homology_ranks(build_complex([{0}, {1}], 2))
    assert ranks[0] == 1
    assert ranks[-1] == 0


def test_reduced_homology_sphere23():
    ranks = reduced_homology_ranks(build_complex(SPHERE23, 6))
    assert ranks[2] == 1
    assert all(r == 0 for d, r in ranks.items() if d != 2)


def test_reduced_homology_contractible_and_empty():
    assert all(r == 0 for r in reduced_homology_ranks(build_complex([{0, 1, 2}], 3)).values())
    assert reduced_homology_ranks(build_complex([[]], 1)) == {-1: 1}


def test_reduced_homology_void_complex():
    # a sphere's boundary has no faces at all, not even the empty one
    void = boundary_complex(build_complex(SPHERE23, 6))
    assert void.facets == ()
    assert reduced_homology_ranks(void) == {-1: 0}
    assert reduced_homology_ranks(void, field=2) == {-1: 0}


# 6-vertex real projective plane: H_1(RP^2; Z) = Z/2, so GF(2) sees a class
# in degrees 1 and 2 that Q and GF(3) do not
RP2 = [tuple(map(int, f)) for f in "012 023 034 045 015 124 235 134 135 245".split()]


def test_torsion_depends_on_field():
    cx = build_complex(RP2, 6)
    for field in (0, 3):
        assert set(reduced_homology_ranks(cx, field).values()) == {0}, field
    gf2 = reduced_homology_ranks(cx, field=2)
    assert {k: r for k, r in gf2.items() if r} == {1: 1, 2: 1}
    t0, t2 = hochster_betti_table(cx, field=0), hochster_betti_table(cx, field=2)
    extra = {k: b for k, b in t2.entries.items() if t0.beta(*k) != b}
    assert extra == {(3, 6): 1, (4, 6): 1}
    assert all(t2.beta(*k) == b for k, b in t0.entries.items())
    assert t0.entries == unpruned_betti_table(cx, 0).entries
    assert t2.entries == unpruned_betti_table(cx, 2).entries


def moore_space_mod3():
    """A disk whose boundary 9-gon runs three times around the triangle 012:
    H_1 = Z/3, seen only over GF(3).  Inner ring 3..11, centre 12."""
    facets = []
    for i in range(9):
        j = (i + 1) % 9
        facets += [(i % 3, j % 3, 3 + i), (j % 3, 3 + i, 3 + j), (12, 3 + i, 3 + j)]
    return build_complex(facets, 13)


def test_three_torsion_needs_gf3():
    cx = moore_space_mod3()
    for field in (0, 2, 5):
        assert set(reduced_homology_ranks(cx, field).values()) == {0}, field
    gf3 = reduced_homology_ranks(cx, field=3)
    assert {k: r for k, r in gf3.items() if r} == {1: 1, 2: 1}
    assert gf3 == leafwise_homology(cx, 3)


def test_hochster_square():
    tab = hochster_betti_table(square())
    assert tab.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert shifts(tab) == ([2, 4], [2, 4])


def test_hochster_full_simplex():
    tab = hochster_betti_table(build_complex([{0, 1, 2}], 3))
    assert tab.entries == {(0, 0): 1}
    assert tab.p == 0
    assert shifts(tab) == ([], [])
    assert linear_resolution_reason(tab, 2) == (True, "zero ideal")


def test_hochster_path22():
    # resolution 1 <- 3 quadrics <- 2 linear syzygies, frozen by Hilbert series
    tab = hochster_betti_table(build_complex(PATH22, 4))
    assert tab.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_hochster_sphere23_shifts():
    tab = hochster_betti_table(build_complex(SPHERE23, 6))
    assert shifts(tab) == ([2, 3, 6], [3, 4, 6])


@pytest.mark.parametrize(
    "cap, message",
    [(4, "used-vertex count 6 exceeds cap 4"), (-1, "need max_vertices >= 0, got -1")],
    ids=["cap 4", "cap -1"],
)
def test_hochster_cap(cap, message):
    # the same text as check_conjecture gives for a negative cap
    with pytest.raises(ValueError, match=f"^{message}$"):
        hochster_betti_table(build_complex(MINOR23, 6), max_vertices=cap)


def test_gorenstein_duality_on_spheres():
    for facets, n in [(SPHERE23, 6), ([(0, 1), (1, 2), (2, 3), (0, 3)], 4)]:
        cx = build_complex(facets, n)
        tab = hochster_betti_table(cx)
        p = tab.p
        assert p == len(cx.used_vertices) - cx.dim - 1
        for (i, j), b in tab.entries.items():
            assert tab.beta(p - i, n - j) == b
        mins, maxs = shifts(tab)
        for i in range(1, p + 1):
            assert maxs[i - 1] == n - mins[p - i - 1] if p - i >= 1 else True


def test_beta_one_counts_minimal_nonfaces():
    for facets, n in [(MINOR23, 6), (SPHERE23, 6), (PATH22, 4)]:
        cx = build_complex(facets, n)
        tab = hochster_betti_table(cx)
        by_size = {}
        for nf in minimal_nonfaces(cx):
            by_size[len(nf)] = by_size.get(len(nf), 0) + 1
        assert tab.row(1) == by_size


def test_field_robustness():
    for facets, n in [(MINOR23, 6), (SPHERE23, 6), (PATH22, 4)]:
        cx = build_complex(facets, n)
        t0 = hochster_betti_table(cx, field=0)
        assert hochster_betti_table(cx, field=2).entries == t0.entries
        assert hochster_betti_table(cx, field=3).entries == t0.entries


def test_field_robustness_twelve_vertices():
    from shellball.paths import MinorSpec, path_complex

    cx, _ = path_complex(MinorSpec.diagonal(3, 4, 1))
    t0 = hochster_betti_table(cx, field=0)
    assert hochster_betti_table(cx, field=2).entries == t0.entries
    assert hochster_betti_table(cx, field=3).entries == t0.entries


def test_field_validation():
    with pytest.raises(ValueError, match="prime"):
        reduced_homology_ranks(square(), field=4)


def test_linear_resolution():
    assert has_linear_resolution(hochster_betti_table(build_complex(PATH22, 4)), 2)
    assert not has_linear_resolution(hochster_betti_table(square()), 2)
    mixed = BettiTable(entries={(0, 0): 1, (1, 2): 1, (1, 3): 1}, p=1)
    ok, reason = linear_resolution_reason(mixed, 2)
    assert not ok and reason == "not equigenerated"
    # maximal-minor initial complex of the 2x3 matrix is linear (r = rows-1)
    assert has_linear_resolution(hochster_betti_table(build_complex(MINOR23, 6)), 2)


def test_canonical_generator_degrees():
    # single edge: free module, no nontrivial top
    edge = build_complex([{0, 1}], 2)
    assert canonical_generator_degrees(hochster_betti_table(edge), 2, 2) == []
    # 2x3 ball: two canonical generators of degree 3
    cx = build_complex(MINOR23, 6)
    tab = hochster_betti_table(cx)
    assert canonical_generator_degrees(tab, 6, 4) == [3, 3]
    with pytest.raises(ValueError, match="Cohen-Macaulay"):
        canonical_generator_degrees(tab, 6, 3)


def test_degrees_match_inside_faces():
    from shellball.complexes import minimal_inside_faces

    cx = build_complex(MINOR23, 6)
    degrees = canonical_generator_degrees(hochster_betti_table(cx), 6, 4)
    assert degrees == sorted(len(g) for g in minimal_inside_faces(cx))


def test_strict_shift_growth():
    for facets, n in [(MINOR23, 6), (SPHERE23, 6), (PATH22, 4)]:
        mins, _ = shifts(hochster_betti_table(build_complex(facets, n)))
        assert all(a < b for a, b in zip(mins, mins[1:]))


def test_canonical_degrees_read_top_row():
    tab = BettiTable(entries={(0, 0): 1, (8, 9): 2, (8, 10): 6}, p=8)
    assert canonical_generator_degrees(tab, 15, 7) == [5, 5, 5, 5, 5, 5, 6, 6]


def test_betti_json():
    tab = hochster_betti_table(square())
    js = tab.to_json_dict()
    assert js == {"p": 2, "entries": [[0, 0, 1], [1, 2, 2], [2, 4, 1]]}


# Oracle for the homology ranks: each complex's boundary matrices are built
# from its own faces with local row indices, components come from a
# union-find, and the dimensions -1, 0 and top are cased separately.  It
# shares nothing with the library's face bitsets and the columns they build.


def boundary_rank(lower, upper, char):
    """Rank of the boundary map from faces `upper` to faces `lower`."""
    if not lower or not upper:
        return 0
    index = {m: i for i, m in enumerate(lower)}
    if char == 2:
        cols = []
        for f in upper:
            c = 0
            for v in iter_bits(f):
                c |= 1 << index[f ^ (1 << v)]
            cols.append(c)
        return rank_gf2_columns(cols)
    cols_d = []
    for f in upper:
        col = {}
        sign = 1
        for v in iter_bits(f):
            col[index[f ^ (1 << v)]] = sign
            sign = -sign
        cols_d.append(col)
    return rank_int_columns(cols_d, char)


def component_count(vertex_masks, edge_masks):
    parent = {m: m for m in vertex_masks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_masks:
        b = e & -e
        ru, rv = find(b), find(e ^ b)
        if ru != rv:
            parent[ru] = rv
    return len({find(m) for m in vertex_masks})


def leafwise_reduced_ranks(levels, char):
    """Reduced homology ranks by dimension for faces grouped by cardinality.

    `levels` maps size >= 1 to the sorted masks of that size; the empty face
    is implicit, so an empty `levels` is the complex {emptyset}.
    """
    if not levels:
        return {-1: 1}
    top = max(levels)
    f = {k: len(levels.get(k + 1, ())) for k in range(-1, top)}
    f[-1] = 1
    bnd = {0: 1 if f[0] else 0}
    verts = levels.get(1, [])
    bnd[1] = f[0] - component_count(verts, levels.get(2, [])) if verts else 0
    for k in range(2, top):
        bnd[k] = boundary_rank(levels.get(k, []), levels.get(k + 1, []), char)
    bnd[top] = 0
    return {k: f[k] - bnd.get(k, 0) - bnd.get(k + 1, 0) for k in range(-1, top)}


def leafwise_levels(faces):
    levels = {}
    for m in sorted(faces):
        if m:
            levels.setdefault(m.bit_count(), []).append(m)
    return levels


def leafwise_homology(cx, field):
    return leafwise_reduced_ranks(
        leafwise_levels(m for masks in cx.faces_by_size().values() for m in masks), field
    )


def unpruned_betti_table(cx, field=0) -> BettiTable:
    """Oracle: Hochster's sum over every nonempty subset of the used vertices,
    by a binary walk that filters the face list once per excluded vertex."""
    used = cx.used_vertices
    flat = sorted(m for s, masks in cx.faces_by_size().items() if s for m in masks)
    entries = {}

    def process(w_size, faces):
        for dim, rank in leafwise_reduced_ranks(leafwise_levels(faces), field).items():
            if rank:
                key = (w_size - 1 - dim, w_size)
                entries[key] = entries.get(key, 0) + rank

    def rec(k, faces, size):
        if k == len(used):
            if size:
                process(size, faces)
            return
        bit = 1 << used[k]
        rec(k + 1, [f for f in faces if not f & bit], size)
        rec(k + 1, faces, size + 1)

    rec(0, flat, 0)
    return _betti_from_entries(entries)


def _differential_instances():
    yield "square", square()
    yield "sphere23", build_complex(SPHERE23, 6)
    yield "path22", build_complex(PATH22, 4)
    balls = [
        (f"minor {m} {n} {r}", path_complex(MinorSpec.diagonal(m, n, r))[0])
        for m, n, r in [(2, 3, 1), (2, 4, 1), (2, 5, 1), (3, 4, 1)]
    ]
    balls += [
        (f"polar {n} {t}", power_ideal_complex(n, t)[0])
        for n, t in [(3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (2, 5)]
    ]
    for name, ball in balls:
        yield name, ball
        yield f"{name} boundary", boundary_complex(ball)


DIFFERENTIAL = list(_differential_instances())


@pytest.mark.parametrize("name,cx", DIFFERENTIAL, ids=[name for name, _ in DIFFERENTIAL])
def test_pruned_table_matches_unpruned_walk(name, cx):
    assert len(cx.used_vertices) <= 12
    for field in (0, 2, 3):
        want = unpruned_betti_table(cx, field)
        assert hochster_betti_table(cx, field=field).entries == want.entries, field


@given(pure_complexes(max_n=8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pruned_table_matches_unpruned_walk_random(cx):
    for field in (0, 2, 3):
        want = unpruned_betti_table(cx, field)
        assert hochster_betti_table(cx, field=field).entries == want.entries


def spy_leaves(monkeypatch) -> list:
    """Record the vertex set of every induced subcomplex that the Hochster walk ranks."""
    leaves = []
    original = homology._FaceBits.reduced_ranks

    def reduced_ranks(self, alive):
        vertices = alive & self.levels[0][1]  # level 1 starts the layout
        leaves.append(sum(self.faces[i] for i in iter_bits(vertices)))
        return original(self, alive)

    monkeypatch.setattr(homology._FaceBits, "reduced_ranks", reduced_ranks)
    return leaves


def test_pruned_walk_processes_unions_of_minimal_nonfaces(monkeypatch):
    calls = spy_leaves(monkeypatch)
    bd = boundary_complex(path_complex(MinorSpec.diagonal(3, 4, 2))[0])
    assert len(bd.used_vertices) == 12
    table = hochster_betti_table(bd, field=2)
    assert len(calls) == 29  # of 4095 nonempty subsets; the rest span cones
    assert sorted(calls) == sorted(nonface_unions(bd, 12))
    assert table.entries == unpruned_betti_table(bd, 2).entries
    calls.clear()
    hochster_betti_table(bd, field=2, sphere=True)  # the walk stops at |W| = 6
    assert len(calls) == 10
    assert sorted(calls) == sorted(nonface_unions(bd, 6))


@given(pure_complexes(max_n=8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_walk_leaves_are_the_unions_of_minimal_nonfaces(cx):
    with pytest.MonkeyPatch.context() as mp:
        leaves = spy_leaves(mp)
        hochster_betti_table(cx, field=2)
    assert sorted(leaves) == sorted(nonface_unions(cx, len(cx.used_vertices)))


def check_every_star(cx) -> int:
    """Compare the ranks of every induced subcomplex relative to the star of
    each of its vertices with the leafwise oracle, over Q, GF(2) and GF(3);
    returns the number of (W, v) pairs checked."""
    faces = [m for s, masks in cx.faces_by_size().items() if s for m in masks]
    used = cx.used_mask
    bits = {char: homology._FaceBits(cx, char, len(cx.used_vertices)) for char in (0, 2, 3)}
    layout = bits[0].faces
    checked = 0
    w = used
    while w:  # every nonempty subset of the used vertices
        inside = leafwise_levels(m for m in faces if m & ~w == 0)
        alive = sum(1 << i for i, m in enumerate(layout) if m & ~w == 0)
        for char, fb in bits.items():
            want = {k: r for k, r in leafwise_reduced_ranks(inside, char).items() if r}
            for v in iter_bits(alive & fb.levels[0][1]):  # the vertices of W
                got = fb._relative_ranks(alive, 1 << v)
                assert {k: r for k, r in got.items() if r} == want, (cx, w, v, char)
                checked += 1
        w = (w - 1) & used
    return checked


def test_star_relative_ranks_of_random_graphs():
    # a leaf ranks its faces relative to one vertex star, edges included;
    # check every induced subgraph relative to each of its vertices
    rng = random.Random(26)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        density = rng.choice([0.2, 0.5, 0.8])
        # with a cut, no edge joins the vertices below it to those above
        cut = rng.choice([0, rng.randint(1, n)])
        edges = [
            (a, b)
            for a, b in combinations(range(n), 2)
            if (a < cut) == (b < cut) and rng.random() < density
        ]
        checked += check_every_star(build_complex(edges + [{v} for v in range(n)], n))
    assert checked > 100_000, checked


@given(pure_complexes(max_n=8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_star_relative_ranks_of_random_complexes(cx):
    assert check_every_star(cx) >= 3 * len(cx.used_vertices)


def test_columns_are_built_only_for_faces_the_leaves_read(monkeypatch):
    built = []
    original = homology._column

    def column(face, *args):
        built.append(face)
        return original(face, *args)

    monkeypatch.setattr(homology, "_column", column)
    stars = []  # (W, v) of every leaf
    relative = homology._FaceBits._relative_ranks

    def relative_ranks(self, alive, v):
        w = 0
        for i in iter_bits(alive):
            w |= self.faces[i]
        stars.append((w, self.faces[v.bit_length() - 1]))
        return relative(self, alive, v)

    monkeypatch.setattr(homology._FaceBits, "_relative_ranks", relative_ranks)
    bd = boundary_complex(path_complex(MinorSpec.diagonal(3, 4, 2))[0])
    lattice = {f for masks in bd.faces_by_size().values() for f in masks}
    faces = [f for f in lattice if f.bit_count() >= 2]
    assert len(faces) == 2786
    for sphere in (False, True):
        built.clear()
        stars.clear()
        hochster_betti_table(bd, sphere=sphere)
        # a face F of W lies in the star of v iff F + v is a face
        read = {f for f in faces for w, v in stars if f & ~w == 0 and f | v not in lattice}
        assert sorted(built) == sorted(read)
    # the full walk reads W = V; the duality walk stops at |W| = 6
    assert len(built) < len(faces) // 10, len(built)


def test_star_walk_ranks_few_columns(monkeypatch):
    # 26,079 columns before the leaves ranked relative to a vertex star
    columns = []

    def rank(cols):
        columns.append(len(cols))
        return rank_gf2_columns(cols)

    monkeypatch.setattr(homology, "rank_gf2_columns", rank)
    ball, order = path_complex(MinorSpec.diagonal(3, 5, 1))
    assert verify_ball(ball, order).ok
    hochster_betti_table(boundary_complex(ball), field=2, sphere=True)
    assert 0 < sum(columns) <= 7000, sum(columns)


def _certified_balls(lo: int, hi: int):
    """Every minor and polar ball on a grid of lo to hi points whose ball
    certificate passes, with its certificate and boundary."""
    balls = [
        (f"minor {m} {n} {r}", *path_complex(MinorSpec.diagonal(m, n, r)))
        for m in range(1, isqrt(hi) + 1)
        for n in range(m, hi // m + 1)
        if m * n >= lo
        for r in range(1, m + 1)
    ]
    balls += [
        (f"polar {n} {t}", *power_ideal_complex(n, t))
        for n in range(2, hi // 2 + 1)
        for t in range(2, hi // n + 1)
        if n * t >= lo
    ]
    for name, ball, order in balls:
        cert = verify_ball(ball, order)
        if cert.ok:
            yield name, ball, cert, boundary_complex(ball)


BALLS = list(_certified_balls(1, 12))
# each boundary of a certified ball is a homology sphere
SPHERES = [(f"{name} boundary", bd) for name, _, _, bd in BALLS if bd.facets]


@pytest.mark.parametrize("name,cx", SPHERES, ids=[name for name, _ in SPHERES])
def test_duality_walk_matches_full_walk(name, cx):
    assert len(cx.used_vertices) <= 12
    for field in (0, 2, 3):
        want = hochster_betti_table(cx, field=field)
        assert hochster_betti_table(cx, field=field, sphere=True).entries == want.entries, field


def test_duality_walk_covers_even_and_odd_vertex_counts():
    assert {len(cx.used_vertices) % 2 for _, cx in SPHERES} == {0, 1}


def test_duality_walk_matches_full_walk_fifteen_vertices():
    ball, order = path_complex(MinorSpec.diagonal(3, 5, 1))
    assert verify_ball(ball, order).ok
    bd = boundary_complex(ball)
    assert len(bd.used_vertices) == 15
    want = hochster_betti_table(bd, field=2)
    assert hochster_betti_table(bd, field=2, sphere=True).entries == want.entries


@pytest.mark.parametrize("name,cx", DIFFERENTIAL, ids=[name for name, _ in DIFFERENTIAL])
def test_reduced_homology_matches_leafwise_oracle(name, cx):
    for field in (0, 2, 3):
        assert reduced_homology_ranks(cx, field) == leafwise_homology(cx, field), field


@given(pure_complexes(max_n=8))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reduced_homology_matches_leafwise_oracle_random(cx):
    for field in (0, 2, 3):
        assert reduced_homology_ranks(cx, field) == leafwise_homology(cx, field), field


def _random_balls():
    """The property-test generator's balls for seeds 0..59 (at most 11 vertices)."""
    for seed in range(60):
        ball, order = grow_shellable_ball(random.Random(seed))
        yield f"random ball {seed}", ball, verify_ball(ball, order), boundary_complex(ball)


def _ball_data(balls):
    """(name, ball, boundary, d, m, deg h) for each certified ball with m defined."""
    for name, ball, cert, bd in balls:
        h = certified_h(ball, cert.shelling)
        m = smallest_nonface_size(f_from_h(h))
        if m is not None:
            yield name, ball, bd, len(h) - 1, m, max(k for k, hk in enumerate(h) if hk)


@functools.cache
def _linear_data():
    """(name, ball, boundary, d, m, deg h, linear) for each certified ball with m defined,
    named or random.

    `linear` is the oracle: the ball's Hochster table is m-linear.
    """
    return [
        (*row, has_linear_resolution(hochster_betti_table(row[1], max_vertices=12), row[4]))
        for row in _ball_data(BALLS + list(_random_balls()))
    ]


def test_linear_resolution_iff_h_degree_below_m():
    # A shelled complex is Cohen-Macaulay, so reg(S/I) = deg h (Eisenbud, The
    # Geometry of Syzygies, ch. 4); I is generated in degrees >= m, so it has an
    # m-linear resolution exactly when deg h <= m - 1.
    verdicts = {}
    for name, ball, _, _, m, deg_h, linear in _linear_data():
        assert len(ball.used_vertices) <= 12
        assert (deg_h <= m - 1) == linear, name
        verdicts[name] = linear
    assert not verdicts["minor 3 3 1"] and not verdicts["minor 3 4 1"]
    assert sum(verdicts.values()) >= 10
    assert {v for name, v in verdicts.items() if name.startswith("random")} == {True, False}


def closed_form_boundary_betti(n: int, d: int, m: int) -> dict[tuple[int, int], int]:
    """Betti table of the boundary of a linear ball on n vertices, dimension d - 1.

    With c = n - d the mapping cone of the linear resolution of k[ball] and
    the dual resolution of its canonical module (Bruns-Herzog, Cohen-Macaulay
    Rings, ch. 5) gives beta_00 = beta_{c+1,n} = 1 and, for i = 1..c, the
    Herzog-Kuehl number C(i+m-2, m-1) C(c+m-1, i+m-1) at (i, m+i-1) and at its
    mirror (c+1-i, n-m-i+1).  When d = 2m - 1 the two strands share a degree
    and add up.
    """
    c = n - d
    entries = Counter({(0, 0): 1, (c + 1, n): 1})
    for i in range(1, c + 1):
        beta = comb(i + m - 2, m - 1) * comb(c + m - 1, i + m - 1)
        entries[(i, m + i - 1)] += beta
        entries[(c + 1 - i, n - m - i + 1)] += beta
    return dict(entries)


def test_closed_form_boundary_betti_of_linear_balls():
    # linear by the ball's Hochster table on at most 12 points; on 13-16 points
    # by deg h <= m - 1, the criterion the test above checks against that table
    balls = [(name, ball, bd, d, m) for name, ball, bd, d, m, _, linear in _linear_data() if linear]
    balls += [
        (name, ball, bd, d, m)
        for name, ball, bd, d, m, deg_h in _ball_data(_certified_balls(13, 16))
        if deg_h <= m - 1
    ]
    cases = {}
    for name, ball, bd, d, m in balls:
        if not (2 <= m <= (d + 1) // 2 and bd.used_mask == ball.used_mask):
            continue
        u = len(bd.used_vertices)
        want = closed_form_boundary_betti(u, d, m)
        for field in (0, 2, 3) if u <= 15 else (2,):
            assert hochster_betti_table(bd, field, sphere=True).entries == want, (name, field)
        cases[name] = u
    assert set(cases) >= {
        "minor 2 3 1", "minor 2 4 1", "minor 3 3 2", "minor 3 4 2",
        "polar 3 2", "polar 3 3", "polar 4 2", "polar 4 3",
    }
    assert {name for name, u in cases.items() if u >= 13} == {
        "minor 2 7 1", "minor 2 8 1", "minor 3 5 2", "minor 4 4 3",
        "polar 3 5", "polar 4 4", "polar 5 3", "polar 7 2", "polar 8 2",
    }
    assert any(name.startswith("random") for name in cases)
