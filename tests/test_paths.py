import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from shellball import paths
from shellball.cli import main
from shellball.complexes import (
    boundary_complex,
    boundary_h_from_h,
    f_vector,
    h_vector,
    mask_of,
    minimal_inside_faces,
    minimal_nonfaces,
    multiplicity,
    vertices_of,
)
from shellball.paths import (
    MinorSpec,
    _extension,
    _room,
    _successors,
    corner_spectrum,
    enumerate_facets,
    h_via_corners,
    is_corner_maximal,
    is_non_flippable,
    path_complex,
    path_corners,
    random_shelling_orders,
    render_ascii,
    shelling_order,
    sr_generators,
)
from shellball.shelling import certified_h, certified_inside_faces, verify_ball, verify_shelling
from tests.oracles import (
    admits_family_flip,
    boundary_via_corners,
    canonical_generators,
    corner_h,
    flip,
    flip_sites,
    is_face,
    points_of,
    profile_of,
    walk_all_facets,
)

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
    spec = MinorSpec(3, 4, (1, 2), (1, 3))
    assert spec.r == 2 and spec.facet_size == 2 * 8 - 3 - 4
    assert MinorSpec.diagonal(2, 3, 1) == MinorSpec(2, 3, (1,), (1,))


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
        ("m=x n=4 r=1", "parameter m must be an integer, got 'x'"),
        ("m=3 n=4.0 r=1", "parameter n must be an integer, got '4.0'"),
        ("m=3 n=4 r=", "parameter r must be an integer, got ''"),
        ("m=x n=4 sigma=1|1", "parameter m must be an integer, got 'x'"),
    ],
)
def test_minor_spec_parse_names_malformed_input(capsys, text, message):
    # minor parameters are read only by the CLI, which exits 2 naming the key or form
    assert main(["check", "minor", *text.split()]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_enumerate_facets_matches_dead_end_walk():
    # every minor of every m x n matrix with m <= 5, n <= 7 and m * n <= 30:
    # the points, profiles and masks derived from the stored profiles match
    # the dead-end walk's own point tuples;
    # the room bound of each path and row is the largest profile entry that
    # any facet takes there, so it is both valid and tight
    shapes = 0
    for m in range(1, 6):
        for n in range(m, min(7, 30 // m) + 1):
            for r in range(1, m + 1):
                for rows in combinations(range(1, m + 1), r):
                    for cols in combinations(range(1, n + 1), r):
                        spec = MinorSpec(m, n, rows, cols)
                        oracle = walk_all_facets(spec)
                        fams = enumerate_facets(spec)
                        assert [fam.paths for fam in fams] == oracle, spec
                        assert [fam.profile for fam in fams] == list(map(profile_of, oracle)), spec
                        assert [fam.mask for fam in fams] == [
                            mask_of(spec.vertex_index(p) for path in pts for p in path)
                            for pts in oracle
                        ], spec
                        for k, a in enumerate(rows):
                            used = {pts[k] for pts in oracle}
                            for x in range(a, m + 1):
                                top = max(min(y for i, y in path if i == x) for path in used)
                                assert top == _room(spec, k, x), (spec, k, x)
                        shapes += 1
    assert shapes == 1892


@pytest.mark.parametrize(
    "spec, count, digest",
    [
        (
            MinorSpec.diagonal(6, 7, 3),
            4116,
            "c36a1bf5c5b3da6284511fdc4b1cde214161bbb2f6a80aa83f9fd31dfffd2234",
        ),
        (
            MinorSpec.diagonal(8, 9, 7),
            36,
            "a3bb6c6ab679026530733a488a27b7febbb27e1b08ef8a808eb3328e1179f875",
        ),
        (
            MinorSpec(6, 7, (1, 3, 4), (2, 3, 6)),
            1386,
            "0112c1012942102322c1da6b6ca5a2545f6b10f85d239f63ab8d3d98fb7d44d6",
        ),
        (
            MinorSpec(6, 8, (2, 5), (1, 4)),
            1090,
            "2b94b1520ccc20159fa332ae4e8366fd2776f47344d48efd7ef2df45798c42d8",
        ),
    ],
    ids=["6x7-r3", "8x9-r7", "6x7-134_236", "6x8-25_14"],
)
def test_enumerate_facets_pinned_beyond_the_walk(spec, count, digest):
    # shapes past the dead-end walk's reach: the paths, in order, are pinned
    # by the sha256 of their compact JSON
    found = [fam.paths for fam in enumerate_facets(spec)]
    text = json.dumps(found, separators=(",", ":"))
    assert (len(found), hashlib.sha256(text.encode("utf-8")).hexdigest()) == (count, digest)


def test_check_path_builds_no_points():
    # `check` and `generate` read only masks, which come from the profiles
    spec = MinorSpec.diagonal(6, 7, 3)
    fams = enumerate_facets(spec)
    path_complex(spec, fams)
    assert len(fams) == 4116
    assert [fam for fam in fams if "paths" in vars(fam)] == []


def test_facet_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_facets(MinorSpec.diagonal(6, 7, 3), max_facets=100)


def test_corners_of_staircase_and_bend():
    assert path_corners(((1, 3), (1, 2), (1, 1), (2, 1))) == frozenset()
    assert path_corners(((1, 3), (1, 2), (2, 2), (2, 1))) == {(2, 2)}


def test_figure_construction_r_corners():
    fam = corner_spectrum(enumerate_facets(MinorSpec.diagonal(6, 7, 3)))[3]
    assert fam.corners == {(2, 2), (3, 3), (4, 4)}


def test_figure_construction_t6():
    fam = corner_spectrum(enumerate_facets(MinorSpec.diagonal(6, 7, 3)))[6]
    assert fam.corners == FIGURE_CORNERS
    assert is_non_flippable(fam)


def test_flip_on_minor23():
    stair = ((1, 3), (1, 2), (1, 1), (2, 1))
    flipped = flip(stair, (1, 1))
    assert flipped == ((1, 3), (1, 2), (2, 2), (2, 1))
    with pytest.raises(ValueError, match="not flippable"):
        flip(flipped, (1, 2))


def test_internal_checks_raise(monkeypatch):
    # the check is a raised error, not an assert, so `python -O` keeps it
    import tests.oracles as oracles

    monkeypatch.setattr(oracles, "path_corners", lambda path: frozenset())
    with pytest.raises(ArithmeticError, match="has corners"):
        flip(((1, 3), (1, 2), (1, 1), (2, 1)), (1, 1))
    # a room bound below the end column leaves the walk an empty range
    monkeypatch.setattr(paths, "_room", lambda spec, k, x: spec.cols[k] - 1)
    with pytest.raises(ArithmeticError, match="^path 1 has no room in row 1$"):
        enumerate_facets(MinorSpec.diagonal(2, 3, 1))


def test_flip_grows_corners_everywhere():
    # every path flip on every facet replaces v by v+(1,1) in place and
    # strictly enlarges the corner set
    for m, n, r in SMALL_SPECS:
        for fam in enumerate_facets(MinorSpec.diagonal(m, n, r)):
            for path in fam.paths:
                pts = set(path)
                crn = path_corners(path)
                for k, v in enumerate(path):
                    down, right = (v[0] + 1, v[1]), (v[0], v[1] + 1)
                    if down in pts and right in pts and down not in crn and right not in crn:
                        flipped = flip(path, v)
                        assert flipped == path[:k] + ((v[0] + 1, v[1] + 1),) + path[k + 1 :]
                        assert path_corners(flipped) > crn


def test_non_flippable_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    assert [is_non_flippable(f) for f in fams] == [False, True, True]


def test_non_flippable_matches_oracle_flip_sites():
    for m, n, r in SMALL_SPECS:
        for fam in enumerate_facets(MinorSpec.diagonal(m, n, r)):
            assert is_non_flippable(fam) == (not any(flip_sites(p) for p in fam.paths))


def test_corner_maximality_vs_pathwise():
    # they agree except where a flip collides with a sibling path; the
    # known smallest case is one facet of the 3x4, r=2 complex
    fams = enumerate_facets(MinorSpec.diagonal(3, 4, 2))
    disc = [f for f in fams if is_non_flippable(f) != is_corner_maximal(f, fams)]
    assert len(disc) == 1
    fam = disc[0]
    assert fam.corners == {(2, 3), (3, 4)}
    assert is_corner_maximal(fam, fams) and not is_non_flippable(fam)
    for m, n, r in SMALL_SPECS:
        fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
        for f in fams:
            assert is_corner_maximal(f, fams) == (not admits_family_flip(f))


# The facet order <= is the relation that `_successors` lists: k in succ[j]
# iff facet j < facet k.


def test_facet_leq_basics():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    # the staircase lies below the other two facets, and they form a chain
    assert _successors(fams) == [[1, 2], [2], []]
    with pytest.raises(ValueError, match="mismatched"):
        _successors(fams[:1] + enumerate_facets(MinorSpec.diagonal(2, 2, 1)))


def test_facet_leq_is_partial_order_with_incomparable_pairs():
    succ = [set(ks) for ks in _successors(enumerate_facets(MinorSpec.diagonal(3, 4, 1)))]
    incomparable = 0
    for a, above in enumerate(succ):
        assert a not in above
        for b in range(len(succ)):
            if b in above:
                assert a not in succ[b] and succ[b] <= above
            elif a != b and a not in succ[b]:
                incomparable += 1
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
            assert not pointwise_facet_leq(b, a)
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
    """f1 <= f2: every point of f2's path i is weakly below-right of some point of f1's path i."""
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


ORDER_SPECS = [MinorSpec.diagonal(*mnr) for mnr in SMALL_SPECS] + [
    MinorSpec(3, 5, (2,), (3,)),
    MinorSpec(4, 5, (1, 2), (2, 4)),
    MinorSpec(4, 5, (2, 3), (1, 4)),
    MinorSpec(4, 4, (1, 2, 4), (1, 3, 4)),
]


def spec_id(spec: MinorSpec) -> str:
    """Test id: the CLI parameters naming the minor."""
    if spec == MinorSpec.diagonal(spec.m, spec.n, spec.r):
        return f"m={spec.m} n={spec.n} r={spec.r}"
    rows, cols = (",".join(map(str, idx)) for idx in (spec.rows, spec.cols))
    return f"m={spec.m} n={spec.n} sigma={rows}|{cols}"


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=spec_id)
def test_facet_leq_matches_pointwise_oracle(spec):
    # `_successors` compares row profiles entry by entry in place of points
    fams = enumerate_facets(spec)
    for a in fams:
        for b in fams:
            entrywise = all(x <= y for x, y in zip(a.profile, b.profile))
            assert entrywise == pointwise_facet_leq(a, b)


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=spec_id)
def test_distinct_facets_have_distinct_profiles(spec):
    fams = enumerate_facets(spec)
    assert len({fam.profile for fam in fams}) == len(fams)
    for fam in fams:
        # the oracle takes row minima, so it ignores how a path lists its points
        shuffled = tuple(tuple(reversed(path)) for path in fam.paths)
        assert profile_of(shuffled) == fam.profile


@pytest.mark.parametrize("spec", ORDER_SPECS + [MinorSpec.diagonal(5, 7, 1)], ids=spec_id)
def test_orders_match_matrix_oracle(spec):
    fams = enumerate_facets(spec)
    less = less_matrix(fams)
    assert shelling_order(fams) == [fams[i] for i in matrix_extension(less, lambda ready: ready[0])]
    for seed in (0, 1, 7):
        rng = random.Random(seed)
        expected = [[fams[i] for i in matrix_extension(less, rng.choice)] for _ in range(3)]
        assert random_shelling_orders(fams, 3, seed) == expected


def sweep_successors(facets):
    """Oracle for `_successors`: `pointwise_facet_leq` on every ordered pair."""
    return [
        [k for k, g in enumerate(facets) if k != j and pointwise_facet_leq(f, g)]
        for j, f in enumerate(facets)
    ]


# the benchmark's two minors and the non-diagonal ones
LARGE_ORDER_SPECS = [
    MinorSpec.diagonal(5, 6, 2),
    MinorSpec.diagonal(5, 7, 1),
] + ORDER_SPECS[len(SMALL_SPECS) :]


@pytest.mark.parametrize("spec", LARGE_ORDER_SPECS, ids=spec_id)
def test_successors_match_facet_leq_sweep(spec):
    fams = enumerate_facets(spec)
    assert _successors(fams) == sweep_successors(fams)


def counter_sort_extension(succ, pick):
    """Oracle for `_extension`: in-degrees in a `Counter`, `ready` re-sorted after every step."""
    indeg = Counter(k for ks in succ for k in ks)
    ready = [j for j in range(len(succ)) if indeg[j] == 0]
    order = []
    while ready:
        j = pick(ready)
        ready.remove(j)
        order.append(j)
        for k in succ[j]:
            indeg[k] -= 1
            if indeg[k] == 0:
                ready.append(k)
        ready.sort()
    if len(order) != len(succ):
        raise ValueError("facet order inconsistency: cycle detected")
    return order


@pytest.mark.parametrize("spec", LARGE_ORDER_SPECS, ids=spec_id)
def test_orders_match_counter_sort_oracle(spec):
    fams = enumerate_facets(spec)
    succ = _successors(fams)
    order = counter_sort_extension(succ, lambda ready: ready[0])
    assert shelling_order(fams) == [fams[i] for i in order]
    for seed in (0, 1, 7):
        rng = random.Random(seed)
        expected = [[fams[i] for i in counter_sort_extension(succ, rng.choice)] for _ in range(3)]
        assert random_shelling_orders(fams, 3, seed) == expected


# The lemma of the `paths` docstring: the canonical order extends the facet
# order, so `shelling_order` is a sort and the pipeline builds no relation.


def every_minor(m_max: int, n_max: int):
    """Every minor [rows | cols] of every m x n matrix with m <= m_max and m <= n <= n_max."""
    for m in range(1, m_max + 1):
        for n in range(m, n_max + 1):
            for r in range(1, m + 1):
                for rows in combinations(range(1, m + 1), r):
                    for cols in combinations(range(1, n + 1), r):
                        yield MinorSpec(m, n, rows, cols)


MINORS_4_5 = list(every_minor(4, 5))


def test_canonical_order_extends_the_facet_order():
    assert len(MINORS_4_5) == 365
    for spec in MINORS_4_5:
        succ = _successors(enumerate_facets(spec))
        assert all(k > j for j, ks in enumerate(succ) for k in ks), spec_id(spec)


@pytest.mark.parametrize("m,n,r", SMALL_SPECS)
def test_shelling_order_sorts_any_facet_list(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    canonical = enumerate_facets(spec)
    kahn = counter_sort_extension(_successors(canonical), lambda ready: ready[0])
    cx, order = path_complex(spec, canonical)
    assert order == list(range(len(canonical)))
    for seed in range(3):
        shuffled = canonical[:]
        random.Random(seed).shuffle(shuffled)
        assert shelling_order(shuffled) == [canonical[i] for i in kahn]
        got_cx, got_order = path_complex(spec, shuffled)
        assert (got_cx.n, got_cx.facets, got_cx.labels) == (cx.n, cx.facets, cx.labels)
        assert got_order == order


def spy_order_relation(monkeypatch) -> Counter:
    """Count the calls of `paths._successors` and `paths._extension`."""
    calls: Counter = Counter()
    for name in ("_successors", "_extension"):

        def wrapped(*args, name=name, original=getattr(paths, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(paths, name, wrapped)
    return calls


def test_pipeline_builds_no_facet_order(monkeypatch, tmp_path):
    calls = spy_order_relation(monkeypatch)
    assert main(["check", "minor", "m=4", "n=5", "r=2"]) == 0
    out = str(tmp_path / "ball.cx")
    assert main(["generate", "minor", "m=4", "n=5", "r=2", "--out", out]) == 0
    assert calls == Counter()
    # the seeded extensions still walk the relation, built once for all of them
    fams = enumerate_facets(MinorSpec.diagonal(4, 5, 2))
    assert len(random_shelling_orders(fams, 3, seed=0)) == 3
    assert calls == {"_successors": 1, "_extension": 3}


def test_minor_ball_boundaries_shell_in_canonical_order():
    # the boundary sphere of every certified minor ball shells in the order
    # its complex stores, and that shelling gives the ball's boundary h-vector;
    # each step's restriction face is its facet's corner set, and the ball's
    # h-vector is the corner count that the row transfer gives; polar
    # boundaries are left out, as their canonical order does not shell
    for spec in MINORS_4_5:
        facets = enumerate_facets(spec)
        cx, order = path_complex(spec, facets)
        cert = verify_ball(cx, order)
        assert cert.ok, spec_id(spec)
        restrictions = [0] + [step.restriction for step in cert.shelling.steps]
        corners = [mask_of(map(spec.vertex_index, f.corners)) for f in facets]
        assert restrictions == corners, spec_id(spec)
        bd = boundary_complex(cx)
        shell = verify_shelling(bd, list(range(len(bd.facets))))
        assert shell.ok, spec_id(spec)
        h = certified_h(cx, cert.shelling)
        assert corner_h(spec) == h, spec_id(spec)
        assert certified_h(bd, shell) == boundary_h_from_h(h), spec_id(spec)


def spy(pick):
    """`pick` that records each `ready` it sees and asserts that it is sorted."""
    seen: list[list[int]] = []

    def call(ready):
        assert ready == sorted(ready)
        seen.append(list(ready))
        return pick(ready)

    return call, seen


def test_extension_places_ready_facets_before_finding_a_cycle():
    # 0 -> 1 -> 2 -> 0, with facet 3 ready beside the cycle
    pick, seen = spy(lambda ready: ready[0])
    with pytest.raises(ValueError, match="cycle detected"):
        _extension([[1], [2], [0], []], pick)
    assert seen == [[3]]


def test_extension_waits_for_the_last_predecessor():
    pick, seen = spy(lambda ready: ready[-1])
    assert _extension([[3], [3], [3], []], pick) == [2, 1, 0, 3]
    assert seen == [[0, 1, 2], [0, 1], [0], [3]]


@pytest.mark.parametrize(
    "spec", [MinorSpec.diagonal(4, 5, 2)] + ORDER_SPECS[len(SMALL_SPECS) :], ids=spec_id
)
def test_extension_picks_from_a_sorted_ready_list(spec):
    # the picks, and so the rng draws, are those of a loop that sorts after every step
    succ = _successors(enumerate_facets(spec))
    for choose in (lambda ready: ready[0], random.Random(3).choice):
        pick, seen = spy(choose)
        assert sorted(_extension(succ, pick)) == list(range(len(succ)))
        assert len(seen) == len(succ)


def test_negative_extension_count_is_refused():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    with pytest.raises(ValueError, match=r"need count >= 0, got -1"):
        random_shelling_orders(fams, -1, seed=0)
    assert random_shelling_orders(fams, 0, seed=0) == []


def test_no_facets_have_an_empty_order():
    pick, seen = spy(lambda ready: ready[0])
    assert _extension([], pick) == []
    assert seen == []
    assert shelling_order([]) == []
    assert random_shelling_orders([], 2, seed=0) == [[], []]


def test_repeated_facet_is_refused():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    with pytest.raises(ValueError, match=r"^repeated facet \[0, 1, 2, 3\]$"):
        shelling_order(fams + fams[:1])
    with pytest.raises(ValueError, match=r"^repeated facet \[0, 1, 2, 3\]$"):
        path_complex(fams[0].spec, fams[:1] + fams)
    with pytest.raises(ValueError, match=r"^repeated facet \[0, 1, 2, 3\]$"):
        random_shelling_orders(fams + fams[:1], 1, seed=0)


def test_mixed_specs_are_refused():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    fams += enumerate_facets(MinorSpec.diagonal(2, 2, 1))
    with pytest.raises(ValueError, match="mismatched specs"):
        shelling_order(fams)
    with pytest.raises(ValueError, match="mismatched specs"):
        random_shelling_orders(fams, 1, seed=0)
    # facets of another minor than the spec: a 3x4 list under a 3x5 spec once
    # gave a complex with 3x5 labels on 3x4 vertex indices
    small, large = MinorSpec.diagonal(3, 4, 1), MinorSpec.diagonal(3, 5, 1)
    for spec, other in ((large, small), (small, large)):
        with pytest.raises(ValueError, match="^mismatched specs$"):
            path_complex(spec, enumerate_facets(other))
    with pytest.raises(ValueError, match="^mismatched specs$"):
        path_complex(MinorSpec.diagonal(2, 3, 1), fams)


def test_path_complex_checks_specs_once(monkeypatch):
    # each profile is hashed once: the repeat check runs inside `shelling_order`
    calls = []
    check = paths._check_specs
    monkeypatch.setattr(paths, "_check_specs", lambda facets: calls.append(check(facets)))
    spec = MinorSpec.diagonal(3, 4, 1)
    path_complex(spec)
    path_complex(spec, enumerate_facets(spec))
    assert len(calls) == 2


def test_canonical_generators_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    assert canonical_generators(fams) == [
        ((1, 2), (1, 3), (2, 1)),
        ((1, 3), (2, 1), (2, 2)),
    ]


@pytest.mark.parametrize("m,n,r", SMALL_SPECS)
def test_canonical_generators_match_inside_faces(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    gens = sorted(
        tuple(sorted(spec.vertex_index(p) for p in face))
        for face in canonical_generators(fams)
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
        for face in canonical_generators(fams)
    )
    assert sorted(certified_inside_faces(cx, cert)) == gens


@pytest.mark.parametrize(
    "m,n,r,expected",
    [(2, 3, 1, {1}), (4, 5, 2, {2, 3, 4}), (3, 4, 1, {1, 2})],
)
def test_corner_spectrum(m, n, r, expected):
    fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
    assert set(corner_spectrum(fams)) == expected == set(range(r, r * (m - r) + 1))


def test_corner_spectrum_witnesses_sweep():
    # all 50 diagonal shapes with 2 <= m <= 5 and m <= n <= 8, so also the
    # shapes with n >= m + 2 that a sweep over near-square grids misses
    for m in range(2, 6):
        for n in range(m, 9):
            for r in range(1, m):
                fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
                witnesses = corner_spectrum(fams)
                assert sorted(witnesses) == list(range(r, r * (m - r) + 1))
                for t, fam in witnesses.items():
                    assert is_non_flippable(fam) and len(fam.corners) == t
                    earlier = fams[: fams.index(fam)]
                    assert not any(
                        is_non_flippable(f) and len(f.corners) == t for f in earlier
                    )
    with pytest.raises(ValueError, match=r"^need 1 <= r <= m-1 and m <= n$"):
        corner_spectrum(enumerate_facets(MinorSpec.diagonal(3, 4, 3)))
    with pytest.raises(ValueError, match="^no facets$"):
        corner_spectrum([])


@pytest.mark.parametrize("m,n,r", [(2, 3, 1), (3, 4, 1), (3, 4, 2)])
def test_h_via_corners_equals_transform(m, n, r):
    spec = MinorSpec.diagonal(m, n, r)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    f = f_vector(cx)
    assert h_via_corners(fams) == h_vector(f)


def test_h_via_corners_minor23():
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    assert h_via_corners(fams) == (1, 2, 0, 0, 0)


def test_corner_counts_capped_by_spectrum_top():
    # no facet at all carries more than r(m-r) corners, so the h-vector
    # vanishes beyond that index
    for m, n, r in SMALL_SPECS:
        fams = enumerate_facets(MinorSpec.diagonal(m, n, r))
        top = r * (m - r)
        assert max(len(f.corners) for f in fams) <= top
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
                assert pred(pts) == is_face(bd, mask)


def test_dropped_corner_lands_in_unique_earlier_facet():
    # within the shelling, dropping a corner lands in exactly one earlier
    # facet and dropping a non-corner lands in none
    for m, n, r in SMALL_SPECS:
        spec = MinorSpec.diagonal(m, n, r)
        ordered = shelling_order(enumerate_facets(spec))
        points = [points_of(fam) for fam in ordered]
        for k, fam in enumerate(ordered):
            for v in sorted(points[k]):
                ridge = points[k] - {v}
                containing = [j for j in range(k) if ridge <= points[j]]
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
        core = {fam: points_of(fam) - fam.corners for fam in fams}
        for a in fams:
            for b in fams:
                if core[b] <= core[a]:
                    assert a.corners <= b.corners


def test_corner_containment_does_not_imply_core_containment():
    # the converse is false, already on the 2x3 grid: the staircase has no
    # corners, so its corner set sits inside every other facet's, yet the
    # other cores are not subsets of the staircase
    fams = enumerate_facets(MinorSpec.diagonal(2, 3, 1))
    stair, _, f2 = fams
    assert stair.corners <= f2.corners
    assert not (points_of(f2) - f2.corners) <= (points_of(stair) - stair.corners)
    # and with nonempty corner sets on both sides, on the 3x4 grid
    fams = enumerate_facets(MinorSpec.diagonal(3, 4, 1))
    core = {fam: points_of(fam) - fam.corners for fam in fams}
    witnesses = [
        (a, b)
        for a in fams
        for b in fams
        if a.corners and a.corners < b.corners and not core[b] <= core[a]
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
