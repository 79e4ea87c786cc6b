import random

import pytest

from shellball.complexes import (
    SimplicialComplex,
    _canonical_key,
    _minimal_outside,
    boundary_complex,
    boundary_h_from_h,
    build_complex,
    complex_from_text,
    complex_from_text_with_order,
    complex_to_text,
    f_from_h,
    f_vector,
    h_vector,
    mask_of,
    minimal_inside_faces,
    minimal_nonface_masks,
    minimal_nonfaces,
    multiplicity,
    smallest_nonface_size,
    vector_profile,
    vertices_of,
)
from shellball.duality import alexander_dual
from shellball.paths import MinorSpec, path_complex
from shellball.polarization import power_ideal_complex

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


def test_canonical_order_is_size_then_lex():
    cx = build_complex([{2, 3, 4}, {0, 3}, {1, 2}], 5)
    assert [vertices_of(f) for f in cx.facets] == [(0, 3), (1, 2), (2, 3, 4)]


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


def test_h_vector_simplex():
    assert h_vector((3, 3, 1), 3) == (1, 0, 0, 0)


def test_h_vector_minor23():
    cx = build_complex(MINOR23, 6)
    assert f_vector(cx) == (6, 12, 10, 3)
    assert h_vector((6, 12, 10, 3), 4) == (1, 2, 0, 0, 0)


def test_h_vector_length_mismatch():
    with pytest.raises(ValueError):
        h_vector((3, 3, 1), 4)


def test_f_h_round_trip():
    for f, d in [((3, 3, 1), 3), ((6, 12, 10, 3), 4), ((4, 4), 2), ((5,), 1)]:
        assert f_from_h(h_vector(f, d), d) == f


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
        found += [1 << v for v in cx.unused_vertices]
        assert minimal_nonface_masks(cx, over_universe=True) == sorted(found, key=_canonical_key)


def test_alexander_dual_matches_seen_set_oracle():
    for cx in OUTSIDE_CASES:
        found = seen_set_minimal_outside(cx.faces_by_size(), cx.used_mask)
        found += [1 << v for v in cx.unused_vertices]
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
        assert minimal_inside_faces(cx, bd) == expected, cx
        checked += 1
    assert checked >= 50


def test_minimal_outside_returns_each_set_once():
    for cx in OUTSIDE_CASES:
        out = _minimal_outside(cx.faces_by_size(), cx.used_mask)
        assert len(out) == len(set(out)), cx
    for cx in ORACLE_BALLS:
        bd = boundary_complex(cx)
        out = _minimal_outside(bd.faces_by_size(), cx.used_mask, cx.faces_by_size())
        assert out and len(out) == len(set(out)), cx


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
    assert boundary_h_from_h((1, 0, 0, 0), 3) == (1, 1, 1)
    assert boundary_h_from_h((1, 2, 0, 0, 0), 4) == (1, 3, 3, 1)


def test_boundary_h_matches_direct_boundary_on_minor23():
    cx = build_complex(MINOR23, 6)
    bd = boundary_complex(cx)
    direct = h_vector(f_vector(bd), 3)
    assert boundary_h_from_h(h_vector(f_vector(cx), 4), 4) == direct == (1, 3, 3, 1)


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
    text = complex_to_text(cx)
    assert text.splitlines()[0] == "n=6"
    assert complex_from_text(text) == cx
    assert complex_from_text(text).labels == cx.labels


def test_text_reader_tolerates_order_and_tracks_it():
    text = "n=4\n2 3\n0 1\n"
    cx, order = complex_from_text_with_order(text)
    assert [vertices_of(f) for f in cx.facets] == [(0, 1), (2, 3)]
    assert order == [1, 0]


def test_text_reader_rejects_garbage():
    with pytest.raises(ValueError):
        complex_from_text("facets only\n0 1\n")
