import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellball.complexes import boundary_complex, build_complex, mask_of, vertices_of
from shellball.paths import MinorSpec, enumerate_facets, path_complex, random_shelling_orders
from shellball.polarization import power_ideal_complex
from shellball.shelling import (
    GluedRidge,
    ShellingCertificate,
    ShellingStep,
    certified_h,
    certified_inside_faces,
    verify_ball,
    verify_shelling,
)
from tests.test_complexes import MINOR23
from tests.test_properties import pure_complexes


def pairwise_antichain_shelling(cx, order) -> ShellingCertificate:
    """Oracle: the intersection with the earlier facets as the antichain of
    maximal pairwise intersections, each glued ridge located by a rescan.
    The empty intersection counts only for points, whose ridge it is."""
    order = tuple(order)
    facets = cx.facets
    steps = []
    for i in range(1, len(order)):
        fi = facets[order[i]]
        size = fi.bit_count()
        inters = {}
        for k in range(i):
            m = fi & facets[order[k]]
            if m or size == 1:
                inters.setdefault(m, []).append(k)
        maximal = [m for m in inters if not any(m != g and m & ~g == 0 for g in inters)]
        step = ShellingStep(position=i, facet_index=order[i])
        if not maximal:
            return ShellingCertificate(
                order, steps, ok=False, failed_step=i, reason="empty intersection with earlier facets"
            )
        bad = [m for m in maximal if m.bit_count() != size - 1]
        if bad:
            return ShellingCertificate(
                order,
                steps,
                ok=False,
                failed_step=i,
                reason=(
                    f"intersection face {vertices_of(bad[0])} has codimension "
                    f"{size - bad[0].bit_count()} (want 1)"
                ),
            )
        for m in sorted(maximal):
            containing = tuple(k for k in range(i) if m & ~facets[order[k]] == 0)
            step.glued.append(GluedRidge(ridge=m, in_earlier=containing))
        steps.append(step)
    return ShellingCertificate(order, steps, ok=True)


def test_two_triangles_sharing_edge():
    cx = build_complex([{0, 1, 2}, {1, 2, 3}], 4)
    cert = verify_shelling(cx, [0, 1])
    assert cert.ok
    assert verify_ball(cx, [0, 1]).ok


def test_two_triangles_sharing_vertex_fail():
    cx = build_complex([{0, 1, 2}, {2, 3, 4}], 5)
    cert = verify_shelling(cx, [0, 1])
    assert not cert.ok
    assert cert.failed_step == 1
    assert "codimension" in cert.reason


def test_disconnected_fails():
    cx = build_complex([{0, 1}, {2, 3}], 4)
    cert = verify_shelling(cx, [0, 1])
    assert not cert.ok and "empty intersection" in cert.reason
    with pytest.raises(ValueError, match="passing shelling certificate"):
        certified_h(cx, cert)


def test_points():
    one = build_complex([{0}], 1)
    assert verify_shelling(one, [0]).ok and verify_ball(one, [0]).ok
    for n in (2, 3):
        cx = build_complex([{v} for v in range(n)], n)
        shell = verify_shelling(cx, range(n))
        assert shell.ok
        assert [g.to_json_dict() for g in shell.steps[-1].glued] == [
            {"ridge": [], "in_earlier": list(range(n - 1))}
        ]
        cert = verify_ball(cx, range(n))
        assert not cert.ok and cert.failed_step == 1
        assert cert.reason == "all ridges glued: closes to a sphere or worse"


def test_minor23_order_passes():
    cx = build_complex(MINOR23, 6)
    cert = verify_ball(cx, [0, 1, 2])
    assert cert.shelling.ok and cert.ok


def test_triangle_boundary_is_not_a_ball():
    cx = build_complex([{0, 1}, {1, 2}, {0, 2}], 3)
    shell = verify_shelling(cx, [0, 1, 2])
    assert shell.ok
    cert = verify_ball(cx, [0, 1, 2])
    assert not cert.ok
    assert cert.failed_step == 2
    assert cert.reason == "all ridges glued: closes to a sphere or worse"
    with pytest.raises(ValueError, match="inside faces need a passing ball certificate"):
        certified_inside_faces(cx, cert)


def test_ridge_in_two_earlier_facets_fails_ball():
    # two triangles glued along an edge, then a third on top of the same edge
    cx = build_complex([{0, 1, 2}, {0, 1, 3}], 4)
    assert verify_ball(cx, [0, 1]).ok
    cx = build_complex([{0, 1, 2}, {0, 1, 3}, {0, 1, 4}], 5)
    cert = verify_ball(cx, [0, 1, 2])
    assert cert.shelling.to_json_dict() == pairwise_antichain_shelling(cx, [0, 1, 2]).to_json_dict()
    assert [g.to_json_dict() for g in cert.shelling.steps[-1].glued] == [
        {"ridge": [0, 1], "in_earlier": [0, 1]}
    ]
    assert not cert.ok and cert.failed_step == 2
    assert cert.reason == "glued ridge (0, 1) lies in 2 earlier facets (want exactly 1)"


def test_order_validation():
    cx = build_complex(MINOR23, 6)
    with pytest.raises(ValueError, match="permutation"):
        verify_shelling(cx, [0, 1])
    with pytest.raises(ValueError, match="permutation"):
        verify_shelling(cx, [0, 1, 1])
    with pytest.raises(ValueError, match="not pure"):
        verify_shelling(build_complex([{0, 1, 2}, {3, 4}], 5), [0, 1])


def test_certified_ball_has_closed_sphere_boundary():
    from collections import Counter

    from shellball.polarization import power_ideal_complex

    instances = [(build_complex(MINOR23, 6), [0, 1, 2])]
    instances += [power_ideal_complex(n, t) for n, t in [(3, 2), (2, 3), (3, 3)]]
    for cx, order in instances:
        assert verify_ball(cx, order).ok
        bd = boundary_complex(cx)
        assert bd.is_pure and bd.dim == cx.dim - 1
        # every ridge of the boundary lies in exactly two boundary facets
        counts = Counter()
        for f in bd.facets:
            for v in vertices_of(f):
                counts[f ^ (1 << v)] += 1
        assert set(counts.values()) == {2}


def test_certificate_serialization():
    cx = build_complex(MINOR23, 6)
    js = verify_ball(cx, [0, 1, 2]).to_json_dict()
    assert js["kind"] == "ball" and js["ok"] is True
    assert js["shelling"]["order"] == [0, 1, 2]
    glued = js["shelling"]["steps"][0]["glued"]
    assert glued == [{"ridge": [1, 2, 3], "in_earlier": [0]}]


@st.composite
def ordered_pure_complexes(draw):
    cx = draw(pure_complexes())
    return cx, draw(st.permutations(range(len(cx.facets))))


@st.composite
def ridge_walks(draw, max_n=8):
    # each new facet swaps one vertex of an earlier facet, so every step
    # glues along a ridge and the verdict rests on the restriction face
    n = draw(st.integers(min_value=3, max_value=max_n))
    size = draw(st.integers(min_value=2, max_value=n - 1))
    seq = [(1 << size) - 1]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        f = draw(st.sampled_from(seq))
        out = draw(st.sampled_from(vertices_of(f)))
        into = draw(st.sampled_from([v for v in range(n) if not f >> v & 1]))
        g = f ^ 1 << out | 1 << into
        if g not in seq:
            seq.append(g)
    cx = build_complex([vertices_of(f) for f in seq], n)
    return cx, [cx.facets.index(f) for f in seq]


BALL_INSTANCES = [("minor", 2, 3, 1), ("minor", 3, 4, 1), ("minor", 3, 4, 2), ("polar", 3, 3)]


@st.composite
def near_shelling_orders(draw):
    # a few adjacent swaps of a ball's shelling order give both passing
    # orders and orders that fail late, with several glued ridges per step
    kind, *params = draw(st.sampled_from(BALL_INSTANCES))
    if kind == "minor":
        cx, order = path_complex(MinorSpec.diagonal(*params))
    else:
        cx, order = power_ideal_complex(*params)
    order = list(order)
    for s in draw(st.lists(st.integers(0, 2**16), max_size=4)):
        k = s % (len(order) - 1)
        order[k], order[k + 1] = order[k + 1], order[k]
    return cx, order


@given(st.one_of(ordered_pure_complexes(), ridge_walks(), near_shelling_orders()))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_verify_shelling_matches_pairwise_oracle(case):
    cx, order = case
    want = pairwise_antichain_shelling(cx, order).to_json_dict()
    assert verify_shelling(cx, order).to_json_dict() == want


def oracle_orders(order):
    """The given order, a shuffled one and the reversed one."""
    order = list(order)
    return [order, random.Random(0).sample(order, len(order)), order[::-1]]


def ridge_table_cases():
    for params in [(4, 5, 2), (5, 7, 1)]:
        spec = MinorSpec.diagonal(*params)
        fams = enumerate_facets(spec)
        cx, order = path_complex(spec, fams)
        pos = {mask: k for k, mask in enumerate(cx.facets)}
        seeded = [
            [pos[fam.mask] for fam in random_shelling_orders(fams, 1, seed)[0]]
            for seed in (0, 1, 7)
        ]
        yield pytest.param(cx, oracle_orders(order) + seeded, id=f"minor {params}")
    cx, order = power_ideal_complex(4, 3)
    seeded = [random.Random(seed).sample(order, len(order)) for seed in (1, 7)]
    yield pytest.param(cx, oracle_orders(order) + seeded, id="polar (4, 3)")
    points = build_complex([{v} for v in range(4)], 4)
    yield pytest.param(points, oracle_orders(range(4)), id="points")
    yield pytest.param(build_complex([{0, 1, 2}], 3), [[0]], id="one facet")
    # the last facet glues along {1, 2} only, and R = {0} lies in the facet {0, 3, 4}
    cx = build_complex([{1, 2, 3}, {2, 3, 4}, {0, 3, 4}, {0, 1, 2}], 5)
    order = [cx.facets.index(mask_of(f)) for f in [(1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 2)]]
    yield pytest.param(cx, [order], id="restriction face in an earlier facet")


@pytest.mark.parametrize("cx, orders", ridge_table_cases())
def test_ridge_table_matches_pairwise_oracle(cx, orders):
    for order in orders:
        want = pairwise_antichain_shelling(cx, order).to_json_dict()
        assert verify_shelling(cx, order).to_json_dict() == want
