import hashlib
import json
import random
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellball.bounds import check_conjecture
from shellball.complexes import (
    boundary_complex,
    build_complex,
    mask_of,
    minimal_masks,
    vertices_of,
)
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
from tests.oracles import pairwise_minimal_masks
from tests.test_complexes import MINOR23
from tests.test_properties import pure_complexes


def pairwise_antichain_shelling(cx, order) -> ShellingCertificate:
    """Oracle: the intersection with the earlier facets as the antichain of
    maximal pairwise intersections, each glued ridge located by a rescan.
    The empty intersection counts only for points, whose ridge it is."""
    order = tuple(order)
    facets = cx.facets
    ordered = [facets[k] for k in order]
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
        glued = []
        for m in sorted(maximal):
            containing = tuple(k for k in range(i) if m & ~facets[order[k]] == 0)
            glued.append(GluedRidge(ridge=m, in_earlier=containing))
        step = ShellingStep(
            i,
            order[i],
            restriction=fi & ~reduce(and_, maximal),
            holders=tuple(g.in_earlier[0] for g in glued),
            crowded=any(len(g.in_earlier) > 1 for g in glued),
            ordered=ordered,
        )
        step._glued = glued  # serialise the oracle's own ridges, not ones rebuilt from the record
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


def pairwise_antichain_ball(cx, order):
    """Oracle: the ball check read off `pairwise_antichain_shelling`'s glued
    ridges, as (ok, failed_step, reason, shelling certificate)."""
    shell = pairwise_antichain_shelling(cx, order)
    if not shell.ok:
        return False, shell.failed_step, f"not a shelling: {shell.reason}", shell
    for step in shell.steps:
        for g in step.glued:
            if len(g.in_earlier) != 1:
                reason = (
                    f"glued ridge {vertices_of(g.ridge)} lies in "
                    f"{len(g.in_earlier)} earlier facets (want exactly 1)"
                )
                return False, step.position, reason, shell
        if len(step.glued) >= cx.facets[step.facet_index].bit_count():
            return False, step.position, "all ridges glued: closes to a sphere or worse", shell
    return True, None, None, shell


@given(st.one_of(ordered_pure_complexes(), ridge_walks(), near_shelling_orders()))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_verify_ball_matches_pairwise_oracle(case):
    cx, order = case
    ok, failed_step, reason, shell = pairwise_antichain_ball(cx, order)
    cert = verify_ball(cx, order)
    assert (cert.ok, cert.failed_step, cert.reason) == (ok, failed_step, reason)
    if not ok:
        return
    # h_k counts the steps with k glued ridges; the cores are the
    # intersections of each step's glued ridges
    h = [1] + [0] * (cx.dim + 1)
    bottoms = {cx.facets[order[0]]}
    for step in shell.steps:
        h[len(step.glued)] += 1
        bottoms.add(reduce(and_, (g.ridge for g in step.glued), cx.facets[step.facet_index]))
    assert certified_h(cx, cert.shelling) == tuple(h)
    assert certified_inside_faces(cx, cert) == [
        vertices_of(m) for m in pairwise_minimal_masks(bottoms)
    ]


def test_minimal_cores_of_a_large_ball_match_the_pairwise_oracle():
    # the (6,7,2) ball: one core F_i - R_i per facet, 883 of them minimal
    cx, order = path_complex(MinorSpec.diagonal(6, 7, 2))
    shell = verify_ball(cx, order).shelling
    cores = [cx.facets[order[0]]]
    cores += [cx.facets[step.facet_index] & ~step.restriction for step in shell.steps]
    assert len(set(cores)) == 5292
    minimal = minimal_masks(cores)
    assert len(minimal) == 883
    assert minimal == pairwise_minimal_masks(cores)


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


def pinned_ball_case(name):
    """The complex and facet order behind one pinned certificate digest."""
    kind, *rest = name.split()
    if kind == "minor":
        m, n, r, which = rest
        spec = MinorSpec.diagonal(int(m), int(n), int(r))
        fams = enumerate_facets(spec)
        cx, order = path_complex(spec, fams)
        if which == "shuffled":
            return cx, random.Random(0).sample(order, len(order))
        if which != "canonical":
            pos = {mask: k for k, mask in enumerate(cx.facets)}
            (ext,) = random_shelling_orders(fams, 1, int(which.removeprefix("seed")))
            order = [pos[fam.mask] for fam in ext]
        return cx, order
    if kind == "polar":
        return power_ideal_complex(4, 3)
    if kind == "crowded":  # three triangles on one edge
        return build_complex([{0, 1, 2}, {0, 1, 3}, {0, 1, 4}], 5), [0, 1, 2]
    # the last facet glues along {1, 2} only, and R = {0} lies in the facet {0, 3, 4}
    cx = build_complex([{1, 2, 3}, {2, 3, 4}, {0, 3, 4}, {0, 1, 2}], 5)
    return cx, [cx.facets.index(mask_of(f)) for f in [(1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 2)]]


BALL_DIGESTS = {
    "minor 4 5 2 canonical": "3d637bf3720b5ff3d2b5030e781bd254295832598631cdc4fbd11e145db5912e",
    "minor 4 5 2 seed0": "9c9e40e60462535aac337e77613a264d1a34db95d0080189e93ee86edc309e76",
    "minor 4 5 2 seed7": "3ed8c5f31626a19354f4e02a68e084ca8afbcf2bcf7d824192337fdabdfd649e",
    "minor 5 6 2 canonical": "66446606953cd042a8fd7fca2113c57f75f7c9003ea95c84786acf742d48e4dc",
    "minor 5 6 2 seed0": "45fcd5bc26ba8309553a5ad1d9ee2dde404d0a6ac8363030f05ff2fffe6250a3",
    "minor 5 6 2 seed7": "a6499b08e488406d0577ae700402559e2087e73d12708f1d554fac5bc35c3b4a",
    "minor 5 7 1 canonical": "9b293fa575965618207715a93b3cc654b65884a7063e52a109fe436b949e77bc",
    "minor 5 7 1 seed0": "7704cf265279b170b266d14ef160a15c126948c3e4a830894d7c2a9d599bba1d",
    "minor 5 7 1 seed7": "58bbbb4a7eaf3d040659ccbbb5456c318db33b5b565c39d7a5a1c1e15b93d9c3",
    "polar 4 3": "4168761b1a0696adb1d1516b3665b6a823d8c7ace5282d3eed247476a33aca9f",
    "crowded": "013b40e1a943d0913da4027a60e444de914cee18ef97ec796e5f942635de47af",
    "restriction face in an earlier facet": "be0fca66ba45f9d423c7c1130e0e02448454d06ff04712f11f0b4254af078d26",
    "minor 4 5 2 shuffled": "6492083999951cf0cf3df9dc0ec3e963f3b836ccdd0df170a0a3a1553ac84044",
}


@pytest.mark.parametrize("name, digest", BALL_DIGESTS.items(), ids=list(BALL_DIGESTS))
def test_ball_certificate_json_pinned(name, digest):
    # the serialised certificate, glued ridges included, pinned by the
    # sha256 of its compact JSON
    cx, order = pinned_ball_case(name)
    text = json.dumps(verify_ball(cx, order).to_json_dict(), separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_check_path_builds_no_glued_ridges(monkeypatch):
    # `check` and `verify_ball` read |R_i| and F_i - R_i off each step; the
    # glued ridges are built only when a caller reads them
    built = []
    init = GluedRidge.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GluedRidge, "__init__", counting_init)
    for cx, order in [path_complex(MinorSpec.diagonal(4, 5, 2)), power_ideal_complex(4, 3)]:
        assert check_conjecture(cx, order).verdict == "PASS"
    spec = MinorSpec.diagonal(5, 6, 2)
    fams = enumerate_facets(spec)
    cx, _ = path_complex(spec, fams)
    pos = {mask: k for k, mask in enumerate(cx.facets)}
    certs = [
        verify_ball(cx, [pos[fam.mask] for fam in ext])
        for ext in random_shelling_orders(fams, 6, seed=0)
    ]
    assert all(cert.ok for cert in certs)
    assert built == []
    assert len(certs[0].shelling.steps[0].glued) == len(built) > 0
