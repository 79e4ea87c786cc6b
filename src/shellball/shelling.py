"""Step-by-step verification of shelling orders and ball gluings.

A shelling is checked by Bjorner's restriction-face characterisation: at
step i the restriction face R_i, the set of vertices v of the new facet F_i
for which F_i - v lies in an earlier facet, must be nonempty and lie in no
earlier facet.  This holds exactly when the intersection with the union of
earlier facets is nonempty and generated by codimension-one faces.  The ball
certificate additionally demands, per step, that every glued ridge lies in
exactly one earlier facet and that at least one ridge of the new facet is
left unglued; gluing along all ridges would close the complex up to a
sphere or worse.

The walk keeps one int per distinct ridge seen so far: the position of the
first facet holding it, complemented once a later facet glues along it.
Meeting a complemented ridge again means it lies in two or more earlier
facets (only in a non-pseudomanifold); that step is crowded.  Each vertex
maps to the bitset of earlier positions holding it, so "R_i lies in no
earlier facet" is one AND of |R_i| bitsets.  A step records its facet, R_i
as a vertex mask, its glued ridges' first holders and the crowded flag;
its `GluedRidge` list is built from that record only when read, and a
crowded step rescans the earlier facets for it.  Only a failing step
intersects the new facet with every earlier facet, to name the reason.

A passing certificate also determines the h-vector and the minimal inside
faces, so neither needs the face lattice.  The glued ridges of step i are
the F_i - v for v in R_i, so |R_i| is their number and h_k counts the steps
with k of them (Stanley, CCA III.2; the first facet has R_0 empty).  The
interior faces of a shelled ball split into the intervals [F_i - R_i, F_i],
and F_i - R_i is the intersection of the glued ridges, so the minimal inside
faces are the minimal sets among those cores and the first facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import SimplicialComplex, minimal_masks, vertices_of


@dataclass
class GluedRidge:
    ridge: int  # mask
    in_earlier: tuple[int, ...]  # indices (into the order) of earlier facets containing it

    def to_json_dict(self) -> dict:
        return {"ridge": list(vertices_of(self.ridge)), "in_earlier": list(self.in_earlier)}


@dataclass
class ShellingStep:
    """Step ``position`` of a shelling: facet ``facet_index`` glued along F_i - v for v in R_i."""

    position: int
    facet_index: int
    restriction: int  # R_i, as a vertex mask
    holders: tuple[int, ...]  # first earlier position holding each glued ridge, in ridge order
    crowded: bool  # some glued ridge lies in two or more earlier facets
    ordered: list[int] = field(repr=False)  # the facet masks in shelling order
    _glued: list[GluedRidge] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def glued(self) -> list[GluedRidge]:
        """The glued ridges in increasing mask order, built from the record on first read."""
        if self._glued is None:
            ordered, i = self.ordered, self.position
            fi, rest, ridges = ordered[i], self.restriction, []
            while rest:  # a larger v leaves a smaller ridge mask
                top = 1 << rest.bit_length() - 1
                rest ^= top
                ridges.append(fi ^ top)
            if self.crowded:  # rescan the earlier facets for every holder
                holders = [tuple(k for k in range(i) if r & ~ordered[k] == 0) for r in ridges]
            else:
                holders = [(k,) for k in self.holders]
            self._glued = list(map(GluedRidge, ridges, holders))
        return self._glued

    def to_json_dict(self) -> dict:
        return {
            "position": self.position,
            "facet": self.facet_index,
            "glued": [g.to_json_dict() for g in self.glued],
        }


@dataclass
class ShellingCertificate:
    order: tuple[int, ...]
    steps: list[ShellingStep]
    ok: bool
    failed_step: int | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": "shelling",
            "order": list(self.order),
            "ok": self.ok,
            "failed_step": self.failed_step,
            "reason": self.reason,
            "steps": [s.to_json_dict() for s in self.steps],
        }


@dataclass
class BallCertificate:
    shelling: ShellingCertificate
    ok: bool
    failed_step: int | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": "ball",
            "ok": self.ok,
            "failed_step": self.failed_step,
            "reason": self.reason,
            "shelling": self.shelling.to_json_dict(),
        }


def _check_order(cx: SimplicialComplex, order) -> tuple[int, ...]:
    order = tuple(order)
    if sorted(order) != list(range(len(cx.facets))):
        raise ValueError("order is not a permutation of the facet indices")
    if not cx.is_pure:
        raise ValueError("not pure")
    return order


def _failure_reason(fi: int, inters: list[int]) -> str:
    """Why a step fails: the first maximal intersection that is not a ridge.

    The restriction-face test fails exactly when the maximal pairwise
    intersections are absent or include a non-ridge, so one is found.
    """
    size = fi.bit_count()
    # the maximal intersections are the complements in fi of the minimal complements
    maximal = {fi ^ g for g in minimal_masks(fi ^ m for m in inters if m)}
    if not maximal:
        return "empty intersection with earlier facets"
    bad = next(m for m in inters if m in maximal and m.bit_count() != size - 1)
    return f"intersection face {vertices_of(bad)} has codimension {size - bad.bit_count()} (want 1)"


def verify_shelling(cx: SimplicialComplex, order) -> ShellingCertificate:
    """Check that the given facet order is a shelling, step by step."""
    order = _check_order(cx, order)
    ordered = [cx.facets[k] for k in order]
    first: dict[int, int] = {}  # ridge -> first holder's position, complemented once glued
    earlier = [0] * cx.n  # per vertex, the bitset of positions of earlier facets holding it
    steps: list[ShellingStep] = []
    for i, fi in enumerate(ordered):
        # for points the ridge is the empty face, glued to every earlier facet
        restriction, holders, crowded = 0, [], False
        common = -1  # earlier facets holding R_i; an empty R_i lies in all of them
        rest = fi
        while rest:  # from the top vertex down, so ridges come in increasing mask order
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            ridge = fi ^ bit
            k = first.setdefault(ridge, i)
            if k != i:
                if k < 0:
                    k, crowded = ~k, True
                else:
                    first[ridge] = ~k
                restriction |= bit
                holders.append(k)
                common &= earlier[v]
            earlier[v] |= 1 << i
        if not i:
            continue
        if common:
            inters = [fi & g for g in ordered[:i]]
            return ShellingCertificate(
                order, steps, ok=False, failed_step=i, reason=_failure_reason(fi, inters)
            )
        steps.append(ShellingStep(i, order[i], restriction, tuple(holders), crowded, ordered))
    return ShellingCertificate(order, steps, ok=True)


def verify_ball(cx: SimplicialComplex, order) -> BallCertificate:
    """Check the per-step gluing conditions certifying that the shelled complex is a ball."""
    shell = verify_shelling(cx, order)
    if not shell.ok:
        return BallCertificate(
            shell, ok=False, failed_step=shell.failed_step, reason=f"not a shelling: {shell.reason}"
        )
    facets = cx.facets
    for step in shell.steps:
        if step.crowded:
            g = next(g for g in step.glued if len(g.in_earlier) != 1)
            return BallCertificate(
                shell,
                ok=False,
                failed_step=step.position,
                reason=(
                    f"glued ridge {vertices_of(g.ridge)} lies in "
                    f"{len(g.in_earlier)} earlier facets (want exactly 1)"
                ),
            )
        if step.restriction.bit_count() >= facets[step.facet_index].bit_count():
            return BallCertificate(
                shell,
                ok=False,
                failed_step=step.position,
                reason="all ridges glued: closes to a sphere or worse",
            )
    return BallCertificate(shell, ok=True)


def certified_h(cx: SimplicialComplex, shell: ShellingCertificate) -> tuple[int, ...]:
    """h-vector of a shelled complex: h_k counts the facets with |R_i| = k."""
    if not shell.ok:
        raise ValueError("h-vector needs a passing shelling certificate")
    h = [1] + [0] * (cx.dim + 1)
    for step in shell.steps:
        h[step.restriction.bit_count()] += 1
    return tuple(h)


def certified_inside_faces(cx: SimplicialComplex, cert: BallCertificate) -> list[tuple[int, ...]]:
    """Minimal inside faces of a certified ball: the minimal sets F_i - R_i."""
    if not cert.ok:
        raise ValueError("inside faces need a passing ball certificate")
    shell = cert.shelling
    bottoms = {cx.facets[shell.order[0]]}
    bottoms.update(cx.facets[step.facet_index] & ~step.restriction for step in shell.steps)
    return [vertices_of(m) for m in minimal_masks(bottoms)]
