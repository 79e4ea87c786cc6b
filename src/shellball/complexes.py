"""Exact combinatorics of abstract simplicial complexes on small vertex sets.

Faces are integer bit masks over a fixed universe of at most 128 vertices,
so containment tests are single AND operations and face enumeration works
on plain sets of ints.  Everything here is exact integer arithmetic: f- and
h-vectors, boundary complexes, minimal nonfaces (their least size read off
the f-vector), minimal inside faces and multiplicities.  No floats anywhere.

Conventions:

* a complex is stored by its inclusion-maximal faces (facets);
* the "empty complex" is the complex whose only face is the empty set,
  written as the single facet mask 0;
* unused vertices (universe members on no facet) are tolerated and
  reported, never silently dropped, so labeled grids keep stable
  coordinates.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 128


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), vertices_of(mask))


class SimplicialComplex:
    """Immutable simplicial complex on vertices ``0..n-1`` given by facets."""

    __slots__ = ("n", "facets", "labels", "_faces")

    def __init__(self, n: int, facet_masks: Iterable[int], labels: Sequence[str] | None = None):
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex universe capped at {MAX_VERTICES}, got n={n}")
        masks = sorted(set(facet_masks), key=_canonical_key)
        for m in masks:
            if m >> n:
                raise ValueError("vertex out of range")
        # drop non-maximal entries; same-size masks never contain one another
        by_size: dict[int, list[int]] = {}
        for m in masks:
            by_size.setdefault(m.bit_count(), []).append(m)
        bigger_sizes = sorted(by_size, reverse=True)
        keep = []
        for s in bigger_sizes:
            for m in by_size[s]:
                if any(m != g and m & ~g == 0 for t in bigger_sizes if t > s for g in by_size[t]):
                    continue
                keep.append(m)
        self.n = n
        self.facets: tuple[int, ...] = tuple(sorted(keep, key=_canonical_key))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length must equal n")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        self.labels = labels
        self._faces: dict[int, set[int]] | None = None

    # -- basic structure -------------------------------------------------

    @property
    def used_mask(self) -> int:
        m = 0
        for f in self.facets:
            m |= f
        return m

    @property
    def used_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.used_mask)

    @property
    def unused_vertices(self) -> tuple[int, ...]:
        return vertices_of(~self.used_mask & ((1 << self.n) - 1))

    @property
    def dim(self) -> int:
        if not self.facets:
            raise ValueError("void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        return len({f.bit_count() for f in self.facets}) <= 1

    def faces_by_size(self) -> dict[int, set[int]]:
        """Downward closure grouped by cardinality; size 0 holds the empty face."""
        if self._faces is None:
            levels: dict[int, set[int]] = {}
            for f in self.facets:
                levels.setdefault(f.bit_count(), set()).add(f)
            top = max(levels) if levels else 0
            for s in range(top, 1, -1):
                nxt = levels.setdefault(s - 1, set())
                for f in levels.get(s, ()):
                    m = f
                    while m:
                        b = m & -m
                        nxt.add(f ^ b)
                        m ^= b
            if self.facets:
                levels[0] = {0}
            self._faces = levels
        return self._faces

    def is_face(self, mask: int) -> bool:
        return mask in self.faces_by_size().get(mask.bit_count(), ())

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[vertices_of(f) for f in self.facets]})"


def build_complex(
    facet_sets: Iterable[Iterable[int]], n: int, labels: Sequence[str] | None = None
) -> SimplicialComplex:
    """Build a complex from vertex sets, keeping only inclusion-maximal ones."""
    masks = []
    for fs in facet_sets:
        m = 0
        for v in fs:
            if not 0 <= v < n:
                raise ValueError(f"vertex out of range: {v} not in 0..{n - 1}")
            m |= 1 << v
        masks.append(m)
    if not masks:
        raise ValueError("empty complex")
    return SimplicialComplex(n, masks, labels)


# ---------------------------------------------------------------------------
# f- and h-vectors


def f_vector(cx: SimplicialComplex) -> tuple[int, ...]:
    """Face counts by dimension, ``f[i]`` = number of i-dimensional faces."""
    if not cx.facets:
        return ()
    levels = cx.faces_by_size()
    d = cx.dim + 1
    return tuple(len(levels.get(k, ())) for k in range(1, d + 1))


def h_vector(f: Sequence[int], d: int) -> tuple[int, ...]:
    """Binomial transform of the f-vector; ``f`` lists f_0..f_{d-1}."""
    if len(f) != d:
        raise ValueError(f"f-vector length {len(f)} does not match d={d}")
    fm = (1, *f)  # fm[i] = f_{i-1}
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * fm[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def f_from_h(h: Sequence[int], d: int) -> tuple[int, ...]:
    """Inverse transform; returns f_0..f_{d-1} from h_0..h_d."""
    if len(h) != d + 1:
        raise ValueError(f"h-vector length {len(h)} does not match d={d}")
    return tuple(
        sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, d + 1)
    )


def multiplicity(cx: SimplicialComplex) -> int:
    """Facet count of a pure complex; cross-checked against sum(h)."""
    if not cx.is_pure:
        raise ValueError("not pure")
    t = len(cx.facets)
    f = f_vector(cx)
    h = h_vector(f, len(f))
    if sum(h) != t:
        raise ArithmeticError(f"h-vector sum {sum(h)} disagrees with facet count {t}")
    return t


def boundary_h_from_h(h: Sequence[int], d: int | None = None) -> tuple[int, ...]:
    """h-vector of the boundary sphere of a ball from the ball's h-vector.

    Entry j is ``sum(h[0..j]) - sum(h[d-j..d])``, the partial-sum difference
    transform valid for shellable balls.
    """
    if d is None:
        d = len(h) - 1
    if len(h) != d + 1:
        raise ValueError(f"h-vector length {len(h)} does not match d={d}")
    return tuple(sum(h[: j + 1]) - sum(h[d - j :]) for j in range(d))


class VectorProfile(NamedTuple):
    symmetric: bool
    unimodal: bool


def vector_profile(seq: Sequence[int]) -> VectorProfile:
    seq = tuple(seq)
    symmetric = seq == seq[::-1]
    i = 0
    while i + 1 < len(seq) and seq[i + 1] >= seq[i]:
        i += 1
    while i + 1 < len(seq) and seq[i + 1] <= seq[i]:
        i += 1
    return VectorProfile(symmetric, i + 1 >= len(seq))


# ---------------------------------------------------------------------------
# nonfaces, boundary, inside faces


def _minimal_outside(
    levels: dict[int, set[int]], used: int, within: dict[int, set[int]] | None = None
) -> list[int]:
    """Inclusion-minimal subsets of ``used`` outside the lattice ``levels``.

    Candidates of size k are (k-1)-sets of the lattice extended by a used
    vertex above their top one, so each arises once; a candidate outside
    the lattice is minimal iff every codimension-one subset lies in it, so
    no minimal one is missed.  The search stops by itself at the first size
    with no (k-1)-sets, so no size bound is assumed.  With ``within``
    (another lattice by size) only its members are kept.
    """
    out: list[int] = []
    k = 1
    while base := levels.get(k - 1):
        cur = levels.get(k, ())
        keep = within.get(k, ()) if within is not None else None
        for f in base:
            rem = used & -(1 << f.bit_length())
            while rem:
                b = rem & -rem
                rem ^= b
                g = f | b
                if g in cur or (keep is not None and g not in keep):
                    continue
                if all((g ^ (1 << v)) in base for v in iter_bits(f)):
                    out.append(g)
        k += 1
    return out


def minimal_nonface_masks(cx: SimplicialComplex, over_universe: bool = False) -> list[int]:
    """Inclusion-minimal nonfaces as masks.

    By default only subsets of the used vertex set are considered; with
    ``over_universe`` unused vertices contribute singleton nonfaces (the
    convention needed for Alexander duality on a fixed universe).
    """
    out = _minimal_outside(cx.faces_by_size(), cx.used_mask)
    if over_universe:
        out.extend(1 << v for v in cx.unused_vertices)
    return sorted(out, key=_canonical_key)


def minimal_nonfaces(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    """Minimal nonfaces over the used vertex set, as sorted vertex tuples."""
    return [vertices_of(m) for m in minimal_nonface_masks(cx)]


def smallest_nonface_size(f: Sequence[int]) -> int | None:
    """Cardinality of the smallest nonface, read off the f-vector ``f_0..f_{d-1}``.

    ``f[0]`` counts the used vertices, and every k-subset of them is a face
    exactly when ``f[k-1] == C(f[0], k)``.  So m is the first k >= 2 at
    which the count falls short, taking ``f_d = 0``; None for a full simplex
    or the empty f-vector.
    """
    counts = (*f, 0)
    return next((k for k in range(2, len(counts) + 1) if counts[k - 1] < comb(f[0], k)), None)


def boundary_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the ridges lying in exactly one facet.

    Requires a pure complex in which every ridge lies in at most two
    facets.  The result may be the void complex (no boundary), which is
    how closed pseudomanifolds like spheres come out.
    """
    if not cx.facets:
        raise ValueError("void complex has no boundary")
    if not cx.is_pure:
        raise ValueError("not pure")
    counts: Counter[int] = Counter()
    for f in cx.facets:
        m = f
        while m:
            b = m & -m
            counts[f ^ b] += 1
            m ^= b
    bad = [r for r, c in counts.items() if c > 2]
    if bad:
        raise ValueError(
            f"not a pseudomanifold: ridge {vertices_of(bad[0])} lies in {counts[bad[0]]} facets"
        )
    bnd = [r for r, c in counts.items() if c == 1]
    return SimplicialComplex(cx.n, bnd, cx.labels)


def minimal_inside_faces(
    cx: SimplicialComplex, boundary: SimplicialComplex | None = None
) -> list[tuple[int, ...]]:
    """Inclusion-minimal faces of the complex not lying on its boundary.

    These index the generators of the canonical ideal of a ball; their
    cardinalities are the generator degrees.  They are the minimal sets
    outside the boundary's face lattice that are faces of the complex.
    """
    if boundary is None:
        boundary = boundary_complex(cx)
    if not boundary.facets:
        raise ValueError("no boundary (sphere input?)")
    out = _minimal_outside(boundary.faces_by_size(), cx.used_mask, within=cx.faces_by_size())
    return [vertices_of(m) for m in sorted(out, key=_canonical_key)]


# ---------------------------------------------------------------------------
# text format


def complex_to_text(cx: SimplicialComplex) -> str:
    """Serialize: "n=<int>", optional "labels=<comma-separated>", one facet per line."""
    lines = [f"n={cx.n}"]
    if cx.labels is not None:
        lines.append("labels=" + ",".join(cx.labels))
    for f in cx.facets:
        lines.append(" ".join(str(v) for v in vertices_of(f)))
    return "\n".join(lines) + "\n"


def complex_from_text(text: str) -> SimplicialComplex:
    return complex_from_text_with_order(text)[0]


def complex_from_text_with_order(text: str) -> tuple[SimplicialComplex, list[int]]:
    """Parse a complex file; also return the file's facet order.

    The order lists canonical facet indices in the sequence the file gave
    them (duplicates and absorbed facets dropped), which a caller can use
    as a shelling-order candidate.  A malformed line raises ValueError
    naming its line number in the file and the expected form.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    (i, head), *rest = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")] or [(1, "")]
    if not (head.startswith("n=") and head[2:].strip().isdecimal()):
        raise ValueError(f"line {i}: expected n=<int> with n >= 0, got {head!r}")
    n = int(head[2:])
    labels = None
    if rest and rest[0][1].startswith("labels="):
        labels = rest.pop(0)[1][len("labels=") :].split(",")
    facets = []
    for i, ln in rest:
        if not all(tok.isdecimal() and int(tok) < n for tok in ln.split()):
            raise ValueError(f"line {i}: expected integer vertex indices below n={n}, got {ln!r}")
        facets.append([int(tok) for tok in ln.split()])
    cx = build_complex(facets, n, labels)
    pos = {m: k for k, m in enumerate(cx.facets)}
    order: list[int] = []
    for fs in facets:
        k = pos.get(mask_of(fs))
        if k is not None and k not in order:
            order.append(k)
    return cx, order


def write_complex_file(cx: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(complex_to_text(cx))


def read_complex_file(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_text(fh.read())
