"""Exact combinatorics of abstract simplicial complexes on small vertex sets.

Faces are integer bit masks over a fixed universe of at most 128 vertices,
so containment tests are single AND operations and face enumeration works
on plain sets of ints.  Everything here is exact integer arithmetic: f- and
h-vectors, boundary complexes, minimal nonfaces (their least size read off
the f-vector), minimal inside faces and multiplicities.  No floats anywhere.
Minimal nonfaces and minimal inside faces are the minimal vertex covers of
facet complements (see `minimal_vertex_covers`), so they need no faces.
The face lattice serves only `f_vector` and the Betti walk's face bitsets
in `homology`; a complex whose facets have at least ``2^u`` subsets in
all, ``u`` its used vertices, has its f-vector counted by bit operations
on a ``2^u``-bit set instead (see `f_vector`).

Conventions:

* a complex is stored by its inclusion-maximal faces (facets);
* the "empty complex" is the complex whose only face is the empty set,
  written as the single facet mask 0;
* unused vertices (universe members on no facet) are tolerated and kept in
  the universe ``n``, never silently dropped, so labeled grids keep stable
  coordinates; f-vectors and minimal nonfaces count the used vertices only.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 128
CUBE_VERTEX_BOUND = 30  # a vertex cube of 2^30 bits takes 128 MiB


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


_SWAP_01 = str.maketrans("01", "10")


def _canonical_key(mask: int) -> tuple[int, str]:
    """Sort key: size, then vertex tuples in lex order, for masks of any width.

    The string lists the bits from vertex 0 up, with 0 and 1 swapped.  Of two
    masks of one size, the first lies in the one holding the lowest vertex of
    their symmetric difference, which is the position where the strings first
    differ; neither string is a prefix of the other, as the sizes agree.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_SWAP_01))


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal members of a family of nonnegative masks, in canonical order.

    The masks are walked in canonical order, and each vertex maps to the
    bitset of kept positions whose mask holds it.  A kept mask lies inside
    ``m`` exactly when it avoids every vertex outside ``m``, so ``m`` is
    kept when the OR of those vertices' bitsets covers every kept position.
    A mask inside ``m`` other than ``m`` is smaller, so it comes earlier in
    canonical order: every candidate is kept or dropped before ``m`` is
    judged.  Maximal masks are the complements of the minimal complements.
    """
    out: list[int] = []
    holding: dict[int, int] = {}  # vertex -> bitset of kept positions whose mask holds it
    used = 0  # union of the kept masks
    for m in sorted(set(masks), key=_canonical_key):
        leaving = 0  # kept positions whose mask holds a vertex outside m
        for v in iter_bits(used & ~m):
            leaving |= holding[v]
        if leaving.bit_count() == len(out):
            for v in iter_bits(m):
                holding[v] = holding.get(v, 0) | 1 << len(out)
            used |= m
            out.append(m)
    return out


def minimal_vertex_covers(supports: list[int]) -> list[int]:
    """All inclusion-minimal vertex covers (as masks) of a set of support masks, sorted.

    Berge's transversal step (C. Berge, *Hypergraphs*, 1989, ch. 2) adds one
    support ``s`` at a time to the minimal covers ``M`` of the supports seen
    so far.  Every minimal cover of the longer family is a member of ``M``
    that meets ``s`` (kept) or ``c | v`` with ``c`` in ``M`` missing ``s``
    and ``v`` in ``s`` (new).  A kept cover stays minimal: each proper
    subset already misses a seen support.  A new ``c | v`` is not minimal
    exactly when some kept ``o`` holding ``v`` has ``o - v`` inside ``c``:

    - a new ``c' | v'`` inside ``c | v`` has ``c'`` inside ``c``, as ``c'``
      misses ``v``, so ``c' = c`` and then ``v' = v``, since ``c`` misses
      ``s``; so two new covers are equal or incomparable;
    - a kept ``o`` inside ``c | v`` holds ``v``, for otherwise it would lie
      in ``c``, while two members of ``M`` are equal or incomparable and
      ``o`` meets ``s`` where ``c`` does not;
    - conversely such an ``o`` is not ``c | v`` itself, as then ``c = o -
      v`` would be a cover of the seen supports strictly inside ``o``.

    So the new covers are checked against the kept ones only, and they
    never come twice.  The empty family has the one cover 0; a family
    holding the empty support has none.  A negative support mask holds no
    finite vertex set and raises ValueError.
    """
    supports = sorted(set(supports))
    if supports and supports[0] < 0:
        raise ValueError(f"vertex out of range: support mask {supports[0]} is negative")
    covers = [0]
    for s in supports:
        missing = [c for c in covers if not c & s]
        if missing:
            covers = [c for c in covers if c & s]
            for v in iter_bits(s):
                below = [o ^ 1 << v for o in covers if o >> v & 1]
                covers += [c | 1 << v for c in missing if all(o & ~c for o in below)]
    return sorted(covers)


class SimplicialComplex:
    """Immutable simplicial complex on vertices ``0..n-1`` given by facets."""

    __slots__ = ("n", "facets", "labels", "_faces")

    def __init__(self, n: int, facet_masks: Iterable[int], labels: Sequence[str] | None = None):
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex universe capped at {MAX_VERTICES}, got n={n}")
        masks = sorted(set(facet_masks), key=_canonical_key)
        if max(masks, default=0) >> n or min(masks, default=0) < 0:
            raise ValueError("vertex out of range")
        # keep the maximal masks; same-size masks never contain one another
        if len({m.bit_count() for m in masks}) > 1:
            full = (1 << n) - 1
            complements = minimal_masks(full ^ m for m in masks)
            masks = sorted((full ^ g for g in complements), key=_canonical_key)
        self.n = n
        self.facets: tuple[int, ...] = tuple(masks)
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
    """Face counts by dimension, ``f[i]`` = number of i-dimensional faces.

    Let ``u`` be the number of used vertices.  When the facets have at least
    as many subsets in all as the vertex cube has positions, ``2^u <=
    sum(2^|F|)``, the lattice could hold as many faces as the cube has
    bits, and the faces are counted in the cube instead: a bitset of ``2^u``
    bits (held as ints of up to ``2^16`` bits), bit ``g`` standing for the
    subset ``g`` of the used vertices renumbered ``0..u-1``.  The facets'
    bits are set, and then, for each vertex ``i``, every bit ``g`` with bit
    ``i`` of ``g`` clear takes the bit ``g + 2^i``.  A subset of a facet
    sheds the facet's other vertices one at a time, so exactly the faces
    end up set, and ``f_{k-1}`` is the number of set bits whose position
    has ``k`` ones.  All of it is integer bit arithmetic, so the counts are
    exact.  The cube is taken only while ``u <= CUBE_VERTEX_BOUND``; past
    that bound such a complex raises ``ValueError`` instead of allocating
    ``2^u`` bits.  Any other complex is counted off its face lattice, which
    stays cached for later readers.
    """
    if not cx.facets:
        return ()
    d = cx.dim + 1
    used = vertices_of(cx.used_mask)
    u = len(used)
    if 1 << u > sum(1 << f.bit_count() for f in cx.facets):
        levels = cx.faces_by_size()
        return tuple(len(levels.get(k, ())) for k in range(1, d + 1))
    if u > CUBE_VERTEX_BOUND:
        raise ValueError(f"{u} used vertices, past the count bound {CUBE_VERTEX_BOUND}")
    place = {v: 1 << i for i, v in enumerate(used)}
    c = min(u, 16)  # the cube is cut into chunks of 2^c positions, one int each
    size = max((1 << c) >> 3, 1)  # bytes per chunk
    bits = bytearray(size << (u - c))
    for f in cx.facets:
        g = sum(place[v] for v in iter_bits(f))
        bits[g >> 3] |= 1 << (g & 7)
    chunks = [int.from_bytes(bits[h : h + size], "little") for h in range(0, len(bits), size)]
    for i in range(u - c):  # vertex c + i: chunk h takes chunk h + 2^i
        for h in range(len(chunks)):
            if not h >> i & 1:
                chunks[h] |= chunks[h | 1 << i]
    full = low = (1 << (1 << c)) - 1
    shifts = []  # vertex i < c: (2^i, the positions below 2^c whose bit i is clear)
    for i in reversed(range(c)):
        low ^= (low << (1 << i)) & full
        shifts.append((1 << i, low))
    level = [1]  # level[k]: the positions below 2^c with k ones
    for i in range(c):
        level = [a | b << (1 << i) for a, b in zip(level + [0], [0] + level)]
    counts = [0] * (u + 1)
    for h, chunk in enumerate(chunks):
        for s, clear in shifts:
            chunk |= (chunk >> s) & clear
        for k, positions in enumerate(level, h.bit_count()):
            counts[k] += (chunk & positions).bit_count()
    return tuple(counts[1 : d + 1])


def h_vector(f: Sequence[int]) -> tuple[int, ...]:
    """Binomial transform of the f-vector f_0..f_{d-1}; returns h_0..h_d."""
    d = len(f)
    fm = (1, *f)  # fm[i] = f_{i-1}
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * fm[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def f_from_h(h: Sequence[int]) -> tuple[int, ...]:
    """Inverse transform; returns f_0..f_{d-1} from h_0..h_d."""
    d = len(h) - 1
    return tuple(
        sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, d + 1)
    )


def multiplicity(cx: SimplicialComplex) -> int:
    """Facet count of a pure complex; cross-checked against sum(h)."""
    if not cx.is_pure:
        raise ValueError("not pure")
    t = len(cx.facets)
    h = h_vector(f_vector(cx))
    if sum(h) != t:
        raise ArithmeticError(f"h-vector sum {sum(h)} disagrees with facet count {t}")
    return t


def boundary_h_from_h(h: Sequence[int]) -> tuple[int, ...]:
    """h-vector of the boundary sphere of a ball from the ball's h-vector h_0..h_d.

    Entry j is ``sum(h[0..j]) - sum(h[d-j..d])``, the partial-sum difference
    transform valid for shellable balls.
    """
    return tuple(sum(h[: j + 1]) - sum(h[-j - 1 :]) for j in range(len(h) - 1))


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


def minimal_nonface_masks(cx: SimplicialComplex) -> list[int]:
    """Inclusion-minimal nonfaces over the used vertex set, as masks in canonical order.

    A set of used vertices is a nonface exactly when it meets ``used ^ F``
    for every facet ``F``, so these are the minimal covers of the facet
    complements, found without a face lattice.  Unused vertices are not
    counted as nonfaces; the void complex has none.
    """
    if not cx.facets:
        return []
    used = cx.used_mask
    return sorted(minimal_vertex_covers([used ^ f for f in cx.facets]), key=_canonical_key)


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


def minimal_inside_faces(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    """Inclusion-minimal faces of the complex not lying on its boundary.

    These index the generators of the canonical ideal of a ball; their
    cardinalities are the generator degrees.  A face off the boundary whose
    proper subsets all lie on it is a minimal nonface of the boundary, so
    they are the boundary's minimal nonfaces that lie in a facet.  Those are
    the minimal covers of ``used ^ B`` over the boundary facets ``B``, with
    ``used`` the ball's used vertices, so an interior vertex comes out as a
    singleton; no face lattice is built.
    """
    boundary = boundary_complex(cx)
    if not boundary.facets:
        raise ValueError("no boundary (sphere input?)")
    used = cx.used_mask
    minimal = minimal_vertex_covers([used ^ b for b in boundary.facets])
    inside = [g for g in minimal if any(g & ~f == 0 for f in cx.facets)]
    return [vertices_of(m) for m in sorted(inside, key=_canonical_key)]


# ---------------------------------------------------------------------------
# text format


def complex_to_text(cx: SimplicialComplex, order: Sequence[int]) -> str:
    """Serialize: "n=<int>", optional "labels=<comma-separated>", one facet per line.

    The facet lines follow `order`, a permutation of the canonical facet
    indices (a shelling order, say), so `complex_from_text_with_order`
    reads back both the complex and `order`.  The format has no line for an
    empty facet, so the void complex and the empty complex (only the empty
    face) raise ValueError, as does a label the labels line cannot hold: one
    with a comma or a line break, or with leading or trailing whitespace.
    """
    for label in cx.labels or ():
        if "," in label or label != label.strip() or len(label.splitlines()) > 1:
            raise ValueError(f"label {label!r} holds a comma or a line break, or is not stripped")
    if not cx.facets:
        raise ValueError("the void complex has no facet, and the text format needs a facet line")
    if cx.facets == (0,):
        raise ValueError("the text format has no line for an empty facet")
    if sorted(order) != list(range(len(cx.facets))):
        raise ValueError("order is not a permutation of the facet indices")
    lines = [f"n={cx.n}"]
    if cx.labels is not None:
        lines.append("labels=" + ",".join(cx.labels))
    for k in order:
        lines.append(" ".join(str(v) for v in vertices_of(cx.facets[k])))
    return "\n".join(lines) + "\n"


def complex_from_text_with_order(text: str) -> tuple[SimplicialComplex, list[int]]:
    """Parse a complex file; also return the file's facet order.

    The order lists canonical facet indices in the sequence the file gave
    them (duplicates and absorbed facets dropped); for a file written by
    `complex_to_text(cx, order)` it is `order`.  A malformed line, or a
    file that ends before its first facet line, raises ValueError naming
    its line number in the file and the expected form.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    (i, head), *rest = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")] or [(1, "")]
    if not (head.startswith("n=") and head[2:].strip().isdecimal()):
        raise ValueError(f"line {i}: expected n=<int> with n >= 0, got {head!r}")
    n = int(head[2:])
    labels = None
    if rest and rest[0][1].startswith("labels="):
        i, ln = rest.pop(0)
        labels = ln[len("labels=") :].split(",")
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError(f"line {i}: expected {n} distinct comma-separated labels, got {ln!r}")
    if not rest:
        raise ValueError(f"line {len(lines) + 1}: expected a facet line, got end of file")
    facets = []
    for i, ln in rest:
        if not all(tok.isdecimal() and int(tok) < n for tok in ln.split()):
            raise ValueError(f"line {i}: expected integer vertex indices below n={n}, got {ln!r}")
        facet = [int(tok) for tok in ln.split()]
        if len(set(facet)) != len(facet):
            raise ValueError(f"line {i}: expected distinct vertex indices, got {ln!r}")
        facets.append(facet)
    cx = build_complex(facets, n, labels)
    pos = {m: k for k, m in enumerate(cx.facets)}
    masks = (mask_of(fs) for fs in facets)
    return cx, list(dict.fromkeys(pos[m] for m in masks if m in pos))
