"""Polarization of powers of the graded maximal ideal and their ball complexes.

Polarizing a monomial spreads the exponent of each variable across a row of
an n x t grid of squarefree variables.  The monomials of total degree at
most t-1 (the standard monomials of the t-th power) biject with the facets
of a simplicial complex on the grid: exponent vector ``a`` maps to the set
of grid cells (i, j) with j != a[i]+1.  Ordering the facets by total degree
then lexicographically shells the complex, and its minimal nonfaces are
exactly the polarized degree-t generators.  For n >= 2 the complex is a
ball.  For n = 1 it is the boundary sphere of a (t-1)-simplex: its t
facets are the simplex's ridges, so the last step glues every ridge.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import MAX_VERTICES, SimplicialComplex, build_complex, mask_of


def grid_index(i: int, j: int, t: int) -> int:
    """Vertex index of grid cell (i, j), rows i = 1..n, columns j = 1..t."""
    return (i - 1) * t + (j - 1)


def grid_labels(n: int, t: int) -> tuple[str, ...]:
    return tuple(f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, t + 1))


def polarize(exponents, t: int) -> tuple[int, ...]:
    """Support of the polarized monomial on the n x t grid, as vertex indices."""
    out = []
    for i, a in enumerate(exponents, start=1):
        if a > t:
            raise ValueError(f"grid too small: exponent {a} exceeds t={t}")
        out.extend(grid_index(i, j, t) for j in range(1, a + 1))
    return tuple(sorted(out))


def power_generators(n: int, t: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-t monomials in n variables, lex order."""
    out = []
    for bars in combinations(range(t + n - 1), n - 1):
        prev = -1
        vec = []
        for b in bars:
            vec.append(b - prev - 1)
            prev = b
        vec.append(t + n - 2 - prev)
        out.append(tuple(vec))
    return sorted(out)


def multicomplex_facets(n: int, t: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree <= t-1, by degree then lex.

    This is the shelling order of the associated complex; the count is
    binomial(n+t-1, n).
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    return [a for k in range(t) for a in power_generators(n, k)]


def theta(a, n: int, t: int) -> tuple[int, ...]:
    """Facet attached to an exponent vector: grid cells (i,j) with j != a[i]+1."""
    if len(a) != n:
        raise ValueError("exponent vector length must be n")
    return tuple(
        grid_index(i, j, t)
        for i in range(1, n + 1)
        for j in range(1, t + 1)
        if j != a[i - 1] + 1
    )


def power_ideal_complex(n: int, t: int) -> tuple[SimplicialComplex, list[int]]:
    """Complex of the polarized t-th power plus its degree-then-lex shelling order.

    Certifying the ball (``verify_ball``) and its minimal nonfaces, the
    polarized degree-t generators, is left to callers.
    """
    if n * t > MAX_VERTICES:
        raise ValueError(f"grid size {n * t} exceeds vertex cap {MAX_VERTICES}")
    gamma = multicomplex_facets(n, t)
    images = [theta(a, n, t) for a in gamma]
    if len(set(images)) != len(images):
        raise ArithmeticError("facet map theta is not injective")
    cx = build_complex(images, n * t, labels=grid_labels(n, t))
    mask_pos = {mask: k for k, mask in enumerate(cx.facets)}
    order = [mask_pos[mask_of(img)] for img in images]
    return cx, order
