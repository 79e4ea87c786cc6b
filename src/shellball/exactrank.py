"""Exact rank of sparse integer matrices over Q, GF(2) and GF(p).

Columns are reduced against stored pivots by their largest remaining row
index, the standard sparse column reduction.  Over Q and over GF(p) for
any prime p the elimination is one fraction-free loop: a column whose
largest row holds a pivot becomes ``a*col - b*piv``, with ``a`` the
pivot's entry and ``b`` the column's entry at that row, which clears the
row over Z and over Z/p alike.  Only the normal form the column is then
put in depends on the ring: over Q it is divided by the gcd of its
entries, so no rationals are ever materialized and the rank is exact;
over GF(p) its entries are reduced mod p and the zeros dropped, so every
pivot entry is a unit.  Over GF(2) columns are plain bit masks combined
by xor.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


def rank_gf2_columns(columns: Iterable[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            col ^= piv
    return rank


def _normalize(col: dict[int, int], p: int) -> dict[int, int]:
    """The column without zero entries, reduced mod p over Z/p and divided
    by the gcd of its entries over Z."""
    if p:
        return {r: w for r, v in col.items() if (w := v % p)}
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            if 0 not in col.values():
                return col
            break
    # g is 0 only when every entry is, and then nothing is divided
    return {r: v // g for r, v in col.items() if v}


def rank_int_columns(columns: Iterable[dict[int, int]], p: int = 0) -> int:
    """Rank of columns given as sparse {row: integer} dicts, over Q when p
    is 0 and over GF(p), p prime, otherwise."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = _normalize(col, p)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            a, b = piv[low], col[low]
            new = {r: v * a for r, v in col.items()}
            for r, v in piv.items():
                w = new.get(r, 0) - v * b
                if w:
                    new[r] = w
                elif r in new:
                    del new[r]
            col = _normalize(new, p)
    return rank
