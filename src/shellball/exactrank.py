"""Exact rank of sparse integer matrices over Q, GF(2) and GF(p).

Columns are reduced against stored pivots by their largest remaining row
index, the standard sparse column reduction.  Over Q the elimination is
fraction-free: columns are combined by integer cross-multiplication and
re-normalized by their gcd, so no rationals are ever materialized and the
rank is exact.  Over GF(2) columns are plain bit masks combined by xor.
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


def _normalize(col: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


def rank_int_columns(columns: Iterable[dict[int, int]]) -> int:
    """Rank over Q of columns given as sparse {row: integer} dicts."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = _normalize(col)
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
            col = _normalize(new)
    return rank


def rank_modp_columns(columns: Iterable[dict[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of sparse integer columns."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            factor = col[low] * pow(piv[low], p - 2, p) % p
            new = dict(col)
            for r, v in piv.items():
                w = (new.get(r, 0) - factor * v) % p
                if w:
                    new[r] = w
                elif r in new:
                    del new[r]
            col = new
    return rank
