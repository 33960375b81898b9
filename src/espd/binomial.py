"""Exact binomial tail and binomial-convolution tail sums.

Every value is built from ``+ - *`` alone: powers by repeated
multiplication, coefficients from ``math.comb`` rounded once to float, and
tail tables accumulated smallest-first (descending count index) so the tiny
tail masses that drive dark-count suppression keep full double precision.
:func:`tail` sums only the terms at or above its threshold, in that same
descending order, so it rounds exactly like the matching table entry.
The helpers take a Python float or a float64 ndarray for the success
probability and perform the same sequence of IEEE operations elementwise,
so a scalar and a batch evaluation round identically.  Success
probabilities must lie in [0, 1]; the endpoints need no special case, as
the zero powers make the degenerate terms exactly 0.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

__all__ = [
    "powers",
    "pmf_row",
    "tail_table",
    "row_tails",
    "conv_tail_from",
    "clamp1",
    "pmf",
    "tail",
    "conv_tail",
]


def clamp1(v):
    """``min(v, 1)`` for a float or, elementwise, an ndarray."""
    if isinstance(v, float):
        return min(v, 1.0)
    # np.minimum, which ndarray.clip with only a max calls through a Python
    # wrapper; an ndarray means numpy is loaded, so binomial need not import it
    return sys.modules["numpy"].minimum(v, 1.0)


def powers(x, n: int) -> list:
    """``[x**0, x**1, ..., x**n]`` by repeated multiplication."""
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


@lru_cache(maxsize=128)
def _comb_row(n: int) -> tuple[float, ...]:
    return tuple(float(math.comb(n, j)) for j in range(n + 1))


def pmf_row(n: int, xp: list, yp: list) -> list:
    """``[P[Binomial(n, x) == j] for j in 0..n]``.

    ``xp`` and ``yp`` are :func:`powers` of ``x`` and ``1 - x`` up to at
    least ``n``, so callers can share them across sizes.
    """
    c = _comb_row(n)
    return [c[j] * xp[j] * yp[n - j] for j in range(n + 1)]


def tail_table(n: int, xp: list, yp: list) -> list:
    """``[P[Binomial(n, x) >= m] for m in 0..n+1]`` from shared powers.

    The :func:`row_tails` of :func:`pmf_row`.
    """
    return row_tails(pmf_row(n, xp, yp))


def row_tails(row: list) -> list:
    """``[P[X >= m] for m in 0..n+1]`` from X's pmf row ``[P[X == j] for j in 0..n]``.

    Entry 0 is exactly 1 and entry ``n + 1`` exactly 0; the others are the
    row's terms summed from ``j = n`` down to ``m``.  Rounding can lift a sum
    an ulp above 1; callers clamp what they return.
    """
    n = len(row) - 1
    table = [1.0] + [0.0] * (n + 1)
    acc = 0.0
    for j in range(n, 0, -1):
        acc = acc + row[j]
        table[j] = acc
    return table


def conv_tail_from(row1: list, tails1: list, table2: list, m: int):
    """P[X1 + X2 >= m] from X1's pmf row and :func:`row_tails`, and X2's tail table.

    The first counts ``j1 >= m`` alone reach m: their mass, summed from the
    top down, is X1's tail at m (``x * 1.0`` and ``0.0 + x`` are exact, so
    it is the same sum as adding each such count times X2's tail at
    ``m - j1 <= 0``, which is 1).  Each lower count j1 (descending) then
    adds its mass times X2's tail at ``m - j1``; counts that leave more
    than X2 can supply add nothing and are skipped.
    """
    if m <= 0:
        return 1.0
    n1, n2 = len(row1) - 1, len(table2) - 2
    top = min(m, n1 + 1)
    acc = tails1[top]
    for j1 in range(top - 1, max(m - n2, 0) - 1, -1):
        acc = acc + row1[j1] * table2[m - j1]
    return clamp1(acc)


def pmf(n: int, x: float, j: int) -> float:
    """P[Binomial(n, x) == j]."""
    if j < 0 or j > n:
        return 0.0
    # powers only as high as this term needs
    return _comb_row(n)[j] * powers(x, j)[j] * powers(1.0 - x, n - j)[n - j]


def tail(n: int, x: float, m: int) -> float:
    """P[Binomial(n, x) >= m].

    ``m <= 0`` returns exactly 1 and ``m > n`` exactly 0, which lets callers
    pass shifted vote thresholds without special-casing.  Only the terms
    ``j >= m`` are summed, from ``j = n`` down as in :func:`tail_table`, so
    the value is that table's entry ``m`` clamped, bit for bit.
    """
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    c, xp, y = _comb_row(n), powers(x, n), 1.0 - x
    acc, yq = 0.0, 1.0  # yq = y**(n - j), by the same products as powers(y, n)
    for j in range(n, m - 1, -1):
        acc = acc + c[j] * xp[j] * yq
        yq = yq * y
    return clamp1(acc)


def conv_tail(n1: int, x: float, n2: int, y: float, m: int) -> float:
    """P[Binomial(n1, x) + Binomial(n2, y) >= m].

    Exact convolution tail over the two independent counts: for every first
    count j1 the remaining mass is the second binomial's tail at ``m - j1``.
    """
    row1 = pmf_row(n1, powers(x, n1), powers(1.0 - x, n1))
    table2 = tail_table(n2, powers(y, n2), powers(1.0 - y, n2))
    return conv_tail_from(row1, row_tails(row1), table2, m)
