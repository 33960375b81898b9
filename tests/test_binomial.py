"""Exact-rational cross-checks of the binomial tail helpers.

Fraction arithmetic gives an independent, roundoff-free oracle; the float
helpers must agree to within a few ulp.
"""

import math
import random
from fractions import Fraction

import pytest

from espd import binomial


def frac_pmf(n, x, j):
    return math.comb(n, j) * x**j * (1 - x) ** (n - j)


def frac_tail(n, x, m):
    m = max(m, 0)
    return sum(frac_pmf(n, x, j) for j in range(m, n + 1))


def frac_conv_tail(n1, x, n2, y, m):
    total = Fraction(0)
    for j1 in range(n1 + 1):
        for j2 in range(n2 + 1):
            if j1 + j2 >= m:
                total += frac_pmf(n1, x, j1) * frac_pmf(n2, y, j2)
    return total


def dyadic(rng):
    # Exactly representable as float, so the comparison is pure roundoff.
    return Fraction(rng.randint(0, 64), 64)


def test_tail_matches_exact_rational():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 20)
        m = rng.randint(0, n + 1)
        x = dyadic(rng)
        got = binomial.tail(n, float(x), m)
        want = float(frac_tail(n, x, m))
        assert got == pytest.approx(want, abs=1e-14)


def test_conv_tail_matches_exact_rational():
    rng = random.Random(202)
    for _ in range(200):
        n1 = rng.randint(0, 8)
        n2 = rng.randint(0, 8)
        m = rng.randint(0, n1 + n2 + 1)
        x, y = dyadic(rng), dyadic(rng)
        got = binomial.conv_tail(n1, float(x), n2, float(y), m)
        want = float(frac_conv_tail(n1, x, n2, y, m))
        assert got == pytest.approx(want, abs=1e-14)


def test_pmf_edges():
    assert binomial.pmf(5, 0.0, 0) == 1.0
    assert binomial.pmf(5, 0.0, 1) == 0.0
    assert binomial.pmf(5, 1.0, 5) == 1.0
    assert binomial.pmf(5, 0.3, -1) == 0.0
    assert binomial.pmf(5, 0.3, 6) == 0.0


def test_tail_edges():
    assert binomial.tail(5, 0.3, 0) == 1.0
    assert binomial.tail(5, 0.3, -2) == 1.0
    assert binomial.tail(5, 0.3, 6) == 0.0
    assert binomial.tail(5, 0.0, 1) == 0.0
    assert binomial.tail(5, 1.0, 5) == 1.0


def test_conv_tail_edges():
    assert binomial.conv_tail(3, 0.5, 2, 0.1, 0) == 1.0
    assert binomial.conv_tail(3, 0.5, 2, 0.1, 6) == 0.0
    assert binomial.conv_tail(3, 1.0, 2, 0.0, 3) == 1.0
    assert binomial.conv_tail(0, 0.5, 4, 0.5, 2) == binomial.tail(4, 0.5, 2)


# Edge probabilities: the endpoints, the smallest subnormal, a tiny dark-count
# scale and the largest float below 1.
EDGE_XS = [0.0, 1.0, 5e-324, 1e-30, 1 - 2**-53]


def test_tail_is_its_table_entry_bit_for_bit():
    # tail sums only the terms j >= m, in tail_table's order (j = n down)
    rng = random.Random(303)
    xs = EDGE_XS + [rng.random() for _ in range(6)] + [rng.random() ** 20 for _ in range(3)]
    for n in range(1, 65):
        for x in xs:
            table = binomial.tail_table(n, binomial.powers(x, n), binomial.powers(1.0 - x, n))
            for m in range(-1, n + 2):
                want = binomial.clamp1(table[min(max(m, 0), n + 1)])
                assert binomial.tail(n, x, m).hex() == want.hex(), (n, x, m)


def test_pmf_is_its_row_entry_bit_for_bit():
    rng = random.Random(404)
    xs = EDGE_XS + [rng.random() for _ in range(6)] + [rng.random() ** 20 for _ in range(3)]
    for n in range(1, 65):
        for x in xs:
            row = binomial.pmf_row(n, binomial.powers(x, n), binomial.powers(1.0 - x, n))
            for j in range(n + 1):
                assert binomial.pmf(n, x, j).hex() == row[j].hex(), (n, x, j)
