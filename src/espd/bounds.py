"""Analytical bounds and fixed-point analysis for the enhancement map.

Everything here is built on one decision polynomial

    f(x) = a * C(n, k-1) * x**(k-1) * (1-x)**(n-k+1)
           + sum_{j >= k} C(n, j) * x**j * (1-x)**(n-j)

which is monotonically increasing on [0, (k-1)/n] for a >= 0.  Substituting
the appropriate arguments yields an efficiency-independent upper bound on
the next-level dark-count rate, a dark-count-independent approximate lower
bound on the next-level efficiency, and the gain function whose roots are
the candidate steady states of constant-config iteration.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import binomial
from .dynamics import N_MAX, check_int, check_number, check_prob

__all__ = [
    "PreconditionError",
    "FixedPointReport",
    "decision_poly",
    "dcr_upper_bound",
    "dcr_estimate",
    "de_lower_bound",
    "de_gain",
    "find_fixed_points",
]

ROOT_GAIN_TOL = 1e-10
ROOT_DEDUP_TOL = 1e-9
# Largest fixed-point scan grid (library and CLI); the scan costs one gain
# evaluation and two list entries per grid point.
GRID_MAX = 1_000_000


class PreconditionError(ValueError):
    """A bound was requested outside the region where it is established."""


# Roots of the gain function on (0, 1] plus the positive-gain interval, a
# (lo, hi) pair or None.  Every root r satisfies |gain(r)| <= ROOT_GAIN_TOL;
# roots are a tuple sorted ascending and deduplicated within ROOT_DEDUP_TOL.
# Which root (if any) attracts the iteration is not designated -- the report
# is a diagnostic.
FixedPointReport = namedtuple("FixedPointReport", "roots gain_positive_interval")


def decision_poly(a: float, n: int, k: int, x: float) -> float:
    """Evaluate the decision polynomial f(x) defined above."""
    if check_number("a", a) < 0.0:
        raise ValueError(f"a must be >= 0, got {a!r}")
    check_int("n", n, 1, N_MAX)
    check_int("k", k, 1, n)
    check_prob("x", x)
    return _decision_poly(a, n, k, x)


def _decision_poly(a: float, n: int, k: int, x: float) -> float:
    """:func:`decision_poly` without its input checks."""
    return a * binomial.pmf(n, x, k - 1) + binomial.tail(n, x, k)


def _noise_sum(d_s: float, Q: float, n: int, k: int) -> float:
    """Check the dark-count inputs and return their sum ``x = Q + d_s``."""
    check_prob("d_s", d_s)
    check_prob("Q", Q)
    x = Q + d_s
    if x > 1.0:
        raise ValueError(f"Q + d_s must be <= 1, got {x!r}")
    check_int("n", n, 1, N_MAX)
    check_int("k", k, 1, n)
    return x


def dcr_upper_bound(d_s: float, Q: float, n: int, k: int) -> float:
    """Efficiency-independent upper bound on the next-level dark-count rate.

    Valid where the decision polynomial is monotone, i.e. requires
    ``k - 1 >= n * (Q + d_s)``; outside that region the bound is not
    established and a :class:`PreconditionError` is raised.
    """
    x = _noise_sum(d_s, Q, n, k)
    if k - 1 < n * x:
        raise PreconditionError(
            f"dcr_upper_bound requires k - 1 >= n * (Q + d_s); "
            f"got k={k}, n={n}, Q + d_s = {x!r}"
        )
    return decision_poly(d_s, n, k, x)


def dcr_estimate(d_s: float, Q: float, n: int, k: int) -> float:
    """Leading-order estimate of the next-level dark-count rate.

    Keeps only the two dominant terms of the upper bound; intended for the
    small-probability regime ``C(n, j) * (Q + d_s) << 1`` (not enforced).
    """
    x = _noise_sum(d_s, Q, n, k)
    return x ** (k - 1) * (d_s * math.comb(n, k - 1) + math.comb(n, k) * x)


def de_lower_bound(eta_s: float, p: float, P: float, n: int, k: int) -> float:
    """Approximate lower bound on the next-level efficiency.

    Keeps only the survive-all-modules contribution and replaces the
    per-detector probabilities by their dark-count-free approximations, so
    the value depends only on (eta_s, p, P, n, k).  Approximate: the two
    substitutions shrink the exact survive term, but the overall expression
    is a bound on the exact map only up to those approximations.
    """
    check_prob("eta_s", eta_s)
    check_prob("p", p)
    check_prob("P", P)
    # decision_poly checks n and k before p**n uses n
    return decision_poly(eta_s, n, k, P * eta_s) * p**n


def de_gain(x: float, p: float, P: float, n: int, k: int) -> float:
    """Net one-level efficiency gain of the approximate map at efficiency x.

    Positive gain means constant-(n, k) iteration improves the efficiency at
    x; zeros are candidate steady states.
    """
    check_prob("x", x)
    return de_lower_bound(x, p, P, n, k) - x


def find_fixed_points(
    p: float, P: float, n: int, k: int, grid: int = 10000
) -> FixedPointReport:
    """Locate the roots of :func:`de_gain` on (0, 1].

    Scans a uniform grid, bisects every sign change down to
    ``|gain| <= ROOT_GAIN_TOL``, and also accepts exact zeros at grid
    points.  The positive-gain interval is reported at grid resolution.
    An empty root tuple is a valid outcome.
    """
    check_int("grid", grid, 100, GRID_MAX)
    # de_gain's checks, in its order, once; the scan's x are all in (0, 1]
    check_prob("p", p)
    check_prob("P", P)
    check_int("n", n, 1, N_MAX)
    check_int("k", k, 1, n)
    pn = p**n

    def gain(x: float) -> float:  # de_gain's arithmetic, in its order
        return _decision_poly(x, n, k, P * x) * pn - x

    xs = [i / grid for i in range(1, grid + 1)]
    gs = [gain(x) for x in xs]

    roots: list[float] = []
    for x, g in zip(xs, gs):
        if g == 0.0:
            roots.append(x)
    for i in range(len(xs) - 1):
        if gs[i] * gs[i + 1] < 0.0:
            roots.append(_bisect(gain, xs[i], xs[i + 1], gs[i], gs[i + 1]))

    roots.sort()
    dedup: list[float] = []
    for r in roots:
        if not dedup or r - dedup[-1] > ROOT_DEDUP_TOL:
            dedup.append(r)
    dedup = [r for r in dedup if abs(gain(r)) <= ROOT_GAIN_TOL]

    pos = [x for x, g in zip(xs, gs) if g > 0.0]
    interval = (pos[0], pos[-1]) if pos else None
    return FixedPointReport(tuple(dedup), interval)


def _bisect(fn, lo: float, hi: float, flo: float, fhi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if abs(fm) <= ROOT_GAIN_TOL:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
