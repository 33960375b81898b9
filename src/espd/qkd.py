"""Minimal tolerable channel transmission for QKD given detector figures.

Below the threshold ``gamma`` the detector's dark counts push the quantum
bit error rate past the protocol's secure threshold, so ``gamma`` is the
smallest channel transmission at which key distribution stays viable.
Suppressing the dark-count rate lowers ``gamma`` proportionally; raising
the efficiency helps both ``gamma`` and the raw key rate.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dynamics import DetectorPerformance, check_number, check_prob

__all__ = ["QkdScenario", "gamma_exact", "gamma_approx"]


class QkdScenario(namedtuple("QkdScenario", "e_th e_c e", defaults=(None,))):
    """Protocol error budget: secure threshold e_th, non-detector rate e_c.

    ``e`` weighs the dark-count term in the exact denominator; it defaults
    to ``e_th`` (the most plausible reading) and is negligible whenever
    ``dcr << e_th - e_c``, so the default cannot silently skew results.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_number("e_th", self.e_th)
        check_number("e_c", self.e_c)
        # e_th == 0.5 is allowed as the degenerate boundary (gamma = 0).
        if not 0.0 <= self.e_c < self.e_th <= 0.5:
            raise ValueError(
                f"require 0 <= e_c < e_th <= 0.5, got e_c={self.e_c!r}, e_th={self.e_th!r}"
            )
        if self.e is not None:
            check_prob("e", self.e)
        return self

    @property
    def effective_e(self) -> float:
        return self.e_th if self.e is None else self.e


def _finite(gamma: float) -> float:
    # a tiny eta can overflow the quotient; inf is no threshold
    if not math.isfinite(gamma):
        raise ValueError(f"gamma is not finite ({gamma!r})")
    return gamma


def gamma_exact(scn: QkdScenario, det: DetectorPerformance) -> float:
    """gamma = (1 - 2 e_th) d / (eta [e_th - e_c + d (1 - 2 e)])."""
    if det.eta <= 0.0:
        raise ValueError("gamma requires eta > 0")
    e = scn.effective_e
    denom = det.eta * (scn.e_th - scn.e_c + det.dcr * (1.0 - 2.0 * e))
    if denom <= 0.0:
        raise ValueError(f"gamma denominator must be > 0, got {denom!r}")
    return _finite((1.0 - 2.0 * scn.e_th) * det.dcr / denom)


def gamma_approx(scn: QkdScenario, det: DetectorPerformance) -> float:
    """Small-dark-count form: (1 - 2 e_th) / (e_th - e_c) * d / eta."""
    if det.eta <= 0.0:
        raise ValueError("gamma requires eta > 0")
    return _finite((1.0 - 2.0 * scn.e_th) / (scn.e_th - scn.e_c) * det.dcr / det.eta)
