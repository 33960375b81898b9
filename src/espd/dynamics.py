"""Level map of the cascaded detector-enhancement scheme and its iteration.

One enhancement level wraps a base detector stage in ``n`` controlled-gate
modules, detects the signal path plus the ``n`` auxiliary paths with
stage-level detectors, and reports positive iff at least ``k`` of the
``n + 1`` detectors fire.  The map sends the stage figures of merit
``(eta, dcr)`` — efficiency on a non-vacuum input, false-positive rate on a
vacuum input — to the figures of the wrapped stage.

The decomposition mirrors the physics: a signal photon either survives all
``n`` modules (weight ``p**n``) or is lost right after module ``i`` (weight
``p**(i-1) * (1-p)``, having activated gates ``1..i``), and conditioned on
the loss scenario every detector fires independently with one of four
per-level probabilities (``p_pos``/``q_pos`` for auxiliaries fed by a
non-vacuum/vacuum gate input, ``p_sig``/``q_sig`` for the signal detector).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import binomial

__all__ = [
    "N_MAX",
    "MAX_LEVELS",
    "check_number",
    "check_int",
    "check_prob",
    "DetectorPerformance",
    "ComponentParams",
    "LevelConfig",
    "Schedule",
    "LevelIntermediates",
    "TrajectoryPoint",
    "Trajectory",
    "ConvergenceRule",
    "firing_probs",
    "level_intermediates",
    "approx_intermediates",
    "level_figures",
    "de_loss_case",
    "de_survive_case",
    "level_map",
    "iterate_schedule",
    "effective_transmission",
]

# Hard cap on controlled modules per level, shared by every entry point
# (library, CLI, bounds); the level map costs O(n**2) operations per state.
N_MAX = 64
# Hard cap on iterated levels (library and CLI), so a run's work is bounded.
MAX_LEVELS = 1000


def check_number(name: str, value) -> float:
    """Return ``value`` as a float if it is a finite real number, else raise ValueError.

    The one real-number check of the package: rejects ``bool``, anything
    that is not a real number (strings included), NaN and infinities.
    """
    if type(value) is not float:
        # bool is an int subclass, but True/False are not numbers here
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(
                f"{name} must be finite, got an integer beyond the float range"
            ) from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """Return ``value`` if it is an int in ``[lo, hi]``, else raise ValueError.

    The one integer check of the package: rejects ``bool`` and every
    non-int (``2.0`` and ``"3"`` included).  ``hi=None`` leaves the range
    open above.
    """
    # bool is an int subclass, but True/False are not counts
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def check_prob(name: str, value) -> float:
    """Return ``value`` as a float if it is a probability, else raise ValueError.

    The one probability check of the package: :func:`check_number`, then
    values outside [0, 1] (NaN included) are rejected.
    """
    if type(value) is not float:
        value = check_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class DetectorPerformance:
    """A detector stage's efficiency/dark-count pair (both probabilities)."""

    eta: float
    dcr: float

    def __post_init__(self) -> None:
        check_prob("eta", self.eta)
        check_prob("dcr", self.dcr)


@dataclass(frozen=True)
class ComponentParams:
    """Intrinsic constants of one (non-cascaded) controlled-gate module.

    p      -- signal-path transmission through a single module
    P_act  -- probability the auxiliary path is non-vacuum before detection
              given a non-vacuum module input
    Q_err  -- same probability given a vacuum input (auxiliary SPAM error
              floor, detection excluded)

    The constants are module-level and do not degrade with cascade depth;
    cumulative loss enters through the level map's scenario weights.
    """

    p: float
    P_act: float
    Q_err: float

    def __post_init__(self) -> None:
        check_prob("p", self.p)
        check_prob("P_act", self.P_act)
        check_prob("Q_err", self.Q_err)


@dataclass(frozen=True)
class LevelConfig:
    """Per-level choice: n controlled modules, vote threshold k."""

    n: int
    k: int

    def __post_init__(self) -> None:
        check_int("n", self.n, 1, N_MAX)
        check_int("k", self.k, 1, self.n)


@dataclass(frozen=True)
class Schedule:
    """Ordered per-level configs plus the shared module constants."""

    params: ComponentParams
    levels: tuple[LevelConfig, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) == 0:
            raise ValueError("schedule must contain at least one level")
        for cfg in self.levels:
            if not isinstance(cfg, LevelConfig):
                raise ValueError("schedule levels must be LevelConfig instances")


@dataclass(frozen=True)
class LevelIntermediates:
    """Per-detector positive-report probabilities for one level.

    p_pos / q_pos -- auxiliary detector fires, non-vacuum / vacuum gate input
    p_sig / q_sig -- signal detector fires, photon survived / was lost
    """

    p_pos: float
    q_pos: float
    p_sig: float
    q_sig: float

    def __post_init__(self) -> None:
        check_prob("p_pos", self.p_pos)
        check_prob("q_pos", self.q_pos)
        check_prob("p_sig", self.p_sig)
        check_prob("q_sig", self.q_sig)


@dataclass(frozen=True)
class TrajectoryPoint:
    level: int
    config: LevelConfig | None
    perf: DetectorPerformance


@dataclass(frozen=True)
class Trajectory:
    """Performance sequence produced by iterating the level map.

    ``points[0]`` is the seed detector (no config); every later point carries
    the config that produced it.
    """

    points: tuple[TrajectoryPoint, ...]
    converged: bool = False
    converged_at: int | None = None

    def final(self) -> DetectorPerformance:
        return self.points[-1].perf


@dataclass(frozen=True)
class ConvergenceRule:
    """Stop rule for iteration: level cap plus absolute step tolerances.

    Iteration stops early once BOTH successive changes fall strictly below
    the tolerances; a tolerance of 0.0 therefore disables early stopping.
    """

    max_levels: int = 32
    eta_tol: float = 1e-12
    dcr_tol: float = 1e-12

    def __post_init__(self) -> None:
        check_int("max_levels", self.max_levels, 1, MAX_LEVELS)
        # a NaN tolerance compares false and would silently disable early stopping
        for name in ("eta_tol", "dcr_tol"):
            if check_number(name, getattr(self, name)) < 0.0:
                raise ValueError("tolerances must be >= 0")


def firing_probs(eta, dcr, P_act: float, Q_err: float) -> tuple:
    """Per-detector firing probabilities ``(p_pos, q_pos, p_sig, q_sig)``.

    An auxiliary path that is non-vacuum (probability P_act or Q_err
    depending on the gate input) is seen by a stage detector with efficiency
    ``eta``; a vacuum path can still fire through the dark count ``dcr``::

        p_pos = P_act * eta * (1 - dcr) + dcr
        q_pos = Q_err * eta * (1 - dcr) + dcr
        p_sig = eta + (1 - eta) * dcr
        q_sig = dcr

    Elementwise on floats or equal-shape float64 arrays.
    """
    return (
        P_act * eta * (1.0 - dcr) + dcr,
        Q_err * eta * (1.0 - dcr) + dcr,
        eta + (1.0 - eta) * dcr,
        dcr,
    )


def level_intermediates(
    det: DetectorPerformance, params: ComponentParams
) -> LevelIntermediates:
    """Exact per-detector firing probabilities for the next level.

    See :func:`firing_probs` for the formulas.
    """
    return LevelIntermediates(*firing_probs(det.eta, det.dcr, params.P_act, params.Q_err))


def approx_intermediates(
    det: DetectorPerformance, params: ComponentParams
) -> LevelIntermediates:
    """Small-dark-count approximation of :func:`level_intermediates`.

    Used only for diagnostics (table-regression variant studies); the exact
    forms are authoritative everywhere else.
    """
    eta, d = det.eta, det.dcr
    return LevelIntermediates(
        p_pos=min(params.P_act * eta, 1.0),
        q_pos=min(params.Q_err * eta + d, 1.0),
        p_sig=eta,
        q_sig=d,
    )


# The level map proper.  Every helper below works elementwise on Python
# floats or equal-shape float64 arrays with the same + - * operations in the
# same order, so the scalar path and the batch kernel round identically.


def _power_pair(x, n: int) -> tuple[list, list]:
    return binomial.powers(x, n), binomial.powers(1.0 - x, n)


def _vote(s, tails, k: int):
    # a firing signal detector (probability s) lowers the vote threshold by one
    return (1.0 - s) * tails[k] + s * tails[k - 1]


def _loss_tails(pp, py, qp, qy, n: int, i: int, ms) -> list:
    # Lost after module i: auxiliaries 1..i fire with p_pos, the other
    # n - i with q_pos; their vote tail at every count m in ms, at index m.
    row = binomial.pmf_row(i, pp, py)
    table = binomial.tail_table(n - i, qp, qy)
    tails = [None] * (n + 1)
    for m in ms:
        tails[m] = binomial.conv_tail_from(row, table, m)
    return tails


def level_figures(p_pos, q_pos, p_sig, q_sig, p: float, n: int, ks) -> list:
    """Next-level ``(de, dcr)`` for each vote threshold in the sequence ``ks``, in order.

    The one implementation of the level map: :func:`level_map` passes
    ``(k,)`` and the batch kernel every threshold of one ``n``; a
    threshold's values are the same bits either way.  Takes Python floats
    (returns floats) or equal-shape float64 arrays (returns arrays); both
    give bit-identical values.  DE mixes the loss scenarios, survive-all
    with weight ``p**n`` and lost-after-module-i with weight
    ``p**(i-1) * (1-p)``; DCR is the vacuum-input vote, where transmission
    plays no role.  Work that does not depend on k is done once, and each
    vote tail once, since threshold k reads the tails at k and k - 1.
    """
    pp, py = _power_pair(p_pos, n)
    qp, qy = _power_pair(q_pos, n)
    ms = {m for k in ks for m in (k - 1, k)}
    totals = [0.0] * len(ks)
    pw = 1.0
    for i in range(1, n + 1):
        tails = _loss_tails(pp, py, qp, qy, n, i, ms)
        w = pw * (1.0 - p)
        for j, k in enumerate(ks):
            totals[j] = totals[j] + w * _vote(q_sig, tails, k)
        pw = pw * p
    survive = binomial.tail_table(n, pp, py)
    vacuum = binomial.tail_table(n, qp, qy)
    return [
        (
            binomial.clamp1(t + pw * _vote(p_sig, survive, k)),
            binomial.clamp1(_vote(q_sig, vacuum, k)),
        )
        for t, k in zip(totals, ks)
    ]


def de_loss_case(
    inter: LevelIntermediates, config: LevelConfig, i: int
) -> float:
    """Positive-report probability given the photon was lost after module i.

    Gates ``1..i`` were activated, so ``i`` auxiliary detectors fire with
    ``p_pos`` and the remaining ``n - i`` with ``q_pos``; the signal detector
    sees vacuum (``q_sig``).  The vote tail is the convolution of the two
    auxiliary binomials, with the threshold lowered by one when the signal
    detector fires.
    """
    n, k = config.n, config.k
    if i < 1 or i > n:
        raise ValueError(f"loss position i must be in [1, n], got i={i} with n={n}")
    tails = _loss_tails(
        *_power_pair(inter.p_pos, n), *_power_pair(inter.q_pos, n), n, i, (k - 1, k)
    )
    return _vote(inter.q_sig, tails, k)


def de_survive_case(inter: LevelIntermediates, config: LevelConfig) -> float:
    """Positive-report probability given the photon survived all modules.

    All ``n`` auxiliaries fire with ``p_pos`` and the signal detector with
    ``p_sig``; a firing signal detector lowers the auxiliary vote threshold
    by one.
    """
    table = binomial.tail_table(config.n, *_power_pair(inter.p_pos, config.n))
    return _vote(inter.p_sig, table, config.k)


def level_map(
    det: DetectorPerformance, params: ComponentParams, config: LevelConfig
) -> DetectorPerformance:
    """One application of the enhancement map ``(eta, dcr) -> (eta', dcr')``."""
    inter = level_intermediates(det, params)
    ((de, dcr),) = level_figures(
        inter.p_pos, inter.q_pos, inter.p_sig, inter.q_sig, params.p, config.n, (config.k,)
    )
    return DetectorPerformance(eta=de, dcr=dcr)


def iterate_schedule(
    init: DetectorPerformance,
    schedule: Schedule,
    stop: ConvergenceRule | None = None,
) -> Trajectory:
    """Iterate the level map along a schedule, recording every level.

    If ``stop.max_levels`` exceeds the schedule length the final config is
    repeated (constant-tail schedule).  Iteration halts early once both
    successive changes fall strictly below the rule's tolerances.
    """
    if stop is None:
        stop = ConvergenceRule()
    points = [TrajectoryPoint(0, None, init)]
    det = init
    converged = False
    converged_at: int | None = None
    for s in range(1, stop.max_levels + 1):
        config = schedule.levels[min(s, len(schedule.levels)) - 1]
        nxt = level_map(det, schedule.params, config)
        points.append(TrajectoryPoint(s, config, nxt))
        if (
            abs(nxt.eta - det.eta) < stop.eta_tol
            and abs(nxt.dcr - det.dcr) < stop.dcr_tol
        ):
            converged = True
            converged_at = s
            det = nxt
            break
        det = nxt
    return Trajectory(tuple(points), converged, converged_at)


def effective_transmission(p: float, N: int) -> float:
    """Per-module transmission under a 1/N post-selection gate: ``p**N``."""
    check_prob("p", p)
    check_int("N", N, 1)
    return p**N
