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

import numbers
from dataclasses import dataclass

from . import binomial

__all__ = [
    "N_MAX",
    "MAX_LEVELS",
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


def check_prob(name: str, value) -> float:
    """Return ``value`` as a float if it is a probability, else raise ValueError.

    The one probability check of the package: rejects ``bool``, anything
    that is not a real number, NaN and values outside [0, 1].
    """
    if type(value) is not float:
        # bool is an int subclass, but True/False are not probabilities
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        value = float(value)
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
        # bool is an int subclass, but True/False are not module counts
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.n, self.k)):
            raise ValueError(f"n and k must be integers, got n={self.n!r}, k={self.k!r}")
        if self.n < 1 or self.n > N_MAX:
            raise ValueError(f"n must be in [1, {N_MAX}], got {self.n}")
        if self.k < 1 or self.k > self.n:
            raise ValueError(f"k must be in [1, n], got k={self.k} with n={self.n}")


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
        m = self.max_levels
        if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= MAX_LEVELS:
            raise ValueError(
                f"max_levels must be an integer in [1, {MAX_LEVELS}], got {m!r}"
            )
        if self.eta_tol < 0.0 or self.dcr_tol < 0.0:
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


def _loss_case(pp, py, qp, qy, q_sig, n: int, k: int, i: int):
    # Auxiliaries 1..i fire with p_pos, the other n - i with q_pos; a firing
    # (vacuum-fed) signal detector lowers the vote threshold by one.
    row = binomial.pmf_row(i, pp, py)
    table = binomial.tail_table(n - i, qp, qy)
    return (1.0 - q_sig) * binomial.conv_tail_from(row, table, k) + (
        q_sig * binomial.conv_tail_from(row, table, k - 1)
    )


def _survive_case(pp, py, p_sig, n: int, k: int):
    table = binomial.tail_table(n, pp, py)
    return p_sig * table[k - 1] + (1.0 - p_sig) * table[k]


def _de(p_pos, q_pos, p_sig, q_sig, p: float, n: int, k: int):
    pp, py = _power_pair(p_pos, n)
    qp, qy = _power_pair(q_pos, n)
    total = 0.0
    pw = 1.0
    for i in range(1, n + 1):
        total = total + pw * (1.0 - p) * _loss_case(pp, py, qp, qy, q_sig, n, k, i)
        pw = pw * p
    return binomial.clamp1(total + pw * _survive_case(pp, py, p_sig, n, k))


def _dcr(q_pos, q_sig, n: int, k: int):
    table = binomial.tail_table(n, *_power_pair(q_pos, n))
    return binomial.clamp1((1.0 - q_sig) * table[k] + q_sig * table[k - 1])


def level_figures(p_pos, q_pos, p_sig, q_sig, p: float, n: int, k: int) -> tuple:
    """Next-level ``(de, dcr)`` from the four firing probabilities.

    The one implementation of the level map, shared by :func:`level_map`
    and the batch kernel.  Takes Python floats (returns floats) or
    equal-shape float64 arrays (returns arrays); both give bit-identical
    values.  DE mixes the loss scenarios, survive-all with weight ``p**n``
    and lost-after-module-i with weight ``p**(i-1) * (1-p)``; DCR is the
    vacuum-input vote, where transmission plays no role.
    """
    return _de(p_pos, q_pos, p_sig, q_sig, p, n, k), _dcr(q_pos, q_sig, n, k)


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
    return _loss_case(
        *_power_pair(inter.p_pos, n), *_power_pair(inter.q_pos, n), inter.q_sig, n, k, i
    )


def de_survive_case(inter: LevelIntermediates, config: LevelConfig) -> float:
    """Positive-report probability given the photon survived all modules.

    All ``n`` auxiliaries fire with ``p_pos`` and the signal detector with
    ``p_sig``; a firing signal detector lowers the auxiliary vote threshold
    by one.
    """
    n = config.n
    return _survive_case(*_power_pair(inter.p_pos, n), inter.p_sig, n, config.k)


def level_map(
    det: DetectorPerformance, params: ComponentParams, config: LevelConfig
) -> DetectorPerformance:
    """One application of the enhancement map ``(eta, dcr) -> (eta', dcr')``."""
    inter = level_intermediates(det, params)
    de, dcr = level_figures(
        inter.p_pos, inter.q_pos, inter.p_sig, inter.q_sig, params.p, config.n, config.k
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
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return p**N
