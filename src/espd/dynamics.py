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

Those four are one tuple, from :func:`firing_probs` (or, for the golden
tables' ``approx`` variant, :func:`approx_firing_probs`), and
:func:`level_figures` maps a tuple to the next level's figures.  The scalar
entries :func:`level_map`, :func:`de_loss_case` and :func:`de_survive_case`
all take the validated ``(det, params, config)``.

The records here (and in the other modules) are named tuples, built
positionally or by keyword, immutable and hashable.  Those that carry
checks subclass :class:`Checked`, which runs a record's ``_check`` on
construction, on unpickling, and in ``_make`` and ``_replace``.  Being
tuples, the records iterate over their fields, order like tuples, and
compare equal to any tuple of the same values.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from collections.abc import Iterable

from . import binomial

__all__ = [
    "N_MAX",
    "MAX_LEVELS",
    "check_number",
    "check_int",
    "check_prob",
    "Checked",
    "DetectorPerformance",
    "ComponentParams",
    "LevelConfig",
    "Schedule",
    "run_label",
    "schedule_label",
    "TrajectoryPoint",
    "Trajectory",
    "ConvergenceRule",
    "firing_probs",
    "approx_firing_probs",
    "vacuum_figures",
    "level_figures",
    "de_ceiling",
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


class Checked:
    """Base of the checked records, which subclass it before their named tuple.

    ``__new__`` builds the record, then runs its ``_check``; unpickling and
    ``_make`` (which ``_replace`` calls) build it through ``__new__`` too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make checks the length but skips __new__
        return cls(*super()._make(iterable))


class DetectorPerformance(Checked, namedtuple("DetectorPerformance", "eta dcr")):
    """A detector stage's efficiency/dark-count pair (both probabilities)."""

    __slots__ = ()

    def _check(self):
        check_prob("eta", self.eta)
        check_prob("dcr", self.dcr)


class ComponentParams(Checked, namedtuple("ComponentParams", "p P_act Q_err")):
    """Intrinsic constants of one (non-cascaded) controlled-gate module.

    p      -- signal-path transmission through a single module
    P_act  -- probability the auxiliary path is non-vacuum before detection
              given a non-vacuum module input
    Q_err  -- same probability given a vacuum input (auxiliary SPAM error
              floor, detection excluded)

    The constants are module-level and do not degrade with cascade depth;
    cumulative loss enters through the level map's scenario weights.
    """

    __slots__ = ()

    def _check(self):
        check_prob("p", self.p)
        check_prob("P_act", self.P_act)
        check_prob("Q_err", self.Q_err)


class LevelConfig(Checked, namedtuple("LevelConfig", "n k")):
    """Per-level choice: n controlled modules, vote threshold k."""

    __slots__ = ()

    def _check(self):
        check_int("n", self.n, 1, N_MAX)
        check_int("k", self.k, 1, self.n)


class Schedule(Checked, namedtuple("Schedule", "params levels")):
    """Ordered per-level configs (a tuple of LevelConfig) plus the shared module constants."""

    __slots__ = ()

    def __new__(cls, params, levels):
        if isinstance(levels, Iterable):  # else _check names it
            levels = tuple(levels)
        return super().__new__(cls, params, levels)

    def _check(self):
        if not isinstance(self.params, ComponentParams):
            raise ValueError(f"params must be a ComponentParams, got {self.params!r}")
        if not isinstance(self.levels, Iterable):
            raise ValueError(f"levels must be an iterable of LevelConfig, got {self.levels!r}")
        if len(self.levels) == 0:
            raise ValueError("schedule must contain at least one level")
        for cfg in self.levels:
            if not isinstance(cfg, LevelConfig):
                raise ValueError("schedule levels must be LevelConfig instances")


def run_label(names: list[str]) -> str:
    """Run-length join of per-level names, e.g. ``4:1+4:2x7``."""
    parts = []
    i = 0
    while i < len(names):
        j = i + 1
        while j < len(names) and names[j] == names[i]:
            j += 1
        parts.append(names[i] if j == i + 1 else f"{names[i]}x{j - i}")
        i = j
    return "+".join(parts)


def schedule_label(schedule: tuple[LevelConfig, ...]) -> str:
    """Compact comma-free run-length label, e.g. ``4:1+4:2x7``."""
    return run_label([f"{cfg.n}:{cfg.k}" for cfg in schedule])


# config is None at level 0, the seed detector
TrajectoryPoint = namedtuple("TrajectoryPoint", "level config perf")


class Trajectory(namedtuple("Trajectory", "points converged_at", defaults=(None,))):
    """Performance sequence produced by iterating the level map.

    ``points[0]`` is the seed detector (no config); every later point carries
    the config that produced it.  ``converged_at`` is the level at which
    iteration stopped early, or None.
    """

    __slots__ = ()

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    def final(self) -> DetectorPerformance:
        return self.points[-1].perf


class ConvergenceRule(
    Checked,
    namedtuple("ConvergenceRule", "max_levels eta_tol dcr_tol", defaults=(32, 1e-12, 1e-12))
):
    """Stop rule for iteration: level cap plus absolute step tolerances.

    Iteration stops early once BOTH successive changes fall strictly below
    the tolerances; a tolerance of 0.0 therefore disables early stopping.
    """

    __slots__ = ()

    def _check(self):
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


def approx_firing_probs(eta, dcr, P_act: float, Q_err: float) -> tuple:
    """Small-dark-count approximation of :func:`firing_probs`, same tuple order.

    Used only by the ``approx`` variant of the golden tables (a diagnostic);
    the exact forms are authoritative everywhere else.
    """
    return min(P_act * eta, 1.0), min(Q_err * eta + dcr, 1.0), eta, dcr


# The level map proper.  Every helper below works elementwise on Python
# floats or equal-shape float64 arrays with the same + - * operations in the
# same order, so the scalar path and the batch kernel round identically.


def _power_pair(x, n: int) -> tuple[list, list]:
    return binomial.powers(x, n), binomial.powers(1.0 - x, n)


def _vote(s, tails, ks, r=None):
    # For each k in ks, one at a time: a firing signal detector (probability
    # s) lowers the vote threshold by one.  `r` is 1 - s, if the caller has it.
    r = 1.0 - s if r is None else r
    return (r * tails[k] + s * tails[k - 1] for k in ks)


def _loss_tails(pp, py, qp, qy, n: int, i: int, ms) -> list:
    # Lost after module i: auxiliaries 1..i fire with p_pos, the other
    # n - i with q_pos; their vote tail at every count m in ms, at index m.
    row = binomial.pmf_row(i, pp, py)
    own = binomial.row_tails(row)  # one top-down sum serves every m
    table = binomial.tail_table(n - i, qp, qy)
    tails = [None] * (n + 1)
    for m in ms:
        tails[m] = binomial.conv_tail_from(row, own, table, m)
    return tails


def vacuum_figures(q_pos, q_sig, n: int, ks) -> tuple:
    """The vacuum half of the level map: next-level dcr for each threshold in ``ks``.

    On a vacuum input every auxiliary fires with ``q_pos`` and the signal
    detector with ``q_sig``, whatever the transmission.  Returns
    ``(qp, qy, dcrs, vacuum)``: the powers of ``q_pos`` and ``1 - q_pos`` up
    to n, the dcrs in the order of ``ks``, and Bin(n, q_pos)'s tail table.
    :func:`level_figures` calls it, so each dcr is the same bits as there.
    """
    qp, qy = _power_pair(q_pos, n)
    vacuum = binomial.tail_table(n, qp, qy)
    return qp, qy, [binomial.clamp1(v) for v in _vote(q_sig, vacuum, ks)], vacuum


def level_figures(p_pos, q_pos, p_sig, q_sig, p: float, n: int, ks) -> list:
    """Next-level ``(de, dcr)`` for each vote threshold in the sequence ``ks``, in order.

    The one implementation of the level map: :func:`level_map` passes
    ``(k,)`` and the batch kernel every threshold of one ``n``; a
    threshold's values are the same bits either way.  Takes Python floats
    (returns floats) or equal-shape float64 arrays (returns arrays); both
    give bit-identical values.  DE mixes the loss scenarios, survive-all
    with weight ``p**n`` and lost-after-module-i with weight
    ``p**(i-1) * (1-p)``; DCR is the vacuum-input vote of
    :func:`vacuum_figures`, where transmission plays no role.  Work that
    does not depend on k is done once, and each vote tail once, since
    threshold k reads the tails at k and k - 1.
    """
    qp, qy, dcrs = vacuum_figures(q_pos, q_sig, n, ks)[:3]
    ms = {m for k in ks for m in (k - 1, k)}
    totals = [0.0] * len(ks)
    pw, rq = 1.0, 1.0 - q_sig
    # the powers of p_pos and 1 - p_pos grow with i, by the same products
    # as binomial.powers; those of q_pos are held only up to n - i
    pp, py, y = [1.0], [1.0], 1.0 - p_pos
    for i in range(1, n + 1):
        pp.append(pp[-1] * p_pos)
        py.append(py[-1] * y)
        del qp[n - i + 1:], qy[n - i + 1:]
        tails = _loss_tails(pp, py, qp, qy, n, i, ms)
        w = pw * (1.0 - p)
        for j, v in enumerate(_vote(q_sig, tails, ks, rq)):
            totals[j] = totals[j] + w * v
        pw = pw * p
    survive = binomial.tail_table(n, pp, py)
    return [
        (binomial.clamp1(t + pw * v), dcr)
        for t, v, dcr in zip(totals, _vote(p_sig, survive, ks), dcrs)
    ]


def de_ceiling(p_pos, p_sig, q_sig, p: float, n: int, ks, vacuum=None) -> list:
    """An upper bound on the next-level de for each vote threshold in ``ks``.

    ``p**n * vote(p_sig, S) + (1 - p**n) * vote(q_sig, X)``, where S is
    Bin(n, p_pos)'s tail table and X that of Bin(n, max(p_pos, q_pos)):
    pass :func:`vacuum_figures`' table as ``vacuum`` where ``q_pos`` may
    exceed ``p_pos`` (``Q_err > P_act``), else X is S.  The survive term is
    :func:`level_figures`' own.  In each loss scenario every auxiliary
    fires with probability at most max(p_pos, q_pos), and vote tails rise
    with each detector's probability (the coupling argument, Shaked and
    Shanthikumar, *Stochastic Orders*, 2007), so each scenario's vote is
    at most the one over X; their weights sum to ``1 - p**n``.  The bound
    holds up to rounding, a few ulps, which callers must allow for.
    """
    survive = binomial.tail_table(n, *_power_pair(p_pos, n))
    pw = binomial.powers(p, n)[n]
    loss = _vote(q_sig, survive if vacuum is None else vacuum, ks)
    return [pw * s + (1.0 - pw) * x for s, x in zip(_vote(p_sig, survive, ks), loss)]


def de_loss_case(
    det: DetectorPerformance, params: ComponentParams, config: LevelConfig, i: int
) -> float:
    """Positive-report probability given the photon was lost after module i.

    Gates ``1..i`` were activated, so ``i`` auxiliary detectors fire with
    ``p_pos`` and the remaining ``n - i`` with ``q_pos``; the signal detector
    sees vacuum (``q_sig``).  The vote tail is the convolution of the two
    auxiliary binomials, with the threshold lowered by one when the signal
    detector fires.  This is the scenario :func:`level_map` weights by
    ``p**(i-1) * (1-p)``, from the same :func:`firing_probs` and the same
    operations.
    """
    n, k = config.n, config.k
    check_int("loss position i", i, 1, n)
    p_pos, q_pos, _, q_sig = firing_probs(det.eta, det.dcr, params.P_act, params.Q_err)
    tails = _loss_tails(*_power_pair(p_pos, n), *_power_pair(q_pos, n), n, i, (k - 1, k))
    (vote,) = _vote(q_sig, tails, (k,))
    return vote


def de_survive_case(
    det: DetectorPerformance, params: ComponentParams, config: LevelConfig
) -> float:
    """Positive-report probability given the photon survived all modules.

    All ``n`` auxiliaries fire with ``p_pos`` and the signal detector with
    ``p_sig``; a firing signal detector lowers the auxiliary vote threshold
    by one.  This is the scenario :func:`level_map` weights by ``p**n``.
    """
    p_pos, _, p_sig, _ = firing_probs(det.eta, det.dcr, params.P_act, params.Q_err)
    table = binomial.tail_table(config.n, *_power_pair(p_pos, config.n))
    (vote,) = _vote(p_sig, table, (config.k,))
    return vote


def level_map(
    det: DetectorPerformance, params: ComponentParams, config: LevelConfig
) -> DetectorPerformance:
    """One application of the enhancement map ``(eta, dcr) -> (eta', dcr')``."""
    ((de, dcr),) = level_figures(
        *firing_probs(det.eta, det.dcr, params.P_act, params.Q_err),
        params.p, config.n, (config.k,),
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
    converged_at: int | None = None
    for s in range(1, stop.max_levels + 1):
        config = schedule.levels[min(s, len(schedule.levels)) - 1]
        nxt = level_map(det, schedule.params, config)
        points.append(TrajectoryPoint(s, config, nxt))
        if (
            abs(nxt.eta - det.eta) < stop.eta_tol
            and abs(nxt.dcr - det.dcr) < stop.dcr_tol
        ):
            converged_at = s
            break
        det = nxt
    return Trajectory(tuple(points), converged_at)


def effective_transmission(p: float, N: int) -> float:
    """Per-module transmission under a 1/N post-selection gate: ``p**N``."""
    check_prob("p", p)
    # the power takes N as a float, so N must not exceed the largest one
    check_int("N", N, 1, int(sys.float_info.max))
    return p**N
