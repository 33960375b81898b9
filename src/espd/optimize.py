"""Exhaustive search over per-level (n, k) schedules under a cost budget.

The search enumerates every schedule of length 1..max_levels over the
per-level configs {(n, k): 1 <= k <= n <= n_max}, breadth-first with the
batch level-map kernel, and returns the schedules meeting the efficiency /
dark-count targets ranked by detection cost.  Cost is the total number of
base detections, the product of (n_l + 1) over the levels.

Two prunes keep the tree manageable without touching exactness:

* once the requested number of feasible schedules is in hand, prefixes
  whose cheapest possible extension (cost doubling per level) already
  exceeds the current M-th best cost stop expanding;
* prefixes whose dark-count rate provably cannot reach the target even
  under the best possible continuation (an exact lower bound on the
  next-level dark count, iterated over the remaining depth) stop
  expanding.

The batch kernel runs the scalar level map's own code on arrays, so the
final performance recorded for every returned schedule is bit-identical to
re-evaluating it with :func:`espd.dynamics.iterate_schedule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    iterate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
)

__all__ = [
    "OptimizationQuery",
    "RankedSchedule",
    "resource_cost",
    "search_schedules",
    "pareto_front",
]

MAX_SEARCH_LEVELS = 6
MAX_SEARCH_N = 12
# Relative margin of the dark-count floor; far above the few-ulp rounding
# of the level map at n <= MAX_SEARCH_N.
FLOOR_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizationQuery:
    """Target regime and search-space bounds for schedule search.

    Targets must be finite and >= 0; finite targets above 1 are accepted
    and simply yield no (or all) feasible schedules.  A schedule qualifies
    when its final point satisfies ``eta >= de_target`` and
    ``dcr <= dcr_target``.
    """

    init: DetectorPerformance
    params: ComponentParams
    de_target: float
    dcr_target: float
    max_levels: int = 4
    n_max: int = 8
    k_rule: str = "k_le_n"
    cost_model: str = "product_cost"

    def __post_init__(self) -> None:
        if not 1 <= self.max_levels <= MAX_SEARCH_LEVELS:
            raise ValueError(
                f"max_levels must be in [1, {MAX_SEARCH_LEVELS}], got {self.max_levels}"
            )
        if not 1 <= self.n_max <= MAX_SEARCH_N:
            raise ValueError(f"n_max must be in [1, {MAX_SEARCH_N}], got {self.n_max}")
        if self.k_rule not in ("free", "k_le_n"):
            raise ValueError(f"unknown k_rule {self.k_rule!r}")
        if self.cost_model != "product_cost":
            raise ValueError(f"unknown cost_model {self.cost_model!r}")
        for name in ("de_target", "dcr_target"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class RankedSchedule:
    schedule: Schedule
    final: DetectorPerformance
    cost: int
    levels_used: int


def resource_cost(schedule: Schedule) -> int:
    """Total base detections: product of (n_l + 1) over the levels."""
    return math.prod(cfg.n + 1 for cfg in schedule.levels)


def _dcr_floor(d: np.ndarray, n_max: int, steps: int) -> np.ndarray:
    # Provable best-case dark count after `steps` more levels.  Every
    # next-level auxiliary fires with probability >= d (dark counts alone),
    # and the all-must-fire vote (n = k = n_max) is the most suppressive
    # config (the vote tail falls with k and rises with n), so
    #     d' >= d**N * (1 + N * (1 - d)),
    # with equality at n = k = N when q_pos == d (eta = 0 or Q_err = 0).  The
    # floor is shrunk by FLOOR_SLACK so that rounding, in it or in the level
    # map, cannot lift it above a dark count it equals mathematically.  The
    # bound is monotone increasing in d, hence safe to iterate.
    f = d.copy()
    for _ in range(steps):
        f = f**n_max * (1.0 + n_max * (1.0 - f)) * (1.0 - FLOOR_SLACK)
    return f


def search_schedules(
    query: OptimizationQuery, top: int | None = 50
) -> list[RankedSchedule]:
    """All (or the `top` cheapest) schedules meeting the query's targets.

    Results are ordered by (cost asc, final dcr asc, final eta desc, levels
    used, schedule encoding); the ordering is deterministic across runs and
    thread counts.  An empty list means no schedule qualifies.
    """
    if top is not None and top < 1:
        raise ValueError(f"top must be >= 1 or None, got {top}")
    params = query.params
    configs = [(n, k) for n in range(1, query.n_max + 1) for k in range(1, n + 1)]

    etas = np.array([query.init.eta], dtype=np.float64)
    ds = np.array([query.init.dcr], dtype=np.float64)
    codes = np.zeros(1, dtype=np.uint64)
    costs = np.ones(1, dtype=np.int64)

    cand_codes: list[np.ndarray] = []
    cand_costs: list[np.ndarray] = []
    cand_etas: list[np.ndarray] = []
    cand_ds: list[np.ndarray] = []
    cand_len: list[np.ndarray] = []
    feasible_total = 0

    for level in range(1, query.max_levels + 1):
        parts = []
        for ci, (n, k) in enumerate(configs):
            e2, d2 = _kernels.level_map_batch(
                etas, ds, params.p, params.P_act, params.Q_err, n, k
            )
            code2 = (codes << np.uint64(8)) | np.uint64(ci + 1)
            cost2 = costs * (n + 1)
            parts.append((e2, d2, code2, cost2))
        e_all = np.concatenate([p[0] for p in parts])
        d_all = np.concatenate([p[1] for p in parts])
        code_all = np.concatenate([p[2] for p in parts])
        cost_all = np.concatenate([p[3] for p in parts])

        feas = (e_all >= query.de_target) & (d_all <= query.dcr_target)
        if feas.any():
            cand_codes.append(code_all[feas])
            cand_costs.append(cost_all[feas])
            cand_etas.append(e_all[feas])
            cand_ds.append(d_all[feas])
            cand_len.append(np.full(int(feas.sum()), level, dtype=np.int64))
            feasible_total += int(feas.sum())

        if level == query.max_levels:
            break
        keep = np.ones(e_all.shape[0], dtype=bool)
        if top is not None and feasible_total >= top:
            threshold = np.partition(np.concatenate(cand_costs), top - 1)[top - 1]
            keep &= (2 * cost_all) <= threshold
        remaining = query.max_levels - level
        floor = _dcr_floor(d_all, query.n_max, remaining)
        keep &= floor <= query.dcr_target
        etas, ds = e_all[keep], d_all[keep]
        codes, costs = code_all[keep], cost_all[keep]
        if etas.shape[0] == 0:
            break

    if feasible_total == 0:
        return []

    code_flat = np.concatenate(cand_codes)
    cost_flat = np.concatenate(cand_costs)
    eta_flat = np.concatenate(cand_etas)
    d_flat = np.concatenate(cand_ds)
    len_flat = np.concatenate(cand_len)
    # Rank by cost, dcr, -eta, length, then encoding: within one length the
    # code sorts like the encoding, since configs are listed in (n, k) order.
    order = np.lexsort((code_flat, len_flat, -eta_flat, d_flat, cost_flat))
    if top is not None:
        order = order[:top]
    level_cfgs = [LevelConfig(n, k) for n, k in configs]
    results = []
    for idx in order:
        cfgs = _decode(int(code_flat[idx]), int(len_flat[idx]), level_cfgs)
        final = DetectorPerformance(float(eta_flat[idx]), float(d_flat[idx]))
        results.append(
            RankedSchedule(Schedule(params, cfgs), final, int(cost_flat[idx]), len(cfgs))
        )
    return results


def _decode(
    code: int, length: int, level_cfgs: list[LevelConfig]
) -> tuple[LevelConfig, ...]:
    out = []
    for lvl in range(length):
        ci = (code >> (8 * (length - 1 - lvl))) & 0xFF
        out.append(level_cfgs[ci - 1])
    return tuple(out)


def _encoding(r: RankedSchedule) -> tuple[tuple[int, int], ...]:
    return tuple((cfg.n, cfg.k) for cfg in r.schedule.levels)


def pareto_front(results: list[RankedSchedule]) -> list[RankedSchedule]:
    """Non-dominated subset under (cost down, eta up, dcr down).

    An element is dropped only if another is at least as good on all three
    axes and strictly better on one; ties on all axes keep both.  Output is
    sorted by (cost asc, eta desc, dcr asc, encoding).
    """
    front = []
    for r in results:
        dominated = False
        for q in results:
            if q is r:
                continue
            if (
                q.cost <= r.cost
                and q.final.eta >= r.final.eta
                and q.final.dcr <= r.final.dcr
                and (
                    q.cost < r.cost
                    or q.final.eta > r.final.eta
                    or q.final.dcr < r.final.dcr
                )
            ):
                dominated = True
                break
        if not dominated:
            front.append(r)
    front.sort(key=lambda r: (r.cost, -r.final.eta, r.final.dcr, _encoding(r)))
    return front
