"""Exhaustive search over per-level (n, k) schedules under a cost budget.

The search enumerates every schedule of length 1..max_levels over the
per-level configs {(n, k): 1 <= k <= n <= n_max}, breadth-first with the
batch level-map kernel, and returns the schedules meeting the efficiency /
dark-count targets ranked by detection cost.  Cost is the total number of
base detections, the product of (n_l + 1) over the levels.  Each level
expands the frontier with one kernel call per n, which evaluates every
threshold k of that n in one pass.

Two prunes keep the tree manageable without touching exactness:

* once the requested number M of feasible schedules is in hand, a parent
  is expanded at n only while its child's cost, cost * (n + 1), is at most
  the M-th least feasible cost found so far (ties are expanded).  A dearer
  child ranks after M schedules already found, since cost is the first
  sort key, and its extensions cost more still.  The threshold is updated
  after each n, inside a level; the cut threshold // (n + 1) only falls as
  n grows, so a level stops at the first n that passes no parent;
* prefixes whose dark-count rate provably cannot reach the target even
  under the best possible continuation (an exact lower bound on the
  next-level dark count, iterated over the remaining depth) stop
  expanding.

Each config's rows are filtered as they leave the kernel: its feasible rows
join the results, and only its rows above the dark-count floor join the
next frontier.  No level holds a copy of every unfiltered row.

The batch kernel runs the scalar level map's own code on arrays, so the
final performance recorded for every returned schedule is bit-identical to
re-evaluating it with :func:`espd.dynamics.iterate_schedule`.

Results are the search's own columns (a :class:`SearchResult`, which
:func:`pareto_front` also takes and returns); a :class:`RankedSchedule`
row is built only when a caller indexes or iterates one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    check_int,
    check_number,
    iterate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
    run_label,
)

__all__ = [
    "OptimizationQuery",
    "RankedSchedule",
    "SearchResult",
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

    def __post_init__(self) -> None:
        check_int("max_levels", self.max_levels, 1, MAX_SEARCH_LEVELS)
        check_int("n_max", self.n_max, 1, MAX_SEARCH_N)
        for name in ("de_target", "dcr_target"):
            value = getattr(self, name)
            if check_number(name, value) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class RankedSchedule:
    schedule: Schedule
    final: DetectorPerformance
    cost: int
    levels_used: int


@dataclass(frozen=True, eq=False)
class SearchResult(Sequence):
    """Ranked schedules as columns, read as a sequence of :class:`RankedSchedule`.

    Row i has ``lengths[i]`` levels, named by the bytes of ``codes[i]``
    from the most significant down (byte c is ``configs[c - 1]``), total
    cost ``costs[i]`` and final point ``(eta[i], dcr[i])``.  Indexing or
    iterating builds each row's :class:`RankedSchedule` on access; a slice
    is another ``SearchResult``.
    """

    params: ComponentParams
    configs: tuple[LevelConfig, ...]
    codes: np.ndarray  # uint64
    lengths: np.ndarray  # int64
    costs: np.ndarray  # int64
    eta: np.ndarray  # float64
    dcr: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._take(i)
        length = int(self.lengths[i])
        indices = int(self.codes[i]).to_bytes(length, "big")
        return RankedSchedule(
            Schedule(self.params, tuple(self.configs[ci - 1] for ci in indices)),
            DetectorPerformance(float(self.eta[i]), float(self.dcr[i])),
            int(self.costs[i]),
            length,
        )

    def _take(self, rows) -> SearchResult:
        # the rows an index array or slice selects, in its order
        return SearchResult(
            self.params, self.configs, self.codes[rows], self.lengths[rows],
            self.costs[rows], self.eta[rows], self.dcr[rows],
        )

    def labels(self) -> list[str]:
        """Each row's run-length label, e.g. ``4:1+4:2x7``.

        The same string as :func:`espd.dynamics.schedule_label` of the row's
        levels, read straight from the code.
        """
        names = ["", *(f"{cfg.n}:{cfg.k}" for cfg in self.configs)]  # code bytes are 1-based
        return [
            run_label([names[ci] for ci in code.to_bytes(length, "big")])
            for code, length in zip(self.codes.tolist(), self.lengths.tolist())
        ]


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
    f = d
    for _ in range(steps):
        f = f**n_max * (1.0 + n_max * (1.0 - f)) * (1.0 - FLOOR_SLACK)
    return f


def search_schedules(query: OptimizationQuery, top: int | None = 50) -> SearchResult:
    """All (or the `top` cheapest) schedules meeting the query's targets.

    Results are ordered by (cost asc, final dcr asc, final eta desc, levels
    used, schedule encoding); the ordering is deterministic across runs and
    thread counts.  The ranking comes back as the search's own columns; a
    :class:`RankedSchedule` is built only when a row is accessed.  An empty
    result means no schedule qualifies.

    Each config's rows are filtered as they leave the kernel: the feasible
    ones join the results and the dark-count floor picks those that join
    the next frontier.  With `top` set, each level's frontier is sorted by
    cost, and once `top` feasible rows are known the kernel at n gets only
    the prefix of parents with ``cost * (n + 1) <= threshold``, the `top`-th
    least feasible cost so far.  The threshold is updated after every n, so
    the larger n of a level already see the rows its smaller n found.
    """
    if top is not None:
        check_int("top", top, 1)
    params = query.params
    configs = tuple(
        LevelConfig(n, k) for n in range(1, query.n_max + 1) for k in range(1, n + 1)
    )

    etas = np.array([query.init.eta], dtype=np.float64)
    ds = np.array([query.init.dcr], dtype=np.float64)
    codes = np.zeros(1, dtype=np.uint64)
    costs = np.ones(1, dtype=np.int64)

    # feasible (codes, lengths, costs, eta, dcr) columns, one tuple per config per level
    found: list[tuple[np.ndarray, ...]] = []
    # the least `top` feasible costs found so far (all of them while fewer);
    # once there are `top`, the greatest is the cost gate's threshold
    ranked = np.zeros(0, dtype=np.int64)
    threshold = None

    for level in range(1, query.max_levels + 1):
        remaining = query.max_levels - level
        if top is not None:
            # cheapest parents first, so the gate passes a prefix
            order = np.argsort(costs, kind="stable")
            etas, ds, codes, costs = etas[order], ds[order], codes[order], costs[order]
        # the (eta, dcr, codes, costs) rows each config passes to the next level
        frontier: list[tuple[np.ndarray, ...]] = []
        shifted = codes << np.uint64(8)
        config = 0  # a config's code is its 1-based index in configs
        for n in range(1, query.n_max + 1):
            e, d, sh, c = etas, ds, shifted, costs
            if threshold is not None:
                # the gate: a child dearer than the threshold ranks after `top` rows found
                rows = int(np.searchsorted(costs, threshold // (n + 1), side="right"))
                if rows == 0:
                    break  # the cut only falls as n grows
                if rows < len(costs):
                    e, d, sh, c = e[:rows], d[:rows], sh[:rows], c[:rows]
            # every threshold of one n in one kernel call, in (n, k) order
            figures = _kernels.level_map_batch(
                e, d, params.p, params.P_act, params.Q_err, n, range(1, n + 1)
            )
            cost2 = c * (n + 1)
            for e2, d2 in figures:
                config += 1
                code2 = sh | np.uint64(config)
                feas = (e2 >= query.de_target) & (d2 <= query.dcr_target)
                found.append((
                    code2[feas], np.full(np.count_nonzero(feas), level, dtype=np.int64),
                    cost2[feas], e2[feas], d2[feas],
                ))
                if remaining:
                    keep = _dcr_floor(d2, query.n_max, remaining) <= query.dcr_target
                    frontier.append((e2[keep], d2[keep], code2[keep], cost2[keep]))
            if top is not None:
                ranked = np.concatenate([ranked, *(f[2] for f in found[-n:])])
                if len(ranked) >= top:
                    ranked = np.partition(ranked, top - 1)[:top]
                    threshold = int(ranked[-1])

        if not remaining or not frontier:
            break
        etas, ds, codes, costs = map(np.concatenate, zip(*frontier))
        if etas.shape[0] == 0:
            break

    result = SearchResult(params, configs, *map(np.concatenate, zip(*found)))
    # Rank by cost, dcr, -eta, then the code, which sorts by length, then
    # encoding: a longer code is larger, its top byte being an index >= 1,
    # and within one length the code sorts like the encoding, since configs
    # are listed in (n, k) order.
    order = np.lexsort((result.codes, -result.eta, result.dcr, result.costs))
    if top is not None:
        order = order[:top]
    return result._take(order)


def pareto_front(results: SearchResult) -> SearchResult:
    """Non-dominated subset under (cost down, eta up, dcr down).

    An element is dropped only if another is at least as good on all three
    axes and strictly better on one; ties on all axes keep both.  Output is
    sorted by (cost asc, eta desc, dcr asc, encoding), where the encoding
    is the tuple of the levels' config indices, which for a search result
    sorts like their (n, k) pairs.

    A dominator sorts before what it dominates, and dominance is
    transitive, so in sorted order each element needs comparing only with
    the front kept so far, whose costs are all <= its own.  That front is
    summed up by a staircase: the kept (eta, dcr) pairs no other kept pair
    matches or beats on both axes, sorted by eta (and so by dcr).  Its
    first step with eta >= e holds the least dcr among kept pairs with
    eta >= e, and the cost of the first row kept with exactly that pair.
    """
    # Left-aligned, the codes compare like the encodings as tuples: config
    # indices start at 1, so a schedule sorts before its extensions.
    shift = (8 * (MAX_SEARCH_LEVELS - results.lengths)).astype(np.uint64)
    order = np.lexsort((results.codes << shift, results.dcr, -results.eta, results.costs))
    rows: list[int] = []
    etas: list[float] = []
    dcrs: list[float] = []
    costs: list[int] = []
    columns = (results.costs[order], results.eta[order], results.dcr[order])
    for i, c, e, d in zip(order.tolist(), *(col.tolist() for col in columns)):
        s = bisect_left(etas, e)
        if s < len(etas) and dcrs[s] <= d:
            if dcrs[s] < d or etas[s] > e or costs[s] < c:
                continue  # dominated
        else:
            # the new step replaces those it matches or beats on both axes
            lo = bisect_left(dcrs, d, 0, s)
            hi = s + (s < len(etas) and etas[s] == e)
            etas[lo:hi], dcrs[lo:hi], costs[lo:hi] = [e], [d], [c]
        rows.append(i)
    return results._take(np.array(rows, dtype=np.intp))
