"""Exhaustive search over per-level (n, k) schedules under a cost budget.

The search enumerates every schedule of length 1..max_levels over the
per-level configs {(n, k): 1 <= k <= n <= n_max}, breadth-first with the
batch level-map kernel, and returns the schedules meeting the efficiency /
dark-count targets ranked by detection cost.  Cost is the total number of
base detections, the product of (n_l + 1) over the levels.  Each level
expands the frontier n by n, over consecutive blocks of at most
``BLOCK_ROWS`` parents, with at most one kernel call per block, which
evaluates the thresholds k of that n in one pass: every threshold at the
inner levels, the ones the block's screen passes at the last.

Three prunes keep the tree manageable without touching exactness:

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
  expanding;
* at the last level only, where a row is kept only if it meets both
  targets, a screen runs before the kernel at each n.  It computes every
  threshold's exact next-level dark count (the vacuum half of the level
  map, :func:`espd.dynamics.vacuum_figures`) and a sound ceiling on its
  efficiency (:func:`espd.dynamics.de_ceiling`, raised by a rounding
  margin).  The kernel then gets only the parents that meet both targets
  at some threshold, and only the thresholds some parent of the same
  block meets them at, so each row's tables are still built once for all
  of its thresholds.

Each config's rows are filtered as they leave the kernel: its feasible rows
join the results, and only its rows above the dark-count floor join the
next frontier.  No level holds a copy of every unfiltered row, and no
screen or kernel call builds tables for more than one block: a level's
working memory beyond its frontier and its filtered rows is set by
``BLOCK_ROWS``, not by the frontier.  A level's frontier parts are freed
once joined into the next level's parents, and the feasible rows, with
the last level's parents, once joined for the ranking.  The level map is
elementwise, so the values do not depend on the blocks, and the `top`
threshold is taken from every block of an n, so neither does the gate.

The batch kernel runs the scalar level map's own code on arrays, so the
final performance recorded for every returned schedule is bit-identical to
re-evaluating it with :func:`espd.dynamics.iterate_schedule`.

Results are the search's own columns (a :class:`SearchResult`, which
:func:`pareto_front` also takes and returns): each row's code, cost, eta
and dcr, the order in which the search also moves its parents, children
and frontier.  A row's level count is its code's byte count.  A row's
:class:`RankedSchedule` is built only when a caller indexes or iterates it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from . import _kernels
from .dynamics import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    check_int,
    check_number,
    checked_make,
    de_ceiling,
    firing_probs,
    iterate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
    run_label,
    vacuum_figures,
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
# Relative margin of the dark-count floor and the efficiency ceiling; far
# above the few-ulp rounding of the level map at n <= MAX_SEARCH_N.
SLACK = 1e-12
# Absolute margin of the efficiency ceiling: the least normal float, far
# above what products that underflow can lose in one level map.
TINY = 2.0**-1022
# Parent rows per screen and kernel call: each (level, n) runs over
# consecutive blocks of at most this many of its parents.  Swept from 4,096
# to 32,768 on `optimize --n-max 8 --top 0`: peak RSS 36.7, 37.0, 40.7 and
# 47.3 MB (56.2 MB unblocked), with in-process search times within the
# noise (2-core container, numpy 2.4.6).  4,096 would split the 6,074-row
# inner level of `--n-max 12 --top 50` into two calls.
BLOCK_ROWS = 8192


class OptimizationQuery(
    namedtuple(
        "OptimizationQuery",
        "init params de_target dcr_target max_levels n_max",
        defaults=(4, 8),
    )
):
    """Target regime and search-space bounds for schedule search.

    Targets must be finite and >= 0; finite targets above 1 are accepted
    and simply yield no (or all) feasible schedules.  A schedule qualifies
    when its final point satisfies ``eta >= de_target`` and
    ``dcr <= dcr_target``.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.init, DetectorPerformance):
            raise ValueError(f"init must be a DetectorPerformance, got {self.init!r}")
        if not isinstance(self.params, ComponentParams):
            raise ValueError(f"params must be a ComponentParams, got {self.params!r}")
        check_int("max_levels", self.max_levels, 1, MAX_SEARCH_LEVELS)
        check_int("n_max", self.n_max, 1, MAX_SEARCH_N)
        for name in ("de_target", "dcr_target"):
            value = getattr(self, name)
            if check_number(name, value) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        return self


# a Schedule, its final DetectorPerformance, its cost and its level count
RankedSchedule = namedtuple("RankedSchedule", "schedule final cost levels_used")


class SearchResult(Sequence):
    """Ranked schedules as columns, read as a sequence of :class:`RankedSchedule`.

    Row i is ``(codes[i], costs[i], eta[i], dcr[i])``: its levels, named by
    the bytes of ``codes[i]`` from the most significant down (byte c is
    ``configs[c - 1]``, so c >= 1 and the level count is the byte count),
    its total cost and its final point.  Indexing or iterating builds each
    row's :class:`RankedSchedule` on access; a slice is another ``SearchResult``.
    """

    __slots__ = ("params", "configs", "codes", "costs", "eta", "dcr")

    def __init__(
        self,
        params: ComponentParams,
        configs: tuple[LevelConfig, ...],
        codes: np.ndarray,  # uint64
        costs: np.ndarray,  # int64
        eta: np.ndarray,  # float64
        dcr: np.ndarray,  # float64
    ) -> None:
        self.params = params
        self.configs = configs
        self.codes = codes
        self.costs = costs
        self.eta = eta
        self.dcr = dcr

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._take(i)
        indices = _code_bytes(int(self.codes[i]))
        return RankedSchedule(
            Schedule(self.params, tuple(self.configs[ci - 1] for ci in indices)),
            DetectorPerformance(float(self.eta[i]), float(self.dcr[i])),
            int(self.costs[i]),
            len(indices),
        )

    def _take(self, rows) -> SearchResult:
        # the rows an index array or slice selects, in its order
        return SearchResult(
            self.params, self.configs, self.codes[rows], self.costs[rows],
            self.eta[rows], self.dcr[rows],
        )

    def labels(self) -> list[str]:
        """Each row's run-length label, e.g. ``4:1+4:2x7``.

        The same string as :func:`espd.dynamics.schedule_label` of the row's
        levels, read straight from the code.
        """
        names = ["", *(f"{cfg.n}:{cfg.k}" for cfg in self.configs)]  # code bytes are 1-based
        return [run_label([names[ci] for ci in _code_bytes(c)]) for c in self.codes.tolist()]


def _code_bytes(code: int) -> bytes:
    # a code's levels' 1-based config indices, first level first
    return code.to_bytes((code.bit_length() + 7) // 8, "big")


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
    # floor is shrunk by SLACK so that rounding, in it or in the level
    # map, cannot lift it above a dark count it equals mathematically.  The
    # bound is monotone increasing in d, hence safe to iterate.
    f = d
    for _ in range(steps):
        f = f**n_max * (1.0 + n_max * (1.0 - f)) * (1.0 - SLACK)
    return f


def _screen(probs: tuple, params: ComponentParams, n: int) -> list:
    """``(ceiling, dcr)`` arrays for each threshold k = 1..n of a batch of states.

    ``probs`` is the states' :func:`~espd.dynamics.firing_probs` tuple.
    ``dcr`` is the next-level dark count, the same bits as the kernel's;
    ``ceiling`` is :func:`~espd.dynamics.de_ceiling` raised by SLACK and
    TINY, so no rounding lifts the kernel's efficiency above it.  A state
    can meet the targets at (n, k) only if ``ceiling >= de_target`` and
    ``dcr <= dcr_target``.
    """
    p_pos, q_pos, p_sig, q_sig = probs
    ks = range(1, n + 1)
    dcrs, vacuum = vacuum_figures(q_pos, q_sig, n, ks)[2:]
    # the auxiliaries fire with at most max(p_pos, q_pos), which is p_pos
    # exactly when P_act >= Q_err (rounding is monotone)
    vacuum = None if params.P_act >= params.Q_err else vacuum
    ceilings = de_ceiling(p_pos, p_sig, q_sig, params.p, n, ks, vacuum)
    return [(c * (1.0 + SLACK) + TINY, d) for c, d in zip(ceilings, dcrs)]


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
    the larger n of a level already see the rows its smaller n found.  At
    the last level the screen sees the parents the gate passes, and the
    kernel gets those of them that can meet both targets at some threshold
    (see the module docstring).  Every screen and kernel call runs on one
    block of at most ``BLOCK_ROWS`` parents; the result does not depend on
    the block size.
    """
    if top is not None:
        check_int("top", top, 1)
    configs = tuple(
        LevelConfig(n, k) for n in range(1, query.n_max + 1) for k in range(1, n + 1)
    )
    # no name holds the row sets: they, and the last level's parents, are
    # freed once joined, before the ranking copies the joined columns
    result = SearchResult(
        query.params, configs, *map(np.concatenate, zip(*_feasible_rows(query, top)))
    )
    # Rank by cost, dcr, -eta, then the code, which sorts by length, then
    # encoding: a longer code is larger, its top byte being an index >= 1,
    # and within one length the code sorts like the encoding, since configs
    # are listed in (n, k) order.
    order = np.lexsort((result.codes, -result.eta, result.dcr, result.costs))
    if top is not None:
        order = order[:top]
    return result._take(order)


def _feasible_rows(query: OptimizationQuery, top: int | None) -> list[tuple[np.ndarray, ...]]:
    # The search itself (see search_schedules): every feasible row it finds,
    # unranked, as row sets.  Config (n, k)'s code byte is its 1-based index
    # in the (n, k)-ordered config table.
    params = query.params
    # every row set is (codes, costs, eta, dcr), SearchResult's column order
    rows = (
        np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.int64),
        np.array([query.init.eta], dtype=np.float64),
        np.array([query.init.dcr], dtype=np.float64),
    )
    # feasible rows, one set per block and threshold, after an empty set
    # that gives an empty listing its columns
    found = [tuple(col[:0] for col in rows)]
    # the least `top` feasible costs found so far (all of them while fewer);
    # once there are `top`, the greatest is the cost gate's threshold
    ranked = np.zeros(0, dtype=np.int64)
    threshold = None

    for remaining in reversed(range(query.max_levels)):  # levels still to come
        # the rows each config passes on, reset first: the previous level's
        # parts, joined into `rows`, are freed before this level's work
        frontier: list[tuple[np.ndarray, ...]] = []
        if top is not None:
            # cheapest parents first, so the gate passes a prefix
            order = np.argsort(rows[1], kind="stable")
            rows = tuple(col[order] for col in rows)
        config = 0  # configs before this n's: config (n, k) has code config + k
        for n in range(1, query.n_max + 1):
            cut = len(rows[1])
            if threshold is not None:
                # the gate: a child dearer than the threshold ranks after `top` rows found
                cut = int(np.searchsorted(rows[1], threshold // (n + 1), side="right"))
                if cut == 0:
                    break  # the cut only falls as n grows
            found_before = len(found)
            for lo in range(0, cut, BLOCK_ROWS):
                hi = min(lo + BLOCK_ROWS, cut)
                # a block of every row keeps the same arrays: perfbench/tracer.py
                # counts one frontier per eta array object
                parents = rows
                if hi - lo < len(rows[1]):
                    parents = tuple(col[lo:hi] for col in rows)
                ks = range(1, n + 1)
                if not remaining:
                    # the screen: the kernel gets only the thresholds some parent
                    # of the block may meet both targets at, and only those parents
                    probs = firing_probs(parents[2], parents[3], params.P_act, params.Q_err)
                    passes = [
                        (c >= query.de_target) & (d <= query.dcr_target)
                        for c, d in _screen(probs, params, n)
                    ]
                    ks = [k for k in ks if passes[k - 1].any()]
                    if not ks:
                        continue
                    sel = np.logical_or.reduce(passes)
                    if not sel.all():
                        parents = tuple(col[sel] for col in parents)
                codes, costs, eta, dcr = parents
                # the block's thresholds of one n, in one kernel call, in k order
                figures = _kernels.level_map_batch(
                    eta, dcr, params.p, params.P_act, params.Q_err, n, ks
                )
                shifted, cost2 = codes << np.uint64(8), costs * (n + 1)
                for k, (e2, d2) in zip(ks, figures):
                    children = (shifted | np.uint64(config + k), cost2, e2, d2)
                    feas = (e2 >= query.de_target) & (d2 <= query.dcr_target)
                    found.append(tuple(col[feas] for col in children))
                    if remaining:
                        keep = _dcr_floor(d2, query.n_max, remaining) <= query.dcr_target
                        frontier.append(tuple(col[keep] for col in children))
            config += n
            if top is not None:
                # every block of this n, so the threshold is the same at any block size
                ranked = np.concatenate([ranked, *(f[1] for f in found[found_before:])])
                if len(ranked) >= top:
                    ranked = np.partition(ranked, top - 1)[:top]
                    threshold = int(ranked[-1])

        if not remaining or not any(len(f[0]) for f in frontier):
            break  # no level follows, or no row passes on to it
        rows = tuple(map(np.concatenate, zip(*frontier)))
    return found


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
    # indices start at 1, so a schedule sorts before its extensions.  A
    # code's level count is its byte count, the byte shifts that leave it nonzero.
    shifts = np.arange(0, 8 * MAX_SEARCH_LEVELS, 8, dtype=np.uint64)
    levels = np.count_nonzero(results.codes[:, None] >> shifts, axis=1)
    shift = (8 * (MAX_SEARCH_LEVELS - levels)).astype(np.uint64)
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
