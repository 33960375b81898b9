"""Exhaustive search over per-level (n, k) schedules under a cost budget.

The search enumerates every schedule of length 1..max_levels over the
per-level configs {(n, k): 1 <= k <= n <= n_max}, breadth-first with the
batch level-map kernel, and returns the schedules meeting the efficiency /
dark-count targets ranked by detection cost.  Cost is the total number of
base detections, the product of (n_l + 1) over the levels.  The search is
one level, applied again and again as the enhancement is: a level expands
its parents n by n, over consecutive blocks of at most ``BLOCK_ROWS``
parents, with at most one kernel call per block, which evaluates the
thresholds k of that n in one pass: every threshold at the inner levels,
the ones the block's screen passes at the last.  The children a level
keeps, its frontier, are the next level's parents.

Three prunes keep the tree manageable without touching exactness:

* a parent is expanded at n only while its child's cost, cost * (n + 1),
  is at most the threshold (ties are expanded).  When M schedules are
  requested, the search keeps the M least feasible costs found so far,
  merging in after each n, inside a level, only the costs that n found;
  once M are kept, the threshold is their largest, and until then, and
  for a full listing, no cost reaches it.  A dearer child ranks after M
  schedules already found, since cost is the first sort key, and its
  extensions cost more still.  The last level's passes lower the
  threshold while the second-to-last still runs; the gate
  threshold // (n + 1) only falls as n grows, so a level stops at the
  first n that passes no parent.  Nor does a frontier hold a row the gate
  can never pass: a row joins the next frontier only if
  2 * cost <= threshold, the gate at n = 1, and the rows already in a
  frontier are trimmed so whenever the threshold falls;
* prefixes whose dark-count rate provably cannot reach the target even
  under the best possible continuation (an exact lower bound on the
  next-level dark count, iterated over the remaining depth) stop
  expanding;
* at the last level only, where a row is kept only if it meets both
  targets, a screen runs before the kernel at each n.  It takes every
  threshold's exact next-level dark count and a sound ceiling on its
  efficiency from :func:`espd.dynamics.screen_figures`, which also picks
  the loss table the ceiling needs, and raises the ceiling by a rounding
  margin.  The kernel then gets only the parents that meet both targets
  at some threshold, and only the thresholds some parent of the same
  block meets them at, so each row's tables are still built once for all
  of its thresholds.

Each config's rows are filtered as they leave the kernel: its feasible rows
join the results, and only its rows above the dark-count floor with
2 * cost <= threshold join the next frontier.  No level holds a copy of
every unfiltered row, and no screen or kernel call builds tables for more
than one block, nor starts while the previous block's arrays are held: a
level's working memory beyond its frontier and its filtered rows is set
by ``BLOCK_ROWS``, not by the frontier.  A level frees its parents, and
then joins its frontier column by column, each column's parts freed once
joined, so the next level's parents are held about once.  The last
level's parents are never held whole: at each n boundary of the
second-to-last level, the last runs on the children made so far, in
passes of ``FUSE_ROWS`` rows; the rest wait for the next n or the end.
The ranking joins the feasible rows, and then takes the ranked order, a
column at a time.  The level map is elementwise, so the values do not
depend on the blocks or passes, and the threshold is read after every n
of every level, not after a block, so neither does the gate.

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
    Checked,
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    check_int,
    check_number,
    firing_probs,
    iterate_schedule,  # noqa: F401 -- looked up here by perfbench/tracer.py
    run_label,
    screen_figures,
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
# Parent rows per screen and kernel call (each (level, n) runs over blocks
# of at most this many of its parents), and ranked rows per chunk that
# pareto_front reads as Python objects.  Search tracemalloc peaks at 4,096,
# 8,192 and 16,384: search-all 2.97, 4.38 and 7.19 MiB, search-top 1.50,
# 2.25 and 3.75 MiB, `--n-max 10 --top 0` 7.21, 9.13 and 12.77 MiB; search
# times within the noise (2-core container, numpy 2.4.6).  4,096 sends
# search-all's kernel 78 calls, not 53, and splits search-top's 6,074-row
# inner level in two.
BLOCK_ROWS = 8192
# Rows per pass of the last level over the second-to-last level's children,
# taken at that level's n boundaries; fewer rows wait for the next one.
# Swept on the kernel's state-thresholds for search-all, search-top and the
# 1,000 cheapest of up to 5 and of up to 4 levels at n_max 12, and the
# search-top search's tracemalloc peak:
#   level held whole   414,698  107,004  409,261  236,742   4.63 MiB
#    8,192             414,698   53,774  399,040  346,919   2.31 MiB
#   12,288             399,800   52,028  403,369  238,070   2.31 MiB
#   16,384             414,698   53,116  403,043  214,884   2.33 MiB
#   32,768             414,698   65,449  409,261  213,235   2.87 MiB
#   65,536             414,698  107,004  409,261  242,747   4.63 MiB
# 16,384 is the least that sends no query more work than the whole level.
FUSE_ROWS = 16384


class OptimizationQuery(
    Checked,
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

    def _check(self):
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
    ``ceiling`` is :func:`~espd.dynamics.screen_figures`' bound raised by
    SLACK and TINY, so no rounding lifts the kernel's efficiency above it.
    A state can meet the targets at (n, k) only if ``ceiling >= de_target``
    and ``dcr <= dcr_target``.
    """
    return [(c * (1.0 + SLACK) + TINY, d) for c, d in screen_figures(*probs, params, n)]


def search_schedules(query: OptimizationQuery, top: int | None = 50) -> SearchResult:
    """All (or the `top` cheapest) schedules meeting the query's targets.

    Results are ordered by (cost asc, final dcr asc, final eta desc, levels
    used, schedule encoding); the ordering is deterministic across runs and
    thread counts.  The ranking comes back as the search's own columns; a
    :class:`RankedSchedule` is built only when a row is accessed.  An empty
    result means no schedule qualifies.

    Each config's rows are filtered as they leave the kernel: the feasible
    ones join the results and the dark-count floor picks those that join
    the next frontier.  Full listings and `top` listings run the same
    search: a parent is expanded at n only while
    ``cost * (n + 1) <= threshold``, and a frontier holds only the rows
    that gate can still pass.  With `top` set, the threshold is the
    `top`-th least feasible cost found so far; until `top` feasible rows
    exist, and for a full listing, no cost reaches it.  It is updated
    after every n, so the larger n of a level already see the rows its
    smaller n found.  The search is one level that, when it ends, hands the
    children it kept to the next level as parents.  The second-to-last level
    also runs the last on its children at each of its n boundaries, in
    passes of ``FUSE_ROWS`` rows, so the last level's rows lower the
    threshold for its larger n.  At the last level the screen sees the
    parents the gate passes, and the kernel gets those of them that can
    meet both targets at some threshold (see the module docstring).  Every
    screen and kernel call runs on one block of at most ``BLOCK_ROWS``
    parents; the result does not depend on the block or pass size.
    """
    if top is not None:
        check_int("top", top, 1)
    configs = tuple(
        LevelConfig(n, k) for n in range(1, query.n_max + 1) for k in range(1, n + 1)
    )
    # the first level's one parent: the query's init, at code 0 and cost 1
    init = (
        np.zeros(1, np.uint64), np.ones(1, np.int64),
        np.array([query.init.eta], np.float64), np.array([query.init.dcr], np.float64),
    )
    search = _Search(query, top, init)
    search.level(init, query.max_levels - 1)
    codes, costs, eta, dcr = columns = _join(search.found)
    # Rank by cost, dcr, -eta, then the code, which sorts by length, then
    # encoding: a longer code is larger, its top byte being an index >= 1,
    # and within one length the code sorts like the encoding, since configs
    # are listed in (n, k) order.
    order = np.lexsort((codes, -eta, dcr, costs))[:top]
    del codes, costs, eta, dcr
    for i in range(len(columns)):
        columns[i] = columns[i][order]  # each source column freed once taken
    return SearchResult(query.params, configs, *columns)


def _join(row_sets: list) -> list[np.ndarray]:
    # the row sets' columns, each joined and its parts freed before the next
    # is joined, so the rows are held about once; empties `row_sets`
    columns = list(zip(*row_sets))
    row_sets.clear()
    return [np.concatenate(columns.pop(0)) for _ in range(len(columns))]


class _Search:
    # The search's running state (see search_schedules): the feasible row
    # sets found, unranked, their `top` least costs and the gate's threshold.
    # Every row set is (codes, costs, eta, dcr), SearchResult's column order.

    def __init__(self, query: OptimizationQuery, top: int | None, init: tuple) -> None:
        self.query, self.top = query, top
        # an empty set first gives an empty listing its columns
        self.found = [tuple(col[:0] for col in init)]
        # the least feasible costs found so far, at most `top` of them
        self.best = init[1][:0]
        # the `top`-th least feasible cost found so far, and until then (or
        # without `top`) above every cost, which is at most 13**6
        self.threshold = np.iinfo(np.int64).max

    def level(self, rows, remaining: int) -> None:
        # One level over the parents `rows`, `remaining` levels before the
        # last: feasible children join `found` and, while levels remain,
        # those that may lead to one join the frontier, the next level's
        # parents.  The second-to-last also runs the last at each n boundary.
        frontier = []
        for n in range(1, self.query.n_max + 1):
            # the gate: a child dearer than the threshold ranks after `top`
            # rows found; it passes every row until `top` rows exist
            gate = rows[1] <= self.threshold // (n + 1)
            if not gate.any():
                break  # the cut only falls as n grows
            passed = rows if gate.all() else tuple(col[gate] for col in rows)
            del gate  # the mask is not held while the blocks run
            size, start = len(passed[1]), len(self.found)
            for lo in range(0, size, BLOCK_ROWS):
                # a block of every row keeps the same arrays: perfbench/tracer.py
                # counts one frontier per eta array object
                parents = passed
                if size > BLOCK_ROWS:
                    parents = tuple(col[lo:lo + BLOCK_ROWS] for col in passed)
                self._expand_block(parents, n, remaining, frontier)
            self._cut(self.found[start:], frontier)
            if remaining == 1:
                self._last_level(frontier)
        if any(len(part[1]) for part in frontier):
            del rows, passed, parents  # bound, as a block ran; freed first
            self.level(_join(frontier), remaining - 1)

    def _expand_block(self, parents, n: int, remaining: int, frontier: list) -> None:
        # One block of parents at one n: appends each threshold's feasible
        # children to `found` and, while levels remain, the children that may
        # lead to one to `frontier`.  Its arrays are freed on return, before the
        # next block's screen or kernel call.
        query, params = self.query, self.query.params
        ks = range(1, n + 1)
        if not remaining:
            # the screen: the kernel gets only the thresholds some parent of the
            # block may meet both targets at, and only those parents
            probs = firing_probs(parents[2], parents[3], params.P_act, params.Q_err)
            passes = [
                (c >= query.de_target) & (d <= query.dcr_target)
                for c, d in _screen(probs, params, n)
            ]
            ks = [k for k in ks if passes[k - 1].any()]
            if not ks:
                return
            sel = np.logical_or.reduce(passes)
            if not sel.all():
                parents = tuple(col[sel] for col in parents)
        codes, costs, eta, dcr = parents
        # the block's thresholds of one n, in one kernel call, in k order
        figures = _kernels.level_map_batch(eta, dcr, params.p, params.P_act, params.Q_err, n, ks)
        shifted, cost2 = codes << np.uint64(8), costs * (n + 1)
        # The gate passes a child on only at cost * (n' + 1) <= threshold, and the
        # threshold only falls: a child dearer than the gate at n' = 1,
        # threshold // 2, never passes, nor does any extension of it (ties pass).
        cheap = cost2 <= self.threshold // 2
        for k, (e2, d2) in zip(ks, figures):
            # config (n, k)'s code byte: its 1-based index in the (n, k)-ordered table
            children = (shifted | np.uint64(n * (n - 1) // 2 + k), cost2, e2, d2)
            feas = (e2 >= query.de_target) & (d2 <= query.dcr_target)
            if feas.any():
                self.found.append(tuple(col[feas] for col in children))
            if remaining:
                keep = cheap & (_dcr_floor(d2, query.n_max, remaining) <= query.dcr_target)
                frontier.append(tuple(col[keep] for col in children))

    def _cut(self, new: list, frontier: list) -> None:
        # The threshold after an n, the largest of the `top` least costs
        # found: `best` keeps them, each row set `new` joining it once, so it
        # is the same at any block size.  When it falls, the rows made before
        # are trimmed, each part freed once replaced (see _expand_block).
        top = self.top
        if top is None or not new:
            return
        self.best = np.concatenate([self.best, *(f[1] for f in new)])
        if len(self.best) < top:
            return
        self.best = np.partition(self.best, top - 1)[:top].copy()
        if self.best[-1] < self.threshold:
            self.threshold = int(self.best[-1])
            for i, part in enumerate(frontier):
                frontier[i] = tuple(col[part[1] <= self.threshold // 2] for col in part)

    def _last_level(self, frontier: list) -> None:
        # The last level on the frontier's rows, in whole passes of FUSE_ROWS.
        # The rows short of a pass stay in the frontier, trimmed by the
        # threshold the passes leave, for the next n or the level's end.
        size = sum(len(part[1]) for part in frontier)
        end = size - size % FUSE_ROWS
        if not end:
            return
        rows = _join(frontier)
        for lo in range(0, end, FUSE_ROWS):
            self.level(tuple(col[lo:lo + FUSE_ROWS] for col in rows), 0)
        if end < size:
            keep = rows[1][end:] <= self.threshold // 2
            frontier.append(tuple(col[end:][keep] for col in rows))


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
    # indices start at 1, so a schedule sorts before its extensions.  A code
    # is shifted up a byte while its top byte is 0, at most 5 times.
    aligned = results.codes.copy()
    top_byte = np.uint64(1 << 8 * (MAX_SEARCH_LEVELS - 1))
    for _ in range(MAX_SEARCH_LEVELS - 1):
        np.left_shift(aligned, np.uint64(8), out=aligned, where=aligned < top_byte)
    order = np.lexsort((aligned, results.dcr, -results.eta, results.costs))
    del aligned
    rows: list[int] = []
    etas: list[float] = []
    dcrs: list[float] = []
    costs: list[int] = []
    # the ranked order read BLOCK_ROWS rows at a time, so at most that many
    # rows are held as Python objects
    for start in range(0, len(order), BLOCK_ROWS):
        chunk = order[start:start + BLOCK_ROWS]
        columns = (results.costs[chunk], results.eta[chunk], results.dcr[chunk])
        for i, c, e, d in zip(chunk.tolist(), *(col.tolist() for col in columns)):
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
