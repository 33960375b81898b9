"""Schedule-search and Pareto-front tests."""

import functools
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espd import (
    ComponentParams,
    ConvergenceRule,
    DetectorPerformance,
    LevelConfig,
    OptimizationQuery,
    RankedSchedule,
    Schedule,
    SearchResult,
    firing_probs,
    iterate_schedule,
    pareto_front,
    resource_cost,
    search_schedules,
)
from espd import _kernels, optimize
from espd.dynamics import level_figures
from espd.golden import schedule_label
from espd.optimize import MAX_SEARCH_N, _dcr_floor, _screen

BASELINE = ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)
SEED = DetectorPerformance(0.59, 1e-2)
# a high-dark-count seed, for which the dark-count floor prunes early
NOISY = DetectorPerformance(0.59, 0.35)


def _encode(r):
    return tuple((c.n, c.k) for c in r.schedule.levels)


class TestResourceCost:
    def test_uniform_three_levels(self):
        sched = Schedule(BASELINE, (LevelConfig(5, 2),) * 3)
        assert resource_cost(sched) == 216

    def test_single_level(self):
        assert resource_cost(Schedule(BASELINE, (LevelConfig(4, 1),))) == 5

    def test_mixed_levels(self):
        sched = Schedule(BASELINE, (LevelConfig(8, 2), LevelConfig(4, 1)))
        assert resource_cost(sched) == 45

    def test_multiplicative(self):
        a = (LevelConfig(3, 1), LevelConfig(5, 2))
        b = (LevelConfig(7, 4),)
        assert resource_cost(Schedule(BASELINE, a + b)) == resource_cost(
            Schedule(BASELINE, a)
        ) * resource_cost(Schedule(BASELINE, b))


class TestSearchSchedules:
    def test_vacuous_targets_select_minimum_cost(self):
        query = OptimizationQuery(SEED, BASELINE, 0.0, 1.0, max_levels=2, n_max=3)
        results = search_schedules(query, top=10)
        assert results
        assert _encode(results[0]) == ((1, 1),)
        assert results[0].cost == 2

    def test_unattainable_target_yields_empty(self):
        query = OptimizationQuery(SEED, BASELINE, 1.01, 1e-9, max_levels=2, n_max=4)
        assert len(search_schedules(query)) == 0

    @pytest.mark.parametrize("top", [1, None])
    def test_every_row_screened_out_yields_empty_columns(self, top):
        # one level, which is the last: the screen passes nothing to the kernel
        query = OptimizationQuery(SEED, BASELINE, 1.01, 1e-9, max_levels=1, n_max=4)
        result = search_schedules(query, top=top)
        assert len(result) == 0
        assert [col.dtype for col in (result.codes, result.costs, result.eta, result.dcr)] == [
            np.uint64, np.int64, np.float64, np.float64
        ]

    def test_all_results_meet_targets(self):
        query = OptimizationQuery(SEED, BASELINE, 0.95, 1e-4, max_levels=3, n_max=6)
        results = search_schedules(query, top=25)
        assert results
        for r in results:
            assert r.final.eta >= 0.95
            assert r.final.dcr <= 1e-4
            assert r.cost == resource_cost(r.schedule)
            assert r.levels_used == len(r.schedule.levels)

    def test_ordering_by_cost_then_dcr(self):
        query = OptimizationQuery(SEED, BASELINE, 0.95, 1e-4, max_levels=3, n_max=6)
        results = search_schedules(query, top=25)
        keys = [(r.cost, r.final.dcr, -r.final.eta) for r in results]
        assert keys == sorted(keys)

    def test_deterministic_across_runs(self):
        query = OptimizationQuery(SEED, BASELINE, 0.95, 1e-4, max_levels=3, n_max=6)
        a = search_schedules(query, top=25)
        b = search_schedules(query, top=25)
        assert [(_encode(r), r.final, r.cost) for r in a] == [
            (_encode(r), r.final, r.cost) for r in b
        ]

    def test_recorded_final_reproduces_exactly(self):
        query = OptimizationQuery(SEED, BASELINE, 0.95, 1e-4, max_levels=3, n_max=6)
        for r in search_schedules(query, top=25):
            traj = iterate_schedule(
                SEED,
                r.schedule,
                ConvergenceRule(max_levels=r.levels_used, eta_tol=0.0, dcr_tol=0.0),
            )
            assert traj.final() == r.final

    @pytest.mark.parametrize(
        "seed,targets,top",
        [
            (SEED, (0.7, 2e-2), None),
            (SEED, (0.7, 2e-2), 3),
            (SEED, (0.0, 1.0), None),
            (SEED, (0.0, 1.0), 5),
            (SEED, (0.99, 1e-12), None),
            # High-dark-count seed with a target just above the provable
            # floor: exercises the dark-count prune near its boundary.
            (NOISY, (0.0, 0.08), None),
            (NOISY, (0.0, 0.13), None),
        ],
    )
    def test_matches_naive_enumeration(self, seed, targets, top):
        _assert_matches_naive(seed, targets, top, max_levels=2)

    @pytest.mark.parametrize(
        "seed,targets,top",
        [
            # the floor drops rows at both frontier handoffs
            (NOISY, (0.0, 0.08), None),
            # ... and the cost prune at the second one
            (NOISY, (0.0, 0.08), 1),
            # the cost prune drops rows at both handoffs
            (SEED, (0.7, 2e-2), 1),
        ],
    )
    def test_matches_naive_enumeration_three_levels(self, seed, targets, top):
        _assert_matches_naive(seed, targets, top, max_levels=3)

    def test_reference_targets_include_constant_config(self):
        # Full listing at the reference targets contains the constant (8,4)
        # schedule, landing on the known plateau.
        query = OptimizationQuery(SEED, BASELINE, 0.93, 1e-9, max_levels=4, n_max=8)
        tracemalloc.start()
        try:
            results = search_schedules(query, top=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The search's own peak: 95.5 MiB when each level was first copied whole
        # into level-wide arrays, 36.5 MiB with each config's rows filtered as
        # the kernel returns them, 25.6 MiB with the last level screened, and
        # 6.6 MiB with every screen and kernel call run over blocks of rows.
        assert peak < 12 * 2**20
        assert results
        encodings = {_encode(r): r for r in results}
        target = ((8, 4),) * 4
        assert target in encodings
        r = encodings[target]
        assert r.cost == 9**4
        assert r.final.eta == pytest.approx(0.934, abs=1e-3)
        assert r.final.dcr == pytest.approx(8.5e-10, rel=0.10)

    def test_full_listing_memory_at_n_max_10(self):
        # The search's own peak on a 118,137-row listing from 160,175
        # last-level parents: 115.5 MiB with the last level's tables built for
        # its whole frontier; 20.9 MiB with the calls run over blocks but the
        # last level's firing probabilities computed for all its parents
        # while the previous level's frontier parts were still held; 14.2 MiB
        # with the probabilities per block and the parts freed first.
        query = OptimizationQuery(SEED, BASELINE, 0.93, 1e-9, max_levels=4, n_max=10)
        tracemalloc.start()
        try:
            results = search_schedules(query, top=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 118_137
        assert peak < 18 * 2**20

    def test_listing_of_every_schedule_memory(self):
        # Vacuous targets list all 111,110 schedules of up to 5 levels at
        # n_max 4.  The search's own peak: 11.1 MiB with the feasible row sets
        # held while their joined rows are ranked, 7.6 MiB with them freed
        # once joined.
        query = OptimizationQuery(SEED, BASELINE, 0.0, 1.0, max_levels=5, n_max=4)
        tracemalloc.start()
        try:
            results = search_schedules(query, top=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 111_110
        assert peak < 9 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError, match="max_levels"):
            OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, max_levels=7, n_max=8)
        with pytest.raises(ValueError, match="n_max"):
            OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, max_levels=4, n_max=13)
        query = OptimizationQuery(SEED, BASELINE, 0.9, 1e-6)
        with pytest.raises(ValueError, match="top"):
            search_schedules(query, top=0)

    @pytest.mark.parametrize("bad", [True, 2.5, 2.0, "3", 0, 13])
    @pytest.mark.parametrize("field", ["max_levels", "n_max"])
    def test_space_bounds_must_be_integers_in_range(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, **{field: bad})

    @pytest.mark.parametrize(
        "init,params,field",
        [
            (None, BASELINE, "init"),
            ((0.59, 1e-2), BASELINE, "init"),
            (BASELINE, SEED, "init"),  # the two swapped
            (SEED, None, "params"),
            (SEED, (0.98, 0.97, 0.002), "params"),
        ],
    )
    def test_model_objects_must_have_their_types(self, init, params, field):
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            OptimizationQuery(init, params, 0.9, 1e-6)

    @pytest.mark.parametrize("bad", [True, 2.5, "3", 0, -1])
    def test_top_must_be_positive_integer_or_none(self, bad):
        query = OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, max_levels=1, n_max=2)
        with pytest.raises(ValueError, match="top must be an integer"):
            search_schedules(query, top=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, True, "0.9", None])
    def test_targets_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="de_target"):
            OptimizationQuery(SEED, BASELINE, bad, 1e-6)
        with pytest.raises(ValueError, match="dcr_target"):
            OptimizationQuery(SEED, BASELINE, 0.9, bad)


def _assert_matches_naive(seed, targets, top, max_levels):
    # The pruned batch search must agree with a naive scan of every
    # schedule of up to max_levels levels at n_max 3, evaluated through the
    # scalar path.
    de_t, dcr_t = targets
    query = OptimizationQuery(seed, BASELINE, de_t, dcr_t, max_levels=max_levels, n_max=3)
    configs = [(n, k) for n in range(1, 4) for k in range(1, n + 1)]
    naive = []
    for length in range(1, max_levels + 1):
        for combo in product(configs, repeat=length):
            sched = Schedule(BASELINE, tuple(LevelConfig(n, k) for n, k in combo))
            traj = iterate_schedule(
                seed, sched, ConvergenceRule(max_levels=length, eta_tol=0.0, dcr_tol=0.0)
            )
            final = traj.final()
            if final.eta >= de_t and final.dcr <= dcr_t:
                naive.append(RankedSchedule(sched, final, resource_cost(sched), length))
    naive.sort(key=lambda r: (r.cost, r.final.dcr, -r.final.eta, r.levels_used, _encode(r)))
    if top is not None:
        naive = naive[:top]
    got = search_schedules(query, top=top)
    assert [(_encode(r), r.final, r.cost, r.levels_used) for r in got] == [
        (_encode(r), r.final, r.cost, r.levels_used) for r in naive
    ]


class TestCostPrune:
    """The cost prune drops no schedule among the `top` cheapest."""

    @pytest.mark.parametrize("n_max,max_levels", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("targets", [(0.0, 1.0), (0.7, 2e-2), (0.9, 1e-4), (0.93, 1e-9)])
    @pytest.mark.parametrize("seed", [SEED, NOISY, DetectorPerformance(0.275, 1e-6)])
    # at top=32 a prefix's doubled cost equals the threshold in three of these
    # queries, so a strict prune (2 * cost < threshold) fails there
    @pytest.mark.parametrize("top", [1, 3, 10, 32, 50])
    def test_top_is_prefix_of_full_listing(self, top, seed, targets, n_max, max_levels):
        query = OptimizationQuery(seed, BASELINE, *targets, max_levels=max_levels, n_max=n_max)
        full = search_schedules(query, top=None)
        got = search_schedules(query, top=top)
        assert got.configs == full.configs
        for column in ("codes", "costs", "eta", "dcr"):
            assert np.array_equal(getattr(got, column), getattr(full, column)[:top]), column

    @pytest.mark.parametrize("targets", [(0.9, 1e-4), (0.93, 1e-9)])
    @pytest.mark.parametrize("seed", [SEED, NOISY, DetectorPerformance(0.275, 1e-6)])
    @pytest.mark.parametrize("top", [1, 50, 300])
    def test_top_is_prefix_of_full_listing_at_n_max_12(self, top, seed, targets):
        # At n_max 12 the gate cuts a parent at some n of a level while it
        # still expands it at smaller n.
        query = OptimizationQuery(seed, BASELINE, *targets, max_levels=3, n_max=12)
        full = _full_listing(query)
        got = search_schedules(query, top=top)
        for column in ("codes", "costs", "eta", "dcr"):
            assert np.array_equal(getattr(got, column), getattr(full, column)[:top]), column

    def test_gate_updates_within_a_level(self, monkeypatch):
        # On the search-top query only 4 rows are feasible within two levels,
        # so level 3 starts with no threshold and its n = 1 call gets the
        # whole frontier.  The rows its small n find must already shrink
        # what its larger n pass to the kernel; a threshold frozen at the
        # start of each level passes the whole frontier at every n there.
        query = OptimizationQuery(SEED, BASELINE, 0.93, 1e-9, max_levels=4, n_max=12)
        calls = []  # (level, n, rows) of every kernel call
        kernel = _kernels.level_map_batch

        def spy(eta, *args):
            n = args[4]
            level = calls[-1][0] + (n <= calls[-1][1]) if calls else 1
            calls.append((level, n, len(eta)))
            return kernel(eta, *args)

        monkeypatch.setattr(_kernels, "level_map_batch", spy)
        assert len(search_schedules(query, top=50)) == 50
        level3 = {n: rows for level, n, rows in calls if level == 3}
        assert len(level3) == query.n_max  # this query's gate stops no level early
        frontier = level3[1]
        assert all(rows < frontier for n, rows in level3.items() if n >= 6)
        # state-thresholds evaluated: 722,592 without the gate, 114,358 with it
        assert sum(rows * n for _, n, rows in calls) <= 120_000


@functools.lru_cache(maxsize=None)
def _full_listing(query):
    return search_schedules(query, top=None)


class TestDcrFloor:
    """The dark-count prune's floor never cuts a reachable schedule."""

    # down to d**12 in the subnormal range, the bulk, and d within 1e-9..1e-3 of 1
    D_GRID = np.concatenate([
        [0.0], np.logspace(-30, 0, 61), np.linspace(0.05, 0.95, 19), 1.0 - np.logspace(-9, -3, 7),
    ])

    @pytest.mark.parametrize("n_max", range(1, MAX_SEARCH_N + 1))
    def test_one_step_floor_below_exact_next_level(self, n_max):
        floor = _dcr_floor(self.D_GRID, n_max, 1)
        # eta = 0 and Q_err = 0 give q_pos == d, where the floor is tight
        for params in (BASELINE, ComponentParams(0.5, 0.3, 0.0), ComponentParams(1.0, 1.0, 1.0)):
            for eta in (0.0, 1e-300, 0.59, 1.0):
                for n in range(1, n_max + 1):
                    for k in range(1, n + 1):
                        ((_, exact),) = _kernels.level_map_batch(
                            np.full_like(self.D_GRID, eta), self.D_GRID,
                            params.p, params.P_act, params.Q_err, n, (k,),
                        )
                        assert np.all(floor <= exact), (params, eta, n, k)

    @pytest.mark.parametrize("n_max", range(1, 5))
    def test_two_step_floor_below_every_two_level_schedule(self, n_max):
        floor = _dcr_floor(self.D_GRID, n_max, 2)
        configs = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
        for params in (BASELINE, ComponentParams(0.5, 0.3, 0.0)):
            for eta in (0.0, 0.59):
                for n1, k1 in configs:
                    ((e1, d1),) = _kernels.level_map_batch(
                        np.full_like(self.D_GRID, eta), self.D_GRID,
                        params.p, params.P_act, params.Q_err, n1, (k1,),
                    )
                    for n2, k2 in configs:
                        ((_, d2),) = _kernels.level_map_batch(
                            e1, d1, params.p, params.P_act, params.Q_err, n2, (k2,)
                        )
                        assert np.all(floor <= d2), (params, eta, n1, k1, n2, k2)


class TestScreen:
    """The last level's screen never keeps a feasible (row, n, k) from the kernel."""

    # P_act > Q_err, P_act < Q_err (so q_pos > p_pos wherever eta > 0 and
    # d < 1), and P_act == Q_err (p_pos == q_pos, where the ceiling is tight)
    PARAMS = (
        BASELINE,
        ComponentParams(0.5, 0.3, 0.9),
        ComponentParams(0.9, 0.002, 0.97),
        ComponentParams(0.95, 0.6, 0.6),
    )

    @staticmethod
    def _states(seed):
        # eta in {0, 1} x d in {0, 1e-30, 1}, then random states, a third of
        # them at eta = 0, where de' equals dcr' up to rounding
        rng = np.random.default_rng(seed)
        eta = np.concatenate([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0], rng.uniform(0, 1, 600)])
        eta[6::3] = 0.0
        d = np.concatenate([[0.0, 1e-30, 1.0] * 2, 10.0 ** rng.uniform(-30, 0, 600)])
        return eta, d

    @pytest.mark.parametrize("n_max", [8, 12])
    def test_ceiling_and_dcr_bound_every_config(self, n_max):
        # dcr' is the kernel's own value and the ceiling is above its de', so
        # every (row, n, k) that meets any pair of targets passes the screen
        eta, d = self._states(n_max)
        for params in self.PARAMS:
            probs = firing_probs(eta, d, params.P_act, params.Q_err)
            for n in range(1, n_max + 1):
                figures = _kernels.level_map_batch(
                    eta, d, params.p, params.P_act, params.Q_err, n, range(1, n + 1)
                )
                for k, ((ceiling, dcr), (e2, d2)) in enumerate(
                    zip(_screen(probs, params, n), figures), 1
                ):
                    assert np.array_equal(dcr, d2), (params, n, k)
                    assert np.all(ceiling >= e2), (params, n, k)

    @pytest.mark.parametrize(
        "params,seed,targets",
        [
            (BASELINE, SEED, (0.93, 1e-9)),
            (BASELINE, SEED, (0.7, 2e-2)),
            (BASELINE, NOISY, (0.3, 0.1)),
            # P_act < Q_err, with a few hundred feasible rows each
            (ComponentParams(0.9, 0.3, 0.5), DetectorPerformance(0.9, 1e-3), (0.55, 0.74)),
            (ComponentParams(0.7, 0.05, 0.3), DetectorPerformance(0.9, 1e-3), (2e-3, 1e-2)),
        ],
    )
    def test_search_equals_unscreened_search(self, monkeypatch, params, seed, targets):
        query = OptimizationQuery(seed, params, *targets, max_levels=3, n_max=6)
        screened = search_schedules(query, top=None)

        def passes_all(probs, params, n):
            return [(np.full_like(probs[0], np.inf), np.full_like(probs[0], -np.inf))] * n

        monkeypatch.setattr(optimize, "_screen", passes_all)
        full = search_schedules(query, top=None)
        for column in ("codes", "costs", "eta", "dcr"):
            assert np.array_equal(getattr(screened, column), getattr(full, column)), column

    @pytest.mark.parametrize(
        "n_max,top,expected", [(8, None, 414_698), (12, 50, 107_004)],
        ids=["search-all", "search-top"],
    )
    def test_kernel_work_on_benchmark_queries(self, monkeypatch, n_max, top, expected):
        # state-thresholds sent to the kernel: 1,632,240 and 114,358 without
        # the screen, and 419,000 on search-all with one screen of the whole
        # last level per n, not one per block; a looser screen sends more
        query = OptimizationQuery(SEED, BASELINE, 0.93, 1e-9, max_levels=4, n_max=n_max)
        kernel = _kernels.level_map_batch
        work = []

        def spy(eta, d, p, P, Q, n, ks):
            work.append(len(eta) * len(ks))
            return kernel(eta, d, p, P, Q, n, ks)

        monkeypatch.setattr(_kernels, "level_map_batch", spy)
        search_schedules(query, top=top)
        assert sum(work) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_thresholds_in_any_order_are_the_all_thresholds_bits(self, data):
        # the screen hands the kernel a subset of each n's thresholds
        n = data.draw(st.integers(min_value=1, max_value=MAX_SEARCH_N))
        ks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
        probs = st.floats(min_value=0.0, max_value=1.0)
        edge = st.sampled_from([0.0, 1e-30, 1.0]) | probs
        params = ComponentParams(data.draw(probs), data.draw(edge), data.draw(edge))
        etas = data.draw(st.lists(edge, min_size=1, max_size=6))
        ds = [data.draw(edge) for _ in etas]
        states = [(eta, d) for eta, d in zip(etas, ds)] + [(np.array(etas), np.array(ds))]
        for eta, d in states:
            fp = firing_probs(eta, d, params.P_act, params.Q_err)
            every = level_figures(*fp, params.p, n, range(1, n + 1))
            for k, (de, dcr) in zip(ks, level_figures(*fp, params.p, n, ks)):
                assert type(de) is type(every[k - 1][0])
                assert np.array_equal(de, every[k - 1][0]), (n, k)
                assert np.array_equal(dcr, every[k - 1][1]), (n, k)


class TestBlocks:
    """The search's rows and the parents its gate passes do not depend on BLOCK_ROWS."""

    @staticmethod
    def _run(monkeypatch, query, top, block):
        # the result and the parent count of each kernel call at a block size
        monkeypatch.setattr(optimize, "BLOCK_ROWS", block)
        kernel = _kernels.level_map_batch
        calls = []

        def spy(eta, *args):
            calls.append(len(eta))
            return kernel(eta, *args)

        monkeypatch.setattr(_kernels, "level_map_batch", spy)
        try:
            return search_schedules(query, top=top), calls
        finally:
            monkeypatch.setattr(_kernels, "level_map_batch", kernel)

    @pytest.mark.parametrize("top", [1, 50, None])
    @pytest.mark.parametrize(
        "block,params,seed,targets,n_max,max_levels",
        [
            (1, BASELINE, SEED, (0.9, 1e-4), 4, 3),
            (7, BASELINE, NOISY, (0.3, 0.1), 6, 3),
            # P_act < Q_err
            (7, ComponentParams(0.9, 0.3, 0.5), DetectorPerformance(0.9, 1e-3), (0.55, 0.74), 6, 3),
            (97, ComponentParams(0.7, 0.05, 0.3), DetectorPerformance(0.9, 1e-3), (2e-3, 1e-2), 6, 3),
            (7, BASELINE, SEED, (0.9, 1e-4), 12, 2),
            (97, BASELINE, SEED, (0.93, 1e-9), 12, 3),
        ],
    )
    def test_blocked_search_equals_unblocked(
        self, monkeypatch, block, params, seed, targets, n_max, max_levels, top
    ):
        # Each block's kernel gets the rows its own screen passes, and the
        # gate's threshold comes from every block of an n, so the kernel sees
        # the same parents in all, only split up.
        query = OptimizationQuery(seed, params, *targets, max_levels=max_levels, n_max=n_max)
        whole, whole_calls = self._run(monkeypatch, query, top, 2**62)
        got, calls = self._run(monkeypatch, query, top, block)
        assert len(whole)
        for column in ("codes", "costs", "eta", "dcr"):
            assert getattr(got, column).tobytes() == getattr(whole, column).tobytes(), column
        assert max(calls) <= block
        assert sum(calls) == sum(whole_calls)


# the search's config table at MAX_SEARCH_N: code byte c names CONFIGS[c - 1]
CONFIGS = tuple(
    LevelConfig(n, k) for n in range(1, MAX_SEARCH_N + 1) for k in range(1, n + 1)
)


def _pool(rows):
    """A SearchResult holding ``rows`` of (configs, eta, dcr), in order."""
    codes = []
    for cfgs, _, _ in rows:
        code = 0
        for n, k in cfgs:
            code = (code << 8) | (CONFIGS.index(LevelConfig(n, k)) + 1)
        codes.append(code)
    return SearchResult(
        BASELINE,
        CONFIGS,
        np.array(codes, dtype=np.uint64),
        np.array([math.prod(n + 1 for n, _ in cfgs) for cfgs, _, _ in rows], dtype=np.int64),
        np.array([eta for _, eta, _ in rows], dtype=np.float64),
        np.array([dcr for _, _, dcr in rows], dtype=np.float64),
    )


def _dominates(a, b):
    return (
        a.cost <= b.cost
        and a.final.eta >= b.final.eta
        and a.final.dcr <= b.final.dcr
        and (a.cost < b.cost or a.final.eta > b.final.eta or a.final.dcr < b.final.dcr)
    )


def _shift_decode(code, length):
    # a code's 1-based config indices, first level first, shifted out one byte at a time
    return tuple((code >> s) & 0xFF for s in range(8 * length - 8, -8, -8))


class TestSearchResult:
    # Every schedule of up to 4 levels over the 6 configs with n <= 3, so
    # the listing holds every run shape, x2 to x4 runs included.
    LISTING = OptimizationQuery(SEED, BASELINE, 0.0, 1.0, max_levels=4, n_max=3)

    def test_labels_match_golden_label_of_every_row(self):
        result = search_schedules(self.LISTING, top=None)
        assert len(result) == 6 + 6**2 + 6**3 + 6**4
        expected = [schedule_label(r.schedule.levels) for r in result]
        assert "1:1x4" in expected and "2:1+3:3x2+2:1" in expected
        assert result.labels() == expected

    def test_rows_are_built_from_the_columns(self):
        result = search_schedules(self.LISTING, top=None)
        rows = list(result)
        assert [r.cost for r in rows] == result.costs.tolist()
        assert [r.final.eta for r in rows] == result.eta.tolist()
        assert [r.levels_used for r in rows] == [len(r.schedule.levels) for r in rows]
        assert result[-1] == rows[-1]
        assert list(result[5:9]) == rows[5:9]
        with pytest.raises(IndexError):
            result[len(result)]

    def test_columns_read_as_a_sequence_of_rows(self):
        # a set of columns, not a record: == is identity and iteration yields rows
        pool = _pool([
            ([(4, 1)], 0.9, 1e-3), ([(1, 1), (4, 2)], 0.95, 1e-4), ([(2, 1)], 0.8, 1e-2),
        ])
        columns = ("params", "configs", "codes", "costs", "eta", "dcr")
        same = SearchResult(**{name: getattr(pool, name) for name in columns})
        assert same != pool and same.labels() == pool.labels() == ["4:1", "1:1+4:2", "2:1"]
        assert len(pool) == 3 and list(pool) == [pool[0], pool[1], pool[-1]]
        assert pool[0] == RankedSchedule(
            Schedule(BASELINE, (LevelConfig(4, 1),)), DetectorPerformance(0.9, 1e-3), 5, 1
        )
        part = pool[1:]
        assert isinstance(part, SearchResult) and part.configs is pool.configs
        assert part.labels() == ["1:1+4:2", "2:1"] and part.costs.tolist() == [10, 3]
        assert pareto_front(pool).labels() == ["2:1", "4:1", "1:1+4:2"]
        with pytest.raises(AttributeError):
            pool.extra = None

    def test_six_level_codes_decode_at_full_width(self):
        # Every schedule of up to 6 levels over the 3 configs with n <= 2, so
        # 5- and 6-byte codes are ranked and decoded.
        query = OptimizationQuery(SEED, BASELINE, 0.0, 1.0, max_levels=6, n_max=2)
        result = search_schedules(query, top=None)
        assert len(result) == sum(3**m for m in range(1, 7))
        lengths = [r.levels_used for r in result]
        encodings = [_shift_decode(*row) for row in zip(result.codes.tolist(), lengths)]
        assert max(lengths) == 6
        keys = list(zip(
            result.costs.tolist(), result.dcr.tolist(), (-result.eta).tolist(),
            lengths, encodings,
        ))
        assert keys == sorted(keys)
        levels = [tuple(CONFIGS[ci - 1] for ci in enc) for enc in encodings]
        assert result.labels() == [schedule_label(cfgs) for cfgs in levels]
        assert [r.schedule.levels for r in result] == levels

        front = pareto_front(result)
        keys = list(zip(
            front.costs.tolist(), (-front.eta).tolist(), front.dcr.tolist(),
            map(_shift_decode, front.codes.tolist(), [r.levels_used for r in front]),
        ))
        assert len(keys) > 1 and keys == sorted(keys)

    def test_front_of_listing_matches_brute_force_definition(self):
        rows = list(search_schedules(self.LISTING, top=None))
        expected = sorted(
            (r for r in rows if not any(_dominates(q, r) for q in rows)),
            key=lambda r: (r.cost, -r.final.eta, r.final.dcr, _encode(r)),
        )
        assert list(pareto_front(search_schedules(self.LISTING, top=None))) == expected


class TestParetoFront:
    def test_singleton(self):
        pool = _pool([([(4, 1)], 0.9, 1e-3)])
        assert list(pareto_front(pool)) == list(pool)

    def test_dominated_element_removed(self):
        pool = _pool([([(4, 1)], 0.95, 1e-4), ([(8, 1)], 0.90, 1e-3)])
        assert list(pareto_front(pool)) == [pool[0]]

    def test_ties_on_all_axes_both_kept(self):
        pool = _pool([([(4, 1)], 0.9, 1e-3), ([(4, 2)], 0.9, 1e-3)])  # same cost 5
        assert len(pareto_front(pool)) == 2

    def test_equal_rows_of_two_lengths_sort_by_encoding(self):
        # Both rows cost 4 and tie on eta and dcr, so the encoding decides:
        # config indices (1, 1) sort before (4,), though code 0x0101 > 0x04.
        pool = _pool([([(3, 1)], 0.9, 1e-3), ([(1, 1), (1, 1)], 0.9, 1e-3)])
        assert pareto_front(pool).labels() == ["1:1x2", "3:1"]

    def test_front_never_contains_dominated_pair(self):
        rng = np.random.default_rng(37)
        pool = _pool([
            (
                [(int(rng.integers(1, 9)), 1)],
                float(rng.uniform(0.5, 1.0)),
                float(rng.uniform(0, 1e-3)),
            )
            for _ in range(40)
        ])
        front = list(pareto_front(pool))
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not _dominates(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_definition(self, seed):
        # Few distinct values per axis, so the pools hold ties on every
        # axis, all-axes ties and repeated schedules.
        rng = np.random.default_rng(seed)
        pool = _pool([
            (
                [(int(rng.integers(1, 4)), 1)] * int(rng.integers(1, 3)),
                float(rng.choice([0.5, 0.7, 0.9])),
                float(rng.choice([1e-4, 1e-3, 1e-2])),
            )
            for _ in range(int(rng.integers(1, 60)))
        ])
        rows = list(pool)
        expected = sorted(
            (r for r in rows if not any(_dominates(q, r) for q in rows)),
            key=lambda r: (r.cost, -r.final.eta, r.final.dcr, _encode(r)),
        )
        assert list(pareto_front(pool)) == expected

    def test_reference_three_level_prefixes(self):
        # Three known schedules truncated at level 3 all reach the same
        # plateau; the front keeps the cheapest and ranks it first.
        prefixes = [
            [(8, 2), (8, 4), (8, 4)],
            [(4, 2), (8, 4), (8, 4)],
            [(3, 1), (6, 4), (8, 4)],
        ]
        pool_rows = []
        for cfgs in prefixes:
            sched = Schedule(BASELINE, tuple(LevelConfig(n, k) for n, k in cfgs))
            traj = iterate_schedule(
                SEED, sched, ConvergenceRule(max_levels=3, eta_tol=0.0, dcr_tol=0.0)
            )
            pool_rows.append((cfgs, traj.final().eta, traj.final().dcr))
        ranked = list(_pool(pool_rows))
        for r in ranked:
            assert 0.93 < r.final.eta < 0.94
            assert r.final.dcr < 2e-9
        front = list(pareto_front(_pool(pool_rows)))
        cheapest = min(ranked, key=lambda r: r.cost)
        assert cheapest.cost == 252
        assert cheapest in front
        assert front[0] == cheapest
