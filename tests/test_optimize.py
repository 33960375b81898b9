"""Schedule-search and Pareto-front tests."""

import math
from itertools import product

import numpy as np
import pytest

from espd import (
    ComponentParams,
    ConvergenceRule,
    DetectorPerformance,
    LevelConfig,
    OptimizationQuery,
    RankedSchedule,
    Schedule,
    iterate_schedule,
    pareto_front,
    resource_cost,
    search_schedules,
)
from espd import _kernels
from espd.optimize import MAX_SEARCH_N, _dcr_floor

BASELINE = ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)
SEED = DetectorPerformance(0.59, 1e-2)


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
        assert search_schedules(query) == []

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
            (DetectorPerformance(0.59, 0.35), (0.0, 0.08), None),
            (DetectorPerformance(0.59, 0.35), (0.0, 0.13), None),
        ],
    )
    def test_matches_naive_enumeration(self, seed, targets, top):
        # The pruned batch search must agree with a naive scan of every
        # schedule evaluated through the scalar path.
        de_t, dcr_t = targets
        query = OptimizationQuery(seed, BASELINE, de_t, dcr_t, max_levels=2, n_max=3)
        configs = [(n, k) for n in range(1, 4) for k in range(1, n + 1)]
        naive = []
        for length in (1, 2):
            for combo in product(configs, repeat=length):
                sched = Schedule(
                    BASELINE, tuple(LevelConfig(n, k) for n, k in combo)
                )
                traj = iterate_schedule(
                    seed,
                    sched,
                    ConvergenceRule(max_levels=length, eta_tol=0.0, dcr_tol=0.0),
                )
                final = traj.final()
                if final.eta >= de_t and final.dcr <= dcr_t:
                    naive.append(
                        RankedSchedule(sched, final, resource_cost(sched), length)
                    )
        naive.sort(
            key=lambda r: (r.cost, r.final.dcr, -r.final.eta, r.levels_used, _encode(r))
        )
        if top is not None:
            naive = naive[:top]
        got = search_schedules(query, top=top)
        assert [(_encode(r), r.final, r.cost, r.levels_used) for r in got] == [
            (_encode(r), r.final, r.cost, r.levels_used) for r in naive
        ]

    def test_reference_targets_include_constant_config(self):
        # Full listing at the reference targets contains the constant (8,4)
        # schedule, landing on the known plateau.
        query = OptimizationQuery(SEED, BASELINE, 0.93, 1e-9, max_levels=4, n_max=8)
        results = search_schedules(query, top=None)
        assert results
        encodings = {_encode(r): r for r in results}
        target = ((8, 4),) * 4
        assert target in encodings
        r = encodings[target]
        assert r.cost == 9**4
        assert r.final.eta == pytest.approx(0.934, abs=1e-3)
        assert r.final.dcr == pytest.approx(8.5e-10, rel=0.10)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_levels"):
            OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, max_levels=7, n_max=8)
        with pytest.raises(ValueError, match="n_max"):
            OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, max_levels=4, n_max=13)
        with pytest.raises(ValueError, match="k_rule"):
            OptimizationQuery(SEED, BASELINE, 0.9, 1e-6, k_rule="whatever")
        query = OptimizationQuery(SEED, BASELINE, 0.9, 1e-6)
        with pytest.raises(ValueError, match="top"):
            search_schedules(query, top=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_targets_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="de_target"):
            OptimizationQuery(SEED, BASELINE, bad, 1e-6)
        with pytest.raises(ValueError, match="dcr_target"):
            OptimizationQuery(SEED, BASELINE, 0.9, bad)


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
                        _, exact = _kernels.level_map_batch(
                            np.full_like(self.D_GRID, eta), self.D_GRID,
                            params.p, params.P_act, params.Q_err, n, k,
                        )
                        assert np.all(floor <= exact), (params, eta, n, k)

    @pytest.mark.parametrize("n_max", range(1, 5))
    def test_two_step_floor_below_every_two_level_schedule(self, n_max):
        floor = _dcr_floor(self.D_GRID, n_max, 2)
        configs = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
        for params in (BASELINE, ComponentParams(0.5, 0.3, 0.0)):
            for eta in (0.0, 0.59):
                for n1, k1 in configs:
                    e1, d1 = _kernels.level_map_batch(
                        np.full_like(self.D_GRID, eta), self.D_GRID,
                        params.p, params.P_act, params.Q_err, n1, k1,
                    )
                    for n2, k2 in configs:
                        _, d2 = _kernels.level_map_batch(
                            e1, d1, params.p, params.P_act, params.Q_err, n2, k2
                        )
                        assert np.all(floor <= d2), (params, eta, n1, k1, n2, k2)


def _ranked(cfgs, eta, dcr):
    sched = Schedule(BASELINE, tuple(LevelConfig(n, k) for n, k in cfgs))
    return RankedSchedule(
        sched, DetectorPerformance(eta, dcr), resource_cost(sched), len(cfgs)
    )


class TestParetoFront:
    def test_singleton(self):
        r = _ranked([(4, 1)], 0.9, 1e-3)
        assert pareto_front([r]) == [r]

    def test_dominated_element_removed(self):
        better = _ranked([(4, 1)], 0.95, 1e-4)
        worse = _ranked([(8, 1)], 0.90, 1e-3)
        assert pareto_front([better, worse]) == [better]

    def test_ties_on_all_axes_both_kept(self):
        a = _ranked([(4, 1)], 0.9, 1e-3)
        b = _ranked([(4, 2)], 0.9, 1e-3)  # same cost 5
        assert len(pareto_front([a, b])) == 2

    def test_front_never_contains_dominated_pair(self):
        import numpy as np

        rng = np.random.default_rng(37)
        pool = [
            _ranked(
                [(int(rng.integers(1, 9)), 1)],
                float(rng.uniform(0.5, 1.0)),
                float(rng.uniform(0, 1e-3)),
            )
            for _ in range(40)
        ]
        front = pareto_front(pool)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    a.cost <= b.cost
                    and a.final.eta >= b.final.eta
                    and a.final.dcr <= b.final.dcr
                    and (
                        a.cost < b.cost
                        or a.final.eta > b.final.eta
                        or a.final.dcr < b.final.dcr
                    )
                )
                assert not dominates

    def test_reference_three_level_prefixes(self):
        # Three known schedules truncated at level 3 all reach the same
        # plateau; the front keeps the cheapest and ranks it first.
        prefixes = [
            [(8, 2), (8, 4), (8, 4)],
            [(4, 2), (8, 4), (8, 4)],
            [(3, 1), (6, 4), (8, 4)],
        ]
        ranked = []
        for cfgs in prefixes:
            sched = Schedule(BASELINE, tuple(LevelConfig(n, k) for n, k in cfgs))
            traj = iterate_schedule(
                SEED, sched, ConvergenceRule(max_levels=3, eta_tol=0.0, dcr_tol=0.0)
            )
            ranked.append(
                RankedSchedule(sched, traj.final(), resource_cost(sched), 3)
            )
        for r in ranked:
            assert 0.93 < r.final.eta < 0.94
            assert r.final.dcr < 2e-9
        front = pareto_front(ranked)
        cheapest = min(ranked, key=lambda r: r.cost)
        assert cheapest.cost == 252
        assert cheapest in front
        assert front[0] is cheapest
