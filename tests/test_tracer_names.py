"""The benchmark tracer's layer names and search metrics must stay meaningful.

``perfbench/tracer.py`` patches every ``(module, attribute)`` it lists, so
deleting or renaming one of them in ``src/espd`` breaks ``--trace 1`` runs.
Its per-level search metrics count one frontier per run of consecutive
``level_map_batch`` calls on one state array; a level of more rows than
``optimize.BLOCK_ROWS`` is passed one block at a time, and the last level's
calls each get the parents the screen passes in one block, a new array per
call.  These tests load the tracer from its file and fail first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from espd import ComponentParams, DetectorPerformance, OptimizationQuery

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    names = [entry[:2] for entry in tracer.SPANNED + tracer.COUNTED]
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_search_metrics_count_one_kernel_call_per_n(monkeypatch):
    # Inner levels: one kernel call per n per level, on the level's whole
    # frontier.  Last level: at most one call per n, on the parents the
    # screen passes, which are at most the frontier (counted at the screen).
    tracer_mod = _load_tracer()
    optimize = importlib.import_module("espd.optimize")
    n_max, max_levels = 4, 3
    query = OptimizationQuery(
        DetectorPerformance(0.59, 1e-2), ComponentParams(0.98, 0.97, 0.002),
        0.93, 1e-3, max_levels=max_levels, n_max=n_max,
    )
    screened = _count_screened(monkeypatch, optimize)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        results = optimize.search_schedules(query, top=None)
    finally:
        tracer.uninstall()
    assert results
    m = tracer_mod.layer_metrics(tracer.dump(), max_levels)
    inner = [m[f"optimize.frontier_L{level}"] for level in range(1, max_levels)]
    assert m["optimize.frontier_L1"] == 1
    assert all(f > 0 for f in inner)  # every inner level is expanded
    last_frontier = list(screened.values())
    assert last_frontier == [last_frontier[0]] * n_max and last_frontier[0] > 0
    calls = m["kernels.level_map_batch.calls"]
    assert n_max * (max_levels - 1) < calls <= n_max * max_levels
    last_states = m["optimize.states_expanded"] - n_max * sum(inner)
    assert 0 < last_states <= n_max * last_frontier[0]


def _count_screened(monkeypatch, optimize):
    # the parents the last level's screen sees at each n, summed over the
    # n's blocks: with no `top` gate, each is the whole last-level frontier
    counts = {}
    screen = optimize._screen

    def counted(probs, params, n):
        counts[n] = counts.get(n, 0) + len(probs[0])
        return screen(probs, params, n)

    monkeypatch.setattr(optimize, "_screen", counted)
    return counts


# The benchmark's two search queries (variant 0), as (n_max, top), and the
# per-layer counts its tracer reads for them.  search-top's frontiers are
# left out: the gate hands the kernel calls of one level different parent
# subsets, which the tracer counts as different frontiers.  So are the
# last level's: each call gets the parents the screen passes in one block,
# so the tracer's frontier_L4 is the first such subset, and the last level
# runs in passes between level 3's n, so the tracer counts each pass as
# further levels.  search-all's true level-4 frontier is counted at the
# screen instead, summed over each n's blocks and passes.
@pytest.mark.parametrize(
    "n_max,top,expected,last_frontier",
    [
        (8, None, {
            "optimize.frontier_L1": 1, "optimize.frontier_L2": 36,
            "optimize.frontier_L3": 1_295,
            "kernels.level_map_batch.calls": 53, "kernels.level_map_batch.states": 117_923,
        }, [44_008] * 8),
        (12, 50, {
            "kernels.level_map_batch.calls": 51, "kernels.level_map_batch.states": 22_301,
        }, None),
    ],
    ids=["search-all", "search-top"],
)
def test_benchmark_search_layer_counts(monkeypatch, n_max, top, expected, last_frontier):
    tracer_mod = _load_tracer()
    optimize = importlib.import_module("espd.optimize")
    query = OptimizationQuery(
        DetectorPerformance(0.59, 1e-2), ComponentParams(0.98, 0.97, 0.002),
        0.93, 1e-9, max_levels=4, n_max=n_max,
    )
    screened = _count_screened(monkeypatch, optimize)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        optimize.search_schedules(query, top=top)
    finally:
        tracer.uninstall()
    m = tracer_mod.layer_metrics(tracer.dump(), query.max_levels)
    assert {name: m[name] for name in expected} == expected
    if last_frontier is not None:
        assert list(screened.values()) == last_frontier


def test_cli_search_is_traced_under_its_name(tmp_path):
    # The benchmark's search span wraps ``espd.optimize.search_schedules``;
    # the CLI must still reach the search through that name, and the span's
    # row count must be the CSV's.
    tracer_mod = _load_tracer()
    from espd.cli import main

    out = tmp_path / "s.csv"
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        code = main(
            ["optimize", "--de-target", "0.93", "--dcr-target", "1e-3", "--max-levels", "3",
             "--n-max", "4", "--top", "0", "--out", str(out)]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    rows = len(out.read_text().splitlines()) - 1
    spans = tracer.dump()["spans"]
    (search,) = [s for s in spans if s["name"] == "optimize.search_schedules"]
    assert rows > 0
    assert search["attrs"]["returned"] == rows
    kernels = [s for s in spans if s["name"] == "kernels.level_map_batch"]
    assert kernels
    assert all(s["parent"] == search["id"] for s in kernels)
