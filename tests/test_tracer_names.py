"""The benchmark tracer's layer names and search metrics must stay meaningful.

``perfbench/tracer.py`` patches every ``(module, attribute)`` it lists, so
deleting or renaming one of them in ``src/espd`` breaks ``--trace 1`` runs.
Its per-level search metrics count one frontier per run of consecutive
``level_map_batch`` calls on one state array.  These tests load the tracer
from its file and fail first.
"""

import importlib
import importlib.util
from pathlib import Path

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


def test_search_metrics_count_one_kernel_call_per_n():
    tracer_mod = _load_tracer()
    optimize = importlib.import_module("espd.optimize")
    n_max, max_levels = 4, 3
    query = OptimizationQuery(
        DetectorPerformance(0.59, 1e-2), ComponentParams(0.98, 0.97, 0.002),
        0.93, 1e-3, max_levels=max_levels, n_max=n_max,
    )
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        results = optimize.search_schedules(query, top=None)
    finally:
        tracer.uninstall()
    assert results
    m = tracer_mod.layer_metrics(tracer.dump(), max_levels)
    frontiers = [m[f"optimize.frontier_L{level}"] for level in range(1, max_levels + 1)]
    assert m["optimize.frontier_L1"] == 1
    assert all(f > 0 for f in frontiers)  # every level is expanded
    assert m["kernels.level_map_batch.calls"] == n_max * max_levels
    assert m["optimize.states_expanded"] == n_max * sum(frontiers)


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
