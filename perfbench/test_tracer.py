"""Tests of the benchmark's tracer: spans nest, and tracing changes no output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import espd.cli  # noqa: E402
import espd.optimize  # noqa: E402
import tracer  # noqa: E402

SEARCH = ["optimize", "--de-target", "0.9", "--dcr-target", "1e-6", "--max-levels", "3",
          "--n-max", "4", "--top", "0", "--out", "schedules.csv"]
ORACLE = ["oracle", "--n", "6", "--k", "3", "--trials", "300000", "--threads", "2"]
TABLE = ["tables", "--table", "6", "--out", "table6.csv"]


def traced_pass(commands, workdir):
    t = tracer.Tracer()
    t.install()
    try:
        result = tracer.run_pass(t.wrap("cli.main", espd.cli.main), commands, str(workdir))
    finally:
        t.uninstall()
    return result, t.dump()


def parents(dump):
    by_id = {s["id"]: s for s in dump["spans"]}
    return {s["id"]: by_id.get(s["parent"], {}).get("name") for s in dump["spans"]}


def test_search_expand_and_recheck_sit_under_search(tmp_path):
    _, dump = traced_pass([["search", SEARCH]], tmp_path)
    parent = parents(dump)
    names = {s["name"] for s in dump["spans"]}
    assert {"kernels.level_map_batch", "dynamics.iterate_schedule"} <= names
    for s in dump["spans"]:
        if s["name"] in ("kernels.level_map_batch", "dynamics.iterate_schedule"):
            assert parent[s["id"]] == "optimize.search_schedules"
        if s["name"] == "optimize.search_schedules":
            assert parent[s["id"]] == "cli.main"
    m = tracer.layer_metrics(dump)
    assert m["optimize.frontier_L1"] == 1
    assert m["optimize.frontier_L2"] == 10  # configs with 1 <= k <= n <= 4
    assert m["optimize.recheck_calls"] == m["dynamics.iterate_schedule.calls"] > 0
    assert m["binomial.tail.calls"] > 0 and m["dynamics.level_map.calls"] > 0


def test_pool_thread_blocks_sit_under_mc_level(tmp_path):
    _, dump = traced_pass([["oracle", ORACLE]], tmp_path)
    parent = parents(dump)
    blocks = [s for s in dump["spans"] if s["name"] == "kernels.mc_block"]
    assert len(blocks) == 5  # ceil(300000 / 65536)
    assert all(parent[s["id"]] == "oracle.mc_level" for s in blocks)
    assert any(s["thread"] != threading.get_ident() for s in blocks)
    m = tracer.layer_metrics(dump)
    assert m["kernels.mc_block.trials"] == 300000
    assert 0.0 < m["oracle.mc_parallel_eff"] <= 1.0


def test_tracing_changes_no_output(tmp_path):
    commands = [["search", SEARCH], ["oracle", ORACLE], ["table", TABLE]]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = tracer.run_pass(espd.cli.main, commands, str(tmp_path / "plain"))
    traced, _ = traced_pass(commands, tmp_path / "traced")
    assert plain["commands"] == traced["commands"]
    for name in ("schedules.csv", "table6.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()


def test_uninstall_restores_every_attribute():
    original = espd.optimize.iterate_schedule
    t = tracer.Tracer()
    t.install()
    assert espd.optimize.iterate_schedule is not original
    t.uninstall()
    assert espd.optimize.iterate_schedule is original


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},  # overlaps 1 (another thread)
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # clipped at the parent's end
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == 10.0 - 4.0 - 1.0
    assert selfs[1] == 3.0
