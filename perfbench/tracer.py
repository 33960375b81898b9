"""In-process tracer of espd's layers, and the traced child of ``run.py``.

The tracer wraps the public functions of each layer on the attribute the
caller looks up (``espd.optimize.iterate_schedule``, ``espd._kernels.level_map_batch``,
``espd.oracle.mc_level``, ...), so no file of the package changes.  A span
records name, start, end, parent and thread; a span opened on a thread
that has no open span of its own (the oracle's pool threads) takes the
innermost open span of the installing thread as its parent, which is the
enclosing ``mc_level``.  Hot scalar functions (``binomial.*``,
``level_map``, ``de_gain``) are counted, not spanned.  Spans and counts stay
in memory until :meth:`Tracer.dump`.

Run as a script with a JSON spec, it times ``import espd.cli``, runs the
spec's commands through ``espd.cli.main`` untraced and then traced, each in
its own work directory, and writes the two passes plus the trace to the
spec's ``out`` path.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _states(args, kwargs, result):
    eta = args[0]
    # consecutive calls on one state array expand one search frontier
    return {"states": len(eta), "array": id(eta)}


def _mc_block(args, kwargs, result):
    trials, n = args[1], args[2]
    # uint64 counters and float64 uniforms, trials x (3n + 2) each
    return {"trials": trials, "bytes": 2 * 8 * trials * (3 * n + 2)}


def _vote_mass(args, kwargs, result):
    return {"outcomes": 1 << len(args[0])}


def _mc_level(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[5] if len(args) > 5 else 1)}


def _trajectory(args, kwargs, result):
    return {"levels": len(result.points) - 1}


def _returned(args, kwargs, result):
    return {"returned": len(result)}


# (module, attribute the caller looks up, span name, attributes of a call)
SPANNED = (
    ("espd.optimize", "search_schedules", "optimize.search_schedules", _returned),
    ("espd._kernels", "level_map_batch", "kernels.level_map_batch", _states),
    ("espd.optimize", "iterate_schedule", "dynamics.iterate_schedule", _trajectory),
    ("espd.cli", "iterate_schedule", "dynamics.iterate_schedule", _trajectory),
    ("espd.oracle", "oracle_report", "oracle.oracle_report", None),
    ("espd.oracle", "enumerate_level", "oracle.enumerate_level", None),
    ("espd.oracle", "mc_level", "oracle.mc_level", _mc_level),
    ("espd._kernels", "mc_block", "kernels.mc_block", _mc_block),
    ("espd._kernels", "vote_mass", "kernels.vote_mass", _vote_mass),
    ("espd.golden", "evaluate_table", "golden.evaluate_table", None),
    ("espd.golden", "figure_panels", "golden.figure_panels", None),
    ("espd.bounds", "find_fixed_points", "bounds.find_fixed_points", None),
    ("espd.qkd", "gamma_exact", "qkd.gamma_exact", None),
)

# (module, attribute the caller looks up, counter name)
COUNTED = (
    ("espd.binomial", "tail", "binomial.tail"),
    ("espd.binomial", "conv_tail", "binomial.conv_tail"),
    ("espd.binomial", "pmf", "binomial.pmf"),
    ("espd.dynamics", "level_map", "dynamics.level_map"),
    ("espd.oracle", "level_map", "dynamics.level_map"),
    ("espd.bounds", "de_gain", "bounds.de_gain"),
)


class Tracer:
    """Spans and call counts of one traced pass, kept in memory.

    ``next()`` on an ``itertools.count`` and ``list.append`` each run in C
    without releasing the interpreter lock, so pool threads can record
    without a lock of their own.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, attrs)
        self._ids = itertools.count()
        self._counters: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []
        self.call_counts: dict[str, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and result is not None else {}
                self.spans.append((sid, parent, name, threading.get_ident(), start, end, extra))

        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls under ``name``."""
        counter = self._counters.setdefault(name, itertools.count())

        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        self._main_stack = self._stack()
        for module, attr, name, attrs in SPANNED:
            self._patch(module, attr, self.wrap(name, getattr(importlib.import_module(module), attr), attrs))
        for module, attr, name in COUNTED:
            self._patch(module, attr, self.count(name, getattr(importlib.import_module(module), attr)))

    def _patch(self, module: str, attr: str, wrapper) -> None:
        mod = importlib.import_module(module)
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)
        # with the wrappers gone, the next value a counter hands out is its call count
        self.call_counts = {name: next(counter) for name, counter in self._counters.items()}

    def dump(self) -> dict:
        keys = ("id", "parent", "name", "thread", "start", "end", "attrs")
        return {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.call_counts}


# ---------------------------------------------------------------------------
# metrics derived from a dump
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(trace: dict, max_levels: int = 4) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    spans, counts = trace["spans"], trace["counts"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in named[name])

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named[name])

    def under_search(name):
        out = []
        for s in named[name]:
            parent = by_id.get(s["parent"])
            if parent is not None and parent["name"] == "optimize.search_schedules":
                out.append(s)
        return out

    m: dict[str, float] = {}
    m["cli.self_s"] = sum(selfs[s["id"]] for s in named["cli.main"])

    searches = named["optimize.search_schedules"]
    expand = sorted(under_search("kernels.level_map_batch"), key=lambda s: s["start"])
    recheck = under_search("dynamics.iterate_schedule")
    m["optimize.search_s"] = sum(dur(s) for s in searches)
    m["optimize.expand_s"] = sum(dur(s) for s in expand)
    m["optimize.recheck_s"] = sum(dur(s) for s in recheck)
    m["optimize.self_s"] = sum(selfs[s["id"]] for s in searches)
    frontiers = defaultdict(int)
    for search in searches:
        level, last_array = 0, None
        for s in expand:
            if s["parent"] != search["id"]:
                continue
            if s["attrs"]["array"] != last_array:
                level, last_array = level + 1, s["attrs"]["array"]
                frontiers[level] += s["attrs"]["states"]
    for level in range(1, max_levels + 1):
        m[f"optimize.frontier_L{level}"] = frontiers[level]
    m["optimize.states_expanded"] = sum(s["attrs"]["states"] for s in expand)
    m["optimize.recheck_calls"] = len(recheck)
    returned = attr_sum("optimize.search_schedules", "returned")
    m["optimize.recheck_yield"] = returned / len(recheck) if recheck else 0.0

    def per_unit(seconds, units, scale):
        return seconds / units * scale if units else 0.0

    lmb = "kernels.level_map_batch"
    m[f"{lmb}.calls"] = len(named[lmb])
    m[f"{lmb}.states"] = attr_sum(lmb, "states")
    m[f"{lmb}.s"] = total(lmb)
    m[f"{lmb}.ns_per_state"] = per_unit(m[f"{lmb}.s"], m[f"{lmb}.states"], 1e9)

    mcb = "kernels.mc_block"
    m[f"{mcb}.calls"] = len(named[mcb])
    m[f"{mcb}.trials"] = attr_sum(mcb, "trials")
    m[f"{mcb}.s"] = total(mcb)
    m[f"{mcb}.ns_per_trial"] = per_unit(m[f"{mcb}.s"], m[f"{mcb}.trials"], 1e9)
    m[f"{mcb}.bytes_computed"] = attr_sum(mcb, "bytes")

    vm = "kernels.vote_mass"
    m[f"{vm}.calls"] = len(named[vm])
    m[f"{vm}.outcomes"] = attr_sum(vm, "outcomes")
    m[f"{vm}.s"] = total(vm)

    its = "dynamics.iterate_schedule"
    m[f"{its}.calls"] = len(named[its])
    m[f"{its}.levels"] = attr_sum(its, "levels")
    m[f"{its}.us_per_level"] = per_unit(total(its), m[f"{its}.levels"], 1e6)
    m["dynamics.level_map.calls"] = counts.get("dynamics.level_map", 0)

    for name in ("tail", "conv_tail", "pmf"):
        m[f"binomial.{name}.calls"] = counts.get(f"binomial.{name}", 0)

    m["oracle.enumerate_level.s"] = total("oracle.enumerate_level")
    m["oracle.mc_level.s"] = total("oracle.mc_level")
    capacity = sum(dur(s) * s["attrs"].get("threads", 1) for s in named["oracle.mc_level"])
    m["oracle.mc_parallel_eff"] = m[f"{mcb}.s"] / capacity if capacity else 0.0

    m["golden.evaluate_table.calls"] = len(named["golden.evaluate_table"])
    m["golden.evaluate_table.s"] = total("golden.evaluate_table")
    m["golden.figure_panels.s"] = total("golden.figure_panels")
    m["bounds.find_fixed_points.s"] = total("bounds.find_fixed_points")
    m["bounds.de_gain.calls"] = counts.get("bounds.de_gain", 0)
    m["qkd.gamma_exact.s"] = total("qkd.gamma_exact")
    return m


def self_time_shares(trace: dict) -> dict[str, float]:
    """Self time per span name; re-checks under a search count as ``optimize.recheck``."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        parent = by_id.get(s["parent"])
        if name == "dynamics.iterate_schedule" and parent is not None \
                and parent["name"] == "optimize.search_schedules":
            name = "optimize.recheck"
        out[name] += selfs[s["id"]]
    return dict(out)


# ---------------------------------------------------------------------------
# traced child
# ---------------------------------------------------------------------------


def run_pass(main, commands: list[list], workdir: str) -> dict:
    """Run ``[label, argv]`` commands through ``main`` in ``workdir``."""
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        for label, argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(list(argv))
                except SystemExit as exc:  # argparse rejects a command line
                    rc = exc.code if isinstance(exc.code, int) else 1
            results[label] = {"rc": rc, "stdout": out.getvalue()}
    finally:
        wall = time.perf_counter() - start
        os.chdir(cwd)
    return {"wall_s": wall, "commands": results}


def child(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import espd.cli

    import_s = time.perf_counter() - start
    untraced = run_pass(espd.cli.main, spec["commands"], spec["untraced_dir"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(tracer.wrap("cli.main", espd.cli.main), spec["commands"], spec["traced_dir"])
    finally:
        tracer.uninstall()
    dump = {"import_s": import_s, "untraced": untraced, "traced": traced, "trace": tracer.dump()}
    Path(spec["out"]).write_text(json.dumps(dump), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[1]))
