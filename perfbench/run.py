#!/usr/bin/env python3
"""espd benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload search-all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # every workload in turn

One client runs the workload's ``python -m espd`` commands one after another,
each starting only after the previous one exits (started by ``launcher.py``),
and repeats the pass until ``--seconds`` have elapsed (at least one pass).
Every pass is checked against the workload's output checks and the
reference recorded in ``reference.json``.  Each pass reports

* ``wall_s``      wall seconds of the pass;
* ``cpu_s``       user + sys CPU seconds of its processes (``os.wait4``);
* ``peak_rss_mb`` largest ``ru_maxrss`` among its processes;

and each run reports ``setup_s``, the median wall seconds for a fresh
interpreter to import espd (``python -m espd --help``), and ``fail_ratio``,
failed / attempted checks (carried by ``failed`` and ``attempted`` in the
result line).  Before every pass the harness times a fixed reference loop
(``ref_s``); the result line carries ``wall_norm`` and ``cpu_norm``, the
median pass wall and CPU time in multiples of the median ``ref_s``, because
on a shared machine raw seconds drift too much between runs to compare.

``--trace 1`` is the separate traced run: a child interpreter runs the same
commands through ``espd.cli.main`` in-process, untraced and then traced
(``tracer.py``), and the per-layer metrics come from its spans.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with its environment block,
goes to ``.perfbench-out/results/``.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the checkout holds no espd source.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 7
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ref_s": "s",
         "wall_norm": "x", "cpu_norm": "x"}
# what the result line reports: raw wall_s and cpu_s drift with the machine's
# speed, so the line carries them as multiples of the reference loop's time
END_TO_END = ("wall_norm", "cpu_norm", "peak_rss_mb", "setup_s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Client of ``launcher.py``, which runs every measured process (see there why)."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                      start_new_session=True)

    def run(self, argv: list[str], cwd: Path, stdout: Path | None = None) -> tuple[int, float, float, float]:
        """Run one process to completion: (exit code, wall s, cpu s, max rss MB)."""
        self._proc.stdin.write(json.dumps([argv, str(cwd), stdout and str(stdout)]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        rc, wall, cpu, rss = json.loads(reply)
        return rc, wall, cpu, rss

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            os.killpg(self._proc.pid, signal.SIGKILL)  # the launcher and the command it runs
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def espd_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "espd", *args]


def measure_setup(launcher: Launcher, workdir: Path) -> list[float]:
    """Wall seconds of fresh ``python -m espd --help`` launches (one warm-up)."""
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        rc, wall, _, _ = launcher.run(espd_cli("--help"), workdir)
        if rc != 0:
            raise RuntimeError(f"`python -m espd --help` exited {rc}")
        if i:
            samples.append(wall)
    return samples


def run_pass(cmds, workdir: Path, launcher: Launcher):
    """One closed-loop pass: (wall s, cpu s, peak rss MB, outcomes by label)."""
    wall = cpu = rss = 0.0
    outcomes = {}
    log = workdir / "stdout.txt"
    for cmd in cmds:
        rc, w, c, r = launcher.run(espd_cli(*cmd.argv), workdir, log)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        outcomes[cmd.label] = workloads.collect(cmd, rc, log.read_text(encoding="utf-8"), workdir)
    return wall, cpu, rss, outcomes


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            break
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "espd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(espd, inp) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": inp.threads,
        "backend": espd.backend_name(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload_seed": inp.seed,
        "variant": inp.variant,
        "eta0": inp.eta0,
        "d0": inp.d0,
        "mc_seed": inp.mc_seed,
    }


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{name}: {detail}")


def reference_loop() -> float:
    """Wall seconds of a fixed Python + numpy loop that runs no espd code.

    On a shared machine the speed of every process can drift by 1.7x within
    minutes (seen on a 2-vCPU cloud VM).  Timed next to the passes, the loop
    measures that drift, and a pass time divided by the loop time cancels
    it while still moving with any change to espd.
    """
    start = time.perf_counter()
    acc = 0.0
    for n in range(2, 110):
        for j in range(n):
            acc += math.comb(n, j) * 0.3**j * 0.7 ** (n - j)
    # no temporaries: their cost would follow the allocator's state, not the machine
    x = numpy.linspace(0.0, 1.0, 200_000)
    a, b = numpy.empty_like(x), numpy.empty_like(x)
    for _ in range(80):
        numpy.multiply(x, x, out=a)
        numpy.multiply(a, x, out=a)
        numpy.subtract(1.0, x, out=b)
        numpy.multiply(b, x, out=b)
        acc += float(numpy.add(a, b, out=a).sum())
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("reference loop produced no result")
    return elapsed


def run_untraced(workload, inp, seconds, launcher, reference, checks):
    """Closed-loop passes until ``seconds`` elapse, each after a reference loop."""
    cmds = workloads.commands(workload, inp)
    workdir = OUT / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.prepare(workload, inp, workdir)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "ref_s": []}
    deadline = time.perf_counter() + seconds
    while True:
        samples["ref_s"].append(reference_loop())
        wall, cpu, rss, outcomes = run_pass(cmds, workdir, launcher)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        checks.add(workloads.check(workload, inp, outcomes, reference, cmds))
        if time.perf_counter() >= deadline:
            samples["ref_s"].append(reference_loop())
            return samples


def run_traced(workload, inp, seconds, launcher, reference, checks, setup_median):
    """Traced child runs until ``seconds`` elapse; per-layer metrics as medians."""
    cmds = workloads.commands(workload, inp)
    base = OUT / "work" / f"{workload}-trace"
    shutil.rmtree(base, ignore_errors=True)
    dirs = {"untraced_dir": base / "untraced", "traced_dir": base / "traced"}
    for d in dirs.values():
        workloads.prepare(workload, inp, d)
    spec = {"src": str(SRC), "commands": [[c.label, list(c.argv)] for c in cmds],
            "out": str(base / "dump.json"), **{k: str(v) for k, v in dirs.items()}}
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    reps: list[dict] = []
    first_counts = None
    deadline = time.perf_counter() + seconds
    while True:
        rc, _, _, _ = launcher.run([sys.executable, str(HERE / "tracer.py"), str(spec_path)], base)
        if rc != 0:
            raise RuntimeError(f"traced child exited {rc}")
        dump = json.loads((base / "dump.json").read_text(encoding="utf-8"))
        rep = tracer.layer_metrics(dump["trace"])
        rep["cli.import_s"] = dump["import_s"]
        rep["trace.overhead_s"] = dump["traced"]["wall_s"] - dump["untraced"]["wall_s"]
        rep["cli.startup_s"] = setup_median * len(cmds)
        rep["cli.csv_bytes"] = sum(
            (dirs["traced_dir"] / f).stat().st_size for c in cmds for f in c.files if f.endswith(".csv")
        )
        reps.append(rep)

        outcomes = {}
        identical = True
        for c in cmds:
            got = dump["traced"]["commands"][c.label]
            want = dump["untraced"]["commands"][c.label]
            a = workloads.collect(c, got["rc"], got["stdout"], dirs["traced_dir"])
            b = workloads.collect(c, want["rc"], want["stdout"], dirs["untraced_dir"])
            identical &= a == b
            outcomes[c.label] = a
        checks.add([("trace_changes_nothing", identical, "traced and untraced outputs differ")])
        checks.add(workloads.check(workload, inp, outcomes, reference, cmds))
        counts = {k: v for k, v in rep.items() if isinstance(v, int)}
        if first_counts is None:
            first_counts = counts
        else:
            checks.add([("counts_repeat", counts == first_counts, "call counts differ between traced runs")])
        shares = tracer.self_time_shares(dump["trace"])
        shares["cli.startup"] = rep["cli.startup_s"]
        if time.perf_counter() >= deadline:
            break

    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics.update(first_counts)
    return metrics, shares, len(reps)


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(workload: str, args, espd, launcher: Launcher, reference: dict) -> tuple[dict, dict]:
    """Measure one workload and print its report: (result file content, metrics)."""
    inp = workloads.inputs_for(args.seed, len(os.sched_getaffinity(0)))
    checks = Checks()
    setup = measure_setup(launcher, OUT)
    env_block = environment(espd, inp)
    env_block["setup_samples"] = len(setup)
    result = {"workload": workload, "why": workloads.WHY[workload], "trace": args.trace,
              "seconds": args.seconds, "env": env_block}

    print(f"workload {workload}: {workloads.WHY[workload]}")
    if args.trace:
        values, shares, reps = run_traced(workload, inp, args.seconds, launcher, reference, checks,
                                          statistics.median(setup))
        env_block["traced_runs"] = reps
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
        result["per_layer"] = metrics
        total = sum(shares.values())
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        result["self_time_shares"] = {k: v / total for k, v in ranked}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
        print("  self-time shares: " + ", ".join(f"{k} {v / total:.1%}" for k, v in ranked[:5]))
    else:
        samples = run_untraced(workload, inp, args.seconds, launcher, reference, checks)
        samples["setup_s"] = setup
        env_block["passes"] = len(samples["wall_s"])
        result["end_to_end"] = {k: {**summarize(v), "unit": UNITS[k]} for k, v in samples.items()}
        ref = statistics.median(samples["ref_s"])
        for name, raw in (("wall_norm", "wall_s"), ("cpu_norm", "cpu_s")):
            result["end_to_end"][name] = {"median": statistics.median(samples[raw]) / ref,
                                          "n": len(samples[raw]), "unit": UNITS[name]}
        for name, summary in result["end_to_end"].items():
            tail = "".join(f", {k} {v:.6g}" for k, v in summary.items() if k.startswith("p"))
            print(f"  {name:12s} median {summary['median']:.6g} {summary['unit']}{tail} (n={summary['n']})")
        metrics = {k: {"value": result["end_to_end"][k]["median"], "unit": UNITS[k]} for k in END_TO_END}

    failed = len(checks.failures)
    fail_ratio = failed / checks.attempted
    print(f"  {'fail_ratio':12s} {fail_ratio:.6g} ratio ({failed} of {checks.attempted} checks failed)")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env_block.items()))
    result.update(attempted=checks.attempted, failed=failed, fail_ratio=fail_ratio,
                  failures=checks.failures)
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "espd" / "__init__.py").is_file():
        print(f"error: no espd source at {SRC / 'espd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import espd

    if Path(espd.__file__).resolve().parent != (SRC / "espd").resolve():
        print(f"error: imported espd from {espd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    reference = workloads.load_reference()
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    with Launcher(child_env()) as launcher:
        for workload in chosen:
            result, values = run_workload(workload, args, espd, launcher, reference)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
