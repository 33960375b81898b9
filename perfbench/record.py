#!/usr/bin/env python3
"""Record the benchmark's reference outputs, or collect a recorded result.

    python3 perfbench/record.py reference
        Runs every workload's commands once per input variant and writes
        perfbench/reference.json, the outputs the output checks compare to.
        Re-record only when a change is meant to alter espd's outputs.

    python3 perfbench/record.py result --tag baseline [--seed 0]
        Collects the result files that run.py left in .perfbench-out/results
        for that seed (both --trace 0 and --trace 1, every workload) into
        perfbench/BENCH_<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def record_reference(launcher: run.Launcher) -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        if workload == "verify":  # checked against its own enumeration, not a recording
            continue
        for seed in range(len(workloads.VARIANTS)):
            inp = workloads.inputs_for(seed, len(os.sched_getaffinity(0)))
            cmds = [c for c in workloads.commands(workload, inp) if c.label not in reference]
            if not cmds:
                continue
            workdir = run.OUT / "record" / workload
            shutil.rmtree(workdir, ignore_errors=True)
            workloads.prepare(workload, inp, workdir)
            _, _, _, outcomes = run.run_pass(cmds, workdir, launcher)
            for c in cmds:
                reference[c.label] = workloads.record(workload, c, outcomes[c.label])
            print(f"recorded {workload} variant {inp.variant}: {len(cmds)} commands", flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    return 0


def collect_result(tag: str, seed: int) -> int:
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            path = run.OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
            if not path.is_file():
                print(f"error: missing {path}", file=sys.stderr)
                return 1
            results.setdefault(workload, {})[f"trace{trace}"] = json.loads(path.read_text(encoding="utf-8"))
    out = run.HERE / f"BENCH_{tag}.json"
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    p_res = sub.add_parser("result")
    p_res.add_argument("--tag", required=True)
    p_res.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.what == "reference":
        with run.Launcher(run.child_env()) as launcher:
            return record_reference(launcher)
    return collect_result(args.tag, args.seed)


if __name__ == "__main__":
    sys.exit(main())
