"""The benchmark's four workloads: their inputs, commands and output checks.

Every workload is a list of ``espd`` CLI commands run one after another.  The
workload seed picks the inputs: seed 0 reproduces the baseline detector
(eta0 = 0.59, d0 = 1e-2) and the oracle's default Monte Carlo seed; other
seeds pick one of a few nearby detectors (``VARIANTS``) and their own Monte
Carlo seed.  The reference outputs of every variant are recorded in
``reference.json`` by ``record.py``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Why each workload is in the benchmark, and which layer it loads or bypasses.
WHY = {
    "search-all": "optimize --top 0 lists all ~37.5k schedules, so the cost prune "
    "never fires and the scalar re-check (optimize > dynamics > binomial) dominates",
    "search-top": "optimize --top 50 at n<=12 keeps the cost prune on, so the batch "
    "level-map kernel dominates and the re-check is bypassed (200 calls)",
    "verify": "oracle at n=12 with 2M trials on nproc threads loads the Monte Carlo "
    "kernel and its thread pool; no search runs",
    "paper": "15 short commands rebuild the paper's tables and figures; start-up, "
    "golden, bounds and qkd dominate and the search kernels are bypassed",
}
WORKLOADS = tuple(WHY)

# (eta0, d0) per variant.  Variant 0 is the baseline detector; the others
# stay within 0.4 % of eta0 and 3 % of d0, so every workload does nearly the
# same amount of work (search-all lists 37.2k to 37.9k schedules).
VARIANTS = (
    (0.59, 1e-2),
    (0.5885, 0.0099),
    (0.5915, 0.0101),
    (0.5878, 0.0102),
    (0.5922, 0.0098),
    (0.5893, 0.0103),
    (0.5907, 0.0097),
    (0.5910, 0.0102),
)

DE_TARGET = 0.93
DCR_TARGET = 1e-9
ORACLE_DEFAULT_SEED = 42
# tables 3, 4 and 5 carry the four published exponent misprints
KNOWN_MISPRINTS = {
    3: {("Para 2", 2)},
    4: {("Para 1", 5)},
    5: {("Para 1", 5), ("Para 2", 3)},
}
REL_TOL = 1e-12  # re-evaluation and reference agreement of search results
TEXT_REL_TOL = 1e-9  # numbers inside recorded paper outputs

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Inputs:
    seed: int
    variant: int
    eta0: float
    d0: float
    mc_seed: int
    threads: int


@dataclass(frozen=True)
class Command:
    label: str  # key of this command's reference outputs
    argv: tuple[str, ...]
    files: tuple[str, ...]  # paths the command writes, relative to its work dir


def inputs_for(seed: int, threads: int) -> Inputs:
    variant = seed % len(VARIANTS)
    eta0, d0 = VARIANTS[variant]
    mc_seed = ORACLE_DEFAULT_SEED if seed == 0 else seed
    return Inputs(seed, variant, eta0, d0, mc_seed, threads)


def _model_flags(inp: Inputs) -> tuple[str, ...]:
    return ("--eta0", repr(inp.eta0), "--d0", repr(inp.d0))


_FIGURE_FILES = {
    2: ("fig2_seed59_de", "fig2_seed59_dcr", "fig2_seed27_de", "fig2_seed27_dcr"),
    3: ("fig3_de", "fig3_dcr"),
    4: ("fig4_P080_de", "fig4_P080_dcr", "fig4_P040_de", "fig4_P040_dcr"),
    5: ("fig5_de", "fig5_dcr"),
}


def commands(workload: str, inp: Inputs) -> list[Command]:
    v = f"@v{inp.variant}"
    search = ("optimize", "--de-target", "0.93", "--dcr-target", "1e-9", "--max-levels", "4")
    if workload == "search-all":
        argv = (*search, "--n-max", "8", "--top", "0", *_model_flags(inp), "--out", "schedules.csv")
        return [Command("search-all" + v, argv, ("schedules.csv",))]
    if workload == "search-top":
        argv = (*search, "--n-max", "12", "--top", "50", *_model_flags(inp), "--out", "schedules.csv")
        return [Command("search-top" + v, argv, ("schedules.csv",))]
    if workload == "verify":
        argv = ("oracle", "--n", "12", "--k", "5", "--trials", "2000000",
                "--threads", str(inp.threads), "--seed", str(inp.mc_seed), *_model_flags(inp))
        return [Command("verify", argv, ())]
    if workload == "paper":
        cmds = [
            Command(f"tables-{t}", ("tables", "--table", str(t), "--out", f"table{t}.csv"),
                    (f"table{t}.csv",))
            for t in range(2, 8)
        ]
        cmds.append(Command("tables-4-approx",
                            ("tables", "--table", "4", "--variant", "approx", "--out", "table4a.csv"),
                            ("table4a.csv",)))
        for f, stems in _FIGURE_FILES.items():
            cmds.append(Command(f"figdata-{f}", ("figdata", "--figure", str(f), "--out-dir", "fig"),
                                tuple(f"fig/{s}.csv" for s in stems)))
        for n, k in ((4, 2), (8, 4)):
            cmds.append(Command(f"fixedpoints-{n}-{k}", ("fixedpoints", "--n", str(n), "--k", str(k)), ()))
        cmds.append(Command("qkd", ("qkd", "--e-th", "0.11", "--e-c", "0.02",
                                    "--eta", "0.934", "--dcr", "8.5e-10"), ()))
        cmds.append(Command("iterate" + v, ("iterate", "run.json", "--out", "traj.csv"), ("traj.csv",)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, inp: Inputs, workdir: Path) -> None:
    """Write the input files a workload's commands read (the README run.json)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "paper":
        config = {"eta0": inp.eta0, "d0": inp.d0, "p": 0.98, "P": 0.97, "Q": 0.002,
                  "schedule": [[4, 1], [4, 2], [4, 2], [4, 2]], "max_levels": 8}
        (workdir / "run.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one command left behind: exit code, stdout and written files."""

    rc: int
    stdout: str
    files: dict[str, bytes]


def collect(cmd: Command, rc: int, stdout: str, workdir: Path) -> Outcome:
    files = {}
    for name in cmd.files:
        path = workdir / name
        files[name] = path.read_bytes() if path.is_file() else b""
    return Outcome(rc, stdout, files)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


_NUM = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def same_text(got: str, want: str, rtol: float = TEXT_REL_TOL) -> bool:
    """Equal text, except that numbers may differ by ``rtol`` relative."""
    got_parts, want_parts = _NUM.split(got), _NUM.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            if g != w:
                return False
        elif not _close(float(g), float(w), rtol):
            return False
    return True


def parse_label(label: str) -> list[tuple[int, int]]:
    """Expand a run-length schedule label such as ``1:1+8:4x3``."""
    levels = []
    for part in label.split("+"):
        cfg, _, run = part.partition("x")
        n, k = cfg.split(":")
        levels += [(int(n), int(k))] * int(run or 1)
    return levels


def _row_summary(row: list[str]) -> dict:
    return {"schedule": row[0], "cost": int(row[1]), "de": float(row[2]), "dcr": float(row[3])}


def _same_row(got: dict, want: dict) -> bool:
    return (got["schedule"] == want["schedule"] and got["cost"] == want["cost"]
            and _close(got["de"], want["de"], REL_TOL) and _close(got["dcr"], want["dcr"], REL_TOL))


def _csv_rows(data: bytes) -> tuple[str, list[list[str]]]:
    lines = data.decode("utf-8").splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def summarize_search(rows: list[list[str]]) -> dict:
    """The reference record of one search: row count, top row, 8:4x4 row."""
    summary = {"rows": len(rows), "top": _row_summary(rows[0]) if rows else None}
    for row in rows:
        if row[0] == "8:4x4":
            summary["8:4x4"] = _row_summary(row)
    return summary


def check_search(inp: Inputs, out: Outcome, ref: dict) -> list[tuple[str, bool, str]]:
    import espd

    checks = [("exit_code", out.rc == 0, f"rc={out.rc}")]
    header, rows = _csv_rows(out.files["schedules.csv"])
    summary = summarize_search(rows)
    checks.append(("header", header == "schedule,cost,de,dcr", header))
    bad_target = [r[0] for r in rows if not (float(r[2]) >= DE_TARGET and float(r[3]) <= DCR_TARGET)]
    checks.append(("targets", not bad_target, f"{len(bad_target)} rows miss a target {bad_target[:3]}"))
    bad_cost = [r[0] for r in rows if int(r[1]) != math.prod(n + 1 for n, _ in parse_label(r[0]))]
    checks.append(("cost", not bad_cost, f"{len(bad_cost)} rows with cost != prod(n+1) {bad_cost[:3]}"))
    checks.append(("row_count", summary["rows"] == ref["rows"], f"{summary['rows']} rows, reference {ref['rows']}"))
    top_ok = summary["top"] is not None and _same_row(summary["top"], ref["top"])
    checks.append(("top_row", top_ok, f"{summary['top']} vs reference {ref['top']}"))
    if "8:4x4" in ref:
        got = summary.get("8:4x4")
        ok = got is not None and _same_row(got, ref["8:4x4"])
        if ok and inp.variant == 0:
            ok = got["cost"] == 6561 and abs(got["de"] - 0.934) < 1e-3 and abs(got["dcr"] / 8.5e-10 - 1) < 0.05
        checks.append(("row_8:4x4", ok, f"{got} vs reference {ref['8:4x4']}"))

    params = espd.ComponentParams(0.98, 0.97, 0.002)
    init = espd.DetectorPerformance(inp.eta0, inp.d0)
    sample = random.Random(inp.seed).sample(rows, min(16, len(rows)))
    bad_eval = []
    for row in sample:
        cfgs = tuple(espd.LevelConfig(n, k) for n, k in parse_label(row[0]))
        rule = espd.ConvergenceRule(max_levels=len(cfgs), eta_tol=0.0, dcr_tol=0.0)
        final = espd.iterate_schedule(init, espd.Schedule(params, cfgs), rule).final()
        if not (_close(final.eta, float(row[2]), REL_TOL) and _close(final.dcr, float(row[3]), REL_TOL)):
            bad_eval.append(row[0])
    checks.append(("sample_reeval", bool(sample) and not bad_eval,
                   f"{len(bad_eval)} of {len(sample)} sampled rows disagree {bad_eval[:3]}"))
    return checks


def check_verify(out: Outcome) -> list[tuple[str, bool, str]]:
    lines = out.stdout.splitlines()
    return [
        ("exit_code", out.rc == 0, f"rc={out.rc}"),
        ("enum_within_1e-12", "enum_within_1e-12=yes" in lines, "oracle enumeration disagrees"),
        ("mc_within_5_stderr", "mc_within_5_stderr=yes" in lines, "oracle Monte Carlo disagrees"),
    ]


_MISMATCH = re.compile(r"^MISMATCH (.+?) level (\d+) ", re.M)


def check_paper(cmd: Command, out: Outcome, ref: dict) -> list[tuple[str, bool, str]]:
    name = cmd.label
    checks = [(f"{name}:exit_code", out.rc == ref["rc"], f"rc={out.rc}, reference {ref['rc']}")]
    if cmd.argv[0] == "tables" and "approx" not in cmd.argv:
        table = int(cmd.argv[2])
        cells = {(s, int(lvl)) for s, lvl in _MISMATCH.findall(out.stdout)}
        want = KNOWN_MISPRINTS.get(table, set())
        checks.append((f"{name}:misprints", cells == want and out.rc == (1 if want else 0),
                       f"mismatched cells {sorted(cells)}, expected {sorted(want)}"))
    checks.append((f"{name}:stdout", same_text(out.stdout, ref["stdout"]), out.stdout[:200]))
    for path, want in ref["files"].items():
        got = out.files.get(path, b"").decode("utf-8")
        checks.append((f"{name}:{path}", same_text(got, want), f"{path} differs from reference"))
    return checks


def check(workload: str, inp: Inputs, outcomes: dict[str, Outcome], reference: dict,
          cmds: list[Command]) -> list[tuple[str, bool, str]]:
    """All output checks of one pass, as (name, ok, detail on failure)."""
    if workload in ("search-all", "search-top"):
        (cmd,) = cmds
        return check_search(inp, outcomes[cmd.label], reference[cmd.label])
    if workload == "verify":
        return check_verify(outcomes["verify"])
    checks = []
    for cmd in cmds:
        checks += check_paper(cmd, outcomes[cmd.label], reference[cmd.label])
    return checks


def record(workload: str, cmd: Command, out: Outcome) -> dict:
    """The reference entry ``check`` compares a command's outcome against."""
    if workload in ("search-all", "search-top"):
        return summarize_search(_csv_rows(out.files["schedules.csv"])[1])
    return {"rc": out.rc, "stdout": out.stdout,
            "files": {name: data.decode("utf-8") for name, data in out.files.items()}}
