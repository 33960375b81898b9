"""Command-line front end.

Subcommands: ``iterate`` (trajectory CSV from a config file), ``tables``
(golden-value regression of the bundled reference tables), ``optimize``
(schedule search), ``oracle`` (closed form vs. enumeration vs. Monte
Carlo), ``qkd`` (tolerable-transmission threshold), and ``figdata``
(per-panel CSVs of the bundled figure trajectories).

Conventions: CSV output is comma-separated with a header row, LF line
endings, and floats at 17 significant digits; files are written to a
temporary name and atomically renamed, so a failed run never leaves a
partial file, and get the permissions of a plain write (the umask's).
Lines are streamed to the temporary file ``WRITE_LINES`` at a time, and
``optimize`` formats its rows one chunk of the ranking at a time, so a
listing's text is never held whole; a failure while rows are still being
made removes the temporary file and leaves any earlier file at the path
as it was.
Exit codes: 0 success, 1 compute or tolerance failure,
2 usage or validation failure.  When ``--out``/``--out-dir`` is omitted,
relative defaults resolve against ``$ESPD_OUT_DIR`` (if unset or empty,
the working directory); an empty ``--out``/``--out-dir`` or ``iterate``
config ``out`` is bad input.

Errors: :func:`main` is the one place that turns an exception into an exit
code.  A ``ValueError`` -- from the library's own checks or from the few
checks kept here -- prints ``error: <msg>`` and exits 2; an ``OSError`` or
a ``MemoryError`` prints ``error: <msg>`` (``error: out of memory`` if the
message is empty) and exits 1.  Commands check nothing the library already
checks under the same name; ``oracle`` only prints ``oracle_report``'s
figures and verdict.  ``iterate`` names the config file in front of every
error in it (a bad ``--levels`` is the flag's, not the file's); ``qkd``
reports a failed threshold computation with exit 1.

Imports: only :mod:`espd.dynamics` is imported at the top, since every
command needs it (it also holds the run labels of the schedule CSV).  Each
command imports the rest of what it uses (``golden``, ``bounds``, ``qkd``,
``optimize``, ``oracle``) in its own body, and :mod:`json` is imported
only where ``iterate`` reads its config, so ``--help`` and every command
load no module they do not call.  Before any command runs, :func:`main`
defaults ``OPENBLAS_NUM_THREADS`` to 1, so the OpenBLAS bundled with numpy
starts no worker thread when ``optimize`` or ``oracle`` loads it.  No espd
code calls a BLAS routine (``tests/test_startup.py`` checks), so such a
worker would only spend CPU.  A value already set is kept, and the library
modules leave the environment alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from itertools import chain, islice
from pathlib import Path

from .dynamics import (
    MAX_LEVELS,
    ComponentParams,
    ConvergenceRule,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    check_int,
    check_prob,
    iterate_schedule,
)

__all__ = ["main"]

_BASELINE = {"eta0": 0.59, "d0": 1e-2, "p": 0.98, "P": 0.97, "Q": 0.002}
# CSV lines per write, and schedule rows formatted at a time
WRITE_LINES = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _out_dir() -> Path:
    return Path(os.environ.get("ESPD_OUT_DIR", "."))


def _resolve_out(arg: str | None, default_name: str) -> Path:
    if arg is None:
        return _out_dir() / default_name
    if not arg:
        raise ValueError("output path must not be empty")
    return Path(arg)


def _atomic_write(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines`` (header first) as the CSV file ``path``, each LF-terminated.

    The lines are joined and written ``WRITE_LINES`` at a time, so a
    generator's lines are never all held at once.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file at mode 0o666 less the umask, as open(path, "w") would make it
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                lines = iter(lines)
                while batch := list(islice(lines, WRITE_LINES)):
                    handle.write("\n".join(batch) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.errno is None:
            raise  # not the OS's: raised by the source of the lines
        # the OS reason, named by the user's path: the temporary file is gone
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_json(path: Path) -> dict:
    import json

    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        # the decoder recurses once per nesting level
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("top level must be a JSON object")
    return data


def _model(values) -> tuple[DetectorPerformance, ComponentParams]:
    """Check the five model inputs under ``_BASELINE``'s names and build the model."""
    eta0, d0, p, P, Q = (check_prob(key, values[key]) for key in _BASELINE)
    return DetectorPerformance(eta0, d0), ComponentParams(p, P, Q)


def _parse_run_config(
    path: Path, levels_override: int | None
) -> tuple[DetectorPerformance, Schedule, ConvergenceRule, str | None]:
    data = _load_json(path)
    known = {*_BASELINE, "schedule", "max_levels", "out"}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
    for key in _BASELINE:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    init, params = _model(data)

    raw_schedule = data.get("schedule")
    if not isinstance(raw_schedule, list) or len(raw_schedule) == 0:
        raise ValueError("schedule must be a non-empty list of [n, k] pairs")
    schedule = []
    for idx, entry in enumerate(raw_schedule):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"schedule[{idx}] must be an [n, k] pair of integers")
        try:
            schedule.append(LevelConfig(*entry))
        except ValueError as exc:
            raise ValueError(f"schedule[{idx}]: {exc}") from None

    max_levels = data.get("max_levels", len(schedule))
    if levels_override is not None:
        max_levels = levels_override
    rule = ConvergenceRule(max_levels=max_levels, eta_tol=0.0, dcr_tol=0.0)

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError("out must be a string path")
    return init, Schedule(params, tuple(schedule)), rule, out


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta0", type=float, default=_BASELINE["eta0"],
                        help="seed detector efficiency (default %(default)s)")
    parser.add_argument("--d0", type=float, default=_BASELINE["d0"],
                        help="seed detector dark-count rate (default %(default)s)")
    parser.add_argument("--p", type=float, default=_BASELINE["p"],
                        help="module transmission (default %(default)s)")
    # dest is the _BASELINE key, so _model reads vars(args); metavar keeps --help
    parser.add_argument("--P", metavar="P_ACT", type=float, default=_BASELINE["P"],
                        help="auxiliary non-vacuum probability, non-vacuum input "
                             "(default %(default)s)")
    parser.add_argument("--Q", metavar="Q_ERR", type=float, default=_BASELINE["Q"],
                        help="auxiliary non-vacuum probability, vacuum input "
                             "(default %(default)s)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_iterate(args) -> int:
    if args.levels is not None:
        # checked outside the config file's error prefix: the flag is not in the file
        check_int("--levels", args.levels, 1, MAX_LEVELS)
    path = Path(args.config)
    try:
        init, schedule, rule, out = _parse_run_config(path, args.levels)
        out_path = _resolve_out(out, "trajectory.csv")
    except (OSError, ValueError) as exc:
        # an unreadable config is bad input (exit 2), like an invalid one
        raise ValueError(f"{path}: {exc}") from None
    if args.out is not None:
        out_path = _resolve_out(args.out, "trajectory.csv")
    traj = iterate_schedule(init, schedule, rule)
    lines = ["level,n,k,de,dcr"]
    for pt in traj.points:
        n = str(pt.config.n) if pt.config else ""
        k = str(pt.config.k) if pt.config else ""
        lines.append(f"{pt.level},{n},{k},{_fmt(pt.perf.eta)},{_fmt(pt.perf.dcr)}")
    _atomic_write(out_path, lines)
    print(f"wrote {out_path} ({len(traj.points)} levels)")
    return 0


def cmd_tables(args) -> int:
    from . import golden

    report = golden.evaluate_table(args.table, args.variant)
    out_path = _resolve_out(args.out, f"table{args.table}_report.csv")

    lines = [
        "series,level,n,k,de_expected_pct,de_computed_pct,de_computed_rounded,"
        "de_delta_pp,de_ok,dcr_expected,dcr_computed,dcr_computed_rounded,"
        "dcr_rel_err,dcr_ok"
    ]
    for c in report.cells:
        lines.append(
            f"{c.series},{c.level},{c.n},{c.k},"
            f"{_fmt(c.de_expected_pct)},{_fmt(c.de_computed_pct)},"
            f"{c.de_computed_pct:.1f},{_fmt(c.de_delta_pp)},{int(c.de_ok)},"
            f"{_fmt(c.dcr_expected)},{_fmt(c.dcr_computed)},"
            f"{c.dcr_computed:.1e},{_fmt(c.dcr_rel_err)},{int(c.dcr_ok)}"
        )
    _atomic_write(out_path, lines)

    for c in report.cells:
        if not (c.de_ok and c.dcr_ok):
            print(
                f"MISMATCH {c.series} level {c.level} ({c.n},{c.k}): "
                f"de {c.de_computed_pct:.4f}% vs {c.de_expected_pct}% "
                f"(delta {c.de_delta_pp:+.4f}pp), "
                f"dcr {c.dcr_computed:.4e} vs {c.dcr_expected:.1e} "
                f"(rel {c.dcr_rel_err:+.2%})"
            )
    status = "PASS" if report.all_ok else "FAIL"
    print(
        f"table {report.number} [{report.variant}]: {report.n_ok}/{report.n_total} "
        f"cells within tolerance -> {status} (report: {out_path})"
    )
    return 0 if report.all_ok else 1


def _schedule_rows(results) -> Iterable[str]:
    # the CSV rows of a SearchResult, formatted WRITE_LINES at a time
    for lo in range(0, len(results), WRITE_LINES):
        chunk = results[lo:lo + WRITE_LINES]
        columns = (chunk.costs.tolist(), chunk.eta.tolist(), chunk.dcr.tolist())
        yield from map("{},{},{:.17g},{:.17g}".format, chunk.labels(), *columns)


def cmd_optimize(args) -> int:
    from . import optimize  # loads numpy, which the other commands never need

    init, params = _model(vars(args))
    if args.top < 0:
        raise ValueError(f"top must be >= 0 (0 lists everything), got {args.top}")
    query = optimize.OptimizationQuery(
        init=init,
        params=params,
        de_target=args.de_target,
        dcr_target=args.dcr_target,
        max_levels=args.max_levels,
        n_max=args.n_max,
    )
    out_path = _resolve_out(args.out, "schedules.csv")  # before the search: it can take seconds
    top = None if args.top == 0 else args.top
    results = optimize.search_schedules(query, top=top)
    if args.pareto:
        results = optimize.pareto_front(results)
    _atomic_write(out_path, chain(["schedule,cost,de,dcr"], _schedule_rows(results)))
    if not results:
        print("no feasible schedule")
    print(f"wrote {out_path} ({len(results)} schedules)")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle  # loads numpy, which the other commands never need

    init, params = _model(vars(args))
    # oracle_report checks n, the counts and the seed before any work
    report = oracle.oracle_report(
        init, params, LevelConfig(args.n, args.k), args.trials, args.seed,
        threads=args.threads,
    )
    for name in (
        "closed_de",
        "closed_dcr",
        "enum_de",
        "enum_dcr",
        "mc_de",
        "mc_dcr",
        "mc_stderr_de",
        "mc_stderr_dcr",
        "enum_abs_err_de",
        "enum_abs_err_dcr",
    ):
        print(f"{name}={_fmt(getattr(report, name))}")
    print(f"trials={report.trials}")
    print(f"seed={report.seed}")
    print(f"enum_within_1e-12={'yes' if report.enum_ok else 'no'}")
    print(f"mc_within_5_stderr={'yes' if report.mc_ok else 'no'}")
    return 0 if (report.enum_ok and report.mc_ok) else 1


def cmd_qkd(args) -> int:
    from . import qkd

    scn = qkd.QkdScenario(e_th=args.e_th, e_c=args.e_c, e=args.e)
    det = DetectorPerformance(args.eta, args.dcr)
    if det.eta <= 0.0:
        raise ValueError("eta must be > 0")
    try:
        g_approx = qkd.gamma_approx(scn, det)
        g_exact = None if args.approx else qkd.gamma_exact(scn, det)
    except ValueError as exc:
        # valid inputs whose threshold cannot be computed: a compute failure
        _err(str(exc))
        return 1

    print(f"assumed e={_fmt(scn.effective_e)}"
          + (" (defaulted to e_th; override with --e)" if args.e is None else ""))
    if g_exact is not None:
        print(f"gamma_exact={_fmt(g_exact)} ({g_exact:.6e})")
    print(f"gamma_approx={_fmt(g_approx)} ({g_approx:.6e})")
    return 0


def cmd_figdata(args) -> int:
    from . import golden

    out_dir = _resolve_out(args.out_dir, "")
    written = []
    for stem, rows in golden.figure_panels(args.figure):
        lines = ["level,series_label,value"]
        for level, label, value in rows:
            lines.append(f"{level},{label},{_fmt(value)}")
        path = out_dir / f"{stem}.csv"
        _atomic_write(path, lines)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_fixedpoints(args) -> int:
    from . import bounds

    report = bounds.find_fixed_points(args.p, args.P_act, args.n, args.k, grid=args.grid)
    if report.roots:
        for root in report.roots:
            print(f"root={_fmt(root)}")
    else:
        print("no roots in (0, 1]")
    if report.gain_positive_interval:
        lo, hi = report.gain_positive_interval
        print(f"gain_positive_interval={_fmt(lo)},{_fmt(hi)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espd",
        description="Cascaded detector-enhancement toolkit: trajectories, "
        "golden-table regression, schedule search, verification oracles, "
        "and QKD thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iter = sub.add_parser("iterate", help="trajectory CSV from a JSON config")
    p_iter.add_argument("config", help="JSON config file")
    p_iter.add_argument("--levels", type=int, default=None,
                        help="override the number of levels to iterate")
    p_iter.add_argument("--out", default=None, help="output CSV path")
    p_iter.set_defaults(func=cmd_iterate)

    p_tab = sub.add_parser("tables", help="golden-value regression of a reference table")
    p_tab.add_argument("--table", type=int, required=True,
                       help="table number (2-7)")
    p_tab.add_argument("--out", default=None, help="report CSV path")
    p_tab.add_argument("--variant", choices=("exact", "approx"), default="exact",
                       help="firing-probability forms: exact, or approx for small dark "
                            "counts (default exact)")
    p_tab.set_defaults(func=cmd_tables)

    p_opt = sub.add_parser("optimize", help="search (n, k) schedules for targets")
    _add_model_flags(p_opt)
    p_opt.add_argument("--de-target", type=float, required=True)
    p_opt.add_argument("--dcr-target", type=float, required=True)
    p_opt.add_argument("--max-levels", type=int, default=4)
    p_opt.add_argument("--n-max", type=int, default=8)
    p_opt.add_argument("--top", type=int, default=50,
                       help="number of schedules to keep (0 = all)")
    p_opt.add_argument("--pareto", action="store_true",
                       help="reduce the ranking to its Pareto front")
    p_opt.add_argument("--out", default=None, help="output CSV path")
    p_opt.set_defaults(func=cmd_optimize)

    p_orc = sub.add_parser("oracle", help="closed form vs. enumeration vs. Monte Carlo")
    _add_model_flags(p_orc)
    p_orc.add_argument("--n", type=int, required=True)
    p_orc.add_argument("--k", type=int, required=True)
    p_orc.add_argument("--trials", type=int, default=100000)
    p_orc.add_argument("--seed", type=int, default=42)
    p_orc.add_argument("--threads", type=int, default=1)
    p_orc.set_defaults(func=cmd_oracle)

    p_qkd = sub.add_parser("qkd", help="minimal tolerable channel transmission")
    p_qkd.add_argument("--e-th", dest="e_th", type=float, required=True,
                       help="secure error threshold")
    p_qkd.add_argument("--e-c", dest="e_c", type=float, required=True,
                       help="non-detector error rate")
    p_qkd.add_argument("--e", type=float, default=None,
                       help="error weight in the exact denominator (default e-th)")
    p_qkd.add_argument("--eta", type=float, required=True)
    p_qkd.add_argument("--dcr", type=float, required=True)
    p_qkd.add_argument("--approx", action="store_true",
                       help="print only the small-dark-count form")
    p_qkd.set_defaults(func=cmd_qkd)

    p_fig = sub.add_parser("figdata", help="per-panel CSVs of bundled figure data")
    p_fig.add_argument("--figure", type=int, required=True, help="figure number (2-5)")
    p_fig.add_argument("--out-dir", default=None)
    p_fig.set_defaults(func=cmd_figdata)

    p_fp = sub.add_parser("fixedpoints", help="roots of the constant-config gain")
    p_fp.add_argument("--p", type=float, default=_BASELINE["p"])
    p_fp.add_argument("--P", dest="P_act", type=float, default=_BASELINE["P"])
    p_fp.add_argument("--n", type=int, required=True)
    p_fp.add_argument("--k", type=int, required=True)
    p_fp.add_argument("--grid", type=int, default=10000)
    p_fp.set_defaults(func=cmd_fixedpoints)

    return parser


def main(argv: list[str] | None = None) -> int:
    # before any command loads numpy; the module docstring says why
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _err(str(exc))
        return 2
    except OSError as exc:
        _err(str(exc))
        return 1
    except MemoryError as exc:
        _err(str(exc) or "out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
