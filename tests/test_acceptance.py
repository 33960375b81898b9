"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2 and 3 compare every published table cell at the stated
tolerances.  Four dark-count cells in the bundled reference tables are
misprints: each printed value is not the level-map image of the published
row before it, while the recomputed value is.  Those two criteria pass when
the out-of-tolerance cells are exactly these four (DCR only), and they
check the predecessor-image property of each.  Details: the MISPRINTS
table below.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from espd import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    de_gain,
    de_survive_case,
    dcr_upper_bound,
    decision_poly,
    enumerate_level,
    find_fixed_points,
    gamma_approx,
    gamma_exact,
    level_map,
    mc_level,
    QkdScenario,
)
from espd.cli import main as cli_main
from espd.golden import DCR_REL_TOL, DE_TOL_PP, TABLES, evaluate_table

# (table, series, level): published DCR cells that are not the level-map
# image of the published row before them; the recomputed value is.
MISPRINTS = {
    (3, "Para 2", 2),
    (4, "Para 1", 5),
    (5, "Para 1", 5),
    (5, "Para 2", 3),
}


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def _table_failures(report):
    return [
        (c.series, c.level, c.de_ok, c.dcr_ok, c.de_computed_pct, c.de_expected_pct,
         c.dcr_computed, c.dcr_expected)
        for c in report.cells
        if not (c.de_ok and c.dcr_ok)
    ]


def _format_failures(number, fails):
    lines = []
    for series, level, de_ok, dcr_ok, de_c, de_e, dcr_c, dcr_e in fails:
        what = []
        if not de_ok:
            what.append(f"de {de_c:.4f}% vs {de_e}%")
        if not dcr_ok:
            what.append(f"dcr {dcr_c:.4e} vs {dcr_e:.1e}")
        tag = " [documented misprint]" if (number, series, level) in MISPRINTS else ""
        lines.append(f"  table {number} {series} level {level}: {', '.join(what)}{tag}")
    return "\n".join(lines)


def _assert_only_misprints(report, context=""):
    """The out-of-tolerance cells are exactly the documented misprints.

    Each must be off in DCR only, and the level map applied to the
    published row before it must land within tolerance of the recomputed
    value and outside it of the printed one: the printed cell, not the
    program, is what disagrees with the table.
    """
    number = report.number
    fails = _table_failures(report)
    got = {(number, f[0], f[1]) for f in fails}
    want = {m for m in MISPRINTS if m[0] == number}
    detail = f"table {number} mismatches:\n" + _format_failures(number, fails) + context
    assert got == want, detail
    series = {s.label: s for s in TABLES[number]}
    for c in report.cells:
        if (number, c.series, c.level) not in want:
            continue
        assert c.de_ok, detail
        s = series[c.series]
        rows = [(s.seed.eta * 100.0, s.seed.dcr), *s.expected]
        prev_de_pct, prev_dcr = rows[c.level - 1]
        image = level_map(
            DetectorPerformance(prev_de_pct / 100.0, prev_dcr),
            s.params,
            s.schedule[c.level - 1],
        ).dcr
        where = f"table {number} {c.series} level {c.level}: image {image:.3e}"
        assert abs(image - c.dcr_computed) <= DCR_REL_TOL * c.dcr_computed, (
            f"{where} vs recomputed {c.dcr_computed:.3e}"
        )
        assert abs(image - c.dcr_expected) > DCR_REL_TOL * c.dcr_expected, (
            f"{where} vs printed {c.dcr_expected:.1e}"
        )


def test_criterion_01_table2_regression():
    with criterion(1, "golden table 2"):
        t0 = time.perf_counter()
        report = evaluate_table(2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"table 2 regression took {elapsed:.3f}s"
        assert report.all_ok, "table 2 mismatches:\n" + _format_failures(
            2, _table_failures(report)
        )


def test_criterion_02_table3_regression():
    with criterion(2, "golden table 3"):
        t0 = time.perf_counter()
        report = evaluate_table(3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"table 3 regression took {elapsed:.3f}s"
        # The stable points always hold:
        finals = {
            c.series: (c.de_computed_pct, c.dcr_computed)
            for c in report.cells
            if c.level == 8
        }
        for series, (de_pct, dcr) in {
            "Para 1": (97.8, 2.4e-5),
            "Para 2": (95.6, 1.4e-7),
            "Para 3": (93.4, 8.5e-10),
        }.items():
            got_de, got_dcr = finals[series]
            assert abs(got_de - de_pct) <= DE_TOL_PP
            assert abs(got_dcr - dcr) <= DCR_REL_TOL * dcr
        _assert_only_misprints(report)


def test_criterion_03_tables_4_to_7_regression():
    with criterion(3, "golden tables 4-7"):
        exact = {n: evaluate_table(n, "exact") for n in (4, 5, 6, 7)}
        # The approximate firing probabilities are recorded alongside for reference.
        approx = {n: evaluate_table(n, "approx") for n in (4, 5, 6, 7)}
        record = "\n" + "\n".join(
            f"table {n}: exact {exact[n].n_ok}/{exact[n].n_total} ok, "
            f"approx {approx[n].n_ok}/{approx[n].n_total} ok"
            for n in (4, 5, 6, 7)
        )
        for report in exact.values():
            _assert_only_misprints(report, record)


def test_criterion_04_enumeration_equivalence():
    with criterion(4, "oracle equivalence (1000 draws)"):
        rng = np.random.default_rng(1009)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            eta, d, p, P, Q = rng.uniform(0, 1, 5)
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, n + 1))
            det = DetectorPerformance(eta, d)
            params = ComponentParams(p, P, Q)
            cfg = LevelConfig(n, k)
            perf = level_map(det, params, cfg)
            de, dcr = perf.eta, perf.dcr
            e_de, e_dcr = enumerate_level(det, params, cfg)
            worst = max(worst, abs(de - e_de), abs(dcr - e_dcr))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"worst closed-vs-enumeration gap {worst:.3e}"
        assert elapsed < 30.0, f"enumeration sweep took {elapsed:.1f}s"


def test_criterion_05_monte_carlo_consistency():
    with criterion(5, "Monte Carlo consistency (200 configs)"):
        # Band centered on the enumerated truth; the estimate's own stderr
        # collapses to zero whenever every trial lands the same way.
        rng = np.random.default_rng(55_2024)
        trials = 100_000
        t0 = time.perf_counter()
        ok = 0
        for _ in range(200):
            eta, d, p, P, Q = rng.uniform(0, 1, 5)
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, n + 1))
            det = DetectorPerformance(eta, d)
            params = ComponentParams(p, P, Q)
            cfg = LevelConfig(n, k)
            e_de, e_dcr = enumerate_level(det, params, cfg)
            m_de, m_dcr, s_de, s_dcr = mc_level(
                det, params, cfg, trials, int(rng.integers(0, 2**63))
            )
            band_de = 5 * max(s_de, math.sqrt(e_de * (1 - e_de) / trials))
            band_dcr = 5 * max(s_dcr, math.sqrt(e_dcr * (1 - e_dcr) / trials))
            if abs(m_de - e_de) <= band_de and abs(m_dcr - e_dcr) <= band_dcr:
                ok += 1
        elapsed = time.perf_counter() - t0
        assert ok >= 198, f"only {ok}/200 configs within 5 stderr"
        assert elapsed < 60.0, f"MC sweep took {elapsed:.1f}s"


def test_criterion_06_decision_poly_monotone():
    with criterion(6, "decision polynomial monotonicity (500 triples)"):
        rng = np.random.default_rng(2718)
        for _ in range(500):
            a = float(rng.uniform(0, 2))
            n = int(rng.integers(2, 31))
            k = int(rng.integers(2, n + 1))
            hi = (k - 1) / n
            prev = -math.inf
            for i in range(1000):
                val = decision_poly(a, n, k, hi * i / 999)
                assert val >= prev - 1e-12
                prev = val


def test_criterion_07_bound_suite():
    with criterion(7, "dark-count bound and survive-term bound (1e4 sweep)"):
        rng = np.random.default_rng(31415)
        bound_checked = 0
        for _ in range(10_000):
            eta, d, p, P, Q = rng.uniform(0, 1, 5)
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            det = DetectorPerformance(eta, d)
            params = ComponentParams(p, P, Q)
            cfg = LevelConfig(n, k)
            survive_term = p**n * de_survive_case(det, params, cfg)
            assert survive_term <= level_map(det, params, cfg).eta + 1e-13
            if Q + d <= 1.0 and k - 1 >= n * (Q + d):
                bound = dcr_upper_bound(d, Q, n, k)
                assert bound >= level_map(det, params, cfg).dcr - 1e-15
                bound_checked += 1
        assert bound_checked >= 100, "precondition region under-sampled"


def test_criterion_08_fixed_point_self_consistency():
    with criterion(8, "fixed-point roots"):
        report = find_fixed_points(0.98, 0.97, 4, 2, grid=10000)
        assert any(0.9 < r < 1.0 for r in report.roots)
        rng = np.random.default_rng(161803)
        for _ in range(50):
            p = float(rng.uniform(0, 1))
            P = float(rng.uniform(0, 1))
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            rep = find_fixed_points(p, P, n, k, grid=2000)
            for r in rep.roots:
                assert abs(de_gain(r, p, P, n, k)) <= 1e-10


def test_criterion_09_qkd_agreement():
    with criterion(9, "QKD threshold forms"):
        rng = np.random.default_rng(977)
        for _ in range(500):
            e_c = float(rng.uniform(0, 0.2))
            e_th = float(rng.uniform(e_c + 1e-3, 0.45))
            e = float(rng.uniform(0, 0.5))
            eta = float(rng.uniform(1e-3, 1.0))
            d = float(rng.uniform(0, 0.05))
            scn = QkdScenario(e_th, e_c, e)
            det = DetectorPerformance(eta, d)
            exact = gamma_exact(scn, det)
            approx = gamma_approx(scn, det)
            bound = d * (1 - 2 * e) / (e_th - e_c)
            if exact > 0:
                assert abs(approx - exact) / exact <= bound * (1 + 1e-9) + 1e-15
            zero = gamma_exact(scn, DetectorPerformance(eta, 0.0))
            assert zero == 0.0


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "CLI byte determinism"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "eta0": 0.59,
                    "d0": 0.01,
                    "p": 0.98,
                    "P": 0.97,
                    "Q": 0.002,
                    "schedule": [[4, 1]] + [[4, 2]] * 7,
                }
            ),
            encoding="utf-8",
        )
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert cli_main(["iterate", str(cfg), "--out", str(t1)]) == 0
        assert cli_main(["iterate", str(cfg), "--out", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        capsys.readouterr()  # drain the iterate chatter

        oracle_args = ["oracle", "--n", "4", "--k", "1", "--trials", "150000",
                       "--seed", "42"]
        assert cli_main(oracle_args + ["--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert cli_main(oracle_args + ["--threads", "4"]) == 0
        second = capsys.readouterr().out
        assert cli_main(oracle_args + ["--threads", "2"]) == 0
        third = capsys.readouterr().out
        assert first == second == third

        opt_args = ["optimize", "--de-target", "0.95", "--dcr-target", "1e-4",
                    "--max-levels", "3", "--n-max", "6", "--top", "20"]
        o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert cli_main(opt_args + ["--out", str(o1)]) == 0
        assert cli_main(opt_args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


@pytest.fixture(scope="module", autouse=True)
def _summary_banner():
    yield
    print("\nacceptance criteria 2 and 3 pass when the published tables mismatch")
    print("in exactly the four documented misprint cells.")
