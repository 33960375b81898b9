"""Bundled reference parameter studies and golden-value regression.

``TABLES`` maps a table number to its series.  The series of a table share
a seed detector and module constants (table 6 sweeps the transmission p);
each pins a per-level schedule and the published (DE %, DCR) figures for
levels 1..8.  The regression recomputes every trajectory and compares cell
by cell at the standing tolerances (DE within 0.1 percentage point, DCR
within 10 % relative).  Golden values are transcribed verbatim from the published
tables, including four dark-count cells that are misprinted: the map is
deterministic, and each printed cell is not the level-map image of the
published row before it, while the recomputed value is.  The regression
flags those cells as mismatches by design.

Table numbering follows the CLI contract: 2 and 3 are the two seed
studies, 4 and 5 the degraded-gate studies (P = 0.80 and P = 0.40), 6 the
transmission sweep at (5, 2), and 7 the varied-(n, k) schedules.
``FIGURES`` names, per figure, the tables it plots: each gives a ``_de`` and
a ``_dcr`` panel, both from one trajectory per series.
"""

from __future__ import annotations

from collections import namedtuple

from .dynamics import (
    ComponentParams,
    DetectorPerformance,
    LevelConfig,
    approx_firing_probs,
    firing_probs,
    level_figures,
    schedule_label,
)

__all__ = [
    "DE_TOL_PP",
    "DCR_REL_TOL",
    "GoldenSeries",
    "CellResult",
    "TableReport",
    "TABLES",
    "FIGURES",
    "series_trajectory",
    "evaluate_table",
    "figure_panels",
]

DE_TOL_PP = 0.1  # DE tolerance, percentage points
DCR_REL_TOL = 0.10  # DCR tolerance, relative

_LEVELS = 8

# variant -> its per-detector firing probabilities, one (p_pos, q_pos, p_sig, q_sig) tuple
_VARIANTS = {"exact": firing_probs, "approx": approx_firing_probs}


GoldenSeries = namedtuple(
    "GoldenSeries",
    [
        "label",
        "seed",  # DetectorPerformance
        "params",  # ComponentParams
        "schedule",  # one LevelConfig per level 1..8
        "expected",  # (DE %, DCR) per level 1..8
    ],
)

# one published cell against its recomputed value
CellResult = namedtuple(
    "CellResult",
    "series level n k"
    " de_expected_pct de_computed_pct de_delta_pp de_ok"
    " dcr_expected dcr_computed dcr_rel_err dcr_ok",
)

# cells is a tuple of CellResult; n_ok counts those with de_ok and dcr_ok
TableReport = namedtuple("TableReport", "number variant cells all_ok n_ok n_total")


def _cfgs(*pairs: tuple[int, int]) -> tuple[LevelConfig, ...]:
    return tuple(LevelConfig(n, k) for n, k in pairs)


def _table(
    seed: DetectorPerformance, params: ComponentParams, *series: tuple
) -> tuple[GoldenSeries, ...]:
    """One table's series from ``(label, schedule, rows)`` triples."""
    return tuple(
        GoldenSeries(label, seed, params, schedule, rows) for label, schedule, rows in series
    )


_SEED59 = DetectorPerformance(0.59, 1e-2)
_SEED27 = DetectorPerformance(0.275, 1e-6)
_P97 = ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)
_P80 = ComponentParams(p=0.98, P_act=0.80, Q_err=0.002)
_P40 = ComponentParams(p=0.98, P_act=0.40, Q_err=0.002)


TABLES: dict[int, tuple[GoldenSeries, ...]] = {
    # seed (59.0%, 1.0e-2), p=0.98, P=0.97, Q=0.002
    2: _table(
        _SEED59,
        _P97,
        ("Para 1", _cfgs((4, 1), *[(4, 2)] * 7), (
            (97.4, 5.3e-2), (98.2, 2.7e-2), (98.0, 7.7e-3), (97.9, 8.4e-4),
            (97.8, 5.6e-5), (97.8, 2.5e-5), (97.8, 2.4e-5), (97.8, 2.4e-5),
        )),
        ("Para 2", _cfgs((6, 1), *[(6, 3)] * 7), (
            (98.4, 7.5e-2), (96.6, 1.2e-2), (95.8, 8.9e-5), (95.6, 1.7e-7),
            (95.6, 1.4e-7), (95.6, 1.4e-7), (95.6, 1.4e-7), (95.6, 1.4e-7),
        )),
        ("Para 3", _cfgs((8, 1), *[(8, 4)] * 7), (
            (98.6, 9.5e-2), (95.1, 7.4e-3), (93.6, 8.1e-7), (93.4, 8.6e-10),
            (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10),
        )),
    ),
    # seed (27.5%, 1.0e-6), p=0.98, P=0.97, Q=0.002
    3: _table(
        _SEED27,
        _P97,
        ("Para 1", _cfgs((4, 1), *[(4, 2)] * 7), (
            (76.9, 2.2e-3), (95.3, 1.2e-4), (97.7, 2.6e-5), (97.8, 2.4e-5),
            (97.8, 2.4e-5), (97.8, 2.4e-5), (97.8, 2.4e-5), (97.8, 2.4e-5),
        )),
        # The published level-2 row is labelled (6,2) but its values (and
        # every later row) follow (6,3); the level-2 DCR is also printed
        # two decades high (3.8e-4 for 3.7e-6).  Schedule corrected,
        # golden values kept verbatim.
        ("Para 2", _cfgs((6, 1), *[(6, 3)] * 7), (
            (85.5, 3.4e-3), (94.8, 3.8e-4), (95.5, 1.4e-7), (95.6, 1.4e-7),
            (95.6, 1.4e-7), (95.6, 1.4e-7), (95.6, 1.4e-7), (95.6, 1.4e-7),
        )),
        ("Para 3", _cfgs((8, 1), *[(8, 4)] * 7), (
            (90.0, 4.5e-3), (93.1, 1.7e-7), (93.3, 8.4e-10), (93.4, 8.4e-10),
            (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10),
        )),
    ),
    # seed (59.0%, 1.0e-2), degraded gate P=0.80
    4: _table(
        _SEED59,
        _P80,
        # Level-5 DCR is printed 5.5e-5; the recomputed 2.3e-5 is the
        # image of the published level-4 row.  The level-6 row cannot
        # tell them apart: (4,2) maps both to within 5 % of 2.4e-5.
        ("Para 1", _cfgs(*[(4, 2)] * 8), (
            (77.8, 1.2e-3), (91.3, 5.7e-5), (95.7, 2.2e-5), (96.4, 2.3e-5),
            (96.5, 5.5e-5), (96.5, 2.4e-5), (96.5, 2.3e-5), (96.5, 2.3e-5),
        )),
        ("Para 2", _cfgs((6, 2), *[(6, 3)] * 7), (
            (88.5, 2.4e-3), (92.4, 2.1e-6), (93.3, 1.3e-7), (93.5, 1.3e-7),
            (93.6, 1.3e-7), (93.6, 1.3e-7), (93.6, 1.3e-7), (93.6, 1.3e-7),
        )),
        ("Para 3", _cfgs((8, 2), *[(8, 4)] * 7), (
            (92.3, 4.2e-3), (91.0, 1.4e-7), (90.6, 7.6e-10), (90.5, 7.5e-10),
            (90.5, 7.5e-10), (90.5, 7.5e-10), (90.5, 7.5e-10), (90.5, 7.5e-10),
        )),
    ),
    # seed (59.0%, 1.0e-2), degraded gate P=0.40
    5: _table(
        _SEED59,
        _P40,
        # Level-5 DCR is printed 2.9e-5 for 2.9e-4 (exponent misprint;
        # the published level-6 row 5.4e-5 follows from 2.9e-4).
        ("Para 1", _cfgs((2, 1), *[(6, 2)] * 7), (
            (75.1, 3.2e-2), (78.2, 2.1e-2), (79.1, 9.5e-3), (78.7, 2.4e-3),
            (77.7, 2.9e-5), (76.7, 5.4e-5), (76.0, 3.8e-5), (75.4, 3.7e-5),
        )),
        # Level-3 DCR is printed 9.0e-4 for 9.0e-5 (exponent misprint;
        # the published level-4 row 5.7e-5 follows from 9.0e-5).
        ("Para 2", _cfgs(*[(7, 2)] * 8), (
            (66.8, 3.3e-3), (72.8, 5.4e-4), (77.2, 9.0e-4), (80.1, 5.7e-5),
            (82.0, 5.8e-5), (83.0, 6.1e-5), (83.6, 6.3e-5), (83.9, 6.4e-5),
        )),
        ("Para 3", _cfgs(*[(8, 2)] * 8), (
            (71.1, 4.2e-3), (79.6, 1.0e-3), (84.3, 2.1e-4), (86.4, 1.0e-4),
            (87.2, 9.5e-5), (87.5, 9.5e-5), (87.6, 9.6e-5), (87.7, 9.6e-5),
        )),
    ),
    # seed (59.0%, 1.0e-2), transmission sweep at (5, 2), P=0.97
    6: tuple(
        GoldenSeries(
            f"p={p:.2f}",
            _SEED59,
            ComponentParams(p=p, P_act=0.97, Q_err=0.002),
            _cfgs(*[(5, 2)] * 8),
            rows,
        )
        for p, rows in (
            (0.80, (
                (60.8, 1.8e-3), (61.0, 1.1e-4), (61.0, 1.8e-5), (60.9, 1.5e-5),
                (60.8, 1.5e-5), (60.8, 1.5e-5), (60.8, 1.5e-5), (60.8, 1.5e-5),
            )),
            (0.84, (
                (66.7, 1.8e-3), (70.6, 1.2e-4), (72.6, 2.4e-5), (73.5, 2.2e-5),
                (74.0, 2.2e-5), (74.2, 2.3e-5), (74.3, 2.3e-5), (74.3, 2.3e-5),
            )),
            (0.88, (
                (72.9, 1.8e-3), (79.7, 1.3e-4), (82.1, 3.1e-5), (82.8, 2.8e-5),
                (83.1, 2.9e-5), (83.2, 2.9e-5), (83.2, 2.9e-5), (83.2, 2.9e-5),
            )),
            (0.92, (
                (79.7, 1.8e-3), (87.8, 1.4e-4), (89.5, 3.7e-5), (89.9, 3.4e-5),
                (89.9, 3.4e-5), (89.9, 3.4e-5), (89.9, 3.4e-5), (89.9, 3.4e-5),
            )),
            (0.96, (
                (87.0, 1.8e-3), (94.6, 1.5e-4), (95.4, 4.3e-5), (95.4, 3.8e-5),
                (95.4, 3.8e-5), (95.4, 3.8e-5), (95.4, 3.8e-5), (95.4, 3.8e-5),
            )),
        )
    ),
    # seed (59.0%, 1.0e-2), varied per-level (n, k), P=0.97
    7: _table(
        _SEED59,
        _P97,
        ("Para 4", _cfgs((8, 2), *[(8, 4)] * 7), (
            (95.0, 4.2e-3), (93.5, 1.4e-7), (93.4, 8.5e-10), (93.4, 8.5e-10),
            (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10),
        )),
        ("Para 5", _cfgs((4, 2), *[(8, 4)] * 7), (
            (86.1, 1.2e-3), (92.6, 6.4e-9), (93.3, 8.2e-10), (93.3, 8.4e-10),
            (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10),
        )),
        ("Para 6", _cfgs((3, 1), (6, 4), *[(8, 4)] * 6), (
            (95.8, 4.3e-2), (93.9, 1.2e-4), (93.4, 1.2e-9), (93.4, 8.5e-10),
            (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10), (93.4, 8.5e-10),
        )),
    ),
}

# figure number -> (panel stem, table number) pairs; each pair gives the
# panels <stem>_de and <stem>_dcr, in that order
FIGURES: dict[int, tuple[tuple[str, int], ...]] = {
    2: (("fig2_seed59", 2), ("fig2_seed27", 3)),
    3: (("fig3", 6),),
    4: (("fig4_P080", 4), ("fig4_P040", 5)),
    5: (("fig5", 7),),
}


def series_trajectory(
    series: GoldenSeries, variant: str = "exact"
) -> list[DetectorPerformance]:
    """Levels 0..8 of a reference series under the chosen firing probabilities.

    Both variants feed their tuple to the one level map,
    :func:`~espd.dynamics.level_figures`; the ``exact`` variant is the call
    :func:`~espd.dynamics.level_map` makes.
    """
    probs = _VARIANTS[variant]
    p, P, Q = series.params.p, series.params.P_act, series.params.Q_err
    det = series.seed
    rows = [det]
    for cfg in series.schedule:
        ((de, dcr),) = level_figures(*probs(det.eta, det.dcr, P, Q), p, cfg.n, (cfg.k,))
        det = DetectorPerformance(de, dcr)
        rows.append(det)
    return rows


def evaluate_table(number: int, variant: str = "exact") -> TableReport:
    """Recompute one reference table and compare it cell by cell."""
    if number not in TABLES:
        raise ValueError(f"unknown table {number}; available: {sorted(TABLES)}")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cells = []
    for series in TABLES[number]:
        rows = series_trajectory(series, variant)
        for level in range(1, _LEVELS + 1):
            cfg = series.schedule[level - 1]
            de_exp, dcr_exp = series.expected[level - 1]
            perf = rows[level]
            de_pct = perf.eta * 100.0
            de_delta = de_pct - de_exp
            dcr_rel = (perf.dcr - dcr_exp) / dcr_exp if dcr_exp != 0.0 else 0.0
            cells.append(
                CellResult(
                    series=series.label,
                    level=level,
                    n=cfg.n,
                    k=cfg.k,
                    de_expected_pct=de_exp,
                    de_computed_pct=de_pct,
                    de_delta_pp=de_delta,
                    de_ok=abs(de_delta) <= DE_TOL_PP,
                    dcr_expected=dcr_exp,
                    dcr_computed=perf.dcr,
                    dcr_rel_err=dcr_rel,
                    dcr_ok=abs(perf.dcr - dcr_exp) <= DCR_REL_TOL * dcr_exp,
                )
            )
    n_ok = sum(1 for c in cells if c.de_ok and c.dcr_ok)
    return TableReport(
        number=number,
        variant=variant,
        cells=tuple(cells),
        all_ok=n_ok == len(cells),
        n_ok=n_ok,
        n_total=len(cells),
    )


def figure_panels(number: int) -> list[tuple[str, list[tuple[int, str, float]]]]:
    """Per-panel rows (level, series_label, value) for one figure.

    Efficiency panels carry percentages, dark-count panels raw rates; the
    level-0 seed point is included so the plotted trajectories start at the
    baseline detector.
    """
    if number not in FIGURES:
        raise ValueError(f"unknown figure {number}; available: {sorted(FIGURES)}")
    panels = []
    for stem, table_no in FIGURES[number]:
        de_rows: list[tuple[int, str, float]] = []
        dcr_rows: list[tuple[int, str, float]] = []
        for series in TABLES[table_no]:
            label = (
                series.label
                if series.label.startswith("p=")
                else schedule_label(series.schedule)
            )
            for level, perf in enumerate(series_trajectory(series)):
                de_rows.append((level, label, perf.eta * 100.0))
                dcr_rows.append((level, label, perf.dcr))
        panels += [(f"{stem}_de", de_rows), (f"{stem}_dcr", dcr_rows)]
    return panels
