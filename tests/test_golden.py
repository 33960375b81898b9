"""Reference-table plumbing tests (full regression lives in acceptance)."""

import pytest

from espd.dynamics import LevelConfig
from espd.golden import (
    FIGURES,
    TABLES,
    evaluate_table,
    figure_panels,
    schedule_label,
    series_trajectory,
)


def test_tables_cover_contracted_numbers():
    assert sorted(TABLES) == [2, 3, 4, 5, 6, 7]
    for table in TABLES.values():
        for series in table:
            assert len(series.schedule) == 8
            assert len(series.expected) == 8


def test_reference_table_two_fully_matches():
    report = evaluate_table(2)
    assert report.all_ok
    assert report.n_total == 24


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: evaluate_table(9), "unknown table 9"),
        (lambda: figure_panels(7), "unknown figure 7"),
        (lambda: evaluate_table([2]), r"unknown table \[2\]"),
        (lambda: figure_panels([2]), r"unknown figure \[2\]"),
    ],
    ids=["table", "figure", "table-list", "figure-list"],
)
def test_unknown_table_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_unknown_variant_raises():
    for call in (
        lambda: evaluate_table(2, variant="fancy"),
        lambda: series_trajectory(TABLES[2][0], "fancy"),
        lambda: series_trajectory(TABLES[2][0], ["exact"]),
    ):
        with pytest.raises(ValueError, match="unknown variant"):
            call()


def test_variants_differ_slightly():
    exact = series_trajectory(TABLES[2][0], "exact")
    approx = series_trajectory(TABLES[2][0], "approx")
    assert exact != approx
    assert exact[1].eta == pytest.approx(approx[1].eta, abs=5e-3)


def test_schedule_label_run_length():
    sched = (LevelConfig(4, 1),) + (LevelConfig(4, 2),) * 7
    assert schedule_label(sched) == "4:1+4:2x7"
    assert schedule_label((LevelConfig(3, 1),)) == "3:1"


def test_figure_panel_counts():
    assert {n: len(figure_panels(n)) for n in FIGURES} == {2: 4, 3: 2, 4: 4, 5: 2}
    for number in FIGURES:
        for stem, rows in figure_panels(number):
            assert rows  # every panel carries data
            levels = {r[0] for r in rows}
            assert levels == set(range(9))


def test_figure_three_series_are_transmission_sweep():
    panels = dict(figure_panels(3))
    labels = {label for _, label, _ in panels["fig3_de"]}
    assert labels == {"p=0.80", "p=0.84", "p=0.88", "p=0.92", "p=0.96"}


def test_figure_values_match_table_trajectories():
    panels = dict(figure_panels(2))
    table = TABLES[2]
    for si, series in enumerate(table):
        traj = series_trajectory(series)
        label = schedule_label(series.schedule)
        de_rows = [r for r in panels["fig2_seed59_de"] if r[1] == label]
        dcr_rows = [r for r in panels["fig2_seed59_dcr"] if r[1] == label]
        assert [v for _, _, v in de_rows] == [p.eta * 100.0 for p in traj]
        assert [v for _, _, v in dcr_rows] == [p.dcr for p in traj]
