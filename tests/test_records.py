"""Record contract: the library's records are checked, immutable named tuples.

Every record builds positionally or by keyword, with its defaults; keeps
its field names, its repr text (error messages embed it) and the hash of
its field tuple; refuses assignment; and, if it carries checks, raises the
same ``ValueError`` messages, also when a pickled copy is loaded.
"""

import math
import pickle
import re

import pytest

from espd.bounds import FixedPointReport
from espd.dynamics import (
    Checked,
    ComponentParams,
    ConvergenceRule,
    DetectorPerformance,
    LevelConfig,
    Schedule,
    Trajectory,
    TrajectoryPoint,
)
from espd.golden import CellResult, GoldenSeries, TableReport
from espd.optimize import OptimizationQuery, RankedSchedule
from espd.oracle import OracleReport
from espd.qkd import QkdScenario

DET = DetectorPerformance(0.59, 0.01)
PAR = ComponentParams(0.98, 0.97, 0.002)
CFG = LevelConfig(4, 2)
SCHED = Schedule(PAR, (CFG,))
POINT = TrajectoryPoint(1, CFG, DET)

# the reprs of the records above, as nested in the others
_DET = "DetectorPerformance(eta=0.59, dcr=0.01)"
_PAR = "ComponentParams(p=0.98, P_act=0.97, Q_err=0.002)"
_CFG = "LevelConfig(n=4, k=2)"
_SCHED = f"Schedule(params={_PAR}, levels=({_CFG},))"
_POINT = f"TrajectoryPoint(level=1, config={_CFG}, perf={_DET})"

# (record, its fields, values in field order, its repr)
RECORDS = [
    (DetectorPerformance, "eta dcr", (0.59, 0.01), _DET),
    (ComponentParams, "p P_act Q_err", (0.98, 0.97, 0.002), _PAR),
    (LevelConfig, "n k", (4, 2), _CFG),
    (Schedule, "params levels", (PAR, (CFG,)), _SCHED),
    (TrajectoryPoint, "level config perf", (1, CFG, DET), _POINT),
    (Trajectory, "points converged_at", ((POINT,), 1),
     f"Trajectory(points=({_POINT},), converged_at=1)"),
    (ConvergenceRule, "max_levels eta_tol dcr_tol", (8, 0.0, 1e-9),
     "ConvergenceRule(max_levels=8, eta_tol=0.0, dcr_tol=1e-09)"),
    (GoldenSeries, "label seed params schedule expected",
     ("Para 1", DET, PAR, (CFG,), ((97.4, 5.3e-2),)),
     f"GoldenSeries(label='Para 1', seed={_DET}, params={_PAR}, schedule=({_CFG},), "
     "expected=((97.4, 0.053),))"),
    (CellResult,
     "series level n k de_expected_pct de_computed_pct de_delta_pp de_ok "
     "dcr_expected dcr_computed dcr_rel_err dcr_ok",
     ("Para 1", 1, 4, 2, 97.4, 97.44, 0.04, True, 0.053, 0.0516, -0.026, True),
     "CellResult(series='Para 1', level=1, n=4, k=2, de_expected_pct=97.4, "
     "de_computed_pct=97.44, de_delta_pp=0.04, de_ok=True, dcr_expected=0.053, "
     "dcr_computed=0.0516, dcr_rel_err=-0.026, dcr_ok=True)"),
    (TableReport, "number variant cells all_ok n_ok n_total", (2, "exact", (), True, 0, 0),
     "TableReport(number=2, variant='exact', cells=(), all_ok=True, n_ok=0, n_total=0)"),
    (FixedPointReport, "roots gain_positive_interval", ((0.25, 0.75), (0.25, 0.75)),
     "FixedPointReport(roots=(0.25, 0.75), gain_positive_interval=(0.25, 0.75))"),
    (QkdScenario, "e_th e_c e", (0.11, 0.02, 0.1), "QkdScenario(e_th=0.11, e_c=0.02, e=0.1)"),
    (OracleReport,
     "closed_de closed_dcr enum_de enum_dcr mc_de mc_dcr mc_stderr_de mc_stderr_dcr "
     "trials seed enum_abs_err_de enum_abs_err_dcr enum_ok mc_ok",
     (0.5, 0.1, 0.5, 0.1, 0.49, 0.11, 0.01, 0.003, 1000, 7, 0.0, 1e-17, True, True),
     "OracleReport(closed_de=0.5, closed_dcr=0.1, enum_de=0.5, enum_dcr=0.1, mc_de=0.49, "
     "mc_dcr=0.11, mc_stderr_de=0.01, mc_stderr_dcr=0.003, trials=1000, seed=7, "
     "enum_abs_err_de=0.0, enum_abs_err_dcr=1e-17, enum_ok=True, mc_ok=True)"),
    (OptimizationQuery, "init params de_target dcr_target max_levels n_max",
     (DET, PAR, 0.9, 1e-9, 3, 6),
     f"OptimizationQuery(init={_DET}, params={_PAR}, de_target=0.9, dcr_target=1e-09, "
     "max_levels=3, n_max=6)"),
    (RankedSchedule, "schedule final cost levels_used", (SCHED, DET, 5, 1),
     f"RankedSchedule(schedule={_SCHED}, final={_DET}, cost=5, levels_used=1)"),
]


@pytest.mark.parametrize(
    "cls,fields,values,text", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_contract(cls, fields, values, text):
    fields = fields.split()
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert [getattr(record, name) for name in fields] == list(values)
    assert repr(record) == text
    # equal values give equal records, hashed like their field tuple
    twin = cls(*values)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record) == hash(tuple(values))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and loaded == record


# (record, the check, values that break it, the message), one case per checked field
BAD = [
    (DetectorPerformance, "eta", (1.5, 0.01), "eta must be in [0, 1], got 1.5"),
    (DetectorPerformance, "dcr", (0.59, -0.1), "dcr must be in [0, 1], got -0.1"),
    (ComponentParams, "p", (1.5, 0.97, 0.002), "p must be in [0, 1], got 1.5"),
    (ComponentParams, "P_act", (0.98, True, 0.002), "P_act must be a number, got True"),
    (ComponentParams, "Q_err", (0.98, 0.97, math.nan), "Q_err must be in [0, 1], got nan"),
    (LevelConfig, "n", (0, 1), "n must be an integer in [1, 64], got 0"),
    (LevelConfig, "k", (4, 5), "k must be an integer in [1, 4], got 5"),
    (Schedule, "params", (None, (CFG,)), "params must be a ComponentParams, got None"),
    (Schedule, "levels", (PAR, 5), "levels must be an iterable of LevelConfig, got 5"),
    (Schedule, "levels-empty", (PAR, ()), "schedule must contain at least one level"),
    (Schedule, "levels-items", (PAR, ((4, 2),)), "schedule levels must be LevelConfig instances"),
    (ConvergenceRule, "max_levels", (0, 0.0, 0.0),
     "max_levels must be an integer in [1, 1000], got 0"),
    (ConvergenceRule, "eta_tol", (8, -1.0, 0.0), "tolerances must be >= 0"),
    (ConvergenceRule, "dcr_tol", (8, 0.0, "x"), "dcr_tol must be a number, got 'x'"),
    (QkdScenario, "e_th", ("0.1", 0.02), "e_th must be a number, got '0.1'"),
    (QkdScenario, "e_c", (0.11, 0.2), "require 0 <= e_c < e_th <= 0.5, got e_c=0.2, e_th=0.11"),
    (QkdScenario, "e", (0.11, 0.02, 2.0), "e must be in [0, 1], got 2.0"),
    (OptimizationQuery, "init", (None, PAR, 0.9, 1e-9),
     "init must be a DetectorPerformance, got None"),
    (OptimizationQuery, "params", (DET, DET, 0.9, 1e-9),
     f"params must be a ComponentParams, got {_DET}"),
    (OptimizationQuery, "de_target", (DET, PAR, -1.0, 1e-9), "de_target must be >= 0, got -1.0"),
    (OptimizationQuery, "dcr_target", (DET, PAR, 0.9, math.inf),
     "dcr_target must be finite, got inf"),
    (OptimizationQuery, "max_levels", (DET, PAR, 0.9, 1e-9, 7),
     "max_levels must be an integer in [1, 6], got 7"),
    (OptimizationQuery, "n_max", (DET, PAR, 0.9, 1e-9, 4, 13),
     "n_max must be an integer in [1, 12], got 13"),
    (Schedule, "levels-list-items", (PAR, [(4, 2)]),
     "schedule levels must be LevelConfig instances"),
    (ConvergenceRule, "eta_tol-nan", (8, math.nan, 0.0), "eta_tol must be finite, got nan"),
    # two fields broken: the first check in field order reports
    (DetectorPerformance, "eta-first", (1.5, -0.1), "eta must be in [0, 1], got 1.5"),
    (LevelConfig, "n-first", (0, 5), "n must be an integer in [1, 64], got 0"),
    (Schedule, "params-first", (None, 5), "params must be a ComponentParams, got None"),
    (OptimizationQuery, "init-first", (None, None, -1.0, 1e-9),
     "init must be a DetectorPerformance, got None"),
]


@pytest.mark.parametrize(
    "cls,check,values,message", BAD, ids=[f"{bad[0].__name__}-{bad[1]}" for bad in BAD]
)
def test_checks_keep_their_messages_and_run_on_unpickling(cls, check, values, message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        cls(*values)
    # a pickle of a record that skipped its checks is checked when loaded
    forged = pickle.dumps(tuple.__new__(cls, values))
    with pytest.raises(ValueError, match=exact):
        pickle.loads(forged)


@pytest.mark.parametrize(
    "cls,fields,values,text", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_make_and_replace_build_like_the_constructor(cls, fields, values, text):
    record = cls(*values)
    made = cls._make(values)
    assert type(made) is cls and made == record
    replaced = record._replace(**{fields.split()[0]: values[0]})
    assert type(replaced) is cls and replaced == record
    with pytest.raises(TypeError):
        cls._make(values[:-1])


# one valid record of each checked class
GOOD = {cls: cls(*values) for cls, _, values, _ in RECORDS}


@pytest.mark.parametrize(
    "cls,check,values,message", BAD, ids=[f"{bad[0].__name__}-{bad[1]}" for bad in BAD]
)
def test_make_and_replace_run_the_checks(cls, check, values, message):
    # namedtuple's own _make, which _replace calls, skips __new__
    exact = f"^{re.escape(message)}$"
    defaults = cls._field_defaults
    values = (*values, *(defaults[name] for name in cls._fields[len(values):]))
    with pytest.raises(ValueError, match=exact):
        cls._make(values)
    with pytest.raises(ValueError, match=exact):
        GOOD[cls]._replace(**dict(zip(cls._fields, values)))


def test_every_checked_record_checks_through_one_base():
    # each record with checks is one of Checked's direct subclasses, and no
    # other class is, so a new checked record cannot skip the base
    checked = {bad[0] for bad in BAD}
    assert len(checked) == 7
    assert all(issubclass(cls, Checked) for cls in checked)
    assert set(Checked.__subclasses__()) == checked


def test_defaults():
    assert ConvergenceRule() == ConvergenceRule(32, 1e-12, 1e-12)
    assert QkdScenario(0.11, 0.02).e is None
    query = OptimizationQuery(DET, PAR, 0.9, 1e-9)
    assert (query.max_levels, query.n_max) == (4, 8)
    trajectory = Trajectory((POINT,))
    assert trajectory.converged_at is None and not trajectory.converged
    assert trajectory.final() is DET


def test_schedule_stores_its_levels_as_a_tuple():
    assert Schedule(PAR, [CFG, LevelConfig(4, 1)]).levels == (CFG, LevelConfig(4, 1))
    assert Schedule(PAR, iter([CFG])).levels == (CFG,)


def test_records_are_tuples():
    # the accepted contract: tuple equality, iteration and ordering
    assert DET == (0.59, 0.01) and tuple(CFG) == (4, 2)
    assert LevelConfig(4, 1) < CFG < LevelConfig(5, 1)
