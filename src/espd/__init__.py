"""Cascaded single-photon detector enhancement toolkit.

Builds the level map of the recursive enhancement scheme (k-of-(n+1)
voting over controlled-gate auxiliary detections), iterates schedules,
verifies the closed forms against enumeration and Monte Carlo oracles,
bounds and fixed-point-analyzes the dynamics, searches schedules under a
detection-cost budget, and evaluates the resulting QKD transmission
threshold.
"""

import importlib

from .bounds import (
    FixedPointReport,
    PreconditionError,
    dcr_estimate,
    dcr_upper_bound,
    de_gain,
    de_lower_bound,
    decision_poly,
    find_fixed_points,
)
from .dynamics import (
    MAX_LEVELS,
    N_MAX,
    ComponentParams,
    ConvergenceRule,
    DetectorPerformance,
    LevelConfig,
    LevelIntermediates,
    Schedule,
    Trajectory,
    TrajectoryPoint,
    approx_intermediates,
    de_loss_case,
    de_survive_case,
    effective_transmission,
    iterate_schedule,
    level_intermediates,
    level_map,
)
from .qkd import QkdScenario, gamma_approx, gamma_exact

# Public names of the modules that load numpy, imported on first access
# (PEP 562) so that ``import espd`` and the array-free commands stay
# numpy-free.  Name -> submodule.
_LAZY = {
    "backend_name": "_kernels",
    "OptimizationQuery": "optimize",
    "RankedSchedule": "optimize",
    "SearchResult": "optimize",
    "pareto_front": "optimize",
    "resource_cost": "optimize",
    "search_schedules": "optimize",
    "ENUM_MAX_N": "oracle",
    "OracleReport": "oracle",
    "enumerate_level": "oracle",
    "mc_level": "oracle",
    "oracle_report": "oracle",
}


def __getattr__(name: str):
    if name in _LAZY.values():  # the submodule itself, e.g. ``espd.optimize``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "N_MAX",
    "MAX_LEVELS",
    "ENUM_MAX_N",
    "DetectorPerformance",
    "ComponentParams",
    "LevelConfig",
    "Schedule",
    "LevelIntermediates",
    "Trajectory",
    "TrajectoryPoint",
    "ConvergenceRule",
    "level_intermediates",
    "approx_intermediates",
    "de_loss_case",
    "de_survive_case",
    "level_map",
    "iterate_schedule",
    "effective_transmission",
    "FixedPointReport",
    "PreconditionError",
    "decision_poly",
    "dcr_upper_bound",
    "dcr_estimate",
    "de_lower_bound",
    "de_gain",
    "find_fixed_points",
    "OracleReport",
    "enumerate_level",
    "mc_level",
    "oracle_report",
    "OptimizationQuery",
    "RankedSchedule",
    "SearchResult",
    "resource_cost",
    "search_schedules",
    "pareto_front",
    "QkdScenario",
    "gamma_exact",
    "gamma_approx",
]
