"""Cascaded single-photon detector enhancement toolkit.

Builds the level map of the recursive enhancement scheme (k-of-(n+1)
voting over controlled-gate auxiliary detections), iterates schedules,
verifies the closed forms against enumeration and Monte Carlo oracles,
bounds and fixed-point-analyzes the dynamics, searches schedules under a
detection-cost budget, and evaluates the resulting QKD transmission
threshold.
"""

from ._kernels import backend_name
from .bounds import (
    BoundInputs,
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
from .optimize import (
    OptimizationQuery,
    RankedSchedule,
    pareto_front,
    resource_cost,
    search_schedules,
)
from .oracle import (
    ENUM_MAX_N,
    OracleReport,
    enumerate_level,
    mc_level,
    oracle_report,
)
from .qkd import QkdScenario, gamma_approx, gamma_exact

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
    "BoundInputs",
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
    "resource_cost",
    "search_schedules",
    "pareto_front",
    "QkdScenario",
    "gamma_exact",
    "gamma_approx",
]
