"""Cascaded single-photon detector enhancement toolkit.

Builds the level map of the recursive enhancement scheme (k-of-(n+1)
voting over controlled-gate auxiliary detections), iterates schedules,
verifies the closed forms against enumeration and Monte Carlo oracles,
bounds and fixed-point-analyzes the dynamics, searches schedules under a
detection-cost budget, and evaluates the resulting QKD transmission
threshold.

Every public name and submodule loads on first access (PEP 562), so
``import espd`` imports no submodule and a command loads only the modules
it uses; numpy loads only with ``optimize``, ``oracle`` and ``_kernels``.
Run labels (``run_label``, ``schedule_label``) live in
:mod:`espd.dynamics`.
"""

import importlib

# Submodule -> its public names, imported on first access.  ``binomial``,
# ``golden`` and ``cli`` export nothing here but resolve as ``espd.<name>``.
_MODULES = {
    "binomial": (),
    "golden": (),
    "cli": (),
    "dynamics": (
        "N_MAX",
        "MAX_LEVELS",
        "DetectorPerformance",
        "ComponentParams",
        "LevelConfig",
        "Schedule",
        "Trajectory",
        "TrajectoryPoint",
        "ConvergenceRule",
        "firing_probs",
        "approx_firing_probs",
        "de_loss_case",
        "de_survive_case",
        "level_map",
        "iterate_schedule",
        "effective_transmission",
    ),
    "bounds": (
        "FixedPointReport",
        "PreconditionError",
        "decision_poly",
        "dcr_upper_bound",
        "dcr_estimate",
        "de_lower_bound",
        "de_gain",
        "find_fixed_points",
    ),
    "qkd": ("QkdScenario", "gamma_exact", "gamma_approx"),
    "_kernels": ("backend_name",),
    "oracle": ("ENUM_MAX_N", "OracleReport", "enumerate_level", "mc_level", "oracle_report"),
    "optimize": (
        "OptimizationQuery",
        "RankedSchedule",
        "SearchResult",
        "resource_cost",
        "search_schedules",
        "pareto_front",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}


def __getattr__(name: str):
    if name in _MODULES:  # the submodule itself, e.g. ``espd.optimize``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_MODULES})


__version__ = "0.1.0"

__all__ = ["__version__", *_HOME]
