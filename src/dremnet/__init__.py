"""Distributed parameter estimation over directed sensor networks.

Sensors observing scalar linear regressions lift their data through a
regressor-extension transform into decoupled scalar channels, exchange the
resulting (d+1)-value messages along a directed graph, and fuse them with a
counter-gated normalized LMS update. The package bundles the model, the
transform, the estimator, excitation audits, analytical moment oracles, and
a reproducible Monte Carlo harness.
"""

from .analysis import export_oracle_csv, moments, theorem_check
from .harness import (
    Scenario,
    ScenarioError,
    check_scenario,
    export_csv,
    load_scenario,
    run_monte_carlo,
    run_single,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "run_single",
    "run_monte_carlo",
    "export_csv",
    "check_scenario",
    "moments",
    "theorem_check",
    "export_oracle_csv",
]
