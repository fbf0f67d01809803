"""Distributed parameter estimation over directed sensor networks.

Sensors observing scalar linear regressions lift their data through a
regressor-extension transform into decoupled scalar channels, exchange the
resulting (d+1)-value messages along a directed graph, and fuse them with a
counter-gated normalized LMS update. The package bundles the model, the
transform, the estimator, excitation audits, analytical moment oracles, and
a reproducible Monte Carlo harness.
"""

from .analysis import (
    MomentTrajectory,
    StepCoefficients,
    TheoremReport,
    beta,
    covariance_recursion,
    mean_recursion,
    mixed_noise_variance,
    moments,
    step_coefficients,
    theorem_check,
)
from .drem import (
    DremMessage,
    ExtendedRegressor,
    MixedNoise,
    adjugate,
    determinant,
    drem_transform,
    extend,
    mix,
    stack_regressors,
)
from .estimator import (
    GatedMessage,
    HarmonicSchedule,
    NodeState,
    TableSchedule,
    gate,
    node_step,
    step_size,
    update_counter,
    update_estimate,
)
from .excitation import (
    DeltaTrace,
    PeCertificate,
    find_certificate,
    local_pe_check,
    single_sensor_pe,
)
from .harness import (
    CheckReport,
    MonteCarloAggregate,
    RunResult,
    Scenario,
    ScenarioError,
    check_scenario,
    delta_traces,
    export_csv,
    load_scenario,
    run_monte_carlo,
    run_single,
)
from .model import (
    Constant,
    CustomTable,
    NoiseModel,
    PeriodicList,
    RecursiveCosine,
    measure,
    noise_block,
    regressor_at,
    sample_noise,
)
from .topology import (
    GraphSchedule,
    PeriodicGraph,
    StaticGraph,
    TableGraph,
    closed_in_neighborhood,
    in_neighbors,
    out_neighbors,
    ring,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "PeriodicList",
    "RecursiveCosine",
    "Constant",
    "CustomTable",
    "NoiseModel",
    "regressor_at",
    "sample_noise",
    "noise_block",
    "measure",
    # drem
    "ExtendedRegressor",
    "DremMessage",
    "MixedNoise",
    "stack_regressors",
    "determinant",
    "adjugate",
    "extend",
    "mix",
    "drem_transform",
    # topology
    "StaticGraph",
    "PeriodicGraph",
    "TableGraph",
    "GraphSchedule",
    "ring",
    "in_neighbors",
    "out_neighbors",
    "closed_in_neighborhood",
    "validate_schedule",
    # estimator
    "NodeState",
    "HarmonicSchedule",
    "TableSchedule",
    "GatedMessage",
    "step_size",
    "gate",
    "update_estimate",
    "update_counter",
    "node_step",
    # excitation
    "DeltaTrace",
    "PeCertificate",
    "local_pe_check",
    "single_sensor_pe",
    "find_certificate",
    # harness
    "Scenario",
    "ScenarioError",
    "RunResult",
    "MonteCarloAggregate",
    "CheckReport",
    "load_scenario",
    "run_single",
    "run_monte_carlo",
    "export_csv",
    "check_scenario",
    "delta_traces",
    # analysis
    "StepCoefficients",
    "MomentTrajectory",
    "TheoremReport",
    "beta",
    "mixed_noise_variance",
    "step_coefficients",
    "mean_recursion",
    "covariance_recursion",
    "moments",
    "theorem_check",
]
