"""Spontaneous-localization quantum dynamics on a 1-D periodic grid.

Stochastic collapse trajectories (unitary evolution punctuated by Poisson
localization hits), measurement amplification, three-time correlation
runs on the two-level reduction, a marker-ring irreversibility toy, and
SI unit arithmetic.
"""
from ._version import __version__
from .collapse import GrwParams, jump_profile, schedule_jumps
from .config import (
    LoadedConfig,
    chain_defaults,
    config_digest,
    load_config,
    render_resolved,
)
from .ensemble import EnsembleSummary, run_ensemble, survival_scaling_points
from .errors import (
    GrwsimError,
    InsufficientDataError,
    NonConvergentError,
    ParseError,
    UnstableStepError,
    ValidationError,
    ZeroNormError,
)
from .kacring import equilibration_experiment
from .propagator import Potential, PropagatorConfig, premeasurement_evolve
from .qstate import (
    GridSpec,
    WaveFunction,
    gaussian_packet,
    grid_points,
    two_peak_state,
)
from .rng import GENERATOR_NAME, RngStream, trajectory_stream
from .scenarios import (
    LgConfig,
    LgResult,
    ScenarioConfig,
    run_leggett_garg,
    run_single,
)
from .stats import OutcomeTally, born_chi_square, fit_scaling
from .units import amplification_table

__all__ = [
    "__version__",
    "GENERATOR_NAME",
    "EnsembleSummary",
    "GridSpec",
    "GrwParams",
    "GrwsimError",
    "InsufficientDataError",
    "LgConfig",
    "LgResult",
    "LoadedConfig",
    "NonConvergentError",
    "OutcomeTally",
    "ParseError",
    "Potential",
    "PropagatorConfig",
    "RngStream",
    "ScenarioConfig",
    "UnstableStepError",
    "ValidationError",
    "WaveFunction",
    "ZeroNormError",
    "amplification_table",
    "born_chi_square",
    "chain_defaults",
    "config_digest",
    "equilibration_experiment",
    "fit_scaling",
    "gaussian_packet",
    "grid_points",
    "jump_profile",
    "load_config",
    "premeasurement_evolve",
    "render_resolved",
    "run_ensemble",
    "run_leggett_garg",
    "run_single",
    "schedule_jumps",
    "survival_scaling_points",
    "trajectory_stream",
    "two_peak_state",
]
