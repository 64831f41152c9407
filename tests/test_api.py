"""The names the package exports are the pinned list, and they and the
names the benchmark binds exist.  The public entry points take their
counts as Python ints only.

The benchmark in ``perfbench/`` hooks functions by module and attribute
name, and builds its configs through the public API, so deleting or
renaming a name, or changing a constructor it calls, breaks it without
any run path failing.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import grwsim
import grwsim.kacring

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by path; nothing in it is run."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


#: the package's exports; a change here is a declared API change
EXPORTS = [
    "EnsembleSummary", "GENERATOR_NAME", "GridSpec", "GrwParams", "GrwsimError",
    "InsufficientDataError", "LgConfig", "LgResult", "LoadedConfig",
    "NonConvergentError", "OutcomeTally", "ParseError", "Potential",
    "PropagatorConfig", "RngStream", "ScenarioConfig", "UnstableStepError",
    "ValidationError", "WaveFunction", "ZeroNormError", "__version__",
    "amplification_table", "born_chi_square",
    "chain_defaults", "config_digest", "equilibration_experiment", "fit_scaling",
    "gaussian_packet", "grid_points", "jump_profile", "load_config",
    "premeasurement_evolve", "render_resolved", "run_ensemble",
    "run_leggett_garg", "run_single", "schedule_jumps", "survival_scaling_points",
    "trajectory_stream", "two_peak_state",
]


def test_exports_are_pinned():
    assert sorted(grwsim.__all__) == EXPORTS


def test_every_exported_name_resolves():
    assert [name for name in grwsim.__all__ if not hasattr(grwsim, name)] == []


def test_benchmark_checkpoints_resolve(monkeypatch):
    workloads = _workloads(monkeypatch).WORKLOADS
    assert set(workloads) == {"cat_ensemble", "lg_ladder", "arrow"}
    for cls in workloads.values():
        module, attr, every = cls.checkpoint
        assert callable(vars(importlib.import_module(module))[attr]), cls.name
        assert every >= 1


def test_benchmark_builds_its_configs(monkeypatch):
    """Every config a benchmark workload builds loads, echoes and hashes."""
    workloads = _workloads(monkeypatch)
    for rate in workloads.LG_RATES:
        lg = workloads.lg_config(rate)
        assert isinstance(lg, grwsim.LgConfig)
        assert (lg.collapse is None) == (rate == 0.0)
    loaded = grwsim.load_config(workloads.CAT_CONFIG)
    assert loaded.kind == "cat"
    assert grwsim.render_resolved(loaded)
    assert len(grwsim.config_digest(loaded)) == 64


def test_benchmark_entry_points_exist():
    assert callable(grwsim.run_single)



WPR = grwsim.ScenarioConfig(mode="wpr")
LG = grwsim.LgConfig(omega=1.0, t1=0.5, t2=1.0, t3=1.5)
RING = dict(marker_fraction=0.1, flip_rate=0.0, master_seed=5)

#: each count argument of a public entry point: its name, a valid value and
#: a call that passes it
COUNTS = {
    "run_ensemble-trajectories": (
        "trajectories", 20, lambda n: grwsim.run_ensemble(WPR, n, 5)),
    "run_ensemble-workers": (
        "workers", 2, lambda n: grwsim.run_ensemble(WPR, 20, 5, workers=n)),
    "run_leggett_garg-trajectories": (
        "trajectories", 20, lambda n: grwsim.run_leggett_garg(LG, n, 5)),
    "equilibration_experiment-n_sites": (
        "n_sites", 200, lambda n: grwsim.equilibration_experiment(
            n_sites=n, horizon=50, trials=2, **RING)),
    "equilibration_experiment-horizon": (
        "horizon", 50, lambda n: grwsim.equilibration_experiment(
            n_sites=200, horizon=n, trials=2, **RING)),
    "equilibration_experiment-trials": (
        "trials", 2, lambda n: grwsim.equilibration_experiment(
            n_sites=200, horizon=50, trials=n, **RING)),
    "equilibration_experiment-series_stride": (
        "series_stride", 5, lambda n: grwsim.equilibration_experiment(
            n_sites=200, horizon=50, trials=2, series_stride=n, **RING)),
}


@pytest.mark.parametrize("kind", [bool, float, np.int64])
@pytest.mark.parametrize("case", COUNTS)
def test_count_arguments_must_be_python_ints(case, kind):
    """A bool, a float or a numpy integer count is refused as a config
    error before anything runs: none runs as its int value, fails inside
    numpy or ``range``, or reaches a summary."""
    name, valid, call = COUNTS[case]
    call(valid)
    with pytest.raises(grwsim.ValidationError, match=f"^{name} must be an integer"):
        call(kind(valid))
