"""The names the package exports are the pinned list, and they and the
names the benchmark binds exist.

The benchmark in ``perfbench/`` hooks functions by module and attribute
name, and builds its configs through the public API, so deleting or
renaming a name, or changing a constructor it calls, breaks it without
any run path failing.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

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
    "InsufficientDataError", "JumpEvent", "LgConfig", "LgResult", "LoadedConfig",
    "NonConvergentError", "OutcomeTally", "ParseError", "Potential",
    "PropagatorConfig", "RngStream", "ScenarioConfig",
    "TrajectoryRecord", "UnstableStepError", "ValidationError", "WaveFunction",
    "ZeroNormError", "__version__", "amplification_table", "born_chi_square",
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
    assert callable(grwsim.kacring.PerturbationConfig.generator)
