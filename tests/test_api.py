"""The names the package exports and the names the benchmark binds exist.

The benchmark in ``perfbench/`` hooks functions by module and attribute
name, so deleting or renaming one breaks it without any run path failing.
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


def test_every_exported_name_resolves():
    assert [name for name in grwsim.__all__ if not hasattr(grwsim, name)] == []


def test_benchmark_checkpoints_resolve(monkeypatch):
    workloads = _workloads(monkeypatch).WORKLOADS
    assert set(workloads) == {"cat_ensemble", "lg_ladder", "arrow"}
    for cls in workloads.values():
        module, attr, every = cls.checkpoint
        assert callable(vars(importlib.import_module(module))[attr]), cls.name
        assert every >= 1


def test_benchmark_entry_points_exist():
    assert callable(grwsim.run_single)
    assert callable(grwsim.kacring.PerturbationConfig.generator)
