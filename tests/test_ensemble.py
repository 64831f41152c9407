import json

import pytest

import grwsim.ensemble as ens
from grwsim import (
    GENERATOR_NAME,
    GrwsimError,
    NonConvergentError,
    ScenarioConfig,
    TrajectoryRecord,
    __version__,
    chain_defaults,
    run_ensemble,
)
from grwsim.errors import EnsembleFailureError, ZeroNormError


def _cfg(**kw):
    return ScenarioConfig(**kw)


def test_summary_counts_are_internally_consistent(tmp_path):
    summary = run_ensemble(
        _cfg(), trajectories=40, master_seed=7, out_dir=tmp_path
    )
    tally = summary.tally
    assert tally.total == 40
    assert len(summary.records) == 40
    jumps = sum(len(r["events"]) for r in summary.records)
    assert summary.total_jumps == jumps
    assert summary.failures == 0
    assert summary.survival is not None
    assert summary.chi_square is None  # below the 100-decided floor
    bare = run_ensemble(_cfg(), trajectories=40, master_seed=7)
    assert bare.records == []  # records are kept only when written
    assert bare.as_dict() == summary.as_dict()


def test_chi_square_present_once_enough_trajectories():
    summary = run_ensemble(_cfg(weight_1=0.5), trajectories=150, master_seed=8)
    assert summary.chi_square is not None
    assert 0.0 <= summary.p_value <= 1.0


@pytest.mark.parametrize(
    "cfg",
    [_cfg(weight_1=0.6), chain_defaults(), _cfg(mode="wpr", weight_1=0.6)],
    ids=["cat", "measurement_chain", "wpr"],
)
def test_artifacts_identical_for_any_worker_count(tmp_path, cfg):
    for workers in (1, 3):
        run_ensemble(
            cfg, trajectories=90, master_seed=11, workers=workers,
            out_dir=tmp_path / f"w{workers}", config_text="[scenario]\nkind = cat\n",
        )
    for name in ("events.jsonl", "summary.json", "outcomes.csv", "config.ini"):
        a = (tmp_path / "w1" / name).read_bytes()
        b = (tmp_path / "w3" / name).read_bytes()
        assert a == b, f"{name} differs between worker counts"


def test_event_log_integrity(tmp_path):
    out = tmp_path / "run"
    summary = run_ensemble(
        _cfg(), trajectories=25, master_seed=3, out_dir=out
    )
    lines = (out / "events.jsonl").read_text().splitlines()
    assert len(lines) == 25
    parsed = [json.loads(line) for line in lines]
    assert sum(len(r["events"]) for r in parsed) == summary.total_jumps
    for rec in parsed:
        assert "wall_time" not in rec
        assert rec["outcome"] in ("1", "2", "undecided")
        assert rec["seed"][0] == 3
    csv_lines = (out / "outcomes.csv").read_text().splitlines()
    assert len(csv_lines) == 26  # header + one row per trajectory
    assert csv_lines[0].startswith("index,outcome,survival_time")
    summary_doc = json.loads((out / "summary.json").read_text())
    assert summary_doc["outcomes"]["count_1"] == summary.tally.count_1
    assert summary_doc["provenance"] == {
        "package": "grwsim",
        "version": __version__,
        "generator": GENERATOR_NAME,
    }
    assert summary_doc["provenance"]["generator"] == "philox4x64"


def test_failure_budget_enforced(monkeypatch):
    real = ens._run_single

    def flaky(cfg, master_seed, index):
        if index % 3 == 0:
            raise ZeroNormError("synthetic failure")
        return real(cfg, master_seed, index)

    monkeypatch.setattr(ens, "_run_single", flaky)
    with pytest.raises(EnsembleFailureError, match="synthetic failure"):
        run_ensemble(_cfg(mode="wpr"), trajectories=30, master_seed=1)


def _undecided_first(count):
    """Stand-in trajectory body: the first ``count`` indices stay undecided."""

    def fake(cfg, master_seed, index):
        rec = TrajectoryRecord(scenario=cfg.name, seed=master_seed, stream_id=index)
        if index >= count:
            rec.outcome, rec.survival_time = "1", 0.5
        return rec

    return fake


@pytest.mark.parametrize("mode", ["grw", "wpr", "unitary"])
def test_undecided_budget_boundary(monkeypatch, mode):
    """1% of 1000 undecided passes; one more aborts, in grw mode only."""
    monkeypatch.setattr(ens, "_run_single", _undecided_first(10))
    summary = run_ensemble(_cfg(mode=mode), trajectories=1000, master_seed=1)
    assert summary.tally.count_undecided == 10
    monkeypatch.setattr(ens, "_run_single", _undecided_first(11))
    if mode == "grw":
        with pytest.raises(NonConvergentError, match="0.0110"):
            run_ensemble(_cfg(mode=mode), trajectories=1000, master_seed=1)
    else:
        summary = run_ensemble(_cfg(mode=mode), trajectories=1000, master_seed=1)
        assert summary.tally.count_undecided == 11


def test_scaling_sweep_aborts_on_any_failure(monkeypatch):
    """One raising trajectory in 200 is within the ensemble budget, but the
    sweep must not drop it from a rung's median."""
    decided = _undecided_first(0)

    def flaky(cfg, master_seed, index):
        if index == 5:
            raise ZeroNormError("synthetic failure")
        return decided(cfg, master_seed, index)

    monkeypatch.setattr(ens, "_run_single", flaky)
    with pytest.raises(EnsembleFailureError, match="1/200"):
        ens.survival_scaling_points(_cfg(), (1.0, 4.0), 200, master_seed=1)


def test_rare_failures_are_recorded_not_fatal(monkeypatch, tmp_path):
    real = ens._run_single

    def flaky(cfg, master_seed, index):
        if index == 5:
            raise ZeroNormError("synthetic failure")
        return real(cfg, master_seed, index)

    monkeypatch.setattr(ens, "_run_single", flaky)
    summary = run_ensemble(
        _cfg(mode="wpr"), trajectories=200, master_seed=1, out_dir=tmp_path
    )
    assert summary.failures == 1
    assert summary.tally.total == 199
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    bad = json.loads(lines[5])
    assert bad["index"] == 5
    assert "ZeroNormError" in bad["error"]


def test_wpr_mode_runs_without_grid_work():
    summary = run_ensemble(_cfg(mode="wpr", weight_1=0.2), 300, master_seed=4)
    assert summary.total_jumps == 0
    assert summary.tally.count_undecided == 0
    assert summary.mode == "wpr"


def test_trajectories_must_be_positive():
    with pytest.raises(GrwsimError):
        run_ensemble(_cfg(), trajectories=0, master_seed=0)


def test_summary_as_dict_schema():
    summary = run_ensemble(_cfg(mode="wpr"), 10, master_seed=0)
    doc = summary.as_dict()
    assert set(doc) == {
        "scenario", "kind", "mode", "trajectories", "master_seed",
        "outcomes", "expected_weights", "chi_square", "p_value",
        "survival", "total_jumps", "failures", "config_digest", "provenance",
    }
