import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import grwsim.collapse as collapse
import grwsim.ensemble as ens
from grwsim import (
    GENERATOR_NAME,
    GridSpec,
    GrwParams,
    GrwsimError,
    NonConvergentError,
    ScenarioConfig,
    UnstableStepError,
    ValidationError,
    __version__,
    chain_defaults,
    run_ensemble,
)
from grwsim.config import load_config
from grwsim.errors import EnsembleFailureError, ZeroDensityError, ZeroNormError

from _support import outcome_block


def _cfg(**kw):
    return ScenarioConfig(**kw)


def test_summary_counts_are_internally_consistent(tmp_path):
    summary = run_ensemble(
        _cfg(), trajectories=40, master_seed=7, out_dir=tmp_path
    )
    tally = summary.tally
    assert tally.total == 40
    lines = (tmp_path / "events.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 40
    jumps = sum(len(json.loads(line)["events"]) for line in lines)
    assert summary.total_jumps == jumps
    assert summary.failures == 0
    assert summary.survival is not None
    assert summary.chi_square is None  # below the 100-decided floor
    bare = run_ensemble(_cfg(), trajectories=40, master_seed=7)
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
def test_artifacts_identical_for_any_worker_count(monkeypatch, tmp_path, cfg):
    """Every batch size and worker count writes the same bytes; 130
    trajectories fill one whole 128-row block, and the pool cuts them into
    eight batches of at most 17 rows.  On 8 workers every batch size of 17
    or more gives those same 17-row batches, so the default size stands
    for all of them there."""
    runs = [(batch, 1) for batch in (1, 7, 32, 64, 128, 240, 512)]
    runs += [(batch, 8) for batch in (1, 7, 512)]
    for batch, workers in runs:
        monkeypatch.setattr(ens, "BATCH_ROWS", batch)
        run_ensemble(
            cfg, trajectories=130, master_seed=11, workers=workers,
            out_dir=tmp_path / f"b{batch}w{workers}",
            config_text="[scenario]\nkind = cat\n",
        )
    for name in ("events.jsonl", "summary.json", "outcomes.csv", "config.ini"):
        a = (tmp_path / "b1w1" / name).read_bytes()
        for batch, workers in runs[1:]:
            b = (tmp_path / f"b{batch}w{workers}" / name).read_bytes()
            assert a == b, f"{name} differs at batch {batch}, workers {workers}"


def test_artifacts_identical_across_whole_blocks(tmp_path):
    """A run of more than one whole ``BATCH_ROWS`` block writes the bytes
    of the same run cut into 64-row blocks, in this process or on 8
    workers.  A 160-point grid on [-6, 6) keeps the run cheap."""
    cfg = _cfg(weight_1=0.6, grid=GridSpec(-6.0, 6.0, 160))
    total = ens.BATCH_ROWS + 88
    runs = {}
    for batch, workers in ((ens.BATCH_ROWS, 1), (ens.BATCH_ROWS, 8), (64, 1)):
        out = tmp_path / f"b{batch}w{workers}"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ens, "BATCH_ROWS", batch)
            run_ensemble(cfg, total, master_seed=13, workers=workers, out_dir=out)
        runs[batch, workers] = {name: (out / name).read_bytes()
                                for name in ("events.jsonl", "summary.json", "outcomes.csv")}
    first, *rest = runs.values()
    assert all(files == first for files in rest)
    assert first["outcomes.csv"].count(b"\n") == total + 1


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: cat configs outside the shipped set: a single harmonic well matched to
#: the packet width (omega = 1 / (2 * 0.25**2)), and unitary mode
HARMONIC_CAT = "[scenario]\nkind = cat\n\n[potential]\nkind = harmonic\nomega = 8.0\n"
UNITARY_CAT = "[scenario]\nkind = cat\nmode = unitary\n"


def _wpr(weight_1: str) -> str:
    """A wpr config at Born weight ``weight_1``."""
    return f"[scenario]\nkind = cat\nmode = wpr\n\n[state]\nweight_1 = {weight_1}\n"


@pytest.mark.parametrize(
    "config, trajectories, digests",
    [
        ("cat.ini", 32, {
            "events.jsonl":
                "d195168289e999cd464e6b322697650de0417f4db07aa5c3295da0d555f31ffb",
            "summary.json":
                "2bdedf2bfa345d6b7a195384c1aa189b87bff239d09bd815ed1b818ed85294ce",
            "outcomes.csv":
                "f361283d30a77eb399fa278a6e4b788c975645eea8a700ec22322ffacce06067",
        }),
        ("chain.ini", 16, {
            "events.jsonl":
                "ee708db1c5bc07de71c167cbc876168db18fa844c13072aa0b48e8c2c009996c",
            "summary.json":
                "9304fec909e5f4f78605a7a5f3a0b9ff0a153a027232694074b88a59152daf38",
            "outcomes.csv":
                "e242be58b9046e4d27f00908dfb2901b65544ce6964f19bfa5d02d30df44e5e9",
        }),
        (HARMONIC_CAT, 32, {
            "events.jsonl":
                "06790af85174eedc97cfa4694c9912623ca4f59844fcd5f480dd1f626fc3cb08",
            "summary.json":
                "15c2b31c155046eb4621ad33cf2fc9242e1bcac0ce680a0627c233c5e1d6598b",
            "outcomes.csv":
                "92299ee960413848acc55baeae8b9fcec899965265b8179fac6b7539267ca700",
        }),
        (UNITARY_CAT, 32, {
            "events.jsonl":
                "b0fa2e3e1e9c820cf1fa15191b6cd565edff2db3111ba708eedbc38d8239649c",
            "summary.json":
                "4a0b4d3223cec73c27955fe0b1046d5a0463180d5f460fd0fbf63163d01d09cc",
            "outcomes.csv":
                "c6ebdec11e4f92bcef791cf1481f5c26308c17b1c0a2a2c829e00b4e8a83b51e",
        }),
        (_wpr("0.3"), 32, {
            "events.jsonl":
                "40bcf9bffa65d24a7a069bd3b2ae14c78c6b151176cc1380736190e89f103c78",
            "summary.json":
                "88985ebccce34ebeb36c80d9561045c5e0f7ccd5defdae7a0785308f702c912c",
            "outcomes.csv":
                "669cf471b4fde69233cd6c76eced7fd87bfa38b40afa59209c4c1d83428fdace",
        }),
    ],
    ids=["cat", "chain", "harmonic_cat", "unitary_cat", "wpr"],
)
def test_shipped_config_artifacts_are_pinned(tmp_path, config, trajectories, digests):
    """sha256 of the artifacts the shipped configs, a harmonic and a
    unitary cat, and a wpr run write at seed 7.

    Any change to the step kernel, the hit sampler, the way a scenario
    resolves its potential and hit parameters, or the artifact layout
    that moves a single bit of these files fails here.
    """
    path = CONFIGS / config
    if not config.endswith(".ini"):
        path = tmp_path / "source.ini"
        path.write_text(config, encoding="utf-8")
    cfg = load_config(path).scenario
    run_ensemble(cfg, trajectories, master_seed=7, out_dir=tmp_path)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


#: a cat decided before any hit: the ghost latches at time 0
DECIDED_CAT = "[scenario]\nkind = cat\n\n[state]\nweight_1 = 0.9999\n"


@pytest.mark.parametrize(
    "config, trajectories",
    [("cat.ini", 130), ("chain.ini", 40), (HARMONIC_CAT, 130), (DECIDED_CAT, 40)],
    ids=["cat", "chain", "harmonic_cat", "decided_cat"],
)
def test_tally_only_summary_equals_the_written_one(monkeypatch, tmp_path, config, trajectories):
    """A run without ``out_dir`` stops each row at its decision, and its
    summary equals the written run's, at every batch size and on one or
    two workers.  The written summary is one run's: its bytes are the same
    for every batch size and worker count
    (``test_artifacts_identical_for_any_worker_count``)."""
    path = CONFIGS / config
    if not config.endswith(".ini"):
        path = tmp_path / "source.ini"
        path.write_text(config, encoding="utf-8")
    cfg = load_config(path).scenario
    written = run_ensemble(cfg, trajectories, master_seed=9, out_dir=tmp_path / "out")
    for batch in (1, 7, 32, 128, 512):
        monkeypatch.setattr(ens, "BATCH_ROWS", batch)
        for workers in (1, 2):
            tally = run_ensemble(cfg, trajectories, master_seed=9, workers=workers)
            assert tally.as_dict() == written.as_dict(), (batch, workers)


def _record_row(rec):
    """A record's tally fields and its outcomes.csv fields after the index,
    built from the record as the ensemble built them before it read rows
    from the block's arrays."""
    weights = rec.branch_weights
    final = [repr(w) for w in weights[-1]] if weights else ["", ""]
    survival = "" if rec.survival_time is None else repr(rec.survival_time)
    tally = (rec.outcome, rec.survival_time, len(rec.events))
    return tally, [rec.outcome, survival, len(rec.events), *final]


def _check_rows_read_from_arrays(block, whole=None) -> None:
    """Every row of ``block`` reads as its record: a retired row as its
    error, a whole row with its record's tally fields, line and CSV
    fields.  A row that stopped at its decision has no record and no line,
    and its tally fields are those of its record in ``whole``, the same
    rows run to the horizon, where every other row has its record too."""
    assert isinstance(block, collapse._BlockRecords)
    for i in range(len(block)):
        if block.errors[i] is not None:
            assert block[i] is block.errors[i]
            if whole is not None:
                assert repr(whole[i]) == repr(block[i])
            continue
        if block.pending[i] >= 0:
            for read in (block.__getitem__, block.render):
                with pytest.raises(RuntimeError, match="must not be written"):
                    read(i)
            assert repr(block.tally(i)) == repr(_record_row(whole[i])[0])
            continue
        rec = block[i]
        tally, fields = _record_row(rec)
        assert repr(block.tally(i)) == repr(tally)
        assert block.render(i) == (ens.dump_json_line(rec.as_dict()), fields)
        if whole is not None:
            assert rec.as_dict() == whole[i].as_dict()


#: wpr configs at Born weights 0, 0.3 and 1: each row latches at its
#: projection, never at its first sample
WPR_CONFIGS = [_wpr("0.0"), _wpr("0.3"), _wpr("1.0")]


@pytest.mark.parametrize("stop_decided", [False, True], ids=["written", "tally_only"])
@pytest.mark.parametrize(
    "config",
    ["cat.ini", "chain.ini", HARMONIC_CAT, UNITARY_CAT, DECIDED_CAT, *WPR_CONFIGS],
    ids=["cat", "chain", "harmonic_cat", "unitary_cat", "decided_cat",
         "wpr_0", "wpr_0.3", "wpr_1"],
)
def test_rows_read_from_the_arrays_equal_their_records(tmp_path, config, stop_decided):
    """A block row's tally fields, events.jsonl line and outcomes.csv
    fields, read from the block's arrays, are its record's; a tally-only
    row cut at its decision keeps the tally of its whole run, and indexing
    or rendering it raises.  The unitary cat's rows have no hit and take
    the ghost's run; the decided cat's ghost latches at time 0; a wpr
    block has the same two-sample rows either way."""
    path = CONFIGS / config
    if not config.endswith(".ini"):
        path = tmp_path / "source.ini"
        path.write_text(config, encoding="utf-8")
    cfg = load_config(path).scenario
    whole = ens._run_batch(cfg, 9, range(40))
    block = ens._run_batch(cfg, 9, range(40), stop_decided=True) if stop_decided else whole
    _check_rows_read_from_arrays(block, whole)
    if stop_decided and cfg.mode == "grw":
        assert (block.pending >= 0).any()


@pytest.mark.parametrize("stop_decided", [False, True], ids=["written", "tally_only"])
def test_retired_rows_are_read_as_their_errors(monkeypatch, stop_decided):
    """Rows retired mid-block leave the others' lines and tallies as their
    records have them."""
    real = collapse._draw_centers

    def draw(rho, params, grid, gens):
        centers, faults = real(rho, params, grid, gens)
        for k, gen in enumerate(gens):
            if _stream_id(gen) % 3 == 1:
                faults[k] = ZeroDensityError("synthetic empty density")
        return centers, faults

    monkeypatch.setattr(collapse, "_draw_centers", draw)
    whole = ens._run_batch(_cfg(weight_1=0.6), 9, range(12))
    block = ens._run_batch(_cfg(weight_1=0.6), 9, range(12), stop_decided=stop_decided)
    assert [e is not None for e in block.errors] == [i % 3 == 1 for i in range(12)]
    _check_rows_read_from_arrays(block, whole)


@pytest.mark.parametrize("stop_decided", [False, True], ids=["written", "tally_only"])
def test_a_round_whose_every_draw_fails(monkeypatch, stop_decided):
    """When every draw of every round fails, each row with a hit retires
    at its first with the draw's error, and each row without one keeps the
    ghost's whole run, as it does when no draw fails."""
    cfg = _cfg(weight_1=0.6, collapse=GrwParams(tau=0.75, width=0.3, n_eff=1.0))
    whole = ens._run_batch(cfg, 9, range(24))
    real = collapse._draw_centers

    def draw(rho, params, grid, gens):
        centers, _ = real(rho, params, grid, gens)
        return centers, {k: ZeroDensityError("synthetic empty density") for k in range(len(gens))}

    monkeypatch.setattr(collapse, "_draw_centers", draw)
    block = ens._run_batch(cfg, 9, range(24), stop_decided=stop_decided)
    hit = [bool(whole[i].events) for i in range(24)]
    assert any(hit) and not all(hit)
    ghost = len(block)  # the row after the last holds the ghost's run
    for i in range(24):
        if hit[i]:
            assert isinstance(block[i], ZeroDensityError)
            assert str(block[i]) == "synthetic empty density"
        else:
            assert (block.first[i], block.sampled[i]) == (block.first[ghost], block.sampled[ghost])
            assert block[i].as_dict() == whole[i].as_dict()


def test_rendered_lines_spell_non_finite_floats_as_json_does():
    """Hand-built series holding NaN, inf and -inf, in samples, events and
    the survival time, render as ``dump_json_line`` writes their records;
    the CSV fields keep Python's ``repr``.  The last row has no sample."""
    nan, inf = float("nan"), float("inf")
    block = collapse._BlockRecords(
        scenario='cat "\u00e9"', streams=[(3, 0), (3, 1), (3, 2)], errors=[None] * 3,
        times=np.array([0.0, 0.1, inf, 0.30000000000000004, 0.0, 0.25]),
        weights=np.array([[0.5, 0.5], [nan, 1.0], [inf, -inf], [1.0, nan],
                          [0.3, 0.7], [1e-300, 1.0]]),
        means=np.array([0.0, nan, -inf, 1.5, 0.1, 0.2]),
        variances=np.array([1.0, inf, nan, 0.0, 0.2, 0.3]),
        first=np.array([0, 4, 6]), sampled=np.array([4, 2, 0]), latch=np.array([2, 1, -1]),
        hit_first=np.array([0, 2, 3]), taken=np.array([2, 1, 0]),
        centers=np.array([nan, -inf, 0.125]), pre=np.array([0, 1, 0]),
        pending=np.array([-1, -1, -1]),
    )
    _check_rows_read_from_arrays(block)
    line, fields = block.render(0)
    assert all(word in line for word in ("NaN", "Infinity", "-Infinity", '"survival_time":Infinity'))
    assert fields == ["1", "inf", 2, "1.0", "nan"]
    assert block.render(2)[1] == ["undecided", "", 0, "", ""]


def test_ensemble_rows_build_no_record(monkeypatch, tmp_path):
    """A written and a tally-only run read every row, grid or wpr, from its
    block's arrays: neither indexes a block."""
    def refuse(self, i):
        raise AssertionError("a block row was built as a record")

    monkeypatch.setattr(collapse._BlockRecords, "__getitem__", refuse)
    for mode in ("grw", "wpr"):
        cfg = _cfg(mode=mode, weight_1=0.6)
        written = run_ensemble(cfg, 40, master_seed=5, out_dir=tmp_path / mode)
        assert run_ensemble(cfg, 40, master_seed=5).as_dict() == written.as_dict()


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


def _failing(batch, fails):
    """Stand-in batch body: ``batch``'s block with the rows whose index
    ``fails`` accepts failed by a synthetic ``ZeroNormError``."""

    def flaky(cfg, master_seed, indices, **kw):
        block = batch(cfg, master_seed, indices, **kw)
        for i, index in enumerate(indices):
            if fails(index):
                block.errors[i] = ZeroNormError("synthetic failure")
        return block

    return flaky


def test_failure_budget_enforced(monkeypatch):
    flaky = _failing(ens._run_batch, lambda i: i % 3 == 0)

    monkeypatch.setattr(ens, "_run_batch", flaky)
    with pytest.raises(EnsembleFailureError, match="synthetic failure"):
        run_ensemble(_cfg(mode="wpr"), trajectories=30, master_seed=1)


def _undecided_first(count):
    """Stand-in batch body: the first ``count`` indices stay undecided, the
    others decide outcome 1 at time 0.5."""

    def fake(cfg, master_seed, indices, **_):
        outcomes = ["undecided" if index < count else "1" for index in indices]
        return outcome_block(cfg.name, master_seed, indices, outcomes)

    return fake


@pytest.mark.parametrize("mode", ["grw", "wpr", "unitary"])
def test_undecided_budget_boundary(monkeypatch, mode):
    """1% of 1000 undecided passes; one more aborts, in grw mode only."""
    monkeypatch.setattr(ens, "_run_batch", _undecided_first(10))
    summary = run_ensemble(_cfg(mode=mode), trajectories=1000, master_seed=1)
    assert summary.tally.count_undecided == 10
    monkeypatch.setattr(ens, "_run_batch", _undecided_first(11))
    if mode == "grw":
        with pytest.raises(NonConvergentError, match="0.0110"):
            run_ensemble(_cfg(mode=mode), trajectories=1000, master_seed=1)
    else:
        summary = run_ensemble(_cfg(mode=mode), trajectories=1000, master_seed=1)
        assert summary.tally.count_undecided == 11


@pytest.mark.parametrize("workers", [1, 2])
def test_aborted_run_writes_nothing(monkeypatch, tmp_path, workers):
    """A run that breaks the failure budget or the undecided budget leaves
    its output directory absent, and an existing one byte for byte as it
    was, with no file left beside it."""
    decided = _undecided_first(0)
    flaky = _failing(decided, lambda i: i % 3 == 0)

    def aborted_runs(out):
        monkeypatch.setattr(ens, "_run_batch", flaky)
        with pytest.raises(EnsembleFailureError, match="synthetic failure"):
            run_ensemble(_cfg(), 200, master_seed=1, workers=workers, out_dir=out,
                         config_text="[aborted]\n")
        monkeypatch.setattr(ens, "_run_batch", _undecided_first(11))
        with pytest.raises(NonConvergentError, match="0.0110"):
            run_ensemble(_cfg(), 1000, master_seed=1, workers=workers, out_dir=out,
                         config_text="[aborted]\n")

    out = tmp_path / "out"
    aborted_runs(out)
    assert not out.exists()
    monkeypatch.setattr(ens, "_run_batch", decided)
    run_ensemble(_cfg(), 100, master_seed=2, workers=workers, out_dir=out,
                 config_text="[scenario]\nkind = cat\n")
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(written) == ["config.ini", "events.jsonl", "outcomes.csv", "summary.json"]
    aborted_runs(out)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_written_ensemble_memory_does_not_grow_with_size(tmp_path):
    """Each batch's rows are written as the batch arrives, so a written run
    holds no per-trajectory record: 10^4 ``wpr`` trajectories (no grid
    work) peak at about 0.5 MB of traced allocations, where keeping every
    record until the end took about 11 MB."""
    cfg = _cfg(mode="wpr", weight_1=0.6)
    run_ensemble(cfg, 100, master_seed=5, out_dir=tmp_path / "warm")
    tracemalloc.start()
    try:
        run_ensemble(cfg, 10_000, master_seed=5, out_dir=tmp_path / "big")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = (tmp_path / "big" / "outcomes.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10_001
    assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


#: traced peak a row of one written configs/cat.ini batch may cost; a
#: 512-row batch measured 8.3 kB a row (the 128-row list series: 18.5)
BATCH_KB_PER_ROW = 10


def test_written_batch_memory_per_row(tmp_path):
    """One written ``configs/cat.ini`` batch of ``BATCH_ROWS`` rows peaks
    under ``BATCH_KB_PER_ROW`` of traced allocations a row: the block, its
    presized series and one row's record and line at a time."""
    cfg = load_config(CONFIGS / "cat.ini").scenario
    run_ensemble(cfg, 20, master_seed=7, out_dir=tmp_path / "warm")
    tracemalloc.start()
    try:
        run_ensemble(cfg, ens.BATCH_ROWS, master_seed=7, out_dir=tmp_path / "batch")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_row = peak / ens.BATCH_ROWS / 1024
    assert per_row < BATCH_KB_PER_ROW, f"traced peak {per_row:.1f} kB a row"


def test_scaling_sweep_aborts_on_any_failure(monkeypatch):
    """One raising trajectory in 200 is within the ensemble budget, but the
    sweep must not drop it from a rung's median."""
    flaky = _failing(_undecided_first(0), lambda i: i == 5)
    monkeypatch.setattr(ens, "_run_batch", flaky)
    with pytest.raises(EnsembleFailureError, match="1/200"):
        ens.survival_scaling_points(_cfg(), (1.0, 4.0), 200, master_seed=1)


def test_batch_wide_config_error_propagates(monkeypatch):
    """A ValidationError for a whole batch is raised, not charged to its
    trajectories; any other batch-wide error counts against each index."""

    def invalid(cfg, master_seed, indices, **_):
        raise ValidationError("synthetic config error")

    monkeypatch.setattr(ens, "_run_batch", invalid)
    with pytest.raises(ValidationError, match="synthetic config error"):
        run_ensemble(_cfg(), trajectories=40, master_seed=1)

    def empty(cfg, master_seed, indices, **_):
        raise ZeroDensityError("synthetic batch failure")

    monkeypatch.setattr(ens, "_run_batch", empty)
    with pytest.raises(EnsembleFailureError, match="40/40"):
        run_ensemble(_cfg(), trajectories=40, master_seed=1)


def test_rare_failures_are_recorded_not_fatal(monkeypatch, tmp_path):
    """A trajectory that raises is a line of its own at its index, with the
    same bytes whether it failed in this process or in a worker."""
    monkeypatch.setattr(ens, "_run_batch", _failing(ens._run_batch, lambda i: i == 5))
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        summary = run_ensemble(
            _cfg(mode="wpr"), trajectories=200, master_seed=1, workers=workers,
            out_dir=out,
        )
        assert summary.failures == 1
        assert summary.tally.total == 199
        bad = json.loads((out / "events.jsonl").read_text().splitlines()[5])
        assert bad["index"] == 5
        assert "ZeroNormError" in bad["error"]
        assert (out / "outcomes.csv").read_text().splitlines()[6] == "5,error,,,,"
    for name in ("events.jsonl", "outcomes.csv"):
        solo, pooled = ((tmp_path / f"w{w}" / name).read_bytes() for w in (1, 2))
        assert solo == pooled, name


def _stream_id(gen) -> int:
    return int(gen.bit_generator.state["state"]["key"][1])


def _lines(results) -> list:
    """Each batch entry as its events.jsonl line, or as the raised error."""
    return [
        res if isinstance(res, GrwsimError) else ens.dump_json_line(res.as_dict())
        for res in results
    ]


def _solo_lines(cfg, indices) -> list:
    return [_lines(ens._run_batch(cfg, 2, [i]))[0] for i in indices]


@pytest.mark.parametrize("kind", [ZeroNormError, ZeroDensityError])
def test_retired_row_leaves_its_batch_untouched(monkeypatch, kind):
    """A row that raises at its second hit is retired with its error; the
    other six rows of the 7-row batch keep their solo records."""
    cfg = _cfg(weight_1=0.6)
    solo = _solo_lines(cfg, range(7))
    victim = next(i for i in range(1, 6) if solo[i].count('"center"') >= 2)
    real_draw, real_profile = collapse._draw_centers, collapse.jump_profile
    far = cfg.grid.x_min - 1.0  # off the grid: no real draw returns it
    hits = []

    def draw(rho, params, grid, gens):
        second = []  # the victim's row in this round, at its second hit
        for k, gen in enumerate(gens):
            if _stream_id(gen) == victim:
                hits.append(1)
                if len(hits) == 2:
                    second.append(k)
        if kind is ZeroDensityError:
            rho = rho.copy()
            rho[second] = 0.0
        centers, faults = real_draw(rho, params, grid, gens)
        if kind is ZeroNormError:
            centers[second] = far
        return centers, faults

    def profile(centers, params, grid):
        j = real_profile(centers, params, grid)
        j[np.asarray(centers) == far] = 0.0  # the hit lands where the row has no weight
        return j

    monkeypatch.setattr(collapse, "_draw_centers", draw)
    monkeypatch.setattr(collapse, "jump_profile", profile)
    batch = _lines(ens._run_batch(cfg, 2, range(7)))
    assert isinstance(batch[victim], kind)
    assert str(batch[victim]) == {
        ZeroNormError: f"jump at {far} annihilates the state (residual norm^2 0.000e+00)",
        ZeroDensityError: "center density integrates to 0.000e+00",
    }[kind]
    assert len(hits) == 2
    assert batch[:victim] + batch[victim + 1:] == solo[:victim] + solo[victim + 1:]


def _join_steps(monkeypatch, cfg):
    """Record, in stream order, the step at which each row of the next
    batch joins its block (None for a row with no hit): the last stride
    end at or before its first snapped hit."""
    real = collapse.schedule_jumps
    n_total = round(cfg.horizon / cfg.prop.dt)
    stride = cfg.prop.steps_per_event_check
    joins = []

    def schedule(params, horizon, gen):
        times = real(params, horizon, gen)
        first = min(max(round(times[0] / cfg.prop.dt), 0), n_total) if times else None
        joins.append(None if first is None else first // stride * stride)
        return times

    monkeypatch.setattr(collapse, "schedule_jumps", schedule)
    return joins


def _poison(monkeypatch, target):
    """Put a NaN into the block after a substep: ``target()`` gives the
    global step and the block position, and is read once the schedules are
    drawn.  The block is stepped once per step from step 1."""
    real = collapse.substep
    calls = []

    def poisoned(block, *args):
        out = real(block, *args)
        calls.append(1)
        step, position = target()
        if len(calls) == step:
            out[position, 0, 100] = np.nan
        return out

    monkeypatch.setattr(collapse, "substep", poisoned)


def test_non_finite_row_fails_its_stride_check(monkeypatch):
    """A NaN injected into the row of stream 3 mid-stride, five steps after
    it joined the block, retires that row at its next stride end; the
    other six rows keep their solo records.  The row is found by the
    block's order: the ghost at position 0 while a row still waits to join
    or has no hit, then the rows in order of join step and stream."""
    cfg = _cfg(weight_1=0.6)
    solo = _solo_lines(cfg, range(7))
    joins = _join_steps(monkeypatch, cfg)

    def target():
        step = joins[3] + 5
        ghost = None in joins or step <= max(joins)
        ahead = sum(1 for i, j in enumerate(joins) if j is not None and (j, i) < (joins[3], 3))
        return step, int(ghost) + ahead

    _poison(monkeypatch, target)
    batch = _lines(ens._run_batch(cfg, 2, range(7)))
    assert isinstance(batch[3], UnstableStepError)
    assert str(batch[3]).startswith("norm drifted by nan")
    assert batch[:3] + batch[4:] == solo[:3] + solo[4:]


def test_non_finite_ghost_retires_every_row_still_waiting(monkeypatch):
    """A NaN injected into the ghost (block position 0) mid-stride retires
    every row that would join at its next stride end or later, and every
    row with no hit, with the ghost's drift error; the rows that joined
    at step 0 keep their solo records."""
    cfg = _cfg(weight_1=0.6)
    solo = _solo_lines(cfg, range(7))
    joins = _join_steps(monkeypatch, cfg)
    _poison(monkeypatch, lambda: (5, 0))
    batch = _lines(ens._run_batch(cfg, 2, range(7)))
    early = [i for i, j in enumerate(joins) if j == 0]
    late = [i for i, j in enumerate(joins) if j != 0]
    assert early and late
    for i in early:
        assert batch[i] == solo[i]
    for i in late:
        assert isinstance(batch[i], UnstableStepError)
        assert str(batch[i]) == f"norm drifted by nan over 10 steps of dt={cfg.prop.dt}"


def test_retired_rows_count_against_the_failure_budget(monkeypatch):
    """Rows retired mid-batch count as failures: 10 of 1000 pass the 1%
    budget and stay out of the tally; 3 of 200 abort the run."""
    real = collapse._draw_centers

    def draw_failing(victims):
        def draw(rho, params, grid, gens):
            centers, faults = real(rho, params, grid, gens)
            for k, gen in enumerate(gens):
                if _stream_id(gen) in victims:
                    faults[k] = ZeroDensityError("synthetic empty density")
            return centers, faults

        return draw

    monkeypatch.setattr(collapse, "_draw_centers", draw_failing(set(range(3, 1000, 100))))
    summary = run_ensemble(_cfg(), trajectories=1000, master_seed=1)
    assert summary.failures == 10
    assert summary.tally.total == 990
    monkeypatch.setattr(collapse, "_draw_centers", draw_failing({3, 70, 150}))
    with pytest.raises(EnsembleFailureError, match="3/200"):
        run_ensemble(_cfg(), trajectories=200, master_seed=1)


def test_wpr_mode_runs_without_grid_work():
    summary = run_ensemble(_cfg(mode="wpr", weight_1=0.2), 300, master_seed=4)
    assert summary.total_jumps == 0
    assert summary.tally.count_undecided == 0
    assert summary.mode == "wpr"


def test_trajectories_must_be_positive():
    with pytest.raises(ValidationError, match="got 0"):
        run_ensemble(_cfg(), trajectories=0, master_seed=0)


def test_unusable_out_dir_fails_before_any_batch(monkeypatch, tmp_path):
    def engine(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(ens, "_run_batch", engine)
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, str(blocker / "run")):
        with pytest.raises(ValidationError, match="is not a directory"):
            run_ensemble(_cfg(), trajectories=4, master_seed=0, out_dir=out)


class _SerialPool:
    """Stand-in for ``ProcessPoolExecutor`` that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize("total", [1, 5, 31, 32, 33, 90, 257, 2000, 10_000])
def test_worker_chunks_tile_in_order_and_fill_their_batches(
    monkeypatch, total, workers
):
    """The pool gets one task per lockstep batch: consecutive index ranges
    that tile ``[0, total)`` in order, each ``min(BATCH_ROWS, ceil(total /
    workers))`` long but the last, so that every worker gets a batch."""
    handed = []
    decided = _undecided_first(0)

    def batch(cfg, master_seed, indices, **_):
        handed.append(indices)
        return decided(cfg, master_seed, indices)

    monkeypatch.setattr(ens, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(ens, "_run_batch", batch)
    summary = run_ensemble(_cfg(mode="wpr"), total, master_seed=0, workers=workers)
    assert summary.tally.count_1 == total
    assert [i for indices in handed for i in indices] == list(range(total))
    rows = min(ens.BATCH_ROWS, -(-total // workers))
    assert all(len(indices) == rows for indices in handed[:-1])
    assert 0 < len(handed[-1]) <= rows
    assert len(handed) == -(-total // rows)


def test_summary_as_dict_schema():
    summary = run_ensemble(_cfg(mode="wpr"), 10, master_seed=0)
    doc = summary.as_dict()
    assert set(doc) == {
        "scenario", "kind", "mode", "trajectories", "master_seed",
        "outcomes", "expected_weights", "chi_square", "p_value",
        "survival", "total_jumps", "failures", "config_digest", "provenance",
    }
