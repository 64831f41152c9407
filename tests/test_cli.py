import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import grwsim.ensemble as ensemble
import grwsim.scenarios as scenarios
from grwsim import ScenarioConfig, ValidationError
from grwsim.cli import main
from grwsim.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CAT = """
[scenario]
kind = cat

[state]
weight_1 = 0.5
"""

LG = """
[scenario]
kind = leggett_garg

[check]
k_min = 1.3
k_max = 1.7
"""


#: configs whose step phases are not finite: the potential, or dt times the
#: potential or the kinetic energy, overflows
PHASE_OVERFLOW = {
    "double_well": "[potential]\nkind = double_well\nbarrier_height = 1e300\n"
                   "well_separation = 1e-10\n",
    "unitary_dt": "[scenario]\nmode = unitary\n\n[propagator]\ndt = 1e306\n",
    "harmonic": "[potential]\nkind = harmonic\nomega = 1e200\n",
}


@pytest.fixture
def cat_config(tmp_path):
    path = tmp_path / "cat.ini"
    path.write_text(CAT, encoding="utf-8")
    return str(path)


@pytest.fixture
def lg_config(tmp_path):
    path = tmp_path / "lg.ini"
    path.write_text(LG, encoding="utf-8")
    return str(path)


def test_convert_prints_exact_amplified_rate(capsys):
    assert main(["convert", "--tau", "1e15", "--n-eff", "1e23"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["mean_first_hit_si"] == 1e-8
    assert table["collective_rate_si"] == pytest.approx(1e8)


@pytest.mark.parametrize(
    "tau, n_eff, digest",
    [
        ("1e15", "1e23",
         "fd7a27ec8ccc8c1f3a685b8a8033456d48c933b78a06fc9a8b43759d659785aa"),
        ("2", "4",
         "fb9be81fe94e7b31de53d8efb44978f0ceb8e05a78592b6b1992c26de3b10278"),
        ("3.3e7", "6.02e23",
         "3dc44583c327b81ad972b6b9e240ae6cd98550d04e1ca60747893e72ee6078d0"),
        ("1e-3", "1",
         "68562ae74b3ab42b554f45b07d12c34bd44d60ba094466d6d718abb62668086a"),
    ],
)
def test_convert_output_is_pinned(capsys, tau, n_eff, digest):
    """sha256 of what ``convert`` prints, unit scales and internal times
    included."""
    assert main(["convert", "--tau", tau, "--n-eff", n_eff]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: finite inputs whose rate overflows or whose mean first hit underflows to 0
DERIVED_OUT_OF_RANGE = {("1e-320", "1"), ("1e-300", "1e300")}


@pytest.mark.parametrize(
    "tau, n_eff",
    [("nan", "10"), ("10", "nan"), ("inf", "10"), ("10", "inf"),
     ("0", "10"), ("10", "0.5"), *sorted(DERIVED_OUT_OF_RANGE)],
)
def test_convert_out_of_range_exits_one(capsys, tau, n_eff):
    """Every comparison with NaN is false, so a NaN or infinite input must
    fail its range check rather than print NaN or Infinity; so must finite
    inputs whose rate overflows or whose mean first hit underflows to 0."""
    code = main(["convert", "--tau", tau, "--n-eff", n_eff])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert captured.out == ""
    if (tau, n_eff) in DERIVED_OUT_OF_RANGE:
        assert "need finite rates and times > 0" in captured.err
    else:
        assert "need finite tau_si > 0 and n_eff >= 1" in captured.err


def test_run_writes_one_record(tmp_path, cat_config, capsys):
    out = tmp_path / "single"
    assert main(["run", "--config", cat_config, "--seed", "4",
                 "--out", str(out)]) == 0
    assert "outcome=" in capsys.readouterr().out
    lines = (out / "events.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["provenance"]["generator"] == "philox4x64"
    assert (out / "config.ini").exists()


def test_ensemble_writes_artifacts(tmp_path, cat_config):
    out = tmp_path / "ens"
    code = main(["ensemble", "--config", cat_config, "--trajectories", "30",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    for name in ("events.jsonl", "summary.json", "outcomes.csv", "config.ini"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trajectories"] == 30
    assert summary["config_digest"]


def test_ensemble_rejects_wrong_config_kind(tmp_path, lg_config):
    assert main(["ensemble", "--config", lg_config,
                 "--trajectories", "5"]) == 1


def test_check_gate_breach_exits_three(tmp_path):
    path = tmp_path / "gated.ini"
    path.write_text(CAT + "\n[check]\nmin_p_value = 1.0\n", encoding="utf-8")
    code = main(["ensemble", "--config", str(path), "--trajectories", "150",
                 "--seed", "2", "--check"])
    assert code == 3  # a p-value reaches 1 only at a 75/75 split; seed 2 gives 78/72


@pytest.mark.parametrize("text", [
    CAT.replace("0.5", "1.0"),
    "[scenario]\nkind = cat\nmode = wpr\n\n[state]\nweight_1 = 0.0\n",
], ids=["grw_weight_1", "wpr_weight_0"])
def test_min_p_value_on_definite_state_exits_one(tmp_path, capsys, text):
    """Every trajectory of a definite state gives its one possible outcome,
    so there is no p-value for ``min_p_value`` to bound: the key is refused
    at load, before any trajectory runs."""
    path = tmp_path / "definite.ini"
    path.write_text(text + "\n[check]\nmin_p_value = 0.01\n", encoding="utf-8")
    code = main(["ensemble", "--config", str(path), "--trajectories", "200",
                 "--seed", "2", "--check"])
    assert code == 1
    assert "min_p_value does not apply to a definite state" in capsys.readouterr().err


def test_check_gate_without_p_value_names_min_decided(tmp_path, capsys):
    path = tmp_path / "short.ini"
    path.write_text("[scenario]\nkind = cat\nmode = wpr\n\n[state]\nweight_1 = 0.3\n"
                    "\n[check]\nmin_p_value = 0.01\n", encoding="utf-8")
    code = main(["ensemble", "--config", str(path), "--trajectories", "50",
                 "--seed", "2", "--check"])
    assert code == 3
    assert "fewer than 100 decided trajectories" in capsys.readouterr().err


def test_check_gate_pass_exits_zero(tmp_path):
    path = tmp_path / "gated.ini"
    path.write_text(
        CAT + "\n[check]\nmax_undecided_fraction = 0.01\n", encoding="utf-8"
    )
    code = main(["ensemble", "--config", str(path), "--trajectories", "150",
                 "--seed", "2", "--check"])
    assert code == 0


@pytest.mark.parametrize(
    "text", ["[propagator]\nmethod = spectral\n", "[run]\ncoupling_time = 1.0\n"],
    ids=["method", "coupling_time"],
)
def test_removed_config_key_exits_one_before_out_exists(tmp_path, capsys, text):
    """A key that no run reads is an unknown key, not one silently ignored."""
    path = tmp_path / "old.ini"
    path.write_text(CAT + "\n" + text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["ensemble", "--config", str(path), "--trajectories", "4",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "unknown key" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("ensemble", CAT + "\n[check]\nk_min = 1.3\n",
         "k_min does not apply to kind 'cat'"),
        ("lg", LG + "max_undecided_fraction = 0.01\n",
         "max_undecided_fraction does not apply to kind 'leggett_garg'"),
    ],
    ids=["lg_key_in_cat", "ensemble_key_in_lg"],
)
def test_check_key_of_another_kind_exits_one(tmp_path, capsys, command, text,
                                             message):
    path = tmp_path / "mismatch.ini"
    path.write_text(text, encoding="utf-8")
    code = main([command, "--config", str(path), "--trajectories", "5",
                 "--check"])
    assert code == 1
    assert message in capsys.readouterr().err


def test_lg_subcommand(tmp_path, lg_config, capsys):
    out = tmp_path / "lg"
    code = main(["lg", "--config", lg_config, "--trajectories", "2000",
                 "--seed", "3", "--out", str(out), "--check"])
    assert code == 0
    assert "k=" in capsys.readouterr().out
    doc = json.loads((out / "summary.json").read_text())
    assert doc["trajectories"] == 2000
    assert 1.3 < doc["k"] < 1.7


def test_lg_precession_phase_overflow_exits_one(tmp_path, capsys):
    """``omega * t3`` that overflows would make every gap's cosine NaN and
    every correlator 1; the config is refused at load instead, with exit 1
    and no warning."""
    path = tmp_path / "phase.ini"
    path.write_text("[scenario]\nkind = leggett_garg\n\n[lg]\nomega = 1e300\n"
                    "t1 = 0.5\nt2 = 1e10\nt3 = 1e11\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lg", "--config", str(path), "--trajectories", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert "precession phase omega * t3 must be finite" in captured.err
    assert "k=" not in captured.out


def test_arrow_subcommand(tmp_path, capsys):
    out = tmp_path / "arrow"
    code = main(["arrow", "--sites", "1000", "--horizon", "200",
                 "--trials", "10", "--seed", "5", "--flip-rate", "0.01",
                 "--out", str(out), "--check"])
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["plain_excursion_fraction"] == 1.0


def test_arrow_horizon_at_recurrence_exits_one(capsys):
    """A horizon at or past the exact recurrence time 2 * sites is an
    argument error, not a runtime failure."""
    code = main(["arrow", "--sites", "100", "--horizon", "500", "--trials", "2"])
    assert code == 1
    assert "recurrence time 200" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, digests",
    [
        (["run", "--config", str(CONFIGS / "cat.ini"), "--seed", "7",
          "--index", "3"], {
            "events.jsonl":
                "4fffd59982c68bd28dd37da34b5b4891982b32e87085a40d208c3ed7037245ae",
            "config.ini":
                "46ebe6ce58c4408c88a32d8e33fd16ecf0fd624a0446db71cb19f973697cafdc",
        }),
        (["lg", "--config", str(CONFIGS / "lg.ini"), "--trajectories", "500",
          "--seed", "7"], {
            "summary.json":
                "178e203fb8b7aeeaaa8ce5730c79058261033b43db5bbef18f10c28e6cbcf24e",
            "config.ini":
                "b7aee62353ba83770c59d10ca8c4d5f2eefc378b411d7eb6f9ee33784d3f9351",
        }),
        (["arrow", "--sites", "1000", "--horizon", "200", "--trials", "5",
          "--seed", "7", "--series-stride", "50"], {
            "summary.json":
                "f5c59686268a0faba9177bf8a643874eafac457b19f0f94db567044a8782c619",
        }),
    ],
    ids=["run", "lg", "arrow"],
)
def test_subcommand_artifacts_are_pinned(tmp_path, capsys, argv, digests):
    """sha256 of what ``run``, ``lg`` and ``arrow`` write with ``--out`` at
    seed 7; the ensemble's files are pinned in test_ensemble."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_arrow_check_breach(capsys):
    # without noise the kicked arm equals the plain arm: never equilibrates
    code = main(["arrow", "--sites", "500", "--horizon", "100",
                 "--trials", "5", "--flip-rate", "0.0", "--check"])
    assert code == 3


def test_parse_problems_exit_one(tmp_path, cat_config, lg_config):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nkynd = cat\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 1
    assert main(["ensemble", "--config", str(bad), "--trajectories", "x"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["arrow", "--series-stride", "-1"]) == 1
    assert main(["arrow", "--sites", "1", "--horizon", "1"]) == 1
    assert main(["ensemble", "--config", cat_config, "--trajectories", "0"]) == 1
    assert main(["lg", "--config", lg_config, "--trajectories", "0"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_one_before_out_exists(tmp_path, cat_config, capsys,
                                                       workers):
    """``--workers`` below 1 is an argument error, not a serial run."""
    out = tmp_path / "out"
    code = main(["ensemble", "--config", cat_config, "--trajectories", "4",
                 "--workers", workers, "--out", str(out)])
    assert code == 1
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("ensemble", "[collapse]\nn_eff = inf\n", "n_eff"),
        ("ensemble", "[propagator]\ndt = inf\n", "dt"),
        ("lg", "[scenario]\nkind = leggett_garg\n\n[lg]\nomega = inf\n", "omega"),
        ("ensemble", "[check]\nmin_p_value = nan\nmax_undecided_fraction = nan\n",
         "min_p_value"),
        ("lg", "[scenario]\nkind = leggett_garg\n\n[check]\nk_min = nan\n"
         "k_max = nan\n", "k_min"),
    ],
)
def test_non_finite_config_value_exits_one(tmp_path, capsys, command, text, field):
    path = tmp_path / "inf.ini"
    path.write_text(text, encoding="utf-8")
    code = main([command, "--config", str(path), "--trajectories", "4"])
    assert code == 1
    assert f"{field} must be finite" in capsys.readouterr().err


def test_chain_regions_exit_one(tmp_path, capsys):
    """A cat's outcomes are the two sides of x = 0 and a chain's are its
    levels, so ``[regions]`` is an unknown section for both kinds: it
    fails at load and exits 1 before ``--out`` exists."""
    for source in ("cat.ini", "chain.ini"):
        path = tmp_path / source
        path.write_text(
            (CONFIGS / source).read_text(encoding="utf-8")
            + "\n[regions]\nregion_1 = -8, 0\nregion_2 = 0, 8\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["ensemble", "--config", str(path), "--trajectories", "20",
                     "--seed", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "unknown section [regions]" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("ensemble", "[state]\nseparation = 14\n", "branch support (+-9.750) too close to "
         "the periodic seam"),
        ("ensemble", "[collapse]\ntau = 1e-320\n", "hit rate n_eff / tau must be finite"),
        ("lg", "[scenario]\nkind = leggett_garg\n\n[collapse]\ntau = 1e-320\n",
         "hit rate n_eff / tau must be finite"),
        ("lg", "[scenario]\nkind = leggett_garg\n\n[collapse]\ntau = 1e-25\n",
         "mean hit count n_eff / tau * t3 = 1.88496e+26 exceeds 10000"),
        ("ensemble", "[potential]\nkind = harmonic\nomega = inf\n",
         "potential omega must be finite"),
        ("ensemble", "[collapse]\nwidth = 0.01\n",
         "localization width 0.01 < 4 dx"),
        ("ensemble", PHASE_OVERFLOW["double_well"], "potential step phase is not finite"),
        ("ensemble", PHASE_OVERFLOW["unitary_dt"], "step phase is not finite"),
        ("ensemble", PHASE_OVERFLOW["harmonic"], "potential step phase is not finite"),
        ("ensemble", "[state]\npacket_width = 1e-200\n", "under-resolved"),
        ("ensemble", "[state]\npacket_width = 1e-100\n", "under-resolved"),
        ("ensemble", "[scenario]\nkind = measurement_chain\n\n[state]\n"
         "packet_width = 1e-200\n", "under-resolved"),
        ("ensemble", "[scenario]\nkind = measurement_chain\n\n[state]\n"
         "packet_width = 1e-100\n", "under-resolved"),
    ],
    ids=["batch_support", "batch_rate", "lg_rate", "lg_rate_huge", "potential",
         "batch_width", "double_well_phase", "unitary_dt_phase", "harmonic_phase",
         "cat_packet_underflow", "cat_packet_overflow",
         "chain_packet_underflow", "chain_packet_overflow"],
)
def test_config_error_found_at_run_time_exits_one(
    tmp_path, capsys, command, text, message
):
    """Config errors that surface only once trajectories start, for a whole
    batch and at any worker count, exit 1 rather than as failed trajectories.
    An overflowing hit rate (``batch_rate``, ``lg_rate``) is found earlier,
    when ``GrwParams`` is made at load, and exits 1 the same way."""
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(path), "--trajectories", "4"]
    for extra in ([], ["--workers", "2"]) if command == "ensemble" else ([],):
        code = main(argv + extra)
        err = capsys.readouterr().err
        assert code == 1, err
        assert message in err


@pytest.mark.parametrize("name", sorted(PHASE_OVERFLOW))
def test_phase_overflow_fails_before_the_engine(tmp_path, monkeypatch, name):
    """The step phases are built when the scenario is assembled, so the
    trajectory engine is never entered for a config whose phases are not
    finite (and is entered for a sound one)."""

    def engine(*args, **kwargs):
        raise AssertionError("evolve_batch entered")

    monkeypatch.setattr(scenarios, "evolve_batch", engine)
    path = tmp_path / "bad.ini"
    path.write_text(PHASE_OVERFLOW[name], encoding="utf-8")
    with pytest.raises(ValidationError, match="step phase is not finite"):
        scenarios.run_batch(load_config(path).scenario, 0, range(4))
    with pytest.raises(AssertionError, match="evolve_batch entered"):
        scenarios.run_batch(ScenarioConfig(), 0, range(4))


def test_runtime_problems_exit_two(tmp_path):
    path = tmp_path / "short.ini"
    # rate 1/8 with a two-step horizon: almost everything stays undecided
    path.write_text(
        "[scenario]\nkind = cat\n\n[collapse]\ntau = 8\nn_eff = 1\n"
        "[run]\nhorizon = 0.0125\n\n[propagator]\ndt = 0.00625\n",
        encoding="utf-8",
    )
    code = main(["ensemble", "--config", str(path), "--trajectories", "40",
                 "--seed", "0"])
    assert code == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("target", ["file", "under_file"])
def test_unusable_out_exits_one_before_any_trajectory(
    tmp_path, cat_config, capsys, monkeypatch, workers, target
):
    """An ``--out`` that cannot become a directory exits 1 before the first
    batch runs, and leaves the blocking file as it was."""

    def engine(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(ensemble, "_run_batch", engine)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker if target == "file" else blocker / "run"
    code = main(["ensemble", "--config", cat_config, "--trajectories", "100",
                 "--workers", str(workers), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "is not a directory" in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["lg", "--trajectories", "100"],
        ["arrow", "--sites", "100", "--horizon", "10", "--trials", "1"],
    ],
    ids=["run", "lg", "arrow"],
)
def test_unusable_out_exits_one_for_every_subcommand(
    tmp_path, cat_config, lg_config, capsys, argv
):
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    config = {"run": cat_config, "lg": lg_config}.get(argv[0])
    argv = argv + (["--config", config] if config else [])
    code = main(argv + ["--out", str(blocker)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "is not a directory" in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_out_root_env_redirects_relative_paths(tmp_path, cat_config, monkeypatch):
    monkeypatch.setenv("GRWSIM_OUT_ROOT", str(tmp_path))
    assert main(["run", "--config", cat_config, "--out", "nested/run1"]) == 0
    assert (tmp_path / "nested" / "run1" / "events.jsonl").exists()


def test_console_script_is_installed():
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "grwsim.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "ensemble" in proc.stdout
