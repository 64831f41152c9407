"""Smoke runs of the sweep scripts in ``scripts/`` at tiny sizes.

Each script's ``main(argv)`` must exit 0 and print a table with one
numeric row per requested point.
"""
import importlib.util
from pathlib import Path

import pytest

import grwsim.ensemble as ensemble

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _numeric_rows(text: str) -> list[list[float]]:
    rows = []
    for line in text.splitlines():
        fields = line.split()
        try:
            rows.append([float(f) for f in fields[:2]])
        except ValueError:
            continue
    return [r for r in rows if len(r) == 2]


@pytest.mark.parametrize(
    "name, argv, rows",
    [
        ("amplification_sweep", ["--n-eff", "1,4,16", "--trajectories", "40"], 3),
        ("born_sweep", ["--weights", "0.3,0.5", "--trajectories", "20"], 2),
        ("lg_rate_ladder", ["--rates", "0,6", "--trajectories", "200"], 2),
        (
            "arrow_demo",
            ["--sites", "200", "--horizon", "40", "--trials", "2", "--stride", "20"],
            3,
        ),
    ],
)
def test_script_prints_its_table(name, argv, rows, capsys):
    assert _main(name)(argv) == 0
    assert len(_numeric_rows(capsys.readouterr().out)) == rows


def test_born_sweep_writes_its_csv(tmp_path, capsys):
    path = tmp_path / "born.csv"
    argv = ["--weights", "0.5", "--trajectories", "20", "--csv", str(path)]
    assert _main("born_sweep")(argv) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "weight_1,freq_1,undecided,chi2,p"
    assert len(lines) == 2


def _no_rungs(*args):
    raise AssertionError("a rung ran before every ladder entry was checked")


def _assert_refused(main, argv, message, capsys):
    """``main(argv)`` exits 1 with one ``error:`` line naming ``message``
    and prints nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert ": error: " in line and message in line


@pytest.mark.parametrize("ladder", ["1,4", "1,4,4"])
def test_amplification_sweep_rejects_short_ladder_before_any_rung(
    ladder, monkeypatch, capsys
):
    main = _main("amplification_sweep")
    monkeypatch.setitem(main.__globals__, "survival_scaling_points", _no_rungs)
    _assert_refused(main, ["--n-eff", ladder, "--trajectories", "40"],
                    "at least 3 distinct", capsys)


@pytest.mark.parametrize(
    "rates, omega, message",
    [
        ("0,-1", "1", "finite number >= 0, got '-1'"),
        ("0,abc", "1", "finite number >= 0, got 'abc'"),
        ("0,inf", "1", "finite number >= 0, got 'inf'"),
        ("0,nan", "1", "finite number >= 0, got 'nan'"),
        ("0,", "1", "finite number >= 0, got ''"),
        ("6,1e6", "1", "rate '1e6': mean hit count"),
        ("0,6", "0", "--omega must be finite and positive, got 0.0"),
    ],
)
def test_lg_rate_ladder_rejects_a_bad_rate_before_any_rung(
    rates, omega, message, monkeypatch, capsys
):
    main = _main("lg_rate_ladder")
    monkeypatch.setitem(main.__globals__, "run_leggett_garg", _no_rungs)
    _assert_refused(main, ["--rates", rates, "--omega", omega, "--trajectories", "40"],
                    message, capsys)


@pytest.mark.parametrize(
    "weights, message",
    [
        ("0.5,1.5", "weight '1.5': weight_1 must lie in [0, 1]"),
        ("0.5,abc", "must be a number, got 'abc'"),
    ],
)
def test_born_sweep_rejects_a_bad_weight_before_any_rung(
    weights, message, monkeypatch, capsys
):
    main = _main("born_sweep")
    monkeypatch.setitem(main.__globals__, "run_ensemble", _no_rungs)
    _assert_refused(main, ["--weights", weights, "--trajectories", "5"], message, capsys)


@pytest.mark.parametrize(
    "ladder, message",
    [
        ("1,4,abc", "must be a number, got 'abc'"),
        ("1,4,0", "n_eff must be finite and >= 1, got 0.0"),
    ],
)
def test_amplification_sweep_rejects_a_bad_rung_before_any_rung(
    ladder, message, monkeypatch, capsys
):
    """The sweep itself checks every rung, so a bad ``n_eff`` is refused
    before its ensembles run."""
    monkeypatch.setattr(ensemble, "run_ensemble", _no_rungs)
    main = _main("amplification_sweep")
    _assert_refused(main, ["--n-eff", ladder, "--trajectories", "40"], message, capsys)


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("born_sweep", ["--weights", "0.5", "--trajectories", "0"],
         "trajectories must be >= 1, got 0"),
        ("lg_rate_ladder", ["--rates", "0,6", "--trajectories", "0"],
         "trajectories must be >= 1, got 0"),
        ("arrow_demo", ["--trials", "0"], "trials must be >= 1"),
        ("arrow_demo", ["--sites", "1"], "ring needs at least 2 sites, got 1"),
    ],
    ids=["born_sweep", "lg_rate_ladder", "arrow_demo_trials", "arrow_demo_sites"],
)
def test_a_script_refuses_a_bad_count_without_a_traceback(name, argv, message, capsys):
    """A count the library refuses ends the script with one ``error:`` line,
    before its table's header, not in a traceback."""
    _assert_refused(_main(name), argv, message, capsys)


def test_code_lines_counts_code_not_prose(tmp_path, capsys):
    """Comments, blank lines and module, class and function docstrings
    count for nothing; a multi-line string that is not a docstring counts
    each of its lines.  The package's own count prints with a total."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        '"""Module docstring\nover two lines."""\n'
        "# a comment\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        return """two\n'
        'lines"""  # trailing comment\n',
        encoding="utf-8",
    )
    (package / "b.py").write_text("x = 1\ny = [\n    2,\n]\n", encoding="utf-8")
    main = _main("code_lines")
    assert main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     4  a.py", "     4  b.py", "     8  total"
    ]
    assert main([str(SCRIPTS.parent / "src" / "grwsim")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith("  total")
    assert int(out[-1].split()[0]) == sum(int(line.split()[0]) for line in out[:-1])
