"""Smoke runs of the sweep scripts in ``scripts/`` at tiny sizes.

Each script's ``main(argv)`` must exit 0 and print a table with one
numeric row per requested point.
"""
import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("ladder", ["1,4", "1,4,4"])
def test_amplification_sweep_rejects_short_ladder_before_any_rung(
    ladder, monkeypatch, capsys
):
    main = _main("amplification_sweep")

    def no_rungs(*args):
        raise AssertionError("a rung ran before the ladder was checked")

    monkeypatch.setitem(main.__globals__, "survival_scaling_points", no_rungs)
    with pytest.raises(SystemExit) as exc:
        main(["--n-eff", ladder, "--trajectories", "40"])
    assert exc.value.code == 1
    assert "at least 3 distinct" in capsys.readouterr().err


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

    def no_rungs(*args):
        raise AssertionError("a rung ran before the rates were checked")

    monkeypatch.setitem(main.__globals__, "run_leggett_garg", no_rungs)
    with pytest.raises(SystemExit) as exc:
        main(["--rates", rates, "--omega", omega, "--trajectories", "40"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert ": error: " in line and message in line


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
