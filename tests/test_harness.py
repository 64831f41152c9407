"""Checks on tier-1's own harness.

A failing test must be reported and must not hide the failures after it,
CI's oldest leg must install the oldest Python, numpy and scipy that
``pyproject.toml`` admits, and the version that file declares must be the
package's own.
"""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import grwsim

ROOT = Path(__file__).resolve().parents[1]

#: two failing property tests and one plain failure
PLANTED = '''\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_first_property_fails(n):
    assert n < 0


@given(st.floats())
def test_second_property_fails(x):
    assert x != 0.0


def test_plain_failure():
    assert 1 == 2
'''


def test_every_failure_is_reported(tmp_path):
    """Beside copies of the suite's ``conftest.py`` and ``pyproject.toml``
    (its warning filters among them), a file with two failing ``@given``
    tests and one plain failure reports all three, with no INTERNALERROR.
    Hypothesis' plugin imports ``hypothesis.extra._patching`` when a
    property test fails; where ``libcst`` is installed that import warns,
    and without the conftest's import the filters turn the warning into an
    INTERNALERROR that ends the run at the first failure."""
    for name in ("conftest.py", "pyproject.toml"):
        shutil.copy(ROOT / ("tests" if name == "conftest.py" else "") / name, tmp_path)
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    # the subprocess does not inherit pytest's pythonpath setting
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_planted.py"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "3 failed" in proc.stdout, out


def _floor(name: str, text: str) -> str:
    """The lowest version of ``name`` that ``pyproject.toml``'s ``text``
    admits: the one ``name >= version`` requirement, or ``requires-python
    = ">=version"``."""
    found = re.findall(rf'{name}\s*(?:=\s*")?>=\s*([\d.]+)"', text)
    assert len(found) == 1, (name, found)
    return found[0]


def _matrix_legs(text: str) -> list[dict]:
    """The ``include`` legs of the workflow's matrix, each a dict of its
    ``numpy``, ``scipy`` and ``python`` values."""
    legs = []
    for line in text.splitlines():
        field = re.match(r'\s*(-\s+)?(numpy|scipy|python):\s*"([^"]*)"\s*$', line)
        if field:
            if field[1]:
                legs.append({})
            legs[-1][field[2]] = field[3]
    return legs


def test_ci_runs_on_the_dependency_floors():
    """The oldest leg of ``.github/workflows/tier1.yml`` pins the floors
    of ``pyproject.toml``: its ``requires-python``, numpy and scipy, each
    at its lowest admitted minor release; no leg runs an older Python, and
    the install step takes each leg's pins.  Both files are read as text,
    since Python 3.10 has no ``tomllib``."""
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    python = _floor("requires-python", project)
    oldest = {
        "numpy": f"numpy=={_floor('numpy', project)}.*",
        "scipy": f"scipy=={_floor('scipy', project)}.*",
        "python": python,
    }
    assert oldest == {"numpy": "numpy==2.0.*", "scipy": "scipy==1.13.*", "python": "3.10"}
    legs = _matrix_legs(workflow)
    assert oldest in legs, legs
    assert all(len(leg) == 3 for leg in legs), legs
    version = [int(part) for part in python.split(".")]
    assert all([int(part) for part in leg["python"].split(".")] >= version for leg in legs)
    assert "python-version: ${{ matrix.python }}" in workflow
    assert '"${{ matrix.numpy }}" "${{ matrix.scipy }}"' in workflow


def test_project_version_is_the_package_version():
    """``pyproject.toml``'s ``version`` is ``grwsim.__version__``, the one
    that summaries record as their provenance, so the two copies cannot
    drift apart unseen; the file is read as text, since Python 3.10 has no
    ``tomllib``."""
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, flags=re.M) == [
        grwsim.__version__
    ]
