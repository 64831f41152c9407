import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwsim import (
    InsufficientDataError,
    OutcomeTally,
    ValidationError,
    born_chi_square,
    fit_scaling,
)
from grwsim.errors import DegenerateFitError
import grwsim.stats as stats_module
from grwsim.stats import MIN_DECIDED, _chi2_sf_1, binomial_ci

from _oracles import HAND_CHI_SQUARE_P, HAND_CHI_SQUARE_STAT, chi_square_two_bins
from _support import two_proportion_test


def _tally(c1: int, c2: int, und: int = 0) -> OutcomeTally:
    return OutcomeTally(count_1=c1, count_2=c2, count_undecided=und)


def test_chi_square_matches_hand_computation():
    stat, p = born_chi_square(_tally(750, 250), (0.7, 0.3))
    assert stat == pytest.approx(HAND_CHI_SQUARE_STAT, rel=1e-12)
    assert stat == pytest.approx(250.0 / 21.0, rel=1e-12)
    assert p == pytest.approx(HAND_CHI_SQUARE_P, rel=1e-9)
    assert p == pytest.approx(5.6e-4, rel=0.01)


def test_chi_square_perfect_agreement():
    stat, p = born_chi_square(_tally(700, 300), (0.7, 0.3))
    assert stat == 0.0
    assert p == 1.0


def test_chi_square_ignores_undecided():
    with_und = born_chi_square(_tally(750, 250, und=37), (0.7, 0.3))
    without = born_chi_square(_tally(750, 250), (0.7, 0.3))
    assert with_und == without


def test_chi_square_needs_enough_data():
    with pytest.raises(InsufficientDataError):
        born_chi_square(_tally(40, 40), (0.5, 0.5))
    assert MIN_DECIDED == 100


def test_chi_square_validates_weights():
    with pytest.raises(ValidationError):
        born_chi_square(_tally(70, 60), (0.7, 0.7))
    with pytest.raises(ValidationError):
        born_chi_square(_tally(70, 60), (-0.2, 1.2))
    # a NaN weight fails every comparison: it must fail the check, not
    # pass it and give a NaN statistic
    for expected in [(math.nan, math.nan), (math.nan, 1.0), (0.5, math.nan), (math.inf, 0.0),
                     (math.inf, -math.inf)]:
        with pytest.raises(ValidationError, match="must be finite"):
            born_chi_square(_tally(60, 40), expected)


def test_chi_square_impossible_outcome_is_infinite():
    stat, p = born_chi_square(_tally(120, 5), (1.0, 0.0))
    assert math.isinf(stat)
    assert p == 0.0
    stat, p = born_chi_square(_tally(120, 0), (1.0, 0.0))
    assert stat == 0.0 and p == 1.0


def test_z_test_hand_case():
    z, p = two_proportion_test(60, 100, 40, 100)
    assert z == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert p == pytest.approx(math.erfc(2.0), rel=1e-9)


def test_z_test_equal_proportions():
    z, p = two_proportion_test(50, 100, 250, 500)
    assert z == 0.0
    assert p == 1.0


def test_z_test_degenerate_pool():
    z, p = two_proportion_test(0, 100, 0, 100)
    assert z == 0.0 and p == 1.0
    z, _ = two_proportion_test(100, 100, 0, 100)
    assert z > 10.0


def test_fit_recovers_exact_power_law():
    pts = [(x, 3.5 * x**-1.0) for x in (1.0, 10.0, 100.0, 1000.0)]
    fit = fit_scaling(pts)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log10(3.5), abs=1e-12)
    assert fit.ci_low <= -1.0 <= fit.ci_high
    assert fit.n_points == 4


def test_fit_ci_covers_noisy_truth():
    import numpy as np

    rng = np.random.default_rng(5)
    xs = np.logspace(0, 3, 8)
    ys = 2.0 * xs**-1.0 * np.exp(rng.normal(0.0, 0.05, xs.size))
    fit = fit_scaling(list(zip(xs, ys)))
    assert fit.ci_low <= -1.0 <= fit.ci_high


def test_fit_degeneracies():
    with pytest.raises(DegenerateFitError):
        fit_scaling([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(DegenerateFitError):
        fit_scaling([(1.0, 1.0), (1.0, 0.5), (2.0, 0.25)])
    with pytest.raises(ValidationError):
        fit_scaling([(1.0, 1.0), (2.0, -0.5), (3.0, 0.25)])
    # a NaN or infinite coordinate is refused, not fitted to all-NaN
    for bad in (math.nan, math.inf):
        for pts in ([(1.0, 1.0), (bad, 0.5), (3.0, 0.25)], [(1.0, 1.0), (2.0, bad), (3.0, 0.25)]):
            with pytest.raises(ValidationError, match="positive, finite"):
                fit_scaling(pts)


@pytest.mark.parametrize("branch", [0, 3, "1", 1.0, True])
def test_frequency_takes_only_branch_1_or_2(branch):
    """A branch is the int 1 or 2: anything else, the outcome label "1"
    included, is refused rather than read as branch 2."""
    tally = OutcomeTally(60, 40)
    assert (tally.frequency(1), tally.frequency(2)) == (0.6, 0.4)
    with pytest.raises(ValidationError, match="branch"):
        tally.frequency(branch)


@pytest.mark.parametrize("label", [1, 2, "decided", "", None, "1 "])
def test_add_takes_only_the_engine_labels(label):
    """An outcome is the label "1", "2" or "undecided": anything else is
    refused, not counted as undecided."""
    tally = OutcomeTally()
    for outcome in ("1", "2", "2", "undecided"):
        tally.add(outcome)
    with pytest.raises(ValidationError, match="outcome"):
        tally.add(label)
    assert (tally.count_1, tally.count_2, tally.count_undecided) == (1, 2, 1)


def test_binomial_ci_hand_case():
    f, half = binomial_ci(50, 100)
    assert f == 0.5
    assert half == pytest.approx(0.15, rel=1e-12)
    f, half = binomial_ci(0, 100)
    assert (f, half) == (0.0, 0.0)
    with pytest.raises(InsufficientDataError):
        binomial_ci(0, 0)


@given(
    c1=st.integers(0, 5000),
    c2=st.integers(0, 5000),
    w=st.floats(0.05, 0.95),
)
def test_chi_square_agrees_with_plain_math(c1, c2, w):
    if c1 + c2 < MIN_DECIDED:
        return
    stat, p = born_chi_square(_tally(c1, c2), (w, 1.0 - w))
    want_stat, want_p = chi_square_two_bins(c1, c2, w)
    assert stat == pytest.approx(want_stat, rel=1e-9)
    assert p == pytest.approx(want_p, rel=1e-6, abs=1e-300)


def _loaded_modules(probe: str, *args: str) -> list[str]:
    """Run ``probe`` in a fresh interpreter and list the scipy,
    multiprocessing and ``concurrent.futures.process`` modules it leaves
    loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe += (
        "\nprint(' '.join(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing') "
        "or m == 'concurrent.futures.process')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_scipy():
    """``import grwsim`` and ``grwsim.cli`` load numpy only; scipy loads on
    the first fit (see the ``grwsim.stats`` docstring), and the
    process-pool machinery (``concurrent.futures.process``,
    ``multiprocessing``) when a pool starts."""
    loaded = _loaded_modules("import sys, grwsim, grwsim.cli")
    assert loaded == [], f"importing grwsim loaded these modules: {loaded}"


def test_p_values_load_no_scipy(tmp_path):
    """An ensemble that writes its artifacts, and ``born_chi_square``
    called directly, compute their p-values without scipy."""
    probe = (
        "import sys\n"
        "from grwsim import OutcomeTally, ScenarioConfig, born_chi_square, run_ensemble\n"
        "summary = run_ensemble(ScenarioConfig(mode='wpr', weight_1=0.7), 1000, 7,\n"
        "                       out_dir=sys.argv[1])\n"
        "assert 0.0 < summary.p_value < 1.0, summary.p_value\n"
        "stat, p = born_chi_square(OutcomeTally(count_1=750, count_2=250), (0.7, 0.3))\n"
        "assert 0.0 < p < 1.0, p"
    )
    loaded = _loaded_modules(probe, str(tmp_path / "out"))
    assert loaded == [], f"computing p-values loaded these modules: {loaded}"
    assert (tmp_path / "out" / "summary.json").is_file()


def test_fit_loads_scipy_stats():
    loaded = _loaded_modules(
        "import sys\nfrom grwsim import fit_scaling\n"
        "fit_scaling([(1, 10.0), (10, 1.1), (100, 0.1)])"
    )
    assert "scipy.stats" in loaded


#: decided counts and expected weights, spanning p = 1 to p underflowing to 0
CHI_SQUARE_CASES = [
    ((700, 300), (0.7, 0.3)),
    ((750, 250), (0.7, 0.3)),
    ((7012, 2988), (0.7, 0.3)),
    ((51, 49), (0.5, 0.5)),
    ((5000, 5000), (0.5, 0.5)),
    ((5200, 4800), (0.5, 0.5)),
    ((100, 0), (0.5, 0.5)),
    ((9990, 10), (0.01, 0.99)),
    ((3, 997), (0.001, 0.999)),
    ((123, 4567), (0.05, 0.95)),
]


def test_chi_square_p_value_is_scipy_stats_bit_for_bit():
    from scipy import stats

    for counts, expected in CHI_SQUARE_CASES:
        stat, p = born_chi_square(_tally(*counts), expected)
        assert p == float(stats.chi2.sf(stat, df=1)), (counts, expected)
    # the zero-expected-count branch, and a statistic of exactly zero
    assert born_chi_square(_tally(120, 5), (1.0, 0.0)) == (math.inf, 0.0)
    assert 0.0 == float(stats.chi2.sf(math.inf, df=1))
    stat, p = born_chi_square(_tally(120, 0), (1.0, 0.0))
    assert (stat, p) == (0.0, float(stats.chi2.sf(0.0, df=1)))


#: statistics at which ``_chi2_sf_1`` changes branch: ``_igam_fac``'s
#: Lanczos form begins at 0.6, the series switch at 0.8987, the
#: ``log(x)`` test ends at 1, the continued fraction begins above 2.2 and
#: ``_igam_fac`` underflows near 1424
CHI2_SF_EDGES = (0.6, 0.8987, 0.9, 1.0, 2.2, 1424.0)


def _assert_chdtrc_bits(statistics) -> None:
    from scipy.special import chdtrc

    points = np.asarray(statistics, dtype=float)
    got = np.array([_chi2_sf_1(float(s)) for s in points])
    want = chdtrc(1, points)
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, [(points[i], got[i], want[i]) for i in bad[:5]]


def test_chi2_sf_1_is_chdtrc_bit_for_bit():
    """The port gives scipy's bits at 0, on subnormals, across 1e-300 to
    1e4, at inf, densely over the two series and at each branch edge and
    its neighbours."""
    tiny = [0.0, 5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072014e-308, math.inf]
    edges = [v for e in CHI2_SF_EDGES
             for v in (np.nextafter(e, 0.0), e, np.nextafter(e, math.inf))]
    _assert_chdtrc_bits(
        tiny + edges
        + list(np.geomspace(1e-300, 1e4, 20001))
        + list(np.linspace(0.5, 3.0, 20001))
    )


@given(st.floats(0.0, 2000.0))
def test_chi2_sf_1_matches_chdtrc_anywhere(statistic):
    _assert_chdtrc_bits([statistic])


@pytest.mark.parametrize("weight", [0.5, 0.7])
def test_born_p_values_are_chdtrc_bit_for_bit(weight):
    """Every other count split of every 100th decided total from 100 to
    3000, through ``born_chi_square`` itself."""
    from scipy.special import chdtrc

    statistics, p_values = [], []
    for decided in range(100, 3001, 100):
        for count_1 in range(0, decided + 1, 2):
            stat, p = born_chi_square(_tally(count_1, decided - count_1), (weight, 1 - weight))
            statistics.append(stat)
            p_values.append(p)
    want = chdtrc(1, np.array(statistics))
    assert np.array(p_values).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_chi2_sf_1_constants_are_cephes():
    """``lgam(1/2)``, ``lgam1p(1/2)`` and ``igam_fac``'s Lanczos form are
    scipy's, and the other constants are cephes' own."""
    from scipy.special import _ufuncs, gammaln

    assert stats_module._LGAM_A == float(gammaln(0.5)) != math.lgamma(0.5)
    assert stats_module._LGAM1P_A == float(_ufuncs._lgam1p(0.5))
    for x in np.linspace(0.3, 0.7, 401):
        assert stats_module._igam_fac(float(x)) == float(_ufuncs._igam_fac(0.5, x)), x
    assert stats_module._MACHEP == 2.0**-53
    assert stats_module._MAXLOG == 7.09782712893383996732e2
    assert stats_module._MAXITER == 2000


@pytest.mark.parametrize(
    "counts",
    [
        (60, 100, 40, 100),
        (50, 100, 250, 500),  # z = 0
        (0, 100, 0, 100),  # degenerate pool, z = 0
        (100, 100, 0, 100),
        (1, 3, 2, 7),
        (7012, 10000, 6988, 10000),
        (4999, 10000, 5230, 10000),
        (1, 1000, 999, 1000),  # p underflows to 0
    ],
)
def test_z_test_p_value_is_scipy_stats_bit_for_bit(counts):
    from scipy import stats

    z, p = two_proportion_test(*counts)
    assert p == float(2.0 * stats.norm.sf(abs(z)))


def test_z_test_infinite_z_p_value_is_scipy_stats_bit_for_bit():
    """A pooled variance that underflows to zero under unequal proportions
    gives ``z = inf``."""
    from scipy import stats

    z, p = two_proportion_test(1, 10**300, 0, 10**300)
    assert z == math.inf
    assert p == float(2.0 * stats.norm.sf(abs(z))) == 0.0
