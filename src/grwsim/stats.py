"""Statistical post-processing of ensemble outputs.

Import contract: ``import grwsim`` loads numpy only, and so does a
p-value.  ``scipy.stats`` is imported inside :func:`fit_scaling`, the
package's one use of scipy, so it loads on the first fit.

:func:`born_chi_square`'s p-value comes from :func:`_chi2_sf_1`, a
plain-Python port of cephes' ``igamc(1/2, x/2)``: the function scipy's
``chdtrc(1, x)`` evaluates, and ``scipy.stats.chi2.sf`` at ``df=1,
loc=0, scale=1``.  It takes the same branches with the same operations
and constants, so the p-values are the same bits.

``tests/test_stats.py`` checks both the import graph and the p-value bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InsufficientDataError, ValidationError, require_int

#: minimum decided trajectories for a chi-square comparison
MIN_DECIDED = 100


@dataclass
class OutcomeTally:
    """Counts of definite and undecided trajectory outcomes."""

    count_1: int = 0
    count_2: int = 0
    count_undecided: int = 0

    @property
    def total(self) -> int:
        return self.count_1 + self.count_2 + self.count_undecided

    @property
    def decided(self) -> int:
        return self.count_1 + self.count_2

    @property
    def undecided_fraction(self) -> float:
        return self.count_undecided / self.total if self.total else 0.0

    def frequency(self, branch: int) -> float:
        """Share of the decided trajectories whose outcome is ``branch``,
        the int 1 or 2."""
        require_int("branch", branch)
        if branch not in (1, 2):
            raise ValidationError(f"branch must be 1 or 2, got {branch}")
        if self.decided == 0:
            raise InsufficientDataError("no decided trajectories")
        count = self.count_1 if branch == 1 else self.count_2
        return count / self.decided

    def as_dict(self) -> dict:
        out = {
            "count_1": self.count_1,
            "count_2": self.count_2,
            "count_undecided": self.count_undecided,
            "total": self.total,
            "undecided_fraction": self.undecided_fraction,
        }
        if self.decided:
            out["frequency_1"] = self.frequency(1)
            out["frequency_2"] = self.frequency(2)
            out["frequency_1_ci3"] = binomial_ci(self.count_1, self.decided)[1]
        return out


def survival_statistics(times) -> dict:
    """Median/mean/quartiles of decided survival times."""
    arr = np.asarray(sorted(times), dtype=float)
    if arr.size == 0:
        raise InsufficientDataError("no survival times to summarize")
    return {
        "count": int(arr.size),
        "median": float(np.median(arr)),
        "mean": float(arr.mean()),
        "q1": float(np.percentile(arr, 25)),
        "q3": float(np.percentile(arr, 75)),
    }


#: cephes' constants: the machine epsilon, the log of the largest double,
#: the iteration cap, and the continued fraction's rescale threshold and
#: its inverse
_MACHEP = 2.0**-53
_MAXLOG = 7.09782712893383996732e2
_MAXITER = 2000
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
#: the shape ``a`` of one degree of freedom, with cephes' ``lgam(a)`` and
#: ``lgam1p(a)``; ``math.lgamma(0.5)`` is one bit off ``lgam``
_A = 0.5
_LGAM_A = 0.5723649429247
_LGAM1P_A = -0.12078223763524884
#: ``igam_fac``'s Lanczos form at ``a``: ``fac = a + g - 1/2`` and
#: ``sqrt(fac / e) / lanczos_sum_expg_scaled(a)``
_LANCZOS_FAC = 6.02468004077673
_LANCZOS_PREFACTOR = 0.8399333323251386
#: cephes' rational ``expm1`` on [-1/2, 1/2]; ``math.expm1`` differs in
#: the last bit at some points
_EP = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
       9.9999999999999999991025e-1)
_EQ = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
       2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def _expm1(x: float) -> float:
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * ((_EP[0] * xx + _EP[1]) * xx + _EP[2])
    r = r / ((((_EQ[0] * xx + _EQ[1]) * xx + _EQ[2]) * xx + _EQ[3]) - r)
    return r + r


def _igam_fac(x: float) -> float:
    """``x**a * exp(-x) / gamma(a)``; 0 where it underflows."""
    if abs(_A - x) > 0.4 * _A:
        ax = _A * math.log(x) - x - _LGAM_A
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    return _LANCZOS_PREFACTOR * (math.exp(_A - x) * (x / _LANCZOS_FAC) ** _A)


def _igam_series(x: float) -> float:
    """The lower regularized gamma function by its power series, on
    x <= 0.45, where ``_igam_fac`` does not underflow."""
    r, c, ans = _A, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * _igam_fac(x) / _A


def _igamc_series(x: float) -> float:
    """The upper regularized gamma function by DLMF 8.7.3."""
    fac, total = 1.0, 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (_A + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    return -_expm1(_A * logx - _LGAM1P_A) - math.exp(_A * logx - _LGAM_A) * total


def _igamc_continued_fraction(x: float) -> float:
    """The upper regularized gamma function by DLMF 8.9.2.

    cephes rescales the terms by a power of two, which changes no bit of
    ``pk / qk``, to keep them finite.  At a = 1/2 the fraction converges
    within 114 terms, over which unscaled terms stay below 1e198 (a sweep
    of x over (1.1, 800]), so no test can see the rescale; it is kept so
    that the port reads line for line against cephes."""
    ax = _igam_fac(x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - _A
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c, y, z = c + 1.0, y + 1.0, z + 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2, pkm1, qkm2, qkm1 = (v * _BIGINV for v in (pkm2, pkm1, qkm2, qkm1))
        if t <= _MACHEP:
            break
    return ans * ax


def _chi2_sf_1(statistic: float) -> float:
    """Survival function of the chi-square law with one degree of freedom
    at ``statistic >= 0``: cephes' ``igamc(1/2, statistic / 2)``, branch
    for branch, so the same bits as scipy's ``chdtrc(1, statistic)``."""
    x = statistic / 2.0
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    # cephes takes 1 - igam_series also where x > 1.1 and x < a, or where
    # 0.5 < x <= 1.1 and 1.1 * x < a: neither can hold at a = 1/2
    if x > 1.1:
        return _igamc_continued_fraction(x)
    if x <= 0.5 and -0.4 / math.log(x) < _A:
        return 1.0 - _igam_series(x)
    return _igamc_series(x)


def born_chi_square(
    tally: OutcomeTally, expected: tuple[float, float]
) -> tuple[float, float]:
    """Chi-square (1 dof) of decided outcomes against expected weights.

    Undecided trajectories are excluded here and reported separately by
    the ensemble summary.  An expected weight of zero with observed
    counts returns ``(inf, 0.0)`` to flag the impossible outcome.
    """
    p1, p2 = float(expected[0]), float(expected[1])
    # negated, so that a NaN weight, for which every comparison is false, fails
    if not (p1 >= 0 and p2 >= 0 and abs(p1 + p2 - 1.0) <= 1e-9):
        raise ValidationError(
            f"expected weights must be finite, nonnegative and sum to 1, got {expected}"
        )
    decided = tally.decided
    if decided < MIN_DECIDED:
        raise InsufficientDataError(
            f"need >= {MIN_DECIDED} decided trajectories, have {decided}"
        )
    statistic = 0.0
    for observed, p in ((tally.count_1, p1), (tally.count_2, p2)):
        expected_count = p * decided
        if expected_count == 0.0:
            if observed:
                return math.inf, 0.0
            continue
        statistic += (observed - expected_count) ** 2 / expected_count
    return statistic, _chi2_sf_1(statistic)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float
    n_points: int


def fit_scaling(points) -> ScalingFit:
    """Least-squares slope of log10(value) against log10(abscissa).

    ``points`` is a sequence of ``(abscissa, value)`` pairs, e.g.
    ``(n_eff, median survival)``.  The confidence interval is the 95%
    t-interval on the slope.
    """
    from scipy import stats

    pts = [(float(a), float(v)) for a, v in points]
    if len(pts) < 3:
        raise DegenerateFitError(f"need >= 3 points, got {len(pts)}")
    abscissae = [a for a, _ in pts]
    if len(set(abscissae)) != len(abscissae):
        raise DegenerateFitError("abscissae must be distinct")
    if not all(0 < a < math.inf and 0 < v < math.inf for a, v in pts):
        raise ValidationError("log-log fit needs positive, finite coordinates")
    lx = np.log10([a for a, _ in pts])
    ly = np.log10([v for _, v in pts])
    fit = stats.linregress(lx, ly)
    half = float(stats.t.ppf(0.975, df=len(pts) - 2)) * fit.stderr
    return ScalingFit(
        slope=float(fit.slope),
        intercept=float(fit.intercept),
        stderr=float(fit.stderr),
        ci_low=float(fit.slope - half),
        ci_high=float(fit.slope + half),
        n_points=len(pts),
    )


def binomial_ci(successes: int, total: int) -> tuple[float, float]:
    """(frequency, normal-approximation half-width at 3 sigma)."""
    if total < 1:
        raise InsufficientDataError("empty sample")
    f = successes / total
    return f, 3.0 * math.sqrt(max(f * (1.0 - f), 0.0) / total)
