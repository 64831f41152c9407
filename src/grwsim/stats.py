"""Statistical post-processing of ensemble outputs.

Import contract: ``import grwsim`` loads numpy only.  scipy is imported
inside the functions that need it, so it loads on first use:

- ``scipy.special`` loads on the first p-value (:func:`born_chi_square`).
  ``chdtrc`` is the function ``scipy.stats.chi2.sf`` evaluates at
  ``loc=0, scale=1``, so the p-values are the same bits.
- ``scipy.stats`` loads only for :func:`fit_scaling`.

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

    def add(self, outcome: str) -> None:
        """Count one outcome: the label ``"1"``, ``"2"`` or ``"undecided"``."""
        if outcome == "1":
            self.count_1 += 1
        elif outcome == "2":
            self.count_2 += 1
        elif outcome == "undecided":
            self.count_undecided += 1
        else:
            raise ValidationError(
                f'outcome must be "1", "2" or "undecided", got {outcome!r}'
            )

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


def born_chi_square(
    tally: OutcomeTally, expected: tuple[float, float]
) -> tuple[float, float]:
    """Chi-square (1 dof) of decided outcomes against expected weights.

    Undecided trajectories are excluded here and reported separately by
    the ensemble summary.  An expected weight of zero with observed
    counts returns ``(inf, 0.0)`` to flag the impossible outcome.
    """
    from scipy.special import chdtrc

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
    return statistic, float(chdtrc(1, statistic))


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
