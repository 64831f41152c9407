import math

import pytest

from grwsim import ValidationError, amplification_table
from grwsim.units import (
    HBAR_SI,
    LENGTH_UNIT_SI,
    MASS_UNIT_SI,
    NUCLEON_MASS_SI,
    TIME_UNIT_SI,
)


def test_default_scales_fix_hbar_to_one():
    """The unit scales the table reports, and converts a time by."""
    table = amplification_table(tau_si=3.0, n_eff=1.0)
    s = table["scales"]
    assert s == {"length": LENGTH_UNIT_SI, "time": TIME_UNIT_SI, "mass": MASS_UNIT_SI}
    assert s["length"] == 1e-7
    assert s["mass"] == NUCLEON_MASS_SI
    assert s["time"] == pytest.approx(NUCLEON_MASS_SI * 1e-14 / HBAR_SI, rel=1e-12)
    assert table["tau_internal"] == 3.0 / TIME_UNIT_SI


def test_mean_first_hit_is_exact_for_the_flagship_numbers():
    table = amplification_table(tau_si=1e15, n_eff=1e23)
    assert table["mean_first_hit_si"] == 1e-8  # exact float division
    assert table["collective_rate_si"] == pytest.approx(1e8, rel=1e-12)
    assert table["single_rate_si"] == pytest.approx(1e-15, rel=1e-12)


def test_amplification_arithmetic_consistency():
    table = amplification_table(tau_si=2.0, n_eff=4.0)
    assert table["mean_first_hit_si"] == pytest.approx(0.5)
    assert table["tau_internal"] == pytest.approx(
        4.0 * table["mean_first_hit_internal"], rel=1e-12
    )


def test_amplification_validates_inputs():
    # NaN fails every comparison, so each bound must be a negated range
    for tau_si, n_eff in [(-1.0, 10.0), (1.0, 0.5), (math.nan, 10.0),
                          (1.0, math.nan), (math.inf, 10.0), (1.0, math.inf)]:
        with pytest.raises(ValidationError, match="need finite tau_si"):
            amplification_table(tau_si=tau_si, n_eff=n_eff)
