import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwsim import Scales, ValidationError, amplification_table, default_scales, si_conversion
from grwsim.units import HBAR_SI, NUCLEON_MASS_SI, QUANTITY_DIMENSIONS


def test_default_scales_fix_hbar_to_one():
    s = default_scales()
    assert s.length == 1e-7
    assert s.mass == NUCLEON_MASS_SI
    assert s.time == pytest.approx(s.mass * s.length**2 / HBAR_SI, rel=1e-12)


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


def test_round_trip_is_identity_for_every_quantity():
    s = default_scales()
    for quantity in QUANTITY_DIMENSIONS:
        inside = si_conversion(3.7, quantity, "to_internal", s)
        back = si_conversion(inside, quantity, "to_si", s)
        assert back == pytest.approx(3.7, rel=1e-12), quantity


def test_known_conversions():
    s = default_scales()
    assert si_conversion(2e-7, "length", "to_internal", s) == pytest.approx(2.0)
    assert si_conversion(1.0, "rate", "to_si", s) == pytest.approx(1.0 / s.time)
    # ``energy * time`` carries hbar: one internal energy unit is hbar/time
    assert si_conversion(1.0, "energy", "to_si", s) == pytest.approx(
        HBAR_SI / s.time, rel=1e-12
    )


def test_conversion_validates_quantity_and_direction():
    with pytest.raises(ValidationError):
        si_conversion(1.0, "charge", "to_si")
    with pytest.raises(ValidationError):
        si_conversion(1.0, "length", "sideways")


def test_scales_must_be_positive():
    for bad in (0.0, -1.0, math.nan, math.inf):
        for field in ("length", "time", "mass"):
            with pytest.raises(ValidationError, match="finite and positive"):
                Scales(**{"length": 1.0, "time": 1.0, "mass": 1.0, field: bad})


@given(
    value=st.floats(1e-6, 1e6),
    quantity=st.sampled_from(sorted(QUANTITY_DIMENSIONS)),
)
def test_round_trip_property(value, quantity):
    out = si_conversion(
        si_conversion(value, quantity, "to_internal"), quantity, "to_si"
    )
    assert out == pytest.approx(value, rel=1e-9)
