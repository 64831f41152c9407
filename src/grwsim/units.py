"""SI arithmetic of the hit-rate amplification.

Internal units set ``hbar = mass = 1``.  The length unit is the
conventional localization length 1e-7 m and the mass unit the nucleon
mass, which fixes the time unit through ``hbar = 1``
(:data:`TIME_UNIT_SI`, about 1.586e-7 s).  A time in seconds divided by
:data:`TIME_UNIT_SI` is the same time in internal units.

The amplification table answers the headline arithmetic: a single
constituent is hit about once per ``tau`` seconds, but ``n_eff``
entangled constituents share one collective coordinate, so its mean
time to the first hit is ``tau / n_eff`` -- e.g. 1e15 s / 1e23 = 1e-8 s
for a macroscopic pointer.
"""
from __future__ import annotations

import math

from .errors import ValidationError

HBAR_SI = 1.054571817e-34  # J s
NUCLEON_MASS_SI = 1.67262192e-27  # kg

#: SI size of one internal unit of length (m), mass (kg) and time (s)
LENGTH_UNIT_SI = 1e-7
MASS_UNIT_SI = NUCLEON_MASS_SI
TIME_UNIT_SI = MASS_UNIT_SI * LENGTH_UNIT_SI**2 / HBAR_SI


def amplification_table(tau_si: float, n_eff: float) -> dict:
    """Hit-rate amplification arithmetic in SI and internal units.

    Raises :class:`ValidationError` unless ``tau_si`` is finite and > 0,
    ``n_eff`` finite and >= 1, and every derived rate and time is finite
    and > 0.
    """
    if not (0 < tau_si < math.inf and 1 <= n_eff < math.inf):
        raise ValidationError(
            f"need finite tau_si > 0 and n_eff >= 1, got tau_si={tau_si}, "
            f"n_eff={n_eff}"
        )
    mean_first_hit_si = tau_si / n_eff
    table = {
        "tau_si": tau_si,
        "n_eff": n_eff,
        "single_rate_si": 1.0 / tau_si,
        "collective_rate_si": n_eff / tau_si,
        "mean_first_hit_si": mean_first_hit_si,
        "tau_internal": tau_si / TIME_UNIT_SI,
        "mean_first_hit_internal": mean_first_hit_si / TIME_UNIT_SI,
    }
    # finite inputs can still overflow a rate or underflow a time to 0
    if not all(0 < value < math.inf for value in table.values()):
        raise ValidationError(
            f"need finite rates and times > 0, got tau_si={tau_si}, n_eff={n_eff}"
        )
    table["scales"] = {
        "length": LENGTH_UNIT_SI,
        "time": TIME_UNIT_SI,
        "mass": MASS_UNIT_SI,
    }
    return table
