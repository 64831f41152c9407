"""SI <-> internal unit arithmetic.

Internal units set ``hbar = mass = 1``.  A :class:`Scales` triple gives
the SI size of one internal length, time, and mass unit; conversions
multiply or divide by the appropriate power product.  The default triple
uses the conventional localization length 1e-7 m as the length unit and
the nucleon mass as the mass unit, which fixes the time unit through
``hbar = 1``.

The amplification table answers the headline arithmetic: a single
constituent is hit about once per ``tau`` seconds, but ``n_eff``
entangled constituents share one collective coordinate, so its mean
time to the first hit is ``tau / n_eff`` -- e.g. 1e15 s / 1e23 = 1e-8 s
for a macroscopic pointer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

HBAR_SI = 1.054571817e-34  # J s
NUCLEON_MASS_SI = 1.67262192e-27  # kg


@dataclass(frozen=True)
class Scales:
    """SI value of one internal unit of length, time, and mass."""

    length: float
    time: float
    mass: float

    def __post_init__(self) -> None:
        if not all(0 < s < math.inf for s in (self.length, self.time, self.mass)):
            raise ValidationError(f"unit scales must be finite and positive, got {self}")


def default_scales() -> Scales:
    """Length unit 1e-7 m, nucleon mass unit, time unit fixed by hbar=1."""
    length = 1e-7
    mass = NUCLEON_MASS_SI
    time = mass * length**2 / HBAR_SI
    return Scales(length=length, time=time, mass=mass)


#: exponents of (length, time, mass) for supported quantity names
QUANTITY_DIMENSIONS = {
    "length": (1, 0, 0),
    "time": (0, 1, 0),
    "mass": (0, 0, 1),
    "rate": (0, -1, 0),
    "velocity": (1, -1, 0),
    "momentum": (1, -1, 1),
    "energy": (2, -2, 1),
}

DIRECTIONS = ("to_internal", "to_si")


def si_conversion(
    value: float, quantity: str, direction: str, scales: Scales | None = None
) -> float:
    """Convert ``value`` of a named quantity between SI and internal units."""
    if quantity not in QUANTITY_DIMENSIONS:
        raise ValidationError(
            f"unknown quantity {quantity!r}; expected one of "
            f"{sorted(QUANTITY_DIMENSIONS)}"
        )
    if direction not in DIRECTIONS:
        raise ValidationError(
            f"direction must be one of {DIRECTIONS}, got {direction!r}"
        )
    if scales is None:
        scales = default_scales()
    a, b, c = QUANTITY_DIMENSIONS[quantity]
    factor = scales.length**a * scales.time**b * scales.mass**c
    return value / factor if direction == "to_internal" else value * factor


def amplification_table(
    tau_si: float, n_eff: float, scales: Scales | None = None
) -> dict:
    """Hit-rate amplification arithmetic in SI and internal units."""
    if not (0 < tau_si < math.inf and 1 <= n_eff < math.inf):
        raise ValidationError(
            f"need finite tau_si > 0 and n_eff >= 1, got tau_si={tau_si}, "
            f"n_eff={n_eff}"
        )
    if scales is None:
        scales = default_scales()
    mean_first_hit_si = tau_si / n_eff
    return {
        "tau_si": tau_si,
        "n_eff": n_eff,
        "single_rate_si": 1.0 / tau_si,
        "collective_rate_si": n_eff / tau_si,
        "mean_first_hit_si": mean_first_hit_si,
        "tau_internal": si_conversion(tau_si, "time", "to_internal", scales),
        "mean_first_hit_internal": si_conversion(
            mean_first_hit_si, "time", "to_internal", scales
        ),
        "scales": {
            "length": scales.length,
            "time": scales.time,
            "mass": scales.mass,
        },
    }
