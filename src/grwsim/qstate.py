"""Discretized one-dimensional wavefunctions with an internal level index.

Conventions used throughout the package:

* The spatial grid is uniform and periodic: ``x_i = x_min + i * dx`` with
  ``dx = (x_max - x_min) / n_points``.  Integrals are plain Riemann sums
  ``sum(f) * dx``, which on a periodic grid are spectrally accurate for
  smooth integrands.
* ``hbar = mass = 1`` everywhere; SI values enter only through
  :mod:`grwsim.units`.
* Gaussian packets are parametrized by their *position standard
  deviation* ``width``: ``|psi(x)|^2 ~ exp(-(x - center)^2 / (2 width^2))``.
* States carry one or two internal levels; amplitudes have shape
  ``(levels, n_points)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, ValidationError, ZeroNormError

#: squared norms below this cannot be renormalized meaningfully
ZERO_NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic spatial grid on ``[x_min, x_max)``."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValidationError(
                f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max})"
            )
        # a bool is an int, but not a point count
        if type(self.n_points) is bool or not isinstance(self.n_points, int):
            raise ValidationError(f"grid n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 8:
            raise ValidationError(f"grid needs n_points >= 8, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@lru_cache(maxsize=64)
def grid_points(grid: GridSpec) -> np.ndarray:
    """Sample coordinates of ``grid`` (cached, read-only)."""
    x = grid.x_min + grid.dx * np.arange(grid.n_points)
    x.setflags(write=False)
    return x


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes on a grid, one row per internal level.

    The raw constructor accepts any finite amplitude array (shape
    ``(n_points,)`` or ``(levels, n_points)`` with one or two levels) and
    does *not* rescale it; the packet factories below always return
    unit-norm states.  Amplitude arrays are frozen after construction.
    """

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim == 1:
            amps = amps[np.newaxis, :]
        if amps.ndim != 2 or amps.shape[0] not in (1, 2):
            raise ValidationError(
                f"amplitudes must have shape (1|2, n_points), got {amps.shape}"
            )
        if amps.shape[1] != self.grid.n_points:
            raise GridMismatchError(
                f"amplitude row length {amps.shape[1]} != grid n_points "
                f"{self.grid.n_points}"
            )
        amps = np.ascontiguousarray(amps)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValidationError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def levels(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(np.sum(squared_amplitudes(self.amplitudes)) * self.grid.dx)


def squared_amplitudes(amps: np.ndarray) -> np.ndarray:
    """``|amps|^2`` elementwise, for one state's ``(levels, n_points)``
    amplitudes or a ``(rows, levels, n_points)`` block of them.

    The state reductions (norm, density, branch weights, moments) and the
    hit rounds all start from this one array, so a reduction over a block
    of raw rows gets the same bits as the same reduction of one state.
    """
    sq = np.square(amps.real)
    sq += np.square(amps.imag)
    return sq


def normalize(psi: WaveFunction) -> WaveFunction:
    """Rescale to unit norm; reject states that are numerically zero."""
    n2 = psi.norm_sq
    if n2 < ZERO_NORM_FLOOR:
        raise ZeroNormError(f"cannot normalize state with squared norm {n2:.3e}")
    return WaveFunction(psi.grid, psi.amplitudes / np.sqrt(n2))


# ---------------------------------------------------------------------------
# packet factories


def gaussian_packet(
    grid: GridSpec,
    center: float,
    width: float,
    momentum: float = 0.0,
    levels: int = 1,
    level: int = 0,
) -> WaveFunction:
    """Unit-norm Gaussian packet, ``width`` = position standard deviation.

    The packet (out to five widths) must fit inside the grid so that the
    periodic seam carries no weight.
    """
    if width < 2 * grid.dx:
        raise ValidationError(
            f"packet width {width} under-resolved: needs >= 2 dx = {2 * grid.dx}"
        )
    if center - 5 * width < grid.x_min or center + 5 * width > grid.x_max:
        raise ValidationError(
            f"packet at {center} +- 5*{width} spills over grid "
            f"[{grid.x_min}, {grid.x_max})"
        )
    if levels not in (1, 2) or not 0 <= level < levels:
        raise ValidationError(f"bad level placement: level {level} of {levels}")
    x = grid_points(grid)
    row = np.exp(-((x - center) ** 2) / (4 * width**2) + 1j * momentum * x)
    amps = np.zeros((levels, grid.n_points), dtype=np.complex128)
    amps[level] = row
    return normalize(WaveFunction(grid, amps))


def two_peak_state(
    grid: GridSpec,
    amp1: complex,
    amp2: complex,
    centers: tuple[float, float],
    width: float,
    momentum: float = 0.0,
) -> WaveFunction:
    """Unit-norm superposition of two Gaussian peaks on a single level.

    Each peak is individually normalized before weighting, so for well
    separated peaks the region weight around peak ``i`` is ``|amp_i|^2``.
    """
    g1 = gaussian_packet(grid, centers[0], width, momentum)
    g2 = gaussian_packet(grid, centers[1], width, momentum)
    amps = amp1 * g1.amplitudes + amp2 * g2.amplitudes
    return normalize(WaveFunction(grid, amps))

