"""Unitary evolution of grid wavefunctions.

Solves ``i d/dt psi = [-(1/2) d^2/dx^2 + V(x)] psi`` on the periodic grid
(``hbar = mass = 1``) with one Strang-split spectral step: half a
potential phase, an exact kinetic phase in Fourier space, half a
potential phase.  Free evolution is exact per Fourier mode; with a
potential the step is second order in ``dt`` and exactly
norm-preserving.  The Hamiltonian acts alike on every internal level, so
one kinetic phase serves them all.

Each step gate lives here once: finite phases (:func:`_spectral_phases`),
alignment of a span with ``dt`` (:func:`aligned_steps`) and the norm drift
of a stride (:func:`drifted`, with its error :func:`drift_error`).

A ``(rows, levels, n_points)`` block advances in place, one ``dt`` at a
time, through :func:`substep`; the collapse engine steps every
trajectory through it.

The one device that couples the internal level to the coordinate is
:func:`premeasurement_evolve`: a level-diagonal shift that displaces
level 0 by ``+displacement`` and level 1 by ``-displacement``, each one
exact Fourier translation rather than a drift integrated step by step.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InsufficientSeparationWarning,
    UnstableStepError,
    ValidationError,
    require_int,
)
from .qstate import GridSpec, WaveFunction, grid_points

#: norm drift allowed over one stride before it is declared unstable: the
#: steps of an evolve_batch row between two samples
STEP_NORM_TOLERANCE = 1e-6

#: pointer overlap above this triggers InsufficientSeparationWarning
SEPARATION_WARN_OVERLAP = 1e-3

#: potential kind -> the fields it reads besides ``kind``; the one list of
#: the kinds, which config's ``[potential]`` section reads too
POTENTIAL_KEYS = {
    "free": (),
    "harmonic": ("omega",),
    "double_well": ("barrier_height", "well_separation"),
}


@dataclass(frozen=True)
class Potential:
    """External potential ``V(x)``, the same on every internal level.

    ``double_well`` is two equal parabolic wells centered at
    ``+- well_separation / 2`` that meet in a cusp of height
    ``barrier_height`` at the origin, so each well is exactly harmonic
    with curvature ``8 * barrier_height / well_separation**2``.
    """

    kind: str = "free"
    omega: float = 0.0
    barrier_height: float = 0.0
    well_separation: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POTENTIAL_KEYS:
            raise ValidationError(
                f"unknown potential kind {self.kind!r}; expected one of "
                f"{tuple(POTENTIAL_KEYS)}"
            )
        for name in ("omega", "barrier_height", "well_separation"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValidationError(f"potential {name} must be finite, got {value}")
        if self.kind == "harmonic" and not self.omega > 0:
            raise ValidationError("harmonic potential needs omega > 0")
        if self.kind == "double_well":
            if not (self.barrier_height > 0 and self.well_separation > 0):
                raise ValidationError(
                    "double well needs barrier_height > 0 and well_separation > 0"
                )


def _potential_values(v: Potential, grid: GridSpec) -> np.ndarray:
    # numpy squares and quotients overflow to inf (float ones would raise),
    # which the phase check of _spectral_phases then reports
    x = grid_points(grid)
    if v.kind == "free":
        return np.zeros(grid.n_points)
    if v.kind == "harmonic":
        return 0.5 * np.float64(v.omega) ** 2 * x**2
    curvature = 8.0 * v.barrier_height / np.float64(v.well_separation) ** 2
    half = 0.5 * v.well_separation
    return 0.5 * curvature * np.minimum((x - half) ** 2, (x + half) ** 2)


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float = 1e-3
    steps_per_event_check: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.dt < np.inf:
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        require_int("steps_per_event_check", self.steps_per_event_check)
        if self.steps_per_event_check < 1:
            raise ValidationError("steps_per_event_check must be >= 1")


def _wavenumbers(grid: GridSpec) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)


@lru_cache(maxsize=64)
def _spectral_phases(
    v: Potential, grid: GridSpec, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(half potential phase, full potential phase, kinetic phase).

    Raises ValidationError if a phase is not finite, i.e. if the potential,
    or ``dt`` times it or times ``k^2 / 2``, overflows.  Finite phases have
    unit modulus, so no step can then move the norm beyond rounding.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        half = np.exp(-0.5j * dt * _potential_values(v, grid))
        kin = np.exp(-1j * dt * (0.5 * _wavenumbers(grid) ** 2))
    for name, phase in (("potential", half), ("kinetic", kin)):
        if not np.isfinite(phase).all():
            raise ValidationError(
                f"{name} step phase is not finite for dt={dt}, {v.kind} potential, {grid}"
            )
    return half, half * half, kin


def substep(
    block: np.ndarray,
    phases: tuple[np.ndarray, np.ndarray, np.ndarray],
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Advance every row of a writable ``(rows, levels, n_points)`` block by
    one ``dt``, in place.

    ``phases`` are :func:`_spectral_phases` of the run's potential, grid
    and ``dt``, looked up once per run.  One batched FFT pair over the
    block, between potential phases; the kinetic phase is the same for
    every row and level.  A stride of ``m`` steps is ``half K full K ...
    full K half``, so the leading ``half`` goes only to the rows flagged in
    ``start`` (the first step of their stride), and the trailing phase is
    ``half`` for rows flagged in ``end`` and ``full`` for the others.
    ``half * half`` differs from ``full`` in the last bit, hence the
    per-row flags.

    The leading phase touches only the ``start`` rows.  For the trailing
    one, the ``end`` rows are gathered and given ``half``, the whole block
    gets one unmasked ``full`` pass, and the gathered rows are put back.
    Each row is multiplied elementwise by its own phase either way, so it
    keeps the bits of a one-row step.  Apart from those gathered rows, every
    operation writes into ``block``, so a step allocates no array of the
    block's size.  Returns ``block``.
    """
    half, full, kin = phases
    if start.all():
        block *= half
    elif start.any():
        block[start] *= half
    np.fft.fft(block, axis=-1, out=block)
    np.multiply(kin, block, out=block)
    np.fft.ifft(block, axis=-1, out=block)
    if end.all():
        block *= half
    elif not end.any():
        block *= full
    else:
        tail = block[end]
        tail *= half
        block *= full
        block[end] = tail
    return block


def drifted(before, after) -> np.ndarray:
    """True where a stride moved the squared norm from ``before`` to
    ``after`` by more than ``STEP_NORM_TOLERANCE``, elementwise.

    Written as a negated ``<=`` so that a NaN or infinite norm, for which
    every comparison is false, fails the check instead of passing it.
    """
    return ~(np.abs(after - before) <= STEP_NORM_TOLERANCE)


def drift_error(before: float, after: float, n_steps: int, dt: float) -> UnstableStepError:
    """The error of a stride of ``n_steps`` steps that :func:`drifted`."""
    return UnstableStepError(
        f"norm drifted by {abs(after - before):.3e} over {n_steps} steps of dt={dt}"
    )


def aligned_steps(span: float, dt: float, name: str) -> int:
    """The number of ``dt`` steps in ``span``, named ``name`` in errors.

    Raises ValidationError unless ``span`` is finite, ``>= 0`` and an
    integer multiple of ``dt`` to within ``1e-9`` of the larger of the two.
    """
    if not 0 <= span < np.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {span}")
    n_steps = int(round(span / dt))
    if abs(span - n_steps * dt) > 1e-9 * max(dt, span):
        raise ValidationError(f"{name} {span} is not an integer multiple of dt {dt}")
    return n_steps


def _shift_exact(row: np.ndarray, grid: GridSpec, displacement: float) -> np.ndarray:
    """Exact periodic translation by ``displacement`` via a Fourier phase."""
    k = _wavenumbers(grid)
    return np.fft.ifft(np.exp(-1j * k * displacement) * np.fft.fft(row))


def premeasurement_evolve(
    system_amplitudes: tuple[complex, complex],
    pointer: WaveFunction,
    displacement: float,
) -> WaveFunction:
    """Entangle a two-level system with a pointer packet.

    Level 0's pointer is shifted by ``+displacement`` and level 1's by
    ``-displacement``, each as one exact periodic translation:
    ``(c1, c2) x pointer -> c1 |shifted +D> + c2 |shifted -D>`` as a
    two-level state.  Raises ValidationError for a zero displacement,
    which would leave the levels unentangled, and warns if the displaced
    packets still overlap by more than 1e-3.
    """
    c1, c2 = complex(system_amplitudes[0]), complex(system_amplitudes[1])
    weight = abs(c1) ** 2 + abs(c2) ** 2
    if abs(weight - 1.0) > 1e-9:
        raise ValidationError(
            f"system amplitudes must satisfy |c1|^2+|c2|^2 = 1, got {weight}"
        )
    if pointer.levels != 1:
        raise ValidationError("pointer state must be single-level")
    if displacement == 0.0:
        raise ValidationError("premeasurement displacement is 0")
    row = pointer.amplitudes[0]
    up = _shift_exact(row, pointer.grid, +displacement)
    down = _shift_exact(row, pointer.grid, -displacement)
    overlap = abs(np.vdot(up, down) * pointer.grid.dx)
    if overlap > SEPARATION_WARN_OVERLAP:
        warnings.warn(
            f"displaced pointer packets overlap by {overlap:.3e}",
            InsufficientSeparationWarning,
            stacklevel=2,
        )
    amps = np.stack([c1 * up, c2 * down])
    return WaveFunction(pointer.grid, amps)
