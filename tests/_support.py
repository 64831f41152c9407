"""One-state forms of the engine's step, hit and observables for the tests.

They are built on the package's raw-array functions, so unlike
:mod:`_oracles` they call the package; :func:`ring_step` and
:func:`two_proportion_test` do not.  The per-state reductions
(:func:`density`, :func:`level_weights`, :func:`side_weights`,
:func:`weighted_moments`) are the reference that the engine's block
observation is held to.
"""
from __future__ import annotations

import math

import numpy as np

from grwsim import WaveFunction, grid_points
from grwsim.collapse import _draw_centers, _localize
from grwsim.errors import GrwsimError, InsufficientDataError, ZeroNormError
from grwsim.kacring import _crossed_parity, _parity_prefix
from grwsim.propagator import (
    _spectral_phases,
    aligned_steps,
    drift_error,
    drifted,
    substep,
)
from grwsim.qstate import ZERO_NORM_FLOOR, squared_amplitudes


def density(psi):
    """Position density of ``psi`` summed over levels (not renormalized)."""
    return np.sum(squared_amplitudes(psi.amplitudes), axis=0)


def level_weights(psi):
    """Squared-norm weight carried by each level of ``psi``."""
    return np.sum(squared_amplitudes(psi.amplitudes), axis=1) * psi.grid.dx


def side_weights(rho, grid, split=0.0):
    """Weights of ``x < split`` and of ``x >= split`` under a position
    density ``rho`` on ``grid``, each a boolean-mask sum."""
    left = grid_points(grid) < split
    return float(np.sum(rho[left]) * grid.dx), float(np.sum(rho[~left]) * grid.dx)


def weighted_moments(x, w, total):
    """Mean and variance of position ``x`` under grid weights ``w`` with
    sum ``total``, one row at a time with the engine's sums."""
    if total < ZERO_NORM_FLOOR:
        raise ZeroNormError("state has no weight; moments undefined")
    mean = float(np.sum(x * w) / total)
    var = float(np.sum((x - mean) ** 2 * w) / total)
    return mean, var


def step(psi, v, cfg, duration):
    """``psi`` advanced by ``duration`` as one stride of the engine's steps."""
    n_steps = aligned_steps(duration, cfg.dt, "duration")
    phases = _spectral_phases(v, psi.grid, cfg.dt)
    block = psi.amplitudes[np.newaxis].copy()
    for i in range(n_steps):
        block = substep(block, phases, np.array([i == 0]), np.array([i == n_steps - 1]))
    after = float(np.sum(squared_amplitudes(block[0])) * psi.grid.dx)
    if drifted(psi.norm_sq, after):
        raise drift_error(psi.norm_sq, after, n_steps, cfg.dt)
    return WaveFunction(psi.grid, block[0])


def _alone(result):
    """The one row of a hit round's result; raises the row's error."""
    (out,) = result
    if isinstance(out, GrwsimError):
        raise out
    return out


def draw(rho, params, grid, gen):
    """One hit center for position density ``rho``, a one-row draw round."""
    return _alone(_draw_centers(rho[np.newaxis], params, grid, [gen]))


def hit(psi, center, params):
    """``psi`` hit at ``center`` and renormalized, a one-row localize round."""
    amps = _alone(_localize(psi.amplitudes[np.newaxis], [center], params, psi.grid))
    return WaveFunction(psi.grid, amps)


def moments(psi):
    """Mean and variance of position of ``psi``."""
    w = density(psi) * psi.grid.dx
    return weighted_moments(grid_points(psi.grid), w, float(np.sum(w)))


def branch_weights(psi):
    """Level weights of a two-level state, else its weights on ``x < 0``
    and on ``x >= 0``."""
    if psi.levels == 2:
        w = level_weights(psi)
        return float(w[0]), float(w[1])
    return side_weights(density(psi), psi.grid)


def ring_step(colors, markers):
    """One step of the Kac ring map in the site frame, in numpy."""
    return np.roll(colors ^ markers, 1)


def comoving_colors(colors, markers, steps):
    """Ring colors after ``steps`` steps of the ring map, in closed form.

    Entry ``j`` is the ball that started at site ``j`` (co-moving frame);
    ``np.roll(result, steps)`` is the coloring in the site frame.
    """
    return colors ^ _crossed_parity(_parity_prefix(markers), steps)


def two_proportion_test(count_a, total_a, count_b, total_b):
    """Two-sample z-test for equality of proportions; returns (z, p)."""
    from scipy.special import ndtr

    if total_a < 1 or total_b < 1:
        raise InsufficientDataError("both samples must be nonempty")
    fa, fb = count_a / total_a, count_b / total_b
    pooled = (count_a + count_b) / (total_a + total_b)
    denom = pooled * (1.0 - pooled) * (1.0 / total_a + 1.0 / total_b)
    if denom == 0.0:
        z = 0.0 if fa == fb else math.inf
    else:
        z = (fa - fb) / math.sqrt(denom)
    return z, float(2.0 * ndtr(-abs(z)))
