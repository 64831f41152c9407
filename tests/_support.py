"""One-state forms of the engine's step, hit and observables for the tests.

They are built on the package's raw-array functions, so unlike
:mod:`_oracles` they call the package; :func:`ring_step` does not.
"""
from __future__ import annotations

import numpy as np

from grwsim import WaveFunction, grid_points
from grwsim.collapse import _draw_centers, _half_grids, _localize
from grwsim.errors import GrwsimError
from grwsim.propagator import aligned_steps, check_drift, substep
from grwsim.qstate import region_sum, squared_amplitudes, weighted_moments


def step(psi, v, cfg, duration):
    """``psi`` advanced by ``duration`` as one stride of the engine's steps."""
    n_steps = aligned_steps(duration, cfg.dt, "duration")
    block = psi.amplitudes[np.newaxis].copy()
    for i in range(n_steps):
        block = substep(
            block, v, psi.grid, cfg, np.array([i == 0]), np.array([i == n_steps - 1])
        )
    after = float(np.sum(squared_amplitudes(block[0])) * psi.grid.dx)
    check_drift(psi.norm_sq, after, n_steps, cfg.dt)
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
    w = psi.density() * psi.grid.dx
    return weighted_moments(grid_points(psi.grid), w, float(np.sum(w)))


def branch_weights(psi, regions=None):
    """Level weights of a two-level state, else the weights of two regions
    (by default the two half-grids)."""
    if psi.levels == 2:
        w = psi.level_weights()
        return float(w[0]), float(w[1])
    pair = regions if regions is not None else _half_grids(psi.grid)
    return tuple(region_sum(psi.density(), psi.grid, r) for r in pair)


def ring_step(colors, markers):
    """One step of the Kac ring map in the site frame, in numpy."""
    return np.roll(colors ^ markers, 1)
