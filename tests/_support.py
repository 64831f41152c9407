"""One-state forms of the engine's step, hit and observables for the tests.

They are built on the package's raw-array functions, so unlike
:mod:`_oracles` they call the package; :func:`ring_step` and
:func:`two_proportion_test` do not.  The per-state reductions
(:func:`density`, :func:`level_weights`, :func:`side_weights`,
:func:`weighted_moments`) are the reference that the engine's block
observation is held to.  :func:`outcome_block` builds the stand-in
batches that ensemble tests hand to ``run_ensemble``.
"""
from __future__ import annotations

import math

import numpy as np

from grwsim import WaveFunction, grid_points
from grwsim.collapse import _BlockRecords, _draw_centers, _localize
from grwsim.errors import InsufficientDataError, ZeroNormError
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


def _alone(values, faults):
    """The one row of a one-row round's values; raises the row's fault."""
    if faults:
        raise faults[0]
    (out,) = values
    return out


def draw(rho, params, grid, gen):
    """One hit center for position density ``rho``, a one-row draw round."""
    return float(_alone(*_draw_centers(rho[np.newaxis], params, grid, [gen])))


def hit(psi, center, params):
    """``psi`` hit at ``center`` and renormalized, a one-row localize round."""
    block = psi.amplitudes[np.newaxis].copy()
    faults = _localize(block, np.arange(1), np.array([center], dtype=float), params, psi.grid)
    return WaveFunction(psi.grid, _alone(block, faults))


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


#: the one sample of an :func:`outcome_block` row with each outcome
OUTCOME_WEIGHTS = {"1": (1.0, 0.0), "2": (0.0, 1.0), "undecided": (0.5, 0.5)}


def outcome_block(scenario, master_seed, indices, outcomes, time=0.5):
    """A hand-built batch of rows ``indices``, one per entry of
    ``outcomes`` ("1", "2" or "undecided"): each row has one sample at
    ``time`` with the weights :data:`OUTCOME_WEIGHTS` gives its outcome,
    latched there unless undecided, and no event.  A fake marks a row as
    failed by setting ``block.errors[i]``."""
    n = len(indices)
    none = np.zeros(n, dtype=np.int64)
    return _BlockRecords(
        scenario, [(master_seed, index) for index in indices], [None] * n,
        times=np.full(n, time), weights=np.array([OUTCOME_WEIGHTS[o] for o in outcomes]
                                                 ).reshape(n, 2),
        means=np.zeros(n), variances=np.zeros(n), first=np.arange(n), sampled=none + 1,
        latch=np.array([-1 if o == "undecided" else 0 for o in outcomes], dtype=np.int64),
        hit_first=none, taken=none, centers=np.empty(0), pre=none[:0], pending=none - 1,
    )


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
