import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from grwsim import (
    GridSpec,
    ValidationError,
    WaveFunction,
    ZeroNormError,
    gaussian_packet,
    grid_points,
    two_peak_state,
)
from grwsim.collapse import _half_grids
from grwsim.errors import GridMismatchError
from grwsim.qstate import normalize

from _oracles import overlap_quadrature
from _support import density, level_weights, moments, side_weights


def test_grid_spacing_and_length():
    g = GridSpec(-8.0, 8.0, 256)
    assert g.length == 16.0
    assert g.dx == pytest.approx(16.0 / 256)
    assert grid_points(g)[0] == -8.0
    assert grid_points(g).size == 256


def test_grid_rejects_bad_bounds():
    with pytest.raises(ValidationError):
        GridSpec(3.0, -3.0, 64)
    with pytest.raises(ValidationError):
        GridSpec(-1.0, 1.0, 4)
    # a grid of infinite length, its bounds finite or not, is refused by
    # the rule it breaks, not met later as an under-resolved packet
    for bounds in [(-8.0, math.inf), (-math.inf, 8.0), (-math.inf, math.inf), (-1e308, 1e308)]:
        with pytest.raises(ValidationError, match="finite length x_max - x_min"):
            GridSpec(*bounds, 256)


@pytest.mark.parametrize("n_points", [256.0, True, np.int64(256), "256"])
def test_grid_point_count_must_be_an_int(n_points):
    """A float, bool, numpy or string count is refused as a config error,
    not met later as a numpy ``TypeError``."""
    with pytest.raises(ValidationError, match="n_points must be an integer"):
        GridSpec(-8.0, 8.0, n_points)


def test_packet_is_normalized_with_expected_moments(grid):
    psi = gaussian_packet(grid, center=-1.25, width=0.5)
    assert psi.norm_sq == pytest.approx(1.0, abs=1e-12)
    mean, var = moments(psi)
    assert mean == pytest.approx(-1.25, abs=1e-9)
    assert var == pytest.approx(0.25, rel=1e-6)


def test_momentum_phase_leaves_density_alone(grid):
    still = gaussian_packet(grid, 0.5, 0.4)
    moving = gaussian_packet(grid, 0.5, 0.4, momentum=3.0)
    assert np.allclose(density(still), density(moving), atol=1e-12)


def test_packet_overlap_matches_quadrature(grid):
    a = gaussian_packet(grid, -0.9, 0.5)
    b = gaussian_packet(grid, 0.9, 0.5)
    got = abs(np.vdot(a.amplitudes, b.amplitudes) * grid.dx)
    want = overlap_quadrature(-0.9, 0.9, 0.5)
    assert got == pytest.approx(want, rel=1e-6)
    # same thing in closed form, as a sanity anchor
    assert want == pytest.approx(math.exp(-(1.8**2) / (8 * 0.25)), rel=1e-9)


def test_packet_width_must_be_resolved(grid):
    with pytest.raises(ValidationError):
        gaussian_packet(grid, 0.0, width=grid.dx)


def test_packet_must_fit_inside_grid(grid):
    with pytest.raises(ValidationError):
        gaussian_packet(grid, center=7.9, width=0.5)


def test_two_peak_state_weights(grid):
    psi = two_peak_state(
        grid, math.sqrt(0.7), math.sqrt(0.3), centers=(-1.75, 1.75), width=0.25
    )
    assert psi.norm_sq == pytest.approx(1.0, abs=1e-12)
    left, right = side_weights(density(psi), grid)
    assert left == pytest.approx(0.7, abs=1e-9)
    assert right == pytest.approx(0.3, abs=1e-9)


def test_two_level_weights(grid):
    psi = gaussian_packet(grid, 0.0, 0.5, levels=2, level=1)
    assert psi.levels == 2
    w = level_weights(psi)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[1] == pytest.approx(1.0, abs=1e-12)


def test_normalize_rejects_null_state(grid):
    null = WaveFunction(grid, np.zeros(grid.n_points, dtype=complex))
    with pytest.raises(ZeroNormError):
        normalize(null)


def test_region_weight_needs_region_inside_grid():
    """The outcome regions are the two sides of x = 0, so a grid with
    points on one side only has no pair of them; ``[-8, 0.01)`` holds 0
    but has no point at or past it."""
    for bounds in [(0.0, 16.0), (-16.0, 0.0), (-8.0, 0.01)]:
        with pytest.raises(ValidationError, match="sides of x = 0"):
            _half_grids(GridSpec(*bounds, 8))


def test_amplitudes_are_read_only(grid):
    psi = gaussian_packet(grid, 0.0, 0.5)
    with pytest.raises(ValueError):
        psi.amplitudes[0, 0] = 1.0


@pytest.mark.parametrize("levels", [1, 2])
def test_rows_must_match_the_grid(grid, levels):
    rows = np.zeros((levels, grid.n_points + 1), dtype=complex)
    with pytest.raises(GridMismatchError, match=f"row length {grid.n_points + 1}"):
        WaveFunction(grid, rows)


def test_non_finite_amplitudes_rejected(grid):
    bad = np.full(grid.n_points, np.nan, dtype=complex)
    with pytest.raises(ValidationError):
        WaveFunction(grid, bad)


@given(
    center=st.floats(-2.0, 2.0),
    width=st.floats(0.3, 1.1),
    momentum=st.floats(-4.0, 4.0),
)
def test_packets_always_normalized(center, width, momentum):
    g = GridSpec(-8.0, 8.0, 256)
    psi = gaussian_packet(g, center, width, momentum=momentum)
    assert psi.norm_sq == pytest.approx(1.0, abs=1e-10)
    assert np.all(density(psi) >= 0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    split=st.floats(-3.0, 3.0),
)
def test_region_weights_partition_norm(seed, split):
    g = GridSpec(-8.0, 8.0, 128)
    raw = np.random.default_rng(seed).normal(size=(128, 2)) @ np.array([1.0, 1j])
    psi = normalize(WaveFunction(g, raw))
    left, right = side_weights(density(psi), g, split)
    assert 0.0 <= left <= 1.0 + 1e-12
    assert left + right == pytest.approx(1.0, abs=1e-9)


@given(
    lo=st.floats(-12.0, -0.01),
    hi=st.floats(0.01, 12.0),
    n_points=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_region_weight_equals_the_boolean_mask_sum(lo, hi, n_points, seed):
    """The engine's outcome slices add exactly what the masks ``x < 0`` and
    ``x >= 0`` add, in the same order, on any grid around 0."""
    g = GridSpec(lo, hi, n_points)
    assume(grid_points(g)[-1] >= 0.0)
    raw = np.random.default_rng(seed).normal(size=(n_points, 2)) @ np.array([1.0, 1j])
    rho = density(WaveFunction(g, raw))
    left, right = _half_grids(g)
    sums = (float(np.sum(rho[left]) * g.dx), float(np.sum(rho[right]) * g.dx))
    assert sums == side_weights(rho, g)
