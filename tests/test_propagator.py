import math

import numpy as np
import pytest

from grwsim import (
    GridSpec,
    Potential,
    PropagatorConfig,
    ValidationError,
    WaveFunction,
    gaussian_packet,
    grid_points,
    premeasurement_evolve,
)
from grwsim.errors import InsufficientSeparationWarning
from grwsim.propagator import _potential_values, _spectral_phases, aligned_steps, substep

from _oracles import (
    crank_nicolson_propagate,
    dense_propagate,
    free_dispersion_variance,
)
from _support import level_weights, moments, step

FREE = Potential(kind="free")


def _conj(psi: WaveFunction) -> WaveFunction:
    return WaveFunction(psi.grid, np.conj(psi.amplitudes))


#: ``spectral`` is the package step; ``crank_nicolson`` is the test oracle
#: that test_methods_agree_on_free_benchmark takes as its reference, held
#: to the same laws so that the reference is checked too
STEPPERS = ["spectral", "crank_nicolson"]


def _evolve(stepper: str, psi: WaveFunction, v: Potential, dt: float, duration: float):
    if stepper == "spectral":
        return step(psi, v, PropagatorConfig(dt), duration)
    amps = crank_nicolson_propagate(
        psi.grid.dx, _potential_values(v, psi.grid), psi.amplitudes[0], dt,
        round(duration / dt),
    )
    return WaveFunction(psi.grid, amps)


@pytest.mark.parametrize("stepper", STEPPERS)
def test_norm_is_preserved(stepper, wide_grid):
    psi = gaussian_packet(wide_grid, 1.0, 0.8, momentum=2.0)
    out = _evolve(stepper, psi, Potential(kind="harmonic", omega=1.0), 0.005, 1.0)
    assert out.norm_sq == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("stepper", STEPPERS)
def test_free_packet_spreads_like_the_closed_form(stepper, wide_grid):
    psi = gaussian_packet(wide_grid, 0.0, 1.0)
    out = _evolve(stepper, psi, FREE, 0.005, 2.0)
    _, var = moments(out)
    assert var == pytest.approx(free_dispersion_variance(1.0, 2.0), rel=0.01)
    assert var == pytest.approx(2.0, rel=0.01)


def test_harmonic_center_swings_as_cosine(grid):
    cfg = PropagatorConfig(dt=0.005)
    psi = gaussian_packet(grid, 3.0, 0.5)
    out = step(psi, Potential(kind="harmonic", omega=1.0), cfg, 1.0)
    mean, _ = moments(out)
    assert mean == pytest.approx(3.0 * math.cos(1.0), rel=0.01)


def test_methods_agree_on_free_benchmark():
    g = GridSpec(-20.0, 20.0, 2048)
    psi = gaussian_packet(g, 0.0, 1.0, momentum=1.0)
    spect = step(psi, FREE, PropagatorConfig(0.005), 1.0)
    # 200 Crank-Nicolson steps of the same dt, on a 3-point stencil
    cn = crank_nicolson_propagate(
        g.dx, _potential_values(FREE, g), psi.amplitudes[0], 0.005, 200
    )
    gap = np.max(np.abs(spect.amplitudes[0] - cn))
    assert gap < 1e-4


def test_spectral_matches_dense_matrix_exponential():
    g = GridSpec(-8.0, 8.0, 128)
    x = grid_points(g)
    v = Potential(kind="harmonic", omega=1.0)
    psi = gaussian_packet(g, 1.0, 0.7)
    evolved = step(psi, v, PropagatorConfig(0.002), 0.5)
    want = dense_propagate(x, g.dx, _potential_values(v, g), psi.amplitudes[0], 0.5)
    # the dense reference uses a 3-point Laplacian, so agreement is
    # limited by its own O(dx^2) dispersion error
    assert np.max(np.abs(evolved.amplitudes[0] - want)) < 5e-3


@pytest.mark.parametrize("stepper", STEPPERS)
def test_conjugation_reverses_the_motion(stepper, grid):
    v = Potential(kind="double_well", barrier_height=2.0, well_separation=3.0)
    psi = gaussian_packet(grid, -1.0, 0.5, momentum=1.5)
    forward = _evolve(stepper, psi, v, 0.01, 0.8)
    back = _conj(_evolve(stepper, _conj(forward), v, 0.01, 0.8))
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-7


def test_well_bottom_packet_stays_put(grid):
    # wells of the two-well profile are exactly harmonic; a packet whose
    # width matches the curvature sits still apart from breathing noise
    sep, sigma = 3.5, 0.25
    omega = 1.0 / (2.0 * sigma**2)
    v = Potential(
        kind="double_well",
        barrier_height=omega**2 * sep**2 / 8.0,
        well_separation=sep,
    )
    psi = gaussian_packet(grid, -sep / 2.0, sigma)
    out = step(psi, v, PropagatorConfig(1.0 / 160.0), 0.75)
    mean, var = moments(out)
    assert mean == pytest.approx(-sep / 2.0, abs=0.02)
    assert var == pytest.approx(sigma**2, rel=0.05)


@pytest.mark.parametrize("stride", [10.0, 2.5, True, np.int64(10)])
def test_event_check_stride_must_be_an_int(stride):
    """A float stride used to fail inside the engine with numpy's
    ``IndexError``, and ``True`` ran as a stride of 1; both are refused as
    a config error."""
    with pytest.raises(ValidationError, match="steps_per_event_check must be an integer"):
        PropagatorConfig(1.0 / 160.0, stride)


def test_duration_must_be_step_aligned():
    assert aligned_steps(0.15, 0.01, "duration") == 15
    with pytest.raises(ValidationError, match="not an integer multiple of dt"):
        aligned_steps(0.0151, 0.01, "duration")


@pytest.mark.parametrize("duration", [-0.01, math.inf, math.nan])
def test_duration_must_be_finite_and_non_negative(duration):
    with pytest.raises(ValidationError, match="duration must be finite and >= 0"):
        aligned_steps(duration, 0.01, "duration")


def test_potential_validation():
    with pytest.raises(ValidationError):
        Potential(kind="banana")
    with pytest.raises(ValidationError):
        Potential(kind="harmonic", omega=0.0)
    with pytest.raises(ValidationError):
        Potential(kind="double_well", barrier_height=1.0, well_separation=0.0)
    for field in ("omega", "barrier_height", "well_separation"):
        base = {"omega": 1.0, "barrier_height": 1.0, "well_separation": 3.0}
        for kind in ("harmonic", "double_well"):
            with pytest.raises(ValidationError, match=f"{field} must be finite"):
                Potential(kind=kind, **{**base, field: math.inf})


@pytest.mark.parametrize(
    "v, dt, part",
    [
        (Potential(kind="harmonic", omega=1e200), 0.01, "potential"),
        (Potential(kind="double_well", barrier_height=1e300,
                   well_separation=1e-10), 0.01, "potential"),
        (Potential(kind="double_well", barrier_height=1.0,
                   well_separation=1e-200), 0.01, "potential"),
        (Potential(kind="harmonic", omega=1e149), 1e10, "potential"),
        (FREE, 1e306, "kinetic"),
    ],
    ids=["harmonic_overflow", "curvature_overflow", "separation_underflow",
         "dt_times_v", "dt_times_k2"],
)
def test_non_finite_phases_are_a_validation_error(grid, v, dt, part):
    with pytest.raises(ValidationError, match=f"{part} step phase is not finite"):
        _spectral_phases(v, grid, dt)


def test_finite_phases_have_unit_modulus(grid):
    """Finite phases, however large their arguments, have unit modulus, so a
    step with them cannot move the norm beyond rounding."""
    v = Potential(kind="harmonic", omega=1e149)
    for phase in _spectral_phases(v, grid, 1.0):
        assert np.allclose(np.abs(phase), 1.0, rtol=0, atol=1e-15)


def test_premeasurement_displaces_and_entangles(wide_grid):
    pointer = gaussian_packet(wide_grid, 0.0, 0.5)
    c1 = math.sqrt(0.3)
    c2 = math.sqrt(0.7)
    out = premeasurement_evolve((c1, c2), pointer, 5.0)
    assert out.levels == 2
    w = level_weights(out)
    assert w[0] == pytest.approx(0.3, abs=1e-9)
    assert w[1] == pytest.approx(0.7, abs=1e-9)
    x = grid_points(wide_grid)
    row0 = np.abs(out.amplitudes[0]) ** 2
    assert float(np.sum(x * row0) / np.sum(row0)) == pytest.approx(5.0, abs=1e-6)


def test_premeasurement_warns_when_pointers_overlap(grid):
    pointer = gaussian_packet(grid, 0.0, 0.5)
    with pytest.warns(InsufficientSeparationWarning):
        premeasurement_evolve((1.0 / math.sqrt(2),) * 2, pointer, 0.2)


def test_premeasurement_rejects_unnormalized_system(grid):
    pointer = gaussian_packet(grid, 0.0, 0.5)
    with pytest.raises(ValidationError):
        premeasurement_evolve((1.0, 1.0), pointer, 5.0)


def test_premeasurement_rejects_zero_displacement(grid):
    pointer = gaussian_packet(grid, 0.0, 0.5)
    with pytest.raises(ValidationError, match="displacement"):
        premeasurement_evolve((1.0 / math.sqrt(2),) * 2, pointer, 0.0)


FLAGS = {
    "all": [True] * 5,
    "none": [False] * 5,
    "mixed": [True, False, False, True, False],
}


@pytest.mark.parametrize("end", FLAGS)
@pytest.mark.parametrize("start", FLAGS)
def test_a_block_step_equals_each_row_alone(grid, start, end):
    """A block whose rows carry all, none or some of the ``start`` and
    ``end`` flags steps each row to the bits it gets stepped alone with
    its own flags."""
    rng = np.random.default_rng(5)
    block = rng.normal(size=(5, 2, grid.n_points)) + 1j * rng.normal(size=(5, 2, grid.n_points))
    phases = _spectral_phases(Potential(kind="harmonic", omega=3.0), grid, 0.01)
    starts, ends = np.array(FLAGS[start]), np.array(FLAGS[end])
    stepped = substep(block.copy(), phases, starts, ends)
    for i in range(len(block)):
        alone = substep(block[i:i + 1].copy(), phases, starts[i:i + 1], ends[i:i + 1])
        assert np.array_equal(stepped[i], alone[0])
