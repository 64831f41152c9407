"""Independent reference values for the test suite.

Everything here is computed with plain math, quadrature on dense grids,
dense matrix exponentials, or pure-Python loops -- never with the package
under test -- so agreement is evidence, not tautology.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

# --- Gaussian integrals, by brute-force quadrature -------------------------


def _quad_grid(span: float = 60.0, points: int = 200_001) -> np.ndarray:
    return np.linspace(-span / 2, span / 2, points)


def gaussian_amp(x: np.ndarray, center: float, sigma: float) -> np.ndarray:
    """Unnormalized amplitude with position standard deviation ``sigma``."""
    return np.exp(-((x - center) ** 2) / (4.0 * sigma**2))


def overlap_quadrature(c1: float, c2: float, sigma: float) -> float:
    """|<g1|g2>| for two normalized packets of equal width."""
    x = _quad_grid()
    g1 = gaussian_amp(x, c1, sigma)
    g2 = gaussian_amp(x, c2, sigma)
    num = np.trapezoid(g1 * g2, x)
    den = math.sqrt(np.trapezoid(g1 * g1, x) * np.trapezoid(g2 * g2, x))
    return float(num / den)


def localized_variance_quadrature(sigma: float | None, a: float) -> float:
    """Position variance right after multiplying by a localization profile.

    ``sigma=None`` means a flat (improper) pre-state, so the density is
    the profile's own square.  The profile's square has standard
    deviation ``a / sqrt(2)``.
    """
    x = _quad_grid()
    profile = np.exp(-(x**2) / (2.0 * a**2))
    amp = profile if sigma is None else gaussian_amp(x, 0.0, sigma) * profile
    density = amp * amp
    density /= np.trapezoid(density, x)
    mean = np.trapezoid(x * density, x)
    return float(np.trapezoid((x - mean) ** 2 * density, x))


def free_dispersion_variance(sigma0: float, t: float) -> float:
    """Textbook spreading law for a free Gaussian packet."""
    return sigma0**2 + (t / (2.0 * sigma0)) ** 2


# --- Dense finite-difference evolution (independent propagator check) ------


def dense_propagate(
    x: np.ndarray,
    dx: float,
    potential: np.ndarray,
    psi0: np.ndarray,
    t: float,
) -> np.ndarray:
    """exp(-iHt) psi0 with a dense periodic central-difference Hamiltonian."""
    n = x.size
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx, (idx + 1) % n] = 1.0
    lap[idx, (idx - 1) % n] = 1.0
    ham = -0.5 * lap / dx**2 + np.diag(potential)
    return expm(-1j * ham * t) @ psi0


def crank_nicolson_propagate(
    dx: float, potential: np.ndarray, psi0: np.ndarray, dt: float, steps: int
) -> np.ndarray:
    """``steps`` Crank-Nicolson (Cayley) steps on the periodic 3-point stencil.

    Solves ``(1 + i dt/2 H) psi' = (1 - i dt/2 H) psi`` with one sparse LU
    factorization: second order in ``dt`` and ``dx``, unconditionally
    stable and exactly unitary, with no Fourier transform anywhere.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = psi0.size
    ones = np.ones(n)
    lap = sp.diags(
        [ones[:1], ones[1:], -2.0 * ones, ones[1:], ones[:1]],
        [-(n - 1), -1, 0, 1, n - 1],
    )
    ham = (-0.5 / dx**2) * lap + sp.diags(potential)
    eye = sp.identity(n)
    lu = spla.splu((eye + 0.5j * dt * ham).tocsc())
    rhs = (eye - 0.5j * dt * ham).tocsr()
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(steps):
        psi = lu.solve(rhs @ psi)
    return psi


# --- Two-level damped oscillation (three-time correlations) -----------------


def damped_envelope(t: float, omega: float, rate: float) -> float:
    """z(t) solving z'' + rate*z' + omega^2 z = 0, z(0)=1, z'(0)=0.

    This is the exact expectation of the level coordinate when hits
    project onto the levels at Poisson rate ``rate`` while the coupling
    rotates the levels at angular frequency ``omega``.
    """
    if rate == 0.0:
        return math.cos(omega * t)
    half = rate / 2.0
    disc = complex(omega * omega - half * half)
    mu = cmath.sqrt(disc)
    if abs(mu) < 1e-12:
        return math.exp(-half * t) * (1.0 + half * t)
    z = cmath.exp(-half * t) * (cmath.cos(mu * t) + (half / mu) * cmath.sin(mu * t))
    return z.real


def three_time_k(omega: float, spacing: float, rate: float) -> float:
    """K = 2 C(spacing) - C(2 spacing) for equally spaced probe times."""
    return 2.0 * damped_envelope(spacing, omega, rate) - damped_envelope(
        2.0 * spacing, omega, rate
    )


def projection_chain_odd_probability(
    omega: float, seg: float, hit_times
) -> float:
    """Odd-flip probability of one segment, by a 2x2 transfer-matrix product.

    The segment starts in level 0 and ends in a readout at ``seg``.  Over a
    gap ``delta`` between projections the precession moves a basis state to
    the other level with probability ``sin^2(omega * delta / 2)``; each
    projection is a step of the two-state chain with that transition
    matrix.  Returns the chain's probability of ending in level 1.
    """
    chain = np.eye(2)
    t_prev = 0.0
    for t in [*sorted(hit_times), seg]:
        p = math.sin(0.5 * omega * (t - t_prev)) ** 2
        chain = chain @ np.array([[1.0 - p, p], [p, 1.0 - p]])
        t_prev = t
    return float(chain[0, 1])


def lg_pair_product(
    omega: float, rate: float, t_first: float, t_second: float, gen
) -> int:
    """q(t_first) * q(t_second) for one trajectory, with scalar amplitudes.

    Collapse hits are homogeneous Poisson events realized as exact level
    projections (far-separated-pointer limit).  Draw order per segment:
    one Poisson count, that many uniforms for hit times, then one uniform
    per projection (hits and readouts alike).
    """
    a, b = 1.0 + 0.0j, 0.0j
    outcomes = []
    t_prev = 0.0
    for t_meas in (t_first, t_second):
        seg = t_meas - t_prev
        if rate > 0.0:
            n_hits = int(gen.poisson(rate * seg))
            hit_times = np.sort(gen.random(n_hits)) * seg if n_hits else ()
        else:
            hit_times = ()
        us = gen.random(len(hit_times) + 1)
        t_local = 0.0
        for h, u in zip(hit_times, us):
            delta = h - t_local
            c, s = math.cos(0.5 * omega * delta), math.sin(0.5 * omega * delta)
            a, b = c * a - 1j * s * b, c * b - 1j * s * a
            p0 = abs(a) ** 2 / (abs(a) ** 2 + abs(b) ** 2)
            a, b = (1.0 + 0.0j, 0.0j) if u < p0 else (0.0j, 1.0 + 0.0j)
            t_local = h
        delta = seg - t_local
        c, s = math.cos(0.5 * omega * delta), math.sin(0.5 * omega * delta)
        a, b = c * a - 1j * s * b, c * b - 1j * s * a
        p0 = abs(a) ** 2 / (abs(a) ** 2 + abs(b) ** 2)
        if us[-1] < p0:
            a, b = 1.0 + 0.0j, 0.0j
            outcomes.append(1)
        else:
            a, b = 0.0j, 1.0 + 0.0j
            outcomes.append(-1)
        t_prev = t_meas
    return outcomes[0] * outcomes[1]


def lg_pair_correlator(
    omega: float, rate: float, t_first: float, t_second: float,
    trajectories: int, master_seed: int, pair_index: int,
) -> float:
    """Mean of :func:`lg_pair_product` over one pair's sub-ensemble.

    Trajectory ``i`` draws from its own Philox-4x64 generator keyed by
    ``(master_seed, pair_index * trajectories + i)``.
    """
    acc = 0
    for i in range(trajectories):
        key = np.array([master_seed, pair_index * trajectories + i], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        acc += lg_pair_product(omega, rate, t_first, t_second, gen)
    return acc / trajectories


# --- Pearson test against a two-outcome law, with plain math ----------------


def chi_square_two_bins(count_1: int, count_2: int, w1: float) -> tuple[float, float]:
    total = count_1 + count_2
    e1, e2 = w1 * total, (1.0 - w1) * total
    stat = (count_1 - e1) ** 2 / e1 + (count_2 - e2) ** 2 / e2
    p = math.erfc(math.sqrt(stat / 2.0))  # survival of chi^2 with 1 dof
    return stat, p


# frozen by hand: counts (750, 250) against weights (0.7, 0.3)
HAND_CHI_SQUARE_STAT = 2500.0 / 700.0 + 2500.0 / 300.0  # = 250/21
HAND_CHI_SQUARE_P = math.erfc(math.sqrt((250.0 / 21.0) / 2.0))


# --- Marker ring, pure Python ------------------------------------------------


def ring_reference_step(colors: list[int], markers: list[int]) -> list[int]:
    """One rotation step: flip while crossing a marked bond, then shift."""
    n = len(colors)
    moved = [colors[i] ^ markers[i] for i in range(n)]
    return [moved[(i - 1) % n] for i in range(n)]


def ring_reference_run(colors: list[int], markers: list[int], steps: int) -> list[int]:
    out = list(colors)
    for _ in range(steps):
        out = ring_reference_step(out, markers)
    return out


def odd_flip_probability(rate: float, steps: int) -> float:
    """Exact sum over odd j of C(k, j) r^j (1 - r)^(k - j), in rationals."""
    r = Fraction(rate)
    return float(sum(
        math.comb(steps, j) * r**j * (1 - r) ** (steps - j)
        for j in range(1, steps + 1, 2)
    ))


# --- Survival-to-rate arithmetic --------------------------------------------


def exponential_median(rate: float) -> float:
    return math.log(2.0) / rate
