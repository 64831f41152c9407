"""Spontaneous localization: Poisson-timed Gaussian hits on a grid state.

The model adds to unitary evolution a stream of discrete localization
events ("jumps").  Each constituent of a body suffers jumps at a mean
rate ``1/tau``; when ``n_eff`` constituents are entangled through one
collective coordinate, that coordinate is hit at the amplified rate
``n_eff / tau``.  A jump at center ``c`` multiplies the state by the
Gaussian profile ``j(x - c) = K exp(-(x - c)^2 / (2 width^2))`` and
renormalizes;  ``K`` is fixed by the convention ``sum(j^2) dx = 1`` so
that the jump-center density

    P(c) = sum_levels sum_x j(c - x)^2 |psi(x)|^2 dx

is itself normalized (``sum(P) dc = 1``) for any unit-norm state.  Hit
centers are drawn from ``P`` by inverse transform on the grid, which is
what makes branch statistics reproduce the Born weights.

Trajectories interleave propagator steps with jumps whose times are
snapped to the step grid; configuration validation requires
``dt <= 1 / (20 * rate)`` so the snapping error is negligible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    UnresolvedWidthError,
    ValidationError,
    ZeroDensityError,
    ZeroNormError,
)
from .propagator import Potential, PropagatorConfig, step
from .qstate import (
    GridSpec,
    Region,
    WaveFunction,
    ZERO_NORM_FLOOR,
    grid_points,
    position_moments,
    region_weight,
)
from .rng import RngStream

#: a branch whose weight exceeds 1 - DECISION_THRESHOLD counts as definite
DECISION_THRESHOLD = 1e-3

#: localization width must cover at least this many grid spacings
MIN_WIDTH_POINTS = 4

#: maximum rate * dt product accepted by evolve_with_collapse
MAX_RATE_DT = 1.0 / 20.0


@dataclass(frozen=True)
class GrwParams:
    """Localization parameters of one collective coordinate.

    ``tau``   mean waiting time between hits for a single constituent;
    ``width`` localization length of one hit;
    ``n_eff`` number of entangled constituents sharing the coordinate,
              i.e. the rate amplification factor.
    """

    tau: float
    width: float
    n_eff: float = 1.0

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if not self.width > 0:
            raise ValidationError(f"width must be positive, got {self.width}")
        if not self.n_eff >= 1:
            raise ValidationError(f"n_eff must be >= 1, got {self.n_eff}")

    @property
    def rate(self) -> float:
        """Amplified hit rate ``n_eff / tau`` of the collective coordinate."""
        return self.n_eff / self.tau


@dataclass(frozen=True)
class JumpEvent:
    """One localization hit applied to a trajectory."""

    time: float
    center: float
    pre_branch_weights: tuple[float, float]
    post_branch_weights: tuple[float, float]


@dataclass
class TrajectoryRecord:
    """One stochastic realization of a scenario.

    ``times`` / ``branch_weights`` / ``means`` / ``variances`` form the
    sampled observable series.  The record holds no wall-clock field, so
    ensemble files are byte-identical across hosts and worker counts.
    Every event is serialized with ``coordinate_index`` 0: each scenario
    localizes a single collective coordinate.
    """

    scenario: str
    seed: int
    stream_id: int
    events: list[JumpEvent] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    branch_weights: list[tuple[float, float]] = field(default_factory=list)
    means: list[float] = field(default_factory=list)
    variances: list[float] = field(default_factory=list)
    outcome: str = "undecided"
    survival_time: float | None = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": [self.seed, self.stream_id],
            "events": [
                {
                    "time": e.time,
                    "coordinate_index": 0,
                    "center": e.center,
                    "pre_branch_weights": list(e.pre_branch_weights),
                    "post_branch_weights": list(e.post_branch_weights),
                }
                for e in self.events
            ],
            "series": {
                "times": self.times,
                "branch_weights": [list(w) for w in self.branch_weights],
                "means": self.means,
                "variances": self.variances,
            },
            "outcome": self.outcome,
            "survival_time": self.survival_time,
        }


def _require_resolved(params: GrwParams, grid: GridSpec) -> None:
    if params.width < MIN_WIDTH_POINTS * grid.dx:
        raise UnresolvedWidthError(
            f"localization width {params.width} < {MIN_WIDTH_POINTS} dx = "
            f"{MIN_WIDTH_POINTS * grid.dx}"
        )


def jump_profile(center: float, params: GrwParams, grid: GridSpec) -> np.ndarray:
    """Hit profile ``j(x - center)`` normalized so ``sum(j^2) dx = 1``."""
    _require_resolved(params, grid)
    x = grid_points(grid)
    j = np.exp(-((x - center) ** 2) / (2.0 * params.width**2))
    j /= np.sqrt(np.sum(j**2) * grid.dx)
    return j


def _smoothing_kernel(params: GrwParams, grid: GridSpec) -> np.ndarray:
    """Squared hit profile as a periodic kernel with ``sum(k) dx = 1``."""
    n = grid.n_points
    d = grid.dx * np.arange(n)
    d = np.minimum(d, grid.length - d)  # periodic (minimum-image) distance
    kernel = np.exp(-(d**2) / params.width**2)
    kernel /= kernel.sum() * grid.dx
    return kernel


def center_density(psi: WaveFunction, params: GrwParams) -> np.ndarray:
    """Probability density of hit centers over the grid.

    Circular convolution of the position density with the squared hit
    profile; normalized exactly (``sum(P) dx = norm_sq``) because the
    kernel is normalized on the grid itself.
    """
    _require_resolved(params, psi.grid)
    kernel = _smoothing_kernel(params, psi.grid)
    rho = psi.density()
    out = np.fft.irfft(np.fft.rfft(kernel) * np.fft.rfft(rho), n=psi.grid.n_points)
    out *= psi.grid.dx
    return np.maximum(out, 0.0)


def sample_center(
    psi: WaveFunction, params: GrwParams, rng: np.random.Generator
) -> float:
    """Draw one hit center from ``center_density`` by inverse transform."""
    weights = center_density(psi, params) * psi.grid.dx
    total = float(weights.sum())
    if total < 1e-12:
        raise ZeroDensityError(f"center density integrates to {total:.3e}")
    cdf = np.cumsum(weights) / total
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    idx = min(idx, psi.grid.n_points - 1)
    return float(grid_points(psi.grid)[idx])


def branch_weights(
    psi: WaveFunction, regions: tuple[Region, Region] | None = None
) -> tuple[float, float]:
    """Weights of the two outcome branches of a state.

    Two-level states use level weights; single-level states use the two
    outcome regions (default: left and right half of the grid).
    """
    if psi.levels == 2:
        w = psi.level_weights()
        return float(w[0]), float(w[1])
    if regions is None:
        mid = psi.grid.x_min + 0.5 * psi.grid.length
        regions = (
            Region(psi.grid.x_min, mid),
            Region(mid, psi.grid.x_max),
        )
    return region_weight(psi, regions[0]), region_weight(psi, regions[1])


def apply_jump(
    psi: WaveFunction,
    center: float,
    params: GrwParams,
    *,
    time: float = 0.0,
    regions: tuple[Region, Region] | None = None,
) -> tuple[WaveFunction, JumpEvent]:
    """Multiply by the hit profile at ``center`` and renormalize.

    Raises :class:`ZeroNormError` exactly when the residual squared norm
    ``sum |psi * j(x - center)|^2 dx`` falls below ``ZERO_NORM_FLOOR``
    (1e-30), i.e. when the hit lands where the state has practically no
    weight.  Otherwise the returned state has unit norm.  The density
    that :func:`sample_center` draws from is this same residual squared
    norm (up to the periodic wrap at the seam), so sampled centers reach
    the floor only with probability of order ``ZERO_NORM_FLOOR``; explicit
    centers far from all mass reach it routinely.
    """
    profile = jump_profile(center, params, psi.grid)
    pre = branch_weights(psi, regions)
    amps = psi.amplitudes * profile
    reduced = WaveFunction(psi.grid, amps)
    r2 = reduced.norm_sq
    if r2 < ZERO_NORM_FLOOR:
        raise ZeroNormError(
            f"jump at {center} annihilates the state (residual norm^2 {r2:.3e})"
        )
    out = WaveFunction(psi.grid, amps / np.sqrt(r2))
    post = branch_weights(out, regions)
    event = JumpEvent(
        time=time,
        center=center,
        pre_branch_weights=pre,
        post_branch_weights=post,
    )
    return out, event


def schedule_jumps(
    params: GrwParams, horizon: float, rng: np.random.Generator
) -> list[float]:
    """Homogeneous Poisson event times in ``(0, horizon]`` at ``params.rate``."""
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    rate = params.rate
    times: list[float] = []
    if horizon == 0 or rate == 0:
        return times
    scale = 1.0 / rate
    t = rng.exponential(scale)
    while t <= horizon:
        times.append(float(t))
        t += rng.exponential(scale)
    return times


def evolve_with_collapse(
    psi: WaveFunction,
    v: Potential,
    params: GrwParams,
    cfg: PropagatorConfig,
    horizon: float,
    rng_stream: RngStream,
    *,
    scenario: str = "",
    outcome_regions: tuple[Region, Region] | None = None,
    decision_threshold: float = DECISION_THRESHOLD,
) -> TrajectoryRecord:
    """Run one trajectory: unitary steps interleaved with sampled jumps.

    Jump times are snapped to the nearest step boundary, which requires
    ``cfg.dt * params.rate <= 1/20``.  The observable series is sampled
    every ``cfg.steps_per_event_check`` steps and after every jump; the
    survival time is the first sampled instant at which either branch
    weight exceeds ``1 - decision_threshold``, and the outcome latches
    there.  Latching is sound because a decisive hit leaves the other
    branch with weight suppressed like ``exp(-separation^2 / width^2)``
    -- it cannot regrow -- whereas the surviving packet's own tail may
    later spill a few percent across the region boundary while it sloshes
    inside its well, which says nothing about the discarded branch.
    """
    rate = params.rate
    if np.isfinite(rate) and rate > 0 and cfg.dt * rate > MAX_RATE_DT * (1 + 1e-12):
        raise ValidationError(
            f"dt={cfg.dt} too coarse for rate={rate}: need dt <= "
            f"{MAX_RATE_DT / rate}"
        )
    _require_resolved(params, psi.grid)
    n_total = int(round(horizon / cfg.dt))
    if abs(horizon - n_total * cfg.dt) > 1e-9 * max(cfg.dt, horizon):
        raise ValidationError(
            f"horizon {horizon} is not an integer multiple of dt {cfg.dt}"
        )
    gen = rng_stream.generator()
    jump_times = schedule_jumps(params, horizon, gen)
    jump_steps = [min(max(int(round(t / cfg.dt)), 0), n_total) for t in jump_times]

    record = TrajectoryRecord(
        scenario=scenario, seed=rng_stream.seed, stream_id=rng_stream.stream_id
    )

    def sample(state: WaveFunction, t: float) -> None:
        w = branch_weights(state, outcome_regions)
        mean, var = position_moments(state)
        record.times.append(t)
        record.branch_weights.append(w)
        record.means.append(mean)
        record.variances.append(var)
        if record.survival_time is None and max(w) > 1.0 - decision_threshold:
            record.survival_time = t
            record.outcome = "1" if w[0] >= w[1] else "2"

    state = psi
    sample(state, 0.0)
    step_index = 0
    pending = list(zip(jump_steps, jump_times))
    while step_index < n_total or pending:
        if pending and pending[0][0] <= step_index:
            target_step, _ = pending.pop(0)
            snapped = target_step * cfg.dt
            center = sample_center(state, params, gen)
            state, event = apply_jump(
                state, center, params, time=snapped, regions=outcome_regions
            )
            record.events.append(event)
            sample(state, snapped)
            continue
        next_stop = n_total if not pending else min(pending[0][0], n_total)
        stride = min(cfg.steps_per_event_check, next_stop - step_index)
        state = step(state, v, cfg, stride * cfg.dt)
        step_index += stride
        sample(state, step_index * cfg.dt)

    return record
