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

One engine, :func:`evolve_batch`, runs every trajectory: it steps a block
of trajectories that share an initial state in lockstep, one batched FFT
pair per ``dt``, while each row keeps its own stream, draw order, strides
and checks.  Its docstring is the engine contract.  The hit math works
on raw rows, one hit round of a block at a time: :func:`_density_to_centers`
gives ``P`` for position densities, :func:`_draw_centers` draws one
center per row from it and :func:`_localize` applies the hits.  Each
round costs one batched FFT pair, one cumulative sum, one center search
and one profile evaluation for all of its rows, and gives every row the
bits of a one-row round.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GrwsimError,
    UnresolvedWidthError,
    ValidationError,
    ZeroDensityError,
    ZeroNormError,
)
from .propagator import (
    Potential,
    PropagatorConfig,
    _spectral_phases,
    aligned_steps,
    drift_error,
    drifted,
    substep,
)
from .qstate import (
    GridSpec,
    WaveFunction,
    ZERO_NORM_FLOOR,
    grid_points,
    squared_amplitudes,
)

#: a branch whose weight exceeds 1 - DECISION_THRESHOLD counts as definite
DECISION_THRESHOLD = 1e-3

#: localization width must cover at least this many grid spacings
MIN_WIDTH_POINTS = 4

#: maximum rate * dt product accepted by evolve_batch
MAX_RATE_DT = 1.0 / 20.0


@dataclass(frozen=True)
class GrwParams:
    """Localization parameters of one collective coordinate.

    ``tau``   mean waiting time between hits for a single constituent;
              ``inf`` (no hits) is legal, and is how unitary mode runs;
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
        if not 1 <= self.n_eff < np.inf:
            raise ValidationError(f"n_eff must be finite and >= 1, got {self.n_eff}")

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


def jump_profile(
    center: float | np.ndarray, params: GrwParams, grid: GridSpec
) -> np.ndarray:
    """Hit profile ``j(x - center)`` normalized so ``sum(j^2) dx = 1``.

    ``center`` may be an array of centers; the result then has shape
    ``center.shape + (n_points,)``, one profile per center, each with the
    bits of its scalar call.
    """
    _require_resolved(params, grid)
    x = grid_points(grid)
    d = x - np.asarray(center)[..., np.newaxis]
    j = np.exp(-(d**2) / (2.0 * params.width**2))
    j /= np.sqrt(np.sum(j**2, axis=-1, keepdims=True) * grid.dx)
    return j


def _smoothing_kernel(params: GrwParams, grid: GridSpec) -> np.ndarray:
    """Squared hit profile as a periodic kernel with ``sum(k) dx = 1``."""
    n = grid.n_points
    d = grid.dx * np.arange(n)
    d = np.minimum(d, grid.length - d)  # periodic (minimum-image) distance
    kernel = np.exp(-(d**2) / params.width**2)
    kernel /= kernel.sum() * grid.dx
    return kernel


@lru_cache(maxsize=64)
def _kernel_spectrum(params: GrwParams, grid: GridSpec) -> np.ndarray:
    """``rfft`` of :func:`_smoothing_kernel` (cached, read-only)."""
    out = np.fft.rfft(_smoothing_kernel(params, grid))
    out.setflags(write=False)
    return out


def _density_to_centers(rho: np.ndarray, params: GrwParams, grid: GridSpec) -> np.ndarray:
    """Hit-center density ``P`` of each position density along the last
    axis of ``rho``.

    Circular convolution of ``rho`` with the squared hit profile;
    normalized exactly (``sum(P) dx = sum(rho) dx``) because the kernel is
    normalized on the grid itself.  Each row transforms alone, so a row
    gets the same bits in a stack as by itself.
    """
    spectrum = _kernel_spectrum(params, grid) * np.fft.rfft(rho, axis=-1)
    out = np.fft.irfft(spectrum, n=grid.n_points, axis=-1)
    out *= grid.dx
    return np.maximum(out, 0.0)


def _draw_centers(
    rho: np.ndarray, params: GrwParams, grid: GridSpec, gens
) -> list[float | ZeroDensityError]:
    """One hit center per row of the position densities ``rho``.

    Row ``i`` draws one uniform ``u`` from ``gens[i]``, in row order, and
    gets the grid point where ``u`` falls in its center density: the point
    at the count of its normalized cumulative weights ``<= u`` (what
    ``searchsorted(..., side="right")`` returns on a sorted row), clamped
    to the last point.  A row whose center density integrates below
    ``1e-12`` gets a :class:`ZeroDensityError` instead and draws nothing.
    """
    weights = _density_to_centers(rho, params, grid) * grid.dx
    totals = weights.sum(axis=-1)
    drawing = ~(totals < 1e-12)
    cdfs = np.cumsum(weights[drawing], axis=-1)
    cdfs /= totals[drawing, np.newaxis]
    u = np.array([gen.random() for gen, draws in zip(gens, drawing.tolist()) if draws])
    idx = (cdfs <= u[:, np.newaxis]).sum(axis=-1)
    found = iter(grid_points(grid)[np.minimum(idx, grid.n_points - 1)].tolist())
    return [
        next(found) if draws
        else ZeroDensityError(f"center density integrates to {total:.3e}")
        for draws, total in zip(drawing.tolist(), totals.tolist())
    ]


def _half_grids(grid: GridSpec) -> tuple[slice, slice]:
    """Index slices of the points with ``x < 0`` and with ``x >= 0``: the
    two outcomes of a one-level cat, whose branches sit at ``-+`` half its
    separation.  The grid is sorted, so each side is one run of indices,
    and summing a slice adds what a boolean mask would, in the same order.
    """
    zero = int(np.searchsorted(grid_points(grid), 0.0))
    if not 0 < zero < grid.n_points:
        raise ValidationError(
            f"a one-level state's outcomes are the two sides of x = 0, and "
            f"grid [{grid.x_min}, {grid.x_max}) has points on one side only"
        )
    return slice(0, zero), slice(zero, grid.n_points)


def _observe(block: np.ndarray, x: np.ndarray, dx: float, slices: tuple[slice, slice]):
    """Observables of every row of a ``(rows, levels, n_points)`` block.

    Returns arrays ``(norms, rho, weights, totals, means, variances)``
    over the rows: squared norms, position densities, branch-weight pairs
    (``(rows, 2)``: level weights for two levels, else the sums of ``rho``
    over the two index ``slices``), the sums of ``rho * dx``, and the mean
    and variance of position ``x`` under ``rho * dx``.  A row whose total
    is below ``ZERO_NORM_FLOOR`` has no moments; its entries are left as
    the division gives them.

    Every reduction runs along the last axis, or adds the levels
    elementwise, and each row gets the same bits as it would alone: an
    axis-wise sum is batch-invariant on numpy 2.x.
    """
    sq = np.square(block.real)
    sq += np.square(block.imag)
    norms = sq.reshape(len(sq), -1).sum(axis=1) * dx
    if sq.shape[1] == 2:
        rho = sq.sum(axis=1)
        weights = sq.sum(axis=2)
    else:
        rho = sq[:, 0]
        weights = np.empty((len(sq), 2))
        for k, s in enumerate(slices):
            rho[:, s].sum(axis=1, out=weights[:, k])
    weights *= dx
    w = rho * dx
    totals = w.sum(axis=1)
    spread = w * x
    with np.errstate(divide="ignore", invalid="ignore"):
        means = spread.sum(axis=1) / totals
        np.subtract(x, means[:, np.newaxis], out=spread)
        spread *= spread
        spread *= w
        variances = spread.sum(axis=1) / totals
    return norms, rho, weights, totals, means, variances


def _localize(
    amps: np.ndarray, centers, params: GrwParams, grid: GridSpec
) -> list[np.ndarray | ZeroNormError]:
    """Each row of raw amplitudes ``amps`` hit at its center, renormalized.

    ``amps`` is a ``(rows, levels, n_points)`` stack and ``centers`` holds
    one center per row.  Row ``i`` comes back multiplied by the hit profile
    at ``centers[i]`` and rescaled to unit norm, or as a
    :class:`ZeroNormError` exactly when its residual squared norm
    ``sum |amps[i] * j(x - centers[i])|^2 dx`` falls below
    ``ZERO_NORM_FLOOR`` (1e-30), i.e. when the hit lands where the state
    has practically no weight.  The density that :func:`_draw_centers`
    draws from is this same residual squared norm (up to the periodic wrap
    at the seam), so sampled centers reach the floor only with probability
    of order ``ZERO_NORM_FLOOR``; explicit centers far from all mass reach
    it routinely.
    """
    reduced = amps * jump_profile(centers, params, grid)[:, np.newaxis, :]
    r2 = squared_amplitudes(reduced).reshape(len(reduced), -1).sum(axis=1) * grid.dx
    passed = ~(r2 < ZERO_NORM_FLOOR)
    reduced[passed] /= np.sqrt(r2[passed])[:, np.newaxis, np.newaxis]
    return [
        row if ok else ZeroNormError(
            f"jump at {center} annihilates the state (residual norm^2 {norm_sq:.3e})"
        )
        for row, ok, center, norm_sq in zip(
            reduced, passed.tolist(), centers, r2.tolist()
        )
    ]


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


class _Row:
    """Bookkeeping of one trajectory in a lockstep block; its step counters
    and last squared norm are arrays over the block."""

    __slots__ = ("index", "record", "gen", "pending")

    def __init__(self, index: int, record: TrajectoryRecord, gen, pending):
        self.index = index
        self.record = record
        self.gen = gen
        self.pending = pending  # snapped steps of the hits to come, ascending


def evolve_batch(
    psi: WaveFunction,
    v: Potential,
    params: GrwParams,
    cfg: PropagatorConfig,
    horizon: float,
    rng_streams,
    *,
    scenario: str = "",
) -> list[TrajectoryRecord | GrwsimError]:
    """Run one trajectory per stream from ``psi``, all stepped in lockstep.

    Draw order on each stream: the whole Poisson schedule of hit times in
    ``(0, horizon]`` first (:func:`schedule_jumps`), then one uniform per
    hit, in time order, for its center.  Jump times are snapped to the
    nearest step boundary, which requires ``cfg.dt * params.rate <= 1/20``
    (``MAX_RATE_DT``), so the snapping error is negligible.

    Strides: from the start and after every jump, a row is stepped by
    ``cfg.steps_per_event_check`` steps, cut short at its next jump's
    snapped step and at the horizon, and sampled at each stride's end,
    after every jump, and at time 0.  Each stride is one Strang product
    (half potential phase at both of its ends) and must keep the norm
    within ``STEP_NORM_TOLERANCE``; a NaN or infinite norm fails that
    check.  Hits due at the same step are applied one after another, each
    followed by a sample.  A one-level state's branch weights are its
    weights on ``x < 0`` (outcome 1) and on ``x >= 0`` (outcome 2), so its
    grid must have points on both sides; a two-level state's are its level
    weights.

    The survival time is the first sampled instant at which either branch
    weight exceeds ``1 - DECISION_THRESHOLD``, and the outcome latches
    there.  Latching is sound because a decisive hit leaves the other
    branch with weight suppressed like ``exp(-separation^2 / width^2)``
    -- it cannot regrow -- whereas the surviving packet's own tail may
    later spill a few percent across x = 0 while it sloshes inside its
    well, which says nothing about the discarded branch.

    The trajectories form one ``(rows, levels, n_points)`` block, and each
    global step advances every row by one ``dt`` through
    :func:`~grwsim.propagator.substep`.  Each row keeps the schedule above
    exactly, so its record is the one it would get alone.  At each step
    the rows that are due are observed together (:func:`_observe`).  The
    observed rows with a hit due form one hit round: their centers are
    drawn together (:func:`_draw_centers`, one uniform per row from the
    row's own stream, so each row keeps its draw order), the hits are
    applied together (:func:`_localize`), and the rows just hit are
    observed together for the next round, until no observed row has a
    hit due at this step.  Every reduction of a round (norms, densities,
    branch weights, moments, center-density totals and cumulative sums)
    runs along the last axis, and every transform row by row, which gives
    each row its solo bits.  The drift check, the zero-weight guard, the
    survival latch's threshold and the due-hit test are array comparisons
    over a round's rows; per row remain the appends to the record, the
    errors of the rows that fail, and the stream draws.
    ``test_artifacts_identical_for_any_worker_count``,
    ``test_observing_a_block_equals_each_row_alone`` and
    ``test_a_hit_round_equals_one_row_rounds`` fail if a numpy release
    breaks this batch invariance.

    Returns, in stream order, each row's record, or the
    :class:`GrwsimError` that retired it mid-run (for example
    ZeroNormError, ZeroDensityError or UnstableStepError); a retired row
    leaves the other rows untouched.  Errors that concern every row alike
    (the guards on ``dt``, width, horizon and, for one level, the grid's
    two sides of 0) are raised, before any stream is drawn from.
    """
    grid = psi.grid
    rate = params.rate
    if not cfg.dt * rate <= MAX_RATE_DT * (1 + 1e-12):
        raise ValidationError(
            f"dt={cfg.dt} too coarse for rate={rate}: need dt <= "
            f"{MAX_RATE_DT / rate}"
        )
    _require_resolved(params, grid)
    n_total = aligned_steps(horizon, cfg.dt, "horizon")
    phases = _spectral_phases(v, grid, cfg.dt)
    dx, x = grid.dx, grid_points(grid)
    slices = _half_grids(grid) if psi.levels == 1 else None

    rows = []
    for index, stream in enumerate(rng_streams):
        gen = stream.generator()
        jump_steps = [
            min(max(int(round(t / cfg.dt)), 0), n_total)
            for t in schedule_jumps(params, horizon, gen)
        ]
        record = TrajectoryRecord(
            scenario=scenario, seed=stream.seed, stream_id=stream.stream_id
        )
        rows.append(_Row(index, record, gen, jump_steps))
    results: list = [None] * len(rows)

    def retire(pos: int, exc: GrwsimError) -> None:
        results[rows[pos].index] = exc
        retired.append(pos)

    no_hit = n_total + 1  # next_hit of a row with no hit to come
    block = np.repeat(psi.amplitudes[np.newaxis], len(rows), axis=0)
    stride_end = np.zeros(len(rows), dtype=np.int64)
    stride_start = np.zeros(len(rows), dtype=np.int64)
    norm_sq = np.zeros(len(rows))  # squared norm at each row's last sample
    next_hit = np.array([row.pending[0] if row.pending else no_hit for row in rows],
                        dtype=np.int64)
    due = stride_end == 0
    for g in range(n_total + 1):
        if g:
            starting = due
            due = stride_end == g
            block = substep(block, phases, starting, due)
        t = g * cfg.dt
        sampled = np.flatnonzero(due)
        retired = []
        # observe the due rows together, then, round by round, the rows just
        # hit, each with the center of its hit
        pos, centers = sampled, None
        while pos.size:
            norms, rho, weights, totals, means, variances = _observe(
                block if pos.size == len(block) else block[pos], x, dx, slices
            )
            before = norm_sq[pos]
            # only the first round's rows after step 0 end a stride
            unstable = drifted(before, norms) & (g > 0 and centers is None)
            failed = unstable | (totals < ZERO_NORM_FLOOR)
            norm_sq[pos] = norms
            w1, w2 = weights[:, 0], weights[:, 1]
            # max((w1, w2)) as Python takes it, a NaN weight included
            latching = np.where(w2 > w1, w2, w1) > 1.0 - DECISION_THRESHOLD
            observed = zip(pos.tolist(), failed.tolist(), map(tuple, weights.tolist()),
                           means.tolist(), variances.tolist(), latching.tolist())
            for i, (p, fail, bw, mean, var, latch) in enumerate(observed):
                if fail:
                    if unstable[i]:
                        retire(p, drift_error(float(before[i]), float(norms[i]),
                                              g - int(stride_start[p]), cfg.dt))
                    else:
                        retire(p, ZeroNormError("state has no weight; moments undefined"))
                    continue
                rec = rows[p].record
                rec.times.append(t)
                rec.branch_weights.append(bw)
                rec.means.append(mean)
                rec.variances.append(var)
                if latch and rec.survival_time is None:
                    rec.survival_time = t
                    rec.outcome = "1" if bw[0] >= bw[1] else "2"
                if centers is not None:
                    rec.events.append(JumpEvent(t, centers[i], rec.branch_weights[-2], bw))
            # this round's hits: every center drawn, then every row localized
            hits = ~failed & (next_hit[pos] <= g)
            hitting = pos[hits].tolist()
            if not hitting:
                break
            for p in hitting:
                pending = rows[p].pending
                pending.pop(0)
                next_hit[p] = pending[0] if pending else no_hit
            drawing, spots = [], []
            drawn = _draw_centers(rho[hits], params, grid, [rows[p].gen for p in hitting])
            for p, center in zip(hitting, drawn):
                if isinstance(center, GrwsimError):
                    retire(p, center)
                else:
                    drawing.append(p)
                    spots.append(center)
            if not drawing:
                break
            kept, centers = [], []
            for p, spot, amps in zip(
                drawing, spots, _localize(block[drawing], spots, params, grid)
            ):
                if isinstance(amps, GrwsimError):
                    retire(p, amps)
                else:
                    block[p] = amps
                    kept.append(p)
                    centers.append(spot)
            pos = np.array(kept, dtype=np.int64)
        # a retired row's entries are dropped below
        stride_end[sampled] = np.minimum(
            next_hit[sampled], min(g + cfg.steps_per_event_check, n_total)
        )
        stride_start[sampled] = g
        if retired:
            keep = np.ones(len(rows), dtype=bool)
            keep[retired] = False
            block, stride_end, stride_start, norm_sq, next_hit, due = (
                a[keep] for a in (block, stride_end, stride_start, norm_sq, next_hit, due)
            )
            rows = [row for row, k in zip(rows, keep.tolist()) if k]

    for row in rows:
        results[row.index] = row.record
    return results
