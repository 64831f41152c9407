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
and checks.  Rows share their hit-free prefix: one never-hit "ghost" row
is stepped from the initial state, a row joins the block at the last
stride end before its first hit with the ghost's state and samples, and a
row with no hit takes the ghost's whole series.  When no record is kept,
a row leaves the block at its decision.  Its docstring is the engine
contract.  The hit math works
on raw rows, one hit round of a block at a time, in array operations:
:func:`_density_to_centers` gives ``P`` for position densities,
:func:`_draw_centers` draws an array of centers, one per row, from it, and
:func:`_localize` hits the rows of the block in place.  Both return the
rows that fault as a map from the row's index in the round to its error.
Each round costs one batched FFT pair, one cumulative sum, one center
search, one profile evaluation and one scatter for all of its rows, and
gives every row the bits of a one-row round.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii

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

#: most rows :func:`_observe` reduces, or :func:`evolve_batch` moves, at a
#: time, which bounds their temporaries
OBSERVE_ROWS = 64


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
    """One stochastic realization of a scenario, run to its horizon.

    ``times`` / ``branch_weights`` / ``means`` / ``variances`` form the
    sampled observable series.  The record holds no wall-clock field, so
    ensemble files are byte-identical across hosts and worker counts.
    Every event is serialized with ``coordinate_index`` 0: each scenario
    localizes a single collective coordinate.  A row that left its block
    at its decision has no record, only its tally
    (:meth:`_BlockRecords.tally`).
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
) -> tuple[np.ndarray, dict[int, ZeroDensityError]]:
    """One hit center per row of the position densities ``rho``.

    Returns ``(centers, faults)``.  Row ``i`` draws one uniform ``u`` from
    ``gens[i]``, in row order, and its center is the grid point where
    ``u`` falls in its center density: the point at the count of its
    normalized cumulative weights ``<= u`` (what ``searchsorted(...,
    side="right")`` returns on a sorted row), clamped to the last point.
    A row whose center density integrates below ``1e-12`` draws nothing:
    its center is NaN and ``faults[i]`` its :class:`ZeroDensityError`.
    """
    weights = _density_to_centers(rho, params, grid) * grid.dx
    totals = weights.sum(axis=-1)
    drawing = ~(totals < 1e-12)
    cdfs = np.cumsum(weights[drawing], axis=-1)
    cdfs /= totals[drawing, np.newaxis]
    u = np.array([gen.random() for gen, draws in zip(gens, drawing.tolist()) if draws])
    idx = (cdfs <= u[:, np.newaxis]).sum(axis=-1)
    centers = np.full(len(rho), np.nan)
    centers[drawing] = grid_points(grid)[np.minimum(idx, grid.n_points - 1)]
    return centers, {
        i: ZeroDensityError(f"center density integrates to {totals[i]:.3e}")
        for i in np.flatnonzero(~drawing).tolist()
    }


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


def _density(sq: np.ndarray) -> np.ndarray:
    """Position densities of the rows of a ``(rows, levels, n_points)``
    stack of :func:`~grwsim.qstate.squared_amplitudes`: the sum of the two
    levels, or the one level itself."""
    return sq.sum(axis=1) if sq.shape[1] == 2 else sq[:, 0]


def _observe(
    block: np.ndarray, x: np.ndarray, dx: float, slices: tuple[slice, slice], rows=None
):
    """Observables of the rows ``rows`` (all rows if None) of a
    ``(rows, levels, n_points)`` block.

    Returns arrays ``(norms, weights, totals, means, variances)`` over the
    rows: squared norms, branch-weight pairs (``(rows, 2)``: level weights
    for two levels, else the sums of the position density over the two
    index ``slices``), the sums of the density times ``dx``, and the mean
    and variance of position ``x`` under that weight.  A row whose total
    is below ``ZERO_NORM_FLOOR`` has no moments; its entries are left as
    the division gives them.

    The rows are taken ``OBSERVE_ROWS`` at a time, as views when ``rows``
    is None, so the temporaries stay a few chunk-sized arrays however large
    the block.  Every reduction runs along the last axis, or adds the
    levels elementwise, and each row gets the same bits as it would alone:
    an axis-wise sum is batch-invariant on numpy 2.x.
    """
    n = len(block) if rows is None else len(rows)
    norms, totals, means, variances = (np.empty(n) for _ in range(4))
    weights = np.empty((n, 2))
    for lo in range(0, n, OBSERVE_ROWS):
        hi = min(lo + OBSERVE_ROWS, n)
        sq = squared_amplitudes(block[lo:hi] if rows is None else block[rows[lo:hi]])
        np.multiply(sq.reshape(hi - lo, -1).sum(axis=1), dx, out=norms[lo:hi])
        rho = _density(sq)
        if sq.shape[1] == 2:
            sq.sum(axis=2, out=weights[lo:hi])
        else:
            for k, s in enumerate(slices):
                rho[:, s].sum(axis=1, out=weights[lo:hi, k])
        w = rho * dx
        w.sum(axis=1, out=totals[lo:hi])
        spread = w * x
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(spread.sum(axis=1), totals[lo:hi], out=means[lo:hi])
            np.subtract(x, means[lo:hi, np.newaxis], out=spread)
            spread *= spread
            spread *= w
            np.divide(spread.sum(axis=1), totals[lo:hi], out=variances[lo:hi])
    weights *= dx
    return norms, weights, totals, means, variances


def _localize(
    block: np.ndarray, pos: np.ndarray, centers: np.ndarray, params: GrwParams,
    grid: GridSpec
) -> dict[int, ZeroNormError]:
    """Hit rows ``pos`` of the ``(rows, levels, n_points)`` amplitude
    ``block`` in place, row ``pos[i]`` at ``centers[i]``.

    Each row is multiplied by the hit profile at its center, rescaled to
    unit norm, and written back with the others in one scatter.  Returns
    ``faults``: ``faults[i]`` is a :class:`ZeroNormError`, and row
    ``pos[i]`` is left as it was, exactly when its residual squared norm
    ``sum |block[pos[i]] * j(x - centers[i])|^2 dx`` falls below
    ``ZERO_NORM_FLOOR`` (1e-30), i.e. when the hit lands where the state
    has practically no weight.  The density that :func:`_draw_centers` draws from is this
    same residual squared norm (up to the periodic wrap at the seam), so
    sampled centers reach the floor only with probability of order
    ``ZERO_NORM_FLOOR``; explicit centers far from all mass reach it
    routinely.  ``pos`` must not be empty.
    """
    reduced = block[pos] * jump_profile(centers, params, grid)[:, np.newaxis, :]
    r2 = squared_amplitudes(reduced).reshape(len(reduced), -1).sum(axis=1) * grid.dx
    passed = ~(r2 < ZERO_NORM_FLOOR)
    block[pos[passed]] = reduced[passed] / np.sqrt(r2[passed])[:, np.newaxis, np.newaxis]
    return {
        i: ZeroNormError(
            f"jump at {float(centers[i])} annihilates the state "
            f"(residual norm^2 {r2[i]:.3e})"
        )
        for i in np.flatnonzero(~passed).tolist()
    }


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


def _sample_bound(n_total: int, steps_per_check: int, n_hits):
    """Most samples a row with ``n_hits`` scheduled hits can take, over
    ``n_total`` steps; elementwise for an array of hit counts.

    One at time 0, one after each hit, and one at each stride end.  The
    hits cut the run into ``n_hits + 1`` segments of strides, and segments
    of ``a`` and ``b`` steps end at most ``ceil(a / s) + ceil(b / s) <=
    ceil((a + b) / s) + 1`` strides, so there are at most
    ``ceil(n_total / s) + n_hits`` stride ends.  The bound can be met
    exactly: over 20 steps in strides of 10, hits at steps 5 and 6 give 7
    samples (at steps 0, 5, 5, 6, 6, 16 and 20).
    """
    return 1 + -(-n_total // steps_per_check) + 2 * n_hits


#: JSON's spellings of the floats whose ``repr`` is not JSON
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each value of a 1-d float array."""
    return list(map(float.__repr__, values.tolist()))


def _json_floats(reprs: list[str]) -> list[str]:
    """Float reprs as ``json.dumps`` writes the floats: the same strings,
    except ``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite."""
    if _JSON_NON_FINITE.keys().isdisjoint(reprs):
        return reprs
    return [_JSON_NON_FINITE.get(s, s) for s in reprs]


@dataclass(frozen=True, eq=False)
class _BlockRecords(Sequence):
    """The rows of one batch, in stream order: each row's
    :class:`TrajectoryRecord`, built from its slices of the block's series
    when it is indexed, or the error that retired it.  Every batch is one:
    an :func:`evolve_batch` block, or a ``wpr`` block of exact projections
    (:func:`~grwsim.scenarios.run_batch`).

    The ensemble path builds no record: it reads a row's tally fields with
    :meth:`tally` and renders its artifact line with :meth:`render`, both
    straight from the arrays.  Records are built only for callers that
    index the block (:func:`~grwsim.scenarios.run_batch` and
    :func:`~grwsim.scenarios.run_single`).  A record is always a whole
    run: a row that left its block at its decision has only its tally,
    and indexing or rendering it raises ``RuntimeError``.

    Samples and events sit in flat arrays, each row in its own presized
    run: row ``i``'s samples are ``[first[i], first[i] + sampled[i])`` and
    its events ``[hit_first[i], hit_first[i] + taken[i])``, each event
    stored as its center and the row's index of the sample just before the
    hit (the one after is the next).  A row that takes the ghost's whole
    series has the ghost's run as its own.  ``latch[i]`` is the row's index
    of the sample at which its outcome latched, or -1, and ``pending[i]``
    the hits a row that left at its decision never took, or -1.  A ``wpr``
    block has no moments: its ``means`` and ``variances`` are empty, so
    every row's slice of them is empty too.
    """

    scenario: str
    streams: list  # (seed, stream_id) of each row
    errors: list  # the error that retired each row, or None
    times: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    first: np.ndarray
    sampled: np.ndarray
    latch: np.ndarray
    hit_first: np.ndarray
    taken: np.ndarray
    centers: np.ndarray
    pre: np.ndarray
    pending: np.ndarray

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if self.errors[i] is not None:
            return self.errors[i]
        self._require_whole(i)
        lo = int(self.first[i])
        hi = lo + int(self.sampled[i])
        times = self.times[lo:hi].tolist()
        weights = list(map(tuple, self.weights[lo:hi].tolist()))
        e = int(self.hit_first[i])
        f = e + int(self.taken[i])
        seed, stream_id = self.streams[i]
        outcome, survival_time, _ = self.tally(i)
        return TrajectoryRecord(
            scenario=self.scenario, seed=seed, stream_id=stream_id,
            events=[
                JumpEvent(times[k + 1], center, weights[k], weights[k + 1])
                for k, center in zip(self.pre[e:f].tolist(), self.centers[e:f].tolist())
            ],
            times=times, branch_weights=weights, means=self.means[lo:hi].tolist(),
            variances=self.variances[lo:hi].tolist(), outcome=outcome,
            survival_time=survival_time,
        )

    def _require_whole(self, i: int) -> None:
        """Raise ``RuntimeError`` if row ``i`` stopped at its decision."""
        if self.pending[i] >= 0:
            raise RuntimeError(
                f"trajectory {self.streams[i][1]} stopped at its decision; its "
                "record is cut short and must not be written"
            )

    def tally(self, i: int) -> tuple[str, float | None, int]:
        """``(outcome, survival_time, n_jumps)`` of row ``i``, read from the
        arrays: the outcome is 1 if the branch weights at the latch have
        ``w1 >= w2``, else 2 (undecided without a latch), the survival time
        is the latch's time, and ``n_jumps`` counts the row's whole hit
        schedule, the hits a row cut at its decision never took included.
        The row must not be retired."""
        latch = int(self.latch[i])
        n_jumps = int(self.taken[i]) + max(int(self.pending[i]), 0)
        if latch < 0:
            return "undecided", None, n_jumps
        at = int(self.first[i]) + latch
        w1, w2 = self.weights[at].tolist()
        return "1" if w1 >= w2 else "2", float(self.times[at]), n_jumps

    def render(self, i: int) -> tuple[str, list]:
        """Row ``i``'s ``events.jsonl`` line and its ``outcomes.csv``
        fields after the index, rendered from its slices of the arrays.

        The line is byte for byte ``dump_json_line(self[i].as_dict())``:
        keys sorted, compact separators, floats as ``float.__repr__`` and
        the non-finite as ``NaN``, ``Infinity`` and ``-Infinity``.  Each
        sample's time and weight pair is formatted once: event ``k``'s
        ``time``, ``pre_branch_weights`` and ``post_branch_weights`` are
        the strings of samples ``pre + 1``, ``pre`` and ``pre + 1``.  The
        fields are the outcome, the survival time (``repr``, or empty when
        undecided), the event count and the final weight pair (``repr``,
        or empty without samples).  The row must not be retired, and a row
        that stopped at its decision cannot be rendered, as it has no
        record.
        """
        self._require_whole(i)
        lo = int(self.first[i])
        hi = lo + int(self.sampled[i])
        times = _reprs(self.times[lo:hi])
        flat = _reprs(self.weights[lo:hi].ravel())
        json_times, json_flat = _json_floats(times), _json_floats(flat)
        pairs = list(map("[%s,%s]".__mod__, zip(json_flat[::2], json_flat[1::2])))
        e = int(self.hit_first[i])
        f = e + int(self.taken[i])
        events = ",".join([
            f'{{"center":{center},"coordinate_index":0,"post_branch_weights":'
            f'{pairs[k + 1]},"pre_branch_weights":{pairs[k]},"time":{json_times[k + 1]}}}'
            for k, center in zip(self.pre[e:f].tolist(),
                                 _json_floats(_reprs(self.centers[e:f])))
        ])
        outcome = self.tally(i)[0]
        latch = int(self.latch[i])
        survival = times[latch] if latch >= 0 else ""
        seed, stream_id = self.streams[i]
        means = ",".join(_json_floats(_reprs(self.means[lo:hi])))
        variances = ",".join(_json_floats(_reprs(self.variances[lo:hi])))
        line = (
            f'{{"events":[{events}],"outcome":"{outcome}","scenario":'
            f'{encode_basestring_ascii(self.scenario)},"seed":[{seed:d},{stream_id:d}],'
            f'"series":{{"branch_weights":[{",".join(pairs)}],"means":[{means}],'
            f'"times":[{",".join(json_times)}],"variances":[{variances}]}},'
            f'"survival_time":{json_times[latch] if latch >= 0 else "null"}}}'
        )
        return line, [outcome, survival, f - e, *(flat[-2:] or ["", ""])]


def evolve_batch(
    psi: WaveFunction,
    v: Potential,
    params: GrwParams,
    cfg: PropagatorConfig,
    horizon: float,
    rng_streams,
    *,
    scenario: str = "",
    stop_decided: bool = False,
) -> _BlockRecords:
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

    Shared prefix.  Until its first hit every row follows the same states
    and samples, so the block steps them once, as a "ghost" row that is
    never hit and draws from no stream: stepped from ``psi`` in whole
    strides and sampled at steps ``0, s, 2s, ...`` and at the horizon
    (``s = cfg.steps_per_event_check``).  A row whose first hit falls at
    step ``h`` joins the block at ``j = s * (h // s)`` with the ghost's
    state there.  It copies the ghost's samples up to and including step
    ``j`` into its own run, one slice copy per series, and keeps the
    ghost's latch if the ghost has latched; it then goes on as if it had
    run alone from step 0 (it takes its hit at once when ``h == j``).  A
    row with no hit takes the ghost's whole series and outcome.  If the
    ghost fails its check at a stride end ``e``, every row that has not
    joined by then (``j >= e``, and every row with no hit) is retired with
    the ghost's error, the one it would have met alone; rows that joined
    earlier go on.  The ghost leaves the block once no row waits for it.

    Tally-only runs (``stop_decided``): a row whose outcome has latched
    takes no further hit and leaves the block at the end of that step, the
    way a retired row does.  Its series and events then stop at its
    decision, so it has no record, only its tally
    (:meth:`_BlockRecords.tally`): its outcome, its survival time, and a
    jump count that adds the scheduled hits it never took, its whole
    schedule.  If the ghost latches, it leaves too, and every row still
    waiting takes its result with all its hits pending.  A row is
    thus not stepped or hit after its decision, and an error it would have
    met later (a drift, or a hit at the zero-norm floor) goes unseen: it
    counts as decided.  Without ``stop_decided`` every row runs to the
    horizon and every check holds.

    The trajectories form one ``(rows, levels, n_points)`` block, and each
    global step advances every row in it by one ``dt`` through
    :func:`~grwsim.propagator.substep`.  The block is presized to the ghost
    plus the rows with a hit, and each step works on its filled leading
    slice: position 0 holds the ghost, rows joining at a step are appended
    in stream order, and the rows behind a row that leaves or retires
    close up in order.  Each row keeps the schedule above exactly, so its
    record is the one it would get alone.  At each step the rows that are
    due are observed together (:func:`_observe`).  The observed rows with a
    hit due form one hit round: their densities are taken from the block,
    their centers drawn together into one array (:func:`_draw_centers`, one
    uniform per row from the row's own stream, so each row keeps its draw
    order), the rows that drew a center hit together in place
    (:func:`_localize`, one scatter into the block; a round in which no row
    drew hits none), and the rows just hit are observed together for the
    next round, until no observed row has a hit due at this step.  Each of
    the four faults of a row -- a drift or no weight where it is observed,
    no center density where it draws, a hit at the zero-norm floor -- goes
    through one ``retire``, which records the row's error, drops the row
    from its round and has it leave the block at the end of the step.
    Every reduction of a round (norms, densities,
    branch weights, moments, center-density totals and cumulative sums)
    runs along the last axis, and every transform row by row, which gives
    each row its solo bits, the ghost's included.
    ``test_artifacts_identical_for_any_worker_count``,
    ``test_observing_a_block_equals_each_row_alone`` and
    ``test_a_hit_round_equals_one_row_rounds`` fail if a numpy release
    breaks this batch invariance.

    The block owns every row's series: samples (time, branch-weight pair,
    mean, variance), events (center, index of the pre-hit sample) and the
    latch, in flat arrays where each row with a hit, and the ghost, has a
    run presized to its own :func:`_sample_bound` and hit count.  A round
    writes its rows' samples with one fancy-indexed store per series, the
    drift check, the zero-weight guard, the survival latch and the due-hit
    test are array comparisons over its rows, and its centers and hits are
    array operations; per row remain only the errors of the rows that fail
    and the stream draws.  A row that
    would outrun its presized run raises ``RuntimeError`` instead of
    overwriting the next row's.

    Returns the block as a :class:`_BlockRecords`: a sequence, in stream
    order, of each row's record, or of the :class:`GrwsimError` that
    retired it mid-run (for example ZeroNormError, ZeroDensityError or
    UnstableStepError); a retired row leaves the other rows untouched.  A
    record is built from the block's arrays each time it is indexed, so a
    caller that walks the rows holds one record at a time; the ensemble
    reads rows from the arrays without one (:meth:`_BlockRecords.tally`
    and :meth:`_BlockRecords.render`).
    Errors that concern every row alike (the guards on ``dt``, width,
    horizon and, for one level, the grid's two sides of 0) are raised,
    before any stream is drawn from.
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
    stride = cfg.steps_per_event_check

    no_hit = n_total + 1  # next_hit of a row with no hit to come
    gens, streams, schedule, n_hits = [], [], [], []
    for stream in rng_streams:
        gen = stream.generator()
        steps = [
            min(max(int(round(t / cfg.dt)), 0), n_total)
            for t in schedule_jumps(params, horizon, gen)
        ]
        gens.append(gen)
        streams.append((stream.seed, stream.stream_id))
        schedule.extend(steps)
        schedule.append(no_hit)  # each row's hits end in a sentinel
        n_hits.append(len(steps))
    # the ghost is row n_rows: no hit, no stream
    n_rows = ghost = len(gens)
    schedule.append(no_hit)
    n_hits.append(0)
    n_hits = np.array(n_hits, dtype=np.int64)
    schedule = np.array(schedule, dtype=np.int64)
    hit_first = np.cumsum(n_hits + 1) - (n_hits + 1)
    taken = np.zeros(n_rows + 1, dtype=np.int64)  # hits taken so far
    centers_at = np.empty(len(schedule))  # event k of row i at hit_first[i] + k
    pre_at = np.empty(len(schedule), dtype=np.int64)
    bound = _sample_bound(n_total, stride, n_hits)
    bound[:ghost][n_hits[:ghost] == 0] = 0  # these rows read the ghost's run
    first = np.cumsum(bound) - bound
    count = np.zeros(n_rows + 1, dtype=np.int64)
    size = int(bound.sum())
    series = (np.empty(size), np.empty((size, 2)), np.empty(size), np.empty(size))
    times_at, weights_at, means_at, variances_at = series
    latch = np.full(n_rows + 1, -1, dtype=np.int64)
    pending = np.full(n_rows + 1, -1, dtype=np.int64)  # hits left at a decision
    errors: list = [None] * (n_rows + 1)

    # rows in order of their join step; order[waiting:] have not joined
    joins = np.where(n_hits[:ghost] > 0, schedule[hit_first[:ghost]] // stride * stride,
                     no_hit)
    order = np.argsort(joins, kind="stable")
    joins = joins[order]
    waiting = 0

    def take_ghost(rows: np.ndarray, cut: bool) -> None:
        """Rows that never joined end as the ghost ended."""
        if errors[ghost] is not None:
            for r in rows.tolist():
                errors[r] = errors[ghost]
            return
        first[rows], count[rows], latch[rows] = first[ghost], count[ghost], latch[ghost]
        if cut:
            pending[rows] = n_hits[rows]

    def retire(at: np.ndarray, faults: dict[int, GrwsimError]) -> np.ndarray:
        """Retire row ``at[i]`` with ``faults[i]``; the mask of the rest."""
        kept = np.ones(len(at), dtype=bool)
        for i, exc in faults.items():
            errors[ids[at[i]]] = exc
            gone.append(int(at[i]))
            kept[i] = False
        return kept

    # per block position, filled up to `filled`; ids maps positions to rows
    cap = 1 + int(np.count_nonzero(n_hits))
    block = np.empty((cap,) + psi.amplitudes.shape, dtype=psi.amplitudes.dtype)
    block[0] = psi.amplitudes
    ids = np.full(cap, ghost, dtype=np.int64)
    stride_end = np.zeros(cap, dtype=np.int64)
    stride_start = np.zeros(cap, dtype=np.int64)
    norm_sq = np.zeros(cap)  # squared norm at each row's last sample
    next_hit = np.full(cap, no_hit, dtype=np.int64)
    filled, ghost_in = 1, True
    for g in range(n_total + 1):
        due = stride_end[:filled] == g
        if g:
            substep(block[:filled], phases, stride_start[:filled] == g - 1, due)
        t = g * cfg.dt
        sampled = np.flatnonzero(due)
        gone = []
        # observe the due rows together, then, round by round, the rows just
        # hit, each with the center of its hit
        pos, centers = sampled, None
        while pos.size:
            norms, weights, totals, means, variances = _observe(
                block[:filled], x, dx, slices, None if pos.size == filled else pos
            )
            before = norm_sq[pos]
            # only the first round's rows after step 0 end a stride
            unstable = drifted(before, norms) & (g > 0 and centers is None)
            failed = unstable | (totals < ZERO_NORM_FLOOR)
            norm_sq[pos] = norms
            if failed.any():
                ok = retire(pos, {
                    i: drift_error(float(before[i]), float(norms[i]),
                                   g - int(stride_start[pos[i]]), cfg.dt)
                    if unstable[i] else ZeroNormError("state has no weight; moments undefined")
                    for i in np.flatnonzero(failed).tolist()
                })
                pos, weights, means, variances = pos[ok], weights[ok], means[ok], variances[ok]
                if centers is not None:
                    centers = centers[ok]
            rows = ids[pos]
            k = count[rows]  # each row's index of this sample
            full = k >= bound[rows]
            if full.any():
                r = int(rows[full][0])
                raise RuntimeError(f"row {r} outran its {bound[r]} presized samples")
            count[rows] += 1
            slot = first[rows] + k
            times_at[slot] = t
            weights_at[slot] = weights
            means_at[slot] = means
            variances_at[slot] = variances
            w1, w2 = weights[:, 0], weights[:, 1]
            # max((w1, w2)) as Python takes it, a NaN weight included
            latching = np.where(w2 > w1, w2, w1) > 1.0 - DECISION_THRESHOLD
            latching &= latch[rows] < 0
            latch[rows[latching]] = k[latching]
            if centers is not None:
                event = hit_first[rows] + taken[rows] - 1
                centers_at[event] = centers
                pre_at[event] = k - 1
            if stop_decided and latching.any():
                # decided rows leave at the end of this step, hits unspent
                gone.extend(pos[latching].tolist())
                left = rows[latching]
                pending[left] = n_hits[left] - taken[left]
                pos = pos[~latching]
            if centers is None and ghost_in and due[0]:
                # the ghost's stride end: rows whose first hit is in the
                # coming stride join, or every waiting row ends with it
                if errors[ghost] is not None or (stop_decided and latch[ghost] >= 0):
                    take_ghost(order[waiting:], cut=True)
                    waiting, ghost_in = n_rows, False
                else:
                    end = int(np.searchsorted(joins, g, side="right"))
                    new = order[waiting:end]
                    waiting = end
                    if new.size:
                        span = np.arange(count[ghost])
                        dst = first[new][:, np.newaxis] + span
                        for a in series:
                            a[dst] = a[first[ghost] + span]
                        count[new], latch[new] = count[ghost], latch[ghost]
                        at = np.arange(filled, filled + new.size)
                        block[at] = block[0]
                        ids[at], norm_sq[at] = new, norm_sq[0]
                        next_hit[at] = schedule[hit_first[new]]
                        filled += new.size
                        pos, sampled = np.concatenate((pos, at)), np.concatenate((sampled, at))
                    if waiting == n_rows:
                        gone.append(0)
                        ghost_in = False
            # this round's hits: every center drawn, then every row localized
            pos = pos[next_hit[pos] <= g]
            if not pos.size:
                break
            rows = ids[pos]
            taken[rows] += 1
            next_hit[pos] = schedule[hit_first[rows] + taken[rows]]
            rho = _density(squared_amplitudes(block[pos]))
            centers, faults = _draw_centers(rho, params, grid, [gens[r] for r in rows.tolist()])
            kept = retire(pos, faults)
            pos, centers = pos[kept], centers[kept]
            if pos.size:  # a round whose every draw failed hits no row
                kept = retire(pos, _localize(block, pos, centers, params, grid))
                pos, centers = pos[kept], centers[kept]
        # a departing row's entries are overwritten below
        stride_end[sampled] = np.minimum(next_hit[sampled], min(g + stride, n_total))
        stride_start[sampled] = g
        if gone:
            # the rows behind the first departure close up, in order
            lo = min(gone)
            stay = np.ones(filled, dtype=bool)
            stay[gone] = False
            rest = lo + np.flatnonzero(stay[lo:])
            filled = lo + rest.size
            # a chunk's rows lie at or after its destination and before the
            # next chunk's, so no row is overwritten before it moves
            for c in range(0, rest.size, OBSERVE_ROWS):
                chunk = rest[c:c + OBSERVE_ROWS]
                block[lo + c:lo + c + chunk.size] = block[chunk]
            for a in (ids, stride_end, stride_start, norm_sq, next_hit):
                a[lo:filled] = a[rest]
            if not filled:
                break
    if ghost_in:
        take_ghost(order[waiting:], cut=False)

    return _BlockRecords(scenario, streams, errors[:n_rows], *series, first, count, latch,
                         hit_first, taken, centers_at, pre_at, pending)
