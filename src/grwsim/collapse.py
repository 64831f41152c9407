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
and checks.  Every draw is made at setup (:func:`_setup_draws`): each
stream draws its hit schedule, then one uniform per hit, from one
``Philox`` re-keyed from stream to stream, and the block holds those
uniforms, not generators.  Rows share their hit-free prefix:
one never-hit "ghost" row is stepped from the initial state, a row joins
the block at the last stride end before its first hit with the ghost's
state and samples, and a row with no hit takes the ghost's whole series.
When no record is kept, a row leaves the block at its decision.  A step
reads as its stages, local functions of :func:`evolve_batch` whose
docstrings, with its own, are the engine contract: the substep, then
``record`` of the rows due, the ghost's stride end, and hit rounds each
followed by a ``record``, then the close-up.  The hit math works on raw
rows, one hit round of a block at a time, in array operations:
:func:`_density_to_centers` gives ``P`` for position densities,
:func:`_draw_centers` draws one center per row from it, as a grid index,
:func:`_profiles` reads the hit profile at each index from a cache that
computes a grid point's profile the first time a hit lands there, and
:func:`_localize` hits the round's rows in place.  Both return the rows
that fault as a map from the row's index in the round to its error; a
round in which no row faults retires none and gathers no row by mask.  Each round
costs one batched FFT pair, one cumulative sum, one center search, one
profile gather and one scatter for all of its rows, with no step per row,
and gives every row the bits of a one-row round.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
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
from .rng import _Rekeyer

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

    The hit rate ``n_eff / tau`` must be finite: a ``tau`` small enough for
    it to overflow would give hits with no time between them.
    """

    tau: float
    width: float
    n_eff: float = 1.0

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if not 0 < self.width < np.inf:
            raise ValidationError(f"width must be finite and positive, got {self.width}")
        if not 1 <= self.n_eff < np.inf:
            raise ValidationError(f"n_eff must be finite and >= 1, got {self.n_eff}")
        if not self.rate < np.inf:
            raise ValidationError(f"hit rate n_eff / tau must be finite, got {self.rate}")

    @property
    def rate(self) -> float:
        """Amplified hit rate ``n_eff / tau`` of the collective coordinate."""
        return self.n_eff / self.tau


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


@lru_cache(maxsize=64)
def _kernel_spectrum(width: float, grid: GridSpec) -> np.ndarray:
    """``rfft`` of the squared hit profile of ``width`` as a periodic kernel
    with ``sum(k) dx = 1`` (cached, read-only), keyed like
    :func:`_profile_table`, so the rungs of an ``n_eff`` sweep share one."""
    d = grid.dx * np.arange(grid.n_points)
    d = np.minimum(d, grid.length - d)  # periodic (minimum-image) distance
    kernel = np.exp(-(d**2) / width**2)
    kernel /= kernel.sum() * grid.dx
    out = np.fft.rfft(kernel)
    out.setflags(write=False)
    return out


def _density_to_centers(rho: np.ndarray, params: GrwParams, grid: GridSpec) -> np.ndarray:
    """Hit-center density ``P`` of each position density along the last
    axis of ``rho``.

    Circular convolution of ``rho`` with the squared hit profile;
    normalized exactly (``sum(P) dx = sum(rho) dx``) because the kernel is
    normalized on the grid itself.  Each row transforms alone, so a row
    gets the same bits in a stack as by itself.  The transform's output is
    scaled and clamped at 0 in place.
    """
    spectrum = _kernel_spectrum(params.width, grid) * np.fft.rfft(rho, axis=-1)
    out = np.fft.irfft(spectrum, n=grid.n_points, axis=-1)
    out *= grid.dx
    return np.maximum(out, 0.0, out=out)


def _draw_centers(
    rho: np.ndarray, params: GrwParams, grid: GridSpec, u: np.ndarray
) -> tuple[np.ndarray, dict[int, ZeroDensityError]]:
    """One hit center per row of the position densities ``rho``, as an
    index into ``grid_points(grid)``.

    Returns ``(idx, faults)``.  Row ``i``'s center is the grid point
    where its uniform ``u[i]`` falls in its center density: the point at
    the count of its normalized cumulative weights ``<= u[i]`` (what
    ``searchsorted(..., side="right")`` returns on a sorted row), clamped
    to the last point.  A row whose center density integrates below
    ``1e-12`` draws no center: its index is -1 and ``faults[i]`` its
    :class:`ZeroDensityError`.  Every step runs along a row, so the rows
    are taken together whether or not one faults, and each gets the bits
    it would get alone.
    """
    weights = _density_to_centers(rho, params, grid)
    weights *= grid.dx
    totals = weights.sum(axis=-1)
    drawing = ~(totals < 1e-12)
    cdfs = np.cumsum(weights, axis=-1)
    cdfs /= np.where(drawing, totals, 1.0)[:, np.newaxis]
    drawn = np.minimum((cdfs <= u[:, np.newaxis]).sum(axis=-1), grid.n_points - 1)
    faults = {
        i: ZeroDensityError(f"center density integrates to {totals[i]:.3e}")
        for i in np.flatnonzero(~drawing).tolist()
    }
    return np.where(drawing, drawn, -1), faults


class _ProfileTable:
    """The hit profiles of one width at the grid points hit so far, as one
    read-only pair ``(slot, rows)``: grid point ``k``'s profile is
    ``rows[slot[k]]``, and ``slot[k]`` is -1 until a hit lands at ``k``.
    A fill builds a new pair and swaps it in whole, so a reader in another
    thread always sees a consistent pair, and a row that two fills race to
    add is at worst computed again."""

    def __init__(self, n_points: int) -> None:
        self.pair = (np.full(n_points, -1, dtype=np.intp), np.empty((0, n_points)))


@lru_cache(maxsize=8)
def _profile_table(width: float, grid: GridSpec) -> _ProfileTable:
    """The process's profile table of ``width`` on ``grid``, keyed by what
    :func:`jump_profile` reads, so the rungs of an ``n_eff`` sweep share
    one.  It starts empty."""
    return _ProfileTable(grid.n_points)


def _profiles(idx: np.ndarray, params: GrwParams, grid: GridSpec) -> np.ndarray:
    """``jump_profile(grid_points(grid)[idx], params, grid)``: the hit
    profile at each grid index of ``idx``, one row each, from the
    process's table for ``params.width`` on ``grid``.

    The indices not in the table yet are filled first, together, by one
    array :func:`jump_profile` call, which gives each row the bits of its
    scalar call, and appended.  So the table holds exactly the rows of the
    points hit so far, in any run of this process, and computes each once;
    no ``n_points x n_points`` table is built.  The result is a gathered
    copy; a patched ``jump_profile`` would leave its rows in the table.
    ``idx`` must not be empty.
    """
    table = _profile_table(params.width, grid)
    slot, rows = table.pair
    at = slot[idx]
    if at.min() < 0:
        new = np.unique(idx[at < 0])
        slot = slot.copy()
        slot[new] = len(rows) + np.arange(new.size)
        rows = np.concatenate((rows, jump_profile(grid_points(grid)[new], params, grid)))
        slot.setflags(write=False)
        rows.setflags(write=False)
        table.pair = slot, rows
        at = slot[idx]
    return rows[at]


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
    amps: np.ndarray, profiles: np.ndarray, centers: np.ndarray, dx: float
) -> dict[int, ZeroNormError]:
    """Hit each row of the ``(rows, levels, n_points)`` amplitudes
    ``amps`` in place: row ``i`` is multiplied by ``profiles[i]``, the hit
    profile at ``centers[i]``, and rescaled to unit norm.

    Returns ``faults``: ``faults[i]`` is a :class:`ZeroNormError`, and row
    ``i`` is multiplied but not rescaled (its caller drops it), exactly
    when its residual squared norm ``sum |amps[i] * profiles[i]|^2 dx``
    falls below ``ZERO_NORM_FLOOR`` (1e-30), i.e. when the hit lands where
    the state has practically no weight.  The density that
    :func:`_draw_centers` draws from is this same residual squared norm
    (up to the periodic wrap at the seam), so sampled centers reach the
    floor only with probability of order ``ZERO_NORM_FLOOR``; explicit
    centers far from all mass reach it routinely.  A faulted row is divided
    by 1, which keeps its bits, so every row is rescaled in one pass.
    """
    amps *= profiles[:, np.newaxis, :]
    r2 = squared_amplitudes(amps).reshape(len(amps), -1).sum(axis=1) * dx
    passed = ~(r2 < ZERO_NORM_FLOOR)
    amps /= np.sqrt(np.where(passed, r2, 1.0))[:, np.newaxis, np.newaxis]
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
    """Homogeneous Poisson event times in ``(0, horizon]`` at ``params.rate``.

    ``horizon`` must be finite and ``>= 0``: an infinite one would draw
    forever, and a NaN one would silently give no hit.
    """
    if not 0 <= horizon < np.inf:
        raise ValidationError(f"horizon must be finite and >= 0, got {horizon}")
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


def _setup_draws(rng_streams, params: GrwParams, horizon: float, dt: float, n_total: int):
    """Every draw of a block, made before its first step, and the row of
    a ghost that draws none.

    Each stream in turn draws its Poisson schedule (:func:`schedule_jumps`),
    then one uniform per hit in one ``random(n_hits)`` call, which gives
    the bits of ``n_hits`` scalar ``random()`` calls.  The block's one
    :class:`~grwsim.rng._Rekeyer` moves to each stream in turn, with the
    draws of ``stream.generator()``, and is dropped with the setup.
    Returns ``(streams, n_hits, schedule, uniforms)``: the ``(seed,
    stream_id)`` of each stream, and arrays with one more row, the ghost's,
    which has no hit.  Hit ``k`` of row ``i`` has its step at
    ``schedule[hit_first[i] + k]`` and its uniform at ``uniforms[hit_first[i]
    + k]``, ``hit_first[i]`` the sum of ``n_hits + 1`` over the rows before
    it: each row's hits end in a sentinel, step ``n_total + 1`` and
    uniform NaN.  A hit time ``t`` snaps to ``rint(t / dt)`` clipped to
    ``[0, n_total]``, which is ``min(max(int(round(t / dt)), 0), n_total)``,
    as both round half to even.
    """
    rekeyer = _Rekeyer()
    streams, n_hits, times, uniforms = [], [], [], []
    for stream in rng_streams:
        gen = rekeyer.start(stream)
        row = schedule_jumps(params, horizon, gen)
        streams.append((stream.seed, stream.stream_id))
        n_hits.append(len(row))
        times += [*row, np.nan]
        uniforms += [*gen.random(len(row)).tolist(), np.nan]
    steps = np.clip(np.rint(np.array(times + [np.nan]) / dt), 0, n_total)
    schedule = np.nan_to_num(steps, nan=n_total + 1).astype(np.int64)
    return streams, np.array(n_hits + [0], dtype=np.int64), schedule, np.array(uniforms + [np.nan])


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
    """The rows of one batch, in stream order: each row's record, read
    from its slices of the block's series, or the error that retired it.
    Every batch is one: an :func:`evolve_batch` block, or a ``wpr`` block
    of exact projections (:func:`~grwsim.scenarios.run_batch`).

    A row has one format, its ``events.jsonl`` line (:meth:`render`).  The
    ensemble reads a row's tally fields with :meth:`tally` and writes its
    line; indexing the block parses that line into a plain dict, which is
    what :func:`~grwsim.scenarios.run_single` returns.  A record is always
    a whole run: a row that left its block at its decision has only its
    tally, and indexing or rendering it raises ``RuntimeError``.

    Samples and events sit in flat arrays, each row in its own presized
    run: row ``i``'s samples are ``[first[i], first[i] + sampled[i])`` and
    its events ``[hit_first[i], hit_first[i] + n_hits[i])``, each event
    stored as its center and the row's index of the sample just before the
    hit (the one after is the next).  ``n_hits[i]`` is the row's whole hit
    schedule, every hit of which a whole row takes.  A row that takes the
    ghost's whole series has the ghost's run as its own.  ``latch[i]`` is
    the row's index of the sample at which its outcome latched, or -1.  In
    a ``stop_decided`` block every latched row left at its decision: its
    series and events stop there, and it has only its tally.  A ``wpr``
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
    n_hits: np.ndarray
    centers: np.ndarray
    pre: np.ndarray
    stop_decided: bool

    def __len__(self) -> int:
        return len(self.errors)

    def __iter__(self):
        """Each row's record or error, in stream order.  An ``IndexError``
        raised while a row renders propagates: ``Sequence``'s own iteration
        would take it for the end of the rows and drop the rest unseen."""
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        """Row ``i``'s record as the dict its line parses to, or its error."""
        i = range(len(self))[i]
        error = self.errors[i]
        return error if error is not None else json.loads(self.render(i)[0])

    def tally(self, i: int) -> tuple[str, float | None, int]:
        """``(outcome, survival_time, n_jumps)`` of row ``i``, read from the
        arrays: the outcome is 1 if the branch weights at the latch have
        ``w1 >= w2``, else 2 (undecided without a latch), the survival time
        is the latch's time, and ``n_jumps`` counts the row's whole hit
        schedule, the hits a row cut at its decision never took included.
        The row must not be retired."""
        latch = int(self.latch[i])
        n_jumps = int(self.n_hits[i])
        if latch < 0:
            return "undecided", None, n_jumps
        at = int(self.first[i]) + latch
        w1, w2 = self.weights[at].tolist()
        return "1" if w1 >= w2 else "2", float(self.times[at]), n_jumps

    def render(self, i: int) -> tuple[str, list]:
        """Row ``i``'s ``events.jsonl`` line and its ``outcomes.csv``
        fields after the index, rendered from its slices of the arrays.

        The line is canonical JSON, ``dump_json_line(json.loads(line)) ==
        line`` (:func:`~grwsim.ensemble.dump_json_line`): keys sorted,
        compact separators, floats as ``float.__repr__`` and the non-finite
        as ``NaN``, ``Infinity`` and ``-Infinity``.  It holds the scenario,
        the ``[seed, stream_id]`` pair, the events, the series (times,
        branch-weight pairs, means and variances), the outcome and the
        survival time (``null`` when undecided), and no wall-clock field, so
        its bytes are the same on any host and for any worker count.  Each
        sample's time and weight pair is formatted once: event ``k``'s
        ``time``, ``pre_branch_weights`` and ``post_branch_weights`` are the
        strings of samples ``pre + 1``, ``pre`` and ``pre + 1``.  Every
        event is written with ``coordinate_index`` 0, as each scenario
        localizes a single collective coordinate.  The fields are the
        outcome, the survival time (``repr``, or empty when undecided), the
        event count and the final weight pair (``repr``, or empty without
        samples).  The row must not be retired, and a row that stopped at
        its decision cannot be rendered, as it has no record.
        """
        if self.stop_decided and self.latch[i] >= 0:
            raise RuntimeError(
                f"trajectory {self.streams[i][1]} stopped at its decision; its "
                "record is cut short and must not be written"
            )
        lo = int(self.first[i])
        hi = lo + int(self.sampled[i])
        times = _reprs(self.times[lo:hi])
        flat = _reprs(self.weights[lo:hi].ravel())
        json_times, json_flat = _json_floats(times), _json_floats(flat)
        pairs = list(map("[%s,%s]".__mod__, zip(json_flat[::2], json_flat[1::2])))
        e = int(self.hit_first[i])
        f = e + int(self.n_hits[i])
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
    hit, in time order, for its center.  Every draw is made at setup,
    before the first step (:func:`_setup_draws`), from one ``Philox``
    re-keyed to each stream in turn, with the draws of
    ``RngStream.generator()``; no generator outlives the setup.  A row that
    retires, or leaves at its decision, has drawn uniforms it never uses;
    nothing else draws from its stream, so no byte can show it.  Jump
    times are snapped to the nearest step boundary, which requires
    ``cfg.dt * params.rate <= 1/20`` (``MAX_RATE_DT``), so the snapping
    error is negligible.

    Strides: from the start and after every jump, a row is stepped by
    ``cfg.steps_per_event_check`` steps, cut short at its next jump's
    snapped step and at the horizon, and sampled at each stride's end,
    after every jump, and at time 0.  Each stride is one Strang product
    (half potential phase at both of its ends).  Hits due at the same step
    are applied one after another, each followed by a sample.  A one-level
    state's branch weights are its weights on ``x < 0`` (outcome 1) and on
    ``x >= 0`` (outcome 2), so its grid must have points on both sides; a
    two-level state's are its level weights.

    The trajectories form one ``(rows, levels, n_points)`` block, and a
    step runs its stages in turn: :func:`~grwsim.propagator.substep`
    advances every row by one ``dt``; ``record`` stores the samples of the
    rows due, observed together (:func:`_observe`); at the ghost's stride
    end ``ghost_stride_end`` lets rows join; ``hit_round`` hits the rows
    with a hit due and ``record`` stores their samples, round after round,
    until no row has a hit due; then the due rows start their next
    strides, and the rows that retired or left close up in order.  Each
    stage's docstring is its part of this contract.  Until its first hit
    every row follows the same states, so the block steps them once, as a
    "ghost" row that is never hit and draws from no stream, stepped from
    ``psi`` in whole strides.  The block is presized to the ghost plus the
    rows with a hit: position 0 holds the ghost, and joining rows are
    appended in stream order.  It holds only amplitudes by position, with
    the row at each position; every other row value (stride ends, squared
    norm, sample count, latch, error, and the cursor that points at the
    row's next hit in the setup's arrays) is kept by row, the ghost's
    after the last, so a close-up moves amplitudes and row ids alone.
    Every reduction runs along the last axis, and every transform row by
    row, which gives each row, the ghost included, the bits it would get
    alone.  ``test_artifacts_identical_for_any_worker_count``,
    ``test_observing_a_block_equals_each_row_alone`` and
    ``test_a_hit_round_equals_one_row_rounds`` fail if a numpy release
    breaks this batch invariance.

    The block owns every row's series: samples (time, branch-weight pair,
    mean, variance), events (center, index of the pre-hit sample) and the
    latch, in flat arrays where each row with a hit, and the ghost, has a
    run presized to its own :func:`_sample_bound` and hit count.  A row
    that is not retired has taken its whole schedule, or, in a tally-only
    run (``stop_decided``), left at its decision, so its jump count is its
    schedule's length.  A tally-only row has only its tally
    (:meth:`_BlockRecords.tally`), and an error it would have met after
    its decision goes unseen: it counts as decided.  Without
    ``stop_decided`` every row runs to the horizon and every check holds.

    Returns the block as a :class:`_BlockRecords`: a sequence, in stream
    order, of each row's record, or of the :class:`GrwsimError` that
    retired it mid-run (for example ZeroNormError, ZeroDensityError or
    UnstableStepError); a retired row leaves the other rows untouched.  A
    row's record is its line (:meth:`_BlockRecords.render`), rendered
    from the block's arrays each time it is read, and indexing parses it
    into a dict, so a caller that walks the rows holds one at a time.
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

    streams, n_hits, schedule, uniforms = _setup_draws(rng_streams, params, horizon, cfg.dt,
                                                       n_total)
    # every row value is kept by row; the ghost is row n_rows: no hit, no stream
    n_rows = ghost = len(streams)
    hit_first = np.cumsum(n_hits + 1) - (n_hits + 1)
    cursor = hit_first.copy()  # each row's next event; schedule[cursor] is its next hit step
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
    errors: list = [None] * (n_rows + 1)
    stride_start, stride_end = np.zeros((2, n_rows + 1), dtype=np.int64)
    norm_sq = np.zeros(n_rows + 1)  # squared norm at each row's last sample
    # the ghost's stride end at which each row joins; past the horizon if never
    joins = np.where(n_hits[:ghost] > 0, schedule[hit_first[:ghost]] // stride * stride,
                     n_total + 1)
    gone: list[int] = []  # positions that leave the block at the end of this step

    def take_ghost(rows: np.ndarray) -> None:
        """Rows that never joined end as the ghost ended: with its error,
        or with its run, sample count and latch as their own."""
        if errors[ghost] is not None:
            for r in rows.tolist():
                errors[r] = errors[ghost]
            return
        first[rows], count[rows], latch[rows] = first[ghost], count[ghost], latch[ghost]

    def retire(at: np.ndarray, faults: dict[int, GrwsimError]) -> np.ndarray:
        """Retire the row at position ``at[i]`` with ``faults[i]``; the mask
        of the rest.  Each of a row's four faults -- a drift or no weight
        where it is recorded, no center density where it draws, a hit at the
        zero-norm floor -- comes here: its error is recorded, it drops from
        its round and it leaves the block at the end of the step.  A round
        in which no row faults calls none, and gathers nothing by mask."""
        kept = np.ones(len(at), dtype=bool)
        for i, exc in faults.items():
            errors[ids[at[i]]] = exc
            gone.append(int(at[i]))
            kept[i] = False
        return kept

    def record(pos: np.ndarray, observed, g: int, after_hit: bool) -> np.ndarray:
        """Store the samples at step ``g`` of the rows at positions ``pos``,
        ``observed`` by :func:`_observe`, just after a hit if ``after_hit``;
        the positions that stay in the round.

        A sample that ends a stride (at a step after 0, not after a hit)
        must keep the row's squared norm within ``STEP_NORM_TOLERANCE`` of
        its last sample, and a NaN or infinite norm fails; every sample must
        have weight.  A row that fails retires.  Each row's sample goes to
        the next slot of its run, one fancy-indexed store per series, and a
        row that would outrun its presized run raises ``RuntimeError``
        instead of overwriting the next row's.  A sample after a hit is its
        event's post-hit sample, and the one before it the event's pre-hit
        sample.

        The survival time is the first sample at which either branch weight
        exceeds ``1 - DECISION_THRESHOLD``, and the outcome latches there.
        Latching is sound because a decisive hit leaves the other branch
        with weight suppressed like ``exp(-separation^2 / width^2)`` -- it
        cannot regrow -- whereas the surviving packet's own tail may later
        spill a few percent across x = 0 while it sloshes inside its well,
        which says nothing about the discarded branch.  In a
        ``stop_decided`` block a row that latches takes no further hit and
        leaves the block at the end of the step, the way a retired row
        does, so its series and events stop at its decision.
        """
        norms, weights, totals, means, variances = observed
        rows = ids[pos]
        before = norm_sq[rows]
        unstable = drifted(before, norms) & (g > 0 and not after_hit)
        failed = unstable | (totals < ZERO_NORM_FLOOR)
        norm_sq[rows] = norms
        if failed.any():
            ok = retire(pos, {
                i: drift_error(float(before[i]), float(norms[i]),
                               g - int(stride_start[rows[i]]), cfg.dt)
                if unstable[i] else ZeroNormError("state has no weight; moments undefined")
                for i in np.flatnonzero(failed).tolist()
            })
            pos, rows = pos[ok], rows[ok]
            weights, means, variances = weights[ok], means[ok], variances[ok]
        k = count[rows]  # each row's index of this sample
        full = k >= bound[rows]
        if full.any():
            r = int(rows[full][0])
            raise RuntimeError(f"row {r} outran its {bound[r]} presized samples")
        count[rows] += 1
        slot = first[rows] + k
        times_at[slot] = g * cfg.dt
        weights_at[slot] = weights
        means_at[slot] = means
        variances_at[slot] = variances
        w1, w2 = weights[:, 0], weights[:, 1]
        # max((w1, w2)) as Python takes it, a NaN weight included
        latching = np.where(w2 > w1, w2, w1) > 1.0 - DECISION_THRESHOLD
        latching &= latch[rows] < 0
        latch[rows[latching]] = k[latching]
        if after_hit:
            pre_at[cursor[rows] - 1] = k - 1
        if stop_decided and latching.any():
            gone.extend(pos[latching].tolist())
            pos = pos[~latching]
        return pos

    def ghost_stride_end(g: int) -> np.ndarray:
        """The ghost's stride end at step ``g``: rows join, or every row
        still waiting ends as the ghost did; the positions of the rows that
        joined.

        A row whose first hit falls at step ``h`` joins at the stride end
        ``j = s * (h // s)`` (``s = cfg.steps_per_event_check``) with the
        ghost's state there.  It copies the ghost's samples up to and
        including step ``j`` into its own run, one slice copy per series,
        and the ghost's latch, and goes on as if it had run alone from step
        0 (it takes its hit at once when ``h == j``).

        The ghost ends when it fails its check or, in a ``stop_decided``
        block, latches, and then no row joins at ``g``; otherwise it ends
        at the horizon or once no row waits for it.  It leaves the block,
        and every row still waiting (with no hit, or with ``j >= g`` and
        not joined) ends as the ghost did, through ``take_ghost``: a failed
        ghost's error is the one each would have met alone, and a row with
        no hit takes the ghost's whole series and outcome.
        """
        nonlocal filled
        ended = errors[ghost] is not None or (stop_decided and latch[ghost] >= 0)
        joining = (joins == g) & (not ended)
        new = np.flatnonzero(joining)
        span = np.arange(count[ghost])
        dst = first[new][:, np.newaxis] + span
        for a in series:
            a[dst] = a[first[ghost] + span]
        count[new], latch[new] = count[ghost], latch[ghost]
        norm_sq[new] = norm_sq[ghost]
        at = np.arange(filled, filled + new.size)
        block[at] = block[0]
        ids[at] = new
        filled += new.size
        waiting = (joins >= g) & ~joining
        if ended or g == n_total or not waiting.any():
            take_ghost(np.flatnonzero(waiting))
            gone.append(0)
        return at

    def hit_round(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hit each row at positions ``pos`` with its next hit; the positions
        hit and their amplitudes.

        The rows' amplitudes are gathered from the block once, their
        centers drawn together as grid indices (:func:`_draw_centers`,
        each row with the uniform at its cursor, so each row keeps its draw
        order), and the rows that drew a center multiplied by the profiles
        at their centers (:func:`_profiles`), rescaled together
        (:func:`_localize`) and written back in one scatter; a round in
        which no row drew hits none.  Each event's center is stored.  The
        rows just hit are recorded from the amplitudes returned, not
        gathered from the block again.
        """
        rows = ids[pos]
        event = cursor[rows]
        cursor[rows] += 1
        hit = block[pos]
        idx, faults = _draw_centers(_density(squared_amplitudes(hit)), params, grid,
                                    uniforms[event])
        if faults:
            kept = retire(pos, faults)
            pos, idx, hit, event = pos[kept], idx[kept], hit[kept], event[kept]
            if not pos.size:
                return pos, hit
        centers_at[event] = centers = x[idx]
        faults = _localize(hit, _profiles(idx, params, grid), centers, dx)
        if faults:
            kept = retire(pos, faults)
            pos, hit = pos[kept], hit[kept]
        block[pos] = hit
        return pos, hit

    # amplitudes by block position, filled up to `filled`; ids maps positions to rows
    cap = 1 + int(np.count_nonzero(n_hits))
    block = np.empty((cap,) + psi.amplitudes.shape, dtype=psi.amplitudes.dtype)
    block[0] = psi.amplitudes
    ids = np.full(cap, ghost, dtype=np.int64)
    filled = 1
    for g in range(n_total + 1):
        live = ids[:filled]
        due = stride_end[live] == g
        if g:
            substep(block[:filled], phases, stride_start[live] == g - 1, due)
        sampled = np.flatnonzero(due)
        if not sampled.size:
            continue
        pos = record(sampled, _observe(block[:filled], x, dx, slices,
                                       None if sampled.size == filled else sampled), g, False)
        if ids[0] == ghost and due[0]:  # position 0 holds the ghost until it leaves
            joined = ghost_stride_end(g)
            pos, sampled = np.concatenate((pos, joined)), np.concatenate((sampled, joined))
        while (pos := pos[schedule[cursor[ids[pos]]] <= g]).size:
            pos, hit = hit_round(pos)
            pos = record(pos, _observe(hit, x, dx, slices), g, True)
        rows = ids[sampled]
        stride_end[rows] = np.minimum(schedule[cursor[rows]], min(g + stride, n_total))
        stride_start[rows] = g
        if gone and g < n_total:
            # the rows behind the first departure close up, in order, for the next step
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
            ids[lo:filled] = ids[rest]
            gone.clear()
            if not filled:
                break

    return _BlockRecords(scenario, streams, errors[:n_rows], *series, first, count, latch,
                         hit_first, n_hits, centers_at, pre_at, stop_decided)
