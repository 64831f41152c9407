import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import grwsim.collapse as collapse
from grwsim import (
    GridSpec,
    GrwParams,
    Potential,
    PropagatorConfig,
    RngStream,
    ValidationError,
    WaveFunction,
    ZeroNormError,
    chain_defaults,
    gaussian_packet,
    grid_points,
    jump_profile,
    schedule_jumps,
    survival_scaling_points,
    two_peak_state,
)
from grwsim.collapse import (
    MAX_RATE_DT,
    _density_to_centers,
    _draw_centers,
    _localize,
    _observe,
    evolve_batch,
)
from grwsim.errors import UnresolvedWidthError, ZeroDensityError
from grwsim.propagator import _potential_values
from grwsim.qstate import squared_amplitudes
from grwsim.rng import _Rekeyer

from _oracles import localized_variance_quadrature
from _support import (
    branch_weights,
    density,
    draw,
    hit,
    moments,
    records_tally,
    step,
    stream_draws,
)

PARAMS = GrwParams(tau=1.0, width=0.3, n_eff=1.0)


def test_rate_is_count_over_tau():
    assert GrwParams(tau=0.5, width=0.3, n_eff=6.0).rate == pytest.approx(12.0)
    assert GrwParams(tau=math.inf, width=0.3).rate == 0.0


def test_params_validation():
    with pytest.raises(ValidationError):
        GrwParams(tau=0.0, width=0.3)
    with pytest.raises(ValidationError):
        GrwParams(tau=1.0, width=-0.1)
    with pytest.raises(ValidationError):
        GrwParams(tau=1.0, width=0.3, n_eff=0.5)
    # an infinite width makes every hit a no-op: the profile is flat
    for width in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="width must be finite"):
            GrwParams(tau=0.75, width=width, n_eff=6.0)


def test_profile_is_discretely_normalized(grid):
    j = jump_profile(0.7, PARAMS, grid)
    assert float(np.sum(j**2) * grid.dx) == pytest.approx(1.0, abs=1e-12)


def test_profile_needs_resolved_width():
    coarse = GridSpec(-8.0, 8.0, 16)
    with pytest.raises(UnresolvedWidthError):
        jump_profile(0.0, PARAMS, coarse)


def test_flat_state_localizes_to_profile_variance(grid):
    psi = WaveFunction(grid, np.ones(grid.n_points, dtype=complex))
    _, var = moments(hit(psi, 0.0, PARAMS))
    want = localized_variance_quadrature(None, PARAMS.width)
    assert want == pytest.approx(PARAMS.width**2 / 2.0, rel=1e-9)
    assert var == pytest.approx(want, rel=2e-2)


def test_packet_narrows_to_product_width(grid):
    sigma = 0.5
    psi = gaussian_packet(grid, 0.0, sigma)
    _, var = moments(hit(psi, 0.0, PARAMS))
    want = localized_variance_quadrature(sigma, PARAMS.width)
    closed = sigma**2 * PARAMS.width**2 / (PARAMS.width**2 + 2.0 * sigma**2)
    assert want == pytest.approx(closed, rel=1e-9)
    assert var == pytest.approx(want, rel=1e-4)


def test_jump_preserves_norm_and_shifts_mean(grid):
    psi = gaussian_packet(grid, -1.0, 0.5)
    out = hit(psi, -0.5, PARAMS)
    assert out.norm_sq == pytest.approx(1.0, abs=1e-12)
    mean, _ = moments(out)
    assert -1.0 < mean < -0.5  # pulled toward the hit center


def test_jump_far_from_all_mass_is_rejected(grid):
    psi = gaussian_packet(grid, 0.0, 0.25)
    with pytest.raises(ZeroNormError, match="jump at 7.5 annihilates the state"):
        hit(psi, 7.5, PARAMS)


def test_center_density_is_a_probability_density(grid):
    psi = two_peak_state(grid, 0.8, 0.6, centers=(-2.0, 2.0), width=0.3)
    p = _density_to_centers(density(psi), PARAMS, grid)
    assert np.all(p >= 0.0)
    assert float(np.sum(p) * grid.dx) == pytest.approx(1.0, abs=1e-9)


def test_center_density_matches_direct_convolution(grid):
    psi = two_peak_state(grid, 1.0, 1.0, centers=(-1.5, 1.5), width=0.4)
    p = _density_to_centers(density(psi), PARAMS, grid)
    x = grid_points(grid)
    rho = density(psi)
    sep = np.abs(x[:, None] - x[None, :])
    sep = np.minimum(sep, grid.length - sep)
    kernel = np.exp(-(sep**2) / PARAMS.width**2)
    kernel /= kernel[0].sum() * grid.dx
    direct = kernel @ rho * grid.dx
    assert np.max(np.abs(p - direct)) < 1e-12


def test_center_density_splits_mass_like_branch_weights(grid):
    psi = two_peak_state(
        grid, math.sqrt(0.7), math.sqrt(0.3), centers=(-1.75, 1.75), width=0.25
    )
    p = _density_to_centers(density(psi), PARAMS, grid)
    x = grid_points(grid)
    left = float(np.sum(p[x < 0.0]) * grid.dx)
    # the kernel smears each peak by ~width, so the split is exact only
    # up to the far tail of (packet * kernel) across the midline
    assert left == pytest.approx(0.7, abs=1e-6)


def test_hit_statistics_reproduce_branch_weights(grid):
    """Averaging post-hit weights over the exact hit law returns the
    pre-hit weights (the no-signaling identity behind outcome rates)."""
    psi = two_peak_state(
        grid, math.sqrt(0.7), math.sqrt(0.3), centers=(-1.75, 1.75), width=0.25
    )
    p = _density_to_centers(density(psi), PARAMS, grid) * grid.dx
    x = grid_points(grid)
    acc = 0.0
    for c, w in zip(x, p):
        if w < 1e-15:
            continue
        acc += w * branch_weights(hit(psi, float(c), PARAMS))[0]
    assert acc == pytest.approx(0.7, abs=1e-9)


def test_sampled_centers_follow_the_density(grid):
    psi = gaussian_packet(grid, 1.0, 0.5)
    gen = RngStream(11, 0).generator()
    rho = density(psi)
    draws = np.array([draw(rho, PARAMS, grid, gen) for _ in range(2000)])
    p = _density_to_centers(rho, PARAMS, grid) * grid.dx
    x = grid_points(grid)
    want_mean = float(np.sum(x * p))
    want_sd = math.sqrt(float(np.sum((x - want_mean) ** 2 * p)))
    assert draws.mean() == pytest.approx(want_mean, abs=3.5 * want_sd / math.sqrt(2000))


def test_schedule_is_sorted_within_horizon():
    gen = RngStream(3, 1).generator()
    times = schedule_jumps(GrwParams(tau=0.25, width=0.3), 5.0, gen)
    assert times == sorted(times)
    assert all(0.0 < t <= 5.0 for t in times)
    assert schedule_jumps(GrwParams(tau=math.inf, width=0.3), 5.0, gen) == []
    assert schedule_jumps(PARAMS, 0.0, gen) == []


def test_schedule_mean_gap_matches_rate():
    gen = RngStream(8, 0).generator()
    params = GrwParams(tau=1.0, width=0.3, n_eff=4.0)
    times = schedule_jumps(params, 2500.0, gen)
    gaps = np.diff([0.0] + times)
    assert gaps.mean() == pytest.approx(0.25, abs=3.5 * 0.25 / math.sqrt(len(gaps)))


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
def test_schedule_needs_a_finite_horizon(horizon):
    """An infinite horizon would draw forever, and a NaN one would give no
    hit at any rate; both are refused, as a negative one is."""
    gen = RngStream(3, 1).generator()
    with pytest.raises(ValidationError, match="horizon must be finite and >= 0"):
        schedule_jumps(PARAMS, horizon, gen)


def _cat(grid):
    return two_peak_state(
        grid, math.sqrt(0.5), math.sqrt(0.5), centers=(-1.75, 1.75), width=0.25
    )


def test_trajectory_latches_a_decisive_outcome(grid):
    (rec,) = evolve_batch(
        _cat(grid),
        Potential(kind="free"),
        GrwParams(tau=0.5, width=0.3, n_eff=4.0),
        PropagatorConfig(1.0 / 160.0, 10),
        0.5,
        [RngStream(21, 4)],
    )
    assert rec["outcome"] in ("1", "2")
    assert rec["events"], "expected at least one hit at rate 8 over 0.5"
    assert rec["survival_time"] == rec["events"][0]["time"]
    first_post = max(rec["events"][0]["post_branch_weights"])
    assert first_post > 0.999


def test_trajectory_is_reproducible(grid):
    kwargs = dict(
        v=Potential(kind="free"),
        params=GrwParams(tau=0.5, width=0.3, n_eff=4.0),
        cfg=PropagatorConfig(1.0 / 160.0, 10),
        horizon=0.5,
        rng_streams=[RngStream(77, 5)],
    )
    a = evolve_batch(_cat(grid), **kwargs)[0]
    b = evolve_batch(_cat(grid), **kwargs)[0]
    assert a == b
    assert "wall_time" not in a


def test_zero_rate_runs_unitary(grid):
    (rec,) = evolve_batch(
        _cat(grid),
        Potential(kind="free"),
        GrwParams(tau=math.inf, width=0.3),
        PropagatorConfig(1.0 / 160.0, 10),
        0.25,
        [RngStream(1, 1)],
    )
    assert rec["events"] == []
    assert rec["outcome"] == "undecided"
    # free spreading leaks tails across the midline; weights stay near
    # the initial split but not exactly on it
    final = rec["series"]["branch_weights"][-1]
    assert final[0] == pytest.approx(0.5, abs=1e-2)
    assert sum(final) == pytest.approx(1.0, abs=1e-9)


def test_rate_too_fast_for_dt_is_rejected(grid):
    with pytest.raises(ValidationError):
        evolve_batch(
            _cat(grid),
            Potential(kind="free"),
            GrwParams(tau=1.0, width=0.3, n_eff=100.0),
            PropagatorConfig(0.01, 10),
            1.0,
            [RngStream(0, 0)],
        )
    assert MAX_RATE_DT == pytest.approx(1.0 / 20.0)


def test_infinite_rate_is_rejected_before_any_hit_is_drawn(monkeypatch):
    """A ``tau`` so small that ``n_eff / tau`` overflows is refused when
    the parameters are made, so no schedule is ever drawn at an infinite
    rate (``exponential(0.0)`` returns 0.0, and the schedule would grow
    without end)."""
    def no_schedule(*args):
        raise AssertionError("hits scheduled at an infinite rate")

    monkeypatch.setattr(collapse, "schedule_jumps", no_schedule)
    for tau, n_eff in ((1e-320, 6.0), (1e-300, 1e10), (1e-10, 1.7e300)):
        assert n_eff / tau == math.inf
        with pytest.raises(ValidationError, match="hit rate n_eff / tau must be finite, got inf"):
            GrwParams(tau=tau, width=0.3, n_eff=n_eff)
    assert GrwParams(tau=1e-300, width=0.3, n_eff=1e8).rate == pytest.approx(1e308)


def test_horizon_must_align_with_dt(grid):
    with pytest.raises(ValidationError):
        evolve_batch(
            _cat(grid),
            Potential(kind="free"),
            PARAMS,
            PropagatorConfig(1.0 / 160.0, 10),
            0.33,
            [RngStream(0, 0)],
        )


def test_hit_breaks_reversibility(grid):
    """Unitary motion rewinds exactly; one hit makes rewinding miss."""
    cfg = PropagatorConfig(1.0 / 160.0, 10)
    free = Potential(kind="free")
    psi0 = _cat(grid)

    def rewind(state):
        back = WaveFunction(grid, np.conj(state.amplitudes))
        back = step(back, free, cfg, 0.25)
        return WaveFunction(grid, np.conj(back.amplitudes))

    clean = rewind(step(psi0, free, cfg, 0.25))
    assert np.max(np.abs(clean.amplitudes - psi0.amplitudes)) < 1e-7

    kicked = hit(step(psi0, free, cfg, 0.125), -1.75, PARAMS)
    kicked = step(kicked, free, cfg, 0.125)
    assert np.max(np.abs(rewind(kicked).amplitudes - psi0.amplitudes)) > 0.1


def test_two_level_branch_weights_use_levels(grid):
    psi = gaussian_packet(grid, 0.0, 0.5, levels=2, level=1)
    slices = collapse._half_grids(grid)
    (w,) = _observe(psi.amplitudes[np.newaxis], grid_points(grid), grid.dx, slices)[1]
    assert tuple(w) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_explicit_outcome_regions_respected(grid):
    """``_observe`` sums the density over the index slices it is given, in
    their order: the slice order decides which branch is "1"."""
    psi = gaussian_packet(grid, 3.0, 0.4)
    split = int(np.searchsorted(grid_points(grid), 2.0))
    slices = (slice(split, grid.n_points), slice(0, split))
    (w,) = _observe(psi.amplitudes[np.newaxis], grid_points(grid), grid.dx, slices)[1]
    assert w[0] > 0.99
    assert w[0] + w[1] == pytest.approx(1.0, abs=1e-9)


class _UntouchedStream:
    """A stream that fails the test if anything reads its key to draw from it."""

    @property
    def seed(self):
        raise AssertionError("a stream was drawn from")

    stream_id = seed


@pytest.mark.parametrize("bounds", [(0.0, 16.0), (1.0, 17.0), (-16.0, 0.0), (-17.0, -1.0)])
def test_one_level_grid_must_hold_zero_inside(bounds):
    """A one-level state's outcomes are the sides of x = 0: a grid with
    points on one side only is rejected for the whole batch, before any
    stream is drawn from."""
    grid = GridSpec(*bounds, 256)
    psi = gaussian_packet(grid, 0.5 * sum(bounds), 0.5)
    with pytest.raises(ValidationError, match="sides of x = 0"):
        evolve_batch(psi, Potential(kind="free"), PARAMS, PropagatorConfig(0.01, 10),
                     1.0, [_UntouchedStream()])


@given(
    center=st.floats(-2.5, 2.5),
    spot=st.floats(-3.5, 3.5),
    width=st.floats(0.35, 1.0),
)
@example(center=2.5, spot=-3.0, width=0.375)  # residual norm^2 3.8e-36: raises
@example(center=2.5, spot=-3.0, width=0.5)  # residual norm^2 4.0e-23: renormalizes
@example(center=0.0, spot=0.0, width=0.5)  # residual norm^2 0.73: renormalizes
def test_hits_always_preserve_norm(center, spot, width):
    """A hit either renormalizes to unit norm or, when the residual squared
    norm is below the documented 1e-30 floor, raises ZeroNormError -- never
    anything else."""
    g = GridSpec(-8.0, 8.0, 256)
    psi = gaussian_packet(g, center, width)
    residual = WaveFunction(g, psi.amplitudes * jump_profile(spot, PARAMS, g))
    if residual.norm_sq < 1e-30:
        with pytest.raises(ZeroNormError):
            hit(psi, spot, PARAMS)
        return
    out = hit(psi, spot, PARAMS)
    assert out.norm_sq == pytest.approx(1.0, abs=1e-9)
    pre = branch_weights(psi)
    post = branch_weights(out)
    assert pre[0] + pre[1] == pytest.approx(1.0, abs=1e-9)
    assert post[0] + post[1] == pytest.approx(1.0, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
def test_schedules_are_deterministic_per_stream(seed):
    a = schedule_jumps(PARAMS, 3.0, RngStream(seed, 2).generator())
    b = schedule_jumps(PARAMS, 3.0, RngStream(seed, 2).generator())
    assert a == b


def _reference_trajectory(psi, v, params, cfg, horizon, stream, times=None):
    """One trajectory as a plain loop over one state at a time, each
    stride a hand-written Strang product: the reference that the lockstep
    engine must reproduce bit for bit.  Returns the row's record as the
    dict its line parses to, built from plain lists.  ``times`` stands in
    for the hit schedule the stream would draw."""
    grid, dt = psi.grid, cfg.dt
    half = np.exp(-0.5j * dt * _potential_values(v, grid))
    full = half * half
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    kin = np.exp(-1j * dt * (0.5 * k**2 + np.outer([1.0], k) * 0.0))
    n_total = int(round(horizon / dt))
    gen = stream.generator()
    if times is None:
        times = schedule_jumps(params, horizon, gen)
    pending = [(min(max(int(round(t / dt)), 0), n_total), t) for t in times]
    series = {"branch_weights": [], "means": [], "times": [], "variances": []}
    rec = {"events": [], "outcome": "undecided", "scenario": "",
           "seed": [stream.seed, stream.stream_id], "series": series, "survival_time": None}

    def sample(state, t):
        w = branch_weights(state)
        mean, var = moments(state)
        series["times"].append(t)
        series["branch_weights"].append(list(w))
        series["means"].append(mean)
        series["variances"].append(var)
        if rec["survival_time"] is None and max(w) > 1.0 - 1e-3:
            rec["survival_time"], rec["outcome"] = t, "1" if w[0] >= w[1] else "2"

    state, index = psi, 0
    sample(state, 0.0)
    while index < n_total or pending:
        if pending and pending[0][0] <= index:
            snapped = pending.pop(0)[0] * dt
            center = draw(density(state), params, grid, gen)
            pre, state = branch_weights(state), hit(state, center, params)
            rec["events"].append({
                "center": center, "coordinate_index": 0,
                "post_branch_weights": list(branch_weights(state)),
                "pre_branch_weights": list(pre), "time": snapped,
            })
            sample(state, snapped)
            continue
        stop = min(pending[0][0], n_total) if pending else n_total
        stride = min(cfg.steps_per_event_check, stop - index)
        amps = state.amplitudes * half
        for i in range(stride):
            amps = np.fft.ifft(kin * np.fft.fft(amps, axis=1), axis=1)
            amps *= full if i < stride - 1 else half
        state, index = WaveFunction(grid, amps), index + stride
        sample(state, index * dt)
    return rec


def test_lockstep_rows_equal_the_reference_loop(grid):
    """Rows of one block, with strides ending at different steps, match the
    one-at-a-time loop exactly (half/full phase order included)."""
    v = Potential(kind="double_well", barrier_height=8.0, well_separation=3.5)
    params = GrwParams(tau=0.75, width=0.3, n_eff=6.0)
    cfg = PropagatorConfig(1.0 / 160.0, 10)
    streams = [RngStream(31, i) for i in range(12)]
    batch = evolve_batch(_cat(grid), v, params, cfg, 0.75, streams)
    for stream, rec in zip(streams, batch):
        want = _reference_trajectory(_cat(grid), v, params, cfg, 0.75, stream)
        assert rec == want
    assert sum(len(rec["events"]) for rec in batch) > 12


def test_presized_series_hold_rows_that_meet_their_bound(grid, monkeypatch):
    """A row's samples fill its presized run exactly when no hit falls on
    a stride end: hits on consecutive steps inside strides (row 0) and no
    hit at all (row 2) meet the bound, a hit on a stride end (row 1) stays
    below it.  Each row keeps the reference loop's record.  A bound one
    sample short raises instead of cutting a row or spilling into the next."""
    v = Potential(kind="double_well", barrier_height=8.0, well_separation=3.5)
    params = GrwParams(tau=0.75, width=0.3, n_eff=6.0)
    cfg = PropagatorConfig(1.0 / 160.0, 10)
    horizon = 20 * cfg.dt
    schedules = [[5 * cfg.dt, 6 * cfg.dt], [10 * cfg.dt, 13 * cfg.dt, 14 * cfg.dt], []]
    streams = [RngStream(41, i) for i in range(3)]

    def run():
        drawn = iter(schedules)
        monkeypatch.setattr(collapse, "schedule_jumps", lambda *args: next(drawn))
        return evolve_batch(_cat(grid), v, params, cfg, horizon, streams)

    batch = run()
    sizes = [len(rec["series"]["times"]) for rec in batch]
    bounds = [collapse._sample_bound(20, 10, len(times)) for times in schedules]
    assert sizes == [7, 8, 3]
    assert bounds == [7, 9, 3]
    for stream, times, rec in zip(streams, schedules, batch):
        want = _reference_trajectory(_cat(grid), v, params, cfg, horizon, stream, times)
        assert rec == want
    real = collapse._sample_bound
    monkeypatch.setattr(collapse, "_sample_bound", lambda *args: real(*args) - 1)
    with pytest.raises(RuntimeError, match="outran"):
        run()


#: first hits of the shared-prefix block, in steps of dt: at step 0, none,
#: on a stride end, mid-stride, on consecutive steps, and at the horizon
#: (None stands for the horizon step)
PREFIX_HITS = [[0.2], [], [10, 17], [13], [5, 6], [None]]


def _prefix_block(grid, monkeypatch, n_total, **kwargs):
    """The :data:`PREFIX_HITS` block over ``n_total`` steps of strides of
    10, with the rows each substep steps, and the schedules."""
    v = Potential(kind="double_well", barrier_height=8.0, well_separation=3.5)
    params = GrwParams(tau=0.75, width=0.3, n_eff=6.0)
    cfg = PropagatorConfig(1.0 / 160.0, 10)
    schedules = [[(n_total if k is None else k) * cfg.dt for k in hits] for hits in PREFIX_HITS]
    streams = [RngStream(43, i) for i in range(len(schedules))]
    drawn = iter(schedules)
    monkeypatch.setattr(collapse, "schedule_jumps", lambda *args: next(drawn))
    real, stepped = collapse.substep, []

    def counted(block, *args):
        stepped.append(len(block))
        return real(block, *args)

    monkeypatch.setattr(collapse, "substep", counted)
    batch = evolve_batch(_cat(grid), v, params, cfg, n_total * cfg.dt, streams, **kwargs)
    return batch, stepped, schedules, (v, params, cfg, streams)


@pytest.mark.parametrize("n_total", [30, 25])
def test_rows_join_at_the_last_stride_end_before_their_first_hit(grid, monkeypatch, n_total):
    """Every row of a block shares the ghost's hit-free prefix and still
    gets the reference loop's record: a hit at step 0, no hit, a first hit
    on a stride end, one mid-stride, hits on consecutive steps and a hit at
    the horizon step (a stride end at 30 steps, mid-stride at 25).  A row
    whose first hit is at step h is stepped only from j = 10 * (h // 10):
    the block steps the ghost over the whole horizon (a row has no hit)
    and each hit row for n_total - j steps."""
    batch, stepped, schedules, (v, params, cfg, streams) = _prefix_block(
        grid, monkeypatch, n_total
    )
    for stream, times, rec in zip(streams, schedules, batch):
        want = _reference_trajectory(
            _cat(grid), v, params, cfg, n_total * cfg.dt, stream, times
        )
        assert rec == want
    joins = [round(times[0] / cfg.dt) // 10 * 10 for times in schedules if times]
    assert joins == [0, 10, 10, 0, n_total // 10 * 10]
    assert len(stepped) == n_total
    assert sum(stepped) - n_total == sum(n_total - j for j in joins)


def test_tally_only_rows_stop_at_their_decision(grid, monkeypatch):
    """With ``stop_decided`` every row keeps the outcome, survival time and
    jump count of its whole run, its whole schedule, but a decided row's
    samples and events end at its decision, and it has no record: indexing
    or rendering it raises.  Its events are those of its whole run whose
    post-hit sample is at or before its latch.  A decided row is stepped no
    further: the block steps no more rows than the full run does."""
    full, full_steps, _, _ = _prefix_block(grid, monkeypatch, 30)
    cut, cut_steps, _, _ = _prefix_block(grid, monkeypatch, 30, stop_decided=True)
    assert sum(cut_steps) < sum(full_steps)
    assert cut.tally() == full.tally() == records_tally(list(full))
    for i, whole in enumerate(full):
        assert cut.n_hits[i] == len(whole["events"])
        if whole["survival_time"] is None:
            assert cut.latch[i] == -1
            assert cut[i] == whole
            continue
        lo, n = int(cut.first[i]), int(cut.sampled[i])
        times = cut.times[lo:lo + n].tolist()
        weights = cut.weights[lo:lo + n].tolist()
        e = int(cut.hit_first[i])
        taken = sum(k + 1 < n for k in full.pre[e:e + len(whole["events"])].tolist())
        events = [
            {"center": center, "coordinate_index": 0, "post_branch_weights": weights[k + 1],
             "pre_branch_weights": weights[k], "time": times[k + 1]}
            for k, center in zip(cut.pre[e:e + taken].tolist(),
                                 cut.centers[e:e + taken].tolist())
        ]
        assert times[-1] == whole["survival_time"]
        assert times == whole["series"]["times"][:n]
        assert weights == whole["series"]["branch_weights"][:n]
        assert events == whole["events"][:taken]
        for read in (cut.__getitem__, cut.render):
            with pytest.raises(RuntimeError, match="must not be written"):
                read(i)


def _random_block(rng, rows, levels, n_points):
    """Unnormalized complex rows with very different scales and shapes."""
    block = rng.normal(size=(rows, levels, n_points)) + 1j * rng.normal(
        size=(rows, levels, n_points)
    )
    block *= np.exp(rng.uniform(-3.0, 3.0, size=(rows, 1, 1)))
    block[:, :, : n_points // 3] *= rng.uniform(0.0, 1e-3, size=(rows, 1, 1))
    return block


@pytest.mark.parametrize("rows", [1, 3, 5, 33, 64, 128, 130])
@pytest.mark.parametrize("levels", [1, 2])
def test_observing_a_block_equals_each_row_alone(grid, rows, levels):
    """The engine's block observation gives every row the bits of the
    per-state reference on that row alone: norm, branch weights and
    moments, and the density a hit round draws from.  Blocks of more than
    ``OBSERVE_ROWS`` rows are observed in chunks, as views of the whole
    block or as index copies of a subset of its rows."""
    rng = np.random.default_rng(1000 * rows + levels)
    block = _random_block(rng, rows, levels, grid.n_points)
    if levels == 1:
        block[0] = two_peak_state(
            grid, 0.8, 0.6, centers=(-2.0, 2.0), width=0.3
        ).amplitudes
    x = grid_points(grid)
    slices = collapse._half_grids(grid)
    rho = collapse._density(squared_amplitudes(block))
    subset = np.arange(rows)[::-1]
    for picked in (None, subset):
        norms, weights, totals, means, variances = _observe(
            block, x, grid.dx, slices, picked
        )
        for k, i in enumerate(range(rows) if picked is None else picked.tolist()):
            psi = WaveFunction(grid, block[i])
            assert norms[k] == psi.norm_sq
            assert np.array_equal(rho[i], density(psi))
            assert tuple(weights[k].tolist()) == branch_weights(psi)
            assert totals[k] == np.sum(density(psi) * grid.dx)
            assert (means[k], variances[k]) == moments(psi)


def test_rows_without_weight_retire_at_their_first_sample(grid):
    """A state whose weight is below the zero-norm floor has no moments:
    every row retires at time 0 with the zero-weight text."""
    faint = WaveFunction(grid, 1e-20 * _cat(grid).amplitudes)
    results = evolve_batch(faint, Potential(kind="free"), PARAMS,
                           PropagatorConfig(1.0 / 160.0, 10), 0.25,
                           [RngStream(3, i) for i in range(3)])
    for res in results:
        assert isinstance(res, ZeroNormError)
        assert str(res) == "state has no weight; moments undefined"


def test_center_search_equals_searchsorted_per_row(grid):
    """The array center search puts every row at the grid index a per-row
    ``searchsorted(..., side="right")`` of its normalized cumulative
    weights gives: a uniform equal to a run of equal cdf entries, a
    uniform past the last entry (the last-point clamp) and a row without
    density, whose NaN uniform is not read and whose index is -1, all in
    one round."""
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.0, 1.0, size=(6, grid.n_points))
    rho[:, 100:] = 0.0  # far from the support the center density is 0 or rounding
    rho[3] = 0.0
    weights = _density_to_centers(rho, PARAMS, grid) * grid.dx
    with np.errstate(invalid="ignore"):  # row 3 has no density
        cdfs = np.cumsum(weights, axis=-1) / weights.sum(axis=-1, keepdims=True)
    (ties,) = np.nonzero(np.diff(cdfs[1]) == 0.0)
    assert ties.size  # equal neighbours: the search must pass all of them
    uniforms = np.array([0.3, cdfs[1, ties[0]], 0.5, np.nan, 1.5, 0.0])
    got, faults = _draw_centers(rho, PARAMS, grid, uniforms)
    assert list(faults) == [3]
    for i, u in enumerate(uniforms.tolist()):
        if i == 3:
            assert isinstance(faults[i], ZeroDensityError)
            assert got[i] == -1
            continue
        idx = int(np.searchsorted(cdfs[i], u, side="right"))
        assert got[i] == min(idx, grid.n_points - 1)
    assert np.searchsorted(cdfs[4], 1.5, side="right") == grid.n_points
    assert got[4] == grid.n_points - 1
    assert got[1] > ties[0] + 1


#: stream keys of the setup-draw pin: the corners of the key space, then
#: random keys
SETUP_KEYS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)] + [
    (int(seed), int(stream_id))
    for seed, stream_id in np.random.default_rng(27).integers(
        0, 2**64, size=(196, 2), dtype=np.uint64, endpoint=False
    )
]


def test_setup_draws_equal_a_plain_loop_over_each_stream():
    """Every row's snapped schedule and uniforms, drawn at setup, are the
    draws of a plain loop over its own generator: its schedule, then one
    ``random()`` per hit.  Each row's run ends in a sentinel, and a last
    run, the ghost's, is a sentinel alone."""
    params = GrwParams(tau=0.75, width=0.3, n_eff=6.0)
    dt, n_total = 1.0 / 160.0, 120
    streams = [RngStream(seed, stream_id) for seed, stream_id in SETUP_KEYS]
    keys, n_hits, schedule, uniforms = collapse._setup_draws(
        streams, params, n_total * dt, dt, n_total
    )
    assert keys == SETUP_KEYS
    assert len(n_hits) == len(streams) + 1 and n_hits[-1] == 0
    assert n_hits.sum() > 4 * len(streams)
    first = 0
    for stream, n in zip(streams + [None], n_hits.tolist()):
        times, draws = stream_draws(params, n_total * dt, stream) if stream else ([], [])
        assert n == len(times)
        steps = [min(max(int(round(t / dt)), 0), n_total) for t in times]
        assert schedule[first : first + n + 1].tolist() == steps + [n_total + 1]
        assert uniforms[first : first + n].tolist() == draws
        assert np.isnan(uniforms[first + n])
        first += n + 1
    assert first == len(schedule) == len(uniforms)


@pytest.mark.parametrize("dt", [0.125, 1.0 / 160.0])
def test_hit_times_snap_as_python_round_does(monkeypatch, dt):
    """Snapping hit times as one array gives ``min(max(int(round(t /
    dt)), 0), n_total)`` on times at and beside every half step (ties go
    to even, exactly at ``dt = 1/8``), before 0 and past the horizon."""
    n_total = 20
    times = [k * dt / 2 + e for k in range(-4, 2 * n_total + 6) for e in (-1e-15, 0.0, 1e-15)]
    monkeypatch.setattr(collapse, "schedule_jumps", lambda *args: times)
    _, _, schedule, _ = collapse._setup_draws([RngStream(1)], PARAMS, n_total * dt, dt, n_total)
    assert schedule[:-2].tolist() == [min(max(int(round(t / dt)), 0), n_total) for t in times]


def test_no_stream_is_drawn_from_once_the_block_steps(grid, monkeypatch):
    """Every draw of a block is made before its first step: with every
    started stream's generator raising once the block has stepped, it runs
    and gives the records it gives unpatched."""
    stepped, started = [], []
    start = _Rekeyer.start

    def sealed(self, stream):
        gen = start(self, stream)
        started.append(stream.stream_id)

        class Draws:
            def __getattr__(self, name):
                assert not stepped, f"a stream drew {name} after the first step"
                return getattr(gen, name)

        return Draws()

    v = Potential(kind="double_well", barrier_height=8.0, well_separation=3.5)
    run = [_cat(grid), v, GrwParams(tau=0.75, width=0.3, n_eff=6.0),
           PropagatorConfig(1.0 / 160.0, 10), 0.75, [RngStream(31, i) for i in range(12)]]
    plain = evolve_batch(*run)
    real = collapse.substep

    def substep(*args):
        stepped.append(True)
        return real(*args)

    monkeypatch.setattr(collapse, "substep", substep)
    monkeypatch.setattr(_Rekeyer, "start", sealed)
    block = evolve_batch(*run)
    assert stepped and started == list(range(12))
    assert [block.render(i) for i in range(12)] == [plain.render(i) for i in range(12)]
    assert block.n_hits.sum() > 12


@pytest.mark.parametrize("n_points", [256, 512, 1024])
def test_profiles_of_many_centers_equal_each_alone(n_points):
    """``jump_profile`` over an array of centers gives every center the
    bits of its scalar call."""
    grid = GridSpec(-8.0, 8.0, n_points)
    rng = np.random.default_rng(n_points)
    centers = np.concatenate([grid_points(grid)[::7], rng.uniform(-9.0, 9.0, 20)])
    many = jump_profile(centers, PARAMS, grid)
    assert many.shape == (len(centers), n_points)
    for center, row in zip(centers.tolist(), many):
        assert np.array_equal(row, jump_profile(center, PARAMS, grid))


@pytest.mark.parametrize("n_points", [256, 512, 1024])
@pytest.mark.parametrize("levels", [1, 2])
def test_a_hit_round_equals_one_row_rounds(n_points, levels):
    """A 7-row draw-and-localize round gives every row the center and
    amplitudes of a one-row round with its own uniform: row ``i`` takes
    ``u[i]``, whichever uniforms the round is given, and the round's
    cached profiles give each row the amplitudes of the scalar
    ``jump_profile`` at its center.  A row with no density and a row hit
    where it has no weight fault with their exact texts; the second is
    multiplied by its profile but not rescaled.  The other rows keep their
    bits."""
    grid = GridSpec(-8.0, 8.0, n_points)
    x = grid_points(grid)
    rng = np.random.default_rng(10 * n_points + levels)
    block = _random_block(rng, 7, levels, n_points)
    block[2] = 0.0  # no density: its draw fails
    block[4] = gaussian_packet(grid, -6.0, 0.25).amplitudes  # hit below at +6.0
    u = np.array([RngStream(77, i).generator().random() for i in range(7)])
    rho = squared_amplitudes(block).sum(axis=1)
    idx, faults = _draw_centers(rho, PARAMS, grid, u)
    rolled = np.roll(u, 1)  # row i given row i - 1's uniform
    shifted, _ = _draw_centers(rho, PARAMS, grid, rolled)
    assert list(faults) == [2]
    for i in range(7):
        alone, alone_faults = _draw_centers(rho[i : i + 1], PARAMS, grid, u[i : i + 1])
        if i == 2:
            assert isinstance(faults[i], ZeroDensityError)
            assert str(faults[i]) == "center density integrates to 0.000e+00"
            assert str(alone_faults[0]) == str(faults[i])
            assert idx[i] == -1 and alone[0] == -1
        else:
            assert not alone_faults
            assert 0 <= idx[i] < n_points and idx[i] == alone[0]
            other, _ = _draw_centers(rho[i : i + 1], PARAMS, grid, rolled[i : i + 1])
            assert shifted[i] == other[0]

    drawn = np.array([i for i in range(7) if i != 2])
    far = int(np.searchsorted(x, 6.0))
    assert x[far] == 6.0
    spots = np.where(drawn == 4, far, idx[drawn])
    hit_rows = block[drawn]
    faults = _localize(hit_rows, collapse._profiles(spots, PARAMS, grid), x[spots], grid.dx)
    assert list(faults) == [3]  # row 4 is the fourth row hit
    for k, (i, spot) in enumerate(zip(drawn.tolist(), x[spots].tolist())):
        alone = block[i : i + 1].copy()
        alone_faults = _localize(alone, jump_profile(np.array([spot]), PARAMS, grid),
                                 np.array([spot]), grid.dx)
        if i == 4:
            assert isinstance(faults[k], ZeroNormError)
            residual = block[4] * jump_profile(6.0, PARAMS, grid)
            r2 = float(np.sum(squared_amplitudes(residual)) * grid.dx)
            assert r2 < 1e-30
            assert str(faults[k]) == (
                f"jump at 6.0 annihilates the state (residual norm^2 {r2:.3e})"
            )
            assert str(alone_faults[0]) == str(faults[k])
            assert np.array_equal(hit_rows[k], residual)  # not rescaled
        else:
            assert not alone_faults
            assert np.array_equal(hit_rows[k], alone[0])
            assert float(np.sum(squared_amplitudes(hit_rows[k])) * grid.dx) == pytest.approx(1.0)


@pytest.mark.parametrize("n_points", [256, 512, 1024])
def test_cached_profiles_equal_the_scalar_profile_at_every_point(n_points):
    """Every row of the profile cache has the bits of ``jump_profile`` at
    its grid point, read cold and warm, whichever order and grouping the
    points are filled in, and for parameters that differ only in ``n_eff``,
    which share the table."""
    grid = GridSpec(-8.0, 8.0, n_points)
    x = grid_points(grid)
    want = np.array([jump_profile(float(c), PARAMS, grid) for c in x.tolist()])
    rng = np.random.default_rng(n_points)
    orders = [np.arange(n_points), np.arange(n_points)[::-1], rng.permutation(n_points)]
    for order in orders:
        collapse._profile_table.cache_clear()
        for chunk in np.array_split(order, rng.integers(1, 40)):  # cold, a chunk at a time
            chunk = np.concatenate((chunk, chunk[:3]))  # repeats within a round
            assert np.array_equal(collapse._profiles(chunk, PARAMS, grid), want[chunk])
        table = collapse._profile_table(PARAMS.width, grid)
        slot, rows = table.pair
        assert rows.shape == (n_points, n_points) and not rows.flags.writeable
        for params in (PARAMS, GrwParams(tau=1.0, width=PARAMS.width, n_eff=1e3)):  # warm
            assert np.array_equal(collapse._profiles(order, params, grid), want[order])
        assert collapse._profile_table(PARAMS.width, grid).pair[1] is rows  # no refill


def test_concurrent_fills_read_consistent_profiles(grid):
    """Threads filling one cold table at once each read every profile with
    its scalar call's bits: a fill swaps in a whole new table."""
    x = grid_points(grid)
    want = np.array([jump_profile(float(c), PARAMS, grid) for c in x.tolist()])
    collapse._profile_table.cache_clear()
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            idx = rng.integers(0, grid.n_points, size=rng.integers(1, 9))
            if not np.array_equal(collapse._profiles(idx, PARAMS, grid), want[idx]):
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_the_cache_holds_the_rows_of_the_centers_hit(grid, monkeypatch):
    """A block run on a cold cache fills exactly the grid points its hits
    drew, one row each; a second run that hits no new point adds none."""
    drawn = []
    real = collapse._draw_centers

    def draw(rho, params, grid, u):
        idx, faults = real(rho, params, grid, u)
        drawn.extend(idx[idx >= 0].tolist())
        return idx, faults

    monkeypatch.setattr(collapse, "_draw_centers", draw)
    v = Potential(kind="double_well", barrier_height=8.0, well_separation=3.5)
    params = GrwParams(tau=0.75, width=0.3, n_eff=6.0)
    run = [_cat(grid), v, params, PropagatorConfig(1.0 / 160.0, 10), 0.75,
           [RngStream(31, i) for i in range(40)]]
    collapse._profile_table.cache_clear()
    first = evolve_batch(*run)
    table = collapse._profile_table(params.width, grid)
    slot, rows = table.pair
    hit = sorted(set(drawn))
    assert len(drawn) > len(hit) > 1
    assert np.flatnonzero(slot >= 0).tolist() == hit
    assert sorted(slot[hit].tolist()) == list(range(len(hit)))
    assert rows.shape == (len(hit), grid.n_points)
    again = evolve_batch(*run)
    assert table.pair[0] is slot and table.pair[1] is rows  # no new point, no fill
    assert [again.render(i) for i in range(40)] == [first.render(i) for i in range(40)]


def test_a_profile_filled_by_an_earlier_run_gives_the_same_bits(grid):
    """A block's records are the same whether its profiles are computed in
    it, were filled by another run with other centers, or were all filled
    before it in another order."""
    v = Potential(kind="double_well", barrier_height=8.0, well_separation=3.5)
    params = GrwParams(tau=0.75, width=0.3, n_eff=6.0)

    def lines(seed):
        block = evolve_batch(_cat(grid), v, params, PropagatorConfig(1.0 / 160.0, 10), 0.75,
                             [RngStream(seed, i) for i in range(24)])
        return [block.render(i) for i in range(24)]

    collapse._profile_table.cache_clear()
    cold = lines(5)
    collapse._profile_table.cache_clear()
    lines(6)  # other centers first
    assert lines(5) == cold
    collapse._profile_table.cache_clear()
    collapse._profiles(np.random.default_rng(1).permutation(grid.n_points), params, grid)
    assert lines(5) == cold


def test_center_density_equals_the_uncached_convolution(grid):
    psi = two_peak_state(grid, 0.8, 0.6, centers=(-2.0, 2.0), width=0.3)
    d = grid.dx * np.arange(grid.n_points)
    d = np.minimum(d, grid.length - d)
    kernel = np.exp(-(d**2) / PARAMS.width**2)
    kernel /= kernel.sum() * grid.dx
    want = np.fft.irfft(np.fft.rfft(kernel) * np.fft.rfft(density(psi)), n=grid.n_points)
    want *= grid.dx
    for _ in range(2):  # cold and cached kernel spectrum
        got = _density_to_centers(density(psi), PARAMS, grid)
        assert np.array_equal(got, np.maximum(want, 0.0))


def test_the_rungs_of_an_n_eff_sweep_share_one_kernel_spectrum():
    """The center-density kernel reads only the width and the grid, which
    the rungs of an ``n_eff`` sweep share, so a cold sweep computes it once."""
    collapse._kernel_spectrum.cache_clear()
    survival_scaling_points(chain_defaults(), (1, 10), 40, master_seed=5)
    info = collapse._kernel_spectrum.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
