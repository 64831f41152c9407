import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwsim import (
    GridSpec,
    GrwParams,
    LgConfig,
    ScenarioConfig,
    ValidationError,
    run_ensemble,
    run_leggett_garg,
    run_single,
    survival_scaling_points,
    trajectory_stream,
)
from grwsim import scenarios
from grwsim.config import chain_defaults
from grwsim.errors import NonConvergentError
from grwsim.rng import _Rekeyer
from grwsim.scenarios import (
    LG_BLOCK_ROWS,
    LG_MAX_MEAN_HITS,
    entangled_state,
    initial_cat_state,
    matched_double_well,
    segment_contrast,
)

from _oracles import (
    exponential_median,
    lg_pair_correlator,
    projection_chain_odd_probability,
    three_time_k,
)
from _support import (
    density,
    draw,
    hit,
    level_weights,
    moments,
    padded_segment_contrast,
    side_weights,
    two_proportion_test,
    two_segment_pair_product_sum,
)

SPACING = math.pi / 3.0


def _lg(rate: float) -> LgConfig:
    """The acceptance three-time setup at hit rate ``rate`` (0 = unitary)."""
    collapse = None if rate == 0.0 else GrwParams(tau=1.0 / rate, width=0.3, n_eff=1.0)
    return LgConfig(
        omega=1.0, t1=SPACING, t2=2 * SPACING, t3=3 * SPACING, collapse=collapse
    )


def _chain() -> ScenarioConfig:
    return chain_defaults()


def _tally(cfg: ScenarioConfig, trajectories: int, master_seed: int):
    """Outcome tally of an ensemble in which no trajectory raised."""
    summary = run_ensemble(cfg, trajectories, master_seed)
    assert summary.failures == 0
    return summary.tally


def test_config_validation():
    with pytest.raises(ValidationError):
        ScenarioConfig(kind="soup")
    with pytest.raises(ValidationError):
        ScenarioConfig(mode="classical")
    with pytest.raises(ValidationError):
        ScenarioConfig(weight_1=1.5)


def test_matched_well_curvature():
    v = matched_double_well(0.25, 3.5)
    omega = 1.0 / (2.0 * 0.25**2)
    assert v.well_separation == 3.5
    assert v.barrier_height == pytest.approx(omega**2 * 3.5**2 / 8.0)
    # curvature formula gives back the same omega^2
    assert 8.0 * v.barrier_height / v.well_separation**2 == pytest.approx(omega**2)


def test_cat_state_puts_branch_one_on_the_left():
    cfg = ScenarioConfig(weight_1=0.7)
    psi = initial_cat_state(cfg)
    left, right = side_weights(density(psi), psi.grid)
    assert left == pytest.approx(0.7, abs=1e-9)
    assert right == pytest.approx(0.3, abs=1e-9)


#: a cat grid whose midpoint (2.0) is not the cat's centre (0.0)
OFF_CENTRE = GridSpec(-8.0, 12.0, 320)


@pytest.mark.parametrize("weight", [0.5, 0.7])
def test_off_centre_cat_starts_at_its_born_weights(weight):
    """The outcomes are the two sides of x = 0 wherever the grid's
    midpoint lies."""
    rec = run_single(ScenarioConfig(weight_1=weight, grid=OFF_CENTRE), 7, 0)
    assert rec["series"]["times"][0] == 0.0
    assert rec["series"]["branch_weights"][0] == pytest.approx([weight, 1.0 - weight], abs=1e-9)


@pytest.mark.parametrize("seed", [7, 8])
def test_off_centre_cat_passes_the_born_check(seed):
    summary = run_ensemble(ScenarioConfig(grid=OFF_CENTRE), 1000, seed)
    assert summary.failures == 0
    assert summary.tally.undecided_fraction <= 0.01
    assert summary.p_value > 0.01


def test_entangled_state_geometry():
    cfg = _chain()
    psi = entangled_state(cfg)
    assert psi.levels == 2
    w = level_weights(psi)
    assert w[0] == pytest.approx(0.5, abs=1e-9)
    mean0, _ = moments(
        type(psi)(psi.grid, np.vstack([psi.amplitudes[0], 0 * psi.amplitudes[0]]))
    )
    # level 0 (outcome 1) displaced to +separation/2
    assert mean0 == pytest.approx(cfg.separation / 2.0, abs=1e-6)


def test_entangled_state_needs_clear_separation():
    cfg = ScenarioConfig(
        kind="measurement_chain", separation=3.0, packet_width=0.25
    )
    with pytest.raises(ValidationError):
        entangled_state(cfg)


def test_wpr_single_is_exact_projection():
    cfg = ScenarioConfig(mode="wpr", weight_1=0.3)
    rec = run_single(cfg, 0, 5)
    assert rec["outcome"] in ("1", "2")
    assert rec["events"] == []
    assert rec["series"]["times"] == [0.0, cfg.horizon]
    assert rec["survival_time"] == cfg.horizon


def test_wpr_frequencies_match_weights():
    cfg = ScenarioConfig(mode="wpr", weight_1=0.3)
    tally = _tally(cfg, 4000, 9)
    assert tally.count_undecided == 0
    sd = math.sqrt(0.3 * 0.7 / 4000)
    assert tally.frequency(1) == pytest.approx(0.3, abs=3.5 * sd)


@pytest.mark.parametrize("weight", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_cat_outcome_rates_follow_the_initial_weights(weight):
    cfg = ScenarioConfig(weight_1=weight)
    n = 1000
    tally = _tally(cfg, n, 29)
    assert tally.undecided_fraction <= 0.01
    sd = math.sqrt(weight * (1.0 - weight) / n)
    assert tally.frequency(1) == pytest.approx(weight, abs=max(3.5 * sd, 1e-12))


def test_grw_and_wpr_rates_are_statistically_indistinguishable():
    cfg = ScenarioConfig(weight_1=0.5)
    grw = _tally(cfg, 1500, 101)
    wpr = _tally(replace(cfg, mode="wpr"), 1500, 102)
    z, p = two_proportion_test(
        grw.count_1, grw.decided, wpr.count_1, wpr.decided
    )
    assert abs(z) < 3.29  # 99.9% two-sided band
    assert p > 1e-3


def test_nonconvergent_when_horizon_is_too_short():
    cfg = ScenarioConfig(
        collapse=GrwParams(tau=8.0, width=0.3, n_eff=1.0),  # rate 1/8
        horizon=0.2,
        prop=ScenarioConfig().prop,
    )
    with pytest.raises(NonConvergentError):
        run_ensemble(cfg, 120, master_seed=3)


def test_unitary_mode_reports_undecided_without_error():
    cfg = ScenarioConfig(mode="unitary")
    recs = [run_single(cfg, 4, i) for i in range(5)]
    assert all(r["outcome"] == "undecided" for r in recs)
    assert all(r["events"] == [] for r in recs)


def test_chain_median_survival_tracks_the_collective_rate():
    cfg = _chain()
    summary = run_ensemble(cfg, 250, master_seed=17)
    assert summary.failures == 0
    tally, stats = summary.tally, summary.survival
    assert tally.undecided_fraction <= 0.01
    sd_median = 1.0 / (cfg.collapse.rate * math.sqrt(250))
    want = exponential_median(cfg.collapse.rate)
    assert stats["median"] == pytest.approx(want, abs=3.5 * sd_median + cfg.prop.dt)
    sd = math.sqrt(0.25 / 250)
    assert tally.frequency(1) == pytest.approx(0.5, abs=3.5 * sd)


def test_survival_scaling_is_inverse_in_coordinate_count():
    points = survival_scaling_points(
        _chain(), n_eff_values=(1.0, 16.0), trajectories=120, master_seed=23
    )
    (n_a, med_a), (n_b, med_b) = points
    assert med_a / med_b == pytest.approx(n_b / n_a, rel=0.45)


def test_lg_unitary_hits_three_halves():
    res = run_leggett_garg(_lg(0.0), trajectories=20000, master_seed=31)
    assert res.c12 == pytest.approx(0.5, abs=3.5 * res.se_c12)
    assert res.c23 == pytest.approx(0.5, abs=3.5 * res.se_c23)
    assert res.c13 == pytest.approx(-0.5, abs=3.5 * res.se_c13)
    assert res.k == pytest.approx(1.5, abs=3.5 * res.se_k)
    assert three_time_k(1.0, SPACING, 0.0) == pytest.approx(1.5, abs=1e-12)


def test_lg_with_hits_matches_damped_envelope_oracle():
    rate = 1.5
    res = run_leggett_garg(_lg(rate), trajectories=8000, master_seed=37)
    want = three_time_k(1.0, SPACING, rate)
    assert res.k == pytest.approx(want, abs=3.5 * res.se_k)


def test_lg_is_reproducible():
    a = run_leggett_garg(_lg(2.0), 500, 5).as_dict()
    b = run_leggett_garg(_lg(2.0), 500, 5).as_dict()
    assert a == b


def _row_sorted(counts, hit_times):
    """``hit_times`` in row order with each row's times sorted."""
    ends = np.cumsum(counts)
    return np.concatenate([np.sort(hit_times[e - c : e]) for c, e in zip(counts, ends)]
                          + [np.empty(0)])


def test_segment_contrast_matches_the_projection_chain():
    """Rows of fixed hit times, in row order, each row sorted before the
    call; several gaps have cos(omega * delta) < 0."""
    omega, seg = 1.3, 4.0
    rows = [[], [2.9], [0.4, 2.7, 3.1], [3.5, 0.2, 1.0, 1.05], [0.0, 3.99], [1.9]]
    counts = np.array([len(r) for r in rows])
    hits = np.array([h for r in rows for h in sorted(r)])
    assert math.cos(omega * 2.9) < 0 and math.cos(omega * 2.3) < 0
    contrast = segment_contrast(omega, seg, counts, hits)
    for row, c in zip(rows, contrast):
        want = projection_chain_odd_probability(omega, seg, row)
        assert 0.5 * (1.0 - c) == pytest.approx(want, rel=1e-12)


def _run_with_next_words(monkeypatch, pair_sum, cfg, trajectories, seed):
    """``run_leggett_garg`` with ``pair_sum`` as the block reduction, and
    the next raw Philox word of the pair's stream after each block, read
    from a copy of its state so the run's own draws are untouched."""
    words = []

    def recorded(omega, rate, ta, tb, rows, gen):
        acc = pair_sum(omega, rate, ta, tb, rows, gen)
        probe = np.random.Philox()
        probe.state = gen.bit_generator.state
        words.append(int(probe.random_raw()))
        return acc

    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "_pair_product_sum", recorded)
        return run_leggett_garg(cfg, trajectories, seed).as_dict(), words


@pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
@pytest.mark.parametrize("trajectories", [1, 511, 512, 513, 1000])
@pytest.mark.parametrize("rate", [0.0, 0.75, 2.0, 6.0, 24.0, 100.0])
def test_lg_equals_the_two_segment_reference(monkeypatch, rate, trajectories, seed):
    """Reducing only the second segment gives the results of reducing
    both, and leaves each pair's stream where both-segment draws leave it
    after every block: the first segment's draws are still made."""
    cfg = _lg(rate)
    want, want_words = _run_with_next_words(
        monkeypatch, two_segment_pair_product_sum, cfg, trajectories, seed)
    got, got_words = _run_with_next_words(
        monkeypatch, scenarios._pair_product_sum, cfg, trajectories, seed)
    assert got == want
    assert got_words == want_words
    assert len(got_words) == 3 * -(-trajectories // LG_BLOCK_ROWS)
    assert run_leggett_garg(cfg, trajectories, seed).as_dict() == want


def test_lg_reduces_one_segment_per_block_and_pair(monkeypatch):
    """``segment_contrast`` runs once per block of each pair, over the
    segment between the pair's two readouts."""
    segs = []

    def recorded(omega, seg, counts, hit_times):
        segs.append(seg)
        return segment_contrast(omega, seg, counts, hit_times)

    monkeypatch.setattr(scenarios, "segment_contrast", recorded)
    cfg = _lg(2.0)
    run_leggett_garg(cfg, 2 * LG_BLOCK_ROWS + 1, 3)
    assert segs == [cfg.t2 - cfg.t1] * 3 + [cfg.t3 - cfg.t2] * 3 + [cfg.t3 - cfg.t1] * 3


#: (omega, seg, per-row hit times in draw order) of ragged blocks
RAGGED_ROWS = {
    "no_hits": (1.0, 2.0, [[], [], [], [], []]),
    "one_row": (0.7, 3.0, [[2.5, 0.1, 1.7]]),
    "one_empty_row": (0.7, 3.0, [[]]),
    "hit_at_zero": (1.1, 2.0, [[0.0], [1.5, 0.0], [], [0.0, 0.0]]),
    "hit_at_seg": (0.8, 2.0, [[2.0], [2.0, 1.0, 2.0], [], [0.5]]),
    "widest_last": (0.9, 5.0, [[1.0], [], [4.9, 0.3], [0.2, 2.2, 3.3, 0.1, 4.4, 1.1]]),
    "negative_cosines": (2.6, 4.0, [[2.9], [0.4, 2.7, 3.1], [3.5, 0.2, 1.0, 1.05], [],
                                    [1.9], [0.0, 3.99]]),
}


@pytest.mark.parametrize("case", sorted(RAGGED_ROWS))
def test_segment_contrast_equals_the_padded_table_bit_for_bit(case):
    omega, seg, rows = RAGGED_ROWS[case]
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    hits = np.array([h for r in rows for h in r], dtype=float)
    got = segment_contrast(omega, seg, counts, _row_sorted(counts, hits))
    want = padded_segment_contrast(omega, seg, counts, hits)
    assert got.shape == (len(rows),)
    assert got.tobytes() == want.tobytes()
    if case == "negative_cosines":
        assert (got < 0).any()


@pytest.mark.parametrize("seed", range(5))
def test_segment_contrast_equals_the_padded_table_on_drawn_blocks(seed):
    gen = np.random.default_rng(seed)
    seg = float(gen.uniform(0.1, 5.0))
    counts = gen.poisson(gen.uniform(0.0, 30.0), size=int(gen.integers(1, 600)))
    hits = gen.random(int(counts.sum())) * seg
    got = segment_contrast(1.0, seg, counts, _row_sorted(counts, hits))
    assert got.tobytes() == padded_segment_contrast(1.0, seg, counts, hits).tobytes()


def test_a_block_row_fits_in_a_hit_key():
    """``_sorted_hit_times`` keys a word by its row in the 11 bits above
    its 53: a block may have at most ``2**11`` rows."""
    assert LG_BLOCK_ROWS <= 2**11


#: hit segments: the acceptance spacing, long ones, one at which ``seg *
#: 2**-53`` is subnormal, and subnormal ones, at which ``(1 - 2**-53) *
#: seg`` rounds to ``seg``
HIT_SEGMENTS = [SPACING, 3.0, 1e6, 1e-300, 1e-310, 5e-324]


@pytest.mark.parametrize("seg", HIT_SEGMENTS)
@pytest.mark.parametrize("rows", [1, 7, LG_BLOCK_ROWS])
def test_sorted_hit_times_are_the_row_sorted_doubles(rows, seg):
    """``_sorted_hit_times`` gives the bits of ``random(n) * seg`` with each
    row's times sorted, and takes the same words: the next draw is the
    next draw after ``random``."""
    if seg < 1e-308:
        assert (1.0 - 2.0**-53) * seg == seg
    for seed in range(4):
        shape = np.random.default_rng([rows, seed])
        counts = shape.poisson(shape.uniform(0.0, 12.0), size=rows)
        stream = trajectory_stream(seed, rows)
        gen, ref = stream.generator(), stream.generator()
        got = scenarios._sorted_hit_times(gen, counts, seg)
        want = _row_sorted(counts, ref.random(int(counts.sum())) * seg)
        assert got.tobytes() == want.tobytes(), seed
        assert gen.random() == ref.random()


@pytest.mark.parametrize("rate", [0.0, 0.75, 6.0, 24.0])
def test_lg_pairs_match_the_scalar_reference(rate):
    """Each correlator against the per-trajectory scalar loop on its own
    streams, within 5 combined standard errors."""
    cfg = _lg(rate)
    res = run_leggett_garg(cfg, 20_000, master_seed=41)
    pairs = ((cfg.t1, cfg.t2), (cfg.t2, cfg.t3), (cfg.t1, cfg.t3))
    n_ref = 3000
    for p, ((ta, tb), c, se) in enumerate(
        zip(pairs, (res.c12, res.c23, res.c13), (res.se_c12, res.se_c23, res.se_c13))
    ):
        ref = lg_pair_correlator(cfg.omega, rate, ta, tb, n_ref, 43, p)
        se_ref = math.sqrt(max(1.0 - ref * ref, 0.0) / n_ref)
        assert abs(c - ref) <= 5.0 * math.hypot(se, se_ref), (p, c, ref)


class _NoPoissonGenerator(np.random.Generator):
    def poisson(self, *args, **kwargs):
        raise AssertionError("Poisson count drawn")


def test_lg_unitary_draws_no_poisson_counts(monkeypatch):
    want = run_leggett_garg(_lg(0.0), 300, 3)

    start = _Rekeyer.start

    def no_poisson(self, stream):
        return _NoPoissonGenerator(start(self, stream).bit_generator)

    monkeypatch.setattr(_Rekeyer, "start", no_poisson)
    assert run_leggett_garg(_lg(0.0), 300, 3) == want
    with pytest.raises(AssertionError, match="Poisson"):
        run_leggett_garg(_lg(0.75), 300, 3)


@pytest.mark.parametrize("trajectories", [1, LG_BLOCK_ROWS, LG_BLOCK_ROWS + 1])
def test_lg_runs_at_block_edges(trajectories):
    res = run_leggett_garg(_lg(6.0), trajectories, 13)
    assert res.trajectories == trajectories
    assert all(math.isfinite(v) for v in res.as_dict().values())
    assert 0.0 <= res.se_k < 2.0


def test_lg_second_block_extends_the_first():
    """A run one trajectory past a block keeps the first block's draws."""
    n = LG_BLOCK_ROWS
    a = run_leggett_garg(_lg(6.0), n, 13)
    b = run_leggett_garg(_lg(6.0), n + 1, 13)
    for c_a, c_b in ((a.c12, b.c12), (a.c23, b.c23), (a.c13, b.c13)):
        assert abs(round(c_b * (n + 1)) - round(c_a * n)) == 1


@pytest.mark.parametrize("seed", [28, 496, 8128])
def test_lg_k_ladder_tracks_the_damped_envelope(seed):
    for i, rate in enumerate((0.0, 0.75, 2.0, 6.0, 24.0)):
        res = run_leggett_garg(_lg(rate), 20_000, seed + i)
        want = three_time_k(1.0, SPACING, rate)
        assert abs(res.k - want) <= 3.0 * res.se_k, (rate, res.k, want)


def test_lg_trajectories_must_be_positive():
    with pytest.raises(ValidationError, match="got 0"):
        run_leggett_garg(_lg(0.0), 0, 1)


def test_lg_mean_hit_count_is_bounded(monkeypatch):
    """A config that expects more than ``LG_MAX_MEAN_HITS`` hits per
    trajectory is refused when it is built, before any stream is drawn;
    one just inside the bound is built."""

    def start(self, stream):
        raise AssertionError("a stream was started")

    monkeypatch.setattr(_Rekeyer, "start", start)
    t3 = 3 * SPACING
    for scale, refused in ((1.0 - 1e-12, True), (1.0 + 1e-12, False)):
        collapse = GrwParams(tau=scale * t3 / LG_MAX_MEAN_HITS, width=0.3, n_eff=1.0)
        build = partial(LgConfig, omega=1.0, t1=SPACING, t2=2 * SPACING, t3=t3,
                        collapse=collapse)
        if refused:
            with pytest.raises(ValidationError, match="mean hit count n_eff / tau"):
                build()
        else:
            assert build().collapse.rate * t3 <= LG_MAX_MEAN_HITS


def test_lg_overflowing_rate_never_reaches_a_run(monkeypatch):
    """A Leggett-Garg run at a rate that overflows cannot be asked for: its
    ``GrwParams`` is refused as it is made, so ``run_leggett_garg`` starts
    no stream."""

    def start(self, stream):
        raise AssertionError("a stream was started")

    monkeypatch.setattr(_Rekeyer, "start", start)
    with pytest.raises(ValidationError, match="hit rate n_eff / tau must be finite, got inf"):
        run_leggett_garg(
            LgConfig(omega=1.0, t1=SPACING, t2=2 * SPACING, t3=3 * SPACING,
                     collapse=GrwParams(tau=1e-300, width=0.3, n_eff=1e10)),
            100, 1,
        )


def test_lg_precession_phase_must_be_finite():
    """``omega * t3`` that overflows is refused when the config is built,
    where a cosine of it would be NaN and every parity would read even;
    the largest phase just below the overflow is built and runs."""
    with pytest.raises(ValidationError, match=r"omega \* t3 must be finite"):
        LgConfig(omega=1e300, t1=0.5, t2=1e10, t3=1e11)
    omega = math.nextafter(math.inf, 0.0) / 4.0
    cfg = LgConfig(omega=omega, t1=1.0, t2=2.0, t3=4.0,
                   collapse=GrwParams(tau=1.0, width=0.3, n_eff=1.0))
    with pytest.raises(ValidationError, match=r"omega \* t3 must be finite"):
        replace(cfg, t3=math.nextafter(4.0, 5.0))
    res = run_leggett_garg(cfg, 50, 1)
    assert all(math.isfinite(v) for v in res.as_dict().values())


def test_lg_time_ordering_is_validated():
    with pytest.raises(ValidationError):
        LgConfig(omega=1.0, t1=2.0, t2=1.0, t3=3.0)
    with pytest.raises(ValidationError):
        LgConfig(omega=0.0, t1=1.0, t2=2.0, t3=3.0)


def test_grid_hits_equal_level_projections():
    """A hit on the far-separated pointer acts as an exact level readout:
    post-hit level weights are one-hot, '1' at the initial-weight rate."""
    cfg = ScenarioConfig(kind="measurement_chain", weight_1=0.3,
                         separation=10.0, grid=GridSpec(-10.0, 10.0, 512),
                         collapse=GrwParams(tau=1.0, width=0.2, n_eff=1.0))
    psi = entangled_state(cfg)
    n = 400
    wins = 0
    for i in range(n):
        gen = trajectory_stream(51, i).generator()
        center = draw(density(psi), cfg.collapse, cfg.grid, gen)
        post = level_weights(hit(psi, center, cfg.collapse))
        assert max(post) > 1.0 - 1e-9
        wins += post[0] > 0.5
    sd = math.sqrt(0.3 * 0.7 / n)
    assert wins / n == pytest.approx(0.3, abs=3.5 * sd)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 1000))
def test_trajectories_never_share_streams(seed, index):
    rec = run_single(ScenarioConfig(mode="wpr"), seed, index)
    assert rec["seed"] == [seed, index]
