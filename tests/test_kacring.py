import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import grwsim.kacring as kacring
from grwsim import RngStream, ValidationError, equilibration_experiment
from grwsim.errors import InvalidHorizonError
from grwsim.kacring import engineered_bad_ring, flip_parity_probability
from grwsim.rng import _Rekeyer, trajectory_stream

from _oracles import odd_flip_probability, ring_reference_run
from _support import comoving_colors, ring_step


def _rng(seed=0):
    return RngStream(seed, 0).generator()


def _random_ring(n, marker_fraction, rng):
    """``(colors, markers)``: fair-coin colors, then Bernoulli(marker_fraction)
    markers."""
    return rng.random(n) < 0.5, rng.random(n) < marker_fraction


def test_step_matches_pure_python_reference():
    """The closed form and the numpy step both match the pure-Python ring."""
    rng = _rng(7)
    for _ in range(20):
        start, markers = _random_ring(50, 0.2, rng)
        steps = int(rng.integers(1, 120))
        colors = start
        for _ in range(steps):
            colors = ring_step(colors, markers)
        want = ring_reference_run(start.tolist(), markers.tolist(), steps)
        assert colors.tolist() == want
        assert np.roll(comoving_colors(start, markers, steps), steps).tolist() == want


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_exact_recurrence_for_every_marker_pattern(n):
    """Two full revolutions always restore the colors, for all 2^n marker
    layouts; one revolution suffices iff the marker count is even."""
    colors = _rng(n).random(n) < 0.5
    for bits in itertools.product((False, True), repeat=n):
        markers = np.array(bits)
        half = comoving_colors(colors, markers, n)
        if int(markers.sum()) % 2 == 0:
            assert np.array_equal(half, colors)
        else:
            assert not np.array_equal(half, colors)
        assert np.array_equal(comoving_colors(colors, markers, 2 * n), colors)


def test_recurrence_on_random_larger_rings():
    rng = _rng(13)
    for _ in range(200):
        n = int(rng.integers(16, 200))
        start, markers = _random_ring(n, 0.25, rng)
        colors = start
        for _ in range(2 * n):
            colors = ring_step(colors, markers)
        assert np.array_equal(colors, start)
        assert np.array_equal(comoving_colors(start, markers, 2 * n), start)


def test_perturbation_destroys_recurrence():
    """The plain ring recurs at 2n steps; the flip parities that the kicked
    arm draws for that interval break the recurrence."""
    start, markers = _random_ring(400, 0.2, _rng(3))
    plain = comoving_colors(start, markers, 2 * 400)
    assert np.array_equal(plain, start)
    odd = RngStream(9, 9).generator().random(400) < flip_parity_probability(0.01, 2 * 400)
    assert not np.array_equal(plain ^ odd, start)


def test_zero_flip_rate_perturbation_is_plain_step():
    """At flip rate 0 both arms, sampled every step, follow the step map."""
    n, frac, horizon, seed = 64, 0.2, 100, 5
    s = equilibration_experiment(n, frac, 0.0, horizon, 1, seed, series_stride=1)
    colors, markers, _ = engineered_bad_ring(
        n, frac, horizon, trajectory_stream(seed, 0).generator()
    )
    want = []
    for _ in range(horizon + 1):
        want.append(float(np.mean(colors)))
        colors = ring_step(colors, markers)
    assert s["plain_mean_series"] == want
    assert s["kicked_mean_series"] == want


def test_engineered_ring_antithermalizes_on_schedule():
    colors, markers, _ = engineered_bad_ring(500, 0.2, steps=120, rng=_rng(21))
    assert abs(np.mean(colors) - 0.5) < 0.1  # starts disordered
    out = ring_reference_run(colors.tolist(), markers.tolist(), 120)
    assert all(out)  # perfectly ordered exactly on cue


def test_experiment_summary_shape_and_bands():
    s = equilibration_experiment(
        n_sites=2000, marker_fraction=0.1, flip_rate=0.01,
        horizon=300, trials=20, master_seed=5, series_stride=100,
    )
    assert s["plain_excursion_fraction"] == 1.0
    assert s["plain_mean_series"][-1] == 1.0
    assert s["kicked_equilibrated_fraction"] >= 0.9
    assert s["series_steps"] == sorted(set(s["series_steps"]))
    assert s["series_steps"][-1] == 300
    assert len(s["plain_mean_series"]) == len(s["series_steps"])
    assert abs(s["kicked_mean_final_magnetization"] - 0.5) < 0.05


def test_experiment_builds_each_trial_through_the_module_global(monkeypatch):
    """The benchmark's ``arrow`` checkpoint rebinds
    ``grwsim.kacring.engineered_bad_ring``; the rebinding must reach the run,
    once per trial, and leave the summary as it was."""
    kwargs = dict(
        n_sites=300, marker_fraction=0.1, flip_rate=0.01,
        horizon=100, trials=4, master_seed=6, series_stride=30,
    )
    want = equilibration_experiment(**kwargs)
    calls = []
    inner = kacring.engineered_bad_ring

    def counting(*args, **kw):
        calls.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(kacring, "engineered_bad_ring", counting)
    assert equilibration_experiment(**kwargs) == want
    assert len(calls) == kwargs["trials"]


def test_experiment_is_deterministic():
    kwargs = dict(
        n_sites=500, marker_fraction=0.1, flip_rate=0.005,
        horizon=100, trials=10, master_seed=42,
    )
    assert equilibration_experiment(**kwargs) == equilibration_experiment(**kwargs)


def test_noise_ladder_moves_rings_toward_equilibrium():
    eq_fracs, exc_fracs = [], []
    for rate in (0.0, 1e-3, 3e-3, 1e-2):
        s = equilibration_experiment(
            n_sites=1000, marker_fraction=0.1, flip_rate=rate,
            horizon=300, trials=30, master_seed=77,
        )
        eq_fracs.append(s["kicked_equilibrated_fraction"])
        exc_fracs.append(s["kicked_excursion_fraction"])
    assert eq_fracs == sorted(eq_fracs)
    assert exc_fracs == sorted(exc_fracs, reverse=True)
    assert eq_fracs[0] == 0.0 and eq_fracs[-1] == 1.0
    assert exc_fracs[0] == 1.0 and exc_fracs[-1] == 0.0


def test_horizon_must_stay_below_the_recurrence():
    with pytest.raises(InvalidHorizonError):
        equilibration_experiment(
            n_sites=100, marker_fraction=0.1, flip_rate=0.01,
            horizon=200, trials=5, master_seed=0,
        )


@pytest.mark.parametrize("flip_rate", [-0.1, 1.5, float("nan")])
def test_flip_rate_is_checked_before_the_first_draw(flip_rate, monkeypatch):
    """A flip rate outside [0, 1], or NaN, is refused before trial 0 draws
    its markers."""
    built = []
    monkeypatch.setattr(kacring, "engineered_bad_ring",
                        lambda *args: built.append(args))
    with pytest.raises(ValidationError, match="flip_rate"):
        equilibration_experiment(
            n_sites=64, marker_fraction=0.1, flip_rate=flip_rate,
            horizon=20, trials=2, master_seed=1,
        )
    assert built == []


def test_parameter_validation():
    with pytest.raises(ValidationError):
        engineered_bad_ring(64, 0.0, 10, _rng())
    with pytest.raises(ValidationError):
        engineered_bad_ring(64, 0.7, 10, _rng())
    with pytest.raises(ValidationError):
        equilibration_experiment(100, 0.1, 0.01, horizon=0, trials=5, master_seed=0)
    with pytest.raises(ValidationError):
        equilibration_experiment(
            100, 0.1, 0.01, horizon=50, trials=5, master_seed=0, series_stride=-1
        )
    # the ring size is checked before the horizon is held to its recurrence
    for n_sites, horizon in [(1, 1), (0, 500), (-3, 500)]:
        with pytest.raises(ValidationError, match=f"at least 2 sites, got {n_sites}"):
            equilibration_experiment(n_sites, 0.1, 0.01, horizon=horizon, trials=1,
                                     master_seed=0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 128))
def test_stepping_preserves_markers_and_size(seed, n):
    """The closed form leaves the ring as it was and returns one color per ball."""
    start, ring_markers = _random_ring(n, 0.3, RngStream(seed, 0).generator())
    colors, markers = start.copy(), ring_markers.copy()
    out = comoving_colors(start, ring_markers, 1)
    assert np.array_equal(start, colors)
    assert np.array_equal(ring_markers, markers)
    assert out.shape == (n,) and out.dtype == bool
    assert np.array_equal(np.roll(out, 1), ring_step(colors, markers))


# --- closed forms against the step map --------------------------------------


def _assert_closed_form_tracks_steps(start, markers):
    """Co-moving closed form, rolled to the site frame, equals t steps."""
    colors = start
    for t in range(2 * start.size + 1):
        assert np.array_equal(np.roll(comoving_colors(start, markers, t), t), colors), t
        colors = ring_step(colors, markers)


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_colors_for_every_marker_pattern(n):
    colors = _rng(100 + n).random(n) < 0.5
    for bits in itertools.product((False, True), repeat=n):
        _assert_closed_form_tracks_steps(colors, np.array(bits))


def test_closed_form_colors_on_random_rings():
    rng = _rng(17)
    odd_counts = 0
    for _ in range(40):
        start, markers = _random_ring(int(rng.integers(11, 201)), 0.3, rng)
        odd_counts += int(markers.sum()) % 2
        _assert_closed_form_tracks_steps(start, markers)
    assert odd_counts > 0  # some rings have t >= n with an odd marker count


def _bad_ring_by_inverse_steps(n, marker_fraction, seed):
    """Inverse steps from all ones, one step at a time."""
    markers = RngStream(seed, 0).generator().random(n) < marker_fraction
    colors = np.ones(n, dtype=bool)
    while True:
        yield colors, markers
        colors = np.roll(colors, -1) ^ markers


@pytest.mark.parametrize("n", [2, 3, 7, 64, 101])
def test_bad_ring_equals_inverse_step_loop(n):
    reference = _bad_ring_by_inverse_steps(n, 0.3, seed=n)
    for steps in range(2 * n):
        want = next(reference)
        got = engineered_bad_ring(n, 0.3, steps, RngStream(n, 0).generator())
        assert np.array_equal(got[0], want[0]), steps
        assert np.array_equal(got[1], want[1]), steps
        assert np.array_equal(got[2], kacring._parity_prefix(want[1])), steps


PLAIN_FIELDS = (
    "series_steps",
    "plain_equilibrated_fraction",
    "plain_excursion_fraction",
    "plain_mean_final_magnetization",
    "plain_mean_series",
)


@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        ((10_000, 0.1, 0.01, 500), dict(trials=4, master_seed=31),
         "d64d6d1fef7b1dfe31bddc3e6ef41a2bf1382b7878db388741c5d7790fed1cb6"),
        ((300, 0.2, 0.05, 450), dict(trials=7, master_seed=5, series_stride=37),
         "75d438353c9aaa0af1cf9b21c7e845d462a0241b49ae04eb7e11df2f5e72ef0e"),
    ],
    ids=["benchmark", "strided"],
)
def test_plain_arm_is_pinned(args, kwargs, digest):
    """sha256 of the plain arm as the step-loop implementation produced it."""
    s = equilibration_experiment(*args, **kwargs)
    blob = json.dumps({k: s[k] for k in PLAIN_FIELDS}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        ((10_000, 0.1, 0.01, 500), dict(trials=4, master_seed=31),
         "4bee6e3fc5c08e2821ec7dc91d91c3a47d8282a8e3f129e5e854fecb7f79e05a"),
        ((300, 0.2, 0.05, 450), dict(trials=7, master_seed=5, series_stride=37),
         "92d423f52ae1e859224cde2b825abf6b0d1407230fcb9654f4444de1586ead4c"),
        ((300, 0.2, 1.0, 450), dict(trials=5, master_seed=11, series_stride=37),
         "c721540dd2cc3551305634a948222a23eefaee565af719b0b2112b9cfdf19b3b"),
    ],
    ids=["benchmark", "strided", "flip_rate_1"],
)
def test_whole_summary_is_pinned(args, kwargs, digest):
    """sha256 of the whole summary, kicked arm included, as the
    ``np.mean`` and doubled-prefix implementation produced it."""
    s = equilibration_experiment(*args, **kwargs)
    blob = json.dumps(s, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [2, 3, 10_000])
def test_parity_prefix_equals_the_doubled_accumulate(n):
    for markers in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                    _rng(n).random(n) < 0.3):
        want = np.bitwise_xor.accumulate(np.concatenate(([False], markers, markers)))
        got = kacring._parity_prefix(markers)
        assert got.dtype == bool
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 129, 300, 10_000, 123_457])
def test_count_over_n_is_the_boolean_mean(n):
    """The magnetization as ``count / n`` is ``float(np.mean(bools))`` bit for
    bit: the float sum of 0s and 1s is the exact count, divided once by n."""
    rng = _rng(n)
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        for _ in range(5):
            bools = rng.random(n) < p
            got = np.count_nonzero(bools) / n
            assert got.hex() == float(np.mean(bools)).hex()


# --- kicked arm: flip parity per interval -----------------------------------


@pytest.mark.parametrize("rate", [0.0, 1e-3, 0.01, 0.3, 0.5, 0.7, 1.0])
def test_flip_parity_probability_is_the_odd_binomial_sum(rate):
    for k in range(1, 51):
        got = flip_parity_probability(rate, k)
        if rate in (0.0, 1.0):
            assert got == (k % 2 if rate == 1.0 else 0.0)
        else:
            assert got == pytest.approx(odd_flip_probability(rate, k), rel=1e-12)


def test_zero_flip_rate_draws_nothing_and_copies_the_plain_arm(monkeypatch):
    """At flip_rate 0 only the trials' marker streams are started: no flip
    stream (ids ``trials`` and up) is opened, let alone drawn from."""
    trials, started = 6, []
    start = _Rekeyer.start

    def markers_only(self, stream):
        assert stream.stream_id < trials, "flip stream opened at flip_rate 0"
        started.append(stream.stream_id)
        return start(self, stream)

    monkeypatch.setattr(_Rekeyer, "start", markers_only)
    s = equilibration_experiment(
        n_sites=400, marker_fraction=0.1, flip_rate=0.0,
        horizon=150, trials=trials, master_seed=3, series_stride=40,
    )
    assert started == list(range(trials))
    for key in s:
        if key.startswith("kicked_"):
            assert s[key] == s["plain_" + key[len("kicked_"):]], key


def test_kicked_arm_draws_one_ball_array_per_interval(monkeypatch):
    """Each trial draws its markers, then one ball mask per sample interval
    at that interval's odd-flip probability, never one mask per step."""
    masks = []
    inner = kacring._bernoulli

    def recording(gen, n, p):
        masks.append((n, p))
        return inner(gen, n, p)

    monkeypatch.setattr(kacring, "_bernoulli", recording)
    s = equilibration_experiment(
        n_sites=300, marker_fraction=0.1, flip_rate=0.01,
        horizon=100, trials=3, master_seed=8, series_stride=30,
    )
    assert s["series_steps"] == [0, 30, 60, 90, 100]
    odds = [flip_parity_probability(0.01, k) for k in (30, 30, 30, 10)]
    assert masks == [(300, 0.1), *((300, p) for p in odds)] * 3


def test_kicked_mean_series_matches_dense_per_step_flips():
    """Interval draws against a per-step flip loop, one uniform per ball per step.

    Both arms start from the same engineered rings; the reference flips come
    from a stream the experiment never uses.  At the horizon the mean kicked
    magnetization is 1 - p_120, which a per-interval probability of k * r
    instead of p_k moves by about 0.07, far beyond 5 se here.
    """
    n, frac, rate, horizon, stride, trials, seed = 1000, 0.1, 0.005, 120, 60, 40, 2024
    s = equilibration_experiment(n, frac, rate, horizon, trials, seed, series_stride=stride)
    steps = s["series_steps"]
    assert steps == [0, 60, 120]
    ref = np.empty((trials, len(steps)))
    for trial in range(trials):
        colors, markers, _ = engineered_bad_ring(
            n, frac, horizon, trajectory_stream(seed, trial).generator()
        )
        gen = RngStream(seed + 1, trial).generator()
        ref[trial, 0] = np.mean(colors)
        for t in range(1, horizon + 1):
            colors = ring_step(colors, markers) ^ (gen.random(n) < rate)
            if t in steps:
                ref[trial, steps.index(t)] = np.mean(colors)
    se = np.sqrt(2.0 * ref.var(axis=0, ddof=1) / trials)
    gap = np.abs(np.array(s["kicked_mean_series"]) - ref.mean(axis=0))
    assert np.all(gap <= 5.0 * se), (gap, se)
    exact = 1.0 - flip_parity_probability(rate, horizon)
    assert abs(s["kicked_mean_series"][-1] - exact) <= 5.0 * se[-1]
