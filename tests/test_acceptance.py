"""End-to-end checks for the package's headline behaviors.

Each test prints a single PASS/FAIL line with the measured numbers before
asserting, so ``pytest tests/test_acceptance.py -v -s`` doubles as a
human-readable report.  Tolerances are pinned here and nowhere else;
statistical bands were sized at 3 sigma or wider for the fixed seeds below.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from grwsim import (
    GridSpec,
    GrwParams,
    LgConfig,
    Potential,
    PropagatorConfig,
    ScenarioConfig,
    amplification_table,
    born_chi_square,
    equilibration_experiment,
    fit_scaling,
    gaussian_packet,
    run_ensemble,
    run_leggett_garg,
    schedule_jumps,
    survival_scaling_points,
    trajectory_stream,
    two_peak_state,
)
from grwsim.cli import main as cli_main
from grwsim.collapse import _density_to_centers
from grwsim.config import chain_defaults
from grwsim.qstate import WaveFunction, normalize

from _oracles import three_time_k
from _support import (
    comoving_colors,
    density,
    draw,
    hit,
    moments,
    ring_step,
    step,
    two_proportion_test,
)

SEED = 20260814
SPACING = math.pi / 3.0


def _lg_config(rate: float | None) -> LgConfig:
    collapse = (
        None if rate is None else GrwParams(tau=1.0 / rate, width=0.3, n_eff=1.0)
    )
    return LgConfig(
        omega=1.0, t1=SPACING, t2=2 * SPACING, t3=3 * SPACING, collapse=collapse
    )


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared ensembles (expensive; reused across two checks each)

@pytest.fixture(scope="module")
def cat_cfg() -> ScenarioConfig:
    return ScenarioConfig(weight_1=0.7)


@pytest.fixture(scope="module")
def cat_tally(cat_cfg):
    summary = run_ensemble(cat_cfg, 10_000, SEED)
    assert summary.failures == 0  # no error absorbed by the failure budget
    return summary.tally


@pytest.fixture(scope="module")
def lg_unitary():
    return run_leggett_garg(_lg_config(None), 100_000, SEED + 9)


def test_amplification_arithmetic(capsys):
    table = amplification_table(1.0e15, 1.0e23)
    code = cli_main(["convert", "--tau", "1e15", "--n-eff", "1e23"])
    printed = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and table["mean_first_hit_si"] == 1.0e-8
        and printed["mean_first_hit_si"] == 1.0e-8
        and table["single_rate_si"] == 1.0e-15
    )
    _report(
        "amplification arithmetic",
        ok,
        f"mean first hit {table['mean_first_hit_si']!r} s for "
        f"tau=1e15 s, n_eff=1e23 (exact float equality)",
    )


def test_unit_rate_gaps_have_unit_mean():
    params = GrwParams(tau=1.0, width=0.3, n_eff=1.0)
    rng = trajectory_stream(SEED + 1, 0).generator()
    times = schedule_jumps(params, 10_500.0, rng)
    assert len(times) >= 10_000
    gaps = np.diff(np.concatenate(([0.0], times)))[:10_000]
    mean = float(np.mean(gaps))
    ok = abs(mean - 1.0) <= 0.03
    _report(
        "unit-rate hit gaps",
        ok,
        f"mean of 10^4 exponential gaps = {mean:.4f} (band 1.00 +/- 0.03)",
    )


def test_born_frequencies_on_large_cat_ensemble(cat_tally):
    decided = cat_tally.count_1 + cat_tally.count_2
    freq = cat_tally.count_1 / decided
    stat, p = born_chi_square(cat_tally, (0.7, 0.3))
    ok = abs(freq - 0.7) <= 0.014 and p > 0.01
    _report(
        "born statistics",
        ok,
        f"outcome-1 frequency {freq:.4f} (band 0.700 +/- 0.014), "
        f"chi2 {stat:.3f}, p {p:.3f} (> 0.01), "
        f"{cat_tally.count_undecided} undecided of 10^4",
    )


def test_survival_time_scales_inversely_with_collective_size():
    points = survival_scaling_points(
        chain_defaults(), (1.0, 10.0, 100.0, 1000.0), 400, SEED + 3
    )
    fit = fit_scaling(points)
    ok = abs(fit.slope + 1.0) <= 0.05
    _report(
        "amplification scaling",
        ok,
        f"log-log slope {fit.slope:.4f} +/- {fit.stderr:.4f} over n_eff "
        f"1..10^3 (band -1.00 +/- 0.05)",
    )


def test_localization_width():
    grid = GridSpec(-8.0, 8.0, 512)
    params = GrwParams(tau=1.0, width=0.5, n_eff=1.0)

    uniform = normalize(WaveFunction(grid, np.full((1, grid.n_points), 1.0 + 0.0j)))
    _, var_flat = moments(hit(uniform, 0.0, params))
    target_flat = params.width**2 / 2.0

    sigma = 0.5
    _, var_packet = moments(hit(gaussian_packet(grid, 0.0, sigma), 0.3, params))
    a2 = params.width**2
    target_packet = sigma**2 * a2 / (a2 + 2.0 * sigma**2)

    flat_err = abs(var_flat - target_flat) / target_flat
    packet_err = abs(var_packet - target_packet)
    ok = flat_err <= 0.02 and packet_err <= 1.0e-4
    _report(
        "localization width",
        ok,
        f"flat-state variance {var_flat:.5f} vs a^2/2 = {target_flat:.5f} "
        f"(rel err {flat_err:.2e}, band 2%); Gaussian-product variance "
        f"off by {packet_err:.2e} (band 1e-4)",
    )


def test_center_density_and_norm_over_randomized_states():
    grid = GridSpec(-8.0, 8.0, 256)
    dx = grid.dx
    rng = np.random.default_rng(SEED + 5)
    worst_density = 0.0
    worst_norm = 0.0
    for _ in range(1000):
        width = rng.uniform(0.3, 1.0)
        c1, c2 = rng.uniform(-2.5, 2.5, size=2)
        w1 = rng.uniform(0.05, 0.95)
        phase = math.e ** (1j * rng.uniform(0.0, 2.0 * math.pi))
        psi = two_peak_state(
            grid,
            math.sqrt(w1),
            math.sqrt(1.0 - w1) * phase,
            (c1, c2),
            width,
            momentum=rng.uniform(-2.0, 2.0),
        )
        # keep the hit width above the 4-dx resolution guard for this grid
        params = GrwParams(tau=1.0, width=rng.uniform(0.3, 1.0), n_eff=1.0)
        centers = _density_to_centers(density(psi), params, grid)
        worst_density = max(worst_density, abs(float(np.sum(centers)) * dx - 1.0))
        center = draw(density(psi), params, grid, rng)
        post = hit(psi, center, params).amplitudes
        norm = float(np.sum(np.abs(post) ** 2)) * dx
        worst_norm = max(worst_norm, abs(norm - 1.0))
    ok = worst_density <= 1.0e-6 and worst_norm <= 1.0e-9
    _report(
        "center density + norm preservation",
        ok,
        f"10^3 randomized states: max |integral P dx - 1| = "
        f"{worst_density:.2e} (band 1e-6), max post-hit norm error = "
        f"{worst_norm:.2e} (band 1e-9)",
    )


def test_unitary_oracles_and_time_reversal():
    grid = GridSpec(-20.0, 20.0, 1024)
    cfg = PropagatorConfig(0.005, 1)

    free = step(gaussian_packet(grid, 0.0, 1.0), Potential("free"), cfg, 2.0)
    _, var = moments(free)
    free_err = abs(var - 2.0) / 2.0  # sigma0^2 + (t / 2 sigma0)^2

    well = Potential("harmonic", omega=1.0)
    coherent = step(
        gaussian_packet(grid, 3.0, 1.0 / math.sqrt(2.0)), well, cfg, 2.0
    )
    mean, _ = moments(coherent)
    coherent_err = abs(mean - 3.0 * math.cos(2.0)) / 3.0

    def _conj(psi: WaveFunction) -> WaveFunction:
        return WaveFunction(psi.grid, np.conj(psi.amplitudes))

    psi0 = gaussian_packet(grid, 0.0, 1.0, momentum=1.0)
    forward = step(psi0, well, cfg, 1.5)
    clean = np.max(
        np.abs(_conj(step(_conj(forward), well, cfg, 1.5)).amplitudes - psi0.amplitudes)
    )

    kicked = hit(forward, 1.0, GrwParams(tau=1.0, width=0.5, n_eff=1.0))
    broken = np.max(
        np.abs(_conj(step(_conj(kicked), well, cfg, 1.5)).amplitudes - psi0.amplitudes)
    )

    ok = free_err <= 0.01 and coherent_err <= 0.01 and clean < 1.0e-7 and broken > 0.1
    _report(
        "unitary oracles + reversal",
        ok,
        f"free variance rel err {free_err:.2e}, coherent-mean rel err "
        f"{coherent_err:.2e} (bands 1%); reversal residual {clean:.2e} "
        f"(< 1e-7) without a hit, {broken:.3f} (> 0.1) with one",
    )


def test_grw_tally_matches_instant_collapse_baseline(cat_cfg, cat_tally):
    summary = run_ensemble(replace(cat_cfg, mode="wpr"), 10_000, SEED + 8)
    assert summary.failures == 0
    baseline = summary.tally
    z, p = two_proportion_test(
        cat_tally.count_1,
        cat_tally.count_1 + cat_tally.count_2,
        baseline.count_1,
        baseline.count_1 + baseline.count_2,
    )
    ok = p > 0.01
    _report(
        "grw vs instant-collapse baseline",
        ok,
        f"two-proportion z = {z:.3f}, p = {p:.3f} (indistinguishable at "
        f"alpha = 0.01, 10^4 vs 10^4 trajectories)",
    )


def test_leggett_garg_k(lg_unitary):
    k_err = abs(lg_unitary.k - 1.5)

    strong = run_leggett_garg(_lg_config(24.0), 30_000, SEED + 10)

    ladder_rates = (0.75, 2.0, 6.0)
    ladder = [lg_unitary] + [
        run_leggett_garg(_lg_config(r), 40_000, SEED + 11 + i)
        for i, r in enumerate(ladder_rates)
    ]
    oracle = [three_time_k(1.0, SPACING, r) for r in (0.0, *ladder_rates)]
    ks = [res.k for res in ladder]
    monotone = all(a > b for a, b in zip(ks, ks[1:]))
    assert all(a > b for a, b in zip(oracle, oracle[1:]))
    matched = all(
        abs(res.k - ref) <= 3.0 * res.se_k for res, ref in zip(ladder, oracle)
    )

    ok = k_err <= 0.02 and strong.k <= 1.02 and monotone and matched
    _report(
        "leggett-garg",
        ok,
        f"unitary K = {lg_unitary.k:.4f} +/- {lg_unitary.se_k:.4f} "
        f"(band 1.50 +/- 0.02); strong-collapse K = {strong.k:.4f} "
        f"(<= 1.02); ladder K = "
        + ", ".join(f"{k:.4f}" for k in ks)
        + " monotone down, each within 3 sigma of the damped-envelope oracle",
    )


def _recurs_after_two_laps(start: np.ndarray, markers: np.ndarray) -> bool:
    """2N steps of the ring map and the closed form both restore the colors."""
    colors = start
    for _ in range(2 * start.size):
        colors = ring_step(colors, markers)
    twice = comoving_colors(start, markers, 2 * start.size)
    return np.array_equal(colors, start) and np.array_equal(twice, start)


def test_kac_ring_recurrence_and_equilibration():
    rng = np.random.default_rng(SEED + 20)
    checked = 0
    for n in range(2, 13):
        for pattern in itertools.product((False, True), repeat=n):
            assert _recurs_after_two_laps(
                rng.integers(0, 2, size=n).astype(bool),
                np.array(pattern, dtype=bool),
            )
            checked += 1

    for _ in range(1000):
        n, marker_fraction = int(rng.integers(13, 257)), rng.uniform(0.0, 0.5)
        assert _recurs_after_two_laps(
            rng.random(n) < 0.5, rng.random(n) < marker_fraction
        )

    res = equilibration_experiment(
        10_000, 0.1, 0.01, horizon=500, trials=100, master_seed=SEED + 21
    )
    ok = (
        res["kicked_equilibrated_fraction"] >= 0.99
        and res["plain_excursion_fraction"] == 1.0
        and res["plain_equilibrated_fraction"] == 0.0
    )
    _report(
        "kac ring",
        ok,
        f"exact 2N recurrence on {checked} exhaustive rings (n <= 12) and "
        f"10^3 random rings; with flips {res['kicked_equilibrated_fraction']:.0%} "
        f"of engineered trials equilibrated (>= 99%) while "
        f"{res['plain_excursion_fraction']:.0%} anti-thermalized without",
    )


def test_ensemble_bytes_identical_across_worker_counts(tmp_path):
    cfg = ScenarioConfig()
    seq_dir = tmp_path / "w1"
    par_dir = tmp_path / "w8"
    run_ensemble(cfg, 240, SEED + 30, workers=1, out_dir=seq_dir)
    run_ensemble(cfg, 240, SEED + 30, workers=8, out_dir=par_dir)
    names = ("events.jsonl", "summary.json", "outcomes.csv")
    same = {
        name: (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()
        for name in names
    }
    ok = all(same.values())
    _report(
        "byte determinism",
        ok,
        "240 trajectories, workers 1 vs 8: "
        + ", ".join(f"{n} {'identical' if v else 'DIFFER'}" for n, v in same.items()),
    )
