"""Kac ring: a reversible toy dynamics with an emergent arrow of time.

``n_sites`` balls, each black or white, sit on a ring whose edges carry
fixed markers.  One step moves every ball one site clockwise; a ball
crossing a marked edge flips color.  The dynamics is deterministic,
invertible, and exactly periodic: after ``2 * n_sites`` steps every ball
has crossed every edge twice, so the coloring recurs exactly.

Typical colorings still relax toward the half-black macrostate, and a
"bad" microstate engineered by running the inverse map from an extreme
coloring anti-thermalizes on schedule.  A small independent per-ball
flip probability per step destroys that conspiracy while leaving typical
behavior alone, which is the point of the experiment here.

The map is linear over GF(2) (Kac 1959), so no experiment here steps it.
In the co-moving frame, where ball ``j`` is the ball that started at site
``j``, the color of ball ``j`` after ``t`` steps is
``c0[j] ^ parity(markers[j .. j+t-1])``, taken cyclically.  One prefix XOR
over one lap of markers, with a copy of that lap XORed with its total
parity appended as the second lap, gives every ball's parity for any
``t``, and each full lap XORs in the total marker parity once more.
Magnetization is a count, so it is the same in either frame;
``np.roll(colors, t)`` turns co-moving colors into the site frame, where
one step is ``np.roll(colors ^ markers, 1)``.

Flips ride rigidly with their balls, and only the parity of a ball's flip
count matters.  Over ``k`` steps of independent Bernoulli(``r``) flips
that parity is Bernoulli(:func:`flip_parity_probability`), so
:func:`equilibration_experiment` draws one ``random(n_sites) < p`` mask per
sample interval, indexed by ball, instead of one per step.

Both Bernoulli masks, the markers and the flips, are read from raw Philox
words (:func:`~grwsim.rng._bernoulli`), with the bits of ``random(n) < p``,
and the experiment moves one ``Philox`` per stream role from trial to
trial (:class:`~grwsim.rng._Rekeyer`) instead of building a generator per
stream.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidHorizonError, ValidationError, require_int
from .rng import _bernoulli, _Rekeyer, trajectory_stream

#: |m - 1/2| below this counts as equilibrated
EQUILIBRIUM_BAND = 0.05

#: |m - 1/2| above this counts as an anti-thermal excursion
EXCURSION_BAND = 0.4


def _parity_prefix(markers: np.ndarray) -> np.ndarray:
    """``P[k]`` = XOR of the first ``k`` edges of the doubled ring, k = 0..2n.

    One lap is accumulated; the second lap is the first XOR its total parity.
    """
    n = markers.size
    prefix = np.empty(2 * n + 1, dtype=bool)
    prefix[0] = False
    np.bitwise_xor.accumulate(markers, out=prefix[1:n + 1])
    np.bitwise_xor(prefix[1:n + 1], prefix[n], out=prefix[n + 1:])
    return prefix


def _crossed_parity(prefix: np.ndarray, steps: int) -> np.ndarray:
    """Parity of the marked edges each ball crosses in ``steps`` forward steps.

    Entry ``j`` is the ball that started at site ``j``; it crosses edges
    ``j, j+1, ..., j+steps-1`` (mod n).
    """
    n = (prefix.size - 1) // 2
    laps, rest = divmod(steps, n)
    parity = prefix[rest:rest + n] ^ prefix[:n]
    if laps % 2 and prefix[n]:
        parity = ~parity
    return parity


def flip_parity_probability(flip_rate: float, steps: int) -> float:
    """Probability of an odd number of flips in ``steps`` Bernoulli(flip_rate) trials.

    ``(1 - (1 - 2 r)^k) / 2``, the odd-binomial sum in closed form.  Below
    ``r = 1/2`` it is computed as ``-expm1(k log1p(-2r)) / 2`` to keep small
    rates accurate; ``r = 0`` gives exactly 0 and ``r = 1`` exactly ``k mod 2``.
    """
    if flip_rate == 0.0:
        return 0.0
    if flip_rate < 0.5:
        return -0.5 * math.expm1(steps * math.log1p(-2.0 * flip_rate))
    return 0.5 * (1.0 - (1.0 - 2.0 * flip_rate) ** steps)


def engineered_bad_ring(
    n_sites: int, marker_fraction: float, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(colors, markers, prefix)`` of a microstate whose unperturbed
    forward evolution anti-thermalizes.

    Equals ``steps`` applications of the inverse map to the all-one-color
    extreme, so the forward map reaches that extreme exactly at
    ``t = steps``: site ``i`` gets ``~parity(markers[i .. i+steps-1])``,
    the color that the edges ahead of it turn into one; ``markers[i]``
    marks the edge between sites ``i`` and ``i+1``.  ``prefix`` is the
    markers' :func:`_parity_prefix`, which built the colors and gives the
    ring's closed-form evolution.  Draws the ``n_sites`` markers from
    ``rng``, which must be a ``Philox`` generator, as ``rng.random(n_sites)
    < marker_fraction`` gives them, and nothing else: they are compared on
    its raw words (:func:`~grwsim.rng._bernoulli`), the same words and
    bits.
    """
    if not 0.0 < marker_fraction < 0.5:
        raise ValidationError(
            f"marker_fraction must lie in (0, 0.5), got {marker_fraction}"
        )
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    markers = _bernoulli(rng, n_sites, marker_fraction)
    prefix = _parity_prefix(markers)
    return ~_crossed_parity(prefix, steps), markers, prefix


def equilibration_experiment(
    n_sites: int,
    marker_fraction: float,
    flip_rate: float,
    horizon: int,
    trials: int,
    master_seed: int,
    series_stride: int = 0,
) -> dict:
    """Race engineered bad microstates with and without perturbation.

    Per trial: draw markers, build the bad microstate aimed at ``horizon``,
    then evolve two arms from it -- one with the deterministic map alone,
    one adding per-ball flips at ``flip_rate``.  The summary reports, for
    each arm, the fraction of trials inside the equilibrium band
    ``|m - 1/2| < 0.05`` at the horizon and the fraction beyond the
    excursion band ``|m - 1/2| > 0.4``, plus mean ``m(t)`` series sampled
    every ``series_stride`` steps (0 = horizon only).

    Neither arm is stepped.  The plain arm is the co-moving closed form at
    each sample step.  Trial ``trial`` draws its markers from stream
    ``(master_seed, trial)``; its kicked arm draws, for each sample
    interval ``series_steps[s-1] -> series_steps[s]`` of ``k`` steps, one
    ``random(n_sites) < flip_parity_probability(flip_rate, k)`` from stream
    ``(master_seed, trials + trial)``, indexed by ball, and XORs it into
    that ball's flip record.  Every sampled magnetization has the same
    joint law as per-step flips; ``flip_rate = 0`` draws nothing.  The
    markers and the flips each have one ``Philox``, re-keyed to the
    trial's stream (:class:`~grwsim.rng._Rekeyer`), and both masks are
    compared on raw words (:func:`~grwsim.rng._bernoulli`): the draws and
    bits of a fresh ``RngStream.generator()`` per stream.  Every argument
    is checked before the first draw.
    """
    for label, value in (("n_sites", n_sites), ("horizon", horizon), ("trials", trials),
                         ("series_stride", series_stride)):
        require_int(label, value)
    if n_sites < 2:
        raise ValidationError(f"ring needs at least 2 sites, got {n_sites}")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1 step, got {horizon}")
    if horizon >= 2 * n_sites:
        raise InvalidHorizonError(
            f"horizon {horizon} reaches the exact recurrence time "
            f"{2 * n_sites}; nothing to test there"
        )
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0.0 <= flip_rate <= 1.0:
        raise ValidationError(f"flip_rate must lie in [0, 1], got {flip_rate}")
    if series_stride < 0:
        raise ValidationError(
            f"series_stride must be >= 0 (0 = horizon only), got {series_stride}"
        )
    stride = series_stride or horizon
    sample_steps = sorted({0, horizon, *range(0, horizon + 1, stride)})
    plain_series = np.zeros(len(sample_steps))
    kicked_series = np.zeros(len(sample_steps))
    plain_final = np.empty(trials)
    kicked_final = np.empty(trials)
    # odds[s] drives the flips over the interval that ends at sample s + 1
    odds = [
        flip_parity_probability(flip_rate, t - s)
        for s, t in zip(sample_steps, sample_steps[1:])
    ] if flip_rate > 0.0 else []
    # one re-keyed Philox per role, so neither is moved while the other reads
    marker_streams, flip_streams = _Rekeyer(), _Rekeyer()
    for trial in range(trials):
        gen = marker_streams.start(trajectory_stream(master_seed, trial))
        colors, _, prefix = engineered_bad_ring(n_sites, marker_fraction, horizon, gen)
        if odds:
            flips = flip_streams.start(trajectory_stream(master_seed, trials + trial))
        flipped = None  # no flips before the first interval's draw
        for slot, t in enumerate(sample_steps):
            plain = colors ^ _crossed_parity(prefix, t) if t else colors
            # the exact count over n, as np.mean of the booleans gives it
            plain_m = kicked_m = np.count_nonzero(plain) / n_sites
            if slot and odds:
                draw = _bernoulli(flips, n_sites, odds[slot - 1])
                flipped = draw if flipped is None else flipped ^ draw
                kicked_m = np.count_nonzero(plain ^ flipped) / n_sites
            plain_series[slot] += plain_m
            kicked_series[slot] += kicked_m
        plain_final[trial] = plain_m
        kicked_final[trial] = kicked_m
    plain_dev = np.abs(plain_final - 0.5)
    kicked_dev = np.abs(kicked_final - 0.5)
    return {
        "n_sites": n_sites,
        "marker_fraction": marker_fraction,
        "flip_rate": flip_rate,
        "horizon": horizon,
        "trials": trials,
        "equilibrium_band": EQUILIBRIUM_BAND,
        "excursion_band": EXCURSION_BAND,
        "plain_equilibrated_fraction": float(np.mean(plain_dev < EQUILIBRIUM_BAND)),
        "kicked_equilibrated_fraction": float(np.mean(kicked_dev < EQUILIBRIUM_BAND)),
        "plain_excursion_fraction": float(np.mean(plain_dev > EXCURSION_BAND)),
        "kicked_excursion_fraction": float(np.mean(kicked_dev > EXCURSION_BAND)),
        "plain_mean_final_magnetization": float(np.mean(plain_final)),
        "kicked_mean_final_magnetization": float(np.mean(kicked_final)),
        "series_steps": [int(t) for t in sample_steps],
        "plain_mean_series": [float(v / trials) for v in plain_series],
        "kicked_mean_series": [float(v / trials) for v in kicked_series],
    }
