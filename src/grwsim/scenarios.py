"""Scenarios and their trajectory drivers :func:`run_batch` and :func:`run_single`.

:func:`run_batch` runs a batch of trajectory indices (in lockstep, for the
grid modes) as one block of rows, and :func:`run_single` is its one-index
case, the row's record as the dict its ``events.jsonl`` line parses to.
Ensembles of these trajectories are run and tallied by
:func:`grwsim.ensemble.run_ensemble`.

``cat``                superposition of two separated packets of one
                       coordinate; jumps select one packet.
``measurement_chain``  two-level system entangled with a pointer packet by
                       an impulsive premeasurement; jumps on the pointer
                       coordinate select a level.
``wpr`` mode           textbook exact projection at the horizon (no grid
                       dynamics), as a statistical baseline.
``unitary`` mode       jump rate sent to zero; superpositions persist.

Leggett-Garg runs use a gridless two-level reduction: each collapse hit
on a far-separated pointer acts, to within the packet-overlap tail, as an
exact projection onto the level basis.  The equivalence to the grid-level
jump is covered by tests.  Every projection (hit or readout) therefore
leaves a basis state, and only the parity of the level flips between two
readouts matters: given a segment's hit times, it is odd with probability
``(1 - prod_i cos(omega * delta_i)) / 2`` over the gaps ``delta_i``
(:func:`segment_contrast`).  The product of two readouts is -1 exactly
when the flips between them are odd.  :func:`run_leggett_garg` draws, per
block of trajectories and per segment, the hit counts, the hit times and
one parity uniform per trajectory, all from one stream
``(master_seed, pair)`` per correlator pair, as array operations with no
per-trajectory loop.  Only the second segment's draws are made and
reduced: the first segment's uniforms are skipped by Philox counter, its
counts drawn only to know how many.  The second segment's hit times come
from raw Philox words keyed by row and sorted once, and the gaps between
them are one flat array, with no padding to the widest row.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .collapse import GrwParams, _BlockRecords, evolve_batch
from .errors import GrwsimError, ValidationError, require_int
from .propagator import (
    Potential,
    PropagatorConfig,
    _spectral_phases,
    premeasurement_evolve,
)
from .qstate import GridSpec, WaveFunction, gaussian_packet, two_peak_state
from .rng import _Rekeyer, _skip_doubles, trajectory_stream

SCENARIO_KINDS = ("cat", "measurement_chain")
MODES = ("grw", "wpr", "unitary")

#: most Leggett-Garg trajectories drawn and reduced together.  A block's
#: largest temporaries hold one value per hit between the pair's two
#: readouts (raw words, their row keys, hit times and gaps, at most two at
#: once), so memory does not grow with the ensemble size.  On a five-rate
#: ladder of 1000 trajectories, 512-row blocks raise peak RSS by about
#: 0.3 MB and 2048-row blocks, the most a hit key holds
#: (:func:`_sorted_hit_times`), by 0.6 MB; 2048 rows ran a 40 000-trajectory
#: ladder no faster (0.21-0.33 s against 0.23-0.31 s over three runs each,
#: on a 2-core x86-64 host).
LG_BLOCK_ROWS = 512

#: most hits a Leggett-Garg run may expect in a trajectory, ``rate * t3``.
#: A 512-row block of the ``t1 -> t3`` pair at that bound, with ``t1 = t3
#: / 3``, then holds about 3.4 million hits and raises peak RSS by 52 MB,
#: where K has long reached its limit of 1; the acceptance ladder's
#: highest rate, 24 over ``t3 = pi``, expects about 75.
LG_MAX_MEAN_HITS = 10**4


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a cat or measurement-chain experiment."""

    name: str = "cat"
    kind: str = "cat"
    mode: str = "grw"
    weight_1: float = 0.5  # Born weight of branch 1
    packet_width: float = 0.25
    separation: float = 3.5  # distance between the two branch centers
    grid: GridSpec = GridSpec(-8.0, 8.0, 256)
    collapse: GrwParams = GrwParams(tau=0.75, width=0.3, n_eff=6.0)
    prop: PropagatorConfig = PropagatorConfig(1.0 / 160.0, 10)
    potential: Potential | None = None
    horizon: float = 0.75

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.weight_1 <= 1.0:
            raise ValidationError(
                f"weight_1 must lie in [0, 1], got {self.weight_1}"
            )
        if not 0 < self.separation < math.inf:
            raise ValidationError(
                f"separation must be finite and positive, got {self.separation}"
            )
        if not 0 < self.packet_width < math.inf:
            raise ValidationError(
                f"packet_width must be finite and positive, got {self.packet_width}"
            )
        if not 0 <= self.horizon < math.inf:
            raise ValidationError(f"horizon must be finite and >= 0, got {self.horizon}")

    @property
    def amplitudes(self) -> tuple[float, float]:
        return math.sqrt(self.weight_1), math.sqrt(1.0 - self.weight_1)


def matched_double_well(packet_width: float, separation: float) -> Potential:
    """Double well whose wells' ground width equals ``packet_width``.

    A harmonic well of frequency ``w`` has ground width
    ``sigma = 1 / sqrt(2 w)``; inverting gives ``w = 1 / (2 sigma^2)`` and
    a cusp barrier ``w^2 s^2 / 8`` for wells at ``+- s/2``.  Packets
    seeded at the well bottoms then stay put while jumps do their work.
    """
    omega = 1.0 / (2.0 * packet_width**2)
    barrier = omega**2 * separation**2 / 8.0
    return Potential(
        kind="double_well", barrier_height=barrier, well_separation=separation
    )


def _check_support(cfg: ScenarioConfig) -> None:
    reach = 0.5 * cfg.separation + 5.0 * cfg.packet_width + 5.0 * cfg.collapse.width
    if reach > min(abs(cfg.grid.x_min), abs(cfg.grid.x_max)):
        raise ValidationError(
            f"branch support (+-{reach:.3f}) too close to the periodic seam of "
            f"grid [{cfg.grid.x_min}, {cfg.grid.x_max})"
        )


def initial_cat_state(cfg: ScenarioConfig) -> WaveFunction:
    """Two-peak superposition; branch 1 sits at the negative center."""
    a1, a2 = cfg.amplitudes
    half = 0.5 * cfg.separation
    return two_peak_state(cfg.grid, a1, a2, (-half, +half), cfg.packet_width)


def entangled_state(cfg: ScenarioConfig) -> WaveFunction:
    """Premeasured two-level state: level i's pointer displaced to -+ side.

    Level 0 (outcome 1) is displaced to ``+separation/2``, level 1 to the
    mirror position.  Requires the displacement to clear ten combined
    widths so the readout is unambiguous.
    """
    displacement = 0.5 * cfg.separation
    min_disp = 10.0 * (cfg.packet_width + cfg.collapse.width)
    if displacement < min_disp:
        raise ValidationError(
            f"premeasurement displacement {displacement} < 10 x (packet width "
            f"+ localization width) = {min_disp}"
        )
    pointer = gaussian_packet(cfg.grid, 0.0, cfg.packet_width)
    return premeasurement_evolve(cfg.amplitudes, pointer, displacement)


def _prepared(cfg: ScenarioConfig):
    """(state, potential, hit parameters) for evolve_batch.

    An omitted potential is the matched double well and unitary mode has
    no hits.  The state is built first, so an under-resolved packet width
    is reported by the packet's own guard before the matched well divides
    by its square.  Building the step phases here makes non-finite phases
    a ValidationError before any trajectory runs.
    """
    _check_support(cfg)
    state = initial_cat_state(cfg) if cfg.kind == "cat" else entangled_state(cfg)
    pot = cfg.potential
    if pot is None:
        pot = matched_double_well(cfg.packet_width, cfg.separation)
    params = cfg.collapse
    if cfg.mode == "unitary":
        params = replace(params, tau=math.inf)
    _spectral_phases(pot, cfg.grid, cfg.prop.dt)
    return state, pot, params


def run_batch(
    cfg: ScenarioConfig, master_seed: int, indices, *, stop_decided: bool = False
) -> _BlockRecords:
    """Trajectories ``indices`` of the configured scenario, in that order,
    as one block of rows (:class:`~grwsim.collapse._BlockRecords`).

    Grid modes step the whole batch in lockstep through
    :func:`~grwsim.collapse.evolve_batch`; ``wpr`` projects each row
    exactly (:func:`_wpr_block`).  Indexing the block gives the record
    that :func:`run_single` gives for that index, the dict the row's line
    parses to, or the error that retired the row.  With ``stop_decided`` a
    grid row stops at its decision and has only its tally (see
    ``evolve_batch``); ``wpr`` rows are whole either way.
    """
    streams = [trajectory_stream(master_seed, i) for i in indices]
    if cfg.mode == "wpr":
        return _wpr_block(cfg, streams)
    state, pot, params = _prepared(cfg)
    return evolve_batch(
        state, pot, params, cfg.prop, cfg.horizon, streams, scenario=cfg.name,
        stop_decided=stop_decided,
    )


def run_single(cfg: ScenarioConfig, master_seed: int, index: int) -> dict:
    """One trajectory of the configured scenario, stream ``(master_seed,
    index)``, as the dict its ``events.jsonl`` line parses to
    (:meth:`~grwsim.collapse._BlockRecords.render`: weight pairs are
    lists, ``seed`` is ``[master_seed, index]``).  Raises the error that
    retired the trajectory."""
    (result,) = run_batch(cfg, master_seed, (index,))
    if isinstance(result, GrwsimError):
        raise result
    return result


def _wpr_block(cfg: ScenarioConfig, streams) -> _BlockRecords:
    """Exact textbook projection at the horizon, one row a stream; no grid
    work.

    Each stream draws one uniform ``u``, in stream order, from one
    ``Philox`` re-keyed to each stream in turn.  Its row has two
    samples: at 0 with the Born weights ``(w1, 1 - w1)``, and at the
    horizon with ``(1.0, 0.0)`` if ``u < w1`` (outcome 1) else
    ``(0.0, 1.0)`` (outcome 2).  It latches at the second and has no
    events.  A projection has no moments, so the block's means and
    variances are empty.
    """
    n = len(streams)
    w1 = float(cfg.weight_1)
    rekeyer = _Rekeyer()
    chose_1 = np.array([rekeyer.start(s).random() < w1 for s in streams], dtype=float)
    weights = np.empty((n, 2, 2))
    weights[:, 0] = w1, 1.0 - w1
    weights[:, 1, 0], weights[:, 1, 1] = chose_1, 1.0 - chose_1
    none = np.zeros(n, dtype=np.int64)
    return _BlockRecords(
        cfg.name, [(s.seed, s.stream_id) for s in streams], [None] * n,
        times=np.tile([0.0, float(cfg.horizon)], n), weights=weights.reshape(2 * n, 2),
        means=np.empty(0), variances=np.empty(0), first=2 * np.arange(n),
        sampled=none + 2, latch=none + 1, hit_first=none, n_hits=none,
        centers=np.empty(0), pre=none[:0], stop_decided=False,
    )


# ---------------------------------------------------------------------------
# Leggett-Garg


@dataclass(frozen=True)
class LgConfig:
    """Three-time dichotomic-correlation experiment on a two-level system.

    The observable is the level index mapped to +-1; the system precesses
    at angular frequency ``omega`` between projective readouts at
    ``t1 < t2 < t3``.  ``collapse`` adds localization hits at rate
    ``n_eff / tau`` throughout the run (None = unitary).  The largest
    precession phase, ``omega * t3``, must be finite: past it, the
    cosine of a gap is NaN and every parity draw reads even.
    """

    omega: float
    t1: float
    t2: float
    t3: float
    collapse: GrwParams | None = None

    def __post_init__(self) -> None:
        if not 0 < self.omega < math.inf:
            raise ValidationError(f"omega must be finite and positive, got {self.omega}")
        if not 0.0 <= self.t1 < self.t2 < self.t3 < math.inf:
            raise ValidationError(
                f"need 0 <= t1 < t2 < t3 < inf, got {(self.t1, self.t2, self.t3)}"
            )
        if math.isinf(self.omega * self.t3):
            raise ValidationError(
                f"precession phase omega * t3 must be finite, got omega = {self.omega:.6g}"
                f" and t3 = {self.t3:.6g}"
            )
        if self.collapse is not None and self.collapse.rate * self.t3 > LG_MAX_MEAN_HITS:
            raise ValidationError(
                f"mean hit count n_eff / tau * t3 = {self.collapse.rate * self.t3:.6g} "
                f"exceeds {LG_MAX_MEAN_HITS}"
            )


@dataclass(frozen=True)
class LgResult:
    c12: float
    c23: float
    c13: float
    k: float
    se_c12: float
    se_c23: float
    se_c13: float
    se_k: float
    trajectories: int

    def as_dict(self) -> dict:
        return asdict(self)


def segment_contrast(
    omega: float, seg: float, counts: np.ndarray, hit_times: np.ndarray
) -> np.ndarray:
    """``prod_i cos(omega * delta_i)`` over each row's projection chain.

    Row ``r`` of a segment of length ``seg`` that starts at a projection
    holds ``counts[r]`` hits, taken from ``hit_times`` in row order (row
    0's first, then row 1's, and so on), each row's sorted, each in
    ``[0, seg]``.  Its hits and the readout at ``seg`` cut the segment
    into gaps ``delta_i``.  Every projection leaves a basis state, and
    over a gap the level flips with probability ``sin^2(omega * delta_i /
    2)`` from either level, so the row's flip count is odd with
    probability ``(1 - segment_contrast) / 2``.  The gaps up to each row's
    last hit are one flat array, whose cosines are multiplied row by row
    in gap order (``np.multiply.reduceat``); then each row's product is
    multiplied by the cosine of its last gap, ``seg`` less its last hit.
    A row with no hit is that one gap, ``cos(omega * seg)``.
    """
    hit = np.flatnonzero(counts)
    ends = np.cumsum(counts)[hit]
    starts = ends - counts[hit]
    gaps = np.empty_like(hit_times)
    np.subtract(hit_times[1:], hit_times[:-1], out=gaps[1:])
    gaps[starts] = hit_times[starts]
    gaps *= omega
    np.cos(gaps, out=gaps)
    contrast = np.full(counts.size, seg)
    contrast[hit] -= hit_times[ends - 1]
    contrast *= omega
    np.cos(contrast, out=contrast)
    contrast[hit] *= np.multiply.reduceat(gaps, starts)
    return contrast


def _sorted_hit_times(gen, counts: np.ndarray, seg: float) -> np.ndarray:
    """``gen.random(counts.sum()) * seg`` cut into rows of ``counts``, in
    row order, each row's times sorted, bit for bit.

    A Philox double is ``(word >> 11) * 2**-53``, so each raw word's 53
    bits are keyed by its row as ``row << 53 | word >> 11`` and the keys
    are sorted once.  A block has at most ``LG_BLOCK_ROWS`` (512) rows, so
    its row index fits in the 11 bits above them.  The low 53 bits of a
    sorted key make its double; the product by ``seg > 0`` keeps the order.
    The two multiplies stay apart: one by ``seg * 2**-53`` would round
    differently once that constant is subnormal.
    """
    keys = gen.bit_generator.random_raw(int(counts.sum()))
    keys >>= np.uint64(11)
    keys |= np.repeat(np.arange(counts.size, dtype=np.uint64) << np.uint64(53), counts)
    keys.sort()
    keys &= np.uint64(2**53 - 1)
    times = np.multiply(keys, 2.0**-53)
    times *= seg
    return times


def _pair_product_sum(
    omega: float, rate: float, t_first: float, t_second: float, rows: int, gen
) -> int:
    """Sum of ``q(t_first) * q(t_second)`` over ``rows`` trajectories.

    Per segment (``0 -> t_first``, then ``t_first -> t_second``) a block
    draws ``poisson(rate * seg, size=rows)`` hit counts (not at rate 0),
    then ``random(total hits) * seg`` hit times in row order, then one
    ``random(rows)`` that decides each row's flip parity.  A readout, like
    a hit, leaves the level definite, so the product is -1 exactly when
    the second segment's parity is odd.  The first segment's uniforms,
    ``total hits + rows`` of them, are never made: the generator skips
    past them by counter (:func:`~grwsim.rng._skip_doubles`), to the
    state drawing them leaves.  The second segment's hit times are made
    from raw words already sorted within each row
    (:func:`_sorted_hit_times`), the bits of ``random(total hits) * seg``.
    """
    first = rows
    if rate > 0.0:
        first += int(gen.poisson(rate * t_first, size=rows).sum())
    _skip_doubles(gen, first)
    seg = t_second - t_first
    if rate > 0.0:
        counts = gen.poisson(rate * seg, size=rows)
        hit_times = _sorted_hit_times(gen, counts, seg)
    else:
        counts = np.zeros(rows, dtype=np.int64)
        hit_times = np.empty(0)
    contrast = segment_contrast(omega, seg, counts, hit_times)
    odd = gen.random(rows) < 0.5 * (1.0 - contrast)
    return rows - 2 * int(np.count_nonzero(odd))


def run_leggett_garg(
    cfg: LgConfig, trajectories: int, master_seed: int
) -> LgResult:
    """Estimate C12, C23, C13 and K = C12 + C23 - C13.

    Each correlator gets its own sub-ensemble of ``trajectories`` runs
    with readouts only at its two times (an interleaved readout would
    itself disturb the unitary case).  Pair ``p`` (0: t1-t2, 1: t2-t3,
    2: t1-t3) draws everything from the one stream ``(master_seed, p)``,
    over consecutive blocks of at most ``LG_BLOCK_ROWS`` trajectories, in
    the per-block order of :func:`_pair_product_sum`, which reduces only
    the draws between the pair's two readouts; the first ``n``
    trajectories of a larger run are those of an ``n``-trajectory run
    whenever ``n`` is a multiple of ``LG_BLOCK_ROWS``.  One ``Philox`` is
    re-keyed from pair to pair.
    """
    require_int("trajectories", trajectories)
    if trajectories < 1:
        raise ValidationError(f"trajectories must be >= 1, got {trajectories}")
    rate = cfg.collapse.rate if cfg.collapse is not None else 0.0
    pairs = ((cfg.t1, cfg.t2), (cfg.t2, cfg.t3), (cfg.t1, cfg.t3))
    corr = []
    ses = []
    rekeyer = _Rekeyer()
    for pair_index, (ta, tb) in enumerate(pairs):
        gen = rekeyer.start(trajectory_stream(master_seed, pair_index))
        acc = sum(
            _pair_product_sum(
                cfg.omega, rate, ta, tb, min(LG_BLOCK_ROWS, trajectories - lo), gen
            )
            for lo in range(0, trajectories, LG_BLOCK_ROWS)
        )
        c = acc / trajectories
        corr.append(c)
        ses.append(math.sqrt(max(1.0 - c * c, 0.0) / trajectories))
    k = corr[0] + corr[1] - corr[2]
    se_k = math.sqrt(ses[0] ** 2 + ses[1] ** 2 + ses[2] ** 2)
    return LgResult(
        c12=corr[0],
        c23=corr[1],
        c13=corr[2],
        k=k,
        se_c12=ses[0],
        se_c23=ses[1],
        se_c13=ses[2],
        se_k=se_k,
        trajectories=trajectories,
    )
