"""The benchmark workloads, driven through grwsim's public functions.

Each workload turns the benchmark seed into its inputs, performs one call
of fixed size, and judges the call's result: a sha256 digest (which must
repeat exactly for one seed) and the bands of ``tests/test_acceptance.py``,
widened to GATE_Z, that the call's size supports.

Functions are looked up on the ``grwsim`` package at call time, never bound
here, so that the traced run sees every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import importlib.util
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import grwsim  # noqa: E402  (needs the sys.path entry above)

CAT_CONFIG = ROOT / "configs" / "cat.ini"
ORACLES = ROOT / "tests" / "_oracles.py"

#: trajectories (or trials) per call; "tiny" is the self-test size
SIZES = {
    "full": {"cat_ensemble": 1000, "lg_ladder": 1000, "arrow": 20},
    "tiny": {"cat_ensemble": 40, "lg_ladder": 200, "arrow": 2},
}

LG_RATES = (0.0, 0.75, 2.0, 6.0, 24.0)
LG_SPACING = math.pi / 3.0
KAC = dict(n_sites=10_000, marker_fraction=0.1, flip_rate=0.01, horizon=500)

#: seconds the reference kernel takes on the host speed traj_per_s is quoted at
REFERENCE_NOMINAL_S = 0.015

#: decided trajectories below which the Born chi-square is not computed
BORN_MIN_DECIDED = 100

#: Width of the statistical gates, in standard errors.  The acceptance tests
#: apply 3-sigma bands and p > 0.01 once each, at pinned seeds.  The benchmark
#: runs every seed it is given, and at 3 sigma a correct program fails each
#: band on 1 seed in 370 (p > 0.01: 1 in 100).  At 5 sigma that is 1 in 1.7
#: million; the acceptance-band verdict is still printed as a note.
GATE_Z = 5.0
#: Born chi-square (one degree of freedom) p-value gate, the match of GATE_Z
BORN_P_MIN = 1e-6


def master_seed(workload: str, seed: int, part: int = 0) -> int:
    """56-bit master seed of one part of a workload."""
    digest = hashlib.sha256(f"{workload}/{seed}/{part}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def reference_seconds() -> float:
    """Time a fixed mix of small FFTs and interpreted arithmetic.

    The host's speed drifts by up to 2x for seconds at a time; timing this
    kernel between pieces of a call says how fast the host was running while
    those pieces ran (see SpeedMeter).
    """
    x = np.arange(256, dtype=np.complex128)
    started = time.perf_counter()
    for _ in range(300):
        x = np.fft.ifft(np.fft.fft(x))
        acc = 0
        for i in range(300):
            acc += i * i
    return time.perf_counter() - started


class SpeedMeter:
    """A call's wall time converted to time at the nominal host speed.

    The reference kernel runs before and after each call and at the
    workload's checkpoints inside it (every ``every``-th call of one grwsim
    function).  Each piece of the call between two kernels is scaled by
    ``REFERENCE_NOMINAL_S`` over the mean of those two kernel times, and the
    kernels' own time is left out.  Scaling pieces a fraction of a second
    long follows the host's speed phases; scaling whole calls of several
    seconds by the kernels at their ends did not.
    """

    def __init__(self, checkpoint: tuple[str, str, int]):
        self.checkpoint = checkpoint
        self.seconds: list[float] = []
        self.nominal_seconds: list[float] = []
        self.kernel_seconds: list[float] = []

    def _mark(self, marks: list) -> None:
        started = time.perf_counter()
        ref = reference_seconds()
        marks.append((started, time.perf_counter(), ref))

    @contextlib.contextmanager
    def measure(self):
        marks: list[tuple[float, float, float]] = []
        restore = self._install(marks)
        self._mark(marks)
        try:
            yield
        finally:
            restore()
        self._mark(marks)
        pieces = [(b_start - a_end, (a_ref + b_ref) / 2)
                  for (_, a_end, a_ref), (b_start, _, b_ref) in zip(marks, marks[1:])]
        self.seconds.append(sum(s for s, _ in pieces))
        self.nominal_seconds.append(sum(s * REFERENCE_NOMINAL_S / ref for s, ref in pieces))
        self.kernel_seconds.extend(ref for _, _, ref in marks)

    def _install(self, marks: list):
        module_name, attr, every = self.checkpoint
        owner = importlib.import_module(module_name)
        inner = vars(owner)[attr]
        count = 0

        @functools.wraps(inner)
        def checkpoint(*args, **kwargs):
            nonlocal count
            if count and count % every == 0:
                self._mark(marks)
            count += 1
            return inner(*args, **kwargs)

        setattr(owner, attr, checkpoint)
        return lambda: setattr(owner, attr, inner)


def _sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _oracle_k():
    spec = importlib.util.spec_from_file_location("_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.three_time_k


@dataclass
class Verdict:
    """What one call produced, judged after the timed region."""

    digest: str
    units: int
    failed_units: int
    decided_fraction: float
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    bytes_written: int = 0


class Workload:
    name = ""
    unit = ""
    #: (module, function, every): SpeedMeter times the host before every
    #: every-th call of that function inside a workload call
    checkpoint: tuple[str, str, int]

    def __init__(self, seed: int, size: str, scratch: Path):
        self.seed = seed
        self.n = SIZES[size][self.name]
        self.scratch = scratch

    def meta(self) -> dict:
        return {"unit": self.unit, "per_call": self.n, "units_per_call": self.units()}

    def units(self) -> int:
        return self.n

    def resolve(self) -> None:
        """Resolve the config; part of set-up."""

    def first_unit(self) -> None:
        """Smallest unit of work: what set-up time runs up to."""
        raise NotImplementedError

    def call(self):
        raise NotImplementedError

    def judge(self, raw) -> Verdict:
        raise NotImplementedError


class CatEnsemble(Workload):
    name = "cat_ensemble"
    unit = "collapse trajectory"
    checkpoint = ("grwsim.ensemble", "_run_single", 50)

    def resolve(self) -> None:
        self.loaded = grwsim.load_config(CAT_CONFIG)
        self.config_text = grwsim.render_resolved(self.loaded)
        self.config_digest = grwsim.config_digest(self.loaded)
        self.out_dir = self.scratch / f"{self.name}-artifacts"

    def first_unit(self) -> None:
        self.resolve()
        grwsim.run_single(self.loaded.scenario, master_seed(self.name, self.seed), 0)

    def call(self):
        return grwsim.run_ensemble(
            self.loaded.scenario,
            self.n,
            master_seed(self.name, self.seed),
            workers=1,
            out_dir=self.out_dir,
            config_text=self.config_text,
            config_digest=self.config_digest,
        )

    def judge(self, summary) -> Verdict:
        sha = hashlib.sha256()
        written = 0
        for path in sorted(self.out_dir.iterdir()):
            data = path.read_bytes()
            written += len(data)
            sha.update(path.name.encode() + b"\0" + data)
        tally = summary.tally
        verdict = Verdict(
            digest=sha.hexdigest(),
            units=self.n,
            failed_units=summary.failures,
            decided_fraction=1.0 - tally.undecided_fraction,
            bytes_written=written,
        )
        w1 = self.loaded.scenario.weight_1
        if tally.decided >= BORN_MIN_DECIDED and summary.p_value is not None:
            freq = tally.count_1 / tally.decided
            sigma = math.sqrt(w1 * (1.0 - w1) / tally.decided)
            z = (freq - w1) / sigma
            verdict.checks[f"born_p_value_above_{BORN_P_MIN:g}"] = summary.p_value > BORN_P_MIN
            verdict.checks[f"born_frequency_within_{GATE_Z:g}_sigma"] = abs(z) <= GATE_Z
            # the acceptance band 0.700 +/- 0.014 is 3 sigma at 10^4 trajectories
            acceptance = summary.p_value > 0.01 and abs(z) <= 3.0
            verdict.notes.append(
                f"frequency_1 {freq:.4f} (z {z:+.2f}, sigma {sigma:.4f}), "
                f"p {summary.p_value:.4f}, undecided {tally.count_undecided}; "
                f"acceptance band (p > 0.01, 3 sigma) {'met' if acceptance else 'missed'}"
            )
        else:
            verdict.notes.append("Born bands skipped: too few decided trajectories")
        return verdict


def lg_config(rate: float):
    """The acceptance test's three-time setup at hit rate ``rate``."""
    collapse = None if rate == 0.0 else grwsim.GrwParams(tau=1.0 / rate, width=0.3, n_eff=1.0)
    return grwsim.LgConfig(
        omega=1.0, t1=LG_SPACING, t2=2 * LG_SPACING, t3=3 * LG_SPACING, collapse=collapse
    )


class LgLadder(Workload):
    name = "lg_ladder"
    unit = "pair-product trajectory"
    checkpoint = ("grwsim", "run_leggett_garg", 1)

    def units(self) -> int:
        return 3 * self.n * len(LG_RATES)

    def resolve(self) -> None:
        self.configs = [lg_config(rate) for rate in LG_RATES]

    def first_unit(self) -> None:
        self.resolve()
        grwsim.run_leggett_garg(self.configs[0], 1, master_seed(self.name, self.seed, 0))

    def call(self):
        return [
            grwsim.run_leggett_garg(cfg, self.n, master_seed(self.name, self.seed, i))
            for i, cfg in enumerate(self.configs)
        ]

    def judge(self, results) -> Verdict:
        verdict = Verdict(
            digest=_sha256_json([r.as_dict() for r in results]),
            units=self.units(),
            failed_units=0,
            decided_fraction=1.0,  # every readout is +-1
        )
        three_time_k = _oracle_k()
        for rate, res in zip(LG_RATES, results):
            ref = three_time_k(1.0, LG_SPACING, rate)
            z = (res.k - ref) / res.se_k
            verdict.checks[f"k_within_{GATE_Z:g}_se_at_rate_{rate:g}"] = abs(z) <= GATE_Z
            verdict.notes.append(
                f"rate {rate:g}: K {res.k:.4f} +/- {res.se_k:.4f} vs {ref:.4f} (z {z:+.2f}); "
                f"acceptance band (3 se) {'met' if abs(z) <= 3.0 else 'missed'}"
            )
        return verdict


class Arrow(Workload):
    name = "arrow"
    unit = "ring trial"
    checkpoint = ("grwsim.kacring", "engineered_bad_ring", 5)

    def first_unit(self) -> None:
        grwsim.equilibration_experiment(
            KAC["n_sites"], KAC["marker_fraction"], KAC["flip_rate"], KAC["horizon"],
            1, master_seed(self.name, self.seed),
        )

    def call(self):
        return grwsim.equilibration_experiment(
            KAC["n_sites"], KAC["marker_fraction"], KAC["flip_rate"], KAC["horizon"],
            self.n, master_seed(self.name, self.seed),
        )

    def judge(self, res) -> Verdict:
        verdict = Verdict(
            digest=_sha256_json(res),
            units=self.n,
            failed_units=0,
            decided_fraction=1.0,  # every trial ends with a magnetization
        )
        verdict.checks["kicked_equilibrated_at_least_0.99"] = res["kicked_equilibrated_fraction"] >= 0.99
        verdict.checks["plain_excursion_is_1"] = res["plain_excursion_fraction"] == 1.0
        verdict.checks["plain_equilibrated_is_0"] = res["plain_equilibrated_fraction"] == 0.0
        verdict.notes.append(
            f"kicked equilibrated {res['kicked_equilibrated_fraction']:.2f}, "
            f"plain excursion {res['plain_excursion_fraction']:.2f}"
        )
        return verdict


WORKLOADS = {cls.name: cls for cls in (CatEnsemble, LgLadder, Arrow)}
