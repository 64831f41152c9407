"""Per-layer tracing of grwsim, done entirely from the benchmark's side.

``Tracer.install`` replaces each traced function, at every name it is bound
to in grwsim's modules (``grwsim.collapse.step`` as well as
``grwsim.propagator.step``; ``grwsim.ensemble._run_single`` as well as
``grwsim.scenarios.run_single``), with a wrapper that records a span: label,
start, end and the id of the enclosing span.  Spans stay in memory in flat
arrays until ``write_spans``.  ``uninstall`` restores every binding, so one
process can alternate traced and untraced calls.

Counts that must repeat exactly for one seed (FFT rows, bytes moved, RNG
streams opened, Philox words drawn by the Kac ring, jumps, state
constructions) come from call arguments and span counts, never from timers.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (span label, module, attribute path) of every traced function
TARGETS = (
    ("rng.generator", "grwsim.rng", "RngStream.generator"),
    ("propagator.step", "grwsim.propagator", "step"),
    ("propagator.dry_run_check", "grwsim.propagator", "dry_run_check"),
    ("collapse.sample_center", "grwsim.collapse", "sample_center"),
    ("collapse.center_density", "grwsim.collapse", "center_density"),
    ("collapse.apply_jump", "grwsim.collapse", "apply_jump"),
    ("collapse.branch_weights", "grwsim.collapse", "branch_weights"),
    ("collapse.evolve", "grwsim.collapse", "evolve_with_collapse"),
    ("qstate.region_weight", "grwsim.qstate", "region_weight"),
    ("qstate.position_moments", "grwsim.qstate", "position_moments"),
    ("qstate.wavefunction", "grwsim.qstate", "WaveFunction.__post_init__"),
    ("scenarios.run_single", "grwsim.scenarios", "run_single"),
    ("scenarios.lg", "grwsim.scenarios", "run_leggett_garg"),
    ("ensemble.run_ensemble", "grwsim.ensemble", "run_ensemble"),
    ("ensemble.write_artifacts", "grwsim.ensemble", "write_artifacts"),
    ("kacring.kac_step", "grwsim.kacring", "kac_step"),
    ("kacring.kac_step_perturbed", "grwsim.kacring", "kac_step_perturbed"),
    ("kacring.engineered_bad_ring", "grwsim.kacring", "engineered_bad_ring"),
    ("kacring.experiment", "grwsim.kacring", "equilibration_experiment"),
    ("config.load_config", "grwsim.config", "load_config"),
    ("stats.born_chi_square", "grwsim.stats", "born_chi_square"),
    ("stats.two_proportion_test", "grwsim.stats", "two_proportion_test"),
    ("stats.binomial_ci", "grwsim.stats", "binomial_ci"),
)

#: the Kac ring's flip generator, seen without a span to count its draws
KAC_FLIP_GENERATOR = ("grwsim.kacring", "PerturbationConfig.generator")

#: computed traffic of one spectral sub-step per level row, in row transfers
#: of 16-byte points: forward and inverse FFT read and write the row (4), and
#: each of the two phase multiplies reads the row and a phase row and writes
#: the result (6)
ROW_TRANSFERS_PER_SUBSTEP = 10

#: counts that must be identical for every traced call of one seed
EXACT_COUNTS = (
    "rng.generator.calls",
    "propagator.step.calls",
    "propagator.fft_rows",
    "propagator.bytes_moved",
    "collapse.jumps_per_traj",
    "qstate.region_weight.calls",
    "qstate.wavefunction.per_traj",
    "kacring.uniform_draws",
    "ensemble.bytes_written",
)


def philox_words(gen: np.random.Generator) -> int:
    """64-bit words a Philox generator has handed out since it was keyed."""
    state = gen.bit_generator.state
    if state.get("bit_generator") != "Philox":
        raise TypeError(f"expected a Philox generator, got {state.get('bit_generator')}")
    blocks = int(state["state"]["counter"][0])
    return 4 * blocks - (4 - int(state["buffer_pos"])) if blocks else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_step(counts, args, kwargs, _before):
    psi, cfg = _arg(args, kwargs, 0, "psi"), _arg(args, kwargs, 2, "cfg")
    duration = _arg(args, kwargs, 3, "duration")
    rows = psi.levels * int(round(duration / cfg.dt))
    counts["propagator.point_steps"] += rows * psi.grid.n_points
    if cfg.method == "spectral":
        counts["propagator.fft_rows"] += 2 * rows
        counts["propagator.bytes_moved"] += (
            rows * psi.grid.n_points * 16 * ROW_TRANSFERS_PER_SUBSTEP
        )


def _words_before(args, kwargs):
    return philox_words(_arg(args, kwargs, 3, "rng"))


def _count_ring_draws(counts, args, kwargs, before):
    counts["kacring.uniform_draws"] += philox_words(_arg(args, kwargs, 3, "rng")) - before


#: label -> (pre hook, post hook); post hooks run after the span is closed
HOOKS = {
    "propagator.step": (None, _count_step),
    "kacring.engineered_bad_ring": (_words_before, _count_ring_draws),
}


def _resolve(module_name: str, path: str):
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or parts[-1] not in vars(owner):
        return None, parts[-1], None
    return owner, parts[-1], vars(owner)[parts[-1]]


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.flip_generators: dict[int, np.random.Generator] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._originals: dict[int, tuple[object, str]] = {}
        self._methods = []
        for label, module_name, path in TARGETS:
            owner, attr, fn = _resolve(module_name, path)
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
            elif "." in path:
                self._methods.append((owner, attr, label))
            else:
                fn = inspect.unwrap(fn)
                self._originals[id(fn)] = (fn, label)

    def _label_id(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self.label_ids[label]

    def _bindings(self):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "grwsim" or module_name.startswith("grwsim.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if not callable(value):
                    continue
                original = inspect.unwrap(value)
                entry = self._originals.get(id(original))
                if entry is not None and entry[0] is original:
                    yield module, attr, entry[1]
        yield from self._methods

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, label in list(self._bindings()):
            current = vars(owner)[attr]
            self._saved.append((owner, attr, current))
            setattr(owner, attr, self._wrap(label, current))
        owner, attr, fn = _resolve(*KAC_FLIP_GENERATOR)
        if fn is not None:
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._register_flips(fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _wrap(self, label: str, fn):
        nid = self._label_id(label)
        pre, post = HOOKS.get(label, (None, None))
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre is not None else None
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                if post is not None:
                    post(counts, args, kwargs, before)

        return traced

    def _register_flips(self, fn):
        flips = self.flip_generators

        @functools.wraps(fn)
        def register(*args, **kwargs):
            gen = fn(*args, **kwargs)
            flips[id(gen)] = gen
            return gen

        return register

    # -- per-call bookkeeping -------------------------------------------

    def begin(self) -> int:
        self.counts.clear()
        self.flip_generators.clear()
        return len(self.start)

    def end_call(self, first: int, wall: float) -> dict:
        for gen in self.flip_generators.values():
            self.counts["kacring.uniform_draws"] += philox_words(gen)
        self.flip_generators.clear()
        return {"first": first, "last": len(self.start), "wall": wall,
                "counts": dict(self.counts)}

    def write_spans(self, path, calls_by_kind: dict[str, list[dict]]) -> None:
        """Tab-separated spans: id, parent, label, start and end in ns, call."""
        origin = self.start[0] if len(self.start) else 0.0
        kind_of = {}
        for kind, calls in calls_by_kind.items():
            for k, call in enumerate(calls):
                kind_of[(call["first"], call["last"])] = f"{kind}{k}"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlabel\tstart_ns\tend_ns\tcall\n")
            for (first, last), tag in sorted(kind_of.items()):
                for sid in range(first, last):
                    fh.write(
                        f"{sid}\t{self.parent[sid]}\t{self.labels[self.name[sid]]}\t"
                        f"{round((self.start[sid] - origin) * 1e9)}\t"
                        f"{round((self.end[sid] - origin) * 1e9)}\t{tag}\n"
                    )


class Aggregate:
    """Span totals over a set of calls: count, inclusive and self seconds."""

    def __init__(self, tracer: Tracer, calls: list[dict]):
        n = len(tracer.labels)
        self.labels = tracer.labels
        self.calls = len(calls)
        self.wall = sum(c["wall"] for c in calls)
        self.count = [0] * n
        self.incl = [0.0] * n
        self.self_ = [0.0] * n
        self.run_single: list[float] = []  # durations, for percentiles
        self.counts: Counter = Counter()
        for call in calls:
            self.counts.update(call["counts"])
            first, last = call["first"], call["last"]
            child = {}
            for sid in range(last - 1, first - 1, -1):
                dur = tracer.end[sid] - tracer.start[sid]
                nid = tracer.name[sid]
                self.count[nid] += 1
                self.incl[nid] += dur
                self.self_[nid] += dur - child.pop(sid, 0.0)
                pid = tracer.parent[sid]
                if pid >= first:
                    child[pid] = child.get(pid, 0.0) + dur
                if tracer.labels[nid] == "scenarios.run_single":
                    self.run_single.append(dur)

    def _id(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            return None

    def n(self, label) -> int:
        i = self._id(label)
        return 0 if i is None else self.count[i]

    def total(self, label) -> float:
        i = self._id(label)
        return 0.0 if i is None else self.incl[i]

    def self_time(self, label) -> float:
        i = self._id(label)
        return 0.0 if i is None else self.self_[i]

    def mean(self, label) -> float:
        calls = self.n(label)
        return self.total(label) / calls if calls else 0.0


#: per-layer metric -> (unit, label whose absence leaves it empty)
LAYER_METRICS = {
    "rng.generator.calls": ("count", "rng.generator"),
    "rng.generator.us_per_call": ("us", "rng.generator"),
    "rng.generator.share": ("fraction", "rng.generator"),
    "propagator.step.calls": ("count", "propagator.step"),
    "propagator.step.us_per_call": ("us", "propagator.step"),
    "propagator.step.ns_per_point_step": ("ns", "propagator.step"),
    "propagator.step.share": ("fraction", "propagator.step"),
    "propagator.fft_rows": ("count", "propagator.step"),
    "propagator.bytes_moved": ("B_computed", "propagator.step"),
    "propagator.dry_run_check.s": ("s", "propagator.dry_run_check"),
    "collapse.sample_center.us_per_call": ("us", "collapse.sample_center"),
    "collapse.center_density.us_per_call": ("us", "collapse.center_density"),
    "collapse.apply_jump.us_per_call": ("us", "collapse.apply_jump"),
    "collapse.branch_weights.us_per_call": ("us", "collapse.branch_weights"),
    "collapse.jumps_per_traj": ("count", "collapse.evolve"),
    "collapse.evolve.self_share": ("fraction", "collapse.evolve"),
    "qstate.region_weight.calls": ("count", "qstate.region_weight"),
    "qstate.region_weight.us_per_call": ("us", "qstate.region_weight"),
    "qstate.position_moments.us_per_call": ("us", "qstate.position_moments"),
    "qstate.wavefunction.per_traj": ("count", "collapse.evolve"),
    "scenarios.run_single.ms_p50": ("ms", "scenarios.run_single"),
    "scenarios.run_single.ms_p99": ("ms", "scenarios.run_single"),
    "scenarios.run_single.samples": ("count", "scenarios.run_single"),
    "scenarios.lg.us_per_traj": ("us", "scenarios.lg"),
    "ensemble.write_artifacts.s": ("s", "ensemble.write_artifacts"),
    "ensemble.bytes_written": ("B", "ensemble.write_artifacts"),
    "ensemble.tally.s": ("s", "ensemble.run_ensemble"),
    "kacring.kac_step.us_per_call": ("us", "kacring.kac_step"),
    "kacring.kac_step_perturbed.us_per_call": ("us", "kacring.kac_step_perturbed"),
    "kacring.engineered_bad_ring.ms_per_call": ("ms", "kacring.engineered_bad_ring"),
    "kacring.uniform_draws": ("count", "kacring.experiment"),
    "config.load_config.ms": ("ms", "config.load_config"),
    "stats.s": ("s", "stats."),
    "trace.overhead": ("ratio", None),
}

#: run_single samples needed before p99 has ten samples beyond it
P99_MIN_SAMPLES = 1000


def layer_metrics(warm: Aggregate, cold: Aggregate, units_per_call: int,
                  overhead: float) -> tuple[dict, dict]:
    """Per-layer values (per workload call unless named otherwise) and the
    reason each metric that the workload never reaches reads 0."""
    calls = warm.calls
    trajs = warm.n("collapse.evolve")
    single = sorted(warm.run_single)
    stats_s = sum(
        warm.self_time(label) for label in warm.labels if label.startswith("stats.")
    )

    def share(label):
        return warm.total(label) / warm.wall if warm.wall else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "rng.generator.calls": warm.n("rng.generator") / calls,
        "rng.generator.us_per_call": warm.mean("rng.generator") * 1e6,
        "rng.generator.share": share("rng.generator"),
        "propagator.step.calls": warm.n("propagator.step") / calls,
        "propagator.step.us_per_call": warm.mean("propagator.step") * 1e6,
        "propagator.step.ns_per_point_step": ratio(
            warm.total("propagator.step") * 1e9, warm.counts["propagator.point_steps"]
        ),
        "propagator.step.share": share("propagator.step"),
        "propagator.fft_rows": warm.counts["propagator.fft_rows"] / calls,
        "propagator.bytes_moved": warm.counts["propagator.bytes_moved"] / calls,
        "propagator.dry_run_check.s": cold.total("propagator.dry_run_check"),
        "collapse.sample_center.us_per_call": warm.mean("collapse.sample_center") * 1e6,
        "collapse.center_density.us_per_call": warm.mean("collapse.center_density") * 1e6,
        "collapse.apply_jump.us_per_call": warm.mean("collapse.apply_jump") * 1e6,
        "collapse.branch_weights.us_per_call": warm.mean("collapse.branch_weights") * 1e6,
        "collapse.jumps_per_traj": ratio(warm.n("collapse.apply_jump"), trajs),
        "collapse.evolve.self_share": ratio(
            warm.self_time("collapse.evolve"), warm.total("collapse.evolve")
        ),
        "qstate.region_weight.calls": warm.n("qstate.region_weight") / calls,
        "qstate.region_weight.us_per_call": warm.mean("qstate.region_weight") * 1e6,
        "qstate.position_moments.us_per_call": warm.mean("qstate.position_moments") * 1e6,
        "qstate.wavefunction.per_traj": ratio(warm.n("qstate.wavefunction"), trajs),
        "scenarios.run_single.ms_p50": (
            float(np.percentile(single, 50)) * 1e3 if single else 0.0
        ),
        "scenarios.run_single.ms_p99": (
            float(np.percentile(single, 99)) * 1e3
            if len(single) >= P99_MIN_SAMPLES else 0.0
        ),
        "scenarios.run_single.samples": len(single),
        "scenarios.lg.us_per_traj": ratio(
            warm.total("scenarios.lg") * 1e6, units_per_call * calls
        ) if warm.n("scenarios.lg") else 0.0,
        "ensemble.write_artifacts.s": warm.total("ensemble.write_artifacts") / calls,
        "ensemble.bytes_written": warm.counts["ensemble.bytes_written"] / calls,
        "ensemble.tally.s": warm.self_time("ensemble.run_ensemble") / calls,
        "kacring.kac_step.us_per_call": warm.mean("kacring.kac_step") * 1e6,
        "kacring.kac_step_perturbed.us_per_call": (
            warm.mean("kacring.kac_step_perturbed") * 1e6
        ),
        "kacring.engineered_bad_ring.ms_per_call": (
            warm.mean("kacring.engineered_bad_ring") * 1e3
        ),
        "kacring.uniform_draws": warm.counts["kacring.uniform_draws"] / calls,
        "config.load_config.ms": cold.total("config.load_config") * 1e3,
        "stats.s": stats_s / calls,
        "trace.overhead": overhead,
    }
    absent = {}
    for metric, (_, label) in LAYER_METRICS.items():
        if label is None:
            continue
        seen = cold if metric in ("propagator.dry_run_check.s", "config.load_config.ms") else warm
        reached = (
            any(lb.startswith(label) and seen.n(lb) for lb in seen.labels)
            if label.endswith(".") else seen.n(label) > 0
        )
        if not reached:
            absent[metric] = (
                f"no {label[:-1]} function is called on this workload"
                if label.endswith(".") else f"{label} is never called on this workload"
            )
    if single and len(single) < P99_MIN_SAMPLES and "scenarios.run_single.ms_p99" not in absent:
        absent["scenarios.run_single.ms_p99"] = (
            f"{len(single)} run_single samples; p99 needs {P99_MIN_SAMPLES}"
        )
    return values, absent
