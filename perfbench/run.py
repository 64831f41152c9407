"""grwsim benchmark: three headline experiments, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload cat_ensemble --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

``--trace 0`` measures set-up time in fresh processes, then calls the workload
in a closed loop (one caller, ``workers=1``) for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` wraps grwsim's public functions, alternates
traced and untraced calls, and reports the per-layer metrics and the tracing
overhead.  Every call's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every check passed, 1 when a check or a call failed,
2 when the directory is not a grwsim checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REQUIRED = ("src/grwsim/__init__.py", "configs/cat.ini", "tests/_oracles.py")
WORKLOAD_NAMES = ("cat_ensemble", "lg_ladder", "arrow")

#: cold-start processes per run; set-up time is their median
SETUP_PROBES = {"full": 5, "tiny": 1}
PROBE_TIMEOUT_S = 60


def source_sha256() -> str:
    """Digest of the package source: names the program version measured."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_meta(workload, args) -> dict:
    import numpy
    import scipy
    from workloads import master_seed

    return {
        "workload": workload.name,
        "seed": args.seed,
        "master_seed": master_seed(workload.name, args.seed),
        "size": {"preset": args.size, **workload.meta()},
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def measure_setup(name: str, args, scratch: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES[args.size]):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(args.seed), args.size,
             str(scratch)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - started)
    return times


class Run:
    """Calls, verdicts and failures of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []
        self.verdicts = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra_checks: dict[str, bool] = {}
        self.notes: list[str] = []

    def call(self, around=None):
        """One timed call, judged afterwards; None if it raised.

        ``around`` is a context manager entered just around the call itself,
        so that judging the output stays outside it.
        """
        self.attempted += self.workload.units()
        try:
            with around or contextlib.nullcontext():
                started = time.perf_counter()
                raw = self.workload.call()
                wall = time.perf_counter() - started
        except Exception:  # a failed call is reported, not fatal to the run
            self.failed += self.workload.units()
            self.errors.append(traceback.format_exc())
            return None
        verdict = self.workload.judge(raw)
        self.failed += verdict.failed_units
        self.walls.append(wall)
        self.verdicts.append(verdict)
        return verdict

    def checks(self, store: Path, key: str) -> dict[str, bool]:
        if not self.verdicts:
            return {"calls_completed": False}
        checks = dict(self.verdicts[0].checks)
        digests = {v.digest for v in self.verdicts}
        checks["digest_repeats_within_run"] = len(digests) == 1
        checks["digest_matches_earlier_runs"] = _remember_digest(
            store, key, self.verdicts[0].digest
        )
        checks["calls_completed"] = not self.errors
        checks.update(self.extra_checks)
        return checks


def _remember_digest(store: Path, key: str, digest: str) -> bool:
    """Compare with, or record, the digest of this seed and program version."""
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return True


def timed(workload, args, scratch: Path) -> tuple[Run, dict, dict]:
    from workloads import SpeedMeter

    run = Run(workload)
    try:
        setups = measure_setup(workload.name, args, scratch)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        run.errors.append(str(exc))
        run.attempted = run.failed = workload.units()
        return run, {}, {}
    workload.first_unit()  # fill caches so the loop times steady calls
    meter = SpeedMeter(workload.checkpoint)
    started = time.perf_counter()
    while not run.attempted or time.perf_counter() - started < args.seconds:
        if run.call(meter.measure()) is None:
            break
    if not run.verdicts:
        return run, {}, {}
    # The host's speed drifts by up to 2x for seconds at a time, so call
    # times are scaled to the speed at which the reference kernel takes
    # REFERENCE_NOMINAL_S (see SpeedMeter).  Set-up is left unscaled: a
    # kernel timed in the probe once it is set up does not follow the speed
    # at which it was set up.
    rates = [workload.units() / s for s in meter.nominal_seconds]
    run.notes.append(
        f"unscaled mean rate {workload.units() * len(meter.seconds) / sum(meter.seconds):.6g}/s "
        f"over {len(meter.seconds)} calls; reference kernel "
        f"{min(meter.kernel_seconds) * 1e3:.3g}-{max(meter.kernel_seconds) * 1e3:.3g} ms; "
        f"set-up probes {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    metrics = {
        "traj_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_fraction": (None, "fraction"),  # filled in once checks are known
        "decided_fraction": (run.verdicts[0].decided_fraction, "fraction"),
    }
    return run, metrics, {}


def traced(workload, args, _scratch: Path) -> tuple[Run, dict, dict]:
    """Layer metrics, the reason for each one the workload never reaches,
    and the run's outputs."""
    from tracing import (
        EXACT_COUNTS, LAYER_METRICS, P99_MIN_SAMPLES, Aggregate, Tracer, layer_metrics,
    )

    tracer = Tracer()
    run = Run(workload)
    kinds = {"cold": [], "untraced": [], "traced": []}

    @contextlib.contextmanager
    def tracing(kind):
        tracer.install()
        first = tracer.begin()
        started = time.perf_counter()
        try:
            if kind == "cold":
                workload.first_unit()
            yield
        finally:
            wall = time.perf_counter() - started
            tracer.uninstall()
        kinds[kind].append(tracer.end_call(first, wall))

    def traced_call(kind):
        verdict = run.call(tracing(kind))
        if verdict is not None:
            kinds[kind][-1]["counts"]["ensemble.bytes_written"] = verdict.bytes_written
        return verdict

    def run_single_samples():
        label = tracer.label_ids.get("scenarios.run_single")
        return label is not None and sum(
            tracer.name[c["first"]:c["last"]].count(label) for c in kinds["traced"]
        )

    if traced_call("cold") is None:
        return run, {}, {}
    started = time.perf_counter()
    while (not kinds["traced"] or not kinds["untraced"]
           or time.perf_counter() - started < args.seconds
           # p99 needs its samples; give it up to three times --seconds
           or (0 < run_single_samples() < P99_MIN_SAMPLES
               and time.perf_counter() - started < 3 * args.seconds)):
        if run.call() is None:
            break
        kinds["untraced"].append({"wall": run.walls[-1]})
        if traced_call("traced") is None:
            break
    if not kinds["traced"] or not kinds["untraced"]:
        return run, {}, {}
    overhead = max(c["wall"] for c in kinds["traced"]) / max(
        c["wall"] for c in kinds["untraced"]
    )
    cold = Aggregate(tracer, kinds["cold"])
    values, absent = layer_metrics(
        Aggregate(tracer, kinds["traced"]), cold, workload.units(), overhead
    )
    per_call = [
        layer_metrics(Aggregate(tracer, [c]), cold, workload.units(), overhead)[0]
        for c in kinds["traced"]
    ]
    run.extra_checks["traced_counts_repeat_exactly"] = all(
        call[name] == per_call[0][name] for call in per_call for name in EXACT_COUNTS
    )
    metrics = {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
    for name in tracer.missing:
        absent[name] = "not found in this version of grwsim; its spans are missing"
    spans = OUT / "spans" / f"{workload.name}-seed{args.seed}-{args.size}.tsv"
    tracer.write_spans(spans, {k: kinds[k] for k in ("cold", "traced")})
    return run, metrics, absent


def run_one(args) -> int:
    from workloads import WORKLOADS  # imports grwsim, so only inside a checkout

    scratch = OUT / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, scratch)
    meta = run_meta(workload, args)
    absent: dict[str, str] = {}
    try:
        run, metrics, absent = (traced if args.trace else timed)(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    key = f"{workload.name}|{workload.n}|{args.seed}|{meta['source_sha256']}"
    checks = run.checks(OUT / "digests.json", key)
    checks["metrics_computed"] = bool(metrics)
    correct = all(checks.values())
    failed = run.attempted if not correct else run.failed
    if "completed_fraction" in metrics:
        metrics["completed_fraction"] = (1.0 - failed / run.attempted, "fraction")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.walls)} calls, {workload.units()} per call (unit: {workload.unit})")
    print("meta " + json.dumps(meta, sort_keys=True))
    for error in run.errors:
        print("error " + error.strip().replace("\n", "\n      "))
    for name, ok in checks.items():
        print(f"check {name} {'PASS' if ok else 'FAIL'}")
    for note in [*run.notes, *(run.verdicts[0].notes if run.verdicts else [])]:
        print(f"note {note}")
    for verdict in run.verdicts[:1]:
        print(f"digest {verdict.digest}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, reason in absent.items():
        print(f"absent {name}: {reason}")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(
        {"meta": meta, "checks": checks, "absent": absent, "result": result,
         "notes": run.notes,
         "digest": run.verdicts[0].digest if run.verdicts else None,
         "call_walls_s": run.walls},
        indent=1, sort_keys=True,
    ))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr, file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print()
    for name, res in results.items():
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:13s} {'ok' if res['correct'] else 'FAILED'}  {shown}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the self-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a grwsim checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
