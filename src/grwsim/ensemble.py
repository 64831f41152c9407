"""Ensemble driver: run many trajectories and write deterministic artifacts.

:func:`run_ensemble` is the only code that runs trajectories in bulk,
tallies their outcomes and enforces the failure and undecided budgets;
every scenario and mode, and the ``n_eff`` scaling sweep, goes through it.

Batching, like parallelism, is an implementation detail.  The ensemble
is cut once into batches of at most ``BATCH_ROWS`` consecutive
trajectories (at most ``ceil(trajectories / workers)`` with a pool, so
every worker gets a batch), and the batch is the only unit of work: the
serial path maps the worker body over the batches in order and writes
each row as it is read, and the pool path hands out one batch per task
through an equally ordered ``ProcessPoolExecutor.map``.  A batch steps
in lockstep (:func:`grwsim.collapse.evolve_batch`), but every trajectory
still draws from its own counter-based stream keyed by
``(master_seed, index)`` in its own order.  Every batch, grid or
``wpr``, is one block of arrays, and every row is read straight from it
the same way, its tally fields and its artifact line alike; no
:class:`~grwsim.collapse.TrajectoryRecord` is built for it.  Records are
built only for callers of ``run_batch`` and ``run_single``.
A block's reductions are axis-wise sums, which give each row the bits it
would get alone (see :func:`~grwsim.collapse.evolve_batch`).  One fold
tallies and writes each batch's rows as the map yields them, in index
order, and wall-clock fields never reach disk, so
``events.jsonl`` / ``summary.json`` / ``outcomes.csv`` are byte-identical
for any worker count and any batch size;
``test_artifacts_identical_for_any_worker_count`` guards this.  A run
without ``out_dir`` keeps no records, so each row stops at its decision
(``stop_decided``); its summary equals the written run's, which
``test_tally_only_summary_equals_the_written_one`` guards.
"""
from __future__ import annotations

import csv
import json
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from ._version import __version__
from .errors import (
    EnsembleFailureError,
    GrwsimError,
    InsufficientDataError,
    NonConvergentError,
    ValidationError,
)
from .rng import GENERATOR_NAME
from .scenarios import ScenarioConfig
from .scenarios import run_batch as _run_batch
# Not called here: perfbench's cat_ensemble workload times the host at
# every 50th call of the function bound to this name.
from .scenarios import run_single as _run_single  # noqa: F401
from .stats import OutcomeTally, born_chi_square, survival_statistics

#: abort threshold for the fraction of trajectories that raise
FAILURE_BUDGET = 0.01
#: abort threshold for the undecided fraction of a grw-mode ensemble
UNDECIDED_BUDGET = 0.01
#: most trajectories stepped together in one lockstep block: 512 rows of
#: a 256-point grid are 2 MB of amplitudes.  With block-owned series and
#: lines streamed to the spool, the benchmark's cat_ensemble workload (1000
#: configs/cat.ini trajectories with artifacts, 12 s runs, seeds 3101-3104
#: alternating, 2-core VM) gave
#:
#:     rows   traj/s (median, range)   peak RSS MB (median)
#:      128      616  (571-715)           65.2
#:      256      700  (680-743)           65.2
#:      512      783  (746-869)           67.6
#:     1024      802  (775-834)           68.1
#:
#: Each step's fixed cost (about 30 numpy calls of observation and hit
#: rounds, the FFT dispatch and the phase masks) spreads over more rows.
#: A batch costs about 6-7 kB a row at the margin, mostly its amplitudes.
#: At 1024 rows the benchmark's 1000 trajectories are one block, and the
#: gain over 512 rows is within the noise while the peak keeps growing.
BATCH_ROWS = 512

EVENTS_FILE = "events.jsonl"
SUMMARY_FILE = "summary.json"
OUTCOMES_FILE = "outcomes.csv"
CONFIG_ECHO_FILE = "config.ini"
OUTCOME_COLUMNS = ("index", "outcome", "survival_time", "n_jumps",
                   "final_weight_1", "final_weight_2")


def provenance() -> dict:
    return {
        "package": "grwsim",
        "version": __version__,
        "generator": GENERATOR_NAME,
    }


@dataclass
class EnsembleSummary:
    """Aggregate view of one ensemble run (see ``as_dict`` for the schema).

    It holds aggregates only; the per-trajectory rows of a written run are
    in its ``events.jsonl`` and ``outcomes.csv``.
    """

    scenario: str
    kind: str
    mode: str
    trajectories: int
    master_seed: int
    tally: OutcomeTally
    expected_weights: tuple[float, float]
    chi_square: float | None = None
    p_value: float | None = None
    survival: dict | None = None
    total_jumps: int = 0
    failures: int = 0
    config_digest: str | None = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "mode": self.mode,
            "trajectories": self.trajectories,
            "master_seed": self.master_seed,
            "outcomes": self.tally.as_dict(),
            "expected_weights": list(self.expected_weights),
            "chi_square": self.chi_square,
            "p_value": self.p_value,
            "survival": self.survival,
            "total_jumps": self.total_jumps,
            "failures": self.failures,
            "config_digest": self.config_digest,
            "provenance": provenance(),
        }


def _run_rows(cfg: ScenarioConfig, master_seed: int, write: bool, indices):
    """Worker body: one batch of trajectories ``indices``, yielded in order
    as ``(outcome, survival_time, n_jumps, error, line, fields)``.

    ``line`` and ``fields`` are the row's finished ``events.jsonl`` line
    and ``outcomes.csv`` fields, built only with ``write``.  Every batch,
    grid or ``wpr``, comes back as one block of arrays
    (:class:`~grwsim.collapse._BlockRecords`), and each row is read from
    it when it is reached, the same way for every mode: its error from
    ``errors``, else its tally fields by ``tally`` and its line and fields
    by ``render``.  So no record, dict or JSON encoder is made for a row
    that ran, and a consumer that writes each row as it arrives holds one
    line at a time.  Without ``write`` the batch runs with
    ``stop_decided``: a grid row stops at its decision, and ``n_jumps``
    counts its whole hit schedule, the hits it never took included.  A
    trajectory that raises has ``error`` set and no outcome.  A
    :class:`ValidationError` raised for the whole batch (for example the
    step-size or branch-support guard) is a config error and propagates;
    any other error raised for the whole batch is recorded against each of
    its indices.
    """
    try:
        block = _run_batch(cfg, master_seed, indices, stop_decided=not write)
        errors = block.errors
    except ValidationError:
        raise
    except GrwsimError as exc:
        errors = [exc] * len(indices)
    for i, index in enumerate(indices):
        line = fields = None
        if errors[i] is not None:
            error = f"{type(errors[i]).__name__}: {errors[i]}"
            row = (None, None, 0, error)
            if write:
                line = dump_json_line({"index": index, "error": error, "scenario": cfg.name})
                fields = ["error", "", "", "", ""]
        else:
            row = (*block.tally(i), None)
            if write:
                line, fields = block.render(i)
        yield row + (line, None if fields is None else [index, *fields])


def _listed_rows(cfg: ScenarioConfig, master_seed: int, write: bool, indices) -> list:
    """Pool task: :func:`_run_rows` of one batch as a list, lines made in
    the worker, since a generator cannot be pickled back."""
    return list(_run_rows(cfg, master_seed, write, indices))


def run_ensemble(
    cfg: ScenarioConfig,
    trajectories: int,
    master_seed: int,
    workers: int = 1,
    out_dir: str | Path | None = None,
    config_text: str | None = None,
    config_digest: str | None = None,
) -> EnsembleSummary:
    """Run ``trajectories`` independent realizations and summarize them.

    Raises :class:`EnsembleFailureError` if more than ``FAILURE_BUDGET``
    of trajectories error out, and :class:`NonConvergentError` if (in
    ``grw`` mode only; ``wpr`` and ``unitary`` are exempt) more than
    ``UNDECIDED_BUDGET`` finish undecided.  Both budgets are fixed
    fractions with no binomial margin: at 200 trajectories 3 undecided
    already abort the run, even where the per-trajectory undecided rate
    is only ~0.25%.  With ``out_dir`` set, also writes the event log,
    outcome table, summary, and resolved-config echo.  Each batch's rows
    go to two anonymous spool files beside ``out_dir`` as it arrives, and
    are copied to their names once both budgets hold.  An ``out_dir``
    that cannot become a directory raises :class:`ValidationError` before
    any trajectory runs (see :func:`check_out_dir`); a run that aborts
    creates no file and changes none in an existing ``out_dir``.  Without
    ``out_dir`` no record is kept, and a trajectory is not stepped or hit
    after its decision: an error it would have met later goes unseen, and
    it counts as decided.
    """
    if trajectories < 1:
        raise ValidationError(f"trajectories must be >= 1, got {trajectories}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    write = out_dir is not None
    if write:
        out_dir = Path(out_dir)
        spool_dir = check_out_dir(out_dir)
    # every worker gets a batch: 512-row batches would idle 6 of 8 workers
    # on 1000 trajectories
    size = BATCH_ROWS if workers == 1 else min(BATCH_ROWS, -(-trajectories // workers))
    batches = [
        range(lo, min(lo + size, trajectories)) for lo in range(0, trajectories, size)
    ]

    tally = OutcomeTally()
    survival_times = []
    total_jumps = failures = 0
    first_error = None
    with ExitStack() as stack:
        if write:
            spool = partial(tempfile.TemporaryFile, "w+", encoding="utf-8",
                            newline="\n", dir=spool_dir)
            events, outcomes = stack.enter_context(spool()), stack.enter_context(spool())
            table = csv.writer(outcomes, lineterminator="\n")
            table.writerow(OUTCOME_COLUMNS)
        if workers == 1:
            done = map(partial(_run_rows, cfg, master_seed, write), batches)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            done = pool.map(partial(_listed_rows, cfg, master_seed, write), batches)
        for rows in done:
            for outcome, survival_time, n_jumps, error, line, fields in rows:
                if error is not None:
                    failures += 1
                    first_error = first_error or error
                else:
                    tally.add(outcome)
                    total_jumps += n_jumps
                    if outcome in ("1", "2") and survival_time is not None:
                        survival_times.append(survival_time)
                if write:
                    events.write(line + "\n")
                    table.writerow(fields)

        if failures / trajectories > FAILURE_BUDGET:
            raise EnsembleFailureError(
                f"{failures}/{trajectories} trajectories failed "
                f"(budget {FAILURE_BUDGET:.0%}); first error: {first_error}"
            )
        if cfg.mode == "grw" and tally.undecided_fraction > UNDECIDED_BUDGET:
            raise NonConvergentError(
                f"undecided fraction {tally.undecided_fraction:.4f} exceeds "
                f"{UNDECIDED_BUDGET}; horizon too short for the configured rate"
            )

        expected = (cfg.weight_1, 1.0 - cfg.weight_1)
        chi_square = p_value = None
        if 0.0 < cfg.weight_1 < 1.0:
            try:
                chi_square, p_value = born_chi_square(tally, expected)
            except InsufficientDataError:
                pass
        survival = survival_statistics(survival_times) if survival_times else None

        summary = EnsembleSummary(
            scenario=cfg.name,
            kind=cfg.kind,
            mode=cfg.mode,
            trajectories=trajectories,
            master_seed=master_seed,
            tally=tally,
            expected_weights=expected,
            chi_square=chi_square,
            p_value=p_value,
            survival=survival,
            total_jumps=total_jumps,
            failures=failures,
            config_digest=config_digest,
        )
        if write:
            for spooled, name in ((events, EVENTS_FILE), (outcomes, OUTCOMES_FILE)):
                spooled.seek(0)
                with _create(out_dir, name) as fh:
                    shutil.copyfileobj(spooled, fh)
            write_summary(out_dir, summary.as_dict())
            if config_text is not None:
                write_config_echo(out_dir, config_text)
    return summary


def survival_scaling_points(
    base: ScenarioConfig,
    n_eff_values,
    trajectories: int,
    master_seed: int,
) -> list[tuple[float, float]]:
    """(n_eff, median survival) points for a rate-amplification sweep.

    Each rung rescales dt and horizon with 1/rate so that the snapping
    resolution and the expected jump count stay constant across rungs.
    Rung ``idx`` runs an ensemble under master seed ``master_seed + idx``.
    Any trajectory that raises aborts the sweep with
    :class:`EnsembleFailureError`: no rung's median leaves out a failure.
    """
    points = []
    base_rate = base.collapse.rate
    for idx, n_eff in enumerate(n_eff_values):
        params = replace(base.collapse, n_eff=float(n_eff))
        ratio = base_rate / params.rate
        prop = replace(base.prop, dt=base.prop.dt * ratio)
        cfg = replace(
            base, collapse=params, prop=prop, horizon=base.horizon * ratio
        )
        summary = run_ensemble(cfg, trajectories, master_seed + idx)
        if summary.failures:
            raise EnsembleFailureError(
                f"rung n_eff={n_eff}: {summary.failures}/{trajectories} "
                "trajectories raised"
            )
        if summary.survival is None:
            raise InsufficientDataError(
                f"rung n_eff={n_eff}: no survival times to summarize"
            )
        points.append((float(n_eff), summary.survival["median"]))
    return points


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def dump_json_line(record: dict) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def check_out_dir(out_dir: Path) -> Path | None:
    """The nearest of ``out_dir`` and its ancestors that exists, or None.

    Raises :class:`ValidationError` if that path is not a directory, so
    that ``mkdir`` would fail.  Called before any work is done, so an
    unusable output path costs nothing to find.
    """
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ValidationError(
            f"output path {out_dir}: {existing} exists and is not a directory"
        )
    return existing


def _create(out_dir: Path, name: str):
    """``out_dir / name`` opened for UTF-8 writing with bare ``\\n`` line ends."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return open(out_dir / name, "w", encoding="utf-8", newline="\n")


def write_summary(out_dir: Path, payload: dict) -> None:
    """``summary.json``: the payload key-sorted at indent 2, then a newline."""
    with _create(out_dir, SUMMARY_FILE) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def write_config_echo(out_dir: Path, config_text: str) -> None:
    """``config.ini``: the resolved config text, verbatim."""
    with _create(out_dir, CONFIG_ECHO_FILE) as fh:
        fh.write(config_text)
