"""Ensemble driver: run many trajectories and write deterministic artifacts.

:func:`run_ensemble` is the only code that runs trajectories in bulk,
tallies their outcomes and enforces the failure and undecided budgets;
every scenario and mode, and the ``n_eff`` scaling sweep, goes through it.

Batching, like parallelism, is an implementation detail.  The ensemble
is cut once into batches of at most ``BATCH_ROWS`` consecutive
trajectories (at most ``ceil(trajectories / workers)`` with a pool, so
every worker gets a batch), and the batch is the only unit of work: the
serial path maps the worker body over the batches in order and writes
each row as it is read, and the pool path hands out one batch per task,
to no more worker processes than batches, through an equally ordered
``ProcessPoolExecutor.map``.  A cut into one batch runs on the serial path
whatever ``workers`` is, and the pool machinery is imported only when a
pool starts.  A batch steps
in lockstep (:func:`grwsim.collapse.evolve_batch`), but every trajectory
still draws from its own counter-based stream keyed by
``(master_seed, index)`` in its own order.  Every batch, grid or
``wpr``, is one block of arrays, and reaches the fold as one record,
``(tally, errors, rows)`` (:func:`_run_rows`), each part read from the
block: its tally, read from its arrays in one pass (outcome counts, the
decided rows' survival times in row order, the jump total), the error
strings of the rows that raised, and each row's artifact line and CSV
fields, rendered from the arrays; a row's line is its one record format,
and no dict is built for it.  On the serial path ``rows`` is a generator,
so each line is rendered as it is written; a pool worker lists its rows,
since a generator cannot be pickled back.  A block's reductions are
axis-wise sums, which give each row the bits it would get alone (see
:func:`~grwsim.collapse.evolve_batch`).  One fold adds each batch's
totals and writes its rows as the map yields them, in index order, and
wall-clock fields never reach disk, so ``events.jsonl`` /
``summary.json`` / ``outcomes.csv`` are byte-identical for any worker
count and any batch size;
``test_artifacts_identical_for_any_worker_count`` guards this.  A run
without ``out_dir`` keeps no records, so each row stops at its decision
(``stop_decided``); its summary equals the written run's, which
``test_tally_only_summary_equals_the_written_one`` guards.

A run meets two kinds of failure.  A row's failure (a trajectory whose
state lost its norm, whose center density vanished or whose step drifted)
retires that row alone: its error is recorded, rendered as its line
``{"error": ..., "index": ..., "scenario": ...}`` and ``error`` row of
``outcomes.csv``, and counted against ``FAILURE_BUDGET``, past which the
run raises :class:`EnsembleFailureError`.  A batch-wide failure, an error
raised for a whole batch, comes from the config alone, so every batch
would meet it: it is raised as it is, and nothing is written.
"""
from __future__ import annotations

import csv
import json
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from ._version import __version__
from .collapse import OUTCOME_COLUMNS
from .errors import (
    EnsembleFailureError,
    InsufficientDataError,
    NonConvergentError,
    ValidationError,
    require_int,
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
    """Worker body: one batch of trajectories ``indices`` as its record
    ``(tally, errors, rows)``, each part read from the batch's block.

    Every batch, grid or ``wpr``, comes back as one block of arrays
    (:class:`~grwsim.collapse._BlockRecords`).  ``tally`` is the block's
    :meth:`~grwsim.collapse._BlockRecords.tally`, its outcome counts,
    survival times and jump total over the rows that ran, ``errors`` its
    :meth:`~grwsim.collapse._BlockRecords.failures`, the error strings of
    the rows that raised, in row order, and ``rows`` each row's finished
    ``events.jsonl`` line and ``outcomes.csv`` fields
    (:meth:`~grwsim.collapse._BlockRecords.render`), in row order, made
    only with ``write``.  A row that raised is one of those rows, its
    error line, so its failure is recorded, rendered and counted against
    the failure budget.  ``rows`` is a generator that renders each row
    from the arrays when it is reached, so no dict or JSON encoder is made
    for a row, and the serial fold, which writes each row as it arrives,
    holds one line at a time.  A pool worker lists the rows
    (:func:`_listed_rows`): a generator cannot be pickled back, and the
    lines are made in the worker that holds the block, so the parent only
    writes them.  Without ``write`` the batch runs with ``stop_decided``,
    and ``rows`` is empty: a grid row stops at its decision, and its jumps
    count its whole hit schedule, the hits it never took included.

    An error raised for the whole batch is no row's failure and
    propagates: it comes from the config alone (the scenario's initial
    state, or a guard on the step size or the branch support), so every
    batch would raise it.
    """
    block = _run_batch(cfg, master_seed, indices, stop_decided=not write)
    # a generator, not a map: once exhausted it lets go of the block, which
    # a map would hold while the next batch runs
    rows = (block.render(i) for i in range(len(block))) if write else ()
    return block.tally(), block.failures(), rows


def _listed_rows(cfg: ScenarioConfig, master_seed: int, write: bool, indices) -> tuple:
    """Pool task: :func:`_run_rows` of one batch with its rows as a list,
    lines made in the worker, since a generator cannot be pickled back."""
    tally, errors, rows = _run_rows(cfg, master_seed, write, indices)
    return tally, errors, list(rows)


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
    is only ~0.25%.  An error raised for a whole batch, which the config
    alone decides, is raised as it is (see :func:`_run_rows`).  With
    ``out_dir`` set, also writes the event log, outcome table, summary,
    and resolved-config echo.  Each batch's rows go to two anonymous spool
    files beside ``out_dir`` as it arrives, and are copied to their names
    once both budgets hold.  An ``out_dir``
    that cannot become a directory raises :class:`ValidationError` before
    any trajectory runs (see :func:`check_out_dir`); a run that aborts
    creates no file and changes none in an existing ``out_dir``.  Without
    ``out_dir`` no record is kept, and a trajectory is not stepped or hit
    after its decision: an error it would have met later goes unseen, and
    it counts as decided.
    """
    require_int("trajectories", trajectories)
    require_int("workers", workers)
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

    counts = (0, 0, 0)
    survival_times, errors = [], []
    total_jumps = 0
    with ExitStack() as stack:
        if write:
            spool = partial(tempfile.TemporaryFile, "w+", encoding="utf-8",
                            newline="\n", dir=spool_dir)
            events, outcomes = stack.enter_context(spool()), stack.enter_context(spool())
            table = csv.writer(outcomes, lineterminator="\n")
            table.writerow(OUTCOME_COLUMNS)
        if workers == 1 or len(batches) == 1:
            done = map(partial(_run_rows, cfg, master_seed, write), batches)
        else:
            from concurrent.futures import ProcessPoolExecutor

            # a pool forks all its workers at the first submit; one batch
            # keeps one busy
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(workers, len(batches)))
            )
            done = pool.map(partial(_listed_rows, cfg, master_seed, write), batches)
        for (batch_counts, batch_times, batch_jumps), batch_errors, rows in done:
            counts = tuple(map(sum, zip(counts, batch_counts)))
            survival_times += batch_times
            total_jumps += batch_jumps
            errors += batch_errors
            for line, fields in rows:
                events.write(line + "\n")
                table.writerow(fields)

        tally, failures = OutcomeTally(*counts), len(errors)
        if failures / trajectories > FAILURE_BUDGET:
            raise EnsembleFailureError(
                f"{failures}/{trajectories} trajectories failed "
                f"(budget {FAILURE_BUDGET:.0%}); first error: {errors[0]}"
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
    Every rung's config is built, and so validated, before the first rung
    runs.  Any trajectory that raises aborts the sweep with
    :class:`EnsembleFailureError`: no rung's median leaves out a failure.
    """
    rungs = []
    base_rate = base.collapse.rate
    for n_eff in n_eff_values:
        params = replace(base.collapse, n_eff=float(n_eff))
        ratio = base_rate / params.rate
        prop = replace(base.prop, dt=base.prop.dt * ratio)
        cfg = replace(
            base, collapse=params, prop=prop, horizon=base.horizon * ratio
        )
        rungs.append((n_eff, cfg))
    points = []
    for idx, (n_eff, cfg) in enumerate(rungs):
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


def dump_json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


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
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_config_echo(out_dir: Path, config_text: str) -> None:
    """``config.ini``: the resolved config text, verbatim."""
    with _create(out_dir, CONFIG_ECHO_FILE) as fh:
        fh.write(config_text)
