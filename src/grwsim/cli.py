"""Command-line entry points.

Subcommands::

    grwsim run       one trajectory of a configured scenario
    grwsim ensemble  many trajectories -> events.jsonl / outcomes.csv / summary.json
    grwsim lg        three-time correlation runs on the two-level reduction
    grwsim arrow     marker-ring reversibility/equilibration experiment
    grwsim convert   hit-rate amplification table in SI units

Exit codes: 0 success, 1 bad config or arguments, 2 runtime failure,
3 a requested ``--check`` gate was breached.  If ``GRWSIM_OUT_ROOT``
is set, relative ``--out`` paths are created under it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import LoadedConfig, config_digest, load_config, render_resolved
from .ensemble import (
    EVENTS_FILE,
    _create,
    check_out_dir,
    dump_json_line,
    provenance,
    run_ensemble,
    write_config_echo,
    write_summary,
)
from .errors import GrwsimError, ParseError, ValidationError
from .kacring import equilibration_experiment
from .scenarios import run_leggett_garg, run_single
from .units import amplification_table

ARROW_EQUILIBRATED_GATE = 0.99
ARROW_EXCURSION_GATE = 0.99


class CheckFailure(Exception):
    """A ``--check`` gate did not hold; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are a parse problem, not a crash
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_out(raw: str | None) -> Path | None:
    """The ``--out`` path, checked before the subcommand does any work."""
    if raw is None:
        return None
    path = Path(raw)
    root = os.environ.get("GRWSIM_OUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    check_out_dir(path)
    return path


def _load(path: str, expect: tuple[str, ...], hint: str) -> LoadedConfig:
    loaded = load_config(path)
    if loaded.kind not in expect:
        raise ValidationError(
            f"config kind {loaded.kind!r} cannot be used here; {hint}"
        )
    return loaded


def _gate(checks: dict, summary: dict) -> None:
    if "min_p_value" in checks:
        p = summary.get("p_value")
        if p is None or p < checks["min_p_value"]:
            raise CheckFailure(
                f"p_value {p} below min_p_value {checks['min_p_value']}"
            )
    if "max_undecided_fraction" in checks:
        frac = summary["outcomes"]["undecided_fraction"]
        if frac > checks["max_undecided_fraction"]:
            raise CheckFailure(
                f"undecided_fraction {frac} above "
                f"max_undecided_fraction {checks['max_undecided_fraction']}"
            )
    if "k_min" in checks and summary["k"] < checks["k_min"]:
        raise CheckFailure(f"k {summary['k']} below k_min {checks['k_min']}")
    if "k_max" in checks and summary["k"] > checks["k_max"]:
        raise CheckFailure(f"k {summary['k']} above k_max {checks['k_max']}")


def _cmd_run(args) -> int:
    loaded = _load(
        args.config, ("cat", "measurement_chain"),
        "use the lg subcommand for leggett_garg configs",
    )
    out = _resolve_out(args.out)
    record = run_single(loaded.scenario, args.seed, args.index)
    payload = record.as_dict()
    payload["config_digest"] = config_digest(loaded)
    payload["provenance"] = provenance()
    if out is not None:
        with _create(out, EVENTS_FILE) as fh:
            fh.write(dump_json_line(payload) + "\n")
        write_config_echo(out, render_resolved(loaded))
    print(
        f"outcome={payload['outcome']} jumps={len(payload['events'])} "
        f"survival_time={payload['survival_time']}"
    )
    return 0


def _cmd_ensemble(args) -> int:
    loaded = _load(
        args.config, ("cat", "measurement_chain"),
        "use the lg subcommand for leggett_garg configs",
    )
    out = _resolve_out(args.out)
    summary = run_ensemble(
        loaded.scenario,
        trajectories=args.trajectories,
        master_seed=args.seed,
        workers=args.workers,
        out_dir=out,
        config_text=render_resolved(loaded),
        config_digest=config_digest(loaded),
    )
    payload = summary.as_dict()
    tally = summary.tally
    line = (
        f"trajectories={summary.trajectories} outcomes="
        f"{tally.count_1}/{tally.count_2}/{tally.count_undecided}"
    )
    if summary.p_value is not None:
        line += f" p_value={summary.p_value:.4g}"
    print(line)
    if args.check:
        _gate(loaded.check_gates(), payload)
    return 0


def _cmd_lg(args) -> int:
    loaded = _load(args.config, ("leggett_garg",), "lg needs kind=leggett_garg")
    out = _resolve_out(args.out)
    result = run_leggett_garg(loaded.lg, args.trajectories, args.seed)
    payload = result.as_dict()
    payload["config_digest"] = config_digest(loaded)
    payload["provenance"] = provenance()
    if out is not None:
        write_summary(out, payload)
        write_config_echo(out, render_resolved(loaded))
    print(
        f"c12={result.c12:.4f} c23={result.c23:.4f} c13={result.c13:.4f} "
        f"k={result.k:.4f} (se {result.se_k:.4f})"
    )
    if args.check:
        _gate(loaded.check_gates(), payload)
    return 0


def _cmd_arrow(args) -> int:
    out = _resolve_out(args.out)
    summary = equilibration_experiment(
        n_sites=args.sites,
        marker_fraction=args.marker_fraction,
        flip_rate=args.flip_rate,
        horizon=args.horizon,
        trials=args.trials,
        master_seed=args.seed,
        series_stride=args.series_stride,
    )
    summary["provenance"] = provenance()
    if out is not None:
        write_summary(out, summary)
    print(
        "plain_excursion_fraction="
        f"{summary['plain_excursion_fraction']:.3f} "
        "kicked_equilibrated_fraction="
        f"{summary['kicked_equilibrated_fraction']:.3f}"
    )
    if args.check:
        if summary["kicked_equilibrated_fraction"] < ARROW_EQUILIBRATED_GATE:
            raise CheckFailure(
                "kicked arm failed to equilibrate: "
                f"{summary['kicked_equilibrated_fraction']} < "
                f"{ARROW_EQUILIBRATED_GATE}"
            )
        if summary["plain_excursion_fraction"] < ARROW_EXCURSION_GATE:
            raise CheckFailure(
                "plain arm failed to revisit the ordered state: "
                f"{summary['plain_excursion_fraction']} < "
                f"{ARROW_EXCURSION_GATE}"
            )
    return 0


def _cmd_convert(args) -> int:
    table = amplification_table(args.tau, args.n_eff)
    print(json.dumps(table, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grwsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one trajectory")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--index", type=int, default=0)
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    ens = sub.add_parser("ensemble", help="many trajectories + artifacts")
    ens.add_argument("--config", required=True)
    ens.add_argument("--trajectories", type=int, required=True)
    ens.add_argument("--seed", type=int, default=0)
    ens.add_argument("--workers", type=int, default=1)
    ens.add_argument("--out", default=None)
    ens.add_argument("--check", action="store_true",
                     help="apply the [check] gates from the config")
    ens.set_defaults(func=_cmd_ensemble)

    lg = sub.add_parser("lg", help="three-time correlation runs")
    lg.add_argument("--config", required=True)
    lg.add_argument("--trajectories", type=int, required=True)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--out", default=None)
    lg.add_argument("--check", action="store_true",
                    help="apply the [check] gates from the config")
    lg.set_defaults(func=_cmd_lg)

    arrow = sub.add_parser("arrow", help="marker-ring equilibration runs")
    arrow.add_argument("--sites", type=int, default=10000)
    arrow.add_argument("--marker-fraction", type=float, default=0.1)
    arrow.add_argument("--flip-rate", type=float, default=0.01)
    arrow.add_argument("--horizon", type=int, default=500)
    arrow.add_argument("--trials", type=int, default=100)
    arrow.add_argument("--seed", type=int, default=0)
    arrow.add_argument("--series-stride", type=int, default=0)
    arrow.add_argument("--out", default=None)
    arrow.add_argument("--check", action="store_true",
                       help="require anti-thermalization without noise and "
                            "equilibration with it")
    arrow.set_defaults(func=_cmd_arrow)

    conv = sub.add_parser("convert", help="SI amplification table")
    conv.add_argument("--tau", type=float, required=True,
                      help="single-coordinate mean waiting time in seconds")
    conv.add_argument("--n-eff", type=float, required=True,
                      help="number of effectively coupled coordinates")
    conv.set_defaults(func=_cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except GrwsimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
