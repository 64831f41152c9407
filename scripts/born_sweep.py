#!/usr/bin/env python3
"""Sweep the initial branch weight and compare outcome tallies to |c1|^2.

Runs a modest ensemble of collapse trajectories per weight and prints the
decided-outcome frequency next to the weight it should reproduce, with a
chi-square goodness line per row.
"""

import argparse
import csv

from grwsim import ScenarioConfig, ValidationError, run_ensemble


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--weights",
        default="0.1,0.3,0.5,0.7,0.9",
        help="comma-separated |c1|^2 values to sweep",
    )
    ap.add_argument("--trajectories", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--csv", metavar="PATH", help="also write the table to PATH")
    args = ap.parse_args(argv)

    # every rung is checked and built before the first one runs
    configs = []
    for raw in args.weights.split(","):
        try:
            w = float(raw)
        except ValueError:
            ap.exit(1, f"{ap.prog}: error: every --weights entry must be a number, "
                       f"got {raw!r}\n")
        try:
            configs.append((w, ScenarioConfig(weight_1=w)))
        except ValidationError as exc:
            ap.exit(1, f"{ap.prog}: error: weight {raw!r}: {exc}\n")
    try:
        summaries = [run_ensemble(cfg, args.trajectories, args.seed + i)
                     for i, (_, cfg) in enumerate(configs)]
    except ValidationError as exc:
        ap.exit(1, f"{ap.prog}: error: {exc}\n")
    rows = []
    print(f"{'weight_1':>8}  {'freq_1':>8}  {'undecided':>9}  {'chi2':>7}  {'p':>6}")
    for (w, _), summary in zip(configs, summaries):
        tally = summary.tally
        decided = tally.count_1 + tally.count_2
        freq = tally.count_1 / decided if decided else float("nan")
        # chi-square is reported for 0 < w < 1 with >= 100 decided runs
        stat, p = (
            (float("nan"), float("nan"))
            if summary.chi_square is None
            else (summary.chi_square, summary.p_value)
        )
        print(
            f"{w:8.3f}  {freq:8.4f}  {tally.count_undecided:9d}"
            f"  {stat:7.3f}  {p:6.3f}"
        )
        rows.append((w, freq, tally.count_undecided, stat, p))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["weight_1", "freq_1", "undecided", "chi2", "p"])
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
