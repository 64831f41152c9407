#!/usr/bin/env python3
"""Median branch-survival time against the number of coupled coordinates.

The collective hit rate grows linearly with n_eff, so the time for one
pointer branch to win should fall like 1/n_eff.  Prints the measured
medians and the fitted log-log slope (expected: -1).
"""

import argparse

from grwsim import ValidationError, chain_defaults, fit_scaling, survival_scaling_points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--n-eff",
        default="1,4,16,64",
        help="comma-separated coordinate counts for the ladder",
    )
    ap.add_argument("--trajectories", type=int, default=200, help="per rung")
    ap.add_argument("--seed", type=int, default=19)
    args = ap.parse_args(argv)

    ladder = []
    for raw in args.n_eff.split(","):
        try:
            ladder.append(float(raw))
        except ValueError:
            ap.exit(1, f"{ap.prog}: error: every --n-eff entry must be a number, "
                       f"got {raw!r}\n")
    if len(set(ladder)) < 3:
        # the slope fit needs three distinct rungs; fail before running any
        ap.exit(1, f"{ap.prog}: error: --n-eff needs at least 3 distinct "
                   f"values for the slope fit, got {args.n_eff!r}\n")
    try:
        # the sweep builds, and so checks, every rung before the first runs
        points = survival_scaling_points(
            chain_defaults(), ladder, args.trajectories, args.seed
        )
    except ValidationError as exc:
        ap.exit(1, f"{ap.prog}: error: {exc}\n")
    print(f"{'n_eff':>8}  {'median_survival':>15}")
    for n_eff, median in points:
        print(f"{n_eff:8.1f}  {median:15.5f}")
    fit = fit_scaling(points)
    print(
        f"\nlog-log slope {fit.slope:.4f} +/- {fit.stderr:.4f}"
        f"  (95% CI {fit.ci_low:.4f} .. {fit.ci_high:.4f})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
