#!/usr/bin/env python3
"""Three-time correlation sum K across a ladder of localization rates.

Unitary precession gives K = 1.5 at readout spacing pi/(3 omega); hits at
increasing rate wash the coherence out and pull K back toward the
macrorealist bound K <= 1.
"""

import argparse
import math

from grwsim import GrwParams, LgConfig, ValidationError, run_leggett_garg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--rates",
        default="0,0.75,2,6",
        help="comma-separated hit rates (0 = unitary)",
    )
    ap.add_argument("--trajectories", type=int, default=5000, help="per correlation")
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)

    if not 0.0 < args.omega < math.inf:
        ap.exit(1, f"{ap.prog}: error: --omega must be finite and positive, "
                   f"got {args.omega}\n")
    spacing = math.pi / (3.0 * args.omega)
    # every rung is checked and built before the first one runs
    configs = []
    for raw in args.rates.split(","):
        try:
            rate = float(raw)
        except ValueError:
            rate = math.nan
        if not 0.0 <= rate < math.inf:
            ap.exit(1, f"{ap.prog}: error: every --rates entry must be a finite "
                       f"number >= 0, got {raw!r}\n")
        try:
            collapse = (
                None if rate == 0 else GrwParams(tau=1.0 / rate, width=0.3, n_eff=1.0)
            )
            cfg = LgConfig(
                omega=args.omega,
                t1=spacing,
                t2=2 * spacing,
                t3=3 * spacing,
                collapse=collapse,
            )
        except ValidationError as exc:
            ap.exit(1, f"{ap.prog}: error: rate {raw!r}: {exc}\n")
        configs.append((rate, cfg))
    print(f"{'rate':>6}  {'K':>8}  {'se':>7}   K <= 1 bound")
    for i, (rate, cfg) in enumerate(configs):
        res = run_leggett_garg(cfg, args.trajectories, args.seed + i)
        flag = "violated" if res.k > 1.0 + 2.0 * res.se_k else "respected"
        print(f"{rate:6.2f}  {res.k:8.4f}  {res.se_k:7.4f}   {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
