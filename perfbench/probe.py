"""Cold-start probe for set-up time.

Run as ``python3 perfbench/probe.py <workload> <seed> <size> <scratch>``: imports
grwsim, resolves the workload's config, finishes its first unit of work, and
prints ``time.monotonic()``.  The parent reads the clock before starting this
process, so set-up time covers interpreter start, imports, config and the
first call's cache fills.
"""
import sys
import time
from pathlib import Path


def main() -> None:
    name, seed, size, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    from workloads import WORKLOADS

    WORKLOADS[name](seed, size, scratch).first_unit()
    print(time.monotonic())


if __name__ == "__main__":
    main()
