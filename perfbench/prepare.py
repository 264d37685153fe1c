#!/usr/bin/env python3
"""Set up one workload in a fresh process and exit.

    python3 perfbench/prepare.py --workload NAME --seed N --dir DIR

run.py times this process from start to exit as the workload's set-up:
interpreter start, imports, and every file the timed job reads.
"""

import boot

boot.boot()

import argparse  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload].setup(args.dir, args.seed, workloads.cli_subprocess)


if __name__ == "__main__":
    main()
