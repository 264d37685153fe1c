#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kanbench checkout. With ``--trace 0`` it sets the
workload up several times in fresh processes, then repeats the timed job in
whole rounds until S seconds of it have run, checking every round's outputs
outside the timed interval. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end
``metrics``. With ``--trace 1`` it sets up once in process, runs one
untraced and one traced round, and prints the per-layer metrics instead.
Outputs and spans go to ``perfbench/out/``.
"""

import boot

boot.boot()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = boot.ROOT / "perfbench"
OUT = HERE / "out"
SETUP_REPS = 5  # set-up time is the median of this many fresh set-ups
STARTUP_REPS = 3


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if it cannot say."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        lib = ctypes.CDLL(str(libs[0]))  # already loaded by numpy
    except (OSError, IndexError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Tally:
    """Operations and checks of every round, and the results digests."""

    def __init__(self):
        self.ops = []
        self.checks = []
        self.digest = None

    def add(self, ops, found, digest):
        if self.digest is None:
            self.digest = digest
        found = found + [("digest-stable", digest == self.digest, f"{digest} != {self.digest}")]
        self.ops += ops
        self.checks += found
        for name, ok, detail in ops + found:
            if not ok:
                print(f"FAILED {name}: {detail}", file=sys.stderr)

    def summary(self, metrics) -> dict:
        failed = sum(not ok for _, ok, _ in self.ops + self.checks)
        return {
            "correct": all(ok for _, ok, _ in self.checks),
            "attempted": len(self.ops) + len(self.checks),
            "failed": failed,
            "metrics": metrics,
        }


def run_round(wl, state, workdir, name, run_cli, tally, tracer=None):
    """One timed job, then its checks; returns (wall, cpu) seconds of the job."""
    if tracer:
        tracer.install()
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        raw = wl.job(state, workdir, name, run_cli)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    tally.add(*wl.evaluate(state, raw))
    return wall, cpu


def timed_setups(wl, seed, base):
    """Seconds of each of SETUP_REPS fresh set-ups, and the last one's directory."""
    times = []
    for i in range(SETUP_REPS):
        workdir = base / f"setup{i}"
        workdir.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", wl.name,
             "--seed", str(seed), "--dir", str(workdir)],
            capture_output=True, text=True,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return times, workdir


def measured(wl, seed, seconds, base, tally) -> dict:
    setups, workdir = timed_setups(wl, seed, base)
    state = wl.load(str(workdir), seed)
    walls, cpus = [], []
    while sum(walls) < seconds:
        wall, cpu = run_round(wl, state, str(workdir), f"round{len(walls) + 1}",
                              workloads.cli_subprocess, tally)
        walls.append(wall)
        cpus.append(cpu)
    print("rounds " + json.dumps({"setup_s": setups, "run_s": walls, "cpu_s": cpus}))
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def cli_startup_s() -> float:
    """Median time for a fresh process to import the CLI."""
    times = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kanbench.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced(wl, seed, base, tally) -> dict:
    workdir = base / "setup0"
    workdir.mkdir()
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup(str(workdir), seed, workloads.InProcessCli(tracer))
    finally:
        tracer.uninstall()
    state = wl.load(str(workdir), seed)
    plain, _ = run_round(wl, state, str(workdir), "round1", workloads.InProcessCli(), tally)
    wall, _ = run_round(wl, state, str(workdir), "round2", workloads.InProcessCli(tracer), tally,
                        tracer)
    tracer.write(base / "spans.tsv.gz")
    extra = {
        "cli.startup_s": cli_startup_s(),
        "trace.untraced_run_s": plain,
        "trace.traced_run_s": wall,
        "trace.overhead_s": wall - plain,
    }
    return tracer.metrics(wl.spans, extra)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    wl = workloads.WORKLOADS[args.workload]
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    print("environment " + json.dumps(environment()))

    tally = Tally()
    if args.trace:
        metrics = traced(wl, args.seed, base, tally)
    else:
        metrics = measured(wl, args.seed, args.seconds, base, tally)
    print(f"results_sha256 {args.workload} {tally.digest}")
    print(json.dumps(tally.summary(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
