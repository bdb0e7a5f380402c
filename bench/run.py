"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pencil-sweep --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``) it prints the end-to-end metrics: trials_per_s,
setup_s and peak_rss_mb.  Traced (``--trace 1``) it prints the per-layer
metrics instead.  Every job's output is checked; the last stdout line is
a JSON object {"correct", "attempted", "failed", "metrics"}, and the exit
code is 1 when any check failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import LAYER_UNITS  # noqa: E402
from workloads import (WORKLOADS, call, job_seed, pencil_oracle,  # noqa: E402
                       report_bytes)

SETUP_SPAWNS = 9         # set-up is timed this many times; the median counts
# A bare interpreter importing the standard modules specpoly uses.  Its CPU
# time, taken just before each worker starts, tracks how fast the machine
# starts Python at that moment; set-up is reported relative to it, scaled
# to REFERENCE_START_S, the time it takes at reference speed.
REFERENCE_START = ("import time, dataclasses, enum, fractions, json, math, "
                   "random, typing; print(time.process_time())")
REFERENCE_START_S = 0.05
ORACLE_SAMPLES = 40      # pencil root tuples checked against mpmath
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode: str, cycles: int = 0) -> tuple[float, dict]:
    """Start a worker; return the wall time until it is ready, and its result."""
    cmd = [sys.executable, "-I", "-S", str(BENCH / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), mode, str(cycles)]
    begin = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            wall_s = time.perf_counter() - begin
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or ready.strip() != "ready" or not rest.strip():
        raise WorkerFailed(f"worker {mode} exited with {proc.returncode}")
    return wall_s, json.loads(rest.strip().splitlines()[-1])


def reference_start_s() -> float:
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", REFERENCE_START],
                          capture_output=True, text=True, check=True,
                          timeout=WORKER_TIMEOUT_S)
    return float(proc.stdout)


def gates(args, first_report: str | None) -> tuple[int, list]:
    """Checks made in this process after the worker ends.

    The first job is run again here and must give the same report bytes;
    on pencil-sweep a seeded sample of pencil roots is checked against
    mpmath.  Returns the number of checks and the problems found.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import specpoly as sp

    workload = WORKLOADS[args.workload]
    again = report_bytes(call(sp, workload.cells[0], job_seed(args.seed, 0, 0)))
    problems = []
    if again is None or again.decode() != first_report:
        problems.append("the first job gave different report bytes when run "
                        "again")
    checks = 1
    if args.workload == "pencil-sweep":
        found, worst = pencil_oracle(sp, args.seed, ORACLE_SAMPLES)
        print(f"{args.workload} pencil oracle: {ORACLE_SAMPLES} root tuples, "
              f"worst error {worst:.3f} x tol")
        problems += found
        checks += ORACLE_SAMPLES
    return checks, problems


def rate(cycles) -> float:
    return (sum(c["trials"] for c in cycles)
            / sum(c["busy_s"] for c in cycles))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specpoly" / "__init__.py").is_file():
        print(f"no specpoly sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cycles = max(1, round(args.seconds / (2.5 * workload.cycle_s)))
    walls = []
    setups = []
    imports = []
    try:
        for spawn_no in range(SETUP_SPAWNS):
            last = spawn_no == SETUP_SPAWNS - 1
            mode = "setup" if not last else "trace" if args.trace else "measure"
            scale = REFERENCE_START_S / reference_start_s()
            wall_s, result = spawn(args, mode, cycles)
            walls.append(wall_s)
            setups.append(result["setup_s"] * scale)
            imports.append(result["import_s"] * scale)
    except (WorkerFailed, subprocess.SubprocessError) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    checks, problems = gates(args, result["first_report"])
    runs = result["cycles"] + result["traced"]
    for run in runs:
        problems += run["problems"]
    attempted = sum(run["jobs"] for run in runs) + checks
    failed = len(problems)

    if args.trace:
        metrics = dict(result["layers"])
        metrics["process.import_s"] = statistics.median(imports)
        metrics["trace.overhead_ratio"] = (rate(result["traced"])
                                           / rate(result["cycles"]))
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
        for span in result["absent"]:
            print(f"{args.workload} span {span} absent: its metrics read 0")
    else:
        metrics = {"trials_per_s": rate(result["cycles"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} set-up wall time {statistics.median(walls):.4g} s "
          "(unscaled, for reference)")
    print(f"{args.workload} fail_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs and checks)")
    for problem in problems[:20]:
        print(f"{args.workload} FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
