"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 -I -S bench/worker.py WORKLOAD SEED SECONDS MODE CYCLES

Imports specpoly from the src directory beside bench, runs one untimed
warm-up job and prints ``ready``.  MODE ``setup`` stops there, ``measure``
runs whole cycles of jobs until SECONDS have passed, and ``trace`` runs
CYCLES cycles twice each, untraced and then traced.  The last stdout line
is a JSON object with the results.

Set-up is the CPU time of this process from its start until ``ready``.
Job times are CPU seconds rescaled to reference seconds: a fixed
pure-Python kernel (``probe``) runs after every job, and each job's CPU
time is multiplied by REFERENCE_S over the kernel's mean time around it.
On a shared machine whose speed drifts by tens of percent within a
minute, this keeps a run's figures comparable with runs made at other
times; on a machine at reference speed the two agree.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

_begin = time.process_time()
import specpoly as sp  # noqa: E402  (timed: this is the import cost)
IMPORT_CPU_S = time.process_time() - _begin

from tracer import Tracer  # noqa: E402
from workloads import (WARMUP_SEED, WORKLOADS, call, check,  # noqa: E402
                       job_seed, report_bytes, trials)

REFERENCE_S = 1e-3       # the probe's CPU time at reference machine speed
_HORNER = (1.0, -3.5, 2.25, 0.5, -1.0, 0.75, 1.0)


def probe() -> float:
    """CPU seconds of a fixed kernel of float Horner steps and Fraction sums.

    It uses no specpoly code, so a change to the library cannot move it;
    it measures only how fast the machine runs Python right now.  The
    garbage collector is off meanwhile, so a collection of the jobs'
    garbage is never charged to the probe.
    """
    gc.disable()
    try:
        begin = time.process_time()
        acc = 0.0
        for k in range(1500):
            x = (k % 200) * 0.01 - 1.0
            v = 0.0
            for a in _HORNER:
                v = v * x + a
            acc += v
        total = Fraction(0)
        for k in range(1, 100):
            total += Fraction(1, k % 17 + 1)
        return time.process_time() - begin
    finally:
        gc.enable()


class Clock:
    """Converts job CPU time into reference seconds using the probe."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def reference(self, cpu_s: float) -> float:
        after = probe()
        self.probes.append(after)
        scaled = cpu_s * REFERENCE_S / (0.5 * (self.last + after))
        self.last = after
        return scaled

    def factor(self) -> float:
        """Reference seconds per CPU second, over the whole run so far."""
        return REFERENCE_S / statistics.median(self.probes)


def run_cycle(workload, seed, cycle, clock, tracer=None) -> dict:
    """Run one cycle of jobs: a closed loop, one job after another."""
    done = 0
    busy = 0.0
    problems = []
    reports = []
    for index, cell in enumerate(workload.cells):
        job = job_seed(seed, cycle, index)
        label = f"{cell.name} degree {cell.degree} seed {job}"
        begin = time.process_time()
        try:
            output = call(sp, cell, job)
        except Exception as exc:     # a failed job is counted, not fatal
            output = exc
        busy += clock.reference(time.process_time() - begin)
        if isinstance(output, Exception):
            problems.append(f"{label}: {type(output).__name__}: {output}")
            reports.append(None)
            continue
        done += trials(cell)
        if tracer is not None:
            tracer.recording = False
        try:
            problem = check(cell, output)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.recording = True
        if problem:
            problems.append(f"{label}: {problem}")
        report = report_bytes(output)
        reports.append(None if report is None else report.decode())
    return {"trials": done, "busy_s": busy, "jobs": len(workload.cells),
            "problems": problems, "reports": reports}


def main(argv) -> int:
    name, seed, seconds, mode, trace_cycles = argv
    if not Path(sp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"specpoly imported from {sp.__file__}, not {ROOT}")
    workload = WORKLOADS[name]
    call(sp, workload.cells[0], WARMUP_SEED)
    # Set-up stays in plain CPU seconds: it is mostly exec, page faults and
    # unmarshalling, which do not follow the probe's speed.
    result = {"setup_s": time.process_time(), "import_s": IMPORT_CPU_S}
    print("ready", flush=True)
    if mode == "setup":
        print(json.dumps(result))
        return 0

    seed = int(seed)
    clock = Clock()
    cycles = []
    traced = []
    if mode == "measure":
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < float(seconds):
            cycles.append(run_cycle(workload, seed, len(cycles), clock))
    else:
        tracer = Tracer()
        for cycle in range(int(trace_cycles)):
            cycles.append(run_cycle(workload, seed, cycle, clock))
            tracer.install()
            try:
                traced.append(run_cycle(workload, seed, cycle, clock, tracer))
            finally:
                tracer.uninstall()
            if traced[-1]["reports"] != cycles[-1]["reports"]:
                traced[-1]["problems"].append(
                    f"cycle {cycle}: traced report bytes differ from untraced")
        # spans are timed by the wall clock; rescale them like the jobs
        result["layers"] = tracer.layer_metrics(clock.factor())
        result["absent"] = tracer.absent
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{name}-seed{seed}.csv.gz")

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["first_report"] = cycles[0]["reports"][0]
    for key, runs in (("cycles", cycles), ("traced", traced)):
        result[key] = [{k: c[k] for k in ("trials", "busy_s", "jobs",
                                          "problems")} for c in runs]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
