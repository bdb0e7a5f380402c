"""Measure the benchmark's baseline and write bench/BASELINE.json.

    python3 bench/baseline.py

Runs run.py untraced once per seed (seeds 1..RUNS) on every workload of
BENCHMARK.json, for its run_seconds, and does that twice: the second set
starts after the first has finished on every workload.  For each set it
records the median and quartiles of every end-to-end metric, with the
spread (third minus first quartile, over the median) that the benchmark's
bounds must cover, and it records how far the second set's median moved
from the first's.  Then it runs each workload once traced on the default
seed, keeping its per-layer table, and once untraced on the held-out seed.
Takes about (2 x RUNS + 2) x (run_seconds + 5) seconds per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUNS = 10
SETS = 2
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919     # kept out of tuning; recheck gain claims on it


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=BENCH.parent)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fail_ratio(results) -> float:
    return (sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    sets = [{workload: [run(workload, seed, seconds, 0)
                        for seed in range(1, RUNS + 1)]
             for workload in names}
            for _ in range(SETS)]

    end_to_end = {}
    for workload in names:
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first, second = (
                summary([r["metrics"][name]["value"] for r in s[workload]])
                for s in sets)
            drift = second["median"] / first["median"] - 1
            rows[name] = {"unit": metric["unit"], "bound": metric["bound"],
                          "better": metric["better"], "first_set": first,
                          "second_set": second, "median_drift": drift}
            print(f"{workload} {name} median {first['median']:.6g} / "
                  f"{second['median']:.6g} spread {first['spread']:.4f} / "
                  f"{second['spread']:.4f} drift {drift:+.4f} "
                  f"(bound {metric['bound']})", flush=True)
        end_to_end[workload] = rows

    per_layer = {}
    held_out = {}
    for workload in names:
        traced = run(workload, DEFAULT_SEED, seconds, 1)
        per_layer[workload] = {name: m["value"]
                               for name, m in traced["metrics"].items()}
        result = run(workload, HELD_OUT_SEED, seconds, 0)
        held_out[workload] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "fail_ratio": fail_ratio([result]),
            "trials_per_s": result["metrics"]["trials_per_s"]["value"]}

    baseline = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": platform.python_version()},
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED,
                  "end_to_end_runs": f"seeds 1..{RUNS}, in {SETS} sets"},
        "run_seconds": seconds,
        "end_to_end": end_to_end,
        "fail_ratio": {workload: fail_ratio([r for s in sets
                                             for r in s[workload]])
                       for workload in names},
        "held_out": held_out,
        "per_layer": per_layer,
        "profile_facts": {
            workload: {key: per_layer[workload][key]
                       for key in ("roots.busy_share",
                                   "harness.sampler.busy_share")}
            for workload in names},
    }
    (BENCH / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
