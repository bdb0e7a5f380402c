"""Tiny-size test of the benchmark's own wiring, kept out of Tier-1:

    python3 -m pytest -q bench/test_bench.py

It runs one cycle of every workload untraced and traced, so a renamed
library function, a derived metric that no longer sees its tag, or a
tracer that changes results fails here rather than silently emptying a
per-layer metric.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import specpoly  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import LAYER_UNITS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Metrics derived from call tags, the scalar mode of a call or a span's
# ancestors, each on a workload whose cycle must give it a nonzero value.
# They read 0 rather than fail when the library changes under them (a
# renamed cache attribute, a new result type), so they are checked here.
DERIVED_NONZERO = {
    "pencil-sweep": ("roots.deg_le4.calls", "roots.deg5_8.calls",
                     "roots.deg_ge9.calls", "roots.busy_share",
                     "poly.coefficients.hit_ratio",
                     "poly.expand_from_roots.float.calls",
                     "majorize.check_majorization.float.calls"),
    "preserver-hunt": ("roots.not_real_rooted.count", "roots.reject_ratio",
                       "poly.expand_from_roots.rational.calls",
                       "harness.sampler.accept_ratio",
                       "harness.sampler.busy_share"),
    "operator-images": ("poly.coefficients.hit_ratio",),
    "exact-order": ("contract.steps.count",
                    "majorize.check_majorization.exact.calls",
                    "harness.self_s"),
}


def test_every_span_fires_and_tracing_keeps_report_bytes():
    clock = worker.Clock()
    fired = set()
    for name, workload in WORKLOADS.items():
        plain = worker.run_cycle(workload, 3, 0, clock)
        tracer = Tracer()
        tracer.install()
        try:
            traced = worker.run_cycle(workload, 3, 0, clock, tracer)
        finally:
            tracer.uninstall()
        assert plain["problems"] == [], name
        assert traced["problems"] == [], name
        assert traced["reports"] == plain["reports"], name
        assert any(plain["reports"]), name
        metrics = tracer.layer_metrics()
        absent = tuple(tracer.absent)     # optional spans read 0 by design
        zero = [m for m in DERIVED_NONZERO[name]
                if not m.startswith(absent) and not metrics[m] > 0]
        assert not zero, f"{name}: derived metrics read 0: {zero}"
        fired |= tracer.fired()
    missing = {span for _, _, span in TARGETS} - fired
    assert not missing, f"spans that never fired: {sorted(missing)}"
    # uninstall puts every original back, including names bound by import
    assert specpoly.harness.real_roots is specpoly.roots.real_roots
    assert not hasattr(specpoly.roots.real_roots, "__wrapped__")
    assert not hasattr(specpoly.HyperbolicPoly.coefficients, "__wrapped__")


def test_layer_metrics_cover_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert ({m["name"]: m["unit"] for m in bench["end_to_end"]}
            == END_TO_END_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    tracer = Tracer()
    metrics = tracer.layer_metrics()
    process = {"process.import_s", "trace.overhead_ratio"}
    assert set(metrics) | process == set(LAYER_UNITS)


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact-order",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "exact-order", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
