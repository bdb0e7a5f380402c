"""The benchmark's workloads: each is a fixed cycle of seeded jobs.

A job is one call into specpoly's public API (``run_suite``,
``hunt_counterexamples`` or a direct library call) plus an untimed check
of its output.  A workload repeats its cycle; every cycle walks the same
cells (suite or call, degree, trial count) in the same order, and only
the per-job seeds change.  Stratifying by degree this way keeps the mix
of work identical between runs and seeds, so throughput differences come
from the library, not from which degrees a seed happened to draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    kind: str          # "suite", "hunt", "witness" or "oracle"
    name: str          # suite or problem name; the call for direct cells
    degree: int
    trials: int
    mode: str = "rational"
    params: tuple = ()


@dataclass(frozen=True)
class Workload:
    cells: tuple
    cycle_s: float     # nominal cycle time; sets how many cycles a trace covers


def _suites(name, degrees, trials, mode="rational", kind="suite", params=()):
    return [Cell(kind, name, d, trials, mode, params) for d in degrees]


# Why each workload exists is in README.md.  Cell 0 of every workload is a
# light suite or hunt call: it is the untimed warm-up job and the job whose
# report bytes are checked again.
WORKLOADS = {
    "pencil-sweep": Workload(tuple(
        _suites("allincr", range(2, 9), 1, "float")
        + _suites("main1", range(2, 11), 3, "float")
        + _suites("main2", range(2, 9), 20, "float")), 1.2),
    "preserver-hunt": Workload(tuple(
        _suites("pb1", range(2, 9), 20, kind="hunt",
                params=(("family", "mixed"),))
        + _suites("pb2", [2], 100, kind="hunt")
        + _suites("pb2", range(3, 7), 10, kind="hunt")
        + _suites("pb3", range(3, 7), 10, kind="hunt")), 1.6),
    "operator-images": Workload(tuple(
        cell for name in ("iso", "deriv", "appell-min", "extensive",
                          "deform", "scaled", "schur", "lag-ms")
        for cell in _suites(name, range(2, 9), 5)), 0.5),
    "exact-order": Workload(tuple(
        _suites("chain", range(2, 11), 20)
        + [Cell("witness", "decompose+witness", 8, 1)] * 30
        + [Cell("oracle", "check-vs-hinge", 10, 100)] * 5), 0.3),
}


def job_seed(seed, cycle: int, index: int) -> int:
    return random.Random(f"{seed}:{cycle}:{index}").getrandbits(32)


WARMUP_SEED = job_seed("warmup", 0, 0)


def call(sp, cell: Cell, seed: int):
    """The timed part of a job: the library call(s) and nothing else."""
    if cell.kind in ("suite", "hunt"):
        cfg = sp.ExperimentConfig(suite=cell.name, trials=cell.trials,
                                  seed=seed, degree_min=cell.degree,
                                  degree_max=cell.degree, mode=cell.mode,
                                  params=dict(cell.params))
        if cell.kind == "suite":
            return sp.run_suite(cfg)
        return sp.hunt_counterexamples(cell.name, cfg)
    rng = random.Random(seed)
    if cell.kind == "witness":
        p, q = sp.random_comparable_pair(rng, cell.degree, rng.randint(1, 4))
        return p, q, sp.decompose_majorization(p, q), sp.build_witness(
            q.roots, p.roots)
    if cell.kind == "oracle":
        out = []
        for _ in range(cell.trials):
            # the criterion-01 shape: half the pairs have equal sums
            n = rng.randint(1, cell.degree)
            x = [rng.randint(-20, 20) for _ in range(n)]
            if rng.random() < 0.5:
                y = [rng.randint(-20, 20) for _ in range(n - 1)]
                y.append(sum(x) - sum(y))
            else:
                y = [rng.randint(-20, 20) for _ in range(n)]
            out.append((x, y, sp.check_majorization(x, y),
                        sp.hinge_oracle(x, y)))
        return out
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def trials(cell: Cell) -> int:
    """Trials a job completes: suite trials, oracle pairs, or one call."""
    return 1 if cell.kind == "witness" else cell.trials


def check(cell: Cell, output) -> str | None:
    """The untimed correctness check of a job; a problem text or None."""
    if cell.kind in ("suite", "hunt"):
        if output.passed:
            return None
        first = output.failures[0]
        shown = dict(first["details"])
        if "gammas" in first["inputs"]:
            shown["gammas"] = first["inputs"]["gammas"]
        return (f"{len(output.failures)} failure records; first at trial "
                f"{first['trial']}: {json.dumps(shown, sort_keys=True)[:400]}")
    if cell.kind == "witness":
        p, q, chain, witness = output
        chain.verify()                       # raises on any mismatch
        witness.validate(q.roots, p.roots)   # exact, raises on failure
        if chain.source.roots != p.roots or chain.target.roots != q.roots:
            return "chain endpoints differ from the pair"
        return None
    for x, y, cert, oracle in output:
        if cert.comparable != oracle.all_satisfied:
            return f"check_majorization and hinge_oracle disagree on {x} vs {y}"
    return None


def report_bytes(output) -> bytes | None:
    """Canonical report bytes of a suite or hunt job, else None."""
    summary = getattr(output, "summary_json", None)
    if summary is None:
        return None
    return json.dumps(summary(), sort_keys=True).encode()


# The absolute root tolerance the harness suites pass to the root finder.
PENCIL_TOL = 1e-11


def pencil_oracle(sp, seed, samples: int) -> tuple[list, float]:
    """Compare seeded pencil root tuples with mpmath.polyroots.

    The polynomials are drawn like the ``allincr`` suite draws them
    (degrees 2-10, roots in [-5, 5] at least 1/4 apart) and lambda
    uniformly from the default grid's span.  The reference solves, at 50
    digits, the double-precision pencil coefficients that ``pencil_at``
    hands to the root finder: the finder promises to be within ``tol`` of
    the roots of its input.  (Against the exact pencil of the float roots
    the error also carries the rounding of those coefficients, which
    reaches 1.3e-11 on degree-9 pencils at lambda near 10.)  Pencil roots
    are simple, so the reference converges.  Returns the problems found
    and the worst error as a share of the tolerance.
    """
    import mpmath

    rng = random.Random(f"{seed}:pencil-oracle")
    problems = []
    worst = 0.0
    for _ in range(samples):
        p = sp.random_hyperbolic(rng, rng.randint(2, 10), bound=5,
                                 mode="float", min_gap=0.25)
        span = 1.0 + 2.0 * float(p.root_radius())
        lam = rng.uniform(-span, span)
        got = sp.pencil_at(p, lam, PENCIL_TOL).roots
        coeffs = sp.pencil.pencil_coeffs(p.to_float(), lam)
        with mpmath.workdps(50):
            ref = sorted(mpmath.re(z) for z in mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=200,
                extraprec=200))
            err = float(max(abs(g - r) for g, r in zip(got, ref)))
        worst = max(worst, err / PENCIL_TOL)
        if len(got) != len(ref) or err > PENCIL_TOL:
            problems.append(f"pencil of {p.roots} at {lam!r}: error {err:.3g}"
                            f" exceeds tol {PENCIL_TOL}")
    return problems, worst
