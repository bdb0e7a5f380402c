"""Majorization (the spectral order) on real root tuples.

The core check is the partial-sum criterion: X is majorized by Y exactly
when the sums agree and every top-k partial sum of X is bounded by the
corresponding sum of Y.  A certificate records the full partial-sum
ledger.  The independent hinge-probe oracle and the doubly stochastic
witness construction give the two classical equivalent characterizations,
kept separate so they can check each other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (DomainViolation, FloatModeUnsupported, LengthMismatch,
                     NotMajorized)
from .poly import HyperbolicPoly
from .scalars import RATIONAL, Scalar, infer_mode, require_same_mode


class Verdict(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"
    SUM_MISMATCH = "NotComparable_SumMismatch"


COMPARABLE = (Verdict.LESS, Verdict.EQUAL)


@dataclass(frozen=True)
class MajorizationCertificate:
    verdict: Verdict
    sum_residual: Scalar          # sum(X) - sum(Y)
    slacks: tuple                 # top-k sum of Y minus top-k sum of X, k=1..n-1
    tol: Scalar

    @property
    def comparable(self) -> bool:
        return self.verdict in COMPARABLE

    @property
    def min_slack(self) -> Scalar:
        return min(self.slacks) if self.slacks else 0


def _tuple_of(x) -> tuple:
    if isinstance(x, HyperbolicPoly):
        return x.roots
    return tuple(x)


def default_tol(*tuples) -> float:
    """Scale-aware float tolerance: 1e-9 * (1 + largest entry magnitude)."""
    return scaled_tol(1e-9, *tuples)


def scaled_tol(rel: float, *tuples) -> float:
    biggest = 0.0
    for t in tuples:
        for v in t:
            a = abs(float(v))
            if a > biggest:
                biggest = a
    return rel * (1.0 + biggest)


def _prepare(x, y, tol):
    xs = _tuple_of(x)
    ys = _tuple_of(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"tuple lengths differ: {len(xs)} vs {len(ys)}")
    mode = require_same_mode(infer_mode(xs), infer_mode(ys))
    if mode == RATIONAL:
        tol = Fraction(0)
    elif tol is None:
        tol = default_tol(xs, ys)
    return tuple(sorted(xs)), tuple(sorted(ys)), mode, tol


def check_majorization(x, y, tol: Optional[Scalar] = None,
                       ) -> MajorizationCertificate:
    """Decide whether X is majorized by Y, with the partial-sum ledger.

    Descending-order partial sums; in rational mode the tolerance is
    forced to zero.  Slacks in [-tol, 0) are absorbed into a Less verdict
    (operator images computed through root finding carry that much noise).
    """
    xs, ys, mode, tol = _prepare(x, y, tol)
    n = len(xs)
    residual = sum(xs) - sum(ys)

    slacks = []
    tx = 0 * residual
    ty = tx
    for k in range(1, n):
        tx = tx + xs[n - k]
        ty = ty + ys[n - k]
        slacks.append(ty - tx)
    slacks = tuple(slacks)

    if abs(residual) > tol:
        verdict = Verdict.SUM_MISMATCH
    elif any(s < -tol for s in slacks):
        verdict = Verdict.INCOMPARABLE
    elif all(abs(xs[i] - ys[i]) <= tol for i in range(n)):
        verdict = Verdict.EQUAL
    else:
        verdict = Verdict.LESS
    return MajorizationCertificate(verdict, residual, slacks, tol)


# --- hinge-probe oracle -----------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    description: str
    value_on_x: Scalar
    value_on_y: Scalar
    satisfied: bool


@dataclass(frozen=True)
class ConvexProbeReport:
    probes: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(p.satisfied for p in self.probes)


def hinge_oracle(x, y, tol: Optional[Scalar] = None) -> ConvexProbeReport:
    """Independent majorization check via convex probes.

    Tests sum(max(x_i - t, 0)) <= sum(max(y_i - t, 0)) at every kink
    t in X union Y, plus the sum-equality probe.  For equal sums this
    family of convex functions is decisive, because the slack function of
    t is piecewise linear with kinks only at those points.
    """
    xs, ys, mode, tol = _prepare(x, y, tol)
    results = []

    sx, sy = sum(xs), sum(ys)
    results.append(ProbeResult("sum", sx, sy, abs(sx - sy) <= tol))

    zero = sx * 0
    for t in sorted(set(xs) | set(ys)):
        vx = sum(max(v - t, zero) for v in xs)
        vy = sum(max(v - t, zero) for v in ys)
        results.append(ProbeResult(f"hinge(t={t})", vx, vy, vx <= vy + tol))
    return ConvexProbeReport(tuple(results))


# --- optimal matching distance ----------------------------------------------

def matching_distance(x, y) -> Scalar:
    """min over pairings of the max root displacement.

    For real tuples the sorted pairing is optimal, so this is just the sup
    distance between the sorted tuples.
    """
    xs = tuple(sorted(_tuple_of(x)))
    ys = tuple(sorted(_tuple_of(y)))
    if len(xs) != len(ys):
        raise LengthMismatch(f"tuple lengths differ: {len(xs)} vs {len(ys)}")
    return max(abs(a - b) for a, b in zip(xs, ys))


# --- doubly stochastic witness ----------------------------------------------

@dataclass(frozen=True)
class DoublyStochasticWitness:
    matrix: tuple  # rows of Fraction entries

    def validate(self, x, y) -> None:
        """Exact soundness check: doubly stochastic and maps sorted Y to sorted X."""
        a = self.matrix
        n = len(a)
        one = Fraction(1)
        for row in a:
            if any(v < 0 or v > 1 for v in row):
                raise NotMajorized("witness entry outside [0, 1]")
            if sum(row) != one:
                raise NotMajorized("witness row sum differs from 1")
        for j in range(n):
            if sum(a[i][j] for i in range(n)) != one:
                raise NotMajorized("witness column sum differs from 1")
        xs = sorted(Fraction(v) for v in _tuple_of(x))
        ys = sorted(Fraction(v) for v in _tuple_of(y))
        for i in range(n):
            if sum(a[i][j] * ys[j] for j in range(n)) != xs[i]:
                raise NotMajorized("witness does not map Y to X")


class _TransformAccumulator:
    """Running product of T-transform matrices, applied to a sorted vector."""

    def __init__(self, start: Sequence[Fraction]):
        n = len(start)
        self.vec = list(start)
        self.rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def transfer(self, k: int, l: int, t: Fraction) -> None:
        # moves vec[k] up by t and vec[l] down by t (0-based, vec[k] < vec[l])
        gap = self.vec[l] - self.vec[k]
        mu = 1 - Fraction(t, gap)
        rk, rl = self.rows[k], self.rows[l]
        for j in range(len(rk)):
            a, b = rk[j], rl[j]
            rk[j] = mu * a + (1 - mu) * b
            rl[j] = (1 - mu) * a + mu * b
        self.vec[k] += t
        self.vec[l] -= t


def first_transfer(x: Sequence, y: Sequence) -> tuple:
    """The next two-point transfer (i, j, t) carrying sorted X toward sorted Y.

    j is the leftmost position where x exceeds y, i the nearest position to
    its left that must still rise (everything between agrees), and t the
    largest amount that overshoots neither: x_i rises by t, x_j drops by t.
    """
    j = next(idx for idx in range(len(x)) if y[idx] < x[idx])
    i = max(idx for idx in range(j) if y[idx] > x[idx])
    return i, j, min(y[i] - x[i], x[j] - y[j])


def _direct_transfers(acc: _TransformAccumulator, target: list[Fraction]) -> None:
    # Robin Hood loop: repeatedly fix the leftmost coordinate that is still
    # too large, transferring from it... (transfers may be non-adjacent and
    # may merge coordinates; fine for matrices, unlike polynomial chains).
    guard = 0
    while acc.vec != target:
        guard += 1
        if guard > 4 * len(target) ** 2:
            raise NotMajorized("transfer loop failed to converge")
        acc.transfer(*first_transfer(acc.vec, target))


def build_witness(x, y) -> DoublyStochasticWitness:
    """A doubly stochastic matrix mapping sorted Y onto sorted X, exactly.

    Built as a product of T-transforms.  When both tuples are strict the
    factors come one-to-one from the simple nondegenerate contraction
    chain; tied tuples fall back to direct two-point transfers (a chain of
    nondegenerate contractions cannot terminate at a multiple root).
    Rational mode only.
    """
    xs = tuple(sorted(_tuple_of(x)))
    ys = tuple(sorted(_tuple_of(y)))
    if len(xs) != len(ys):
        raise LengthMismatch(f"tuple lengths differ: {len(xs)} vs {len(ys)}")
    mode = require_same_mode(infer_mode(xs), infer_mode(ys))
    if mode != RATIONAL:
        raise FloatModeUnsupported("witness construction requires exact mode")
    cert = check_majorization(xs, ys)
    if not cert.comparable:
        raise NotMajorized(f"verdict {cert.verdict.value}")

    xs = tuple(Fraction(v) for v in xs)
    ys = tuple(Fraction(v) for v in ys)
    acc = _TransformAccumulator(ys)
    if xs != ys:
        strict = (all(ys[i] < ys[i + 1] for i in range(len(ys) - 1))
                  and all(xs[i] < xs[i + 1] for i in range(len(xs) - 1)))
        if strict:
            from .contract import decompose_majorization
            from .poly import from_roots
            chain = decompose_majorization(from_roots(ys), from_roots(xs))
            for step in chain.steps:
                acc.transfer(step.k - 1, step.l - 1, Fraction(step.t))
        else:
            _direct_transfers(acc, list(xs))

    witness = DoublyStochasticWitness(tuple(tuple(r) for r in acc.rows))
    witness.validate(xs, ys)
    return witness


# --- Schur-convex functionals -----------------------------------------------

@dataclass(frozen=True)
class Probe:
    kind: str
    param: Optional[Scalar] = None

    def describe(self) -> str:
        return self.kind if self.param is None else f"{self.kind}({self.param})"


def hinge(t: Scalar) -> Probe:
    return Probe("hinge", t)


def power(k: Scalar) -> Probe:
    if not k >= 1:
        raise DomainViolation("power probe needs exponent >= 1")
    return Probe("power", k)


def xlogx() -> Probe:
    return Probe("xlogx")


def signed_power(r: Scalar) -> Probe:
    """The probe r(r-1) * sum x^r, convex on positives for every real r."""
    return Probe("signed_power", r)


def probe_valid(probe: Probe, *tuples) -> bool:
    """Whether the probe is convex and defined on all the given tuples."""
    if probe.kind == "hinge":
        return True
    if probe.kind == "power":
        k = probe.param
        if isinstance(k, int) and k % 2 == 0:
            return True
    needs_positive = all(all(v > 0 for v in _tuple_of(t)) for t in tuples)
    return needs_positive


def schur_eval(x, probe: Probe) -> Scalar:
    """sum f(x_i) for the selected convex probe f."""
    xs = _tuple_of(x)
    kind = probe.kind
    if kind == "hinge":
        t = probe.param
        zero = sum(xs) * 0
        return sum(max(v - t, zero) for v in xs)
    if kind == "power":
        k = probe.param
        if isinstance(k, int):
            return sum(v ** k for v in xs)
        if any(v <= 0 for v in xs):
            raise DomainViolation("fractional power needs positive entries")
        return sum(float(v) ** k for v in xs)
    if kind == "xlogx":
        if any(v <= 0 for v in xs):
            raise DomainViolation("x log x needs positive entries")
        return sum(float(v) * math.log(float(v)) for v in xs)
    if kind == "signed_power":
        r = probe.param
        if any(v <= 0 for v in xs):
            raise DomainViolation("signed power needs positive entries")
        return r * (r - 1) * sum(float(v) ** r for v in xs)
    raise DomainViolation(f"unknown probe kind {kind!r}")
