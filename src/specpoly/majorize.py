"""Majorization (the spectral order) on real root tuples.

The core check is the partial-sum criterion: X is majorized by Y exactly
when the sums agree and every top-k partial sum of X is bounded by the
corresponding sum of Y.  A certificate records the full partial-sum
ledger.  The independent hinge-probe oracle and the doubly stochastic
witness construction give the two classical equivalent characterizations,
kept separate so they can check each other: the witness is the product
of the T-transforms of the ``first_transfer`` stages, built without
``contract`` and its chains.

In rational mode each call puts its tuples over their least common
denominator L (``_qpoly.numerators``) and runs its loops on the integer
numerators: partial sums, hinge values and the witness's T-transform
product, whose rows each carry their own denominator.  The hinge values
come from one ascending sweep with running sums.  ``Fraction`` values are
built only for what is handed back, and a returned scalar is a
``Fraction`` exactly when the plain scalar loop would give one (all-int
tuples give int partial sums).  Float mode runs the same loops on the
doubles with L = 1, each hinge summed term by term as written, and
refuses a tuple with a non-finite entry or an overflowing sum
(``NonFinite``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._qpoly import numerators
from .errors import (DomainViolation, EmptyTuple, FloatModeUnsupported,
                     LengthMismatch, NonFinite, NotMajorized)
from .poly import HyperbolicPoly
from .scalars import (RATIONAL, Scalar, check_tol, infer_mode,
                      require_same_mode)


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


_ZERO = Fraction(0)


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
    """Both tuples, their sorted numerators over one denominator L (the
    values themselves and L = 1 in float mode), the mode, the tolerance
    and the sums of the numerators.

    A float tuple with a non-finite entry is refused: its sum is then
    non-finite, so one test per sum covers every entry (and refuses a sum
    that overflows, which would leave no partial sum to compare).
    """
    xs = _tuple_of(x)
    ys = _tuple_of(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"tuple lengths differ: {len(xs)} vs {len(ys)}")
    exact = require_same_mode(infer_mode(xs), infer_mode(ys)) == RATIONAL
    if exact:
        tol = _ZERO
    elif tol is None:
        tol = default_tol(xs, ys)
    else:
        check_tol(tol)
    (nx, ny), den = numerators(xs, ys, exact=exact)
    nx.sort()
    ny.sort()
    sx, sy = sum(nx), sum(ny)
    if not exact and not (math.isfinite(sx) and math.isfinite(sy)):
        raise NonFinite("a float tuple holds a non-finite entry, or its "
                        "sum overflows")
    return xs, ys, nx, ny, den, exact, tol, sx, sy


def _handed_back(v, den: int, fraction: bool) -> Scalar:
    # a Fraction where the plain scalar loop gives one, else int or float
    if fraction:
        return Fraction(v, den)
    return v if den == 1 else v // den


def check_majorization(x, y, tol: Optional[Scalar] = None,
                       ) -> MajorizationCertificate:
    """Decide whether X is majorized by Y, with the partial-sum ledger.

    Descending-order partial sums; in rational mode the tolerance is
    forced to zero.  Slacks in [-tol, 0) are absorbed into a Less verdict
    (operator images computed through root finding carry that much noise).
    """
    return _certificate(*_prepare(x, y, tol))


def _certificate(xs, ys, nx, ny, den, exact, tol, sx, sy,
                 ) -> MajorizationCertificate:
    lim = 0 if exact else tol
    n = len(nx)
    residual = sx - sy

    slacks = []
    tx = 0 * residual
    ty = tx
    for k in range(1, n):
        tx = tx + nx[n - k]
        ty = ty + ny[n - k]
        slacks.append(ty - tx)

    if abs(residual) > lim:
        verdict = Verdict.SUM_MISMATCH
    elif any(s < -lim for s in slacks):
        verdict = Verdict.INCOMPARABLE
    elif all(abs(nx[i] - ny[i]) <= lim for i in range(n)):
        verdict = Verdict.EQUAL
    else:
        verdict = Verdict.LESS
    # in rational mode every entry is an int or a Fraction
    if exact and not all(isinstance(v, int) for v in xs + ys):
        residual = Fraction(residual, den)
        slacks = [Fraction(s, den) for s in slacks]
    return MajorizationCertificate(verdict, residual, tuple(slacks), tol)


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


def _hinge_kinds(xs, ys, exact: bool):
    """Which hinge values the scalar loop gives as Fractions.

    A sum is a Fraction when a Fraction enters it: the term of x >= t is
    x - t, a Fraction when x or t is one, and the term of x < t is the
    zero, which has the type of sum(X).  The kink t is the first entry
    of X, then of Y, with its value.  Returns the kinds of sum(X) and
    sum(Y) and a function of the kink numerator giving the kinds of its
    two values.  Float mode has no Fractions to give.
    """
    # in rational mode every entry is an int or a Fraction
    fx = [exact and not isinstance(v, int) for v in xs]
    fy = [exact and not isinstance(v, int) for v in ys]
    fzero = any(fx)
    if not (fzero or any(fy)) or (all(fx) and all(fy)):
        return fzero, fzero, lambda t: (fzero, fzero)
    (nx, ny), _ = numerators(xs, ys)
    px, py = list(zip(nx, fx)), list(zip(ny, fy))
    first = {}
    for v, f in px + py:
        first.setdefault(v, f)

    def kinds(t):
        ft = first[t]
        return tuple(any((f or ft) if v >= t else fzero for v, f in pairs)
                     for pairs in (px, py))
    return fzero, any(fy), kinds


def hinge_oracle(x, y, tol: Optional[Scalar] = None) -> ConvexProbeReport:
    """Independent majorization check via convex probes.

    Tests sum(max(x_i - t, 0)) <= sum(max(y_i - t, 0)) at every kink
    t in X union Y, plus the sum-equality probe.  For equal sums this
    family of convex functions is decisive, because the slack function of
    t is piecewise linear with kinks only at those points.

    In rational mode all hinge values come from one ascending sweep over
    the sorted numerators (``_hinge_sweep``).
    """
    xs, ys, nx, ny, den, exact, tol, sx, sy = _prepare(x, y, tol)
    lim = 0 if exact else tol
    fsx, fsy, kinds = _hinge_kinds(xs, ys, exact)
    results = []

    results.append(ProbeResult("sum", _handed_back(sx, den, fsx),
                               _handed_back(sy, den, fsy),
                               abs(sx - sy) <= lim))

    kinks = sorted(set(nx) | set(ny))
    if exact:
        hx, hy = _hinge_sweep(nx, sx, kinks), _hinge_sweep(ny, sy, kinks)
    else:
        # Float mode sums each hinge term by term, as written: a running
        # sum rounds differently, and a float input keeps its arithmetic.
        # Each term is max(v - t, zero), spelled out without the call.
        zero = sx * 0
        hx = [sum([zero if zero > (d := v - t) else d for v in nx])
              for t in kinks]
        hy = [sum([zero if zero > (d := v - t) else d for v in ny])
              for t in kinks]
    for t, vx, vy in zip(kinks, hx, hy):
        fvx, fvy = kinds(t)
        results.append(ProbeResult(
            f"hinge(t={t if den == 1 else Fraction(t, den)})",
            _handed_back(vx, den, fvx), _handed_back(vy, den, fvy),
            vx <= vy + lim))
    return ConvexProbeReport(tuple(results))


def _hinge_sweep(nums: list, total: int, kinks: list) -> list:
    """sum(max(v - t, 0)) over sorted integers ``nums`` (summing to
    ``total``) at each of the ascending ``kinks``, in one sweep: with s
    the sum and c the count of the entries >= t, the value is s - c t."""
    values = []
    s, c, i = total, len(nums), 0
    for t in kinks:
        while c and nums[i] < t:
            s -= nums[i]
            c -= 1
            i += 1
        values.append(s - c * t)
    return values


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
    if not xs:
        raise EmptyTuple("matching distance needs at least one root")
    return max(abs(a - b) for a, b in zip(xs, ys))


# --- doubly stochastic witness ----------------------------------------------

@dataclass(frozen=True)
class DoublyStochasticWitness:
    matrix: tuple  # rows of Fraction entries

    def validate(self, x, y) -> None:
        """Exact soundness check: an n x n doubly stochastic matrix, with
        n = len(X) = len(Y), that maps sorted Y to sorted X.

        Each row is checked on integer numerators over its own
        denominator D_i: entries in [0, D_i], summing to D_i, and
        sum_j a_ij y_j = D_i x_i with X and Y over their own denominator.
        """
        xs = _tuple_of(x)
        ys = _tuple_of(y)
        if len(xs) != len(ys):
            raise LengthMismatch(
                f"tuple lengths differ: {len(xs)} vs {len(ys)}")
        n = len(xs)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise NotMajorized(f"witness is not a {n} x {n} matrix")
        rows, dens = [], []
        for row in self.matrix:
            (nums,), den = numerators(row)
            rows.append(nums)
            dens.append(den)
        (nx, ny), _ = numerators(xs, ys)
        nx.sort()
        ny.sort()
        _check_witness(rows, dens, nx, ny)


def _check_witness(rows: list, dens: list, nx: list, ny: list) -> None:
    # the witness check on integers: row i is rows[i] / dens[i], and sorted
    # X and Y are the numerators nx and ny over one denominator
    for nums, den in zip(rows, dens):
        if any(v < 0 or v > den for v in nums):
            raise NotMajorized("witness entry outside [0, 1]")
        if sum(nums) != den:
            raise NotMajorized("witness row sum differs from 1")
    common = math.lcm(*dens)
    scales = [common // d for d in dens]
    for j in range(len(nx)):
        if sum(row[j] * f for row, f in zip(rows, scales)) != common:
            raise NotMajorized("witness column sum differs from 1")
    for row, den, v in zip(rows, dens, nx):
        if sum(a * b for a, b in zip(row, ny)) != den * v:
            raise NotMajorized("witness does not map Y to X")


class _TransformProduct:
    """Running product of T-transforms, applied to a sorted integer vector.

    Row i of the product is rows[i] / dens[i] on integers, kept reduced
    by one gcd per row and transfer.
    """

    def __init__(self, start: list):
        n = len(start)
        self.vec = start
        self.rows = [[int(i == j) for j in range(n)] for i in range(n)]
        self.dens = [1] * n

    def transfer(self, k: int, l: int, t: int) -> None:
        # moves vec[k] up by t and vec[l] down by t (0-based, vec[k] < vec[l]);
        # with w = t / gap, row k becomes (1 - w) row k + w row l and
        # row l becomes w row k + (1 - w) row l
        vec, rows, dens = self.vec, self.rows, self.dens
        gap = vec[l] - vec[k]
        g = math.gcd(t, gap)
        w, m = t // g, gap // g
        dk, dl = dens[k], dens[l]
        den = math.lcm(dk, dl)
        a = [v * (den // dk) for v in rows[k]]
        b = [v * (den // dl) for v in rows[l]]
        rows[k] = [(m - w) * u + w * v for u, v in zip(a, b)]
        rows[l] = [w * u + (m - w) * v for u, v in zip(a, b)]
        for i in (k, l):
            g = math.gcd(m * den, *rows[i])
            rows[i] = [v // g for v in rows[i]]
            dens[i] = m * den // g
        vec[k] += t
        vec[l] -= t

    def matrix(self) -> tuple:
        return tuple(tuple(Fraction(v, den) for v in row)
                     for row, den in zip(self.rows, self.dens))


def first_transfer(x: Sequence, y: Sequence) -> tuple:
    """The next two-point transfer (i, j, t) carrying sorted X toward sorted Y.

    j is the leftmost position where x exceeds y, i the nearest position to
    its left that must still rise (everything between agrees), and t the
    largest amount that overshoots neither: x_i rises by t, x_j drops by t.
    The library calls it on numerators over one denominator.
    """
    j = next(idx for idx in range(len(x)) if y[idx] < x[idx])
    i = max(idx for idx in range(j) if y[idx] > x[idx])
    return i, j, min(y[i] - x[i], x[j] - y[j])


def _direct_transfers(acc: _TransformProduct, target: list) -> None:
    # Robin Hood loop: repeatedly fix the leftmost coordinate that is still
    # too large, transferring from it to the nearest too-small one on its
    # left; each transfer settles one of the two for good (transfers may be
    # non-adjacent and may merge coordinates; fine for matrices).
    guard = 0
    while acc.vec != target:
        guard += 1
        if guard > 4 * len(target) ** 2:
            raise NotMajorized("transfer loop failed to converge")
        acc.transfer(*first_transfer(acc.vec, target))


def build_witness(x, y) -> DoublyStochasticWitness:
    """A doubly stochastic matrix mapping sorted Y onto sorted X, exactly.

    The product of one T-transform per ``first_transfer`` stage, on
    integer rows; every stage settles a coordinate, so there are at most
    n - 1 factors.  Independent of the chains of ``contract``; the
    integer rows are validated (the check of ``validate``) before the
    ``Fraction`` matrix is built.  Rational mode only.
    """
    prepared = _prepare(x, y, None)
    _, _, nx, ny, _, exact, *_ = prepared
    if not exact:
        raise FloatModeUnsupported("witness construction requires exact mode")
    cert = _certificate(*prepared)
    if not cert.comparable:
        raise NotMajorized(f"verdict {cert.verdict.value}")

    acc = _TransformProduct(list(ny))
    _direct_transfers(acc, nx)
    _check_witness(acc.rows, acc.dens, nx, ny)
    return DoublyStochasticWitness(acc.matrix())


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
