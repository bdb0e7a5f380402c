"""Dynamics of the pencil P - lam * P': root and critical trajectories.

Sampling a pencil at lam yields the sorted roots x_i(lam), the critical
points w_j(lam), and the drift-corrected partial sums
f_m(lam) = sum_{i<=m} (x_i(lam) - lam).  For 1 <= m <= n-1 these are
nondecreasing left of 0 and nonincreasing right of 0, while f_n is
constant; the scanner samples a grid and reports the worst violation.

``pencil_at`` samples one lam from brackets cut by the roots of P.  The
roots of P - lam P' solve P/P' = lam, and P/P' increases from -inf to
+inf between consecutive critical points of a strictly hyperbolic P,
through 0 at the root of P between them.  So for lam > 0 the i-th root
of the pencil lies between r_i and r_{i+1}, and the top one above r_n by
less than n lam (every root moves up, and their sum by exactly n lam);
for lam < 0 the picture is mirrored.  ``pencil_brackets`` gives those
n+1 ends, and ``pencil_at`` passes them to ``real_roots_near`` as seeds,
which starts from their midpoints, one inside each bracket, as
``lpops.shift_pencil`` does.  The brackets only place the starts: the
root finder proves each root within tol/2 of a root of the coefficients
as given, whatever the starts (its fallbacks answer where they fail, at
lam = 0, say, or at a multiple root of P, where two ends coincide).  The
pencil's coefficients are built in P's mode: a rational P gives exact
ones, which the root finder reads exactly.

``pencil_path`` samples many lams by continuation from lam = 0, where
the pencil is P itself and its roots are known.  Each root moves with
dx/dlam = P'/(P' - lam P''), which is 1 at lam = 0.  The path walks out
from 0 on each side in sorted order: the first sample on a side is
seeded by the roots of P moved by lam, and each later one by the recent
samples' roots extrapolated to its lam.  What depends on P alone is done
once per path: its coefficients are read and tol is checked.  Each sample
then builds its coefficients by the one pencil formula that
``pencil_coeffs`` uses, checks their doubles, and hands them with its n
sorted seeds to the seeded ladder of ``real_roots_near`` (``roots._near``),
so it keeps the same contract as ``pencil_at``.

The critical points of either kind of sample are the roots of
P' - lam P'', which by Rolle's theorem the sample's own roots bracket;
those roots seed ``real_roots_near`` for them.  They are computed only
when ``PencilSample.criticals`` is first read; nothing is cached on P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._qpoly import QPoly
from .errors import DegreeMismatch
from .majorize import MajorizationCertificate, check_majorization
from .poly import HyperbolicPoly, coeff_derivative
from .roots import _checked_rev, _doubles, _near, real_roots_near
from .scalars import FLOAT, RATIONAL, Scalar, check_tol, coerce


@dataclass(frozen=True)
class PencilSample:
    lam: float
    roots: tuple
    partial_sums: tuple  # f_1 .. f_n
    # what the critical points are computed from on first read: the
    # pencil's coefficients (low degree first) and the root tolerance
    coeffs: tuple = field(repr=False, compare=False)
    tol: float | None = field(repr=False, compare=False)

    @cached_property
    def criticals(self) -> tuple:
        """The roots of P' - lam P'', seeded by the sample's roots, which
        bracket them (Rolle)."""
        if len(self.coeffs) <= 2:
            return ()
        return real_roots_near(coeff_derivative(self.coeffs), self.roots,
                               self.tol)

    def interlaces(self) -> bool:
        x, w = self.roots, self.criticals
        return all(x[j] < w[j] < x[j + 1] for j in range(len(w)))


def pencil_coeffs(p: HyperbolicPoly, lam: Scalar) -> tuple:
    """P - lam P' by coefficients, low degree first, in P's scalar mode."""
    return _pencil_row(p.coefficients(), coerce(lam, p.mode))


def _pencil_row(c: tuple, lam: Scalar) -> tuple:
    # P - lam P' from the coefficients c of P, low degree first, in the
    # scalars of c and lam
    return (*[c[i] - lam * (i + 1) * c[i + 1] for i in range(len(c) - 1)],
            c[-1])


def pencil_brackets(roots, lam: float) -> list:
    """The n+1 bracket ends of P - lam P', one root in each, given the
    sorted roots of P: those roots, and one end 2 n |lam| beyond the outer
    root on the side the pencil's roots move to (the sign of lam)."""
    step = 2.0 * len(roots) * lam
    if lam > 0.0:
        return [*roots, roots[-1] + step]
    return [roots[0] + step, *roots]


def _sample(lam: float, roots: tuple, coeffs: tuple,
            tol: float | None) -> PencilSample:
    sums = []
    acc = 0.0
    for r in roots:
        acc += r - lam
        sums.append(acc)
    return PencilSample(lam, roots, tuple(sums), coeffs, tol)


def _extrapolated(lam: float, recent: list) -> list:
    # Each root at lam on a curve through its last samples (at most three;
    # each side starts from the one at lam = 0): from that one alone, the
    # tangent x + lam (every root moves at unit speed there); through two,
    # the line; through three, Thiele's rational interpolant
    # x0 + (lam - l0) / (r1 + (lam - l1) q / (l2 - l1)), a Moebius map of
    # lam.  Its finite limit follows a root that levels off toward a root
    # of P' as |lam| grows, where a parabola overshoots.
    if len(recent) == 1:
        return [x + lam for x in recent[0].roots]
    if len(recent) == 2:
        (l0, xs0), (l1, xs1) = ((s.lam, s.roots) for s in recent)
        ratio = (lam - l1) / (l1 - l0)
        return [x1 + (x1 - x0) * ratio for x0, x1 in zip(xs0, xs1)]
    a, b, c = recent
    out = []
    for x0, x1, x2 in zip(a.roots, b.roots, c.roots):
        if x1 == x0 or x2 == x0:
            out.append(x2)
            continue
        r1 = (b.lam - a.lam) / (x1 - x0)
        q = (c.lam - a.lam) / (x2 - x0) - r1
        den = r1 + (lam - b.lam) * q / (c.lam - b.lam)
        out.append(x0 + (lam - a.lam) / den if den else x2)
    return out


def pencil_at(p: HyperbolicPoly, lam: float,
              tol: float | None = None) -> PencilSample:
    """Sample the pencil at one lam, seeded by the brackets
    ``pencil_brackets`` cuts at the float roots of P.  The coefficients
    are in P's mode, so a rational P and lam are read exactly, and each
    root is within tol/2 of a root of them."""
    coeffs = pencil_coeffs(p, lam)
    lam = float(lam)
    roots = real_roots_near(
        coeffs, pencil_brackets(p.to_float().roots, lam), tol)
    return _sample(lam, roots, coeffs, tol)


def pencil_path(p: HyperbolicPoly, lams, tol: float | None = None) -> tuple:
    """The pencil at each lam, by continuation from the roots of P at 0.

    The lams may come in any order and repeat; the samples come back in
    that order, one per lam, and equal lams share one sample.  The
    distinct lams are sampled outward from 0 on each side (those above 0
    ascending, those below descending), each by the seeded ladder of
    ``real_roots_near`` on the path's own coefficients: the first on a
    side from the roots of P moved by lam, each later one from the last
    samples' roots extrapolated to its lam.  A lam of 0 is sampled from
    the roots of P themselves.  The coefficients are those
    ``pencil_coeffs`` gives at the float lam, in P's mode, and every root
    keeps the contract of ``pencil_at``; no root of P' is computed.  P's
    coefficients are read and tol is checked once, even when no lam is
    given; each sample still refuses a coefficient with no finite double,
    and a tol of None gets each sample's default.
    """
    check_tol(tol)
    lams = [coerce(lam, FLOAT) for lam in lams]
    exact = p.mode == RATIONAL
    c = p.coefficients()
    anchor = _sample(0.0, p.to_float().roots, (), tol)    # seeds only
    found = {}
    distinct = sorted(set(lams))
    for side in ([0.0] if 0.0 in lams else [],
                 [lam for lam in reversed(distinct) if lam < 0.0],
                 [lam for lam in distinct if lam > 0.0]):
        # every side starts from the sample at 0, once it is taken
        recent = [found.get(0.0, anchor)]
        for lam in side:
            row = _pencil_row(c, Fraction(lam) if exact else lam)
            given = QPoly.of(row) if exact else row
            rev, n, checked = _checked_rev(
                _doubles(given) if exact else row, tol)
            roots = _near(given, rev, n, sorted(_extrapolated(lam, recent)),
                          checked)
            found[lam] = _sample(lam, roots, row, tol)
            recent = recent[-2:] + [found[lam]]
    return tuple(found[lam] for lam in lams)


def default_grid(p: HyperbolicPoly, points: int = 201) -> tuple:
    """Uniform grid over [-L, L], L = 1 + twice the root radius; contains 0."""
    if points < 3 or points % 2 == 0:
        points += 1 - points % 2
        points = max(points, 3)
    radius = float(p.root_radius())
    span = 1.0 + 2.0 * radius
    half = points // 2
    return tuple(span * k / half for k in range(-half, half + 1))


@dataclass(frozen=True)
class MonotonicityReport:
    """Worst slope violation per truncated sum, plus the f_n drift."""

    worst_per_m: tuple  # index m-1: worst monotonicity violation of f_m
    fn_drift: float     # max |f_n(lam) - f_n(0)| over the grid
    samples: int

    @property
    def worst_violation(self) -> float:
        return max(self.worst_per_m) if self.worst_per_m else 0.0

    def passed(self, slack: float, fn_tol: float) -> bool:
        return self.worst_violation <= slack and self.fn_drift <= fn_tol


def scan_monotonicity(p: HyperbolicPoly, grid, tol: float | None = None,
                      ) -> MonotonicityReport:
    """Check the up-down monotonicity of every f_m over a sorted grid.

    The grid, sampled by ``pencil_path``, must be sorted and contain 0
    (the turning point).  Reports,
    for each m in 1..n-1, the largest increase of f_m across adjacent grid
    points on the wrong side of 0, and the drift of f_n from its value at
    lam = 0.
    """
    grid = tuple(float(g) for g in grid)
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("grid must be sorted")
    if not any(g == 0.0 for g in grid):
        raise ValueError("grid must contain 0")
    n = p.degree
    samples = pencil_path(p, grid, tol)
    base = next(s for s in samples if s.lam == 0.0)

    worst = [0.0] * (n - 1)
    for a, b in zip(samples, samples[1:]):
        for m in range(1, n):
            delta = b.partial_sums[m - 1] - a.partial_sums[m - 1]
            # nondecreasing left of 0, nonincreasing right of it; the grid
            # is sorted and holds 0, so no adjacent pair straddles 0
            bad = -delta if b.lam <= 0.0 else delta
            if bad > worst[m - 1]:
                worst[m - 1] = bad
    drift = max(abs(s.partial_sums[-1] - base.partial_sums[-1])
                for s in samples)
    return MonotonicityReport(tuple(worst), drift, len(samples))


def pencil_majorization_check(p: HyperbolicPoly, q: HyperbolicPoly,
                              lam: float, tol: float | None = None,
                              root_tol: float | None = None,
                              ) -> MajorizationCertificate:
    """Certificate comparing the pencils of Q and P at one lam.

    Both pencils are monic of the same degree, so comparing their root
    tuples is well-posed.  Callers are expected to have Q majorized by P
    already; the certificate then lands in Less/Equal for every real lam.
    """
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    sample_p = pencil_at(p, lam, root_tol)
    sample_q = pencil_at(q, lam, root_tol)
    return check_majorization(sample_q.roots, sample_p.roots, tol)
