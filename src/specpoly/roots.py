"""Real-root extraction for polynomials promised to be real-rooted.

Method: recursive interlacing bisection.  The roots of the derivative are
computed first; by Rolle's theorem they split the line into brackets that
each contain exactly one root of the original polynomial (a root of
multiplicity m sits at a critical point and is shared by m adjacent
brackets).  Each bracket is then bisected.  The scheme is provably
bracketed, exploits guaranteed real-rootedness, and needs no linear
algebra.

A bracket endpoint whose value is below the running roundoff bound of
Horner evaluation is accepted as a root of multiplicity >= 2 (a cluster);
a bracket with no sign change whose endpoint values are clearly nonzero
means the input was not real-rooted and raises ``NotRealRooted``.

A caller that already knows n-1 points separating the n roots (the pencil
P - lam P', whose roots the critical points of P separate for every lam)
skips the recursion with ``real_roots_separated``, which refines only
those n brackets.  It trusts them only when the values at the bracket
ends alternate strictly in sign, clear of roundoff, so that each bracket
provably holds one root; otherwise it returns None and the caller falls
back to ``real_roots``.

Root extraction is in double precision: it is the one-way door from
exact coefficients to float root tuples.

``is_real_rooted`` is the exact counterpart for callers that must decide
real-rootedness rather than assume it.  It counts sign variations of a
Sturm sequence built on ``Fraction`` coefficients, so its verdict carries
no rounding, multiple roots included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DegreeZero, NotRealRooted

_EPS = 2.0 ** -52


def _strip(coeffs: Sequence) -> list[float]:
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return c


def cauchy_bound(coeffs: Sequence[float]) -> float:
    """1 + max |a_k / a_n|: every root lies strictly inside [-B, B]."""
    an = coeffs[-1]
    return 1.0 + max(abs(c / an) for c in coeffs[:-1]) if len(coeffs) > 1 else 1.0


def _fujiwara_bound(coeffs: Sequence[float]) -> float:
    an = coeffs[-1]
    n = len(coeffs) - 1
    best = 0.0
    for k in range(1, n + 1):
        r = abs(coeffs[n - k] / an) ** (1.0 / k)
        if r > best:
            best = r
    return 2.0 * best


def root_bound(coeffs: Sequence[float]) -> float:
    """A strict bound on the absolute value of every root."""
    b = min(cauchy_bound(coeffs), _fujiwara_bound(coeffs) * (1.0 + 1e-9) + 1e-300)
    return b if b > 0.0 else 1.0


def _eval_with_mag(rev: Sequence[float], x: float) -> tuple[float, float]:
    # Horner on high-to-low coefficients, tracking sum |a_k||x|^k for the
    # roundoff bound.
    acc = 0.0
    mag = 0.0
    ax = abs(x)
    for c in rev:
        acc = acc * x + c
        mag = mag * ax + abs(c)
    return acc, mag


def _horner(rev: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in rev:
        acc = acc * x + c
    return acc


def _is_zero(value: float, mag: float, n: int) -> bool:
    return abs(value) <= 8.0 * n * _EPS * mag + 1e-300


def _bisect(rev: Sequence[float], lo: float, hi: float, lo_negative: bool,
            tol: float) -> float:
    for _ in range(240):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            return mid
        f = _horner(rev, mid)
        if f == 0.0:
            return mid
        if (f < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _monic_derivative(monic_rev: list[float], n: int) -> list[float]:
    # derivative of a monic degree-n poly, renormalized monic (same roots)
    return [monic_rev[k] * (n - k) / n for k in range(n)]


def _roots_monic(rev: list[float], n: int, tol: float) -> list[float]:
    if n == 1:
        return [-rev[1]]
    crit = _roots_monic(_monic_derivative(rev, n), n - 1, tol)
    return _roots_between(rev, n, crit, tol)


def _bracket_points(rev: list[float], n: int, crit) -> tuple:
    # [-B, crit..., B] clamped to the root bound B, with the value at each
    # point and whether it is zero within Horner roundoff
    bound = root_bound(list(reversed(rev)))
    pts = [-bound]
    for w in crit:
        pts.append(min(max(w, -bound), bound))
    pts.append(bound)
    pts.sort()

    vals = []
    zeros = []
    for p in pts:
        v, mag = _eval_with_mag(rev, p)
        vals.append(v)
        zeros.append(_is_zero(v, mag, n))
    return pts, vals, zeros


def _roots_between(rev: list[float], n: int, crit: list[float],
                   tol: float) -> list[float]:
    pts, vals, zeros = _bracket_points(rev, n, crit)
    roots = []
    for i in range(n):
        lo, hi = pts[i], pts[i + 1]
        if hi <= lo:
            # coincident critical points: the bracket's root is pinched here
            roots.append(lo)
        elif zeros[i] and zeros[i + 1]:
            roots.append(0.5 * (lo + hi))
        elif zeros[i]:
            roots.append(lo)
        elif zeros[i + 1]:
            roots.append(hi)
        elif (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            roots.append(_bisect(rev, lo, hi, vals[i] < 0.0, tol))
        else:
            # Same strict sign at both ends: for a real-rooted input the
            # bracket's root must sit at an endpoint (a multiple root at a
            # critical point, displaced by at most the refinement error).
            # Accept the endpoint whose value a root within tol of it
            # would explain; otherwise the input was not real-rooted.
            slope = abs(vals[i + 1] - vals[i]) / (hi - lo) if hi > lo else 0.0
            allow = 4.0 * slope * tol + 1e-300
            small, point = min((abs(vals[i]), lo), (abs(vals[i + 1]), hi))
            if small <= allow:
                roots.append(point)
            else:
                raise NotRealRooted(
                    f"no sign change in bracket [{lo!r}, {hi!r}] "
                    f"(values {vals[i]!r}, {vals[i + 1]!r}); "
                    "input is not real-rooted within tolerance")
    roots.sort()
    return roots


def default_tol(coeffs: Sequence[float]) -> float:
    return 1e-10 * (1.0 + root_bound(coeffs))


def real_roots(coeffs: Sequence, tol: float | None = None) -> tuple[float, ...]:
    """All n real roots of a real-rooted polynomial, sorted nondecreasing.

    ``coeffs`` is low-degree-first with nonzero leading coefficient.  Each
    returned root is within ``tol`` (optimal matching distance) of the true
    root tuple.  Raises ``NotRealRooted`` if the promise fails beyond
    numerical tolerance, ``DegreeZero`` on constants.
    """
    roots, _ = real_roots_with_criticals(coeffs, tol)
    return roots


def _monic_rev(coeffs: Sequence, tol: float | None,
               ) -> tuple[list[float], int, float]:
    # monic high-to-low coefficients, the degree, and the tolerance
    c = _strip(coeffs)
    n = len(c) - 1
    if n <= 0:
        raise DegreeZero("degree must be at least 1")
    an = c[-1]
    rev = [v / an for v in reversed(c)]
    if tol is None:
        tol = default_tol([v / an for v in c])
    return rev, n, tol


def real_roots_with_criticals(coeffs: Sequence, tol: float | None = None,
                              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Like ``real_roots`` but also returns the critical points.

    The derivative roots are a byproduct of the interlacing recursion, so
    callers that need both get them for free.
    """
    rev, n, tol = _monic_rev(coeffs, tol)
    if n == 1:
        return (-rev[1],), ()
    drev = _monic_derivative(rev, n)
    crit = _roots_monic(drev, n - 1, tol)
    roots = _roots_between(rev, n, crit, tol)
    return tuple(roots), tuple(crit)


def real_roots_separated(coeffs: Sequence, separators: Sequence[float],
                         tol: float | None = None,
                         ) -> tuple[float, ...] | None:
    """The n roots of a degree-n polynomial, given n-1 points between them.

    ``separators`` are sorted points that the caller expects to put exactly
    one root in each of the n brackets they cut from the root bound; only
    those brackets are refined, which skips the interlacing recursion.
    The expectation is checked, not trusted: unless the values at the
    bracket ends alternate strictly in sign, clear of Horner roundoff,
    this returns None and the caller falls back to ``real_roots``.  That
    happens when a separator is itself a root (a multiple root of the
    polynomial the separators came from) or when the input is not
    real-rooted.  Accuracy is that of ``real_roots`` with the same ``tol``.
    """
    rev, n, tol = _monic_rev(coeffs, tol)
    if n == 1:
        return (-rev[1],)
    if len(separators) != n - 1:
        raise ValueError(f"need {n - 1} separators, got {len(separators)}")
    pts, vals, zeros = _bracket_points(rev, n, separators)
    if any(zeros) or any((vals[i] < 0.0) == (vals[i + 1] < 0.0)
                         for i in range(n)):
        return None
    return tuple(_bisect(rev, pts[i], pts[i + 1], vals[i] < 0.0, tol)
                 for i in range(n))


# --- exact real-rootedness ------------------------------------------------------

def _remainder(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    # remainder of num / den, low-degree-first, exact
    r = list(num)
    top = len(den) - 1
    while len(r) > top:
        q = r[-1] / den[-1]
        shift = len(r) - 1 - top
        for i, d in enumerate(den):
            r[shift + i] -= q * d
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def sturm_sequence(coeffs: Sequence) -> list[list[Fraction]]:
    """P, P', then -rem of the two before, down to the last nonzero one.

    Exact, low-degree-first; ``coeffs`` may hold ints, Fractions or floats
    (a float is read as the rational it stores).  Each remainder is
    divided by the absolute value of its leading coefficient, which keeps
    the numbers small and every sign.  The last entry is gcd(P, P') up to
    a constant factor.
    """
    p = [Fraction(v) for v in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise DegreeZero("the zero polynomial has no Sturm sequence")
    seq = [p]
    dp = [k * v for k, v in enumerate(p)][1:]
    while dp:
        seq.append(dp)
        r = _remainder(seq[-2], seq[-1])
        lead = abs(r[-1]) if r else 0
        dp = [-v / lead for v in r]
    return seq


def _variations(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_real_rooted(coeffs: Sequence) -> bool:
    """Exactly whether every complex root of P is real.

    The Sturm sequence counts the distinct real roots as V(-inf) - V(+inf);
    the last entry, gcd(P, P'), has degree n - (number of distinct roots),
    so P is real-rooted exactly when the two counts agree, with any
    multiplicities.  A nonzero constant has no roots and is real-rooted.
    """
    seq = sturm_sequence(coeffs)
    at_plus = [s[-1] > 0 for s in seq]
    at_minus = [(s[-1] > 0) == (len(s) % 2 == 1) for s in seq]
    distinct = len(seq[0]) - len(seq[-1])
    return _variations(at_minus) - _variations(at_plus) == distinct
