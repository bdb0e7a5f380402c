"""Real-root extraction for polynomials promised to be real-rooted.

Method: recursive interlacing with certified bracket refinement.  The
roots of the derivative are computed first; by Rolle's theorem they split
the line into brackets that each contain exactly one root of the original
polynomial (a root of multiplicity m sits at a critical point and is
shared by m adjacent brackets).  Each bracket with a sign change is then
refined by safeguarded Newton (rtsafe): P and P' come from one Horner
pass, and a bisection step replaces a Newton step that leaves the
bracket or converges slower than halving; Newton seen converging
linearly, as onto a multiple root, gives way to bisection.  The scheme
is provably bracketed, exploits guaranteed real-rootedness, and needs no
linear algebra.

Every sign the refinement acts on is the true sign of P at that point,
for the double coefficients as given (not rescaled).  Plain Horner
decides it where its value clears the roundoff bound
8 n eps sum |a_k||x|^k.  That bound is convex and increasing in |x|, so
the refiner bounds it at each point by the chord from its value at 0 to
its value at the bracket end farther from 0, and takes the exact bound at
the point only when the value falls inside that chord.  Inside the bound
the compensated Horner scheme of Graillat, Langlois and Louvet
(2005/2009) decides it, barring underflow; it is built on a Veltkamp
split rather than ``math.fma``, so it runs on Python 3.10.  Exact
rational arithmetic decides what is left.  The root of P in a refined
bracket therefore never leaves it, and the root returned, the midpoint
once the bracket is at most ``tol`` wide, is within tol/2 of it.  Below
float spacing the bracket stops at two neighbouring doubles, one spacing
from the root.

A bracket endpoint whose value is below the roundoff bound is accepted as
a root of multiplicity >= 2 (a cluster), unless its true sign is opposite
to the signs on both sides, as between two close roots, so that both of
its brackets are refined.  A bracket with no sign change whose endpoint
values are clearly nonzero means the input was not real-rooted and raises
``NotRealRooted``, unless a root within tol of an endpoint explains the
smaller value.  These two branches are heuristics; their roots carry no
certificate.

A caller that already knows n brackets with one root in each (the pencil
P - lam P' for lam other than 0, whose roots those of P separate, and
the derivative, whose roots those of P separate too) skips the recursion
with ``real_roots_bracketed``, which refines only those brackets.  It
evaluates every bracket end by Horner and trusts the brackets only when
their ends increase strictly and the values there alternate in sign,
clear of Horner's roundoff bound, so that each bracket provably holds one
root; otherwise it answers by ``real_roots``.  Two equal ends (a multiple
root of the polynomial the ends came from), an end that is itself a root
(a pencil at lam = 0) or an input that is not real-rooted makes the
check fail.

A caller that knows a tuple near the roots (the roots of p, for an image
T p under an operator near the identity, or the roots of the last pencil
sample moved on to the next lam) uses ``real_roots_near``.  It runs plain
Newton from each seed, uncertified, and then signs P at 0.45 tol on
either side of each point it reaches, by the certified signs above.
Opposite signs on n strictly increasing, disjoint intervals prove one
root in each, and so every root of a degree-n polynomial (an a
posteriori certificate in the sense of Rump, "Verification methods",
Acta Numerica 19, 2010); the points are returned, each within tol/2 of
its root, with no bracket end evaluated and no bracket refined.  Only
when that fails (two seeds that reach one root, a seed far from every
root, Newton that has not settled after a few steps) are the seeds
polished by a few sweeps of Aberth's simultaneous iteration and the
certificate tried again.  What still fails it (a multiple root with no
sign change, tol within 32 float spacings of a root, a value that is not
finite) goes to ``real_roots_bracketed`` with brackets cut at the
midpoints of the polished values.  The seeds only choose the starts and
the brackets; the certificates and the fallback are those above.  Two
image shapes are reduced first: an exact x^k factor of the double
coefficients gives k exact zeros and a deflated polynomial, and m seeds
more than the degree (an image p^(m), or phi(D) p with phi = x^m psi)
are merged by iterated Rolle into one seed per root.

Root extraction is in double precision: it is the one-way door from
exact coefficients to float root tuples.

``is_real_rooted`` is the exact counterpart for callers that must decide
real-rootedness rather than assume it.  It counts sign variations of a
Sturm sequence built on integers: each entry is a primitive integer
polynomial and a positive multiple of the classical one (remainders
scaled by powers of the divisor's |leading coefficient|), so every sign
is kept and the verdict carries no rounding, multiple roots included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._qpoly import QPoly
from .errors import DegreeZero, NotRealRooted
from .scalars import check_tol

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


def _roundoff(mag: float, n: int) -> float:
    # a bound on the error of Horner's value at a point where
    # sum |a_k||x|^k is at most mag
    return 8.0 * n * _EPS * mag + 1e-300


def _eval_with_slope(rev: Sequence[float], x: float) -> tuple[float, float]:
    # P(x) and P'(x) in one Horner pass on high-to-low coefficients
    acc = 0.0
    slope = 0.0
    for c in rev:
        slope = slope * x + acc
        acc = acc * x + c
    return acc, slope


_SPLIT = 134217729.0    # 2**27 + 1: Veltkamp's split of a double in halves


def _compensated(rev: Sequence[float], x: float) -> float:
    # Compensated Horner (Graillat, Langlois and Louvet): each product and
    # sum of the plain recurrence is made exact as value + error (Dekker's
    # TwoProduct on Veltkamp halves, Knuth's TwoSum), and the errors are
    # run through Horner beside it.  The result is as accurate as Horner
    # in twice the working precision: off from P(x) by at most
    # eps |P(x)| + (2n eps)^2 sum |a_k||x|^k, barring underflow.
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    acc = 0.0
    err = 0.0
    for c in rev:
        prod = acc * x
        t = _SPLIT * acc
        ah = t - (t - acc)
        al = acc - ah
        prod_err = al * xl - (((prod - ah * xh) - al * xh) - ah * xl)
        total = prod + c
        back = total - prod
        sum_err = (prod - (total - back)) + (c - back)
        acc = total
        err = err * x + (prod_err + sum_err)
    return acc + err


def _magnitude(rev: Sequence[float], x: float) -> float:
    # sum |a_k||x|^k, the same recurrence as in _eval_with_mag
    mag = 0.0
    ax = abs(x)
    for c in rev:
        mag = mag * ax + abs(c)
    return mag


def _certified(rev: Sequence[float], x: float,
               value: float | None = None) -> float:
    """P(x), or a value with the true sign of P(x) and about its size.

    Plain Horner decides where its value clears the roundoff bound at x,
    compensated Horner where its value clears its own, much smaller bound,
    and exact rational arithmetic otherwise.  Returns 0.0 only at an exact
    root.  A caller that has plain Horner's value at x already (the
    refiner's Newton pass computes the same recurrence) passes it as
    ``value``, and only the magnitude sum is computed.
    """
    if value is None:
        value, mag = _eval_with_mag(rev, x)
    else:
        mag = _magnitude(rev, x)
    n = len(rev) - 1
    bound = _roundoff(mag, n)
    if abs(value) > bound:
        return value
    value = _compensated(rev, x)
    if abs(value) > 8.0 * n * _EPS * bound:
        return value
    xq = Fraction(x)
    exact = Fraction(0)
    for c in rev:
        exact = exact * xq + Fraction(c)
    if exact == 0:
        return 0.0
    size = max(abs(value), 5e-324)   # keeps the Newton step meaningful
    return size if exact > 0 else -size


def _refine(rev: Sequence[float], lo: float, hi: float, f_lo: float,
            f_hi: float, tol: float, bound: float) -> float:
    """The root of P in [lo, hi], where P has the signs of f_lo and f_hi.

    Safeguarded Newton (rtsafe) from the secant point of the two ends,
    or the midpoint where that point rounds onto an end: each step
    evaluates P and P' at one point in the same Horner pass, moves the
    bracket end of the same sign there, and goes on from it by Newton, or
    by bisection when the Newton point leaves the bracket or the step is
    over half the step before last.  Newton onto a root of multiplicity
    m >= 2 converges linearly, each step (m - 1)/m of the one before, and
    the far end of the bracket never moves; at m = 3 that passes the test
    above.  So once three ratios of consecutive steps over the roundoff
    scale agree to 0.1% at over one half, the bracket is bisected to the
    end: (x - 1)^3 on [0, 3] then takes 45 evaluations, not 105.
    ``bound`` is Horner's roundoff bound at the bracket end farther from
    0.  The bound at a point x is 8 n eps sum |a_k||x|^k, convex and
    increasing in |x|, so the chord from its value at 0 to ``bound``
    covers it at every point of the bracket; a value inside that chord has
    its sign decided by ``_certified``, which returns the value itself
    when it clears the bound at x.  So the root of the given coefficients
    never leaves the bracket, and the midpoint returned once the width is
    at most tol is within tol/2 of it.  Newton closes in on a root from
    one side, which leaves the far end where it was; so a long step stops
    0.4 tol short of the predicted root and a short one lands 0.4 tol past
    it.  The last two points then straddle the root at most tol apart,
    with values far enough from zero that plain Horner can usually sign
    them.  The point a step lands on, offset included, is what must lie
    inside the bracket: from a point within float resolution of the root,
    the bare Newton point rounds onto the bracket end, and the offset
    point still straddles the root.  The other stops are float resolution
    (the midpoint is an end) and a cap of 240 evaluations.
    """
    lo_negative = f_lo < 0.0
    reach = hi if hi > -lo else -lo     # |x| at the end farther from 0
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    older = last = hi - lo
    offset = 0.4 * tol
    linear = 0      # steps in a row at the rate of the step before
    prev = rate = math.inf
    for _ in range(240):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            return mid
        f, slope = _eval_with_slope(rev, x)
        if -bound <= f <= bound:
            floor = _roundoff(abs(rev[-1]), len(rev) - 1)   # the bound at 0
            at = floor + (bound - floor) * (x if x > 0.0 else -x) / reach
            if -at <= f <= at:
                f = _certified(rev, x, f)
                if f == 0.0:
                    return x
        if (f < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        step = f / slope if slope else math.inf
        size = step if step > 0.0 else -step
        if linear < 2 and min(size, prev) > 2.0 * offset:
            now = size / prev
            steady = 0.5 < now < 1.0 and abs(now - rate) <= 1e-3 * now
            linear = linear + 1 if steady else 0
            rate = now
        prev = size
        if linear < 2 and size <= 0.5 * older:
            back = offset if step > 0.0 else -offset    # toward x
            target = x - step + (back if size > 2.0 * offset else -back)
            if lo < target < hi:
                older, last = last, size
                x = target
                continue
        older, last = last, 0.5 * (hi - lo)
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _derivative(rev: list[float], n: int) -> list[float]:
    # P' of a degree-n poly, high-to-low like P; the same products as
    # poly.coeff_derivative, so a caller that passes the derivative's
    # coefficients gets the brackets the recursion would use
    return [rev[k] * (n - k) for k in range(n)]


def _roots_rev(rev: list[float], n: int, tol: float) -> list[float]:
    if n == 1:
        return [-rev[1] / rev[0]]
    crit = _roots_rev(_derivative(rev, n), n - 1, tol)
    return _roots_between(rev, n, crit, tol)


def _values(rev: list[float], n: int, pts) -> tuple[list, list]:
    # Horner's value at each point and its roundoff bound there
    vals = []
    bounds = []
    for x in pts:
        v, mag = _eval_with_mag(rev, x)
        vals.append(v)
        bounds.append(_roundoff(mag, n))
    return vals, bounds


def _bracket_points(rev: list[float], n: int, crit) -> tuple:
    # [-B, crit..., B] clamped to the root bound B, with the value and the
    # Horner roundoff bound at each point
    bound = root_bound(list(reversed(rev)))
    pts = [-bound]
    for w in crit:
        pts.append(min(max(w, -bound), bound))
    pts.append(bound)
    pts.sort()
    return (pts, *_values(rev, n, pts))


def _alternate(vals: list[float]) -> bool:
    # nonzero values whose signs alternate from each one to the next
    return 0.0 not in vals and all((a < 0.0) != (b < 0.0)
                                   for a, b in zip(vals, vals[1:]))


def _refine_bracket(rev, pts, vals, bounds, i, tol) -> float:
    # the root in bracket i, whose end values have opposite true signs;
    # sum |a_k||x|^k grows with |x|, so the larger end bound is the one at
    # the end farther from 0
    return _refine(rev, pts[i], pts[i + 1], vals[i], vals[i + 1], tol,
                   max(bounds[i], bounds[i + 1]))


def _roots_between(rev: list[float], n: int, crit: list[float],
                   tol: float) -> list[float]:
    pts, vals, bounds = _bracket_points(rev, n, crit)
    zeros = [abs(v) <= b for v, b in zip(vals, bounds)]
    if any(zeros):
        # A value inside Horner's roundoff, as between two close roots, is
        # no root when its true sign is opposite to the signs beside it:
        # both of its brackets then hold a sign change and are refined.
        signs = [_certified(rev, p) if z else v
                 for p, v, z in zip(pts, vals, zeros)]
        for i, zero in enumerate(zeros):
            if zero and _alternate(signs[max(i - 1, 0):i + 2]):
                vals[i] = signs[i]
                zeros[i] = False
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
            roots.append(_refine_bracket(rev, pts, vals, bounds, i, tol))
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

    ``coeffs`` is low-degree-first with nonzero leading coefficient.  A
    root refined in a sign-change bracket is within tol/2 (or one float
    spacing, if that is more) of the one root of the given coefficients
    in that bracket; when every bracket is refined, that makes the tuple
    within tol of the true root tuple (optimal matching distance).  Roots
    from the cluster and same-sign branches (see the module docstring) are
    heuristic.  Raises ``NotRealRooted`` if the promise fails beyond
    numerical tolerance, ``DegreeZero`` on constants, and ``ConfigError``
    on a tol that is not a finite number >= 0 (as every entry point here
    does).
    """
    roots, _ = real_roots_with_criticals(coeffs, tol)
    return roots


def _float_rev(coeffs: Sequence, tol: float | None,
               ) -> tuple[list[float], int, float]:
    # the float coefficients high-to-low, unscaled so that every sign the
    # refiner certifies is one of the given polynomial; the degree; the
    # tolerance
    c = _strip(coeffs)
    n = len(c) - 1
    if n <= 0:
        raise DegreeZero("degree must be at least 1")
    if tol is None:
        an = c[-1]
        tol = default_tol([v / an for v in c])
    else:
        check_tol(tol)
    return c[::-1], n, tol


def real_roots_with_criticals(coeffs: Sequence, tol: float | None = None,
                              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Like ``real_roots`` but also returns the critical points.

    The derivative roots are a byproduct of the interlacing recursion, so
    callers that need both get them for free.
    """
    rev, n, tol = _float_rev(coeffs, tol)
    if n == 1:
        return (-rev[1] / rev[0],), ()
    crit = _roots_rev(_derivative(rev, n), n - 1, tol)
    roots = _roots_between(rev, n, crit, tol)
    return tuple(roots), tuple(crit)


_NEWTON = 8     # plain Newton steps per start at most; near starts take two


def _straddled(rev: list[float], starts: Sequence,
               tol: float) -> tuple[float, ...] | None:
    # Plain Newton from each sorted start until a step is at most
    # 0.05 tol or no smaller than the one before (Horner's rounding noise
    # near the root), then the true signs of P at x - 0.45 tol and
    # x + 0.45 tol.  Opposite signs on n strictly increasing, disjoint
    # intervals with distinct double ends prove one root in each, so every
    # root of a degree-n P, and each x is within tol/2 of its root (tol is
    # at least 32 spacings at x, so the rounding of the ends stays inside
    # tol/20).  None when any of that fails.
    stop = 0.05 * tol
    half = 0.45 * tol
    found = []
    edge = -math.inf
    for x in sorted(float(v) for v in starts):
        last = math.inf
        for _ in range(_NEWTON):
            f, slope = _eval_with_slope(rev, x)
            if not slope:
                return None
            step = f / slope
            x -= step
            size = abs(step)
            if size <= stop or not size < last:
                break
            last = size
        else:
            return None
        lo = x - half
        hi = x + half
        # false for a NaN too
        if not edge < lo < hi or tol < 32.0 * math.ulp(x):
            return None
        edge = hi
        found.append(x)
    # Both ends in one Horner pass, with sum |a_k||x|^k at the end farther
    # from 0: it grows with |x|, so its roundoff bound covers both ends.
    n = len(rev) - 1
    sizes = [abs(c) for c in rev]
    for x in found:
        lo = x - half
        hi = x + half
        far = hi if hi > -lo else -lo
        a = b = mag = 0.0
        for c, size in zip(rev, sizes):
            a = a * lo + c
            b = b * hi + c
            mag = mag * far + size
        bound = _roundoff(mag, n)
        if -bound <= a <= bound:
            a = _certified(rev, lo, a)
        if -bound <= b <= bound:
            b = _certified(rev, hi, b)
        if not (a < 0.0 < b or b < 0.0 < a):
            return None
    return tuple(found)


def real_roots_bracketed(coeffs: Sequence, points: Sequence[float],
                         tol: float | None = None) -> tuple[float, ...]:
    """The n roots of a degree-n polynomial, one in each bracket given.

    ``points`` are n+1 bracket ends, expected to increase; each is
    evaluated by Horner, with its roundoff bound.  The brackets are
    trusted only when the ends increase strictly, every value clears its
    bound and the signs alternate, which proves exactly one root in each;
    otherwise this returns ``real_roots(coeffs, tol)``.  Each bracket is
    refined from the secant point of its ends, and each root is within
    tol/2 (or one float spacing) of the one root in its bracket.  Raises
    ValueError unless there are n+1 points.
    """
    rev, n, tol = _float_rev(coeffs, tol)
    if n == 1:
        return (-rev[1] / rev[0],)
    if len(points) != n + 1:
        raise ValueError(f"need {n + 1} bracket ends")
    if any(a >= b for a, b in zip(points, points[1:])):
        return real_roots(coeffs, tol)
    vals, bounds = _values(rev, n, points)
    negative = vals[0] < 0.0
    for v, b in zip(vals, bounds):
        if not (v < -b if negative else v > b):
            return real_roots(coeffs, tol)
        negative = not negative
    return tuple(_refine_bracket(rev, points, vals, bounds, i, tol)
                 for i in range(n))


_SWEEPS = 12    # Aberth sweeps at most; near seeds take three or four


def _aberth(rev: list[float], z: list[float]) -> list[float]:
    # Aberth's simultaneous iteration (Math. Comp. 27, 1973) in real
    # arithmetic, each new value used at once: z_i -= w / (1 - w S_i), with
    # w = P(z_i)/P'(z_i) and S_i = sum over j != i of 1/(z_i - z_j); where
    # P'(z_i) = 0 the step is its limit P / (P' - P S_i) = -1/S_i.  Stops
    # after the first sweep whose steps are all at most
    # 1e-6 (1 + max |seed|).  A zero denominator (tied values, or S_i = 0
    # where P' = 0) raises ZeroDivisionError.
    limit = 1e-6 * (1.0 + max(abs(v) for v in z))
    for _ in range(_SWEEPS):
        largest = 0.0
        for i, x in enumerate(z):
            f, slope = _eval_with_slope(rev, x)
            pull = 0.0
            for j, v in enumerate(z):
                if j != i:
                    pull += 1.0 / (x - v)
            if slope:
                w = f / slope
                step = w / (1.0 - w * pull)
            else:
                step = -1.0 / pull if f else 0.0
            z[i] = x - step
            size = step if step > 0.0 else -step
            if not size <= largest:     # a NaN step counts as large
                largest = size
        if largest <= limit:
            break
    return z


def real_roots_near(coeffs: Sequence, seeds: Sequence,
                    tol: float | None = None) -> tuple[float, ...]:
    """The n roots of a degree-n polynomial, found from nearby seeds.

    For a polynomial whose roots are close to a known tuple, such as the
    image T p of p, whose roots are the seeds, under an operator near the
    identity.  Two image shapes are reduced first:

    - when the k lowest double coefficients are exactly 0.0, P = x^k Q:
      k roots are returned as exact 0.0 and the roots of Q are found from
      the seeds without the k nearest 0 (a multiplier sequence with
      gamma_0 = ... = gamma_{k-1} = 0);
    - when the seeds outnumber the degree by m, seed k becomes the mean of
      the sorted seeds k..k+m: if the seeds are the roots r of p and the
      polynomial is p^(m) (an operator phi(D) with phi = x^m psi), its
      k-th root lies in [r_k, r_{k+m}] by iterated Rolle.

    Plain Newton runs from each of the n seeds, and the true signs of P
    at 0.45 tol on either side of each point it reaches are taken.
    Opposite signs on n disjoint intervals prove every root, and those
    points are returned, each within tol/2 of its root.  Only when that
    fails are the seeds polished by at most 12 sweeps of Aberth's
    iteration and the certificate tried again from the polished values.
    After a second failure (no sign change, as at a multiple root;
    overlapping intervals; tol within 32 float spacings; a value that is
    not finite) the midpoints of consecutive polished values and the root
    bound cut n brackets for ``real_roots_bracketed``, which certifies one
    root in each by strict sign alternation or answers by
    ``real_roots``.  So the contract and the ``NotRealRooted`` behaviour
    are those of the bracketed path, however poor the seeds.  Fewer seeds
    than the degree, and tied values or another zero denominator in the
    iteration, go to ``real_roots`` directly.
    """
    rev, n, tol = _float_rev(coeffs, tol)
    seeds = sorted(float(v) for v in seeds)
    k = 0
    while k < n and rev[n - k] == 0.0:
        k += 1
    if k:
        # P = x^k Q exactly, Q's coefficients low degree first being
        # rev[n - k], ..., rev[0]
        rest = sorted(seeds, key=abs)[k:]
        inner = (real_roots_near(rev[n - k::-1], rest, tol) if k < n
                 else ())
        return tuple(sorted((0.0,) * k + inner))
    if n == 1:
        return (-rev[1] / rev[0],)
    m = len(seeds) - n
    if m < 0:
        return real_roots(coeffs, tol)
    if m:
        seeds = [sum(seeds[i:i + m + 1]) / (m + 1) for i in range(n)]
    roots = _straddled(rev, seeds, tol)
    if roots is not None:
        return roots
    try:
        polished = sorted(_aberth(rev, seeds))
    except ZeroDivisionError:
        return real_roots(coeffs, tol)
    roots = _straddled(rev, polished, tol)
    if roots is not None:
        return roots
    bound = root_bound(rev[::-1])
    points = [-bound]
    points.extend(0.5 * (a + b) for a, b in zip(polished, polished[1:]))
    points.append(bound)
    return real_roots_bracketed(coeffs, points, tol)


# --- exact real-rootedness ------------------------------------------------------

def _primitive(poly: list[int]) -> list[int]:
    # poly over the gcd of its coefficients, a positive factor
    g = math.gcd(*poly)
    return [v // g for v in poly] if g > 1 else poly


def _remainder(num: list[int], den: list[int]) -> list[int]:
    # a positive multiple of the remainder of num / den, on integers,
    # low-degree-first: each step scales by |lead(den)| > 0 before it
    # cancels the top term, so every sign is the remainder's
    r = list(num)
    top = len(den) - 1
    lead = den[-1]
    scale = abs(lead)
    while len(r) > top:
        q = r[-1] if lead > 0 else -r[-1]
        shift = len(r) - 1 - top
        r = [scale * v for v in r]
        for i, d in enumerate(den):
            r[shift + i] -= q * d
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _sturm_chain(nums: list[int]) -> list[list[int]]:
    # P, P', then -rem of the two before, each a primitive integer
    # polynomial and a positive multiple of the Sturm sequence entry
    while nums and nums[-1] == 0:
        nums = nums[:-1]
    if not nums:
        raise DegreeZero("the zero polynomial has no Sturm sequence")
    seq = [nums]
    dp = _primitive([k * v for k, v in enumerate(nums)][1:])
    while dp:
        seq.append(dp)
        r = _remainder(seq[-2], seq[-1])
        dp = _primitive([-v for v in r]) if r else []
    return seq


def sturm_sequence(coeffs: Sequence) -> list[list[Fraction]]:
    """P, P', then -rem of the two before, down to the last nonzero one.

    Exact, low-degree-first; ``coeffs`` may hold ints, Fractions or floats
    (a float is read as the rational it stores).  Each remainder is
    divided by the absolute value of its leading coefficient, which keeps
    the numbers small and every sign.  The last entry is gcd(P, P') up to
    a constant factor.  The sequence is computed on integers (pseudo-
    remainders scaled by positive factors, see ``_remainder``) and turned
    into Fractions here.
    """
    p = QPoly.of(coeffs)
    chain = _sturm_chain(p.nums)
    head = [Fraction(v, p.den) for v in chain[0]]
    seq = [head, [k * v for k, v in enumerate(head)][1:]]
    for s in chain[2:]:
        lead = abs(s[-1])
        seq.append([Fraction(v, lead) for v in s])
    return seq[:len(chain)]


def _variations(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_real_rooted(coeffs: Sequence) -> bool:
    """Exactly whether every complex root of P is real.

    The Sturm sequence counts the distinct real roots as V(-inf) - V(+inf);
    the last entry, gcd(P, P'), has degree n - (number of distinct roots),
    so P is real-rooted exactly when the two counts agree, with any
    multiplicities.  A nonzero constant has no roots and is real-rooted.
    """
    seq = _sturm_chain(QPoly.of(coeffs).nums)
    at_plus = [s[-1] > 0 for s in seq]
    at_minus = [(s[-1] > 0) == (len(s) % 2 == 1) for s in seq]
    distinct = len(seq[0]) - len(seq[-1])
    return _variations(at_minus) - _variations(at_plus) == distinct
