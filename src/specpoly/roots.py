"""Real-root extraction for polynomials promised to be real-rooted.

One contract: every root returned is within tol/2 (or one float spacing,
if that is more) of a root of the coefficients as given, proven by a
straddle or by an exact Sturm interval.  ``real_roots_near`` runs Newton
from seeds near the roots, one start after another, each deflated by
Maehly's rule (1954) against the points the starts before it reached, so
that two starts do not settle on one root.  A start also stops in
Newton's quadratic regime: after a step s of at most 0.01 sqrt(tol) that
is under a tenth of the step before it (always, on a first step), the
error left is about K s^2 <= 1e-4 K tol, with K = |P''/2P'| at the root,
so no confirming step is taken; a cluster, where each step shrinks only
by about 1 - 1/m, does not stop this way.  No stop proves anything:
opposite true signs of P at 0.45 tol on either side of each point
reached, on n disjoint intervals, prove every root of a degree-n P (an
a posteriori certificate, Rump, Acta Numerica 19, 2010), however the
points were found, and a start that stopped too early fails it and
goes on to the passes after it.  So the ladder has three steps: the
deflated Newton pass from the seeds; the same loop from the same seeds
with the values of P taken on integers, for inputs whose rounding noise
near a root keeps plain Newton from settling; and the exact terminal for
what neither proves (a multiple root, tied seeds, a first start on a
critical point).  A caller that knows n+1 interlacing bracket ends
passes them as seeds; their midpoints become the starts.  ``real_roots``
decides on the integer Sturm chain whether P has a multiple root or too
few real roots: such a P goes to the exact terminal, any other is seeded
by n Chebyshev nodes inside the root bound and climbs the same ladder.

Every sign is the true sign of the coefficients as given: plain Horner
on their doubles where it clears the roundoff bound gamma_2n sum
|a_k||x|^k (Higham, Accuracy and Stability of Numerical Algorithms,
2002, eq. 5.3), and otherwise the sign on integer numerators.  Float
coefficients are signed at degree n, on the numerators of their doubles.
Exact coefficients (ints, Fractions, or a ``_qpoly.QPoly``, as the exact
kernels hand over) are signed at degree n + 1, which covers the rounding
of each coefficient, on their own numerators.  A ``QPoly``'s doubles are
num / den, and the x^k deflation and the Sturm chain read its
numerators, so no ``Fraction`` is built.

The exact terminal reads ints and Fractions exactly, floats as the
rationals they store.  Yun's square-free decomposition (1976) on integer
numerators gives factors of known multiplicity; exact Sturm counts on
dyadic points isolate the real roots of each, and each isolating
interval is halved on the sign of its factor alone, to at most tol wide.
It reports k roots at an interval only when the exact count there is k,
a root on a bisection point as that point itself, and raises
``NotRealRooted`` only when the count proves a root that is not real.
So no root is guessed, and a float vector whose rounding split a
multiple root into a complex pair raises ``NotRealRooted``.
``is_real_rooted`` decides real-rootedness exactly by a Sturm sequence
on integers, each entry a primitive positive multiple of the classical
one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from ._qpoly import QPoly, coeff_derivative
from .errors import DegreeZero, NonFinite, NotRealRooted
from .scalars import check_tol

_EPS = 2.0 ** -52


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


def default_tol(coeffs: Sequence[float]) -> float:
    return 1e-10 * (1.0 + root_bound(coeffs))


def _float_rev(coeffs: Sequence | QPoly, tol: float | None,
               ) -> tuple[list[float], int, float]:
    # the float coefficients high-to-low, unscaled so that every sign a
    # certificate takes is one of the given polynomial; the degree; the
    # tolerance.  A QPoly's doubles are num / den, correctly rounded as
    # float(Fraction) is.  A coefficient whose double is NaN, infinite or
    # beyond double range has no sign to certify, and is refused.
    try:
        if isinstance(coeffs, QPoly):
            den = coeffs.den
            c = [v / den for v in coeffs.nums]
        else:
            c = [float(v) for v in coeffs]
    except OverflowError:
        c = [math.inf]
    if not all(map(math.isfinite, c)):
        raise NonFinite("a coefficient has no finite double")
    while c and c[-1] == 0.0:
        c.pop()
    n = len(c) - 1
    if n <= 0:
        raise DegreeZero("degree must be at least 1")
    if tol is None:
        an = c[-1]
        tol = default_tol([v / an for v in c])
    else:
        check_tol(tol)
    return c[::-1], n, tol


# Newton steps per start at most.  Near starts take one; a far one first
# closes in linearly, each step about 1 - 1/m of the distance to the m
# roots left, so from d times their spread it takes about m ln d steps.
# Starts far from their roots need more than 32: over 30 pencil-sweep
# benchmark cycles at seed 7919, 50 of the 53 calls that ended in the exact
# terminal had run out of 32 steps in both Newton passes; with 64, 2 calls
# end there.
_NEWTON = 64


def _straddled(rev: list[float], starts: list[float], tol: float,
               nums: list[int] | None = None, ints: list[int] | None = None,
               den: int = 1) -> tuple[float, ...] | None:
    # Newton from each start in turn, deflated by Maehly's rule against
    # the points z_j reached from the starts before it: the step is
    # P / (P' - P sum_j 1/(x - z_j)), Newton's step on P / prod (x - z_j),
    # so a start near a root already found is pushed on to another.  Each
    # start runs until a step is at most 0.05 tol, or at most 0.45 tol and
    # no smaller than the one before (Horner's rounding noise near the
    # root; farther out, Newton's steps may grow for a while), or at most
    # near = 0.01 sqrt(tol) and under a tenth of the step before it (any
    # first step that small).  That last stop is Newton's quadratic
    # regime: the point is then about K s^2 <= 1e-4 K tol from its root,
    # K = |P''/2P'| there, inside 0.05 tol while K <= 500 and inside the
    # certificate's 0.45 tol while K <= 4500; toward a cluster of m roots
    # each step shrinks only by about 1 - 1/m, not tenfold.  A confirming
    # step would prove nothing: _proven proves every point, and a start
    # that stopped too early fails it and goes on to the accurate pass,
    # then the exact terminal.  P and P' are Horner's, unless integer
    # numerators ``ints`` over ``den`` are given: then P is their value on
    # integers, rounded once, and only P' is Horner's (the accurate pass).
    # Then _proven signs P about the points reached, on ``nums``.  None
    # when any of it fails, a step lands on a point already reached, or a
    # point that is not finite has no integer value to take.
    #
    # Nearly all of the seeded path's time is spent in the Newton loop
    # here and the certificate loop of _proven, so both are written out
    # rather than calling a Horner or a bound helper: calling a
    # helper once per Newton step, even one with the same loop, cost 3.6%
    # of the pencil-sweep benchmark's trials/s, lost in 6 of 6 alternating
    # pairs.  Each Horner recurrence starts past the leading coefficient
    # a_n.  Its first two steps from zero are exact at any finite x
    # (0 x + 0 = 0, then 0 x + a_n = a_n), so starting from slope = a_n,
    # P = a_n x + a_{n-1}, a = b = a_n and mag = |a_n| gives the same
    # doubles as the full recurrence (a start that reaches a non-finite
    # x fails either way), and _proven's bound is (1.01 n eps) mag +
    # 1e-300 with the factor in parentheses hoisted out of its loop.
    stop = 0.05 * tol
    half = 0.45 * tol
    near = 0.01 * math.sqrt(tol)
    lead = rev[0]
    second = rev[1]
    tail = rev[2:]
    top = len(ints) - 1 if ints is not None else 0
    found = []
    try:
        for x in starts:
            last = math.inf
            for _ in range(_NEWTON):
                slope = lead
                f = lead * x + second
                for c in tail:
                    slope = slope * x + f
                    f = f * x + c
                if ints is not None:
                    p, q = x.as_integer_ratio()
                    e = q.bit_length() - 1
                    f = _value(ints, p, e) / (den << e * top)
                if found:
                    pull = 0.0
                    for z in found:
                        pull += 1.0 / (x - z)
                    slope -= f * pull
                if not slope:
                    return None
                step = f / slope
                x -= step
                size = step if step > 0.0 else -step
                if (size <= stop or not size < last and size <= half
                        or size <= near and 10.0 * size < last):
                    break
                last = size
            else:
                return None
            found.append(x)
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    return _proven(rev, found, tol, nums)


def _proven(rev: list[float], found: list[float], tol: float,
            nums: list[int] | None) -> tuple[float, ...] | None:
    # The straddle certificate: in sorted order, the true signs of P at
    # x - 0.45 tol and x + 0.45 tol.  Opposite signs on n strictly
    # increasing, disjoint intervals with distinct double ends prove one
    # root in each, so every root of a degree-n P, and each x is within
    # tol/2 of its root (tol is at least 32 spacings at x, so the rounding
    # of the ends stays inside tol/20).  How the points were reached plays
    # no part in that proof.  None when it fails.  Inside the roundoff
    # bound a sign is taken on integers: ``nums``, the numerators of exact
    # coefficients, or with nums None those of the doubles, built at the
    # first such sign.  Exact coefficients have doubles that may round
    # each by at most eps/2 |a_k|, so Horner's value is off from the exact
    # one by at most the roundoff bound at degree n + 1.
    half = 0.45 * tol
    found.sort()
    edge = -math.inf
    for x in found:
        lo = x - half
        hi = x + half
        # false for a NaN too
        if not edge < lo < hi or tol < 32.0 * math.ulp(x):
            return None
        edge = hi
    # Both ends in one Horner pass, with sum |a_k||x|^k at the end farther
    # from 0: it grows with |x|, so its roundoff bound covers both ends.
    # Where the computed sum is mag, Horner's value is off by at most
    # gamma_2n mag, gamma_k = k u / (1 - k u) with u = eps / 2 (Higham,
    # eq. 5.3); the bound (1.01 n eps) mag + 1e-300 covers gamma_2n, the
    # rounding of mag (at least 1 - gamma_2n times the true sum) and of
    # the product while n eps < 1e-3.  Like Higham's, it holds barring
    # underflow; the 1e-300 keeps it above 0.
    degree = len(rev) - 1 if nums is None else len(rev)
    factor = 1.01 * degree * _EPS
    lead = rev[0]
    lead_size = abs(lead)
    pairs = [(c, abs(c)) for c in rev[1:]]
    for x in found:
        lo = x - half
        hi = x + half
        far = hi if hi > -lo else -lo
        a = b = lead
        mag = lead_size
        for c, size in pairs:
            a = a * lo + c
            b = b * hi + c
            mag = mag * far + size
        bound = factor * mag + 1e-300
        if -bound <= a <= bound or -bound <= b <= bound:
            if nums is None:
                nums = QPoly.of(rev[::-1]).nums
            if -bound <= a <= bound:
                a = _sign(nums, lo)
            if -bound <= b <= bound:
                b = _sign(nums, hi)
        if not (a < 0.0 < b or b < 0.0 < a):
            return None
    return tuple(found)


def _sign(nums: list[int], x: float) -> float:
    # the sign of sum nums[k] x^k, exactly, at x = p / 2^e
    p, q = x.as_integer_ratio()
    acc = _value(nums, p, q.bit_length() - 1)
    return 1.0 if acc > 0 else -1.0 if acc < 0 else 0.0


def _accurate(rev: list[float], starts: list[float], tol: float,
              nums: list[int] | None, den: int) -> tuple[float, ...] | None:
    # _straddled's pass again, for inputs whose Horner noise near a root
    # is over 0.45 tol, where plain Newton never settles: P is evaluated
    # on integers, the numerators ``nums`` over their denominator ``den``,
    # or with nums None those of the doubles
    if nums is not None:
        return _straddled(rev, starts, tol, nums, nums, den)
    doubles = QPoly.of(rev[::-1])
    return _straddled(rev, starts, tol, None, doubles.nums, doubles.den)


def _near(coeffs: Sequence | QPoly, rev: list[float], n: int,
          seeds: list[float], tol: float) -> tuple[float, ...]:
    # real_roots_near on the doubles rev (high-to-low) of coeffs, with at
    # least n sorted seeds as doubles; a QPoly's straddles are signed on it
    exact = isinstance(coeffs, QPoly)
    low = coeffs.nums if exact else coeffs
    k = 0
    while k < n and low[k] == 0:
        k += 1
    if k:
        # P = x^k Q exactly, Q's coefficients low degree first being
        # coeffs[k:], its doubles high-to-low rev[:n - k + 1]
        rest = sorted(sorted(seeds, key=abs)[k:])
        inner = (_near(QPoly(low[k:], coeffs.den) if exact else low[k:],
                       rev[:n - k + 1], n - k, rest, tol)
                 if k < n else ())
        return tuple(sorted((0.0,) * k + inner))
    if n == 1:
        return (-rev[1] / rev[0] + 0.0,)
    m = len(seeds) - n
    if m:
        seeds = [sum(seeds[i:i + m + 1]) / (m + 1) for i in range(n)]
    nums = low if exact and len(low) == n + 1 else None
    roots = _straddled(rev, seeds, tol, nums)
    if roots is None:
        roots = _accurate(rev, seeds, tol, nums, coeffs.den if exact else 1)
    return _isolated(coeffs, tol) if roots is None else roots


def _floats(coeffs: Sequence | QPoly) -> bool:
    # whether the straddles of coeffs are signed on their doubles; exact
    # coefficients (ints, Fractions) go to _near as a QPoly, signed on its
    # numerators.  Only the lowest coefficient is looked at: a float read
    # exactly is its double, so a sequence that mixes them is signed
    # right either way.
    return not isinstance(coeffs, QPoly) and isinstance(coeffs[0], float)


def real_roots_near(coeffs: Sequence, seeds: Sequence,
                    tol: float | None = None) -> tuple[float, ...]:
    """The n roots of a degree-n polynomial, found from nearby seeds (the
    roots of p, for an image T p under an operator near the identity).

    When the k lowest coefficients are exactly 0, k roots are exact 0.0
    and the seeds without the k nearest 0 seed the rest.  When the seeds
    outnumber the degree by m (an image p^(m)), seed k becomes the mean of
    the sorted seeds k..k+m, as root k of p^(m) lies in [r_k, r_{k+m}] by
    iterated Rolle; so n+1 interlacing bracket ends seed one start inside
    each bracket.  Fewer seeds than the degree go to ``real_roots``.
    The seeds start the deflated Newton pass, then the same pass on
    integer values; what neither proves (a multiple root, tied seeds, a
    first seed on a critical point) goes to the exact terminal, so the
    contract holds however poor the seeds.  A seed beyond double range is
    refused, as a coefficient is (``NonFinite``).
    """
    rev, n, tol = _float_rev(coeffs, tol)
    try:
        seeds = sorted([float(v) for v in seeds])
    except OverflowError:
        raise NonFinite("a seed is beyond double range") from None
    if len(seeds) < n:
        return real_roots(coeffs, tol)
    if not _floats(coeffs):
        coeffs = QPoly.of(coeffs)
    return _near(coeffs, rev, n, seeds, tol)


def real_roots(coeffs: Sequence, tol: float | None = None) -> tuple[float, ...]:
    """All n real roots of a real-rooted polynomial, sorted nondecreasing.

    ``coeffs`` is low-degree-first (or a ``QPoly``); ints and Fractions
    are read exactly, floats as the rationals they store.  The roots keep
    the contract of the module docstring, one for each root counted with
    multiplicity.  Raises ``NotRealRooted`` only when an exact Sturm count
    proves a root that is not real, ``DegreeZero`` on constants,
    ``NonFinite`` on a coefficient whose double is not finite, and
    ``ConfigError`` on a tol that is not a finite number >= 0 (as every
    entry point here does).
    """
    rev, n, tol = _float_rev(coeffs, tol)
    if n == 1:
        return (-rev[1] / rev[0] + 0.0,)
    exact = QPoly.of(coeffs)
    chain = _sturm_chain(exact.nums)
    if len(chain[-1]) > 1 or _real_count(chain) < n:
        return _isolated(exact, tol)
    bound = root_bound(rev[::-1])
    seeds = [-bound * math.cos(math.pi * (k + 0.5) / n) for k in range(n)]
    return _near(coeffs if _floats(coeffs) else exact, rev, n, seeds, tol)


def real_roots_with_criticals(coeffs: Sequence, tol: float | None = None,
                              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``real_roots`` and the critical points, the roots of P', seeded by
    ``real_roots_near`` at the midpoints of the roots (Rolle).  A
    ``QPoly``'s derivative is taken on its numerators."""
    _, n, tol = _float_rev(coeffs, tol)
    roots = real_roots(coeffs, tol)
    if n == 1:
        return roots, ()
    if isinstance(coeffs, QPoly):
        derivative = QPoly(coeff_derivative(coeffs.nums), coeffs.den)
    else:
        derivative = coeff_derivative(coeffs)
    return roots, real_roots_near(derivative, roots, tol)


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
    dp = _primitive(coeff_derivative(nums))
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
    seq = [head, list(coeff_derivative(head))]
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
    return _real_count(seq) == len(seq[0]) - len(seq[-1])


def _real_count(chain: list[list[int]]) -> int:
    # the distinct real roots of chain[0], V(-inf) - V(+inf)
    at_plus = [s[-1] > 0 for s in chain]
    at_minus = [(s[-1] > 0) == (len(s) % 2 == 1) for s in chain]
    return _variations(at_minus) - _variations(at_plus)


# --- the exact terminal ---------------------------------------------------------

def _gcd(a: list[int], b: list[int]) -> list[int]:
    # a primitive gcd of two integer polynomials; gcd(a, 0) is a's
    # primitive part
    while b:
        a, b = b, _primitive(_remainder(a, b))
    return _primitive(a)


def _quotient(num: list[int], den: list[int]) -> list[int]:
    # num / den for a primitive den that divides num: the quotient has
    # integer coefficients (Gauss's lemma), so each step divides exactly
    r = list(num)
    top = len(den) - 1
    lead = den[-1]
    q = [0] * max(len(num) - top, 0)
    for shift in reversed(range(len(q))):
        c = q[shift] = r[shift + top] // lead
        for i, d in enumerate(den):
            r[shift + i] -= c * d
    return q


def _minus_derivative(c: list[int], b: list[int]) -> list[int]:
    # c - b' without top zeros
    d = [v - w for v, w in zip_longest(c, coeff_derivative(b), fillvalue=0)]
    while d and d[-1] == 0:
        d.pop()
    return d


def _square_free(nums: list[int]) -> list[tuple[list[int], int]]:
    # Yun's decomposition p = const * prod a_i^i into square-free,
    # pairwise coprime a_i, as the (a_i, i) with a_i not constant; the
    # Sturm chain of p ends in gcd(p, p').  Each gcd is taken up to a
    # constant; b and c are always divided by the same one, so c - b'
    # keeps its meaning.
    chain = _sturm_chain(nums)
    p, a = chain[0], chain[-1]
    dp = coeff_derivative(p)
    b = _quotient(p, a)
    d = _minus_derivative(_quotient(dp, a), b)
    factors = []
    i = 1
    while len(b) > 1:
        a = _gcd(b, d)
        b = _quotient(b, a)
        d = _minus_derivative(_quotient(d, a), b)
        if len(a) > 1:
            factors.append((a, i))
        i += 1
    return factors


def _value(poly: list[int], num: int, e: int) -> int:
    # poly(num / 2^e) times 2^(e deg poly), a positive factor
    acc = 0
    for j, c in enumerate(reversed(poly)):
        acc = acc * num + (c << e * j)
    return acc


def _sturm_variations(chain: list[list[int]], num: int, e: int) -> int:
    return _variations([v > 0 for v in (_value(s, num, e) for s in chain)
                        if v])


def _done(width: float, num: int, e: int, tol: float) -> bool:
    # an interval this wide about num / 2^e is at most tol (or a spacing)
    return width <= tol or width <= math.ulp(num / (1 << e))


def _isolated(coeffs: Sequence, tol: float) -> tuple[float, ...]:
    # the exact terminal: the roots of the coefficients as given
    found = []
    for factor, multiplicity in _square_free(QPoly.of(coeffs).nums):
        found += _factor_roots(factor, tol) * multiplicity
    found.sort()
    return tuple(found)


def _factor_roots(a: list[int], tol: float) -> list[float]:
    # the real roots of a square-free integer polynomial, each within
    # tol/2 (or one float spacing) as its interval's midpoint, or exactly
    # as the interval's closed end where the factor vanishes; every one
    # of them real, or NotRealRooted.  Sturm counts isolate them, and
    # _halved refines each isolating interval.
    degree = len(a) - 1
    if degree == 1:
        return [-a[0] / a[1] + 0.0]     # + 0.0: a root at 0 is never -0.0
    chain = _sturm_chain(a)
    if _real_count(chain) < degree:
        raise NotRealRooted(
            f"a square-free factor of degree {degree} has "
            f"{_real_count(chain)} real roots by its exact Sturm count")
    # every root lies strictly inside (-2^s, 2^s): 2^s > 1 + max|a_k / a_d|
    s = (max(abs(v) for v in a[:-1]) // abs(a[-1]) + 2).bit_length()
    width = math.ldexp(2.0, s)
    roots = []
    # intervals (lo, hi] as numerators over 2^e, with the chain's sign
    # variations at each end; their root counts are the differences
    stack = [(-1 << s, 1 << s, 0, _sturm_variations(chain, -1 << s, 0),
              _sturm_variations(chain, 1 << s, 0))]
    while stack:
        lo, hi, e, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 1:
            roots.append(_halved(a, lo, hi, e, width, tol))
        elif count and _done(math.ldexp(width, -e), lo + hi, e + 1, tol):
            roots += [(lo + hi) / (1 << e + 1)] * count
        elif count:
            mid = lo + hi
            v_mid = _sturm_variations(chain, mid, e + 1)
            stack.append((2 * lo, mid, e + 1, v_lo, v_mid))
            stack.append((mid, 2 * hi, e + 1, v_mid, v_hi))
    return roots


def _halved(a: list[int], lo: int, hi: int, e: int, width: float,
            tol: float) -> float:
    # the one root of the square-free a in (lo, hi], numerators over 2^e,
    # by halving on the sign of a alone.  The sign at hi never changes;
    # the simple root is the midpoint where a vanishes there, else lies in
    # (mid, hi] where a changes sign across it and in (lo, mid] where it
    # does not: the half that Sturm counts would pick.  A bisection point
    # stays the closed end hi of the intervals after it, so a dyadic root
    # (an integer root of a multiple factor, say) is reported as itself
    sign = _value(a, hi, e)
    if sign == 0:
        return hi / (1 << e)
    positive = sign > 0
    while not _done(math.ldexp(width, -e), lo + hi, e + 1, tol):
        mid = lo + hi
        e += 1
        value = _value(a, mid, e)
        if value == 0:
            return mid / (1 << e)
        if (value > 0) == positive:
            lo, hi = 2 * lo, mid
        else:
            lo, hi = mid, 2 * hi
    return (lo + hi) / (1 << e + 1)
