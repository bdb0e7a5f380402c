"""Monic real-rooted (hyperbolic) polynomials, stored by their roots.

The sorted root tuple is the primary representation; the monic coefficient
vector is derived on demand and cached.  Everything a theorem in this
domain says is said about root tuples, so coefficient form exists only to
feed differential operators and the root finder.

In rational mode the coefficients are expanded on integers: the roots
are put over their least common denominator L, the loop multiplies out
prod (y - L r_j) with y = L x, and the result is rescaled and reduced
once, in the canonical numerator/denominator form of ``_qpoly.QPoly``.
That ``QPoly`` is what a polynomial caches and hands to the operator
kernels and the root finder (``HyperbolicPoly.coeff_vector``); the public
``coefficients`` and ``expand_from_roots`` turn it into ``Fraction``
values.  Float mode runs the same loop on doubles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import roots as _rootfind
from ._qpoly import QPoly, coeff_derivative, numerators
from .errors import DegreeTooSmall, EmptyTuple, InfeasibleGap, NonPositiveEps
from .scalars import (FLOAT, RATIONAL, Scalar, check_finite, coerce,
                      coerce_all, infer_mode)


@dataclass(frozen=True)
class HyperbolicPoly:
    """Monic polynomial with all-real roots, identified with its root tuple."""

    roots: tuple
    mode: str

    @property
    def degree(self) -> int:
        return len(self.roots)

    def coefficients(self) -> tuple:
        """Monic coefficient vector, low degree first, length degree+1."""
        cached = self.__dict__.get("_coeffs")
        if cached is None:
            cached = self.coeff_vector()
            if self.mode == RATIONAL:
                cached = cached.fractions()
            self.__dict__["_coeffs"] = cached
        return cached

    def coeff_vector(self):
        """The monic coefficients as the kernels take them, cached: a
        ``QPoly`` in rational mode, the tuple of doubles in float mode."""
        cached = self.__dict__.get("_vector")
        if cached is None:
            cached = (exact_expansion(self.roots) if self.mode == RATIONAL
                      else expand_from_roots(self.roots, FLOAT))
            self.__dict__["_vector"] = cached
        return cached

    def root_sum(self) -> Scalar:
        return sum(self.roots)

    def barycenter(self) -> Scalar:
        if self.mode == RATIONAL:
            return Fraction(self.root_sum(), self.degree)
        return self.root_sum() / self.degree

    def root_radius(self) -> Scalar:
        return max(abs(self.roots[0]), abs(self.roots[-1]))

    def to_float(self) -> "HyperbolicPoly":
        """The float-mode twin, cached so that its own caches are reused."""
        if self.mode == FLOAT:
            return self
        cached = self.__dict__.get("_float")
        if cached is None:
            cached = HyperbolicPoly(coerce_all(self.roots, FLOAT), FLOAT)
            self.__dict__["_float"] = cached
        return cached

    def __str__(self) -> str:
        return f"HyperbolicPoly(deg={self.degree}, roots={self.roots})"


@dataclass(frozen=True)
class StrictnessReport:
    is_strict: bool
    min_gap: Optional[Scalar]  # None when degree 1 (no consecutive pairs)


def from_roots(root_values: Sequence[Scalar], mode: str | None = None,
               ) -> HyperbolicPoly:
    """Build the monic polynomial with exactly the given real roots.

    The mode is inferred (any float entry makes the whole polynomial
    float) unless given explicitly.
    """
    values = tuple(root_values)
    if not values:
        raise EmptyTuple("a hyperbolic polynomial needs at least one root")
    check_finite(values)
    if mode is None:
        mode = infer_mode(values)
    return HyperbolicPoly(tuple(sorted(coerce_all(values, mode))), mode)


def expand_from_roots(root_values: Sequence[Scalar], mode: str) -> tuple:
    """Coefficients of prod (x - r), low degree first, leading term exactly 1.

    Rational mode gives the ``Fraction`` values of ``exact_expansion``.
    """
    if mode == RATIONAL:
        return exact_expansion(root_values).fractions()
    coeffs = _expand(1.0, root_values)
    coeffs[-1] = 1.0
    return tuple(coeffs)


def exact_expansion(root_values: Sequence[Scalar]) -> QPoly:
    """prod (x - r) for exact roots, as a ``QPoly``.

    The roots go over their least common denominator L, and prod (y - L r)
    is expanded on integers, y = L x; the coefficient of x^k is then
    e_k L^k / L^n, reduced once by the integer kernel.
    """
    (nums,), scale = numerators(root_values)
    coeffs = _expand(1, nums)
    return QPoly([v * scale ** k for k, v in enumerate(coeffs)],
                 scale ** len(nums))


def _expand(one, root_values) -> list:
    # prod (x - r), low degree first, in the scalars of one and the roots
    coeffs = [one]
    for r in root_values:
        nxt = [one * 0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] -= r * a
            nxt[i + 1] += a
        coeffs = nxt
    return coeffs


def to_coefficients(p: HyperbolicPoly) -> tuple:
    return p.coefficients()


def hyperbolic_from_coeffs(coeffs: Sequence, tol: float | None = None,
                           ) -> HyperbolicPoly:
    """Extract roots from a real-rooted coefficient vector.

    Always produces a float-mode polynomial: this is the one-way door out
    of exact arithmetic.
    """
    return HyperbolicPoly(_rootfind.real_roots(coeffs, tol), FLOAT)


def derivative(p: HyperbolicPoly, tol: float | None = None) -> HyperbolicPoly:
    """The monic normalization P'/n of the derivative.

    Root extraction is numeric, so the result is float mode regardless of
    the input mode; the coefficients are in P's mode, exact for a
    rational P, and the roots keep the root finder's one contract for
    them.  By Rolle's theorem the roots of P'/n interlace those of P, so
    the roots of P are its bracket ends, and they seed
    ``real_roots_near``, which starts from their midpoints.
    """
    n = p.degree
    if n < 2:
        raise DegreeTooSmall("derivative needs degree >= 2")
    c = p.coeff_vector()
    if p.mode == RATIONAL:
        dc = QPoly(coeff_derivative(c.nums), c.den * n)
    else:
        dc = [v * k / n for k, v in enumerate(c) if k >= 1]
    return HyperbolicPoly(
        _rootfind.real_roots_near(dc, p.to_float().roots, tol), FLOAT)


def taylor_shift(p: HyperbolicPoly, lam: Scalar) -> HyperbolicPoly:
    """P(x + lam); in root space the roots just translate by -lam."""
    lam = coerce(lam, p.mode)
    return HyperbolicPoly(tuple(r - lam for r in p.roots), p.mode)


def strict_perturb(p: HyperbolicPoly, eps: Scalar) -> HyperbolicPoly:
    """Split multiple roots without moving the barycenter.

    Root i moves down by (n-i)*eps for i < n and the top root moves up by
    n(n-1)/2 * eps, so consecutive gaps grow by eps and the root sum is
    unchanged (exactly, in rational mode).  As eps -> 0 the result
    converges to P in matching distance.
    """
    eps = coerce(eps, p.mode)
    if not eps > 0:
        raise NonPositiveEps("perturbation size must be positive")
    n = p.degree
    shifted = [p.roots[i] - (n - 1 - i) * eps for i in range(n - 1)]
    half = Fraction(n * (n - 1), 2) if p.mode == RATIONAL else n * (n - 1) / 2
    shifted.append(p.roots[-1] + half * eps)
    return HyperbolicPoly(tuple(shifted), p.mode)


def _gaps(nums) -> list:
    return [nums[i + 1] - nums[i] for i in range(len(nums) - 1)]


def strict_numerators(nums) -> bool:
    """Whether sorted roots, as numerators over one denominator (or as
    doubles), are pairwise distinct."""
    return len(nums) == 1 or min(_gaps(nums)) > 0


def strictness(p: HyperbolicPoly) -> StrictnessReport:
    if p.degree == 1:
        return StrictnessReport(True, None)
    exact = p.mode == RATIONAL
    (nums,), den = numerators(p.roots, exact=exact)
    gaps = _gaps(nums)
    gap = min(gaps)
    if exact:
        # the first smallest difference, a Fraction if either root is one
        i = gaps.index(gap)
        gap = (Fraction(gap, den) if isinstance(p.roots[i], Fraction)
               or isinstance(p.roots[i + 1], Fraction) else gap // den)
    return StrictnessReport(gap > 0, gap)


def is_strict(p: HyperbolicPoly) -> bool:
    (nums,), _ = numerators(p.roots, exact=p.mode == RATIONAL)
    return strict_numerators(nums)


def random_hyperbolic(rng: random.Random, n: int, bound: Scalar = 10,
                      min_gap: Scalar = Fraction(1, 2), mode: str = RATIONAL,
                      ) -> HyperbolicPoly:
    """Strictly hyperbolic polynomial with consecutive gaps >= min_gap."""
    if n < 1:
        raise InfeasibleGap("need n >= 1")
    span = 2 * bound - (n - 1) * min_gap
    if span < 0:
        raise InfeasibleGap(f"(n - 1) * min_gap exceeds 2 * bound by {-span}")
    if mode == RATIONAL:
        grid = 64
        raw = sorted(rng.randint(0, grid) for _ in range(n))
        # root i = -bound + span * raw[i] / grid + i * min_gap, on the
        # numerators b, s, g of bound, span and min_gap over one L
        ((b, s, g),), den = numerators((bound, span, min_gap))
        nums = sorted(grid * (i * g - b) + s * r for i, r in enumerate(raw))
        return HyperbolicPoly(tuple(Fraction(v, grid * den) for v in nums),
                              mode)
    raw = sorted(rng.random() for _ in range(n))
    base = [-float(bound) + float(span) * r for r in raw]
    roots = [base[i] + i * float(min_gap) for i in range(n)]
    return from_roots(roots, mode)


def eval_poly(coeffs: Sequence, x: Scalar) -> Scalar:
    acc = 0 * x
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc
