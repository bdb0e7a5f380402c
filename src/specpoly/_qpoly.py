"""Exact polynomials and root tuples as integer numerators over one
common denominator.

A ``QPoly`` stands for sum nums[k] x^k / den, low degree first, with
integer ``nums`` and a positive integer ``den`` kept canonical:
gcd(nums..., den) == 1, so every rational polynomial has one
representation (the content/primitive form of FLINT's ``fmpq_poly``).

Rational-mode coefficient work runs the library's scalar-generic loops
(products, derivatives, sums of multiples) on the integer ``nums`` alone
and carries the denominator beside them.  Each step is then a product of
machine-sized integers, where ``Fraction`` arithmetic would reduce by a
gcd after every operation; the kernel reduces once, when a result is
made canonical.  An exact coefficient vector stays a ``QPoly`` from the
expansion of a polynomial's roots (``HyperbolicPoly.coeff_vector``)
through the operator kernels of ``lpops`` into the root finder, which
takes the double of a coefficient as ``num / den``: correctly rounded,
so the same double as ``float(Fraction(num, den))``.  ``Fraction``
values are built only where a public function hands coefficients back
(``QPoly.fractions``).

Rational-mode root-tuple work (majorization, hinge probes, contraction
chains, doubly stochastic witnesses, random pair draws) does the same:
``numerators`` puts the tuples of one call over their least common
denominator L, the loops compare and add the integers value * L, and a
``Fraction`` is built only for a scalar that is handed back.  All-int
tuples are their own numerators, with L = 1.  Float mode runs the same
loops on its doubles with L = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


class QPoly:
    """sum nums[k] x^k / den in canonical form."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list, den: int = 1):
        if den < 0:
            nums = [-v for v in nums]
            den = -den
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        self.nums = nums
        self.den = den

    @classmethod
    def of(cls, values) -> "QPoly":
        """The exact polynomial with these coefficients (ints, Fractions,
        or floats read as the rationals they store); a QPoly as it is."""
        if isinstance(values, QPoly):
            return values
        # over the lcm of reduced denominators the form is already canonical
        q = cls.__new__(cls)
        (q.nums,), q.den = numerators(values)
        return q

    def __len__(self) -> int:
        return len(self.nums)

    def fractions(self) -> tuple:
        """The coefficients as a tuple of ``Fraction``."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)


def coeff_derivative(coeffs) -> tuple:
    """The coefficients of P', low degree first, in the scalars given:
    k a_k for k = 1..n (exact on ints and Fractions, one rounding each on
    floats)."""
    return tuple(map(mul, coeffs[1:], range(1, len(coeffs))))


def numerators(*tuples, exact: bool = True) -> tuple:
    """The tuples as lists of numerators over one denominator: ``(lists, L)``.

    Exact tuples (ints, Fractions, or floats read as the rationals they
    store) go over the least common denominator L of their entries, as
    integers value * L; all-int tuples are kept as they are, with L = 1,
    without a ratio per entry.  With ``exact=False`` the values are kept
    as they are and L is 1.
    """
    if not exact or _all_int(tuples):
        return [list(t) for t in tuples], 1
    ratios = [[v.as_integer_ratio() for v in t] for t in tuples]
    # star-args from a list: a generator here grows the tuple free lists
    den = math.lcm(*[d for r in ratios for _, d in r])
    return [[n * (den // d) for n, d in r] for r in ratios], den


def _all_int(tuples) -> bool:
    # exactly int, so a bool goes through as_integer_ratio and comes back
    # an int; a plain loop is the fastest test that stops at the first miss
    for t in tuples:
        for v in t:
            if type(v) is not int:
                return False
    return True


def is_exact_all(values) -> bool:
    """Whether every value is an int or a Fraction (no float); a QPoly
    always is."""
    return isinstance(values, QPoly) or all(
        isinstance(v, (int, Fraction)) for v in values)
