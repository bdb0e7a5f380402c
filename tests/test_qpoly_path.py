"""The exact coefficient path against the public Fraction boundary.

A rational polynomial hands its coefficients to the operator kernels and
to the root finder as a ``QPoly``; only the public functions turn them
into ``Fraction`` values.  Every exact kernel must give the same
coefficients on both forms, each double must be the ``float(Fraction)``
of its coefficient, and the root finder must return the same roots, bit
for bit, on a ``QPoly`` as on the Fractions it stands for.
"""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from specpoly import (DiffOperator, LPFunction, MultiplierSequence,
                      derivative, from_roots, laguerre_closed_form,
                      laguerre_ms, multiplier_apply)
from specpoly._qpoly import QPoly
from specpoly.errors import NonFinite, SpecPolyError
from specpoly.lpops import _gaussian, gaussian_coeffs
from specpoly.poly import exact_expansion, expand_from_roots
from specpoly.roots import real_roots, real_roots_near
from specpoly.scalars import RATIONAL

TOL = 1e-11

_root = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))
_small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# rational p with k extra roots at 0, so that images keep an x^k factor
_polys = st.builds(
    lambda roots, zeros: from_roots(roots + [Fraction(0)] * zeros, RATIONAL),
    st.lists(_root, min_size=1, max_size=8), st.integers(0, 3))


def _answer(coeffs, seeds):
    # the root finder's roots by their bits, or the error it raises
    try:
        return [v.hex() for v in real_roots_near(coeffs, seeds, TOL)]
    except SpecPolyError as exc:
        return type(exc).__name__


def _same_both_ways(exact, public, seeds):
    # the QPoly image and the public Fraction image agree: coefficients,
    # doubles, and the root finder's answer
    assert isinstance(exact, QPoly)
    assert all(isinstance(v, Fraction) for v in public)
    assert exact.fractions() == public
    for num in exact.nums:
        assert num / exact.den == float(Fraction(num, exact.den))
    assert _answer(exact, seeds) == _answer(public, seeds)


def _check_image(image, p):
    _same_both_ways(image(p.coeff_vector()), image(p.coefficients()),
                    p.roots)


@settings(max_examples=100, deadline=None)
@given(_polys)
def test_expansion(p):
    vector = p.coeff_vector()
    again = exact_expansion(p.roots)
    assert (vector.nums, vector.den) == (again.nums, again.den)
    assert QPoly.of(vector) is vector
    _same_both_ways(vector, expand_from_roots(p.roots, RATIONAL), p.roots)
    assert p.coefficients() == vector.fractions()


@settings(max_examples=100, deadline=None)
@given(_polys, _small.filter(lambda v: v != 0), st.integers(0, 2), _small,
       _small, st.lists(_small, max_size=3), st.booleans())
def test_operator_images(p, c, m, a, b, alphas, normalized):
    assume(p.degree > m)
    op = DiffOperator.from_function(LPFunction(c, m, a, b, alphas),
                                    p.degree, normalized)
    _check_image(op.apply_coeffs, p)


def _jensen_gammas(zeros, sign, n):
    # a diagonal preserver: gamma_k = [x^k] prod (x + sign r) / C(n, k)
    jensen = expand_from_roots([-sign * r for r in zeros], RATIONAL)
    return [v / math.comb(n, k) for k, v in enumerate(jensen)]


@settings(max_examples=100, deadline=None)
@given(_polys, st.lists(st.builds(Fraction, st.integers(0, 8),
                                  st.integers(1, 4)),
                        min_size=11, max_size=11),
       st.sampled_from([1, -1]), st.booleans(), st.booleans())
def test_multiplier_images(p, zeros, sign, normalized, as_sequence):
    # a zero at 0 makes gamma_0 = 0, an image with an x factor
    n = p.degree
    gammas = _jensen_gammas(zeros[:n], sign, n)
    seq = MultiplierSequence(gammas) if as_sequence else gammas
    _check_image(partial(multiplier_apply, seq, normalized=normalized), p)


@settings(max_examples=100, deadline=None)
@given(_polys, st.integers(1, 3), st.integers(0, 2))
def test_laguerre_images(p, m, shift):
    # H(k + shift) for H(x) = x (x - 1) .. (x - m + 1): the image is
    # x^(m - shift) [x^shift P]^(m), with an x factor when m > shift
    n = p.degree
    assume(n + shift > m)
    seq = laguerre_ms(m, shift, n + 1)
    _check_image(partial(multiplier_apply, seq, normalized=True), p)
    _check_image(partial(multiplier_apply, seq), p)
    _check_image(partial(laguerre_closed_form, m, shift), p)
    via_seq = multiplier_apply(seq, p.coeff_vector())
    closed = laguerre_closed_form(m, shift, p.coeff_vector())
    assert (via_seq.nums, via_seq.den) == (closed.nums, closed.den)


@settings(max_examples=100, deadline=None)
@given(_polys, st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)))
def test_gaussian_images(p, a):
    _same_both_ways(_gaussian(p, a), gaussian_coeffs(p, a), p.roots)


@settings(max_examples=60, deadline=None)
@given(_polys)
def test_derivative_roots(p):
    # P'/n from its QPoly, bit for bit the roots of its Fractions seeded
    # by the same bracket ends, and each within tol/2 of a root of them
    n = p.degree
    assume(n >= 2)
    dc = [c * k / n for k, c in enumerate(p.coefficients()) if k >= 1]
    want = real_roots_near(dc, p.to_float().roots, TOL)
    got = derivative(p, TOL).roots
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert ref.roots_within(dc, got, TOL)


def test_a_coefficient_beyond_double_range_is_refused():
    huge = QPoly([1, 10 ** 400])
    with pytest.raises(NonFinite):
        real_roots_near(huge, [0.0])
    with pytest.raises(NonFinite):
        real_roots(huge)
    # through a kernel: gamma_1 = 10^400 scales the top coefficient
    image = multiplier_apply([1, Fraction(10) ** 400],
                             from_roots([Fraction(1, 2)]).coeff_vector())
    assert isinstance(image, QPoly)
    with pytest.raises(NonFinite):
        real_roots_near(image, [0.5])


def test_a_seed_beyond_double_range_is_refused():
    with pytest.raises(NonFinite):
        real_roots_near([-1.0, 1.0], [Fraction(10) ** 400])
    with pytest.raises(NonFinite):
        real_roots_near(QPoly([-1, 1]), [-Fraction(10) ** 400])
