"""The integer kernel against plain scalar arithmetic.

Exact inputs (ints and Fractions) must give the values of the Fraction
loops in ``fraction_reference``, as Fractions; float inputs must give the
same doubles bit for bit, because float mode keeps its arithmetic.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from specpoly import (DiffOperator, LPFunction, appell, from_roots,
                      laguerre_closed_form, laguerre_ms, multiplier_apply)
from specpoly._qpoly import QPoly
from specpoly.lpops import gaussian_coeffs, monomial_image
from specpoly.poly import expand_from_roots
from specpoly.roots import is_real_rooted, sturm_sequence
from specpoly.scalars import FLOAT, RATIONAL

_fraction = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# ints stay ints: the kernel must take them as exact input too
_exact = st.one_of(st.integers(-30, 30), _fraction)
_small_exact = st.one_of(st.integers(-3, 3),
                         st.builds(Fraction, st.integers(-6, 6),
                                   st.integers(1, 4)))
_float = st.floats(-20, 20, allow_nan=False, allow_subnormal=False)


def _bits(values) -> list:
    # floats by their bit pattern, so that 0.0 and -0.0 differ
    assert all(isinstance(v, float) for v in values)
    return [v.hex() for v in values]


def _fractions(values) -> bool:
    return all(isinstance(v, Fraction) for v in values)


@settings(max_examples=200, deadline=None)
@given(st.lists(_exact, max_size=9))
def test_expand_matches_the_fraction_loop(roots):
    got = expand_from_roots(roots, RATIONAL)
    assert got == ref.expand_from_roots(roots, exact=True)
    assert _fractions(got) and got[-1] == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(_float, max_size=9))
def test_expand_keeps_float_arithmetic(roots):
    assert _bits(expand_from_roots(roots, FLOAT)) == _bits(
        ref.expand_from_roots(roots, exact=False))


_lp_params = st.tuples(
    _small_exact.filter(lambda v: v != 0), st.integers(0, 2), _small_exact,
    _small_exact, st.lists(_small_exact, max_size=4), st.integers(0, 10))
# wider draws for the exact closed form: more alphas and terms, a < 0 too
_wide_lp_params = st.tuples(
    _small_exact.filter(lambda v: v != 0), st.integers(0, 2), _small_exact,
    _small_exact, st.lists(_small_exact, max_size=6), st.integers(0, 16))


@settings(max_examples=200, deadline=None)
@given(_wide_lp_params)
def test_prefix_matches_the_fraction_loop(params):
    c, m, a, b, alphas, extra = params
    n = m + extra
    got = LPFunction(c, m, a, b, alphas).maclaurin_prefix(n)
    assert len(got) == n + 1
    assert got == ref.maclaurin_prefix(c, m, a, b, alphas, n)
    assert _fractions(got)


@settings(max_examples=150, deadline=None)
@given(_wide_lp_params, st.booleans())
def test_operator_from_function_is_the_constructor_built_one(params,
                                                             normalized):
    c, m, a, b, alphas, extra = params
    n = m + extra
    phi = LPFunction(c, m, a, b, alphas)
    op = DiffOperator.from_function(phi, n, normalized)
    built = DiffOperator(m, phi.maclaurin_prefix(n)[m:],
                         n if normalized else None)
    assert op == built and hash(op) == hash(built)
    exact, want = op.__dict__["_exact"], QPoly.of(op.coeffs)
    assert (exact.nums, exact.den) == (want.nums, want.den)
    if n > m:
        image = monomial_image(op, n)
        assert isinstance(image, QPoly)
        assert appell(phi, n, normalized) == image.fractions()
        assert image.fractions() == op.apply_coeffs((0,) * n + (1,))


def test_prefix_pads_to_the_requested_length():
    # no exponential, Gaussian or alpha factor: a_{m+1}..a_N are zeros
    assert LPFunction(1, 0).maclaurin_prefix(1) == (1, 0)
    assert LPFunction(2, 1).maclaurin_prefix(3) == (0, 2, 0, 0)
    # a float parameter is the rational it stores: the prefix is Fractions
    got = LPFunction(2.0, 1).maclaurin_prefix(2)
    assert got == (0, 2, 0) and _fractions(got)


_param_float = st.floats(-3, 3, allow_nan=False, allow_subnormal=False)


@settings(max_examples=100, deadline=None)
@given(st.tuples(_param_float.filter(lambda v: v != 0), st.integers(0, 2),
                 _param_float, _param_float,
                 st.lists(_param_float, max_size=4), st.integers(0, 10)),
       st.booleans(), st.integers(1, 4), st.integers(1, 6))
def test_float_parameters_are_their_fractions(params, normalized, j, n_j):
    c, m, a, b, alphas, extra = params
    n = m + extra
    phi = LPFunction(c, m, a, b, alphas)
    read = (Fraction(c), m, Fraction(a), Fraction(b),
            [Fraction(v) for v in alphas])
    same = LPFunction(*read)
    assert phi == same and hash(phi) == hash(same)
    got = phi.maclaurin_prefix(n)
    assert got == ref.maclaurin_prefix(*read, n)
    assert _fractions(got)
    op = DiffOperator.from_function(phi, n, normalized)
    want = DiffOperator.from_function(same, n, normalized)
    assert op == want and hash(op) == hash(want)
    approx = phi.approximant(j, n_j)
    assert approx == same.approximant(j, n_j) and _fractions(approx)


_operator = st.tuples(st.integers(0, 3),
                      st.lists(_exact, min_size=1, max_size=9),
                      st.lists(_exact, max_size=10), st.booleans())


@settings(max_examples=200, deadline=None)
@given(_operator)
def test_apply_coeffs_matches_the_fraction_loop(case):
    # zero coefficients, int inputs and n < m collapses all included
    order, coeffs, pc, normalized = case
    assume(coeffs[0] != 0)
    norm = max(len(pc) - 1, order) if normalized else None
    got = DiffOperator(order, coeffs, norm).apply_coeffs(pc)
    want = ref.apply_coeffs(order, [Fraction(v) for v in coeffs], pc, norm)
    assert got == want
    assert _fractions(got)


@settings(max_examples=150, deadline=None)
@given(_operator)
def test_apply_coeffs_keeps_float_arithmetic(case):
    order, coeffs, pc, normalized = case
    coeffs = [float(v) for v in coeffs]
    pc = [float(v) for v in pc]
    assume(coeffs[0] != 0 and pc)
    norm = max(len(pc) - 1, order) if normalized else None
    got = DiffOperator(order, coeffs, norm).apply_coeffs(pc)
    assert _bits(got) == _bits(ref.apply_coeffs(order, coeffs, pc, norm))


@settings(max_examples=100, deadline=None)
@given(_operator)
def test_monomial_image_keeps_float_arithmetic(case):
    order, coeffs, pc, normalized = case
    coeffs = [float(v) for v in coeffs]
    assume(coeffs[0] != 0)
    n = len(pc)
    norm = max(n, order) if normalized else None
    got = monomial_image(DiffOperator(order, coeffs, norm), n)
    assert _bits(got) == _bits(ref.apply_coeffs(order, coeffs,
                                                (0.0,) * n + (1.0,), norm))


@settings(max_examples=200, deadline=None)
@given(st.lists(_exact, min_size=1, max_size=9), _small_exact)
def test_gaussian_matches_the_fraction_loop(roots, a):
    p = from_roots(roots)
    got = gaussian_coeffs(p, a)
    assert got == ref.gaussian_coeffs(p.coefficients(), Fraction(a))
    assert _fractions(got)


@settings(max_examples=100, deadline=None)
@given(st.lists(_float, min_size=1, max_size=9), _float)
def test_gaussian_keeps_float_arithmetic(roots, a):
    p = from_roots(roots, FLOAT)
    assert _bits(gaussian_coeffs(p, a)) == _bits(
        ref.gaussian_coeffs(p.coefficients(), a))


@settings(max_examples=200, deadline=None)
@given(st.lists(_exact, min_size=1, max_size=9))
def test_sturm_sequence_matches_the_fraction_loop(coeffs):
    assume(any(coeffs))
    want = ref.sturm_sequence(coeffs)
    assert sturm_sequence(coeffs) == want
    # the same verdict as Sturm's count on the Fraction sequence
    at_plus = [s[-1] > 0 for s in want]
    at_minus = [(s[-1] > 0) == (len(s) % 2 == 1) for s in want]

    def variations(signs):
        return sum(u != v for u, v in zip(signs, signs[1:]))
    distinct = len(want[0]) - len(want[-1])
    assert is_real_rooted(coeffs) == (
        variations(at_minus) - variations(at_plus) == distinct)


@settings(max_examples=200, deadline=None)
@given(st.lists(_exact, min_size=1, max_size=9),
       st.lists(_exact, min_size=1, max_size=9), st.booleans())
def test_multiplier_apply_is_the_coefficientwise_product(gammas, pc,
                                                          normalized):
    n = len(pc) - 1
    g = [Fraction(v) for v in gammas[:n + 1]]
    g += [Fraction(0)] * (n + 1 - len(g))
    assume(not normalized or g[n] != 0)
    top = g[n] if normalized else 1
    got = multiplier_apply(gammas, pc, n, normalized=normalized)
    assert got == tuple(gk / top * pk for gk, pk in zip(g, pc))
    assert _fractions(got)


@settings(max_examples=100, deadline=None)
@given(st.lists(_float, min_size=1, max_size=9),
       st.lists(_float, min_size=1, max_size=9))
def test_normalized_multiplier_keeps_float_arithmetic(gammas, pc):
    n = len(pc) - 1
    g = gammas[:n + 1] + [0.0] * (n + 1 - len(gammas))
    assume(g[n] != 0)
    got = multiplier_apply(gammas, pc, n, normalized=True)
    assert _bits(got) == _bits([gk / g[n] * pk for gk, pk in zip(g, pc)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2),
       st.lists(_float, min_size=1, max_size=9))
def test_laguerre_closed_form_keeps_float_arithmetic(m, p, pc):
    # x^{m-p} [x^p P]^{(m)}: m derivatives of the shifted vector, padded
    # with zeros of the input's sign, pc[0] * 0
    assume(len(pc) - 1 >= m - p)
    zero = pc[0] * 0
    work = [zero] * p + pc
    for _ in range(m):
        work = ref.derivative(work)
    want = [zero] * (m - p) + work if m >= p else work[p - m:]
    assert _bits(laguerre_closed_form(m, p, pc)) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2),
       st.lists(_exact, min_size=1, max_size=9))
def test_laguerre_closed_form_is_the_multiplier_sequence(m, p, pc):
    n = len(pc) - 1
    assume(n >= m - p)
    got = laguerre_closed_form(m, p, pc)
    assert got == multiplier_apply(laguerre_ms(m, p, n + 1), pc, n)
    assert _fractions(got)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=8),
       st.integers(-2 ** 120, 2 ** 120).filter(lambda v: v != 0))
def test_canonical_form(nums, den):
    q = QPoly(nums, den)
    assert q.den > 0
    assert math.gcd(q.den, *q.nums) == 1
    assert q.fractions() == tuple(Fraction(v, den) for v in nums)
    again = QPoly.of(q.fractions())
    assert (again.nums, again.den) == (q.nums, q.den)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.lists(_exact, min_size=1, max_size=9),
       st.lists(st.one_of(_exact, st.builds(Fraction,
                                            st.integers(-2 ** 90, 2 ** 90),
                                            st.integers(1, 2 ** 70))),
                min_size=1, max_size=10))
def test_image_floats_are_num_over_den_correctly_rounded(order, coeffs, pc):
    # the root finder reads float(Fraction); num / den is the same double
    assume(coeffs[0] != 0)
    image = QPoly.of(DiffOperator(order, coeffs).apply_coeffs(pc))
    for num in image.nums:
        assert num / image.den == float(Fraction(num, image.den))


def test_float_reads_exactly():
    q = QPoly.of([0.1, 2])
    assert q.fractions() == (Fraction(0.1), Fraction(2))


def test_zero_polynomial_is_canonical():
    q = QPoly([0, 0], 6)
    assert (q.nums, q.den) == ([0, 0], 1)
