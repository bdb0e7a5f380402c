"""Root-space representation: construction, shifts, perturbation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpoly import (FLOAT, RATIONAL, derivative, from_roots, is_strict,
                      matching_distance, strict_perturb, strictness,
                      taylor_shift, to_coefficients)
from specpoly.errors import (DegreeTooSmall, EmptyTuple, NonFinite,
                             NonPositiveEps)
from specpoly.poly import eval_poly


def test_from_roots_sorts_and_expands():
    p = from_roots([3, 1, 2])
    assert p.roots == (1, 2, 3)
    assert to_coefficients(p) == (-6, 11, -6, 1)


def test_from_roots_single_zero():
    p = from_roots([0])
    assert p.coefficients() == (0, 1)


def test_from_roots_double_root():
    p = from_roots([Fraction(5, 2), Fraction(5, 2)])
    assert p.roots == (Fraction(5, 2), Fraction(5, 2))
    assert p.coefficients() == (Fraction(25, 4), -5, 1)


def test_from_roots_rejects_empty_and_nonfinite():
    with pytest.raises(EmptyTuple):
        from_roots([])
    with pytest.raises(NonFinite):
        from_roots([1.0, float("nan")])
    with pytest.raises(NonFinite):
        from_roots([float("inf")])


def test_mode_inference():
    assert from_roots([1, 2]).mode == RATIONAL
    assert from_roots([1.0, 2]).mode == FLOAT
    assert from_roots([1, 2], mode=FLOAT).roots == (1.0, 2.0)


def test_coefficients_all_zero_roots():
    p = from_roots([0] * 5)
    assert p.coefficients() == (0, 0, 0, 0, 0, 1)


def test_coefficients_symmetric_roots():
    assert from_roots([-1, 1]).coefficients() == (-1, 0, 1)


def test_derivative_midpoint():
    d = derivative(from_roots([0, 4]))
    assert d.degree == 1
    assert abs(d.roots[0] - 2) < 1e-9


def test_derivative_double_root():
    d = derivative(from_roots([3.0, 3.0]))
    assert abs(d.roots[0] - 3) < 1e-9


def test_derivative_cubic():
    d = derivative(from_roots([-1, 0, 1]))
    w = 3 ** -0.5
    assert matching_distance(d.roots, (-w, w)) < 1e-9


def test_derivative_interlaces():
    p = from_roots([-3, -1, 2, 7, 11])
    d = derivative(p)
    for j, w in enumerate(d.roots):
        assert p.roots[j] < w < p.roots[j + 1]


def test_derivative_degree_one_rejected():
    with pytest.raises(DegreeTooSmall):
        derivative(from_roots([1]))


def test_taylor_shift_translates_roots():
    p = taylor_shift(from_roots([1, 2]), 1)
    assert p.roots == (0, 1)
    assert taylor_shift(from_roots([0]), -3).roots == (3,)


def test_taylor_shift_identity_and_inverse():
    p = from_roots([Fraction(1, 3), 2, 7])
    assert taylor_shift(p, 0).roots == p.roots
    lam = Fraction(5, 7)
    assert taylor_shift(taylor_shift(p, lam), -lam).roots == p.roots


def test_taylor_shift_matches_coefficient_shift():
    p = from_roots([1, 4, 6])
    q = taylor_shift(p, 2)
    # q(x) = p(x + 2)
    for x in (-3, 0, Fraction(1, 2), 5):
        assert eval_poly(q.coefficients(), x) == eval_poly(p.coefficients(), x + 2)


def test_strict_perturb_n2():
    p = strict_perturb(from_roots([0, 0]), 1)
    assert p.roots == (-1, 1)


def test_strict_perturb_n3():
    p = strict_perturb(from_roots([0, 0, 0]), 1)
    assert p.roots == (-2, -1, 3)


def test_strict_perturb_preserves_sum_exactly():
    p = from_roots([Fraction(1, 3), Fraction(1, 3), 5, 5, 5])
    q = strict_perturb(p, Fraction(1, 100))
    assert sum(q.roots) == sum(p.roots)
    assert strictness(q).is_strict


def test_strict_perturb_converges():
    p = from_roots([1, 2, 4])
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        d = matching_distance(strict_perturb(p, eps).roots, p.roots)
        assert d <= 3 * eps


def test_strict_perturb_rejects_nonpositive():
    with pytest.raises(NonPositiveEps):
        strict_perturb(from_roots([0, 0]), 0)


def test_strictness_report():
    r = strictness(from_roots([1, 2, 2]))
    assert not r.is_strict and r.min_gap == 0
    r2 = strictness(from_roots([1, 3]))
    assert r2.is_strict and r2.min_gap == 2
    assert strictness(from_roots([7])).is_strict


@given(st.lists(st.one_of(st.integers(-4, 4),
                          st.builds(Fraction, st.integers(-8, 8),
                                    st.integers(1, 3)),
                          st.sampled_from([-1.5, 0.0, 0.5, 2.0])),
                min_size=1, max_size=6))
def test_is_strict_means_pairwise_distinct(roots):
    p = from_roots(roots)
    assert is_strict(p) == (len(set(p.roots)) == len(p.roots))
    assert is_strict(p) == strictness(p).is_strict


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=8))
def test_expansion_evaluates_to_zero_at_roots(roots):
    p = from_roots(roots)
    for r in set(roots):
        assert eval_poly(p.coefficients(), Fraction(r)) == 0


@settings(max_examples=50)
@given(st.lists(st.fractions(min_value=-10, max_value=10), min_size=1,
                max_size=6),
       st.fractions(min_value=-5, max_value=5))
def test_shift_round_trip_exact(roots, lam):
    p = from_roots(roots)
    assert taylor_shift(taylor_shift(p, lam), -lam).roots == p.roots
