"""Interlacing-bisection root extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpoly import from_roots, matching_distance, real_roots
from specpoly.errors import DegreeZero, NotRealRooted
from specpoly.roots import (is_real_rooted, real_roots_separated,
                            real_roots_with_criticals, root_bound,
                            sturm_sequence)


def test_cubic_fixture():
    got = real_roots([-6, 11, -6, 1], tol=1e-11)
    assert matching_distance(got, (1, 2, 3)) < 1e-10


def test_linear():
    assert real_roots([0, 1]) == (0,)
    assert real_roots([-3, 2]) == (1.5,)


def test_quadratic_symmetric():
    assert matching_distance(real_roots([-1, 0, 1]), (-1, 1)) < 1e-12


def test_double_root():
    got = real_roots([1, -2, 1])
    assert matching_distance(got, (1, 1)) < 1e-8


def test_triple_root_with_simple():
    got = real_roots([0, 0, 0, -2, 1])
    assert matching_distance(got, (0, 0, 0, 2)) < 1e-8


def test_degree_zero_rejected():
    with pytest.raises(DegreeZero):
        real_roots([5])


def test_not_real_rooted():
    with pytest.raises(NotRealRooted):
        real_roots([1, 0, 1])
    with pytest.raises(NotRealRooted):
        real_roots([1, 0, 0, 0, 1])
    # (x^2 + 1e-6)(x - 1): a complex pair well above tolerance
    with pytest.raises(NotRealRooted):
        real_roots([-1e-6, 1e-6, -1.0, 1.0])


def test_close_pair_resolved():
    # distinct roots separated by 1e-6 are found individually
    got = real_roots(from_roots([1.0, 1.0 + 1e-6, 5.0]).coefficients())
    assert matching_distance(got, (1.0, 1.0 + 1e-6, 5.0)) < 1e-9


def test_root_bound_brackets_roots():
    p = from_roots([-9.5, -2, 0.5, 8])
    b = root_bound([float(c) for c in p.coefficients()])
    assert b > 9.5


def test_criticals_come_along():
    roots, crits = real_roots_with_criticals([-6, 11, -6, 1])
    assert len(crits) == 2
    assert roots[0] < crits[0] < roots[1] < crits[1] < roots[2]


def test_separated_roots_match_recursion():
    # (x-1)(x-2)(x-3) with separators 1.5 and 2.5
    got = real_roots_separated([-6, 11, -6, 1], (1.5, 2.5), tol=1e-12)
    assert matching_distance(got, (1, 2, 3)) < 1e-11
    assert real_roots_separated([-3, 2], ()) == (1.5,)


def test_separated_declines_a_root_on_a_separator():
    # the pencil of (x-1)^2 (x+2)(x-3) at lam = 1/2 vanishes exactly at
    # the critical point 1 of P: the brackets cannot be trusted
    pencil = [-11.5, 14.0, 1.5, -5.0, 1.0]
    assert real_roots_separated(pencil, (-1.2, 1.0, 2.4)) is None


def test_separated_declines_brackets_without_alternation():
    # two roots in one bracket, none in the next
    assert real_roots_separated([-6, 11, -6, 1], (2.5, 2.7)) is None
    # not real-rooted: x^2 + 1 has no sign change at all
    assert real_roots_separated([1, 0, 1], (0.0,)) is None


def test_separated_needs_n_minus_1_separators():
    with pytest.raises(ValueError):
        real_roots_separated([-6, 11, -6, 1], (1.5,))


def test_round_trip_well_separated():
    # degree up to 16; beyond ~1e-5 the monomial coefficients of such
    # polynomials no longer determine the roots in double precision, so
    # the bound here is the conditioning floor, not the bisection width
    rng = random.Random(20240817)
    for _ in range(150):
        n = rng.randint(1, 16)
        start = rng.uniform(-10, -8)
        roots = []
        for _ in range(n):
            start += rng.uniform(0.5, 18 / n)
            roots.append(start)
        p = from_roots(roots)
        got = real_roots(p.coefficients(), 1e-10 * 11)
        assert matching_distance(got, p.roots) < 1e-6


def test_round_trip_at_stated_separation():
    # the declared contract: separation >= 10 * tol gives accuracy tol
    rng = random.Random(7)
    tol = 1e-5
    for _ in range(200):
        n = rng.randint(1, 6)
        start = rng.uniform(-10, -8)
        roots = []
        for _ in range(n):
            start += rng.uniform(10 * tol, 18 / n)
            roots.append(start)
        p = from_roots(roots)
        got = real_roots(p.coefficients(), tol)
        assert matching_distance(got, p.roots) < tol


def test_scaling_insensitive():
    # non-monic input: same roots
    got = real_roots([12, -22, 12, -2])  # -2 (x-1)(x-2)(x-3)
    assert matching_distance(got, (1, 2, 3)) < 1e-9


# --- exact real-rootedness ------------------------------------------------------

def test_exact_real_rootedness_fixtures():
    assert is_real_rooted([-1, 0, 1])             # (x - 1)(x + 1)
    assert not is_real_rooted([1, 0, 1])          # x^2 + 1
    assert is_real_rooted([1, -2, 1])             # (x - 1)^2
    assert not is_real_rooted([1, 0, 2, 0, 1])    # (x^2 + 1)^2
    assert is_real_rooted([0, 0, 0, 5])           # 5 x^3
    assert is_real_rooted([7])                    # no roots at all
    assert is_real_rooted([0.5, -1.5, 1.0])       # floats read exactly
    with pytest.raises(DegreeZero):
        is_real_rooted([0, 0])


def test_sturm_sequence_ends_in_the_gcd_with_the_derivative():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2: gcd(P, P') is x - 1, up to a factor
    seq = sturm_sequence([2, -3, 0, 1])
    last = seq[-1]
    assert len(last) == 2 and last[0] == -last[1]
    assert all(isinstance(v, Fraction) for s in seq for v in s)


def _times(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


_small_fraction = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_small_fraction, st.integers(1, 3)), min_size=0,
                max_size=4),
       st.one_of(st.none(), st.tuples(_small_fraction, _small_fraction)),
       _small_fraction.filter(lambda v: v != 0))
def test_exact_test_knows_products_of_real_and_quadratic_factors(
        factors, quadratic, scale):
    # prod (x - r_i)^{m_i}, optionally times x^2 + bx + c with b^2 < 4c:
    # real-rooted exactly when the irreducible quadratic is absent
    poly = [scale]
    for root, mult in factors:
        for _ in range(mult):
            poly = _times(poly, [-root, Fraction(1)])
    if quadratic is not None:
        b, d = quadratic
        c = b * b / 4 + d * d + Fraction(1, 64)
        poly = _times(poly, [c, b, Fraction(1)])
    assert is_real_rooted(poly) == (quadratic is None)
