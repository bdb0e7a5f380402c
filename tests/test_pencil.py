"""Pencil trajectories and the up-down monotonicity of partial sums."""

import math
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
import specpoly.pencil
import specpoly.roots
from specpoly import (Verdict, from_roots, pencil_at,
                      pencil_majorization_check, scan_monotonicity)
from specpoly.errors import DegreeMismatch
from specpoly.harness import ROOT_TOL, random_hyperbolic
from specpoly.lpops import shift_pencil, shift_pencil_coeffs
from specpoly.pencil import (default_grid, pencil_brackets, pencil_coeffs,
                             pencil_path)
from specpoly.poly import coeff_derivative
from specpoly.roots import real_roots, real_roots_with_criticals


def test_pencil_coeffs_x_squared():
    p = from_roots([0.0, 0.0])
    assert pencil_coeffs(p, 3.0) == (0.0, -6.0, 1.0)


def test_pencil_sample_x_squared():
    p = from_roots([0.0, 0.0])
    for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
        s = pencil_at(p, lam)
        expect = tuple(sorted((0.0, 2 * lam)))
        assert max(abs(a - b) for a, b in zip(s.roots, expect)) < 1e-9
        assert abs(s.partial_sums[0] - (-abs(lam))) < 1e-9
        assert abs(s.partial_sums[1]) < 1e-9


def test_pencil_sample_shifted_quadratic():
    p = from_roots([-1.0, 1.0])
    s = pencil_at(p, 1.0)   # x^2 - 2x - 1, roots 1 +- sqrt(2)
    expect = (1 - math.sqrt(2), 1 + math.sqrt(2))
    assert max(abs(a - b) for a, b in zip(s.roots, expect)) < 1e-9
    assert abs(s.partial_sums[-1] - 0.0) < 1e-9


def test_pencil_at_lambda_zero_recovers_roots():
    p = from_roots([-2.0, 0.5, 3.0])
    s = pencil_at(p, 0.0)
    assert max(abs(a - b) for a, b in zip(s.roots, p.roots)) < 1e-8
    assert s.interlaces()


def test_interlacing_along_pencil():
    rng = random.Random(17)
    for _ in range(30):
        p = random_hyperbolic(rng, rng.randint(2, 7), bound=5, mode="float",
                              min_gap=0.3)
        for lam in (-4.0, -0.5, 0.0, 0.5, 4.0):
            assert pencil_at(p, lam, tol=1e-12).interlaces()


def test_scan_x_squared_zero_violations():
    p = from_roots([0.0, 0.0])
    report = scan_monotonicity(p, (-2.0, -1.0, 0.0, 1.0, 2.0))
    assert report.worst_violation < 1e-9   # extraction noise only
    assert report.fn_drift < 1e-9


def test_scan_requires_sorted_grid_with_zero():
    p = from_roots([0.0, 1.0])
    with pytest.raises(ValueError):
        scan_monotonicity(p, (1.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        scan_monotonicity(p, (-1.0, 1.0))


def test_scan_random_polys():
    rng = random.Random(23)
    for _ in range(20):
        p = random_hyperbolic(rng, rng.randint(2, 8), bound=5, mode="float",
                              min_gap=0.3)
        grid = default_grid(p, 101)
        report = scan_monotonicity(p, grid, tol=1e-11)
        assert report.worst_violation <= 1e-7
        scale = 1.0 + sum(abs(r) for r in p.roots)
        assert report.fn_drift <= 1e-8 * scale


def test_fm_concavity_probe_informational():
    # second differences of f_m over a uniform grid stay below tolerance;
    # this mirrors a known sharpening and is informational only
    rng = random.Random(29)
    p = random_hyperbolic(rng, 5, bound=4, mode="float", min_gap=0.4)
    grid = default_grid(p, 81)
    samples = [pencil_at(p, g, tol=1e-12) for g in grid]
    for m in range(1, p.degree):
        vals = [s.partial_sums[m - 1] for s in samples]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1]
                  for i in range(1, len(vals) - 1)]
        assert max(second) <= 1e-7


def test_default_grid_shape():
    p = from_roots([-3.0, 7.0])
    grid = default_grid(p, 201)
    assert len(grid) == 201
    assert grid[0] == -grid[-1] == -(1 + 2 * 7.0)
    assert 0.0 in grid


def test_pencil_majorization_fixture():
    p = from_roots([0.0, 4.0])
    q = from_roots([1.0, 3.0])
    cert = pencil_majorization_check(p, q, 1.0)
    assert cert.verdict is Verdict.LESS
    # pencils at lam=1: x^2-6x+4 (roots 3 +- sqrt 5) vs x^2-6x+7
    # (roots 3 +- sqrt 2); top-root slack is sqrt(5) - sqrt(2)
    assert abs(float(cert.slacks[0])
               - (math.sqrt(5) - math.sqrt(2))) < 1e-8
    assert abs(float(cert.sum_residual)) < 1e-9


def test_pencil_majorization_reduces_at_zero():
    p = from_roots([0.0, 2.0, 7.0])
    q = from_roots([1.0, 2.0, 6.0])
    cert = pencil_majorization_check(p, q, 0.0)
    assert cert.verdict is Verdict.LESS


def test_pencil_majorization_equal_inputs():
    p = from_roots([0.0, 4.0])
    for lam in (-3.0, 0.0, 2.5):
        assert pencil_majorization_check(p, p, lam).verdict is Verdict.EQUAL


def test_pencil_majorization_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        pencil_majorization_check(from_roots([0.0]), from_roots([0.0, 1.0]), 1.0)


# --- fixed brackets against real_roots -----------------------------------------

def _roundoff_zone(coeffs, root) -> float:
    # half-width of the interval around a simple root where Horner's sign
    # is not trustworthy: the roots module's zero test over |P'(root)|
    magnitude = sum(abs(c) * abs(root) ** k for k, c in enumerate(coeffs))
    value_bound = 8.0 * (len(coeffs) - 1) * math.ulp(1.0) * magnitude
    slope = sum(c * root ** k
                for k, c in enumerate(coeff_derivative(coeffs)))
    return value_bound / abs(slope)


def _assert_close(got, want, coeffs, tol):
    # Both answers bisect the same sign change to a bracket of width tol
    # and return its midpoint, so each sits within tol/2 of the last point
    # where Horner's sign flips; that point can move across the roundoff
    # zone.  Hence tol + 2 * zone: sampling 1500 polynomials x 21 lambdas
    # on default grids gave at most 0.96 x tol, and zones up to 1.9e-9 at
    # large |lambda|.  A root taken from a wrong bracket would be off by
    # about a root gap (>= 1e-3 here), far above the bound.
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # equal answers need no zone (a multiple root of the coefficients
        # has none)
        assert a == b or abs(a - b) <= tol + 2.0 * _roundoff_zone(coeffs, b)


def test_lambda_zero_roots_are_those_of_p():
    # at lam = 0 the pencil is P, and its outer bracket is empty: the
    # starts are the lowest root of P and the midpoints of the others, and
    # every root is within tol/2 of a root of P's coefficients, the bound
    # real_roots keeps
    rng = random.Random(31)
    for _ in range(50):
        p = random_hyperbolic(rng, rng.randint(1, 10), bound=8, mode="float",
                              min_gap=0.5)
        coeffs = p.coefficients()
        assert pencil_coeffs(p, 0.0) == tuple(coeffs)
        got = pencil_at(p, 0.0, 1e-11).roots
        assert ref.roots_within(coeffs, got, 1e-11)
        assert max(abs(a - b) for a, b in zip(got, real_roots(
            coeffs, 1e-11))) <= 1e-11


def _record_calls(monkeypatch, module, *names):
    # wrap root finders as the module calls them (positional args), into
    # one list
    calls = []
    for name in names:
        real = getattr(module, name)

        def recorded(*args, real=real):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, name, recorded)
    return calls


def _record_fallbacks(monkeypatch):
    # real_roots_near's fallbacks: real_roots, for fewer seeds than the
    # degree, and the exact terminal, for what neither Newton pass proves
    return _record_calls(monkeypatch, specpoly.roots, "real_roots",
                         "_isolated")


@pytest.mark.parametrize("lam", [-0.5, 0.5])
def test_double_root_pencil(monkeypatch, lam):
    # 1 is a double root of P and a simple root of every pencil.  It gives
    # two equal bracket ends, whose midpoint is a start on the critical
    # point 1 of P; the sample's roots and its critical points need no
    # fallback, and each is within tol/2 of a root of its coefficients as
    # given, where real_roots_with_criticals answers within tol/2 too
    fallback = _record_fallbacks(monkeypatch)
    p = from_roots([1.0, 1.0, -2.0, 3.0])
    sample = pencil_at(p, lam, 1e-11)
    coeffs = pencil_coeffs(p, lam)
    criticals = sample.criticals
    assert fallback == []
    assert ref.roots_within(coeffs, sample.roots, 1e-11)
    assert ref.roots_within(coeff_derivative(coeffs), criticals, 1e-11)
    roots, crits = real_roots_with_criticals(coeffs, 1e-11)
    assert sum(abs(r - 1.0) < 1e-6 for r in sample.roots) == 1
    assert max(abs(a - b) for a, b in zip(sample.roots, roots)) <= 1e-11
    assert max(abs(a - b) for a, b in zip(criticals, crits)) <= 1e-11
    assert sample.interlaces()


def test_double_root_is_exact_at_the_separator(monkeypatch):
    # P = x^2: the critical point 0 is exact and a root of every pencil,
    # whose constant coefficient is exactly 0: that root comes back as an
    # exact 0.0, with no fallback
    fallback = _record_fallbacks(monkeypatch)
    p = from_roots([0.0, 0.0])
    sample = pencil_at(p, 1.5)
    assert fallback == []
    assert sample.roots[0] == 0.0
    assert ref.roots_within(pencil_coeffs(p, 1.5), sample.roots, 1e-11)


def test_rational_poly_reuses_float_twin_brackets(monkeypatch):
    # a rational P is sampled from its exact pencil coefficients, seeded
    # by the bracket ends cut by the roots of its float twin; they hold,
    # so real_roots never answers, and every root is within tol/2 of a
    # root of the exact pencil
    fallback = _record_fallbacks(monkeypatch)
    seeded = _record_calls(monkeypatch, specpoly.pencil, "real_roots_near")
    p = from_roots([Fraction(-3), Fraction(1, 2), Fraction(2), Fraction(5)])
    assert p.to_float() is p.to_float()
    first = pencil_at(p, -1.0, 1e-11)
    second = pencil_at(p, 2.0, 1e-11)
    assert [args[:2] for args in seeded] == [
        (pencil_coeffs(p, lam), pencil_brackets(p.to_float().roots, lam))
        for lam in (-1.0, 2.0)]
    assert all(isinstance(c, Fraction) for args in seeded for c in args[0])
    for sample in (first, second):
        assert ref.roots_within(sample.coeffs, sample.roots, 1e-11)
        assert sample.interlaces()
    scan_monotonicity(p, (-1.0, 0.0, 1.0))
    assert fallback == []


def test_criticals_are_computed_on_first_read(monkeypatch):
    fallback = _record_fallbacks(monkeypatch)
    seeded = _record_calls(monkeypatch, specpoly.pencil, "real_roots_near")
    sample = pencil_at(from_roots([-2.0, 0.5, 3.0]), 1.0, 1e-11)
    assert [len(args[0]) for args in seeded] == [4]    # the roots only
    crits = sample.criticals
    assert [len(args[0]) for args in seeded] == [4, 3]
    assert seeded[1][1] == sample.roots
    assert sample.criticals is crits
    assert ref.roots_within(coeff_derivative(sample.coeffs), crits, 1e-11)
    assert fallback == []


# --- continuation along lambda ---------------------------------------------------

def _ordered(grid, order, rng):
    lams = list(grid)
    if order == "decreasing":
        lams.reverse()
    elif order == "unsorted":
        rng.shuffle(lams)
    elif order == "repeated":
        lams = [lam for lam in lams for _ in range(rng.randint(1, 3))]
    return lams


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["increasing", "decreasing", "unsorted", "repeated"]))
def test_path_agrees_with_one_shot_samples(n, seed, order):
    # both are within tol/2 of the same root of the rounded coefficients
    tol = 1e-11
    rng = random.Random(seed)
    p = random_hyperbolic(rng, n, bound=5, mode="float", min_gap=0.25)
    lams = _ordered(default_grid(p, 21), order, rng)
    samples = pencil_path(p, lams, tol)
    assert [s.lam for s in samples] == lams
    for sample in samples:
        want = pencil_at(p, sample.lam, tol)
        assert len(sample.roots) == n
        assert max(abs(a - b) for a, b in zip(sample.roots, want.roots)) <= tol
        assert sample.partial_sums[-1] == pytest.approx(
            want.partial_sums[-1], abs=n * tol)


def test_path_continues_from_one_sample_to_the_next(monkeypatch):
    # a strictly hyperbolic P is sampled from the roots of P at lam = 0
    # outward: one real_roots_near call per distinct lam, each with one
    # start per root (no bracket ends, and no criticals computed), no
    # fallback on real_roots, and every root within tol/2 of a root of
    # its pencil's coefficients
    seeded = _record_calls(monkeypatch, specpoly.pencil, "real_roots_near")
    fallback = _record_fallbacks(monkeypatch)
    p = from_roots([-4.0, -1.5, 0.5, 2.0, 3.25, 6.0])
    for lams in (default_grid(p, 41), default_grid(p, 41)[::-1],
                 (3.0, -2.0, 0.5, 7.0, -9.0, 0.5)):
        seeded.clear()
        samples = pencil_path(p, lams, 1e-11)
        assert sorted(pencil_coeffs(p, lam) for lam in set(lams)) == sorted(
            coeffs for coeffs, _, _ in seeded)
        for coeffs, starts, tol in seeded:
            assert len(starts) == p.degree
        for sample in samples:
            assert ref.roots_within(sample.coeffs, sample.roots, 1e-11)
    assert fallback == []


def _grid_without_zero(rng, shape):
    # an even count of points, symmetric about 0 (as ``specpoly pencil
    # scan`` spaces them), or on one side of it; sorted or shuffled
    span = rng.uniform(0.5, 12.0)
    count = 2 * rng.randint(1, 6)
    if shape == "one-sided":
        sign = rng.choice((-1.0, 1.0))
        lams = [sign * span * k / count for k in range(1, count + 1)]
    else:
        lams = [-span + 2.0 * span * k / (count - 1) for k in range(count)]
    if rng.random() < 0.5:
        rng.shuffle(lams)
    return lams


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["symmetric", "one-sided"]))
def test_path_without_zero_in_the_grid(n, seed, shape):
    # the roots of P seed the first sample on each side; every sample is
    # within tol of pencil_at's and, by the exact oracle, within tol/2 (and
    # a spacing) of a root of the same rounded coefficients
    tol = 1e-11
    rng = random.Random(seed)
    p = random_hyperbolic(rng, n, bound=5, mode="float", min_gap=0.25)
    lams = _grid_without_zero(rng, shape)
    assert 0.0 not in lams
    samples = pencil_path(p, lams, tol)
    assert [s.lam for s in samples] == lams
    for sample in samples:
        want = pencil_at(p, sample.lam, tol)
        assert max(abs(a - b) for a, b in zip(sample.roots, want.roots)) <= tol
        coeffs = pencil_coeffs(p, sample.lam)
        assert ref.roots_within(coeffs, sample.roots, tol)


def test_path_criticals_are_those_of_pencil_at(monkeypatch):
    # a path sample's criticals are found on their first read, seeded by
    # the sample's own roots, which bracket them, and not at all when no
    # sample's criticals are read; each is within tol/2 of a root of the
    # derivative of the sample's coefficients, and so within tol of
    # pencil_at's
    seeded = _record_calls(monkeypatch, specpoly.pencil, "real_roots_near")
    p = from_roots([-2.0, 0.5, 1.0, 3.0])
    samples = pencil_path(p, (-3.0, -0.5, 0.0, 1.5, 4.0), 1e-11)
    assert all(len(args[0]) == p.degree + 1 for args in seeded)
    for sample in samples:
        want = pencil_at(p, sample.lam, 1e-11).criticals
        seeded.clear()
        got = sample.criticals
        derivative = coeff_derivative(sample.coeffs)
        assert seeded == [(derivative, sample.roots, 1e-11)]
        assert ref.roots_within(derivative, got, 1e-11)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-11
        assert sample.interlaces()


@pytest.mark.parametrize("order", ["increasing", "decreasing", "unsorted"])
def test_path_with_a_double_root_of_p(order):
    # 1 is a root of every pencil, and the double root seeds the sample at
    # 0 and the first sample on each side twice at one point, so
    # real_roots_near answers those by real_roots; every sample
    # must match pencil_at either way
    p = from_roots([1.0, 1.0, -2.0, 3.0])
    lams = _ordered(default_grid(p, 21), order, random.Random(5))
    for sample in pencil_path(p, lams, 1e-11):
        want = pencil_at(p, sample.lam, 1e-11)
        assert max(abs(a - b) for a, b in zip(sample.roots, want.roots)) < 1e-9
        if sample.lam != 0.0:
            assert sum(abs(r - 1.0) < 1e-6 for r in sample.roots) == 1


def test_path_of_degree_one():
    p = from_roots([2.5])
    lams = (1.0, -3.0, -3.0, 0.0)
    assert [s.roots for s in pencil_path(p, lams)] == [
        pencil_at(p, lam).roots for lam in lams] == [(3.5,), (-0.5,),
                                                     (-0.5,), (2.5,)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["increasing", "decreasing", "unsorted"]))
def test_path_roots_are_within_half_tol_at_50_digits(n, seed, order):
    # the exact oracle proves each root within tol/2 (and a spacing) of a
    # root of the same rounded pencil coefficients, a bound at least as
    # strong as the 50-digit reference it replaced
    tol = 1e-11
    rng = random.Random(seed)
    p = random_hyperbolic(rng, n, bound=5, mode="float", min_gap=0.25)
    lams = _ordered(default_grid(p, 31), order, rng)
    for sample in rng.sample(pencil_path(p, lams, tol), 4):
        coeffs = pencil_coeffs(p, sample.lam)
        assert ref.roots_within(coeffs, sample.roots, tol)


def _repeated(p, rng):
    # P with one of its roots taken twice, in rational mode
    roots = tuple(Fraction(r) for r in p.roots)
    return from_roots(roots + (Fraction(rng.choice(p.roots)),))


_SHIFT_LAMBDAS = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([0.0, 5e-324, -1e-300, 1e-15, -2e-12]),
    st.fractions(-12, 12, max_denominator=64))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["float", "rational"]), _SHIFT_LAMBDAS, st.booleans())
def test_shift_pencil_brackets_agree_with_full_recursion(n, seed, mode, lam,
                                                         repeat):
    # shift_pencil seeds the shift pencil by the ends of the brackets cut
    # by the moved roots of P, for the main2 suite and the CLI alike
    # (a rational P with a Fraction lam); at lam = 0, tiny lam and a
    # repeated root of P its fallbacks answer where the certificate
    # fails.  A repeated root is drawn in rational mode, whose
    # coefficients are exact: the doubles of a float P would split it.
    # Exact coefficients may be answered by the exact terminal on one side
    # and certified on their doubles on the other, two polynomials whose
    # roots differ by the rounding of the coefficients: there the bound is
    # that of _assert_close
    rng = random.Random(seed)
    p = random_hyperbolic(rng, n, bound=8, mode=mode, min_gap=0.25)
    if repeat:
        p = _repeated(p, rng)
    coeffs = shift_pencil_coeffs(p, lam)
    got = shift_pencil(p, lam, ROOT_TOL).roots
    want = real_roots(coeffs, ROOT_TOL)
    assert len(got) == p.degree
    if p.mode == "float":
        assert max(abs(a - b) for a, b in zip(got, want)) <= ROOT_TOL
    else:
        _assert_close(got, want, [float(c) for c in coeffs], ROOT_TOL)


# at lam = 0 (either sign) the brackets fail their check, and subnormal or
# tiny lams move the roots too little for it to pass in double precision
_PENCIL_LAMBDAS = st.one_of(
    _SHIFT_LAMBDAS, st.sampled_from([-0.0, -5e-324, -1e-15, 1e-15]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["float", "rational"]), _PENCIL_LAMBDAS, st.booleans())
def test_fixed_brackets_agree_with_full_recursion(n, seed, mode, lam, repeat):
    # pencil_at and shift_pencil seed by the bracket ends that the roots
    # of P cut (pencil_brackets); their roots, and
    # the criticals of pencil_at's and of pencil_path's samples, must
    # agree with real_roots on the same coefficients, in P's mode, a
    # repeated root of P (drawn in rational mode, as above) included
    tol = 1e-11
    rng = random.Random(seed)
    p = random_hyperbolic(rng, n, bound=5, mode=mode, min_gap=0.25)
    if repeat:
        p = _repeated(p, rng)
    coeffs = shift_pencil_coeffs(p, lam)
    _assert_close(shift_pencil(p, lam, tol).roots, real_roots(coeffs, tol),
                  [float(c) for c in coeffs], tol)
    coeffs = pencil_coeffs(p, lam)
    roots = real_roots(coeffs, tol)
    for sample in (pencil_at(p, lam, tol), pencil_path(p, (lam,), tol)[0]):
        _assert_close(sample.roots, roots, [float(c) for c in coeffs], tol)
        if not repeat:
            assert sample.interlaces()
        if p.degree >= 2:
            derivative = coeff_derivative(coeffs)
            _assert_close(sample.criticals, real_roots(derivative, tol),
                          [float(c) for c in derivative], tol)
