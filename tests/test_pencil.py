"""Pencil trajectories and the up-down monotonicity of partial sums."""

import math
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specpoly.pencil
from specpoly import (Verdict, from_roots, pencil_at,
                      pencil_majorization_check, scan_monotonicity)
from specpoly.errors import DegreeMismatch
from specpoly.harness import random_hyperbolic
from specpoly.pencil import default_grid, pencil_coeffs
from specpoly.poly import coeff_derivative
from specpoly.roots import (_EPS, _eval_with_mag, real_roots,
                            real_roots_with_criticals)


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


# --- fixed brackets against the full interlacing recursion -------------------

def _roundoff_zone(coeffs, root) -> float:
    # half-width of the interval around a simple root where Horner's sign
    # is not trustworthy: the roots module's zero test over |P'(root)|
    value_bound = 8.0 * (len(coeffs) - 1) * _EPS * _eval_with_mag(
        tuple(reversed(coeffs)), root)[1]
    slope = _eval_with_mag(tuple(reversed(coeff_derivative(coeffs))), root)[0]
    return value_bound / abs(slope)


def _assert_close(got, want, coeffs, tol):
    # Both answers bisect the same sign change to a bracket of width tol
    # and return its midpoint, so each sits within tol/2 of the last point
    # where Horner's sign flips; that point can move across the roundoff
    # zone.  Hence tol + 2 * zone: sampling 1500 polynomials x 21 lambdas
    # like this test gave at most 0.96 x tol, and zones up to 1.9e-9 at
    # large |lambda|.  A root taken from a wrong bracket would be off by
    # about a root gap (>= 1e-3 here), far above the bound.
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= tol + 2.0 * _roundoff_zone(coeffs, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2 ** 32 - 1))
def test_fixed_brackets_agree_with_full_recursion(n, seed):
    tol = 1e-11
    p = random_hyperbolic(random.Random(seed), n, bound=5, mode="float",
                          min_gap=0.25)
    for lam in default_grid(p, 21):
        sample = pencil_at(p, lam, tol)
        coeffs = pencil_coeffs(p, lam)
        roots, crits = real_roots_with_criticals(coeffs, tol)
        _assert_close(sample.roots, roots, coeffs, tol)
        _assert_close(sample.criticals, crits, coeff_derivative(coeffs), tol)
        assert sample.interlaces()


def test_lambda_zero_roots_are_those_of_p_bit_for_bit():
    # at lam = 0 the fixed brackets are the ones real_roots uses for P
    rng = random.Random(31)
    for _ in range(50):
        p = random_hyperbolic(rng, rng.randint(1, 10), bound=8, mode="float",
                              min_gap=0.5)
        assert pencil_at(p, 0.0, 1e-11).roots == real_roots(
            p.coefficients(), 1e-11)


def _record_calls(monkeypatch, name):
    # wrap a root finder as the pencil module calls it (positional args)
    calls = []
    real = getattr(specpoly.pencil, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(specpoly.pencil, name, recorded)
    return calls


@pytest.mark.parametrize("lam", [-0.5, 0.5])
def test_double_root_pencil(monkeypatch, lam):
    # 1 is a double root of P, a critical point of P and a simple root of
    # every pencil: it sits on a bracket end
    fallback = _record_calls(monkeypatch, "real_roots")
    p = from_roots([1.0, 1.0, -2.0, 3.0])
    sample = pencil_at(p, lam, 1e-11)
    roots, crits = real_roots_with_criticals(pencil_coeffs(p, lam), 1e-11)
    assert sum(abs(r - 1.0) < 1e-6 for r in sample.roots) == 1
    assert max(abs(a - b) for a, b in zip(sample.roots, roots)) < 1e-10
    assert max(abs(a - b) for a, b in zip(sample.criticals, crits)) < 1e-10
    assert sample.interlaces()
    # The pencil's root that leaves the double root 1 moves to the side of
    # 1 that the sign of lam gives.  When the computed critical point w
    # near 1 lies on the other side, the bracket w cuts on that side holds
    # both 1 and the moving root, the brackets do not alternate in sign,
    # and the full recursion answers; otherwise the fixed brackets do.  If
    # w is 1 exactly, the pencil vanishes on a bracket end and the
    # recursion answers for both signs.
    w = min(specpoly.pencil._separators(p.to_float(), 1e-11)[0],
            key=lambda v: abs(v - 1.0))
    assert abs(w - 1.0) < 1e-10
    if (w - 1.0) * lam <= 0.0:
        assert fallback == [(pencil_coeffs(p, lam), 1e-11)]
    else:
        assert fallback == []


def test_double_root_falls_back_at_exact_separator(monkeypatch):
    # P = x^2: the critical point 0 is exact and a root of every pencil
    fallback = _record_calls(monkeypatch, "real_roots")
    p = from_roots([0.0, 0.0])
    sample = pencil_at(p, 1.5)
    assert fallback == [(pencil_coeffs(p, 1.5), None)]
    assert sample.roots == pytest.approx((0.0, 3.0), abs=1e-9)


def test_rational_poly_reuses_float_twin_brackets(monkeypatch):
    found = _record_calls(monkeypatch, "real_roots_with_criticals")
    p = from_roots([Fraction(-3), Fraction(1, 2), Fraction(2), Fraction(5)])
    assert p.to_float() is p.to_float()
    first = pencil_at(p, -1.0)
    second = pencil_at(p, 2.0)
    scan_monotonicity(p, (-1.0, 0.0, 1.0))
    assert len(found) == 1        # the roots of P' and P'', once
    assert first.interlaces() and second.interlaces()


def test_criticals_are_computed_on_first_read(monkeypatch):
    fallback = _record_calls(monkeypatch, "real_roots")
    refined = _record_calls(monkeypatch, "real_roots_separated")
    sample = pencil_at(from_roots([-2.0, 0.5, 3.0]), 1.0)
    assert [len(args[0]) for args in refined] == [4]    # the roots only
    crits = sample.criticals
    assert [len(args[0]) for args in refined] == [4, 3]
    assert sample.criticals is crits
    assert fallback == []
