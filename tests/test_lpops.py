"""Operator layer: prefixes, f(D) action, Appell, deformations, multipliers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from specpoly import (DiffOperator, LPFunction, appell, apply_operator,
                      check_majorization, deformation_leq, from_roots,
                      gaussian_op, laguerre_closed_form, laguerre_ms,
                      matching_distance, multiplier_apply, shift_pencil)
from specpoly.errors import DegreeTooSmall, NotRealRooted, ZeroTopTerm
from specpoly.harness import (_find_diagonal_operator, random_hyperbolic,
                              trial_rng)
from specpoly.pencil import pencil_coeffs
from specpoly.lpops import (MultiplierSequence, gaussian_coeffs,
                            shift_pencil_coeffs)
from specpoly.roots import default_tol, is_real_rooted, real_roots


def test_prefix_exponential():
    phi = LPFunction(b=1)
    assert phi.maclaurin_prefix(3) == (1, 1, Fraction(1, 2), Fraction(1, 6))


def test_prefix_gaussian():
    phi = LPFunction(a=1)
    assert phi.maclaurin_prefix(4) == (1, 0, -1, 0, Fraction(1, 2))


def test_prefix_shifted_product():
    phi = LPFunction(m=1, alphas=[1])  # x * (1-x)e^x
    assert phi.maclaurin_prefix(3) == (0, 1, 0, Fraction(-1, 2))


def test_prefix_leading_term_is_c():
    phi = LPFunction(c=Fraction(3, 7), m=2, a=Fraction(1, 2), b=2,
                     alphas=[Fraction(-1, 3)])
    prefix = phi.maclaurin_prefix(6)
    assert prefix[0] == prefix[1] == 0
    assert prefix[2] == Fraction(3, 7)


def test_parameters_are_stored_exactly():
    phi = LPFunction(c=2, a=Fraction(1, 2), b=0.1, alphas=[0.25, -1])
    assert phi.b == Fraction(0.1) and type(phi.b) is Fraction
    assert phi.alphas == (Fraction(1, 4), -1)
    assert [type(v) for v in (phi.c, phi.a, phi.alphas[1])] == [
        int, Fraction, int]
    assert LPFunction(c=1.0) == LPFunction()


@pytest.mark.parametrize("params", [
    {"c": True}, {"a": "1/2"}, {"b": None}, {"alphas": [1, False]}])
def test_parameters_of_other_types_are_refused(params):
    with pytest.raises(TypeError):
        LPFunction(**params)


@pytest.mark.parametrize("params", [
    {"c": 0}, {"c": 0.0}, {"m": -1}, {"a": math.nan}, {"b": math.inf},
    {"alphas": [1, -math.inf]}, {"c": math.nan}])
def test_invalid_parameters_are_refused(params):
    with pytest.raises(ValueError):
        LPFunction(**params)


def test_prefix_matches_brute_force_product():
    # compare against naive series multiplication at higher truncation
    phi = LPFunction(c=2, m=1, a=Fraction(1, 2), b=Fraction(-2, 3),
                     alphas=[Fraction(1, 2), Fraction(-1, 4)])
    n = 9
    got = phi.maclaurin_prefix(n)

    def series_mul(u, v):
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if i + j <= n:
                    out[i + j] += a * b
        return out

    expb = [Fraction(-2, 3) ** k / math.factorial(k) for k in range(n + 1)]
    gauss = [Fraction(0)] * (n + 1)
    for k in range(0, n + 1, 2):
        gauss[k] = (-Fraction(1, 4)) ** (k // 2) / math.factorial(k // 2)
    expected = series_mul(expb, gauss)
    for al in (Fraction(1, 2), Fraction(-1, 4)):
        exp_al = [al ** k / math.factorial(k) for k in range(n + 1)]
        lin = [Fraction(1), -al] + [Fraction(0)] * (n - 1)
        expected = series_mul(expected, series_mul(lin, exp_al))
    expected = [2 * v for v in expected]
    assert got == tuple([Fraction(0)] + expected[:n])


def test_apply_shift_identity():
    op = DiffOperator.from_function(LPFunction(b=1), 2, normalized=False)
    assert op.apply_coeffs((0, 0, 1)) == (1, 2, 1)


def test_apply_hermite():
    op = DiffOperator.from_function(LPFunction(a=1), 3, normalized=False)
    # e^{-D^2} on x^3 with a^2 = 1: x^3 - 6x; the a^2 = 1/2 flow is the
    # gaussian_coeffs fixture below
    assert op.apply_coeffs((0, 0, 0, 1)) == (0, -6, 0, 1)


def test_apply_normalized_first_order():
    phi = LPFunction(c=1, m=1, b=1)  # x e^x
    op = DiffOperator.from_function(phi, 2)
    assert op.normalizer == Fraction(1, 2)
    assert op.apply_coeffs((-1, 0, 1)) == (1, 1)


def test_apply_degenerate_degrees():
    phi = LPFunction(c=1, m=2)  # x^2
    op = DiffOperator.from_function(phi, 2)
    assert op.apply_coeffs((3, 0, 1)) == (2 * op.normalizer,)
    assert op.apply_coeffs((1, 1)) == (0,)
    with pytest.raises(DegreeTooSmall):
        apply_operator(op, from_roots([1, 2]))


def test_monic_contract_random():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(0, 2)
        phi = LPFunction(c=rng.choice((1, 2, Fraction(-1, 2))), m=m,
                         a=Fraction(rng.randint(0, 2), 2),
                         b=Fraction(rng.randint(-2, 2), 2),
                         alphas=[Fraction(rng.randint(-2, 2), 2)
                                 for _ in range(rng.randint(0, 3))])
        n = rng.randint(m + 1, m + 5)
        p = random_hyperbolic(rng, n, bound=5)
        out = DiffOperator.from_function(phi, n).apply_coeffs(p.coefficients())
        assert len(out) == n - m + 1
        assert out[-1] == 1


def test_hyperbolicity_preserved_random():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(0, 2)
        phi = LPFunction(c=1, m=m, a=Fraction(rng.randint(0, 2), 2),
                         b=Fraction(rng.randint(-2, 2), 2),
                         alphas=[Fraction(rng.randint(-2, 2), 2)
                                 for _ in range(rng.randint(0, 3))])
        n = rng.randint(m + 1, m + 5)
        p = random_hyperbolic(rng, n, bound=5)
        out = DiffOperator.from_function(phi, n).apply_coeffs(p.coefficients())
        real_roots(out)  # must not raise NotRealRooted


def test_appell_fixtures():
    gauss = LPFunction(a=1)
    assert appell(gauss, 2) == (-2, 0, 1)
    assert appell(gauss, 3) == (0, -6, 0, 1)
    assert matching_distance(real_roots(appell(gauss, 2)),
                             (-2 ** 0.5, 2 ** 0.5)) < 1e-9
    shift = LPFunction(b=Fraction(5, 3))
    assert appell(shift, 1) == (Fraction(5, 3), 1)
    with pytest.raises(DegreeTooSmall):
        appell(LPFunction(c=1, m=1), 1)


def test_appell_of_a_float_shift_is_exact():
    # (x + b)^6 with b the rational 0.1 stores: six roots at -0.1; a prefix
    # rounded to doubles splits that sixfold root into complex pairs
    b = Fraction(0.1)
    got = appell(LPFunction(b=0.1), 6)
    assert got == tuple(math.comb(6, k) * b ** (6 - k) for k in range(7))
    roots = real_roots(got)
    assert len(roots) == 6
    assert max(abs(r + 0.1) for r in roots) <= default_tol(got)


def test_shift_pencil_fixtures():
    assert shift_pencil_coeffs(from_roots([0, 0]), 1) == (-1, 0, 1)
    assert shift_pencil_coeffs(from_roots([0, 0]), 2) == (-4, 0, 1)
    p = from_roots([Fraction(1), Fraction(7, 2)])
    assert shift_pencil_coeffs(p, 0) == p.coefficients()
    img = shift_pencil(from_roots([0.0, 0.0]), 1.0)
    assert matching_distance(img.roots, (-1, 1)) < 1e-9


@pytest.mark.parametrize("roots", [
    [-2.5, 0.0, 1.25, 3.0],
    [Fraction(-7, 3), Fraction(0), Fraction(1, 3), Fraction(2)],
    [Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(5, 4)]])
def test_shift_pencil_at_lambda_zero_keeps_a_root_at_zero_exact(roots):
    # at lam = 0 the shift pencil is P, whose lowest coefficients are 0:
    # the n+1 bracket ends seed real_roots_near, the roots at 0 come back
    # as exact zeros, and every root is within tol/2 of a root of the
    # coefficients as given
    tol = 1e-11
    p = from_roots(roots)
    coeffs = shift_pencil_coeffs(p, 0)
    got = shift_pencil(p, 0, tol).roots
    assert got.count(0.0) == roots.count(0)
    assert ref.roots_within(coeffs, got, tol)


def test_gaussian_fixtures():
    assert gaussian_coeffs(from_roots([0, 0]), Fraction(1, 2)) == (-1, 0, 1)
    assert gaussian_coeffs(from_roots([0, 0, 0]), Fraction(1, 2)) == (0, -3, 0, 1)
    p = from_roots([1, 2, 6])
    assert gaussian_coeffs(p, 0) == p.coefficients()
    img = gaussian_op(from_roots([0.0, 0.0]), 0.5)
    assert matching_distance(img.roots, (-1, 1)) < 1e-9


@pytest.mark.parametrize("coeffs", [gaussian_coeffs, shift_pencil_coeffs,
                                    pencil_coeffs])
def test_coefficient_maps_keep_the_polynomial_mode(coeffs):
    # the parameter is coerced into P's mode: no tuple mixes Fraction and
    # float, whichever type the parameter comes in
    exact = coeffs(from_roots([1, 2, 3]), 0.5)
    assert all(type(v) is Fraction for v in exact)
    assert exact == coeffs(from_roots([1, 2, 3]), Fraction(1, 2))
    floats = coeffs(from_roots([1.0, 2.0, 3.0]), Fraction(1, 2))
    assert all(type(v) is float for v in floats)


def test_gaussian_negative_coefficient_may_fail_rootedness():
    with pytest.raises(NotRealRooted):
        gaussian_op(from_roots([0.0, 0.0]), -0.5)  # x^2 + 1


def test_deform_identity_and_kill():
    phi = LPFunction(c=1, m=1, a=1, b=Fraction(1, 2), alphas=[2, -1])
    same = phi.deform([1, 1, 1])
    assert same == phi
    dead = phi.deform([0, 0, 0])
    assert dead.a == 0 and dead.alphas == (0, 0)
    assert dead.b == phi.b and dead.m == phi.m


def test_deform_fixture():
    phi = LPFunction(a=1, alphas=[2])
    out = phi.deform([Fraction(1, 2), Fraction(1, 3)])
    assert out.a == Fraction(1, 2)          # e^{-x^2/4}
    assert out.alphas == (Fraction(2, 3),)  # (1 - 2x/3) e^{2x/3}


def test_deform_missing_entries_default_to_one():
    phi = LPFunction(a=1, alphas=[2, 3])
    out = phi.deform([Fraction(1, 2)])
    assert out.a == Fraction(1, 2) and out.alphas == (2, 3)


def test_deformation_order():
    assert deformation_leq([0, 1], [1, 1])
    assert deformation_leq([Fraction(1, 2), Fraction(-1, 3)], [1, -1])
    assert not deformation_leq([1, 1], [0, 1])       # magnitude
    assert not deformation_leq([-1, 1], [1, 1])      # sign
    assert deformation_leq([1], [1, 1, 1])           # padding with 1


def test_scale_argument():
    phi = LPFunction(c=1, m=0, a=1, b=2, alphas=[3])
    half = phi.scale_argument(Fraction(1, 2))
    assert (half.a, half.b, half.alphas) == (Fraction(1, 2), 1, (Fraction(3, 2),))
    zero = phi.scale_argument(0)
    assert zero == LPFunction(1, 0, 0, 0, ())
    with pytest.raises(DegreeTooSmall):
        LPFunction(c=1, m=1).scale_argument(0)


def test_approximant_exponential():
    phi = LPFunction(b=1)
    out = phi.approximant(1, 4)   # (1 + x/4)^4
    assert out == (1, 1, Fraction(3, 8), Fraction(1, 16), Fraction(1, 256))


def test_approximant_pure_grading():
    phi = LPFunction(c=1, m=1)
    assert phi.approximant(3, 5) == (0, 1)


def test_approximant_gaussian_fixture():
    phi = LPFunction(a=1)
    out = phi.approximant(4, 1)   # (1 - x^2/4)^4
    assert out[:5] == (1, 0, -1, 0, Fraction(3, 8))


def test_approximant_prefix_converges():
    phi = LPFunction(c=1, m=0, a=Fraction(1, 2), b=Fraction(1, 3),
                     alphas=[Fraction(1, 4), Fraction(-1, 2)])
    target = phi.maclaurin_prefix(5)
    errors = []
    for j, nj in ((4, 8), (8, 16), (16, 32), (32, 64)):
        got = phi.approximant(j, nj)[:6]
        got = got + (Fraction(0),) * (6 - len(got))
        errors.append(max(abs(a - b) for a, b in zip(got, target)))
    assert all(e > f for e, f in zip(errors, errors[1:]))
    assert errors[-1] < Fraction(1, 20)


def test_approximant_is_hyperbolic():
    phi = LPFunction(c=1, m=1, a=Fraction(1, 2), b=Fraction(1, 3),
                     alphas=[Fraction(1, 4)])
    # no complex roots: it is a product of real-rooted factors.  Its
    # exact coefficients are read exactly (their doubles split the
    # multiple roots into complex pairs)
    got = real_roots(phi.approximant(3, 4), 1e-12)
    want = sorted([0.0, 4.0] + [math.sqrt(12.0), -math.sqrt(12.0)] * 3
                  + [-48 / 7] * 4)
    assert len(got) == 12
    for g, w in zip(got, want):
        assert abs(g - w) <= 0.5e-12 + math.ulp(w)


def test_multiplier_xp_prime():
    seq = laguerre_ms(1, 0, 3)
    assert seq.gammas == (0, 1, 2)
    assert multiplier_apply(seq, (-1, 0, 1), 2, normalized=True) == (0, 0, 1)
    assert multiplier_apply((1, 1, 1), (-1, 0, 1)) == (-1, 0, 1)


def test_multiplier_zero_top():
    # H(k) = k(k-1) vanishes at k = 1, so the degree-1 truncation cannot
    # be normalized
    with pytest.raises(ZeroTopTerm):
        multiplier_apply(laguerre_ms(2, 0, 2), (0, 1), 1, normalized=True)


def test_laguerre_gamma_values():
    assert laguerre_ms(1, 1, 4).gammas == (1, 2, 3, 4)
    assert laguerre_ms(2, 0, 4).gammas == (0, 0, 2, 6)


def test_laguerre_closed_form_fixture():
    # m=1, p=1: T[P] = (xP)'; on x^2 that is 3x^2
    assert laguerre_closed_form(1, 1, (0, 0, 1)) == (0, 0, 3)
    # m=1, p=0: T[P] = x P'
    assert laguerre_closed_form(1, 0, (-1, 0, 1)) == (0, 0, 2)


def test_laguerre_closed_form_matches_sequence():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(1, 3)
        p = rng.randint(0, 3)
        n = rng.randint(max(1, m - p), 7)
        pc = [Fraction(rng.randint(-20, 20), rng.randint(1, 8))
              for _ in range(n)]
        pc.append(Fraction(rng.randint(1, 10)))
        seq = laguerre_ms(m, p, n + 1)
        assert multiplier_apply(seq, pc, n) == laguerre_closed_form(m, p, pc)


def test_laguerre_preserves_order():
    from specpoly import random_comparable_pair
    for seed in range(25):
        rng = trial_rng(seed, 0)
        m = rng.randint(1, 2)
        pshift = rng.randint(0, 2)
        n = rng.randint(max(2, m - pshift), 6)
        p, q = random_comparable_pair(rng, n, budget=3)
        seq = laguerre_ms(m, pshift, n + 1)
        rp = real_roots(multiplier_apply(seq, p.coefficients(), n, normalized=True))
        rq = real_roots(multiplier_apply(seq, q.coefficients(), n, normalized=True))
        assert check_majorization(rq, rp, 1e-7 * (1 + 10)).comparable


# --- the Jensen-polynomial preserver test ---------------------------------------

def _preserves(gammas) -> bool:
    return MultiplierSequence(tuple(gammas)).preserves_real_rootedness()


def test_jensen_polynomial_coefficients():
    assert MultiplierSequence((1, 1, 1)).jensen_polynomial() == (1, 2, 1)
    assert MultiplierSequence((0, 1, 2, 3)).jensen_polynomial() == (0, 3, 6, 3)


@pytest.mark.parametrize("gammas", [
    (Fraction(-1, 4), 2, 2, 1),
    (Fraction(1, 4), Fraction(3, 2), Fraction(-3, 2), 1),
])
def test_non_preservers_that_passed_probe_polynomials_are_rejected(gammas):
    # a test that accepts when 28 probe images stay real-rooted let both
    # through; each maps (x + 11/4)(x + 9/2)(x - 7/4) to a cubic with
    # complex roots
    assert not _preserves(gammas)
    p = from_roots([Fraction(-11, 4), Fraction(-9, 2), Fraction(7, 4)])
    assert not is_real_rooted(multiplier_apply(gammas, p.coefficients(), 3))


@pytest.mark.parametrize("n", range(1, 9))
def test_preservers_with_multiple_jensen_zeros_are_accepted(n):
    # gamma_k = k: J = n x (1 + x)^(n - 1)
    assert MultiplierSequence(tuple(range(n + 1))).jensen_polynomial() == \
        (0,) + tuple(n * math.comb(n - 1, k) for k in range(n))
    assert _preserves(range(n + 1))
    assert _preserves([1] * (n + 1))                    # the identity
    for m in (1, 2, 3):
        for p in (0, 1, 2):
            seq = laguerre_ms(m, p, n + 1)
            if any(seq.gammas):
                assert seq.preserves_real_rootedness(), (m, p)


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_two_diagonal_operators(n):
    # (0, .., 0, g, 1) maps P to x^(n-1) (g a_(n-1) + x): always real-rooted
    for g in (-2, Fraction(-1, 2), 0, Fraction(1, 3), 2):
        assert _preserves([0] * (n - 1) + [g, 1])
    # two nonzero gammas two apart give x^i (g_i a_i + g_(i+2) a_(i+2) x^2),
    # which some real-rooted P sends to complex roots, whatever the signs
    for i in range(n - 1):
        for gi, gj in ((1, 1), (1, -1), (-2, Fraction(1, 3))):
            gammas = [0] * (n + 1)
            gammas[i], gammas[i + 2] = gi, gj
            assert not _preserves(gammas), (i, gi, gj)


def test_non_preserver_below_float_resolution_is_rejected():
    # J = (x + 1)^2 + 1e-20 rounds to (x + 1)^2 in floats, so the float
    # finder accepts it; the operator sends (x + 1)^2 to a quadratic with
    # negative discriminant, and only the exact Sturm step sees it
    eps = Fraction(1, 10 ** 20)
    gammas = (1 + eps, 1, 1)
    real_roots([float(v) for v in MultiplierSequence(gammas).jensen_polynomial()])
    assert not _preserves(gammas)
    assert not is_real_rooted(multiplier_apply(gammas, (1, 2, 1)))


def test_zero_sequence_is_not_a_preserver():
    assert not _preserves([0, 0, 0])


@st.composite
def _jensen_zeros(draw):
    """Zeros of a Jensen polynomial, all >= 0 or all <= 0: repeated zeros,
    zeros at 0 and clusters with denominators up to 10^6 on purpose."""
    n = draw(st.integers(1, 8))
    zeros = []
    while len(zeros) < n:
        kind = draw(st.sampled_from(["plain", "repeat", "zero", "cluster"]))
        if kind == "zero":
            zeros.append(Fraction(0))
            continue
        atom = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 8)))
        if kind == "plain":
            zeros.append(atom)
        elif kind == "repeat":
            zeros += [atom] * draw(st.integers(2, 4))
        else:
            den = draw(st.integers(10, 10 ** 6))
            zeros += [atom + Fraction(draw(st.integers(0, 5)), den)
                      for _ in range(draw(st.integers(2, 4)))]
    sign = draw(st.sampled_from([1, -1]))
    return [sign * z for z in zeros[:n]]


@settings(max_examples=300, deadline=None)
@given(_jensen_zeros())
def test_every_preserver_drawn_from_jensen_zeros_is_accepted(zeros):
    # finite Polya-Schur: gamma_k = [x^k] J / C(n, k) for J = prod (x - z)
    # with zeros all of one sign is a preserver, and J is its Jensen
    # polynomial
    n = len(zeros)
    jensen = ref.expand_from_roots(zeros, True)
    gammas = [c / math.comb(n, k) for k, c in enumerate(jensen)]
    assert (gammas[0] == 0) == (0 in zeros)
    assert _preserves(gammas)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_every_hunt_operator_is_an_exact_preserver(n, seed):
    gammas = _find_diagonal_operator(random.Random(seed), n)
    assert len(gammas) == n + 1 and gammas[n] == 1
    assert all(type(g) is Fraction for g in gammas)
    assert _preserves(gammas)


def test_hunt_operators_reach_the_boundary():
    # some draws have gamma_0 = 0 (a Jensen zero at 0) and some a Jensen
    # polynomial with a multiple zero (gcd(J, J') nonconstant)
    draws = [_find_diagonal_operator(trial_rng(seed, 0), 5)
             for seed in range(40)]
    assert any(g[0] == 0 for g in draws)
    jensens = [MultiplierSequence(g).jensen_polynomial() for g in draws]
    assert any(len(ref.sturm_sequence(j)[-1]) > 1 for j in jensens)


def _variations(seq, side) -> int:
    # sign variations of a Sturm sequence at -inf (side -1), 0 (side 0) or
    # +inf (side 1), zeros skipped
    if side:
        signs = [(s[-1] > 0) == (side > 0 or len(s) % 2 == 1) for s in seq]
    else:
        signs = [s[0] > 0 for s in seq if s[0] != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_decision(gammas) -> bool:
    # Jensen's J = x^low core with core(0) != 0 has only real zeros of one
    # sign exactly when all distinct zeros of core (deg core minus deg
    # gcd(core, core')) lie in (-inf, 0), or all in (0, inf)
    n = len(gammas) - 1
    jensen = [math.comb(n, k) * Fraction(g) for k, g in enumerate(gammas)]
    low = next(k for k, v in enumerate(jensen) if v != 0)
    core = jensen[low:]
    if len(core) == 1:
        return True
    seq = ref.sturm_sequence(core)
    distinct = len(core) - len(seq[-1])
    negative = _variations(seq, -1) - _variations(seq, 0)
    positive = _variations(seq, 0) - _variations(seq, 1)
    return distinct in (negative, positive)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(-8, 8), min_size=n, max_size=n)))
def test_verdicts_on_sampler_grids_match_a_sturm_decision(quarters):
    # arbitrary diagonal operators, most of them not preservers: gamma_k on
    # the 1/4 grid in [-2, 2] and gamma_n = 1
    gammas = [Fraction(v, 4) for v in quarters] + [Fraction(1)]
    assert _preserves(gammas) == _sturm_decision(gammas)
