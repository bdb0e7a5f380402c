"""Certified root extraction: straddles, the accurate pass and the exact
terminal."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
import specpoly.roots as roots_module
from specpoly import from_roots, matching_distance, pencil_at, real_roots
from specpoly._qpoly import QPoly
from specpoly.errors import ConfigError, DegreeZero, NonFinite, NotRealRooted
from specpoly.pencil import pencil_coeffs
from specpoly.poly import coeff_derivative, derivative
from specpoly.roots import (is_real_rooted, real_roots_near,
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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-11])
def test_bad_tol_is_refused_by_every_entry_point(tol):
    coeffs = [-6.0, 11.0, -6.0, 1.0]
    for call in (lambda: real_roots(coeffs, tol),
                 lambda: real_roots_near(coeffs, (1.1, 2.1, 2.9), tol),
                 lambda: real_roots_with_criticals(coeffs, tol)):
        with pytest.raises(ConfigError):
            call()
    # 0 asks for float resolution
    assert matching_distance(real_roots(coeffs, 0.0), (1, 2, 3)) < 1e-12


@pytest.mark.parametrize("coeffs", [
    [1.0, float("inf"), 1.0], [float("nan"), 1.0], [Fraction(10) ** 400, 1]])
def test_coefficients_without_a_finite_double_are_refused(coeffs):
    # no sign of such a polynomial can be certified: every entry point
    # refuses it, with no root search
    for call in (lambda: real_roots(coeffs),
                 lambda: real_roots_near(coeffs, [0.0] * (len(coeffs) - 1)),
                 lambda: real_roots_with_criticals(coeffs)):
        with pytest.raises(NonFinite):
            call()


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


def test_criticals_of_a_qpoly():
    # the exact kernels hand the root finder a QPoly: its derivative is
    # taken on the numerators, with the answer of the Fraction tuple
    assert real_roots_with_criticals(QPoly.of([-1, 0, 1])) == (
        (-1.0, 1.0), (0.0,))
    cubic = [Fraction(-6, 5), Fraction(11, 5), Fraction(-6, 5), Fraction(1, 5)]
    assert (real_roots_with_criticals(QPoly.of(cubic), 1e-12)
            == real_roots_with_criticals(cubic, 1e-12))


def _separated(coeffs, separators, tol=None):
    # the roots seeded by the bracket ends the separators cut from the
    # root bound: one start at the midpoint of each bracket
    bound = root_bound([float(c) for c in coeffs])
    return real_roots_near(coeffs, (-bound, *separators, bound), tol)


def test_separated_roots_match_recursion():
    # (x-1)(x-2)(x-3) with separators 1.5 and 2.5: every root proven for
    # the coefficients as given
    got = _separated([-6, 11, -6, 1], (1.5, 2.5), tol=1e-12)
    assert matching_distance(got, (1, 2, 3)) < 1e-11
    assert ref.roots_within([-6, 11, -6, 1], got, 1e-12, spacing=False)
    assert real_roots_near([-3, 2], (0.0, 2.0)) == (1.5,)


def test_separated_finds_a_root_on_a_separator():
    # the pencil of (x-1)^2 (x+2)(x-3) at lam = 1/2 vanishes exactly at
    # the critical point 1 of P, a separator, where no bracket holds a
    # sign change: the midpoint starts still reach every root, each
    # within tol/2 of the roots as given, the bound real_roots keeps
    pencil = [-11.5, 14.0, 1.5, -5.0, 1.0]
    got = _separated(pencil, (-1.2, 1.0, 2.4), 1e-11)
    assert ref.roots_within(pencil, got, 1e-11)


def test_separated_declines_brackets_without_alternation():
    # two roots in one bracket, none in the next; misplaced and
    # coincident separators.  No bracket is trusted to hold a root: its
    # midpoint is only a start, and every answer is within tol/2 of the
    # roots as given
    cubic = [-6, 11, -6, 1]
    for separators in ((2.5, 2.7), (0.5, 1.5), (1.5, 1.5), (2.5, 1.5)):
        got = _separated(cubic, separators, 1e-12)
        assert ref.roots_within(cubic, got, 1e-12, spacing=False)
    # not real-rooted: x^2 + 1 has no sign change at all
    with pytest.raises(NotRealRooted):
        _separated([1, 0, 1], (0.0,))


def test_bracketed_roots_decline_misordered_ends():
    # (x-1)(x-2)(x-3): the seeds are sorted before use, so ends out of
    # order cut the same brackets, and ends that fall short of n + 1 are
    # the starts themselves; both are proven within tol/2
    cubic = [-6, 11, -6, 1]
    points = (0.0, 1.5, 2.5, 4.0)
    assert real_roots_near(cubic, (0.0, 2.5, 1.5, 4.0)) == real_roots_near(
        cubic, points)
    for seeds in (points, points[:3]):
        assert ref.roots_within(cubic, real_roots_near(cubic, seeds, 1e-12),
                                1e-12, spacing=False)


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


# --- the refiner's contract, checked exactly ------------------------------------

def _strictly_real_rooted(coeffs) -> bool:
    return len(sturm_sequence(coeffs)[-1]) == 1 and is_real_rooted(coeffs)


_root_value = st.one_of(st.integers(-20, 20).map(float),
                        st.floats(-20, 20, allow_subnormal=False))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_root_value, st.booleans()), min_size=1,
                max_size=10, unique_by=lambda pick: pick[0]),
       st.sampled_from([1.0, -3.0, 0.1]),
       st.sampled_from([1e-12, 1e-11, 1e-9]))
def test_every_root_is_within_tol_of_an_exact_root(picks, scale, tol):
    # the roots of the double coefficients as given, pairs 1e-7 apart
    # included; the exact oracle proves each within tol/2 (and a spacing)
    # of one of them
    roots = []
    for value, paired in picks:
        roots += [value, value + 1e-7] if paired else [value]
    roots = roots[:10]
    assume(len(roots) >= 2)
    coeffs = [scale * c for c in from_roots(roots).coefficients()]
    assume(_strictly_real_rooted(coeffs))
    assert ref.roots_within(coeffs, real_roots(coeffs, tol), tol)
    separators = real_roots(coeff_derivative(coeffs), tol)
    assert ref.roots_within(coeffs, _separated(coeffs, separators, tol), tol)


# Pencils on which bench/workloads.pencil_oracle caught an earlier finder
# more than tol = 1e-11 off the roots of the coefficients it was given:
# the roots of P, lambda, and the pencil's coefficients, low degree first.
_ORACLE_PENCILS = {
    "seed131": (
        (-4.951044368538703, -4.434983541833224, -4.112582795006927,
         -3.8189295579598763, -3.5021310450697003, -3.0199822402525065,
         -1.6385677453739178, -1.2535770721726402, -0.357501003198077,
         0.2826652338679265),
        0.7174239299892768,
        (446.85643484720174, -10828.161317438286, -41663.073204033,
         -58209.14757797057, -40300.730015170775, -14528.414679729693,
         -2174.1837492959285, 215.81829121278474, 135.44794929052682,
         19.632394835644877, 1.0)),
    "seed196": (
        (-3.0499391594444223, -1.1260804697238607, 1.6349347252725748,
         2.0070049293560963, 2.684658630594117, 3.3317438860390274,
         3.7885145236447837, 4.074522308539948, 4.450633302618948,
         4.7682921079787475),
        2.2533518757634994,
        (145410.74380221448, -72917.12985338081, -217728.1006743201,
         261171.6453396641, -98075.30836915111, -2660.6560713963845,
         13345.424967985104, -4409.291236078212, 657.6416866898506,
         -45.09780354251096, 1.0)),
    "seed206": (
        (-4.898257073684987, -4.530133650700156, -4.102733019187694,
         -3.8486649701450544, -3.482924082207872, -3.035828955107421,
         -2.433104375752386, -1.4983170644453105, 2.0799720303676406,
         4.8194825227645435),
        0.048912073274442136,
        (122573.21271157467, 245782.7224802175, 164275.2548901156,
         16842.92487717388, -31869.360842529735, -16827.690511453868,
         -2920.5403887737607, 175.5492833226741, 143.21663602385198,
         20.441387905354272, 1.0)),
    "seed1218": (
        (-4.4988265178197855, -4.109281122066557, -3.6383681956345457,
         -3.3167143689409055, -2.8144516274441336, -2.4718364355054243,
         -1.8773218724732175, -1.6045808573589686, -0.7647124273988117,
         2.0256653247015315),
        -2.4036892166557617,
        (-72899.06831456635, -219412.38983864256, -239619.02701771166,
         -92038.50213029803, 32642.80157450794, 49094.350687240934,
         22485.010165012056, 5436.295147914396, 722.1184874434798,
         47.107320266498434, 1.0)),
}


@pytest.mark.parametrize("roots, lam, coeffs", _ORACLE_PENCILS.values(),
                         ids=_ORACLE_PENCILS.keys())
def test_oracle_pencils_are_within_tol(roots, lam, coeffs):
    p = from_roots(roots)
    assert pencil_coeffs(p, lam) == coeffs
    assert ref.roots_within(coeffs, pencil_at(p, lam, 1e-11).roots, 1e-11)
    assert ref.roots_within(coeffs, real_roots(coeffs, 1e-11), 1e-11)


# --- termination and cost of the rescue and the terminal ------------------------

def test_tol_below_float_spacing_stops_at_adjacent_floats():
    # no interval gets narrower than two neighbouring doubles (spacing
    # 1.1e-13 near 1e3); below 32 spacings no straddle is tried, and the
    # terminal stops at float resolution, one spacing from a root: the
    # oracle at tol twice the spacing proves that
    coeffs = from_roots([1000.0, 1000.5, 1001.25]).coefficients()
    spacing = math.ulp(1001.25)
    within = 2.0 * spacing
    got = real_roots(coeffs, 1e-300)
    assert ref.roots_within(coeffs, got, within, spacing=False)
    separators = real_roots(coeff_derivative(coeffs), 1e-300)
    got = _separated(coeffs, separators, 1e-300)
    assert ref.roots_within(coeffs, got, within, spacing=False)


def _roundoff(mag: float, n: int) -> float:
    # the reference form of the bound _proven hoists: a bound on the error
    # of Horner's value at a point where the computed sum |a_k||x|^k is
    # mag, gamma_2n mag with gamma_k = k u / (1 - k u), u = eps / 2
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    # eq. 5.3), which 1.01 n eps covers with the rounding of mag and of
    # this product while n eps < 1e-3; the 1e-300 keeps it above 0
    return 1.01 * n * 2.0 ** -52 * mag + 1e-300


def _eval_with_slope(rev, x) -> tuple[float, float]:
    # the plain form of the Horner loop that _straddled writes out: P(x)
    # and P'(x) in one pass on high-to-low coefficients, from 0.0
    acc = 0.0
    slope = 0.0
    for c in rev:
        slope = slope * x + acc
        acc = acc * x + c
    return acc, slope


def _magnitude(rev, x) -> float:
    # sum |a_k||x|^k, by Horner's recurrence on the |a_k| at |x|
    mag = 0.0
    for c in rev:
        mag = mag * abs(x) + abs(c)
    return mag


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-99, 99), st.integers(-6, 6),
                          st.integers(1, 3)), min_size=1, max_size=20),
       st.integers(-60, 60), st.data())
def test_horner_stays_within_its_roundoff_bound(picks, decade, data):
    # plain Horner on the double coefficients of prod (x - m 10^d)^k,
    # scaled by 10^decade: at each root, its neighbouring doubles and a
    # double up to 1e5 spacings away, where the sum cancels, and at
    # points out to four times the largest root, its value is within
    # _roundoff(mag, n) of the exact value, and wherever it is inside
    # that bound (where near a multiple root its sign may be noise) the
    # sign on the numerators of the doubles is the exact sign
    roots = [m * 10.0 ** d for m, d, k in picks for _ in range(k)][:20]
    coeffs = [c * 10.0 ** decade for c in from_roots(roots).coefficients()]
    exact = [Fraction(c) for c in coeffs]
    nums = QPoly.of(coeffs).nums
    rev = coeffs[::-1]
    n = len(rev) - 1
    reach = 4.0 * max(abs(r) for r in roots) + 1.0
    points = [x for r in roots for x in (math.nextafter(r, -math.inf), r,
                                          math.nextafter(r, math.inf))]
    points += [r + math.ulp(r) * data.draw(st.integers(-10 ** 5, 10 ** 5))
               for r in roots]
    points += [reach, -reach] + data.draw(st.lists(
        st.floats(-reach, reach), min_size=1, max_size=4))
    for x in points:
        value = _eval_with_slope(rev, x)[0]
        bound = _roundoff(_magnitude(rev, x), n)
        want = ref.value(exact, Fraction(x))
        assert abs(Fraction(value) - want) <= Fraction(bound), (x, value)
        if abs(value) <= bound:
            sign = roots_module._sign(nums, x)
            assert sign == (want > 0) - (want < 0), (x, sign)


def test_compensated_sign_inside_its_bound_goes_to_exact_arithmetic(
        monkeypatch):
    # (x - 3/2)^3, exact doubles, 17 spacings above its root, where the
    # value is +5.4e-44 and even a value in twice the working precision
    # (compensated Horner's, -9.9e-32) has the wrong sign: both straddle
    # ends of the triple root are inside Horner's roundoff bound, and the
    # float-coefficient path signs them on the numerators of the doubles,
    # so the straddle proves the root
    rev = [1.0, -4.5, 6.75, -3.375]
    x = 1.5 + 17 * math.ulp(1.5)
    tol = 17 * math.ulp(1.5) / 0.45
    assert 1.5 + 0.45 * tol == x
    for end in (x, 1.5 - 17 * math.ulp(1.5)):
        bound = _roundoff(_magnitude(rev, end), 3)
        assert abs(_eval_with_slope(rev, end)[0]) <= bound
    assert roots_module._sign(QPoly.of(rev[::-1]).nums, 1.5) == 0.0
    signs = []
    real = roots_module._sign

    def recorded(nums, point):
        signs.append((point, real(nums, point)))
        return signs[-1][1]
    monkeypatch.setattr(roots_module, "_sign", recorded)
    assert roots_module._proven(rev, [1.5], tol, None) == (1.5,)
    assert sorted(signs) == [(1.5 - 17 * math.ulp(1.5), -1.0), (x, 1.0)]


def _proven_reference(coeffs, found, tol):
    # the straddle certificate on exact values: disjoint intervals about
    # the sorted points, and a sign change of P as given across each
    half = 0.45 * tol
    found = sorted(found)
    edge = -math.inf
    for x in found:
        lo, hi = x - half, x + half
        if not edge < lo < hi or tol < 32.0 * math.ulp(x):
            return None
        edge = hi
    for x in found:
        a = ref.value(coeffs, Fraction(x - half))
        b = ref.value(coeffs, Fraction(x + half))
        if not (a < 0 < b or b < 0 < a):
            return None
    return tuple(found)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 3)),
                min_size=1, max_size=8, unique_by=lambda pick: pick[0]),
       st.sampled_from([4, 3, 7]), st.integers(0, 30), st.booleans(),
       st.data())
def test_every_straddle_sign_is_exact(picks, scale, widen, exact, data):
    # roots k / scale with multiplicities 1-3, points within 50 spacings
    # of some of them, and tol from 32 spacings of the largest root: the
    # ends fall in Horner's noise about multiple roots, and the
    # certificate must decide as exact signs do, for the doubles of
    # float coefficients and for exact coefficients alike
    roots = [Fraction(k, scale) for k, m in picks for _ in range(m)]
    coeffs = from_roots(roots, "rational").coefficients()
    rev = [float(c) for c in reversed(coeffs)]
    if exact:
        given_as, nums = coeffs, QPoly.of(coeffs).nums
    else:
        given_as, nums = rev[::-1], None
    top = max(abs(float(r)) for r in roots)
    tol = 32.0 * math.ulp(top) * 2.0 ** widen
    found = [float(Fraction(k, scale)) for k, m in picks]
    found = [x + math.ulp(x) * data.draw(st.integers(-50, 50))
             for x in data.draw(st.lists(st.sampled_from(found), min_size=1,
                                         unique=True))]
    for points in [found] + [[x] for x in found]:
        want = _proven_reference(given_as, points, tol)
        assert roots_module._proven(rev, list(points), tol, nums) == want


def test_triple_root_inside_a_bracket():
    # (x - 1)^3 seeded by the ends of brackets around its root: P' vanishes
    # at the root, where Newton only crawls and no straddle holds, so the
    # exact terminal answers, and reports the dyadic root as itself
    coeffs = [-1.0, 3.0, -3.0, 1.0]
    for ends in ((0.0, 0.5, 2.0, 3.0), (-5.0, 0.0, 1.0, 2.5),
                 (0.0, 1.0, 1.0, 2.0)):
        got = real_roots_near(coeffs, ends, 1e-12)
        assert got == (1.0, 1.0, 1.0)
        assert ref.roots_within(coeffs, got, 1e-12, spacing=False)


def test_refinement_costs_few_evaluations(monkeypatch):
    # the terminal counts with the Sturm chain only until an interval holds
    # one root, then halves it on the sign of the factor alone: one
    # evaluation a halving, where a chain count costs one a chain entry.
    # So at most two evaluations per halving that tol asks of each root
    count = [0]
    real = roots_module._value

    def counted(*args):
        count[0] += 1
        return real(*args)
    monkeypatch.setattr(roots_module, "_value", counted)
    for roots in ([Fraction(k, 3) for k in (-20, -13, -7, -1, 2, 8, 13, 17)],
                  [Fraction(1, 3), Fraction(2, 5), Fraction(7, 3)]):
        coeffs = from_roots(roots, "rational").coefficients()
        nums = QPoly.of(coeffs).nums
        s = (max(abs(v) for v in nums[:-1]) // nums[-1] + 2).bit_length()
        for tol in (1e-11, 1e-6):
            count[0] = 0
            got = roots_module._isolated(nums, tol)
            assert ref.roots_within(coeffs, got, tol)
            halvings = math.ceil(math.log2(2.0 ** (s + 1) / tol))
            assert count[0] <= 2 * len(roots) * halvings, (roots, tol)


def _sturm_bisected(a, tol):
    # the terminal's halving in its plain form: Sturm counts at every
    # midpoint down to width tol, a root on a bisection point reported as
    # itself
    chain = roots_module._sturm_chain(a)
    s = (max(abs(v) for v in a[:-1]) // abs(a[-1]) + 2).bit_length()
    width = math.ldexp(2.0, s)
    variations = roots_module._sturm_variations
    roots = []
    stack = [(-1 << s, 1 << s, 0, variations(chain, -1 << s, 0),
              variations(chain, 1 << s, 0))]
    while stack:
        lo, hi, e, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count and roots_module._done(math.ldexp(width, -e), lo + hi,
                                        e + 1, tol):
            if count == 1 and roots_module._value(a, hi, e) == 0:
                roots.append(hi / (1 << e))
            else:
                roots += [(lo + hi) / (1 << e + 1)] * count
        elif count:
            mid = lo + hi
            v_mid = variations(chain, mid, e + 1)
            stack.append((2 * lo, mid, e + 1, v_lo, v_mid))
            stack.append((mid, 2 * hi, e + 1, v_mid, v_hi))
    return sorted(roots)


@settings(max_examples=150, deadline=None)
@given(st.lists(_small_fraction, min_size=2, max_size=8, unique=True),
       st.one_of(st.sampled_from([1e-12, 1e-9, 1e-3, 0.5, 1e-300]),
                 st.floats(1e-14, 1.0)))
def test_halving_on_the_factor_gives_the_sturm_bisection_bit_for_bit(
        roots, tol):
    # square-free factors with rational roots, some of them dyadic (on a
    # bisection point) and some on a grid finer than tol: the halving on
    # the factor's sign picks the intervals that Sturm counts pick
    nums = QPoly.of(from_roots(roots, "rational").coefficients()).nums
    want = _sturm_bisected(nums, tol)
    got = sorted(roots_module._factor_roots(nums, tol))
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_start_within_float_resolution_takes_few_evaluations(monkeypatch):
    # starts within one spacing of the roots: each step of the accurate
    # pass evaluates P once, and the first step, which rounds to nothing,
    # ends each start, so two roots take two integer evaluations, on the
    # numerators of the doubles and on those of exact coefficients alike
    evaluations = [0]
    real = roots_module._value

    def counted(*args):
        evaluations[0] += 1
        return real(*args)
    monkeypatch.setattr(roots_module, "_value", counted)
    for rev, roots in (([1.0, 0.0, -2.0], (-math.sqrt(2.0), math.sqrt(2.0))),
                       ([3.0, -7.0, 2.0], (1.0 / 3.0, 2.0))):
        coeffs = rev[::-1]
        for nums in (None, QPoly.of(coeffs).nums):
            evaluations[0] = 0
            got = roots_module._accurate(rev, list(roots), 1e-12, nums, 1)
            assert got is not None
            assert ref.roots_within(coeffs, got, 1e-12)
            assert evaluations[0] <= 2 * len(roots), (roots, evaluations[0])


def test_accurate_pass_rescues_noisy_horner(monkeypatch):
    # roots 100..105, seeds 0.01 above them: near each root Horner's
    # rounding noise is far over 0.45 tol, so plain Newton never settles
    # and the straddle pass declines; the second run of the same loop,
    # on integer values (the numerators of the doubles, or of exact
    # coefficients), settles, and the straddle certificate proves the
    # points it reaches with no fallback
    monkeypatch.setattr(roots_module, "real_roots", _no_recursion)
    outcomes = _record(monkeypatch, "_straddled")
    roots = [100.0 + k for k in range(6)]
    coeffs = from_roots(roots).coefficients()
    seeds = [r + 0.01 for r in roots]
    for given_as in (coeffs, [Fraction(c) for c in coeffs]):
        outcomes.clear()
        got = real_roots_near(given_as, seeds, 1e-11)
        assert outcomes == [None, got]
        assert ref.roots_within(coeffs, got, 1e-11, spacing=False)


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_accurate_pass_fails_on_starts_that_are_not_finite(start):
    # a start with no finite value has no integer value, and fails the
    # pass, on the numerators of the doubles and on exact ones alike;
    # real_roots_near then falls back, and its answer is proven
    coeffs = [-6, 11, -6, 1]
    rev = [float(c) for c in reversed(coeffs)]
    for nums in (None, coeffs):
        assert roots_module._accurate(rev, [1.1, start, 2.9], 1e-12, nums,
                                      1) is None
    for given_as in (coeffs, [float(c) for c in coeffs]):
        got = real_roots_near(given_as, [start] * 3, 1e-12)
        assert ref.roots_within(coeffs, got, 1e-12)


# --- seeded roots ---------------------------------------------------------------

_KINDS = {"single": (0.0,), "double": (0.0, 0.0), "triple": (0.0, 0.0, 0.0),
          "cluster": (0.0, 1e-7)}


def _polyroots(coeffs, mpmath) -> list:
    # the roots of the double coefficients at 50 digits; they are simple
    with mpmath.workdps(50):
        return sorted(float(mpmath.re(z)) for z in mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=200,
            extraprec=200))


@st.composite
def _seeds(draw, roots):
    # exact, perturbed by up to the smallest gap, shuffled, one too few,
    # one too many, far outside the roots, or not numbers at all
    kind = draw(st.sampled_from(["exact", "perturbed", "shuffled", "short",
                                 "long", "far", "nan"]))
    if kind == "perturbed":
        gaps = [b - a for a, b in zip(roots, roots[1:]) if b > a]
        gap = min(gaps, default=1.0)
        moves = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(roots),
                              max_size=len(roots)))
        return [r + gap * m for r, m in zip(roots, moves)]
    if kind == "shuffled":
        return draw(st.permutations(roots))
    if kind == "short":
        return roots[:-1]
    if kind == "long":
        return [*roots, 0.0]
    if kind == "far":
        return [1e4 + r for r in roots]
    if kind == "nan":
        return [math.nan] * len(roots)
    return list(roots)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.sampled_from(list(_KINDS))),
                min_size=1, max_size=12, unique_by=lambda pick: pick[0]),
       st.sampled_from([1e-12, 1e-11, 1e-9]), st.data())
def test_seeded_roots_are_within_tol(picks, tol, data):
    # roots on a quarter grid, with multiplicities up to 3 or a partner
    # 1e-7 above.  Without partners the double coefficients are exact and
    # the grid values are their roots; otherwise the roots of the double
    # coefficients are simple (checked exactly) and mpmath finds them,
    # which cross-checks the exact oracle.  A root at 0 of multiplicity k
    # makes the k lowest double coefficients exactly 0.0: it must come
    # back as k exact zeros, and the rest as the roots of the deflated
    # coefficients.  No straddle certifies any other multiple root, so
    # those inputs must get the answer of real_roots.  Where partners make
    # the doubles inexact, rounding may turn a multiple root or a pair
    # into a complex pair, which must raise NotRealRooted
    mpmath = pytest.importorskip("mpmath")
    roots = sorted(k / 4 + d for k, kind in picks for d in _KINDS[kind])[:12]
    coeffs = from_roots(roots).coefficients()
    clustered = any(kind == "cluster" for _, kind in picks)
    try:
        got = real_roots_near(coeffs, data.draw(_seeds(roots)), tol)
    except NotRealRooted:
        assert clustered or len(set(roots)) < len(roots)
        assert not is_real_rooted(coeffs)
        return
    zeros = roots.count(0.0)
    if zeros:
        assert got.count(0.0) == zeros, got
        assert all(math.copysign(1.0, g) == 1.0 for g in got if g == 0.0)
        assert all(c == 0.0 for c in coeffs[:zeros])
        coeffs = coeffs[zeros:]
        roots = [r for r in roots if r != 0.0]
        got = tuple(g for g in got if g != 0.0)
        if not roots:
            return
    if len(set(roots)) < len(roots):
        assert ref.roots_within(coeffs, got, tol)
        if not clustered:
            assert got == real_roots(coeffs, tol)
        return
    if clustered:
        assume(_strictly_real_rooted(coeffs))
        want = _polyroots(coeffs, mpmath)
        assert ref.roots_within(coeffs, want, tol)
    else:
        want = roots
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol / 2 + math.ulp(w), (got, want)


def _no_recursion(*args):
    raise AssertionError("real_roots_near fell back to real_roots")


def test_seeded_zero_roots_are_deflated_exactly(monkeypatch):
    # x^k times a polynomial with simple roots: k exact zeros, and the
    # other roots from their seeds, with no fallback on real_roots
    monkeypatch.setattr(roots_module, "real_roots", _no_recursion)
    for zeros in (1, 2, 3):
        others = [-2.5, -0.75, 1.5, 3.0]
        coeffs = from_roots([0.0] * zeros + others).coefficients()
        seeds = [r + 0.01 for r in [1e-3] * zeros + others]
        got = real_roots_near(coeffs, seeds, 1e-12)
        assert got[2:2 + zeros] == (0.0,) * zeros
        for g, w in zip(got[:2] + got[2 + zeros:], others):
            assert abs(g - w) <= 0.5e-12
    assert real_roots_near([0.0, 0.0, 2.0], [0.5, -0.5]) == (0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-80, 80), min_size=4, max_size=12, unique=True),
       st.integers(1, 3), st.sampled_from([1e-12, 1e-11, 1e-9]))
def test_seeded_derivative_roots_are_within_tol(grid, m, tol):
    # D^m p seeded by the n roots of p: root k of D^m p lies in
    # [r_k, r_{k+m}] by iterated Rolle, so the seeds fit though they
    # outnumber the degree, and simple roots never fall back; each root is
    # within tol/2 (and a spacing) of a root of the coefficients as given,
    # by the exact oracle
    roots = sorted(Fraction(k, 4) for k in grid)
    coeffs = from_roots(roots, "rational").coefficients()
    for _ in range(m):
        coeffs = coeff_derivative(coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "real_roots", _no_recursion)
        got = real_roots_near(coeffs, roots, tol)
    assert len(got) == len(roots) - m
    assert ref.roots_within(coeffs, got, tol)


def test_adjacent_triple_roots_are_within_tol():
    # found by the seeded-roots test above: the seeds fall back, and an
    # earlier interlacing recursion returned -2.948 and -2.823 for roots
    # -3 and -2.75 by guessing clusters; the exact terminal finds them
    roots = [-3.0] * 3 + [-2.75] * 3 + [-2.5] * 3 + [-0.5] * 2
    got = real_roots_near(from_roots(roots).coefficients(), roots, 1e-12)
    assert matching_distance(got, roots) <= 1e-12


@pytest.mark.parametrize("roots", [
    [float(k) for k in range(10) for _ in range(2)],
    [float(k) for k in range(1, 7) for _ in range(3)] + [7.0, 7.0],
], ids=["0-9-doubled", "1-6-tripled-7-doubled"])
@pytest.mark.parametrize("tol", [1e-11, 1e-12])
def test_degree_20_tied_roots_are_within_tol(roots, tol):
    # exact double coefficients of degree 20; an earlier recursion was off
    # by 0.32 and 0.46 here, with no exception
    coeffs = from_roots(roots).coefficients()
    for got in (real_roots(coeffs, tol), real_roots_near(coeffs, roots, tol)):
        assert matching_distance(got, roots) <= tol / 2
        assert ref.roots_within(coeffs, got, tol)


@st.composite
def _tied_rational_roots(draw):
    # rational roots with multiplicities 1-4, tight clusters (a root plus
    # k / 2^40) and pairs closer than tol (a root plus 2^-45)
    roots = []
    for _ in range(draw(st.integers(1, 5))):
        root = draw(_small_fraction)
        roots += [root] * draw(st.integers(1, 4))
        kind = draw(st.sampled_from(["alone", "cluster", "close"]))
        if kind == "cluster":
            roots += [root + Fraction(k, 2 ** 40)
                      for k in range(1, draw(st.integers(2, 3)))]
        elif kind == "close":
            roots.append(root + Fraction(1, 2 ** 45))
    return sorted(roots[:12])


@settings(max_examples=150, deadline=None)
@given(_tied_rational_roots(), st.sampled_from([1e-12, 1e-11, 1e-9]),
       st.data())
def test_tied_rational_roots_are_within_tol(roots, tol, data):
    # exact coefficients are read exactly: every call ends with each root
    # of them accounted for by the exact oracle, whatever the seeds
    coeffs = from_roots(roots, "rational").coefficients()
    assert ref.roots_within(coeffs, real_roots(coeffs, tol), tol)
    seeds = data.draw(_seeds([float(r) for r in roots]))
    assert ref.roots_within(coeffs, real_roots_near(coeffs, seeds, tol), tol)


@settings(max_examples=60, deadline=None)
@given(_tied_rational_roots().filter(lambda roots: len(roots) >= 2),
       st.sampled_from([1e-12, 1e-11, 1e-9]),
       st.fractions(-4, 4, max_denominator=8))
def test_bracket_callers_prove_tied_rational_roots(roots, tol, lam):
    # the four callers that know interlacing bracket ends (the roots of P
    # for P', those of P for its pencil, a sample's roots for its
    # criticals) seed real_roots_near with them; on rational roots with
    # ties, tight clusters and pairs closer than tol, every root they
    # return is within tol/2 of a root of the coefficients as given
    p = from_roots(roots, "rational")
    coeffs = p.coefficients()
    got, crits = real_roots_with_criticals(coeffs, tol)
    assert ref.roots_within(coeffs, got, tol)
    assert ref.roots_within(coeff_derivative(coeffs), crits, tol)
    n = p.degree
    assert ref.roots_within([c * k / n for k, c in enumerate(coeffs) if k],
                            derivative(p, tol).roots, tol)
    sample = pencil_at(p, lam, tol)
    assert sample.coeffs == pencil_coeffs(p, lam)
    assert ref.roots_within(sample.coeffs, sample.roots, tol)
    assert ref.roots_within(coeff_derivative(sample.coeffs),
                            sample.criticals, tol)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)),
                min_size=1, max_size=5, unique_by=lambda pick: pick[0]),
       st.sampled_from([1.0, 3.0, 10.0, 7.0 / 3.0]),
       st.one_of(st.none(), st.tuples(_small_fraction, _small_fraction)))
def test_not_real_rooted_exactly_when_sturm_says_so(picks, scale, quadratic):
    # roots k / scale with multiplicities; the double coefficients of a
    # scale that is no power of two are rounded, which may split a
    # multiple root into a complex pair.  real_roots raises NotRealRooted
    # exactly when the exact count proves a root that is not real
    roots = [k / scale for k, m in picks for _ in range(m)]
    coeffs = list(from_roots(roots).coefficients())
    if quadratic is not None:
        b, d = quadratic
        coeffs = [float(c) for c in _times(
            [Fraction(c) for c in coeffs],
            [b * b / 4 + d * d + Fraction(1, 64), b, Fraction(1)])]
    real = is_real_rooted(coeffs)
    try:
        got = real_roots(coeffs, 1e-11)
    except NotRealRooted:
        assert not real
    else:
        assert real and ref.roots_within(coeffs, got, 1e-11)


def test_oracle_rejects_a_root_moved_by_tol():
    # the mutation check: moving one returned root by tol leaves its
    # interval without a root, and the oracle says no
    tol = 1e-11
    for roots in ([-2.5, 0.25, 1.0, 3.75], [-1.0, 0.5, 0.5, 2.0, 2.0, 2.0]):
        coeffs = from_roots(roots).coefficients()
        got = list(real_roots(coeffs, tol))
        assert ref.roots_within(coeffs, got, tol)
        for sign in (1.0, -1.0):
            moved = got[:]
            moved[0] += sign * tol
            assert not ref.roots_within(coeffs, moved, tol)
    assert not ref.roots_within([-6, 11, -6, 1], [1.0, 2.0], tol)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=8), st.integers(-20, 20),
       st.integers(2, 20), st.data())
def test_seeded_roots_keep_not_real_rooted(grid, centre, width, data):
    # prod (x - k/4) times (x - c)^2 + (w/16)^2 with w >= 2: a complex
    # pair at least 1/8 off the axis, whatever the seeds
    roots = sorted(k / 4 for k in grid)
    c = Fraction(centre, 4)
    half = Fraction(width, 16)
    coeffs = [c * c + half * half, -2 * c, Fraction(1)]
    for r in roots:
        coeffs = _times(coeffs, [Fraction(-r), Fraction(1)])
    seeds = data.draw(_seeds(sorted([*roots, float(c - half),
                                     float(c + half)])))
    with pytest.raises(NotRealRooted):
        real_roots_near([float(v) for v in coeffs], seeds)


# --- roots proven by n disjoint sign changes ------------------------------------

def _noise_zone(coeffs, root) -> float:
    # half-width of the interval around a simple root where Horner's value
    # may have the wrong sign: its roundoff bound over |P'(root)|
    magnitude = sum(abs(c) * abs(root) ** k for k, c in enumerate(coeffs))
    slope = sum(k * c * root ** (k - 1) for k, c in enumerate(coeffs) if k)
    return 8.0 * (len(coeffs) - 1) * math.ulp(1.0) * magnitude / abs(slope)


def _no_rescue(*args):
    raise AssertionError("the accurate pass ran")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=12, unique=True),
       st.sampled_from([1e-12, 1e-11, 1e-9]), st.data())
def test_straddled_roots_are_within_tol(grid, tol, data):
    # roots at least a quarter apart, seeds off by up to 1e-4 relative and
    # in any order: Newton from every seed and n disjoint sign changes
    # prove every root of the double coefficients, so the accurate pass
    # does not run.  tol stays 8 times above the widest zone where
    # Horner's sign is noise, since Newton cannot settle inside it.  The
    # exact oracle proves each root within tol/2 of a root of the double
    # coefficients
    roots = sorted(k / 4 for k in grid)
    coeffs = from_roots(roots).coefficients()
    assume(_strictly_real_rooted(coeffs))
    tol = max(tol, 8.0 * max(_noise_zone(coeffs, r) for r in roots))
    moves = data.draw(st.lists(st.floats(-1e-4, 1e-4), min_size=len(roots),
                               max_size=len(roots)))
    seeds = data.draw(st.permutations(
        [r * (1.0 + m) for r, m in zip(roots, moves)]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "_accurate", _no_rescue)
        got = real_roots_near(coeffs, seeds, tol)
    assert ref.roots_within(coeffs, got, tol, spacing=False), (got, tol)


@st.composite
def _collapsing_starts(draw, roots):
    # start sets that defeat plain Newton from every start: all equal
    # (every start reaches the same root), near the roots but in any
    # order (the points reached do not increase), or near all roots but
    # the top one, whose start is 10 to 1e9 above it (plain Newton closes
    # in from there by about 1/n of the distance a step, and from far
    # above runs out of steps)
    kind = draw(st.sampled_from(["equal", "shuffled", "far"]))
    if kind == "equal":
        return kind, [draw(st.sampled_from(roots)) + 0.1] * len(roots)
    moves = draw(st.lists(st.floats(-1e-4, 1e-4), min_size=len(roots),
                          max_size=len(roots)))
    near = [r * (1.0 + m) for r, m in zip(roots, moves)]
    if kind == "shuffled":
        return kind, draw(st.permutations(near))
    return kind, near[:-1] + [roots[-1] + 10.0 ** draw(st.integers(1, 9))]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=12, unique=True),
       st.sampled_from([1e-12, 1e-11, 1e-9]), st.data())
def test_deflated_pass_proves_collapsing_starts(grid, tol, data):
    # the straddle pass alone, with no rescue.  Maehly's
    # deflation pushes each start off the points reached before it: the
    # far start, once all roots below it are found, has a linear Newton
    # map, and two equal starts on a quadratic (off its critical point,
    # which is on the eighth grid) reach its two roots.  So those and the
    # shuffled starts must be proven; from more equal starts the pass may
    # decline.  Whatever it returns, the exact oracle proves within tol/2
    # of the roots of the double coefficients
    roots = sorted(k / 4 for k in grid)
    coeffs = from_roots(roots).coefficients()
    assume(_strictly_real_rooted(coeffs))
    tol = max(tol, 8.0 * max(_noise_zone(coeffs, r) for r in roots))
    kind, starts = data.draw(_collapsing_starts(roots))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "_accurate", _no_rescue)
        got = roots_module._straddled(list(coeffs[::-1]), starts, tol)
    if kind != "equal" or len(roots) == 2:
        assert got is not None, (kind, starts, tol)
    if got is not None:
        assert ref.roots_within(coeffs, got, tol, spacing=False), (got, tol)


def test_straddle_signs_exact_coefficients_as_given():
    # (x - 1/5)(x - 1/5 - 2^-45): rounding its coefficients to doubles
    # splits the pair 2.8e-14 apart into real roots 4.2e-9 apart, which a
    # straddle on the doubles proves.  Signed on the exact numerators the
    # same points prove nothing, and what answers is within tol/2 of the
    # roots of the coefficients as given
    roots = [Fraction(1, 5), Fraction(1, 5) + Fraction(1, 2 ** 45)]
    coeffs = from_roots(roots, "rational").coefficients()
    doubles = [float(c) for c in coeffs]
    split = real_roots(doubles, 1e-9)
    assert split[1] - split[0] > 4e-9
    rev = doubles[::-1]
    assert roots_module._straddled(rev, list(split), 1e-9) == split
    nums = QPoly.of(coeffs).nums
    assert roots_module._straddled(rev, list(split), 1e-9, nums) is None
    for got in (real_roots(coeffs, 1e-9), real_roots_near(coeffs, split, 1e-9),
                real_roots_near(QPoly.of(coeffs), split, 1e-9)):
        assert ref.roots_within(coeffs, got, 1e-9)


def _record(monkeypatch, name) -> list:
    # what each call of the roots function ``name`` returned (for
    # _straddled, None: the pass declined)
    outcomes = []
    real = getattr(roots_module, name)

    def recorded(*args):
        outcomes.append(real(*args))
        return outcomes[-1]
    monkeypatch.setattr(roots_module, name, recorded)
    return outcomes


@pytest.mark.parametrize("roots, seeds, tol", [
    ((1.0, 2.0, 3.0), [1.0, 1.0, 3.0], 1e-12),          # two on one root
    ((1.0, 2.0, 3.0), [1.1, math.nan, 2.9], 1e-12),
    ((-2.0, 1.0, 1.0), [-2.1, 0.9, 1.1], 1e-12),        # a double root
    ((-1e6, 1e6), [-1e6 + 0.5, 1e6 - 0.5], 1e-11),      # below the spacing
    ((-3.0, -1.0), [-2.0, -0.5], 1e-12),                # P' = 0 at -2
], ids=["two-on-one", "nan", "double", "spacing", "critical"])
def test_adversarial_starts_fall_back(monkeypatch, roots, seeds, tol):
    # each seed set fails the straddle certificate as given, in the plain
    # and in the accurate pass: two starts settle on one root, a start
    # has no value, a double root has no sign change, tol is below the
    # spacing, or the first start sits where P' = 0 and nothing deflates
    # it yet.  The exact terminal answers, within tol/2 of the roots, or
    # one spacing where tol is below it
    outcomes = _record(monkeypatch, "_straddled")
    answers = _record(monkeypatch, "_isolated")
    coeffs = from_roots(roots).coefficients()
    got = real_roots_near(coeffs, seeds, tol)
    assert outcomes == [None, None]
    assert answers == [got]
    want = real_roots(coeffs, tol)
    if len(set(roots)) < len(roots):
        assert got == want
    for g, w, r in zip(got, want, roots):
        assert abs(g - r) <= max(tol / 2, math.ulp(r))
        assert abs(w - r) <= max(tol / 2, math.ulp(r))


def test_far_start_is_proven_on_the_first_pass(monkeypatch):
    # roots 1, 2, 3 and seeds 1.1, 2.1, 1e9: once the two near starts have
    # reached 1 and 2, the deflated Newton map of the far start is linear,
    # so it reaches 3 and the first straddle pass proves all three, with
    # no rescue
    monkeypatch.setattr(roots_module, "_accurate", _no_rescue)
    outcomes = _record(monkeypatch, "_straddled")
    coeffs = from_roots((1.0, 2.0, 3.0)).coefficients()
    got = real_roots_near(coeffs, [1.1, 2.1, 1e9], 1e-12)
    assert outcomes == [got]
    assert ref.roots_within(coeffs, got, 1e-12, spacing=False)


def test_near_seeds_are_proven_without_a_polish(monkeypatch):
    # seeds within Newton's reach of simple roots: the straddle
    # certificate proves them as given, with no rescue.  A seed on a
    # critical point is no obstacle once a root is found below it: at
    # the seed -2 of (x + 1)(x + 3), P' = 0 but the deflated slope
    # P' - P / (x + 3) is 1
    monkeypatch.setattr(roots_module, "_accurate", _no_rescue)
    roots = [-3.5, -1.25, 0.5, 2.0, 4.75]
    coeffs = from_roots(roots).coefficients()
    seeds = [r + 1e-3 * (-1) ** k for k, r in enumerate(roots)]
    got = real_roots_near(coeffs, seeds, 1e-12)
    for g, r in zip(got, roots):
        assert abs(g - r) <= 0.5e-12
    got = real_roots_near([3.0, 4.0, 1.0], [-3.5, -2.0], 1e-12)
    assert got == pytest.approx((-3.0, -1.0), abs=0.5e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3),
                          st.integers(1, 2)),
                min_size=1, max_size=3, unique_by=lambda pick: pick[0]),
       st.integers(10, 30), st.sampled_from([1e-12, 1e-11, 1e-9]),
       st.booleans(), st.data())
def test_seeded_roots_at_clusters_keep_the_contract(picks, gap, tol, exact,
                                                    data):
    # clusters of up to three rational roots 2^-gap apart about k / 4,
    # the first of each of multiplicity 1 or 2, seeded within
    # 0.01 sqrt(tol) of the roots: there |P''/2P'| is large, so a start
    # that stops after one small step may be far from its root, and must
    # fail the certificate and fall back rather than come back unproven.
    # On the doubles of the coefficients, rounding may split a multiple
    # root into a complex pair, which must raise NotRealRooted
    roots = sorted(Fraction(k, 4) + Fraction(j, 2 ** gap)
                   for k, size, m in picks
                   for j in range(size) for _ in range(m if j == 0 else 1))
    coeffs = from_roots(roots, "rational").coefficients()
    if not exact:
        coeffs = [float(c) for c in coeffs]
    near = 0.01 * math.sqrt(tol)
    moves = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(roots),
                               max_size=len(roots)))
    seeds = [float(r) + near * m for r, m in zip(roots, moves)]
    try:
        got = real_roots_near(coeffs, seeds, tol)
    except NotRealRooted:
        assert not exact and not is_real_rooted(coeffs)
        return
    assert ref.roots_within(coeffs, got, tol)


# --- the straddle kernel keeps its bits -----------------------------------------

def _straddled_reference(rev, starts, tol, nums=None):
    # the straddle pass in its plain form: P and P' by _eval_with_slope,
    # the Maehly pull summed from 0.0 on every step, the certificate's
    # Horner loops started from acc = 0.0 at the leading coefficient, and
    # signs inside the bound taken on integers, the doubles' numerators
    # when nums is None
    stop = 0.05 * tol
    half = 0.45 * tol
    near = 0.01 * math.sqrt(tol)
    found = []
    try:
        for x in starts:
            last = math.inf
            for _ in range(roots_module._NEWTON):
                f, slope = _eval_with_slope(rev, x)
                pull = 0.0
                for z in found:
                    pull += 1.0 / (x - z)
                slope -= f * pull
                if not slope:
                    return None
                step = f / slope
                x -= step
                size = abs(step)
                if (size <= stop or not size < last and size <= half
                        or size <= near and 10.0 * size < last):
                    break
                last = size
            else:
                return None
            found.append(x)
    except ZeroDivisionError:
        return None
    found.sort()
    edge = -math.inf
    for x in found:
        lo, hi = x - half, x + half
        if not edge < lo < hi or tol < 32.0 * math.ulp(x):
            return None
        edge = hi
    degree = len(rev) - 1 if nums is None else len(rev)
    ints = QPoly.of(rev[::-1]).nums if nums is None else nums
    for x in found:
        lo, hi = x - half, x + half
        far = hi if hi > -lo else -lo
        a = b = mag = 0.0
        for c in rev:
            a = a * lo + c
            b = b * hi + c
            mag = mag * far + abs(c)
        bound = _roundoff(mag, degree)
        if -bound <= a <= bound:
            a = roots_module._sign(ints, lo)
        if -bound <= b <= bound:
            b = roots_module._sign(ints, hi)
        if not (a < 0.0 < b or b < 0.0 < a):
            return None
    return tuple(found)


def _accurate_reference(rev, starts, tol, nums, den):
    # the accurate pass in its plain form, as a loop of its own: P on
    # integers (nums over den, or with nums None the numerators of the
    # doubles) for every Newton step, P' by _eval_with_slope, the pull
    # summed from 0.0 on every step, and a start or step that is not
    # finite failing the pass before it is read
    ints = nums
    if nums is None:
        doubles = QPoly.of(rev[::-1])
        ints, den = doubles.nums, doubles.den
    top = len(ints) - 1
    stop = 0.05 * tol
    half = 0.45 * tol
    near = 0.01 * math.sqrt(tol)
    found = []
    try:
        for x in starts:
            last = math.inf
            for _ in range(roots_module._NEWTON):
                if not math.isfinite(x):
                    return None
                p, q = x.as_integer_ratio()
                e = q.bit_length() - 1
                f = roots_module._value(ints, p, e) / (den << e * top)
                slope = _eval_with_slope(rev, x)[1]
                pull = 0.0
                for z in found:
                    pull += 1.0 / (x - z)
                slope -= f * pull
                if not slope:
                    return None
                step = f / slope
                x -= step
                size = abs(step)
                if (size <= stop or not size < last and size <= half
                        or size <= near and 10.0 * size < last):
                    break
                last = size
            else:
                return None
            found.append(x)
    except (ZeroDivisionError, OverflowError):
        return None
    return roots_module._proven(rev, found, tol, nums)


def _bits(got):
    return None if got is None else tuple(v.hex() for v in got)


@st.composite
def _kernel_starts(draw, roots):
    # near the roots, far above them, colliding on one point, shuffled,
    # or not numbers at all
    kind = draw(st.sampled_from(["near", "far", "colliding", "shuffled",
                                 "nan"]))
    n = len(roots)
    moves = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n, max_size=n))
    near = [r + m * (1.0 + abs(r)) for r, m in zip(roots, moves)]
    if kind == "far":
        return near[:-1] + [roots[-1] + 10.0 ** draw(st.integers(1, 9))]
    if kind == "colliding":
        return [draw(st.sampled_from(roots)) + 0.1] * n
    if kind == "shuffled":
        return draw(st.permutations(near))
    if kind == "nan":
        return [math.nan] * n
    return near


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 3)),
                min_size=1, max_size=12, unique_by=lambda pick: pick[0]),
       st.sampled_from([4, 3, 7]),
       st.one_of(st.integers(0, 30), st.floats(1e-13, 1e-6)),
       st.booleans(), st.data())
def test_straddle_kernel_matches_its_plain_form_bit_for_bit(
        picks, scale, tol, exact, data):
    # the inline Horner loops of _straddled start past the leading
    # coefficient and sum the pull only once a point is found; every
    # iterate, and so every root and every None, must be the plain
    # form's to the bit.  Degrees 1-12 with multiplicities, roots k /
    # scale (rounded coefficients when scale is no power of two), tol
    # from 32 float spacings of the largest root (times 2^k) up to 1e-6,
    # with and without the exact numerators
    roots = sorted(Fraction(k, scale) for k, m in picks for _ in range(m))[:12]
    coeffs = from_roots(roots, "rational").coefficients()
    rev = [float(c) for c in reversed(coeffs)]
    if isinstance(tol, int):
        tol = 32.0 * math.ulp(float(max(abs(r) for r in roots))) * 2.0 ** tol
    nums = QPoly.of(coeffs).nums if exact else None
    starts = data.draw(_kernel_starts([float(r) for r in roots]))
    want = _straddled_reference(rev, list(starts), tol, nums)
    got = roots_module._straddled(rev, list(starts), tol, nums)
    assert _bits(got) == _bits(want), (starts, tol)


@st.composite
def _accurate_starts(draw, roots):
    # the kernel's starts; starts up to 1e-7 relative off the roots, in
    # the noise of a multiple root, where the accurate pass is meant to
    # run; or those with one start that is not finite
    kind = draw(st.sampled_from(["kernel", "noise", "not finite"]))
    if kind == "kernel":
        return draw(_kernel_starts(roots))
    n = len(roots)
    moves = draw(st.lists(st.floats(-1e-7, 1e-7), min_size=n, max_size=n))
    starts = [r + m * (1.0 + abs(r)) for r, m in zip(roots, moves)]
    if kind == "not finite":
        starts[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return starts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 3)),
                min_size=2, max_size=10, unique_by=lambda pick: pick[0]),
       st.sampled_from([4, 3, 7]),
       st.one_of(st.integers(0, 30), st.floats(1e-13, 1e-6)),
       st.booleans(), st.data())
def test_accurate_pass_matches_its_plain_form_bit_for_bit(
        picks, scale, tol, exact, data):
    # the accurate pass is _straddled's loop with P on integers: every
    # point it hands the certificate, and so every root and every None,
    # must be the plain form's to the bit.  Degrees 2-10 with
    # multiplicities, roots k / scale, tol as in the kernel test, on the
    # numerators of the doubles and on exact ones
    roots = sorted(Fraction(k, scale) for k, m in picks for _ in range(m))[:10]
    coeffs = QPoly.of(from_roots(roots, "rational").coefficients())
    rev = [c / coeffs.den for c in reversed(coeffs.nums)]
    if isinstance(tol, int):
        tol = 32.0 * math.ulp(float(max(abs(r) for r in roots))) * 2.0 ** tol
    nums, den = (coeffs.nums, coeffs.den) if exact else (None, 1)
    starts = data.draw(_accurate_starts([float(r) for r in roots]))
    reached = []
    real = roots_module._proven

    def recorded(rev, found, tol, nums):
        reached.append((tuple(v.hex() for v in found), nums))
        return real(rev, found, tol, nums)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots_module, "_proven", recorded)
        want = _accurate_reference(rev, list(starts), tol, nums, den)
        got = roots_module._accurate(rev, list(starts), tol, nums, den)
    assert _bits(got) == _bits(want), (starts, tol)
    assert len(reached) in (0, 2) and reached[:1] == reached[1:], reached


def test_exact_terminal_reports_dyadic_roots_exactly():
    # 0..9, each doubled: the exact terminal answers, and each root is a
    # bisection point that stays the closed end of its interval, so it is
    # reported as itself, not as the midpoint k - 2^-27 of the last
    # interval
    want = tuple(float(k) for k in range(10) for _ in range(2))
    coeffs = from_roots(want).coefficients()
    assert real_roots(coeffs) == want
    assert real_roots([Fraction(c) for c in coeffs]) == want


def test_a_degree_one_root_at_zero_is_positive_zero():
    # -0.0 / a is -0.0, and so is a quotient that underflows from below:
    # each degree-1 return adds 0.0, as the terminal does, so a report
    # never prints -0.0
    for got in (real_roots([0, 1])[0], real_roots([0.0, -2.0])[0],
                real_roots_near([0, 1], [-1.0, 1.0])[0],
                real_roots_near([1e-300, 1e300], [0.0])[0],
                real_roots_with_criticals([-1, 0, 1])[1][0]):
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
