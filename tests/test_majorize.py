"""Partial-sum criterion, hinge oracle, witnesses, Schur functionals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specpoly.contract
from specpoly import (DoublyStochasticWitness, Verdict, build_witness,
                      check_majorization, hinge, hinge_oracle,
                      matching_distance, power, schur_eval, signed_power,
                      xlogx)
from specpoly.errors import (ConfigError, DomainViolation, EmptyTuple,
                             FloatModeUnsupported, LengthMismatch,
                             ModeMismatch, NonFinite, NotMajorized)
from specpoly.majorize import _TransformProduct, probe_valid


def test_less_fixture():
    cert = check_majorization((1, 1, 2), (0, 2, 2))
    assert cert.verdict is Verdict.LESS
    assert cert.slacks == (0, 1)
    assert cert.sum_residual == 0


def test_equal_reflexive():
    assert check_majorization((0, 5), (0, 5)).verdict is Verdict.EQUAL


def test_sum_mismatch():
    cert = check_majorization((0, 1), (0, 2))
    assert cert.verdict is Verdict.SUM_MISMATCH
    assert cert.sum_residual == -1


def test_incomparable():
    cert = check_majorization((0, 2), (1, 1))
    assert cert.verdict is Verdict.INCOMPARABLE


def test_exact_mode_forces_zero_tol():
    cert = check_majorization((Fraction(1), Fraction(1)), (0, 2), tol=5)
    assert cert.tol == 0
    assert cert.verdict is Verdict.LESS


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, True])
@pytest.mark.parametrize("y", [(1.0, 3.0), (1.0, 5.0)])
def test_float_mode_refuses_a_bad_tol(tol, y):
    # NaN read Less, inf Equal and -1 a sum mismatch before they were
    # refused; rational mode ignores tol
    with pytest.raises(ConfigError):
        check_majorization((0.0, 4.0), y, tol)
    with pytest.raises(ConfigError):
        hinge_oracle((0.0, 4.0), y, tol)
    assert check_majorization((1, 3), (0, 4), tol).verdict is Verdict.LESS
    assert check_majorization((0.0, 4.0), y, 0).tol == 0


def test_length_and_mode_errors():
    with pytest.raises(LengthMismatch):
        check_majorization((1,), (1, 2))
    with pytest.raises(ModeMismatch):
        check_majorization((1.0, 2.0), (Fraction(1), Fraction(2)))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("x, y", [
    ((_NAN, 1.0), (1.0, 1.0)),      # read Less with a NaN residual
    ((_INF, 1.0), (1.0, 1.0)),      # read Equal at tol inf
    ((1.0, 1.0), (-_INF, 3.0)),
    ((_INF, -_INF), (0.0, 0.0)),    # infinities that cancel to a NaN sum
    ((_INF, 1.0), (_INF, 1.0)),
    ((1e308, 1e308), (1e308, 1e308)),   # sums overflow
])
@pytest.mark.parametrize("tol", [None, 1e-6])
def test_float_mode_refuses_non_finite_entries(x, y, tol):
    with pytest.raises(NonFinite):
        check_majorization(x, y, tol)
    with pytest.raises(NonFinite):
        hinge_oracle(x, y, tol)
    with pytest.raises(NonFinite):
        build_witness(x, y)
    with pytest.raises(NonFinite):
        check_majorization(y, x, tol)


def test_float_sums_whose_difference_overflows_are_not_refused():
    # both sums are finite (+-1.5e308); only their difference overflows
    x, y = (1e308, 5e307), (-1e308, -5e307)
    assert check_majorization(x, y).verdict is Verdict.SUM_MISMATCH
    assert not hinge_oracle(x, y).probes[0].satisfied
    with pytest.raises(FloatModeUnsupported):
        build_witness(x, y)


def test_float_boundary_absorbed_into_less():
    cert = check_majorization((0.0, 2.0 + 1e-12), (0.0, 2.0))
    assert cert.verdict in (Verdict.LESS, Verdict.EQUAL)


def test_hinge_oracle_fixtures():
    assert hinge_oracle((1, 1), (0, 2)).all_satisfied
    assert hinge_oracle((3, 4), (3, 4)).all_satisfied
    report = hinge_oracle((0, 2), (1, 1))
    assert not report.all_satisfied
    failing = [p for p in report.probes if not p.satisfied]
    assert any("hinge(t=1)" == p.description for p in failing)


def _random_equal_sum_pair(rng, n):
    x = [rng.randint(-20, 20) for _ in range(n)]
    y = [rng.randint(-20, 20) for _ in range(n - 1)]
    y.append(sum(x) - sum(y))
    return tuple(sorted(x)), tuple(sorted(y))


def test_oracle_equivalence_random():
    rng = random.Random(99)
    agree = 0
    for _ in range(2000):
        n = rng.randint(1, 10)
        if rng.random() < 0.5:
            x, y = _random_equal_sum_pair(rng, n)
        else:
            x = tuple(sorted(rng.randint(-20, 20) for _ in range(n)))
            y = tuple(sorted(rng.randint(-20, 20) for _ in range(n)))
        cert = check_majorization(x, y)
        oracle = hinge_oracle(x, y)
        assert cert.comparable == oracle.all_satisfied
        agree += 1
    assert agree == 2000


@settings(max_examples=300)
@given(st.integers(1, 8), st.data())
def test_oracle_equivalence_hypothesis(n, data):
    x = data.draw(st.lists(st.integers(-15, 15), min_size=n, max_size=n))
    y = data.draw(st.lists(st.integers(-15, 15), min_size=n, max_size=n))
    cert = check_majorization(x, y)
    assert cert.comparable == hinge_oracle(x, y).all_satisfied


def test_antisymmetry():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        x, y = _random_equal_sum_pair(rng, n)
        both = (check_majorization(x, y).comparable
                and check_majorization(y, x).comparable)
        if both:
            assert x == y or check_majorization(x, y).verdict is Verdict.EQUAL


def test_matching_distance_fixtures():
    assert matching_distance((0, 4), (1, 3)) == 1
    assert matching_distance((2, 9), (2, 9)) == 0
    assert matching_distance((0,), (7,)) == 7


def test_matching_distance_of_empty_tuples():
    with pytest.raises(EmptyTuple):
        matching_distance((), ())
    with pytest.raises(LengthMismatch):
        matching_distance((), (1,))


def test_matching_distance_is_metric():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = tuple(sorted(rng.randint(-9, 9) for _ in range(n)))
        b = tuple(sorted(rng.randint(-9, 9) for _ in range(n)))
        c = tuple(sorted(rng.randint(-9, 9) for _ in range(n)))
        assert matching_distance(a, b) == matching_distance(b, a)
        assert (matching_distance(a, b) == 0) == (a == b)
        assert (matching_distance(a, c)
                <= matching_distance(a, b) + matching_distance(b, c))


def test_witness_single_transform():
    w = build_witness((1, 3), (0, 4))
    assert w.matrix == ((Fraction(3, 4), Fraction(1, 4)),
                        (Fraction(1, 4), Fraction(3, 4)))


def test_witness_identity():
    w = build_witness((0, 5), (0, 5))
    assert w.matrix == ((1, 0), (0, 1))


def test_witness_tied_target():
    # a nondegenerate contraction chain cannot end at a triple root, but
    # the stage T-transforms can; validate() checks the result exactly
    w = build_witness((1, 1, 1), (0, 1, 2))
    w.validate((1, 1, 1), (0, 1, 2))
    assert sum(w.matrix[0]) == 1


def test_witness_through_chain():
    w = build_witness((1, 2, 3), (0, 2, 4))
    w.validate((1, 2, 3), (0, 2, 4))


def test_witness_needs_no_chain_and_at_most_n_minus_1_transfers(
        monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("build_witness must not build a chain")

    monkeypatch.setattr(specpoly.contract, "decompose_majorization", no_chain)
    transfer = _TransformProduct.transfer
    calls = []

    def counted(self, k, l, t):
        calls.append((k, l, t))
        transfer(self, k, l, t)

    monkeypatch.setattr(_TransformProduct, "transfer", counted)
    rng = random.Random(63)
    for _ in range(200):
        n = rng.randint(1, 8)
        y = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                   for _ in range(n))
        if rng.random() < 0.3:
            x = [sum(y) / n] * n
        else:
            x = list(y)
            for _ in range(rng.randint(0, 5)):
                i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                t = (x[j] - x[i]) * Fraction(rng.randint(0, 4), 8)
                x[i] += t
                x[j] -= t
        calls.clear()
        w = build_witness(x, y)
        w.validate(x, y)
        assert len(calls) <= n - 1


def test_witness_is_proved_on_integers_before_fractions_are_built(
        monkeypatch):
    def no_validate(self, x, y):
        raise AssertionError("build_witness must check its integer rows")

    monkeypatch.setattr(DoublyStochasticWitness, "validate", no_validate)
    w = build_witness((1, 2, 3), (0, 2, 4))
    assert all(sum(row) == 1 for row in w.matrix)

    matrix = _TransformProduct.matrix
    built = []

    def counted(self):
        built.append(self)
        return matrix(self)

    def skewed(self, k, l, t):
        # moves the vector but leaves the rows as they were
        self.vec[k] += t
        self.vec[l] -= t

    monkeypatch.setattr(_TransformProduct, "matrix", counted)
    monkeypatch.setattr(_TransformProduct, "transfer", skewed)
    with pytest.raises(NotMajorized, match="map"):
        build_witness((1, 3), (0, 4))
    assert built == []


def test_witness_random_soundness():
    from specpoly import random_comparable_pair
    for seed in range(30):
        p, q = random_comparable_pair(seed, n=2 + seed % 5, budget=3)
        w = build_witness(q.roots, p.roots)
        w.validate(q.roots, p.roots)


def test_witness_errors():
    with pytest.raises(NotMajorized):
        build_witness((0, 4), (1, 3))
    with pytest.raises(FloatModeUnsupported):
        build_witness((1.0, 3.0), (0.0, 4.0))


def test_witness_of_the_wrong_size_is_rejected():
    # a 2 x 2 identity must not "prove" that (1, 2, 5) maps onto (1, 2, 99)
    identity = DoublyStochasticWitness(((1, 0), (0, 1)))
    with pytest.raises(NotMajorized):
        identity.validate((1, 2, 99), (1, 2, 5))
    with pytest.raises(NotMajorized):
        identity.validate((1,), (1,))
    three = build_witness((1, 2, 3), (0, 2, 4))
    with pytest.raises(NotMajorized):
        three.validate((1, 3), (0, 4))


def test_witness_with_ragged_rows_is_rejected():
    one = Fraction(1)
    for rows in (((one, 0), (0,)), ((one,), (0, one)),
                 ((one, 0, 0), (0, one))):
        with pytest.raises(NotMajorized):
            DoublyStochasticWitness(rows).validate((1, 2), (1, 2))


def test_witness_length_clash_between_tuples():
    w = build_witness((1, 3), (0, 4))
    with pytest.raises(LengthMismatch):
        w.validate((1, 3), (0, 4, 5))
    with pytest.raises(LengthMismatch):
        DoublyStochasticWitness(()).validate((), (1,))


def test_witness_validate_catches_each_defect():
    good = build_witness((1, 3), (0, 4))
    good.validate((1, 3), (0, 4))
    cases = {
        "entry": ((Fraction(5, 4), Fraction(-1, 4)),
                  (Fraction(-1, 4), Fraction(5, 4))),
        "row": ((Fraction(3, 4), Fraction(1, 2)),
                (Fraction(1, 4), Fraction(1, 2))),
        "column": ((Fraction(3, 4), Fraction(1, 4)),
                   (Fraction(3, 4), Fraction(1, 4))),
        "map": ((Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 2), Fraction(1, 2))),
    }
    for word, rows in cases.items():
        with pytest.raises(NotMajorized, match=word):
            DoublyStochasticWitness(rows).validate((1, 3), (0, 4))


def test_witness_existence_matches_partial_sum_criterion():
    # the two classical characterizations must agree: a doubly stochastic
    # witness exists exactly when the partial-sum check says comparable
    rng = random.Random(61)
    seen_comparable = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        x, y = _random_equal_sum_pair(rng, n)
        comparable = check_majorization(x, y).comparable
        try:
            w = build_witness(x, y)
        except NotMajorized:
            assert not comparable
        else:
            w.validate(x, y)
            assert comparable
            seen_comparable += 1
    assert seen_comparable > 10


def test_witness_fully_tied_target():
    # the barycenter tuple is below everything with the same sum
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(2, 6)
        y = sorted(Fraction(rng.randint(-12, 12), 2) for _ in range(n))
        mean = sum(y) / n
        w = build_witness((mean,) * n, y)
        w.validate((mean,) * n, y)


def test_schur_eval_fixtures():
    assert schur_eval((1, 1), power(2)) == 2
    assert schur_eval((2, 2), hinge(1)) == 2
    got = schur_eval((1, 2), xlogx())
    assert abs(got - 2 * 0.6931471805599453) < 1e-12


def test_schur_domain_violations():
    with pytest.raises(DomainViolation):
        schur_eval((-1, 2), xlogx())
    with pytest.raises(DomainViolation):
        schur_eval((0, 2), signed_power(Fraction(1, 2)))
    with pytest.raises(DomainViolation):
        power(0)


def test_signed_power_sign():
    # r in (0,1) makes r(r-1) negative; the functional is still convex
    v = schur_eval((1, 4), signed_power(0.5))
    assert v == 0.5 * (0.5 - 1) * (1 + 2)


def test_schur_monotone_under_majorization():
    rng = random.Random(12)
    probes = [hinge(0), hinge(2), power(2), power(4)]
    pos_probes = [xlogx(), power(3), signed_power(0.5), signed_power(-1.0)]
    for _ in range(400):
        n = rng.randint(2, 7)
        x, y = _random_equal_sum_pair(rng, n)
        cert = check_majorization(x, y)
        if not cert.comparable:
            continue
        for probe in probes:
            assert schur_eval(x, probe) <= schur_eval(y, probe)
        if min(x) > 0 and min(y) > 0:
            for probe in pos_probes:
                assert probe_valid(probe, x, y)
                assert schur_eval(x, probe) <= schur_eval(y, probe) + 1e-9
