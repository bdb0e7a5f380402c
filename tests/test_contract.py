"""Contractions, transfers, and the chain decomposition."""

import random
from fractions import Fraction

import pytest

from specpoly import (ContractionStep, Verdict, apply_contraction,
                      check_majorization, decompose_majorization, discrepancy,
                      expand_transfer, from_roots, random_comparable_pair)
from specpoly.errors import (ChainTooLong, CoefficientTooLarge, EqualRoots,
                             InvalidIndices, NotDistinct, NotMajorized,
                             NotStrict, PreconditionViolated, SigmaTooLarge)


def test_apply_basic():
    assert apply_contraction(from_roots([0, 4]),
                             ContractionStep(1, 2, 1)).roots == (1, 3)


def test_apply_degenerate_midpoint():
    q = apply_contraction(from_roots([0, 4]), ContractionStep(1, 2, 2))
    assert q.roots == (2, 2)


def test_apply_nonadjacent():
    q = apply_contraction(from_roots([0, 2, 6]), ContractionStep(1, 3, 1))
    assert q.roots == (1, 2, 5)


def test_apply_resorts_when_interior_overtaken():
    q = apply_contraction(from_roots([0, Fraction(1, 10), 4]),
                          ContractionStep(1, 3, 1))
    assert q.roots == (Fraction(1, 10), 1, 3)


def test_apply_preserves_sum_and_order():
    p = from_roots([-3, 1, 8])
    q = apply_contraction(p, ContractionStep(2, 3, 2))
    assert sum(q.roots) == sum(p.roots)
    assert check_majorization(q.roots, p.roots).verdict is Verdict.LESS


def test_apply_errors():
    p = from_roots([0, 4])
    with pytest.raises(InvalidIndices):
        apply_contraction(p, ContractionStep(1, 3, 1))
    with pytest.raises(CoefficientTooLarge):
        apply_contraction(p, ContractionStep(1, 2, 3))
    with pytest.raises(EqualRoots):
        apply_contraction(from_roots([2, 2]), ContractionStep(1, 2, 1))
    with pytest.raises(InvalidIndices):
        ContractionStep(2, 2, 1)
    with pytest.raises(CoefficientTooLarge):
        ContractionStep(1, 2, 0)


def test_discrepancy():
    assert discrepancy(from_roots([0, 2, 4]), from_roots([1, 2, 3])) == 2
    p = from_roots([1, 5])
    assert discrepancy(p, p) == 0
    assert discrepancy(from_roots([0.0, 4.0]), from_roots([1.0, 3.0])) == 2
    assert discrepancy(from_roots([0.0, 4.0]),
                       from_roots([1e-14, 4.0 - 1e-14])) == 0


def test_expand_transfer_doubling_fixture():
    chain = expand_transfer(from_roots([0, 2, 4]), 1, 3, 1)
    assert len(chain.steps) == 8
    assert all(s.t == Fraction(1, 4) for s in chain.steps)
    assert chain.target.roots == (1, 2, 3)
    chain.verify()


def test_expand_transfer_adjacent_single_step():
    chain = expand_transfer(from_roots([0, 4]), 1, 2, 1)
    assert len(chain.steps) == 1
    assert chain.steps[0] == ContractionStep(1, 2, Fraction(1))


def test_expand_transfer_two_interior():
    chain = expand_transfer(from_roots([0, 4, 6, 10]), 1, 4, 1)
    assert len(chain.steps) == 6
    assert all(s.t == Fraction(1, 2) for s in chain.steps)
    chain.verify()


def test_expand_transfer_untouched_outside_window():
    chain = expand_transfer(from_roots([-10, 0, 2, 4, 20]), 2, 4, 1)
    assert chain.target.roots == (-10, 1, 2, 3, 20)
    for inter in chain.intermediates():
        assert inter.roots[0] == -10 and inter.roots[-1] == 20


def test_expand_transfer_step_count_formula():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 7)
        p = from_roots(sorted(rng.sample(range(-20, 21), n)))
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        half = (p.roots[j - 1] - p.roots[i - 1]) / 2
        limits = [half * Fraction(rng.randint(1, 7), 8)]
        limits += [z - p.roots[i - 1] for z in p.roots[i:j - 1]]
        limits += [p.roots[j - 1] - z for z in p.roots[i:j - 1]]
        sigma = min(limits) * Fraction(1, 2)
        if sigma <= 0:
            continue
        chain = expand_transfer(p, i, j, sigma)
        interior = j - i - 1
        if interior == 0:
            assert len(chain.steps) == 1
        else:
            d = (len(chain.steps) // (interior + 1)).bit_length() - 1
            assert len(chain.steps) == (interior + 1) * 2 ** d
        chain.verify()


def test_expand_transfer_errors():
    p = from_roots([0, 2, 4])
    with pytest.raises(SigmaTooLarge):
        expand_transfer(p, 1, 3, 2)
    with pytest.raises(PreconditionViolated):
        expand_transfer(from_roots([0, Fraction(1, 2), 4]), 1, 3, 1)
    with pytest.raises(ChainTooLong):
        # interior root barely clears the window: the doubling depth explodes
        expand_transfer(from_roots([0, Fraction(1, 2) + Fraction(1, 10 ** 9), 4]),
                        1, 3, Fraction(1, 2), step_cap=100)


def test_decompose_adjacent_fixture():
    chain = decompose_majorization(from_roots([0, 4]), from_roots([1, 3]))
    assert chain.steps == (ContractionStep(1, 2, Fraction(1)),)


def test_decompose_case2_fixture():
    chain = decompose_majorization(from_roots([0, 2, 4]), from_roots([1, 2, 3]))
    assert len(chain.steps) == 8
    chain.verify()


def test_decompose_errors():
    p = from_roots([0, 4])
    with pytest.raises(NotDistinct):
        decompose_majorization(p, p)
    with pytest.raises(NotMajorized):
        decompose_majorization(from_roots([1, 3]), from_roots([0, 4]))
    with pytest.raises(NotStrict):
        decompose_majorization(from_roots([0, 2, 4]), from_roots([2, 2, 2]))


def test_decompose_perturb_remedy():
    p = from_roots([0, 2, 4])
    q = from_roots([2, 2, 2])
    chain = decompose_majorization(p, q, perturb_eps=Fraction(1, 100))
    chain.verify()
    assert chain.source.roots != p.roots  # the chain connects the perturbed pair
    assert sum(chain.source.roots) == sum(p.roots)


def test_decompose_replay_and_invariants_random():
    rng = random.Random(77)
    for trial in range(60):
        n = rng.randint(2, 8)
        p, q = random_comparable_pair(rng, n, budget=rng.randint(1, 4))
        if p.roots == q.roots:
            continue
        chain = decompose_majorization(p, q)
        chain.verify()
        prev = chain.source
        for step, cur in zip(chain.steps, list(chain.intermediates())[1:]):
            assert step.simple
            gap = prev.roots[step.k] - prev.roots[step.k - 1]
            assert 2 * step.t < gap
            cert = check_majorization(cur.roots, prev.roots)
            assert cert.comparable
            prev = cur


def test_decompose_discrepancy_descends_per_stage():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(3, 7)
        p, q = random_comparable_pair(rng, n, budget=3)
        if p.roots == q.roots:
            continue
        chain = decompose_majorization(p, q)
        cur = chain.source
        idx = 0
        prev_disc = discrepancy(cur, q)
        for length in chain.stage_lengths:
            for step in chain.steps[idx:idx + length]:
                cur = apply_contraction(cur, step)
            idx += length
            disc = discrepancy(cur, q)
            assert disc < prev_disc
            prev_disc = disc


def test_random_pair_contract():
    p, q = random_comparable_pair(4, n=5, budget=0)
    assert p.roots == q.roots
    for seed in range(20):
        p, q = random_comparable_pair(seed, n=4, budget=3)
        assert check_majorization(q.roots, p.roots).comparable


def test_random_pair_reproducible():
    a = random_comparable_pair(123, n=6, budget=4)
    b = random_comparable_pair(123, n=6, budget=4)
    assert a[0].roots == b[0].roots and a[1].roots == b[1].roots


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_random_pair_of_one_root(mode):
    # one root admits no contraction, whatever the budget
    for budget in (0, 1, 5):
        p, q = random_comparable_pair(7, n=1, budget=budget, mode=mode)
        assert p.degree == 1 and q.roots == p.roots
