"""Root-tuple work on integer numerators against plain Fraction loops.

The library runs majorization, hinge probes, contraction chains, witnesses
and pair draws on numerators over one denominator; ``fraction_reference``
has the loops one Fraction operation at a time.  On all-int, all-Fraction
and mixed tuples the two must give equal values, the same type for every
returned scalar and the same JSON bytes; float mode must give the same
doubles bit for bit.
"""

import json
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from specpoly import (ContractionChain, ContractionStep, HyperbolicPoly,
                      MajorizationCertificate, Verdict, apply_contraction,
                      build_witness, check_majorization, decompose_majorization,
                      discrepancy, expand_transfer, hinge_oracle,
                      random_comparable_pair, random_hyperbolic, strictness)
from specpoly._qpoly import numerators
from specpoly.scalars import FLOAT, RATIONAL
from specpoly.serialize import (certificate_to_json, chain_to_json,
                                witness_to_json)

_int = st.integers(-30, 30)
_fraction = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_mixed = st.one_of(_int, _fraction)
_kinds = st.sampled_from([_int, _fraction, _mixed])
_float = st.floats(-20, 20, allow_nan=False, allow_subnormal=False)


def _same(a, b) -> bool:
    """Equal values of the same type, element by element in tuples."""
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(u, v) for u, v in zip(a, b)))
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return type(a) is type(b) and a == b


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


@st.composite
def _pairs(draw, equal_sums=None):
    """Two tuples of one length, each entry int or Fraction as drawn."""
    n = draw(st.integers(0, 8))
    xs = draw(st.lists(draw(_kinds), min_size=n, max_size=n))
    ys = draw(st.lists(draw(_kinds), min_size=n, max_size=n))
    if n and (draw(st.booleans()) if equal_sums is None else equal_sums):
        ys[-1] = sum(xs) - sum(ys[:-1])
    return xs, ys


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_partial_sums_match_the_fraction_loop(pair):
    xs, ys = pair
    cert = check_majorization(xs, ys)
    verdict, residual, slacks = ref.partial_sums(xs, ys)
    assert cert.verdict is Verdict(verdict)
    assert _same(cert.sum_residual, residual)
    assert _same(cert.slacks, slacks)
    assert _same(cert.tol, Fraction(0))
    expected = MajorizationCertificate(Verdict(verdict), residual, slacks,
                                       Fraction(0))
    assert (_dumps(certificate_to_json(cert))
            == _dumps(certificate_to_json(expected)))


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_hinge_values_match_the_fraction_loop(pair):
    xs, ys = pair
    got = [(p.description, p.value_on_x, p.value_on_y, p.satisfied)
           for p in hinge_oracle(xs, ys).probes]
    want = ref.hinge_values(xs, ys)
    assert [row[0] for row in got] == [row[0] for row in want]
    assert all(_same(g[1:], w[1:]) for g, w in zip(got, want))


def test_all_int_tuples_are_their_own_numerators():
    # fresh lists over L = 1, since the checks sort them in place; a bool
    # takes the ratio path and comes back an int
    xs = [3, -1, 2]
    (nx, ny), den = numerators(xs, (True, 0, False))
    assert den == 1 and nx == xs and nx is not xs
    assert _same(ny, [1, 0, 0])
    check_majorization(xs, [2, 2, 0])
    hinge_oracle(xs, [2, 2, 0])
    assert xs == [3, -1, 2]


@st.composite
def _float_pairs(draw):
    # float mode: each tuple holds at least one float, ints may ride along
    n = draw(st.integers(1, 8))
    entry = st.one_of(_float, _int)
    xs = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
    ys = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
    xs.insert(draw(st.integers(0, n - 1)), draw(_float))
    ys.insert(draw(st.integers(0, n - 1)), draw(_float))
    return xs, ys


@settings(max_examples=200, deadline=None)
@given(_float_pairs(), st.one_of(st.none(), st.sampled_from([0.0, 1e-3, 2])))
def test_float_mode_keeps_its_arithmetic(pair, tol):
    xs, ys = pair
    ref_tol = tol
    if tol is None:
        ref_tol = 1e-9 * (1 + max(abs(float(v)) for v in xs + ys))
    cert = check_majorization(xs, ys, tol)
    verdict, residual, slacks = ref.partial_sums(xs, ys, ref_tol)
    assert cert.verdict is Verdict(verdict)
    assert _same(cert.sum_residual, residual)
    assert _same(cert.slacks, slacks)
    got = [(p.description, p.value_on_x, p.value_on_y, p.satisfied)
           for p in hinge_oracle(xs, ys, tol).probes]
    assert _same(got, [tuple(r) for r in ref.hinge_values(xs, ys, ref_tol)])


def _contract_randomly(rng, roots, budget):
    # a tuple majorized by ``roots``: random adjacent and separated
    # contractions by at most half their gap; integral results become
    # ints half of the time, so moved entries are mixed too
    x = list(roots)
    for _ in range(budget):
        k = rng.randrange(len(x) - 1)
        l = rng.randrange(k + 1, len(x))
        gap = x[l] - x[k]
        if gap > 0:
            x = list(ref.apply_contraction(
                x, k + 1, l + 1, gap * Fraction(rng.randint(1, 8), 16)))
    return [int(v) if v == int(v) and rng.random() < 0.5 else v for v in x]


def _strict(values) -> bool:
    return len(set(values)) == len(values)


def _assume_short_chain(p, q):
    # close roots far apart make sweeps of thousands of steps, which the
    # Fraction loops replay one step at a time; those are left out
    chain = decompose_majorization(p, q)
    assume(len(chain.steps) <= 2000)
    return chain


@settings(max_examples=200, deadline=None)
@given(st.lists(_mixed, min_size=1, max_size=7), st.integers(0, 2 ** 32),
       st.integers(0, 4), st.booleans())
def test_witness_matches_the_transform_product(ys, seed, budget, tied):
    rng = random.Random(seed)
    ys = sorted(ys)
    if tied:
        xs = [Fraction(sum(ys), len(ys))] * len(ys)
    else:
        xs = _contract_randomly(rng, ys, budget) if len(ys) > 1 else ys
    witness = build_witness(xs, ys)
    want = ref.witness(xs, ys)
    assert _same(witness.matrix, want)
    assert (_dumps(witness_to_json(witness))
            == _dumps([[str(v) for v in row] for row in want]))


@st.composite
def _strict_roots(draw, min_size=2):
    values = draw(st.lists(draw(_kinds), min_size=min_size, max_size=8,
                           unique=True))
    return tuple(sorted(values))


@settings(max_examples=200, deadline=None)
@given(_strict_roots(), st.data())
def test_sweep_matches_the_contraction_loop(roots, data):
    # built directly, so that int roots stay ints as they would in the loop
    p = HyperbolicPoly(roots, RATIONAL)
    i = data.draw(st.integers(1, len(roots) - 1))
    j = data.draw(st.integers(i + 1, len(roots)))
    a, b = roots[i - 1], roots[j - 1]
    room = Fraction(b - a) / 2
    if j > i + 1:
        room = min(room, roots[i] - a, b - roots[j - 2])
    sigma = room * Fraction(data.draw(st.integers(1, 7)), 8)
    chain = expand_transfer(p, i, j, sigma)
    assume(len(chain.steps) <= 2000)
    steps, target = ref.expand_transfer(roots, i, j, sigma)
    assert _same([(s.k, s.l, s.t) for s in chain.steps], steps)
    assert _same(chain.target.roots, target)
    assert _same(chain.replay().roots, target)
    expected = ContractionChain(
        p, tuple(ContractionStep(*s) for s in steps),
        HyperbolicPoly(target, RATIONAL))
    assert _dumps(chain_to_json(chain)) == _dumps(chain_to_json(expected))


@settings(max_examples=200, deadline=None)
@given(_strict_roots(), st.integers(0, 2 ** 32), st.integers(1, 5))
def test_decomposition_matches_the_contraction_loop(roots, seed, budget):
    target = tuple(_contract_randomly(random.Random(seed), roots, budget))
    assume(target != roots and _strict(target))
    p, q = HyperbolicPoly(roots, RATIONAL), HyperbolicPoly(target, RATIONAL)
    chain = _assume_short_chain(p, q)
    steps, stages = ref.decompose(roots, target)
    assert _same([(s.k, s.l, s.t) for s in chain.steps], steps)
    assert list(chain.stage_lengths) == stages
    expected = ContractionChain(p, tuple(ContractionStep(*s) for s in steps),
                                q)
    assert _dumps(chain_to_json(chain)) == _dumps(chain_to_json(expected))
    chain.verify()
    assert chain.audit() is None
    replayed = roots
    for step in steps:
        replayed = ref.apply_contraction(replayed, step[0], step[1],
                                         Fraction(step[2]))
    assert _same(chain.replay().roots, replayed)
    # a step through apply_contraction keeps the same types
    first = ContractionStep(*steps[0])
    assert _same(apply_contraction(p, first).roots,
                 ref.apply_contraction(roots, first.k, first.l,
                                       Fraction(first.t)))


@settings(max_examples=100, deadline=None)
@given(_strict_roots(min_size=1), st.lists(_mixed, min_size=8, max_size=8))
def test_strictness_and_discrepancy_match(roots, other):
    p = HyperbolicPoly(roots, RATIONAL)
    if len(roots) > 1:
        gaps = [roots[i + 1] - roots[i] for i in range(len(roots) - 1)]
        assert _same(strictness(p).min_gap, min(gaps))
    q = HyperbolicPoly(tuple(sorted(other[:len(roots)])), RATIONAL)
    assert discrepancy(p, q) == sum(1 for a, b in zip(p.roots, q.roots)
                                    if a != b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 10), st.integers(0, 6),
       st.booleans(), st.booleans())
def test_pair_draws_match(seed, n, budget, exact, harness_args):
    # harness_args: the arguments of harness._pair, bound 8 and min_gap 1/2
    # (a Fraction in rational mode, a float in float mode)
    mode = RATIONAL if exact else FLOAT
    kwargs = {}
    if harness_args:
        kwargs = {"bound": 8,
                  "min_gap": Fraction(1, 2) if exact else 0.5}
    rng = random.Random(seed)
    p, q = random_comparable_pair(rng, n, budget, mode=mode, **kwargs)
    want_rng = random.Random(seed)
    want_p, want_q = ref.random_comparable_pair(want_rng, n, budget, exact,
                                                **kwargs)
    assert _same(p.roots, want_p)
    assert _same(q.roots, want_q)
    # the draw consumes exactly the reference's random values
    assert rng.getstate() == want_rng.getstate()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8),
       st.sampled_from([8, Fraction(17, 2), 8.25]),
       st.sampled_from([Fraction(1, 2), 1, 0.375, Fraction(1, 3)]))
def test_random_hyperbolic_matches(seed, n, bound, min_gap):
    got = random_hyperbolic(random.Random(seed), n, bound=bound,
                            min_gap=min_gap)
    want = ref.random_hyperbolic(random.Random(seed), n, bound, min_gap, True)
    assert _same(got.roots, want)
