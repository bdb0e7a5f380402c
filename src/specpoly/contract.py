"""Zero-transfer contractions and constructive majorization decomposition.

A contraction of type (k, l) with coefficient t moves the k-th and l-th
sorted roots toward each other by t.  Simple means adjacent (l = k+1),
nondegenerate means the two roots do not meet.  Any strict majorization
between strictly hyperbolic polynomials decomposes into a finite chain of
simple nondegenerate contractions; the decomposition here follows the
constructive induction on the discrepancy count, expanding separated
two-point transfers through the doubling sweep.

Everything in this module demands exact rational mode: the branch
predicates of the induction compare exact differences, and float noise
would corrupt it.  Those differences are taken on integers: a ``_Walk``
holds the sorted roots, the step coefficients and the target over one
common denominator (``_qpoly.numerators``), so applying a step, replaying
or auditing a chain and the doubling sweep of ``expand_transfer`` and
``decompose_majorization`` add and compare integers.  All steps of one
sweep share one ``Fraction`` t; roots come back as ``Fraction`` values
only when a polynomial is handed back, and a root no step moved comes
back as the object it was.  A random pair draw walks once too: all its
contractions move one ``_Walk``, and one polynomial is built at the end.
``apply_contraction`` and ``ContractionChain.replay`` also take float
polynomials and then walk their doubles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (ChainTooLong, CoefficientTooLarge, DegreeMismatch,
                     EqualRoots, FloatModeUnsupported, InvalidIndices,
                     NotDistinct, NotMajorized, NotStrict, PreconditionViolated,
                     SigmaTooLarge)
from ._qpoly import numerators
from .majorize import (Verdict, check_majorization, default_tol,
                       first_transfer)
from .poly import (HyperbolicPoly, random_hyperbolic, strict_numerators,
                   strict_perturb)
from .scalars import FLOAT, RATIONAL, Scalar, coerce

DEFAULT_STEP_CAP = 10 ** 6


@dataclass(frozen=True)
class ContractionStep:
    """Transfer t between the k-th and l-th sorted roots (1-based, k < l)."""

    k: int
    l: int
    t: Scalar

    def __post_init__(self):
        if not (1 <= self.k < self.l):
            raise InvalidIndices(f"need 1 <= k < l, got k={self.k}, l={self.l}")
        if not self.t > 0:
            raise CoefficientTooLarge(f"coefficient must be positive, got {self.t}")

    @property
    def simple(self) -> bool:
        return self.l == self.k + 1


@dataclass(frozen=True)
class ContractionChain:
    source: HyperbolicPoly
    steps: tuple
    target: HyperbolicPoly
    stage_lengths: tuple = field(default=(), compare=False)

    def replay(self) -> HyperbolicPoly:
        if not self.steps:
            return self.source
        return HyperbolicPoly(self._walk().roots(), self.source.mode)

    def verify(self) -> None:
        """Replay must reproduce the target exactly; raises on failure."""
        walk = self._walk(self.target.roots)
        if walk.x != walk.others[0]:
            raise NotMajorized("chain replay does not reproduce the target")

    def audit(self) -> Optional[str]:
        """What is wrong with the chain as a decomposition, or None.

        Every step must be simple and nondegenerate (2t below the gap),
        the discrepancy to the target must drop with every stage of
        ``stage_lengths``, and the replay must end at the target.
        """
        walk = _Walk(self.source, self.steps, self.target.roots)
        x, y = walk.x, walk.others[0]
        consumed = 0
        prev = _differ(x, y, 0)
        for length in self.stage_lengths:
            for step, t in zip(self.steps[consumed:consumed + length],
                               walk.t[consumed:consumed + length]):
                if not step.simple:
                    return "non-simple step"
                if not 2 * t < x[step.l - 1] - x[step.k - 1]:
                    return "degenerate step"
                walk.move(step.k - 1, step.l - 1, t, step.t)
            consumed += length
            disc = _differ(x, y, 0)
            if disc >= prev:
                return "discrepancy did not drop"
            prev = disc
        if x != y:
            return "replay mismatch"
        return None

    def intermediates(self):
        walk = _Walk(self.source, self.steps)
        yield self.source
        for step, t in zip(self.steps, walk.t):
            walk.move(step.k - 1, step.l - 1, t, step.t)
            yield HyperbolicPoly(walk.roots(), self.source.mode)

    def _walk(self, *others) -> "_Walk":
        walk = _Walk(self.source, self.steps, *others)
        for step, t in zip(self.steps, walk.t):
            walk.move(step.k - 1, step.l - 1, t, step.t)
        return walk


class _Walk:
    """Sorted roots moved by contractions, on numerators.

    In rational mode the roots, the step coefficients and any further
    tuples go over one denominator ``den`` (``_qpoly.numerators``), so a
    step is two integer additions; float mode walks the doubles with
    ``den`` 1.  A root keeps its own object until a step moves it, so an
    unmoved root is handed back as it came in.
    """

    def __init__(self, p: HyperbolicPoly, steps=(), *others):
        self.exact = p.mode == RATIONAL
        ts = [coerce(step.t, p.mode) for step in steps]
        (self.x, self.t, *self.others), self.den = numerators(
            p.roots, ts, *others, exact=self.exact)
        self.objs = list(p.roots)

    def value(self, num) -> Scalar:
        return Fraction(num, self.den) if self.exact else num

    def holds_fraction(self, i: int) -> bool:
        """Whether position i holds a Fraction: a moved root, or an
        unmoved root that is one."""
        obj = self.objs[i]
        return obj is None or isinstance(obj, Fraction)

    def move(self, k: int, l: int, t, shown) -> None:
        """Move x[k] up and x[l] down by t (0-based); ``shown`` is the
        coefficient as the step states it, for messages."""
        x = self.x
        if l >= len(x):
            raise InvalidIndices(f"index l={l + 1} exceeds degree {len(x)}")
        if x[k] == x[l]:
            raise EqualRoots(f"roots at positions {k + 1} and {l + 1} coincide")
        if 2 * t > x[l] - x[k]:
            raise CoefficientTooLarge(
                f"t={shown} exceeds half the gap {self.value(x[l] - x[k])}/2")
        x[k] += t
        x[l] -= t
        objs = self.objs
        objs[k] = objs[l] = None
        if l > k + 1:
            # roots in between may be overtaken; a stable sort, as before
            order = sorted(range(len(x)), key=x.__getitem__)
            x[:] = [x[i] for i in order]
            objs[:] = [objs[i] for i in order]

    def rescale(self, up: int = 1, down: int = 1) -> None:
        """Put every tuple over den * up / down; down must divide them all."""
        for nums in (self.x, *self.others):
            nums[:] = [v * up // down for v in nums]
        self.den = self.den * up // down

    def roots(self) -> tuple:
        value = self.value
        return tuple([value(v) if obj is None else obj
                      for v, obj in zip(self.x, self.objs)])


def apply_contraction(p: HyperbolicPoly, step: ContractionStep) -> HyperbolicPoly:
    """Move roots x_k, x_l toward each other by t; preserves the root sum."""
    walk = _Walk(p, (step,))
    walk.move(step.k - 1, step.l - 1, walk.t[0], step.t)
    return HyperbolicPoly(walk.roots(), p.mode)


def _differ(xs, ys, tol) -> int:
    return sum(1 for a, b in zip(xs, ys) if abs(a - b) > tol)


def discrepancy(p: HyperbolicPoly, q: HyperbolicPoly,
                tol: Optional[float] = None) -> int:
    """Number of positions where the sorted root tuples differ."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    if p.mode == RATIONAL and q.mode == RATIONAL:
        (x, y), _ = numerators(p.roots, q.roots)
        return _differ(x, y, 0)
    if tol is None:
        tol = default_tol(p.roots, q.roots)
    return _differ(p.roots, q.roots, tol)


def _require_exact(p: HyperbolicPoly, what: str) -> None:
    if p.mode == FLOAT:
        raise FloatModeUnsupported(f"{what} requires exact rational mode")


def expand_transfer(p: HyperbolicPoly, i: int, j: int, sigma: Scalar,
                    step_cap: int = DEFAULT_STEP_CAP) -> ContractionChain:
    """Expand the transfer (i, j; sigma) into simple nondegenerate steps.

    Moves roots i and j toward each other by sigma while every root
    strictly between them returns to its place.  The sweep applies the
    adjacent contractions T(i, i+1; t), ..., T(j-1, j; t) in 2^d passes
    with t = sigma / 2^d, for the minimal d >= 1 that keeps every step
    nondegenerate; that gives exactly (p+1) * 2^d steps for p interior
    roots.  An adjacent transfer (j = i+1) needs no sweep and yields the
    single simple step.
    """
    _require_exact(p, "expand_transfer")
    n = len(p.roots)
    if not (1 <= i < j <= n):
        raise InvalidIndices(f"need 1 <= i < j <= n, got i={i}, j={j}")
    walk = _Walk(p, (), (Fraction(sigma),))
    steps = _sweep(walk, i - 1, j - 1, walk.others.pop()[0], step_cap)
    return ContractionChain(p, tuple(steps),
                            HyperbolicPoly(walk.roots(), p.mode))


def _sweep(walk: _Walk, i: int, j: int, s: int, step_cap: int) -> list:
    """The sweep of ``expand_transfer`` on a walk, for 0-based i < j and
    the numerator s of sigma; moves the walk and returns the steps."""
    x = walk.x
    if not strict_numerators(x):
        raise NotStrict("expand_transfer needs a strictly hyperbolic source")
    a, b = x[i], x[j]
    if not (0 < 2 * s < b - a):
        raise SigmaTooLarge(f"need 0 < sigma < ({walk.value(b)} - "
                            f"{walk.value(a)})/2, got {walk.value(s)}")
    interior = x[i + 1:j]
    p_count = j - i - 1
    if any(not (a + s < z < b - s) for z in interior):
        raise PreconditionViolated(
            "every root between positions i and j must lie strictly inside "
            "(x_i + sigma, x_j - sigma)")

    if p_count == 0:
        sigma = walk.value(s)
        walk.move(i, j, s, sigma)
        return [ContractionStep(i + 1, j + 1, sigma)]

    margin = min(interior[0] - a - s, b - interior[-1] - s)
    if p_count >= 2:
        margin = min(margin,
                     min(interior[v + 1] - interior[v]
                         for v in range(p_count - 1)))
    d = 1
    while s >= 2 ** (d - 1) * margin:
        d += 1
        if (p_count + 1) * 2 ** d > step_cap:
            raise ChainTooLong(
                f"sweep needs more than {step_cap} steps (d={d})")
    total = (p_count + 1) * 2 ** d
    if total > step_cap:
        raise ChainTooLong(f"sweep needs {total} steps, cap is {step_cap}")

    # over den * 2^d the step t = sigma / 2^d has numerator s; every step
    # of the sweep shares one Fraction t
    walk.rescale(up=2 ** d)
    t = Fraction(s, walk.den)
    for _ in range(2 ** d):
        for k in range(i, j):
            walk.move(k, k + 1, s, t)
    walk.rescale(down=2 ** d)
    return [ContractionStep(k + 1, k + 2, t) for k in range(i, j)] * 2 ** d


def decompose_majorization(p: HyperbolicPoly, q: HyperbolicPoly,
                           step_cap: int = DEFAULT_STEP_CAP,
                           perturb_eps: Optional[Scalar] = None,
                           ) -> ContractionChain:
    """Chain of simple nondegenerate contractions carrying P onto Q.

    Requires Q strictly majorized by P, both strictly hyperbolic, exact
    mode.  Induction on the discrepancy: an adjacent opposite-sign pair of
    root differences is resolved by one simple contraction, a separated
    pair by an expanded transfer; either way the discrepancy drops by at
    least one per stage.  ``stage_lengths`` records the step count of each
    stage so the descent can be audited.

    Inputs with multiple roots are rejected (``NotStrict``); pass
    ``perturb_eps`` to route them through ``strict_perturb`` first, in
    which case the chain connects the perturbed pair.
    """
    _require_exact(p, "decompose_majorization")
    _require_exact(q, "decompose_majorization")
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    walk = _Walk(p, (), q.roots)
    if walk.x == walk.others[0]:
        raise NotDistinct("source and target coincide")
    if not (strict_numerators(walk.x) and strict_numerators(walk.others[0])):
        if perturb_eps is None:
            raise NotStrict(
                "both polynomials must be strictly hyperbolic; perturb "
                "multiple roots first (strict_perturb / perturb_eps)")
        p = strict_perturb(p, perturb_eps)
        q = strict_perturb(q, perturb_eps)
        walk = _Walk(p, (), q.roots)
        if walk.x == walk.others[0]:
            raise NotDistinct("perturbed source and target coincide")
    cert = check_majorization(q, p)
    if cert.verdict is not Verdict.LESS:
        raise NotMajorized(f"target is not strictly below source "
                           f"(verdict {cert.verdict.value})")

    x, y = walk.x, walk.others[0]
    steps: list[ContractionStep] = []
    stage_lengths: list[int] = []
    while x != y:
        i, j, amount = first_transfer(x, y)
        before = len(steps)
        if j == i + 1:
            # amount = min(y_i - x_i, x_j - y_j) is a Fraction when the
            # difference it comes from involves one
            at = j if x[j] - y[j] < y[i] - x[i] else i
            fraction = (walk.holds_fraction(at)
                        or isinstance(q.roots[at], Fraction))
            t = Fraction(amount, walk.den) if fraction else amount // walk.den
            step = ContractionStep(i + 1, j + 1, t)
            walk.move(i, j, amount, t)
            steps.append(step)
        else:
            steps.extend(_sweep(walk, i, j, amount, step_cap - len(steps)))
        stage_lengths.append(len(steps) - before)
        if len(steps) > step_cap:
            raise ChainTooLong(f"chain exceeds the {step_cap}-step cap")
    return ContractionChain(p, tuple(steps), q, tuple(stage_lengths))


def random_comparable_pair(seed, n: int, budget: int, mode: str = RATIONAL,
                           bound: Scalar = 10, min_gap: Scalar | None = None,
                           ) -> tuple[HyperbolicPoly, HyperbolicPoly]:
    """A pair (P, Q) with Q majorized by P, by construction.

    P is a random strictly hyperbolic polynomial; Q is produced from it by
    ``budget`` random nondegenerate simple contractions, each of which
    preserves the root sum and tightens the top partial sums.  The
    contractions move one ``_Walk``: in rational mode each step puts the
    roots over 16 times their denominator and moves two integers, in
    float mode it moves two doubles.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if min_gap is None:
        min_gap = Fraction(1, 2) if mode == RATIONAL else 0.5
    p = random_hyperbolic(rng, n, bound=bound, min_gap=min_gap, mode=mode)
    if n == 1:
        return p, p         # one root admits no contraction
    walk = _Walk(p)
    x = walk.x
    for _ in range(budget):
        k = rng.randrange(1, n)
        gap = x[k] - x[k - 1]
        if gap <= 0:
            continue
        # t = gap r / 16 in (0, gap/2), on a coarse grid so rationals stay
        # small: over den * 16 its numerator is gap * r.  The move is never
        # refused, so it states no t for a message.
        r = rng.randint(1, 7)
        if walk.exact:
            walk.rescale(up=16)
            walk.move(k - 1, k, gap * r, None)
        else:
            walk.move(k - 1, k, gap * (r / 16), None)
    return p, HyperbolicPoly(walk.roots(), mode)
