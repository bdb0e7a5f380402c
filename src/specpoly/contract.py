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
would corrupt it.
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
from .majorize import (Verdict, check_majorization, default_tol,
                       first_transfer)
from .poly import HyperbolicPoly, is_strict, strict_perturb
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
        cur = self.source
        for step in self.steps:
            cur = apply_contraction(cur, step)
        return cur

    def verify(self) -> None:
        """Replay must reproduce the target exactly; raises on failure."""
        got = self.replay()
        if got.roots != self.target.roots:
            raise NotMajorized("chain replay does not reproduce the target")

    def intermediates(self):
        cur = self.source
        yield cur
        for step in self.steps:
            cur = apply_contraction(cur, step)
            yield cur


def apply_contraction(p: HyperbolicPoly, step: ContractionStep) -> HyperbolicPoly:
    """Move roots x_k, x_l toward each other by t; preserves the root sum."""
    x = p.roots
    n = len(x)
    if step.l > n:
        raise InvalidIndices(f"index l={step.l} exceeds degree {n}")
    k, l = step.k - 1, step.l - 1
    if x[k] == x[l]:
        raise EqualRoots(f"roots at positions {step.k} and {step.l} coincide")
    t = coerce(step.t, p.mode)
    if 2 * t > x[l] - x[k]:
        raise CoefficientTooLarge(
            f"t={step.t} exceeds half the gap {(x[l] - x[k])}/2")
    moved = list(x)
    moved[k] = x[k] + t
    moved[l] = x[l] - t
    moved.sort()
    return HyperbolicPoly(tuple(moved), p.mode)


def discrepancy(p: HyperbolicPoly, q: HyperbolicPoly,
                tol: Optional[float] = None) -> int:
    """Number of positions where the sorted root tuples differ."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    if p.mode == RATIONAL and q.mode == RATIONAL:
        return sum(1 for a, b in zip(p.roots, q.roots) if a != b)
    if tol is None:
        tol = default_tol(p.roots, q.roots)
    return sum(1 for a, b in zip(p.roots, q.roots) if abs(a - b) > tol)


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
    x = p.roots
    n = len(x)
    if not (1 <= i < j <= n):
        raise InvalidIndices(f"need 1 <= i < j <= n, got i={i}, j={j}")
    if not is_strict(p):
        raise NotStrict("expand_transfer needs a strictly hyperbolic source")
    sigma = Fraction(sigma)
    a, b = x[i - 1], x[j - 1]
    if not (0 < 2 * sigma < b - a):
        raise SigmaTooLarge(f"need 0 < sigma < ({b} - {a})/2, got {sigma}")

    interior = x[i:j - 1]
    p_count = j - i - 1
    if any(not (a + sigma < z < b - sigma) for z in interior):
        raise PreconditionViolated(
            "every root between positions i and j must lie strictly inside "
            "(x_i + sigma, x_j - sigma)")

    if p_count == 0:
        steps = (ContractionStep(i, j, sigma),)
        return ContractionChain(p, steps, apply_contraction(p, steps[0]))

    margin = min(interior[0] - a - sigma, b - interior[-1] - sigma)
    if p_count >= 2:
        margin = min(margin,
                     min(interior[v + 1] - interior[v]
                         for v in range(p_count - 1)))
    d = 1
    while sigma >= 2 ** (d - 1) * margin:
        d += 1
        if (p_count + 1) * 2 ** d > step_cap:
            raise ChainTooLong(
                f"sweep needs more than {step_cap} steps (d={d})")
    total = (p_count + 1) * 2 ** d
    if total > step_cap:
        raise ChainTooLong(f"sweep needs {total} steps, cap is {step_cap}")

    t = sigma / 2 ** d
    steps = []
    cur = p
    for _ in range(2 ** d):
        for offset in range(p_count + 1):
            step = ContractionStep(i + offset, i + offset + 1, t)
            cur = apply_contraction(cur, step)
            steps.append(step)
    return ContractionChain(p, tuple(steps), cur)


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
    if p.roots == q.roots:
        raise NotDistinct("source and target coincide")
    if not (is_strict(p) and is_strict(q)):
        if perturb_eps is None:
            raise NotStrict(
                "both polynomials must be strictly hyperbolic; perturb "
                "multiple roots first (strict_perturb / perturb_eps)")
        p = strict_perturb(p, perturb_eps)
        q = strict_perturb(q, perturb_eps)
        if p.roots == q.roots:
            raise NotDistinct("perturbed source and target coincide")
    cert = check_majorization(q, p)
    if cert.verdict is not Verdict.LESS:
        raise NotMajorized(f"target is not strictly below source "
                           f"(verdict {cert.verdict.value})")

    y = q.roots
    steps: list[ContractionStep] = []
    stage_lengths: list[int] = []
    cur = p
    while cur.roots != y:
        i, j, amount = first_transfer(cur.roots, y)
        before = len(steps)
        if j == i + 1:
            step = ContractionStep(i + 1, j + 1, amount)
            cur = apply_contraction(cur, step)
            steps.append(step)
        else:
            sub = expand_transfer(cur, i + 1, j + 1, amount,
                                  step_cap=step_cap - len(steps))
            steps.extend(sub.steps)
            cur = sub.target
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
    preserves the root sum and tightens the top partial sums.
    """
    from .harness import random_hyperbolic

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if min_gap is None:
        min_gap = Fraction(1, 2) if mode == RATIONAL else 0.5
    p = random_hyperbolic(rng, n, bound=bound, min_gap=min_gap, mode=mode)
    q = p
    for _ in range(budget):
        k = rng.randrange(1, n)
        gap = q.roots[k] - q.roots[k - 1]
        if gap <= 0:
            continue
        # t in (0, gap/2), kept on a coarse grid so rationals stay small
        t = gap * Fraction(rng.randint(1, 7), 16)
        q = apply_contraction(q, ContractionStep(k, k + 1, coerce(t, mode)))
    return p, q
