"""The exact coefficient loops as plain scalar arithmetic.

These are the straightforward forms of what the library computes on
integer numerators over one denominator (``specpoly._qpoly``): on
``Fraction`` inputs they run rational arithmetic with a gcd per
operation, on floats they are the float arithmetic the library keeps.
``test_kernel.py`` holds the library to them, value for value on exact
inputs and bit for bit on floats.
"""

import math
from fractions import Fraction


def expand_from_roots(roots, exact: bool) -> tuple:
    """Coefficients of prod (x - r), low degree first, leading term 1."""
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    coeffs = [one]
    for r in roots:
        nxt = [zero] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] -= r * a
            nxt[i + 1] += a
        coeffs = nxt
    coeffs[-1] = one
    return tuple(coeffs)


def mul_trunc(a: list, b: list, n: int) -> list:
    out = [a[0] * 0] * (n + 1)
    for i, av in enumerate(a):
        if i > n or av == 0:
            continue
        for j, bv in enumerate(b):
            if i + j > n:
                break
            out[i + j] += av * bv
    return out


def maclaurin_prefix(c, m, a, b, alphas, n: int) -> tuple:
    """Maclaurin coefficients a_0..a_n of
    c x^m e^{-a^2 x^2 + b x} prod (1 - alpha x) e^{alpha x}, as Fractions
    (the library reads every parameter exactly)."""
    one = Fraction(1)
    k = n - m
    series = [one] + [one * 0] * k
    if b != 0:
        b = Fraction(b)
        series = mul_trunc(series, [b ** i / math.factorial(i)
                                    for i in range(k + 1)], k)
    if a != 0:
        a2 = Fraction(a) ** 2
        gauss = [one * 0] * (k + 1)
        for i in range(0, k + 1, 2):
            gauss[i] = (-a2) ** (i // 2) / math.factorial(i // 2)
        series = mul_trunc(series, gauss, k)
    for alpha in alphas:
        if alpha == 0:
            continue
        al = Fraction(alpha)
        fac = [one, one * 0] + [al ** i * (1 - i) / math.factorial(i)
                                for i in range(2, k + 1)]
        series = mul_trunc(series, fac, k)
    c = Fraction(c)
    return tuple([one * 0] * m + [c * v for v in series])


def derivative(coeffs) -> list:
    return [coeffs[k] * k for k in range(1, len(coeffs))]


def apply_coeffs(order: int, coeffs, pc, norm_degree=None) -> tuple:
    """sum_k coeffs[k] P^(order + k), rescaled to monic degree n - order
    outputs when ``norm_degree`` is n."""
    d = list(pc)
    zero = d[0] * 0 if d else 0
    for _ in range(order):
        d = derivative(d)
    if not d:
        return (zero,)
    out = [zero] * len(d)
    for a in coeffs:
        if a != 0:
            for i, v in enumerate(d):
                out[i] += a * v
        d = derivative(d)
        if not d:
            break
    if norm_degree is not None:
        denom = math.comb(norm_degree, order) * math.factorial(order)
        if isinstance(coeffs[0], float):
            k = 1.0 / (denom * coeffs[0])
        else:
            k = Fraction(1, denom) / coeffs[0]
        if k != 1:
            out = [k * v for v in out]
    return tuple(out)


def gaussian_coeffs(pc, a) -> tuple:
    """e^{-a D^2} P = sum (-a)^k P^(2k) / k!, in the scalars of P."""
    c = list(pc)
    a = c[0] * 0 + a
    out = list(c)
    d = c
    k = 0
    while True:
        k += 1
        d = derivative(derivative(d))
        if not d:
            return tuple(out)
        factor = (-a) ** k / math.factorial(k)
        for i, v in enumerate(d):
            out[i] += factor * v


def remainder(num: list, den: list) -> list:
    """The remainder of num / den, low degree first."""
    r = list(num)
    top = len(den) - 1
    while len(r) > top:
        q = r[-1] / den[-1]
        shift = len(r) - 1 - top
        for i, d in enumerate(den):
            r[shift + i] -= q * d
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def sturm_sequence(coeffs) -> list:
    """P, P', then -rem of the two before, each remainder divided by the
    absolute value of its leading coefficient."""
    p = [Fraction(v) for v in coeffs]
    while p and p[-1] == 0:
        p.pop()
    seq = [p]
    dp = derivative(p)
    while dp:
        seq.append(dp)
        r = remainder(seq[-2], seq[-1])
        lead = abs(r[-1]) if r else 0
        dp = [-v / lead for v in r]
    return seq


# --- root tuples: majorization, contraction chains, witnesses, pair draws ---
#
# The plain loops of the spectral-order layer, one Fraction operation at a
# time.  ``test_root_kernel.py`` holds the library to them: equal values,
# the same scalar type for every returned value, equal JSON bytes.

def partial_sums(xs, ys, tol=None):
    """check_majorization's (verdict value, residual, slacks); exact when
    ``tol`` is None."""
    xs, ys = tuple(sorted(xs)), tuple(sorted(ys))
    if tol is None:
        tol = Fraction(0)
    n = len(xs)
    residual = sum(xs) - sum(ys)
    slacks = []
    tx = 0 * residual
    ty = tx
    for k in range(1, n):
        tx = tx + xs[n - k]
        ty = ty + ys[n - k]
        slacks.append(ty - tx)
    if abs(residual) > tol:
        verdict = "NotComparable_SumMismatch"
    elif any(s < -tol for s in slacks):
        verdict = "Incomparable"
    elif all(abs(xs[i] - ys[i]) <= tol for i in range(n)):
        verdict = "Equal"
    else:
        verdict = "Less"
    return verdict, residual, tuple(slacks)


def hinge_values(xs, ys, tol=None):
    """hinge_oracle's rows (description, value on X, value on Y, satisfied)."""
    xs, ys = tuple(sorted(xs)), tuple(sorted(ys))
    if tol is None:
        tol = Fraction(0)
    sx, sy = sum(xs), sum(ys)
    rows = [("sum", sx, sy, abs(sx - sy) <= tol)]
    zero = sx * 0
    for t in sorted(set(xs) | set(ys)):
        vx = sum(max(v - t, zero) for v in xs)
        vy = sum(max(v - t, zero) for v in ys)
        rows.append((f"hinge(t={t})", vx, vy, vx <= vy + tol))
    return rows


def first_transfer(x, y):
    j = next(idx for idx in range(len(x)) if y[idx] < x[idx])
    i = max(idx for idx in range(j) if y[idx] > x[idx])
    return i, j, min(y[i] - x[i], x[j] - y[j])


def apply_contraction(roots, k, l, t):
    """Roots k and l (1-based) move toward each other by t; t is already in
    the scalars of the mode (a Fraction in rational mode)."""
    x = list(roots)
    k, l = k - 1, l - 1
    assert x[k] != x[l] and not 2 * t > x[l] - x[k]
    x[k] = x[k] + t
    x[l] = x[l] - t
    x.sort()
    return tuple(x)


def expand_transfer(roots, i, j, sigma):
    """(steps, target) of the doubling sweep; steps are (k, l, t)."""
    sigma = Fraction(sigma)
    a, b = roots[i - 1], roots[j - 1]
    interior = roots[i:j - 1]
    p = j - i - 1
    if p == 0:
        return [(i, j, sigma)], apply_contraction(roots, i, j, sigma)
    margin = min(interior[0] - a - sigma, b - interior[-1] - sigma)
    if p >= 2:
        margin = min(margin, min(interior[v + 1] - interior[v]
                                 for v in range(p - 1)))
    d = 1
    while sigma >= 2 ** (d - 1) * margin:
        d += 1
    t = sigma / 2 ** d
    steps, cur = [], tuple(roots)
    for _ in range(2 ** d):
        for offset in range(p + 1):
            step = (i + offset, i + offset + 1, t)
            cur = apply_contraction(cur, *step)
            steps.append(step)
    return steps, cur


def decompose(p_roots, q_roots):
    """(steps, stage_lengths) of the chain carrying sorted P onto sorted Q."""
    cur, y = tuple(p_roots), tuple(q_roots)
    steps, stages = [], []
    while cur != y:
        i, j, amount = first_transfer(cur, y)
        before = len(steps)
        if j == i + 1:
            steps.append((i + 1, j + 1, amount))
            cur = apply_contraction(cur, i + 1, j + 1, Fraction(amount))
        else:
            sub, cur = expand_transfer(cur, i + 1, j + 1, amount)
            steps.extend(sub)
        stages.append(len(steps) - before)
    return steps, stages


def witness(xs, ys):
    """The doubly stochastic matrix of build_witness, on Fraction rows."""
    xs = tuple(Fraction(v) for v in sorted(xs))
    ys = tuple(Fraction(v) for v in sorted(ys))
    n = len(ys)
    vec = list(ys)
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def transfer(k, l, t):
        mu = 1 - Fraction(t, vec[l] - vec[k])
        rk, rl = rows[k], rows[l]
        for c in range(n):
            a, b = rk[c], rl[c]
            rk[c] = mu * a + (1 - mu) * b
            rl[c] = (1 - mu) * a + mu * b
        vec[k] += t
        vec[l] -= t

    while vec != list(xs):
        transfer(*first_transfer(vec, list(xs)))
    return tuple(tuple(r) for r in rows)


def random_hyperbolic(rng, n, bound, min_gap, exact):
    span = 2 * bound - (n - 1) * min_gap
    if exact:
        grid = 64
        raw = sorted(rng.randint(0, grid) for _ in range(n))
        base = [-Fraction(bound) + Fraction(span) * Fraction(r, grid)
                for r in raw]
        roots = [base[i] + i * Fraction(min_gap) for i in range(n)]
    else:
        raw = sorted(rng.random() for _ in range(n))
        base = [-float(bound) + float(span) * r for r in raw]
        roots = [base[i] + i * float(min_gap) for i in range(n)]
    return tuple(sorted(roots))


def random_comparable_pair(rng, n, budget, exact, bound=10, min_gap=None):
    """The roots (P, Q) of the pair draw, Q from P by random contractions."""
    if min_gap is None:
        min_gap = Fraction(1, 2) if exact else 0.5
    p = random_hyperbolic(rng, n, bound, min_gap, exact)
    if n == 1:
        return p, p
    q = p
    for _ in range(budget):
        k = rng.randrange(1, n)
        gap = q[k] - q[k - 1]
        if gap <= 0:
            continue
        t = gap * Fraction(rng.randint(1, 7), 16)
        q = apply_contraction(q, k, k + 1, Fraction(t) if exact else float(t))
    return p, q


# --- an exact root oracle -------------------------------------------------
#
# Decides, on integers alone, whether a returned root tuple is within
# tol/2 of the roots of the coefficients: floats are read as the rationals
# they store, and the coefficients become integer numerators over one
# positive denominator, which has the same roots and the same signs.
# Every sign below is that of a positive multiple of the value it stands
# for, so the Sturm counts are the classical ones.  It shares no code
# with ``specpoly._qpoly`` or ``specpoly.roots``, so that a root test is
# not the library checking itself.

def _integers(coeffs) -> tuple:
    """(numerators, denominator): P times the lcm of its denominators,
    low degree first, with top zeros removed."""
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    den = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p], den


def _homogeneous(nums: list, x: Fraction) -> int:
    """q^d P(p/q) for x = p/q (q > 0), d = deg P: an integer with the sign
    of P(x)."""
    p, q = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(nums):
        acc = acc * p + c * scale
        scale *= q
    return acc


def value(coeffs, x):
    """P(x) exactly, low-degree-first coefficients, by Horner on integer
    numerators."""
    nums, den = _integers(coeffs)
    if not nums:
        return Fraction(0)
    x = Fraction(x)
    return Fraction(_homogeneous(nums, x),
                    den * x.denominator ** (len(nums) - 1))


def _primitive_part(p: list) -> list:
    g = math.gcd(*p)
    return [v // g for v in p] if g > 1 else p


def _pseudo_remainder(a: list, b: list) -> list:
    """A positive multiple of the remainder of a / b, deg a >= deg b:
    lead(b)^k a - Q b with k = deg a - deg b + 1 (Knuth's Algorithm R),
    negated when the factor lead(b)^k is negative."""
    d = len(b) - 1
    k = len(a) - d
    r = list(a)
    lead = b[-1]
    for shift in reversed(range(k)):
        top = r[shift + d]
        r = [lead * v for v in r]
        for i, v in enumerate(b):
            r[shift + i] -= top * v
    r = r[:d]
    if lead < 0 and k % 2:
        r = [-v for v in r]
    while r and r[-1] == 0:
        r.pop()
    return r


def _divided(num: list, den: list) -> list:
    """num / den for a primitive den that divides num: by Gauss's lemma
    the quotient has integer coefficients, so each step divides exactly."""
    r = list(num)
    d = len(den) - 1
    q = [0] * (len(num) - d)
    for shift in reversed(range(len(q))):
        c, rest = divmod(r[shift + d], den[-1])
        assert rest == 0, "the divisor does not divide"
        q[shift] = c
        for i, v in enumerate(den):
            r[shift + i] -= c * v
    return q


def _integer_sturm(nums: list) -> list:
    """P, P', then minus the remainder of the two before, each a positive
    multiple of the classical Sturm sequence entry."""
    seq = [nums]
    dp = derivative(nums)
    while dp:
        seq.append(dp)
        r = _pseudo_remainder(seq[-2], seq[-1])
        dp = _primitive_part([-v for v in r]) if r else []
    return seq


def _distinct_roots_in(nums, lo, hi) -> tuple:
    # the distinct real roots of P in [lo, hi] by Sturm's theorem, on the
    # sequence over gcd(P, P') (it vanishes at no multiple root), and
    # the gcd
    seq = _integer_sturm(nums)
    gcd = _primitive_part(seq[-1])
    seq = [_divided(s, gcd) for s in seq]

    def variations(at):
        signs = [v > 0 for v in (_homogeneous(s, at) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return (variations(lo) - variations(hi)
            + (_homogeneous(seq[0], lo) == 0)), gcd


def _count(nums: list, lo: Fraction, hi: Fraction) -> int:
    # roots_in on integer numerators
    count = 0
    while len(nums) > 1:
        distinct, nums = _distinct_roots_in(nums, lo, hi)
        count += distinct
    return count


def roots_in(coeffs, lo, hi) -> int:
    """The roots of P in [lo, hi], counted with multiplicity: a root of
    multiplicity m is a distinct root of P, of gcd(P, P'), and so on, m
    times over."""
    return _count(_integers(coeffs)[0], Fraction(lo), Fraction(hi))


def roots_within(coeffs, got, tol, spacing=True) -> bool:
    """Whether the n roots of P lie on the intervals g +- r about the
    n entries g of ``got``, r being tol/2 (plus one float spacing of g
    with ``spacing``): one on each interval that overlaps no other, and
    k, with multiplicity, on the union of a run of k that overlap.

    A lone interval needs a sign change of P, by Horner on integers; a
    run needs its count, by Sturm sequences.  The intervals are disjoint
    and hold n roots between them, so every complex root of P is
    accounted for: a lone root is within r of its own entry.
    """
    p = _integers(coeffs)[0]
    if len(got) != len(p) - 1:
        return False
    half = Fraction(tol) / 2
    spans = []
    for g in sorted(got):
        r = half + (Fraction(math.ulp(g)) if spacing else 0)
        lo, hi = Fraction(g) - r, Fraction(g) + r
        if spans and lo <= spans[-1][1]:
            spans[-1][1:] = [hi, spans[-1][2] + 1]
        else:
            spans.append([lo, hi, 1])
    for lo, hi, k in spans:
        if k == 1:
            if _homogeneous(p, lo) * _homogeneous(p, hi) > 0:
                return False
        elif _count(p, lo, hi) != k:
            return False
    return True
