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


def maclaurin_prefix(c, m, a, b, alphas, n: int, exact: bool) -> tuple:
    """Maclaurin coefficients a_0..a_n of
    c x^m e^{-a^2 x^2 + b x} prod (1 - alpha x) e^{alpha x}."""
    scalar = Fraction if exact else float
    one = scalar(1)
    k = n - m
    series = [one] + [one * 0] * k
    if b != 0:
        b = scalar(b)
        series = mul_trunc(series, [b ** i / math.factorial(i)
                                    for i in range(k + 1)], k)
    if a != 0:
        a2 = scalar(a) ** 2
        gauss = [one * 0] * (k + 1)
        for i in range(0, k + 1, 2):
            gauss[i] = (-a2) ** (i // 2) / math.factorial(i // 2)
        series = mul_trunc(series, gauss, k)
    for alpha in alphas:
        if alpha == 0:
            continue
        al = scalar(alpha)
        fac = [one, one * 0] + [al ** i * (1 - i) / math.factorial(i)
                                for i in range(2, k + 1)]
        series = mul_trunc(series, fac, k)
    c = scalar(c)
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
