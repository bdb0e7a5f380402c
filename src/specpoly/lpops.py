"""Entire functions of Laguerre-Polya type acting as differential operators.

An ``LPFunction`` stores the parameters (c, m, a, b, alphas) of
c x^m e^{-a^2 x^2 + b x} prod (1 - alpha_k x) e^{alpha_k x}, with the
canonical product truncated to finitely many factors (any action on a
degree-n polynomial only sees the Maclaurin prefix, and the approximant
machinery controls the truncation error empirically).  The parameters are
exact: ints and Fractions are kept as given, and a float is read as the
rational it stores.  So every prefix comes exactly from the closed form
c x^m e^{beta x - a^2 x^2} prod (1 - alpha_k x), beta = b + sum alpha_k:
the exponential's coefficients satisfy the Hermite recurrence
(i + 1) g_{i+1} = beta g_i - 2 a^2 g_{i-1}, run on integers over one
denominator, and the linear factors multiply in after it.

Exact coefficient work runs on integer numerators over one denominator
(``_qpoly.QPoly``): Maclaurin prefixes, f(D) sums, Gaussian flows,
multiplier sequences and the Laguerre closed form feed integers through
the same scalar-generic loops that float mode runs on doubles, carry the
denominator beside them, and reduce once.  An operator builds its exact
form once, when it is made (``DiffOperator``, which ``from_function``
hands the prefix as that form) or first applied at a degree
(``MultiplierSequence``).  The coefficient kernels
(``DiffOperator.apply_coeffs``, ``multiplier_apply``,
``laguerre_closed_form``) return a ``QPoly`` for a ``QPoly`` input, the
form in which the library passes an exact polynomial on to the root
finder; exact inputs given as ints and Fractions give ``Fraction``
tuples.  Any float polynomial or coefficient input keeps float
arithmetic exactly as written.

A ``DiffOperator`` is a Maclaurin prefix a_m..a_N acting by
f(D)[P] = sum a_k P^(k), optionally rescaled so monic degree-n inputs map
to monic degree-(n-m) outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._qpoly import QPoly, is_exact_all
from .errors import DegreeTooSmall, ZeroTopTerm
from .pencil import pencil_brackets, pencil_coeffs
from .poly import HyperbolicPoly, coeff_derivative, taylor_shift
from .roots import is_real_rooted, real_roots_near
from .scalars import FLOAT, RATIONAL, Scalar, coerce, infer_mode


def _mul_trunc(a: list, b: list, n: int) -> list:
    out = [a[0] * 0] * (n + 1)
    for i, av in enumerate(a):
        if i > n or av == 0:
            continue
        for j, bv in enumerate(b):
            if i + j > n:
                break
            out[i + j] += av * bv
    return out


@dataclass(frozen=True)
class LPFunction:
    """Parameters of a (finitely truncated) Laguerre-Polya class function.

    phi(x) = c x^m e^{-a^2 x^2 + b x} prod (1 - alpha_k x) e^{alpha_k x};
    its exponential factors make one e^{beta x - a^2 x^2} with
    beta = b + sum alpha_k, which is how prefixes are computed.  Ints and
    Fractions are kept as given; a float is stored as the Fraction it
    holds.
    """

    c: Scalar = 1
    m: int = 0
    a: Scalar = 0
    b: Scalar = 0
    alphas: tuple = ()

    def __post_init__(self):
        alphas = tuple(self.alphas)
        params = (self.c, self.a, self.b) + alphas
        if infer_mode(params) == FLOAT:
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in params):
                raise ValueError("LP parameters must be finite")
            c, a, b, *alphas = [Fraction(v) if isinstance(v, float) else v
                                for v in params]
            for name, value in zip("cab", (c, a, b)):
                object.__setattr__(self, name, value)
        if self.c == 0:
            raise ValueError("leading constant c must be nonzero")
        if self.m < 0:
            raise ValueError("vanishing order m must be nonnegative")
        object.__setattr__(self, "alphas", tuple(alphas))

    def maclaurin_prefix(self, n: int) -> tuple:
        """Maclaurin coefficients a_0..a_N, exact, as Fractions.

        The first m entries vanish and a_m = c.  The rest come from the
        closed form on integers (``_exact_series``).
        """
        if n < self.m:
            raise DegreeTooSmall(f"prefix length {n} below vanishing order {self.m}")
        return ((Fraction(0),) * self.m
                + self._exact_series(n - self.m).fractions())

    def _exact_series(self, k: int) -> QPoly:
        """a_m..a_{m+k} as one QPoly.

        phi(x) / x^m = c e^{beta x - a^2 x^2} prod (1 - alpha x), with
        beta = b + sum alpha.  Over one integer Q, with B = Q beta and
        A = 2 a^2 Q, the exponential's coefficients are g_i = G_i / (i! Q^i)
        for G_0 = 1, G_1 = B and G_{i+1} = B G_i - A Q i G_{i-1}, the
        Hermite recurrence (i + 1) g_{i+1} = beta g_i - 2 a^2 g_{i-1}.
        They go over k! Q^k, the factors (q - p x) / q of each alpha = p/q
        and c multiply in, and the result is reduced once.
        """
        alphas = [al.as_integer_ratio() for al in self.alphas if al != 0]
        ratios = [self.b.as_integer_ratio()] + alphas
        beta_den = math.lcm(*[d for _, d in ratios])
        beta = sum(v * (beta_den // d) for v, d in ratios)
        an, ad = self.a.as_integer_ratio()
        q = math.lcm(beta_den, ad * ad)
        big_b = beta * (q // beta_den)
        big_aq = 2 * an * an * (q // (ad * ad)) * q
        gs = [1, big_b][:k + 1]
        for i in range(1, k):
            gs.append(big_b * gs[i] - big_aq * i * gs[i - 1])
        # G_i k! Q^k / (i! Q^i), from the top down
        nums, w = [0] * (k + 1), 1
        for i in range(k, -1, -1):
            nums[i] = gs[i] * w
            w *= i * q
        den = math.factorial(k) * q ** k
        for p, d in alphas:
            nums = [d * nums[0]] + [d * u - p * v
                                    for u, v in zip(nums[1:], nums)]
            den *= d
        cn, cd = self.c.as_integer_ratio()
        return QPoly([cn * v for v in nums], den * cd)

    def deform(self, s) -> "LPFunction":
        """The s-deformation: s_0 rescales the Gaussian decay, s_k rescales
        alpha_k; grading and drift are untouched.  Missing entries mean 1."""
        entries = tuple(s.entries if isinstance(s, DeformationVector) else s)

        def at(i):
            return entries[i] if i < len(entries) else 1

        new_alphas = tuple(at(k + 1) * al for k, al in enumerate(self.alphas))
        return LPFunction(self.c, self.m, at(0) * self.a, self.b, new_alphas)

    def scale_argument(self, s: Scalar) -> "LPFunction":
        """The function x -> phi(s x), again of Laguerre-Polya type."""
        if s == 0:
            if self.m != 0:
                raise DegreeTooSmall("phi(0 * x) vanishes identically for m > 0")
            return LPFunction(self.c, 0, 0, 0, ())
        return LPFunction(self.c * s ** self.m, self.m, s * self.a,
                          s * self.b, tuple(s * al for al in self.alphas))

    def approximant(self, j: int, n_j: int) -> tuple:
        """Coefficients, as Fractions, of the j-th hyperbolic approximant.

        c x^m (1 - a^2 x^2 / j)^j (1 + tau_j x / n_j)^{n_j}
        prod_{v<=j} (1 - alpha_v x), with tau_j = b + sum_{v<=j} alpha_v.
        Alphas beyond the stored list count as zero (their factors reduce
        to 1).  The Maclaurin prefix converges entrywise to the function's
        as j and n_j grow.
        """
        if j < 1 or n_j < 1:
            raise ValueError("approximant needs j >= 1 and n_j >= 1")
        alphas = self.alphas[:j]
        tau = self.b + sum(alphas)
        poly, den = [1], 1
        if self.a != 0:
            step, step_den = _binomial(Fraction(-self.a ** 2, j), 2)
            quad = [1]
            for _ in range(j):
                quad = _mul_trunc(quad, step, len(quad) + 1)
            poly = _mul_trunc(poly, quad, len(poly) + len(quad))
            den *= step_den ** j
        if tau != 0:
            lin, lin_den = _binomial(Fraction(tau, n_j), 1)
            for _ in range(n_j):
                poly = _mul_trunc(poly, lin, len(poly))
            den *= lin_den ** n_j
        for al in alphas:
            if al != 0:
                lin, lin_den = _binomial(-al, 1)
                poly = _mul_trunc(poly, lin, len(poly))
                den *= lin_den
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        cn, cd = self.c.as_integer_ratio()
        return QPoly([0] * self.m + [cn * v for v in poly],
                     den * cd).fractions()


def _exp_series(t: Scalar, k: int, exact: bool,
                step: int = 1) -> tuple[list, int]:
    """sum_i t^i / i! x^(step i) up to degree k, as (values, den).

    Floats come with denominator 1.  A rational t = p/q comes as integer
    numerators over q^I I!, with I the top index: the i-th numerator is
    p^i q^(I-i) I!/i!.
    """
    top = k // step
    values = [0 if exact else 0.0] * (k + 1)
    if not exact:
        values[::step] = [t ** i / math.factorial(i) for i in range(top + 1)]
        return values, 1
    p, q = t.as_integer_ratio()
    den = num = q ** top * math.factorial(top)
    for i in range(top + 1):
        values[step * i] = num
        num = num * p // (q * (i + 1))     # exact: the next numerator
    return values, den


def _binomial(t: Scalar, power: int) -> tuple[list, int]:
    """1 + t x^power for a rational t = p/q, as integers [q, 0.., p] over q."""
    p, q = t.as_integer_ratio()
    return [q] + [0] * (power - 1) + [p], q


@dataclass(frozen=True)
class DeformationVector:
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))


def deformation_leq(s, t) -> bool:
    """The coordinatewise order: |s_i| <= |t_i| and s_i t_i >= 0.

    Entries beyond either vector default to 1 (the identity deformation).
    """
    se = tuple(s.entries if isinstance(s, DeformationVector) else s)
    te = tuple(t.entries if isinstance(t, DeformationVector) else t)
    length = max(len(se), len(te))
    for i in range(length):
        si = se[i] if i < len(se) else 1
        ti = te[i] if i < len(te) else 1
        if abs(si) > abs(ti) or si * ti < 0:
            return False
    return True


@dataclass(frozen=True)
class DiffOperator:
    """f(D) known through the Maclaurin prefix a_m..a_N of f.

    With ``norm_degree`` set to n, the action is rescaled by
    1 / (C(n, m) * m! * a_m) so monic degree-n inputs give monic
    degree-(n-m) outputs.  ``coeffs`` may be given as a ``QPoly``: it is
    then the exact form as it is, and the field holds its ``Fraction``
    tuple.
    """

    order: int
    coeffs: tuple
    norm_degree: Optional[int] = None

    def __post_init__(self):
        # the exact form every image is computed from, or None for floats;
        # a QPoly prefix is that form as it is
        exact = self.coeffs if isinstance(self.coeffs, QPoly) else None
        coeffs = tuple(self.coeffs) if exact is None else exact.fractions()
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] == 0:
            raise ZeroTopTerm("the leading prefix coefficient a_m must be nonzero")
        if exact is None and is_exact_all(coeffs):
            exact = QPoly.of(coeffs)
        self.__dict__["_exact"] = exact

    @classmethod
    def from_function(cls, phi: LPFunction, degree: int,
                      normalized: bool = True) -> "DiffOperator":
        """The operator D(phi, n) (or plain phi(D)) ready for degree-n inputs."""
        if normalized and degree < phi.m:
            raise DegreeTooSmall(
                f"cannot normalize at degree {degree} below order {phi.m}")
        norm = degree if normalized else None
        return cls(phi.m, phi._exact_series(max(degree - phi.m, 0)), norm)

    @property
    def normalizer(self) -> Scalar:
        """The rescaling factor; 1 when the operator is unnormalized."""
        if self.norm_degree is None:
            return 1
        am = self.coeffs[0]
        denom = self._monic_scale()
        if isinstance(am, float):
            return 1.0 / (denom * am)
        return Fraction(1, denom) / am

    def _monic_scale(self) -> int:
        # C(n, m) m!: the normalizer is 1 / (C(n, m) m! a_m)
        return math.comb(self.norm_degree, self.order) * math.factorial(
            self.order)

    def apply_coeffs(self, pc: Sequence | QPoly) -> tuple | QPoly:
        """sum_k a_k P^(k) on a low-first coefficient vector.

        Degree n input gives degree n - m output; n = m collapses to a
        constant and n < m to the zero polynomial.  With an exact operator
        and input the sum runs on integer numerators: a ``QPoly`` input
        gives a ``QPoly``, ints and Fractions give Fractions.  Otherwise it
        runs on the given scalars.
        """
        ops = self.__dict__["_exact"]
        if ops is None or not is_exact_all(pc):
            pc = _scalars(pc)
            zero = pc[0] * 0 if len(pc) else 0
            out = _derivative_sum(self.coeffs, list(pc), self.order, zero)
            if out is None:
                return (zero,)
            k = self.normalizer
            if k != 1:
                out = [k * v for v in out]
            return tuple(out)
        poly = QPoly.of(pc)
        out = _derivative_sum(ops.nums, poly.nums, self.order, 0)
        if out is None:
            image = QPoly([0])
        elif self.norm_degree is None:
            image = QPoly(out, poly.den * ops.den)
        else:
            # the normalizer is ops.den / (C(n, m) m! nums[0]); its ops.den
            # cancels the one of the coefficients
            image = QPoly(out, poly.den * self._monic_scale() * ops.nums[0])
        return _like(pc, image)


def _scalars(pc: Sequence | QPoly) -> Sequence:
    # a coefficient vector as scalars, for float arithmetic as written
    return pc.fractions() if isinstance(pc, QPoly) else pc


def _like(pc: Sequence | QPoly, image: QPoly) -> tuple | QPoly:
    # an exact image in the form of its input: a QPoly for a QPoly, the
    # Fractions of the public return otherwise
    return image if isinstance(pc, QPoly) else image.fractions()


def _derivative_sum(coeffs: Sequence, d: list, order: int,
                    zero: Scalar) -> list | None:
    # sum_k coeffs[k] D^(order + k) d, low degree first, in the scalars
    # given; None when D^order d is already the zero polynomial
    for _ in range(order):
        d = coeff_derivative(d)
    if not d:
        return None
    out = [zero] * len(d)
    for a in coeffs:
        if a != 0:
            for i, v in enumerate(d):
                out[i] += a * v
        d = coeff_derivative(d)
        if not d:
            break
    return out


def apply_operator(op: DiffOperator, p: HyperbolicPoly,
                   tol: float | None = None) -> HyperbolicPoly:
    """Root form of op[P]; the image is hyperbolic, so extraction is safe.

    The roots of P seed the image's (``real_roots_near``), an x^m factor
    of phi included.  A ``NotRealRooted`` escaping from here signals
    numerical failure, never a failure of the theory.
    """
    if p.degree <= op.order:
        raise DegreeTooSmall(
            f"degree {p.degree} input collapses under an order-{op.order} "
            "operator; root form needs degree >= order + 1")
    coeffs = op.apply_coeffs(p.coeff_vector())
    return HyperbolicPoly(real_roots_near(coeffs, p.roots, tol), FLOAT)


def appell(phi: LPFunction, n: int, normalized: bool = True) -> tuple:
    """Coefficients of phi(D)[x^n] (the n-th Appell polynomial of phi)."""
    if n < phi.m + 1:
        raise DegreeTooSmall(f"appell needs n >= m + 1 = {phi.m + 1}")
    op = DiffOperator.from_function(phi, n, normalized)
    return _scalars(monomial_image(op, n))


def monomial_image(op: DiffOperator, n: int) -> tuple | QPoly:
    """op[x^n], a ``QPoly`` for an exact operator and doubles otherwise."""
    if op.__dict__["_exact"] is None:
        return op.apply_coeffs((0.0,) * n + (1.0,))
    return op.apply_coeffs(QPoly([0] * n + [1]))


def shift_pencil_coeffs(p: HyperbolicPoly, lam: Scalar) -> tuple:
    """(1 - lam D) e^{lam D} P = P(x + lam) - lam P'(x + lam), by coefficients:
    the pencil of the shifted polynomial P(x + lam)."""
    return pencil_coeffs(taylor_shift(p, lam), lam)


def shift_pencil(p: HyperbolicPoly, lam: Scalar,
                 tol: float | None = None) -> HyperbolicPoly:
    """Root form of the shift pencil, the pencil of P at lam moved by -lam.

    It is the pencil of P(x + lam), whose roots are those of P moved by
    -lam, so ``pencil_brackets`` of the moved roots holds one root in each
    bracket, as it does for ``pencil_at``.  The n+1 bracket ends seed
    ``real_roots_near``, as for ``pencil_at``; its certificates and
    fallbacks answer at lam = 0 and at a multiple root of P as anywhere
    else.
    """
    if p.degree < 1:
        raise DegreeTooSmall("shift pencil needs degree >= 1")
    coeffs = shift_pencil_coeffs(p, lam)
    ends = pencil_brackets([float(r - lam) for r in p.roots], float(lam))
    return HyperbolicPoly(real_roots_near(coeffs, ends, tol), FLOAT)


def gaussian_coeffs(p: HyperbolicPoly, a: Scalar) -> tuple:
    """e^{-a D^2} P = sum (-a)^k P^(2k) / k!, a finite sum, in P's mode."""
    return _scalars(_gaussian(p, a))


def _gaussian(p: HyperbolicPoly, a: Scalar) -> tuple | QPoly:
    # e^{-a D^2} P on P's coefficient vector: a QPoly in rational mode
    a = coerce(a, p.mode)
    c = p.coeff_vector()
    exact = p.mode == RATIONAL
    series, den = _exp_series(-a, len(c) - 1, exact, step=2)
    weights = series[::2]
    if exact:
        d = c.nums
        out = [weights[0] * v for v in d]
    else:
        d = list(c)
        out = list(c)      # weights[0] is 1
    for w in weights[1:]:
        d = coeff_derivative(coeff_derivative(d))
        for i, v in enumerate(d):
            out[i] += w * v
    return QPoly(out, c.den * den) if exact else tuple(out)


def gaussian_op(p: HyperbolicPoly, a: Scalar,
                tol: float | None = None) -> HyperbolicPoly:
    """Root form of the Gaussian heat flow, seeded by the roots of P; a < 0
    leaves the Laguerre-Polya regime (images need not stay real-rooted),
    accepted for experimentation."""
    return HyperbolicPoly(real_roots_near(_gaussian(p, a), p.roots, tol),
                          FLOAT)


# --- multiplier sequences -----------------------------------------------------

@dataclass(frozen=True)
class MultiplierSequence:
    """Diagonal action gamma_k on the monomial basis: T[x^k] = gamma_k x^k."""

    gammas: tuple

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(self.gammas))

    def normalized_truncation(self, n: int) -> "MultiplierSequence":
        """gamma_k / gamma_n for k = 0..n, the degree-preserving rescale."""
        g = self._padded(n)
        if g[n] == 0:
            raise ZeroTopTerm(f"gamma_{n} vanishes; cannot normalize")
        return MultiplierSequence(tuple(_exact_div(v, g[n]) for v in g))

    def _padded(self, n: int) -> list:
        g = list(self.gammas[:n + 1])
        g += [0] * (n + 1 - len(g))
        return g

    def _exact_form(self, n: int) -> QPoly | None:
        # gamma_0..gamma_n as one QPoly, or None when one is a float;
        # built on the first image at degree n and kept for the next
        cached = self.__dict__.get("_exact")
        if cached is None or cached[0] != n:
            g = self._padded(n)
            cached = (n, QPoly.of(g) if is_exact_all(g) else None)
            self.__dict__["_exact"] = cached
        return cached[1]

    def jensen_polynomial(self) -> tuple:
        """Coefficients C(n, k) gamma_k of J(x), with n = len(gammas) - 1."""
        n = len(self.gammas) - 1
        return tuple(math.comb(n, k) * g for k, g in enumerate(self.gammas))

    def preserves_real_rootedness(self) -> bool:
        """Whether gamma_0..gamma_n maps every real-rooted polynomial of
        degree <= n to a real-rooted one (the zero polynomial aside).

        Finite Polya-Schur theorem (Craven-Csordas; Borcea-Branden, Ann. of
        Math. 170, 2009): exactly when the Jensen polynomial J has only
        real zeros, all <= 0 or all >= 0.  That covers the rank <= 2
        diagonal operators too, e.g. (0, .., 0, g, 1) is accepted and
        (1, 0, 1) is not.  J is built on integers: C(n, k) times the
        gammas' numerators over their least common denominator (a float
        gamma is read as the rational it stores), a positive multiple of
        J.  Two steps, on its coefficients c_0..c_d after the x^k factor is
        divided out: the O(d) sign pattern, all of one sign (zeros < 0) or
        strictly alternating (zeros > 0), then the exact Sturm test
        ``roots.is_real_rooted``.  Only the Sturm test accepts, so a True
        is a proof, and no float arithmetic decides a verdict.  The
        all-zero sequence reads False.  The pb2/pb3 hunts draw their
        preservers from Jensen zeros, so they need no such test.
        """
        gammas = QPoly.of(self.gammas).nums
        n = len(gammas) - 1
        jensen = [math.comb(n, k) * g for k, g in enumerate(gammas)]
        while jensen and jensen[-1] == 0:
            jensen.pop()
        if not jensen:
            return False
        low = next(k for k, v in enumerate(jensen) if v != 0)
        nums = jensen[low:]             # a positive multiple of J / x^k
        d = len(nums) - 1
        if d == 0:
            return True
        same_sign = all((v > 0) == (nums[0] > 0) for v in nums)
        alternating = all((nums[j] > 0) != (nums[j + 1] > 0)
                          for j in range(d))
        if 0 in nums or not (same_sign or alternating):
            return False
        return is_real_rooted(nums)


def _exact_div(num, den):
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num, 1) / den


def multiplier_apply(seq, pc: Sequence | QPoly, n: Optional[int] = None,
                     normalized: bool = False) -> tuple | QPoly:
    """Coefficientwise scaling of a polynomial by a multiplier sequence.

    Exact gammas and coefficients run through the integer kernel: a
    ``QPoly`` input gives a ``QPoly``, ints and Fractions give Fractions.
    Any float runs the scaling on the given scalars.  A
    ``MultiplierSequence`` keeps its exact form for the next image at the
    same degree; a plain sequence of gammas is read anew on each call.
    """
    ms = seq
    if not isinstance(ms, MultiplierSequence):
        ms = MultiplierSequence(seq)
    if n is None:
        n = len(pc) - 1
    g = ms._exact_form(n)
    if g is None or not is_exact_all(pc):
        pc = _scalars(pc)
        if normalized:
            ms = ms.normalized_truncation(n)
        g = ms._padded(n)
        return tuple(g[k] * pc[k] if k < len(pc) else g[k] * 0
                     for k in range(n + 1))
    poly = QPoly.of(pc)
    nums = poly.nums[:n + 1] + [0] * (n + 1 - len(poly))
    nums = [u * v for u, v in zip(g.nums, nums)]
    if not normalized:
        return _like(pc, QPoly(nums, g.den * poly.den))
    if g.nums[n] == 0:
        raise ZeroTopTerm(f"gamma_{n} vanishes; cannot normalize")
    # gamma_k / gamma_n = g.nums[k] / g.nums[n]: g.den cancels
    return _like(pc, QPoly(nums, g.nums[n] * poly.den))


def falling_product(m: int) -> "callable":
    def h(x):
        out = 1 if not isinstance(x, float) else 1.0
        for i in range(m):
            out = out * (x - i)
        return out
    return h


def laguerre_ms(m: int, p: int, length: int) -> MultiplierSequence:
    """The sequence gamma_k = H(k + p) with H(x) = x(x-1)...(x-m+1).

    A multiplier sequence of the first kind; its operator has the closed
    form x^{m-p} [x^p P]^{(m)} (see ``laguerre_closed_form``).
    """
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 and p >= 0")
    h = falling_product(m)
    return MultiplierSequence(tuple(h(k + p) for k in range(length)))


def laguerre_closed_form(m: int, p: int, pc: Sequence | QPoly,
                         ) -> tuple | QPoly:
    """x^{m-p} [x^p P]^{(m)} evaluated on coefficients, exactly.

    Exact coefficients are differentiated as integer numerators: a
    ``QPoly`` comes back as a ``QPoly``, ints and Fractions as Fractions.
    """
    if not is_exact_all(pc):
        return _closed_form(m, p, list(pc), pc[0] * 0 if len(pc) else 0)
    poly = QPoly.of(pc)
    return _like(pc, QPoly(list(_closed_form(m, p, poly.nums, 0)), poly.den))


def _closed_form(m: int, p: int, work: list, zero: Scalar) -> tuple:
    work = [zero] * p + work
    for _ in range(m):
        work = list(coeff_derivative(work)) or [zero]
    if m >= p:
        return tuple([zero] * (m - p) + work)
    drop = p - m
    assert all(v == 0 for v in work[:drop])
    return tuple(work[drop:]) or (zero,)
