"""Seeded verification suites and counterexample hunts.

Every suite draws its trial inputs from a per-trial derived RNG stream
(so trials are order-independent) and runs a pure check on them.  The
inputs are typed: polynomials, LP functions, ``Fraction`` scalars and
lists of them.  JSON is made only for a failure record, by
``inputs_to_json``, and read back only to replay one: ``recheck_failure``
feeds a record's ``inputs`` through ``inputs_from_json`` and the same
check, and the violation recurs.

``SUITES`` and ``HUNTS`` map a name to a ``(generate, check)`` pair:
``generate(config, rng)`` returns a typed input dict and
``check(inputs)`` returns ``(ok, margin, details)``.  The margin is the
distance to failing, so a suite trial passes exactly when it is >= 0; a
hunt trial also passes when its violation is not beyond
``CONFIRM_REL_TOL`` on float image roots.  A report's ``worst_slack`` is
the smallest margin, or None for zero trials.  Suites and hunts run
through the same trial loop and write the same report format; a hunt's
report adds ``info["evidence"]``, the number of passing trials that
returned details.

Every operator check takes its image roots from ``_image_roots`` and
compares through ``_check_order``; an image that is not real-rooted
raises ``NotRealRooted``, in a hunt as in a suite.

Reports are deterministic: identical config gives byte-identical report
files (wall time is kept out of the canonical serialization).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from . import serialize
from .contract import (DEFAULT_STEP_CAP, decompose_majorization,
                       random_comparable_pair)
from .errors import ChainTooLong, ConfigError, UnknownSuite
from .lpops import (DiffOperator, LPFunction, MultiplierSequence,
                    deformation_leq, gaussian_coeffs, laguerre_closed_form,
                    laguerre_ms, monomial_image, multiplier_apply,
                    shift_pencil)
from .majorize import (check_majorization, hinge, power, probe_valid,
                       scaled_tol, schur_eval, signed_power, xlogx)
from .pencil import default_grid, pencil_path, scan_monotonicity
from .poly import derivative, exact_expansion, random_hyperbolic, taylor_shift
from .roots import real_roots, real_roots_near
from .scalars import FLOAT, RATIONAL, check_tol, parse_scalar

ROOT_TOL = 1e-11          # absolute root extraction tolerance inside suites
DEFAULT_REL_TOL = 1e-7    # relative slack for float-mode image comparisons
CONFIRM_REL_TOL = 1e-6    # a counterexample must beat this margin


@dataclass
class ExperimentConfig:
    suite: str = ""
    trials: int = 100
    degree_min: int = 2
    degree_max: int = 8
    seed: int = 0
    mode: str = RATIONAL
    tol: Optional[float] = None     # relative tolerance override
    out: Optional[str] = None
    step_cap: int = DEFAULT_STEP_CAP
    params: dict = field(default_factory=dict)

    @property
    def rel_tol(self) -> float:
        return DEFAULT_REL_TOL if self.tol is None else self.tol

    def degree(self, rng: random.Random, low: int = 1) -> int:
        lo = max(self.degree_min, low)
        if lo > self.degree_max:
            raise ConfigError(f"this check draws degree >= {lo}, but "
                              f"degree_max is {self.degree_max}")
        return rng.randint(lo, self.degree_max)

    def to_json(self) -> dict:
        return {
            "suite": self.suite, "trials": self.trials,
            "degree_min": self.degree_min, "degree_max": self.degree_max,
            "seed": self.seed, "mode": self.mode, "tol": self.tol,
            "step_cap": self.step_cap, "params": self.params,
        }


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: tuple
    worst_slack: Optional[float]    # None: zero trials
    wall_time: float
    config: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_json(self) -> dict:
        # wall time deliberately omitted: reports must be byte-identical
        # across runs of the same config
        return {
            "suite": self.suite, "trials": self.trials,
            "failures": len(self.failures), "passed": self.passed,
            "worst_slack": self.worst_slack, "config": self.config,
            "info": self.info,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for rec in self.failures:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
            handle.write(json.dumps(self.summary_json(), sort_keys=True) + "\n")


def trial_rng(seed: int, trial: int) -> random.Random:
    # string seeding hashes with sha512: deterministic across platforms
    return random.Random(f"{seed}:{trial}")


# --- shared generator helpers -------------------------------------------------

def _frac(rng, lo, hi, den=4) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def _random_phi(rng: random.Random, max_m: int = 2,
                kind: str = "general") -> LPFunction:
    m = rng.randint(0, max_m)
    a = _frac(rng, 0, 1)
    b = _frac(rng, -1, 1)
    count = rng.randint(0, 4)
    alphas = tuple(_frac(rng, -1, 1) for _ in range(count))
    c = rng.choice((1, 1, 2, Fraction(1, 2), -1))
    if kind == "monic_prime":
        # zero-drift, value 1 at the origin: the extensive/scaled classes
        return LPFunction(1, 0, a, 0, alphas)
    if kind == "type1":
        return LPFunction(1, m, 0, -abs(b), tuple(abs(v) for v in alphas))
    return LPFunction(c, m, a, b, alphas)


def _pair(cfg: ExperimentConfig, rng: random.Random, n: int,
          mode: str | None = None):
    budget = rng.randint(1, 4)
    if mode is None:
        mode = cfg.mode
    gap = Fraction(1, 2) if mode == RATIONAL else 0.5
    return random_comparable_pair(rng, n, budget, mode=mode, bound=8,
                                  min_gap=gap)


def _image_roots(roots, *images) -> list:
    # the root tuples of the coefficient tuples ``images``: the first is
    # seeded by ``roots``, the roots it came from, each later one by the
    # image before it
    found = []
    for coeffs in images:
        roots = real_roots_near(coeffs, roots, ROOT_TOL)
        found.append(roots)
    return found


def _cert_margin(cert) -> float:
    # a slack fails only below -tol, so its distance to failing is slack + tol
    margin = float(cert.tol) - abs(float(cert.sum_residual))
    if cert.slacks:
        margin = min(margin, float(cert.min_slack) + float(cert.tol))
    return margin


def _check_order(x_roots, y_roots, rel,
                 hunt: bool = False) -> tuple[bool, float, dict]:
    # a hunt fails only on a violation beyond CONFIRM_REL_TOL as well
    tol = scaled_tol(rel, x_roots, y_roots)
    cert = check_majorization(x_roots, y_roots, tol)
    margin = _cert_margin(cert)
    if cert.comparable or (hunt and check_majorization(
            x_roots, y_roots,
            scaled_tol(CONFIRM_REL_TOL, x_roots, y_roots)).comparable):
        return True, margin, {}
    details = {"certificate": serialize.certificate_to_json(cert)}
    if hunt:
        details["confirmed"] = True
    return False, margin, details


def _check_isotone(image, p, q, rel, hunt: bool = False,
                   drift=0) -> tuple[bool, float, dict]:
    # T q <= T p, T's image roots moved by -drift; ``image`` maps
    # coefficient vectors (a QPoly for a rational polynomial) to
    # coefficient vectors
    img_p, img_q = _image_roots(p.roots, image(p.coeff_vector()),
                                image(q.coeff_vector()))
    if drift:
        img_p, img_q = (tuple(r - float(drift) for r in img)
                        for img in (img_p, img_q))
    return _check_order(img_q, img_p, rel, hunt)


# --- suite generators and checks ----------------------------------------------
#
# Each suite is a (generate, check) pair over typed input dicts.  A check
# never sees JSON: a failure record's inputs are made by ``inputs_to_json``
# and replay through ``recheck_failure`` with no extra state.

def _gen_main1(cfg, rng):
    n = cfg.degree(rng, low=2)
    p, q = _pair(cfg, rng, n)
    return {"p": p, "q": q, "lambdas": [-10.0 + 2.0 * k for k in range(11)],
            "rel_tol": cfg.rel_tol}


def _check_main1(inputs):
    p = inputs["p"].to_float()
    q = inputs["q"].to_float()
    rel = inputs["rel_tol"]
    lams = inputs["lambdas"]
    worst = float("inf")
    for lam, sq, sp in zip(lams, pencil_path(q, lams, ROOT_TOL),
                           pencil_path(p, lams, ROOT_TOL)):
        ok, margin, details = _check_order(sq.roots, sp.roots, rel)
        worst = min(worst, margin)
        if not ok:
            details["lambda"] = lam
            return False, worst, details
    return True, worst, {}


def _gen_main2(cfg, rng):
    n = cfg.degree(rng, low=1)
    p = random_hyperbolic(rng, n, bound=8, mode=FLOAT, min_gap=0.25)
    lam2 = rng.uniform(-10.0, 10.0)
    lam1 = lam2 * rng.random()
    a2 = rng.uniform(0.0, 4.0)
    a1 = a2 * rng.random()
    return {"p": p, "lam1": lam1, "lam2": lam2, "gauss1": a1, "gauss2": a2,
            "rel_tol": cfg.rel_tol}


def _check_main2(inputs):
    p = inputs["p"]
    rel = inputs["rel_tol"]
    small = shift_pencil(p, inputs["lam1"], ROOT_TOL).roots
    large = shift_pencil(p, inputs["lam2"], ROOT_TOL).roots
    ok1, m1, d1 = _check_order(small, large, rel)
    if not ok1:
        d1["part"] = "shift-pencil"
        return False, m1, d1
    gs, gl = _image_roots(p.roots, gaussian_coeffs(p, inputs["gauss1"]),
                          gaussian_coeffs(p, inputs["gauss2"]))
    ok2, m2, d2 = _check_order(gs, gl, rel)
    if not ok2:
        d2["part"] = "gaussian"
    return ok2, min(m1, m2), d2 if not ok2 else {}


def _gen_deriv(cfg, rng):
    n = cfg.degree(rng, low=2)
    p, q = _pair(cfg, rng, n)
    return {"p": p, "q": q, "rel_tol": cfg.rel_tol}


def _check_deriv(inputs):
    p = inputs["p"].to_float()
    q = inputs["q"].to_float()
    dp = derivative(p, ROOT_TOL)
    dq = derivative(q, ROOT_TOL)
    return _check_order(dq.roots, dp.roots, inputs["rel_tol"])


def _gen_iso(cfg, rng):
    n = cfg.degree(rng, low=2)
    phi = _random_phi(rng, max_m=min(2, n - 1))
    p, q = _pair(cfg, rng, n)
    return {"p": p, "q": q, "phi": phi, "rel_tol": cfg.rel_tol}


def _check_iso(inputs):
    p, q, phi = inputs["p"], inputs["q"], inputs["phi"]
    op = DiffOperator.from_function(phi, p.degree)
    return _check_isotone(op.apply_coeffs, p, q, inputs["rel_tol"])


def _gen_appell_min(cfg, rng):
    n = cfg.degree(rng, low=2)
    phi = _random_phi(rng, max_m=min(2, n - 1))
    p = random_hyperbolic(rng, n, bound=8, mode=cfg.mode)
    p = taylor_shift(p, p.barycenter())    # barycenter 0, exact in rational mode
    return {"p": p, "phi": phi, "rel_tol": cfg.rel_tol}


def _check_appell_min(inputs):
    p, phi = inputs["p"], inputs["phi"]
    n = p.degree
    zero = 0.0 if p.mode == FLOAT else Fraction(0)
    origin = check_majorization((zero,) * n, p.roots)
    if not origin.comparable:
        return False, _cert_margin(origin), {
            "part": "x^n below P",
            "certificate": serialize.certificate_to_json(origin)}
    op = DiffOperator.from_function(phi, n)
    ap = real_roots(monomial_image(op, n), ROOT_TOL)
    [img] = _image_roots(p.roots, op.apply_coeffs(p.coeff_vector()))
    ok, margin, details = _check_order(ap, img, inputs["rel_tol"])
    return ok, min(margin, _cert_margin(origin)), details


def _gen_extensive(cfg, rng):
    phi = _random_phi(rng, kind="monic_prime")
    n = cfg.degree(rng, low=1)
    p = random_hyperbolic(rng, n, bound=8, mode=cfg.mode)
    return {"p": p, "phi": phi, "rel_tol": cfg.rel_tol}


def _check_extensive(inputs):
    p, phi = inputs["p"], inputs["phi"]
    op = DiffOperator.from_function(phi, p.degree)
    [img] = _image_roots(p.roots, op.apply_coeffs(p.coeff_vector()))
    return _check_order(tuple(float(r) for r in p.roots), img,
                        inputs["rel_tol"])


def _gen_deform(cfg, rng):
    n = cfg.degree(rng, low=2)
    phi = _random_phi(rng, max_m=min(2, n - 1))
    p = random_hyperbolic(rng, n, bound=8, mode=cfg.mode)
    width = 1 + len(phi.alphas)
    t = [_frac(rng, -1, 1) * Fraction(3, 2) for _ in range(width)]
    s = [v * Fraction(rng.randint(0, 4), 4) for v in t]
    return {"p": p, "phi": phi, "s": s, "t": t, "rel_tol": cfg.rel_tol}


def _check_deform(inputs):
    p, phi, s, t = inputs["p"], inputs["phi"], inputs["s"], inputs["t"]
    if not (isinstance(s, list) and isinstance(t, list)
            and deformation_leq(s, t)):
        raise ConfigError(f"deform trial needs lists s <= t coordinatewise, "
                          f"got s = {_scalars_to_json(s)}, "
                          f"t = {_scalars_to_json(t)}")
    op_s = DiffOperator.from_function(phi.deform(s), p.degree)
    op_t = DiffOperator.from_function(phi.deform(t), p.degree)
    img_s, img_t = _image_roots(p.roots, op_s.apply_coeffs(p.coeff_vector()),
                                op_t.apply_coeffs(p.coeff_vector()))
    return _check_order(img_s, img_t, inputs["rel_tol"])


def _gen_scaled(cfg, rng):
    phi = _random_phi(rng, kind="monic_prime")
    n = cfg.degree(rng, low=1)
    p = random_hyperbolic(rng, n, bound=8, mode=cfg.mode)
    t = _frac(rng, -2, 2)
    s = t * Fraction(rng.randint(0, 4), 4)
    return {"p": p, "phi": phi, "s": s, "t": t, "rel_tol": cfg.rel_tol}


def _check_scaled(inputs):
    p, phi, s, t = inputs["p"], inputs["phi"], inputs["s"], inputs["t"]
    if isinstance(s, list) or isinstance(t, list):
        raise ConfigError(f"scaled trial needs scalars s and t, "
                          f"got s = {_scalars_to_json(s)}, "
                          f"t = {_scalars_to_json(t)}")
    op_s = DiffOperator.from_function(phi.scale_argument(s), p.degree)
    op_t = DiffOperator.from_function(phi.scale_argument(t), p.degree)
    img_s, img_t = _image_roots(p.roots, op_s.apply_coeffs(p.coeff_vector()),
                                op_t.apply_coeffs(p.coeff_vector()))
    return _check_order(img_s, img_t, inputs["rel_tol"])


def _gen_allincr(cfg, rng):
    n = cfg.degree(rng, low=2)
    p = random_hyperbolic(rng, n, bound=5, mode=FLOAT, min_gap=0.25)
    return {"p": p, "points": 201, "slack": 1e-7}


def _check_allincr(inputs):
    p = inputs["p"]
    grid = default_grid(p, inputs["points"])
    report = scan_monotonicity(p, grid, tol=ROOT_TOL)
    slack = inputs["slack"]
    fn_tol = 1e-8 * (1.0 + sum(abs(float(r)) for r in p.roots))
    ok = report.passed(slack, fn_tol)
    margin = min(slack - report.worst_violation, fn_tol - report.fn_drift)
    details = {} if ok else {
        "worst_per_m": list(report.worst_per_m), "fn_drift": report.fn_drift}
    return ok, margin, details


def _gen_schur(cfg, rng):
    n = cfg.degree(rng, low=2)
    phi = _random_phi(rng, max_m=min(2, n - 1), kind="type1")
    p, q = _pair(cfg, rng, n)
    lift = p.roots[0] - 1     # both polynomials share the bottom root level
    lift = min(lift, q.roots[0] - 1)
    p = taylor_shift(p, lift)
    q = taylor_shift(q, lift)
    return {"p": p, "q": q, "phi": phi, "rel_tol": cfg.rel_tol}


def _check_schur(inputs):
    p, q, phi = inputs["p"], inputs["q"], inputs["phi"]
    rel = inputs["rel_tol"]
    op = DiffOperator.from_function(phi, p.degree)
    img_p, img_q = _image_roots(p.roots, op.apply_coeffs(p.coeff_vector()),
                                op.apply_coeffs(q.coeff_vector()))
    probes = [power(1), power(2), power(3), xlogx(),
              signed_power(0.5), signed_power(2.5), signed_power(-1.0)]
    probes.extend(hinge(t) for t in img_p[:3])
    worst = float("inf")
    for probe in probes:
        if not probe_valid(probe, img_p, img_q):
            continue
        vq = float(schur_eval(img_q, probe))
        vp = float(schur_eval(img_p, probe))
        tol = rel * (1.0 + max(abs(vq), abs(vp)))
        worst = min(worst, vp - vq + tol)
        if vq > vp + tol:
            return False, worst, {
                "probe": probe.describe(), "value_on_less": vq,
                "value_on_greater": vp, "tol": tol}
    return True, worst, {}


def _gen_lag_ms(cfg, rng):
    n = cfg.degree(rng, low=2)
    m = rng.randint(1, 3)
    p_shift = rng.randint(max(0, m - n), 2)
    poly_p, poly_q = _pair(cfg, rng, n)
    coeffs = [_frac(rng, -4, 4, den=8) for _ in range(n)]
    coeffs.append(_frac(rng, 1, 4, den=8))
    return {"m": m, "p_shift": p_shift, "coeffs": coeffs, "p": poly_p,
            "q": poly_q, "rel_tol": cfg.rel_tol}


def _check_lag_ms(inputs):
    m, p_shift = inputs["m"], inputs["p_shift"]
    pc = inputs["coeffs"]
    n = len(pc) - 1
    seq = laguerre_ms(m, p_shift, n + 1)
    via_seq = multiplier_apply(seq, pc, n)
    closed = laguerre_closed_form(m, p_shift, pc)
    if tuple(via_seq) != tuple(closed):
        return False, float("-inf"), {
            "part": "closed form", "via_sequence": [str(v) for v in via_seq],
            "closed_form": [str(v) for v in closed]}
    p, q = inputs["p"], inputs["q"]
    seq_n = laguerre_ms(m, p_shift, p.degree + 1)
    return _check_isotone(partial(multiplier_apply, seq_n, normalized=True),
                          p, q, inputs["rel_tol"])


def _gen_chain(cfg, rng):
    # decomposition is exact-mode only; the suite ignores a float config
    n = cfg.degree(rng, low=2)
    p, q = _pair(cfg, rng, n, mode=RATIONAL)
    return {"p": p, "q": q, "step_cap": cfg.step_cap}


def _check_chain(inputs):
    try:
        chain = decompose_majorization(inputs["p"], inputs["q"],
                                       step_cap=inputs["step_cap"])
    except ChainTooLong as exc:
        return False, float("-inf"), {"part": "chain too long",
                                      "error": str(exc)}
    part = chain.audit()
    if part is not None:
        return False, float("-inf"), {"part": part}
    return True, float(len(chain.steps)), {}


SUITES: dict[str, tuple[Callable, Callable]] = {
    "main1": (_gen_main1, _check_main1),
    "main2": (_gen_main2, _check_main2),
    "deriv": (_gen_deriv, _check_deriv),
    "iso": (_gen_iso, _check_iso),
    "appell-min": (_gen_appell_min, _check_appell_min),
    "extensive": (_gen_extensive, _check_extensive),
    "deform": (_gen_deform, _check_deform),
    "scaled": (_gen_scaled, _check_scaled),
    "allincr": (_gen_allincr, _check_allincr),
    "schur": (_gen_schur, _check_schur),
    "lag-ms": (_gen_lag_ms, _check_lag_ms),
    "chain": (_gen_chain, _check_chain),
}


# --- trial inputs on the wire ---------------------------------------------------
#
# The one place trial inputs meet JSON: ``_FIELDS`` gives each field its
# writer and its reader.  p and q are polynomials, phi an LP function,
# pairs a list of (p, q), and gammas, coeffs, s, t and drift exact scalars
# or lists of them, written as "p/q" strings (an integer gamma too); the
# rest are JSON numbers of the kind their generator writes.  A field the
# table does not name (pb1's meta) passes through.  A reader refuses any
# other shape, and a value out of its field's range (a negative tolerance
# or count, m below 1, fewer than two gammas), with ``ConfigError``;
# whether s and t are scalars or lists is the check's to say.


def _scalars_to_json(value):
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return str(value)


def _pairs_to_json(pairs) -> list:
    return [[serialize.poly_to_json(p), serialize.poly_to_json(q)]
            for p, q in pairs]


def _as_is(value):
    return value


def _number(value):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return value


def _integer(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}")
    return value


def _at_least(read: Callable, low) -> Callable:
    # the reader of what ``read`` reads, refused below low
    def read_bounded(value):
        value = read(value)
        if value < low:
            raise ConfigError(f"expected at least {low}, got {value!r}")
        return value
    return read_bounded


def _nonempty(read: Callable, least: int = 1) -> Callable:
    # the reader of a list of at least ``least`` of what ``read`` reads
    def read_list(value) -> list:
        if not isinstance(value, list) or len(value) < least:
            raise ConfigError(f"expected a list of at least {least}, "
                              f"got {value!r}")
        return [read(v) for v in value]
    return read_list


def _pair_from_json(value) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"expected a [p, q] pair, got {value!r}")
    return tuple(serialize.poly_from_json(v) for v in value)


def _scalar_or_list(value):
    if isinstance(value, list):
        return _nonempty(parse_scalar)(value)
    return parse_scalar(value)


_POLY = (serialize.poly_to_json, serialize.poly_from_json)
_SCALAR_OR_LIST = (_scalars_to_json, _scalar_or_list)
_NUMBER = (_as_is, _number)
_TOLERANCE = (_as_is, _at_least(_number, 0))
_COUNT = (_as_is, _at_least(_integer, 0))
_FIELDS = {
    "p": _POLY, "q": _POLY,
    "phi": (serialize.lp_to_json, serialize.lp_from_json),
    "pairs": (_pairs_to_json, _nonempty(_pair_from_json)),
    # a multiplier sequence of degree n >= 1 has n + 1 terms
    "gammas": (_scalars_to_json, _nonempty(parse_scalar, 2)),
    "coeffs": (_scalars_to_json, _nonempty(parse_scalar)),
    "s": _SCALAR_OR_LIST, "t": _SCALAR_OR_LIST,
    "drift": (_scalars_to_json, parse_scalar),
    "lambdas": (_as_is, _nonempty(_number)),
    "rel_tol": _TOLERANCE, "slack": _TOLERANCE,
    "lam1": _NUMBER, "lam2": _NUMBER, "gauss1": _NUMBER, "gauss2": _NUMBER,
    "points": (_as_is, _integer), "step_cap": _COUNT,
    "m": (_as_is, _at_least(_integer, 1)), "p_shift": _COUNT,
}


def inputs_to_json(inputs: dict) -> dict:
    """The JSON form of typed trial inputs, as a failure record holds it."""
    return {key: _FIELDS[key][0](value) if key in _FIELDS else value
            for key, value in inputs.items()}


class _ReplayInputs(dict):
    # a field the check reads and the record lacks makes a malformed
    # record, not a KeyError from inside the check
    def __missing__(self, key):
        raise ConfigError(f"failure record inputs lack {key!r}")


def inputs_from_json(obj) -> dict:
    """The typed inputs of a failure record's JSON ``inputs``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"failure record inputs must be an object, "
                          f"got {obj!r}")
    out = _ReplayInputs()
    for key, value in obj.items():
        if key in _FIELDS:
            try:
                value = _FIELDS[key][1](value)
            except ConfigError as exc:
                raise ConfigError(f"input {key!r}: {exc}") from None
        out[key] = value
    return out


def _run(name: str, generate: Callable, check: Callable,
         config: ExperimentConfig) -> tuple[SuiteReport, int]:
    """The trial loop shared by suites and hunts.

    Returns the report and the number of passing trials whose check
    returned details.
    """
    if config.trials < 0:
        raise ConfigError(f"trials must be >= 0, got {config.trials}")
    if config.degree_min > config.degree_max:
        raise ConfigError(f"degree_min {config.degree_min} exceeds "
                          f"degree_max {config.degree_max}")
    if config.mode not in (RATIONAL, FLOAT):
        raise ConfigError(f"mode must be {RATIONAL!r} or {FLOAT!r}, "
                          f"got {config.mode!r}")
    check_tol(config.tol)
    if not isinstance(config.params, dict):
        raise ConfigError(f"params must be an object, got {config.params!r}")
    begin = time.perf_counter()
    failures = []
    evidence = 0
    worst = float("inf")
    for trial in range(config.trials):
        inputs = generate(config, trial_rng(config.seed, trial))
        ok, slack, details = check(inputs)
        worst = min(worst, slack)
        if not ok:
            failures.append({"suite": name, "trial": trial,
                             "inputs": inputs_to_json(inputs),
                             "details": details})
        elif details:
            evidence += 1
    cfg = config.to_json()
    cfg["suite"] = name
    report = SuiteReport(name, config.trials, tuple(failures),
                         worst if worst != float("inf") else None,
                         time.perf_counter() - begin, cfg)
    return report, evidence


def run_suite(config: ExperimentConfig) -> SuiteReport:
    if config.suite not in SUITES:
        raise UnknownSuite(f"no suite named {config.suite!r}; "
                           f"available: {', '.join(sorted(SUITES))}")
    report, _ = _run(config.suite, *SUITES[config.suite], config)
    if config.out:
        report.write(config.out)
    return report


def recheck_failure(record: dict) -> bool:
    """True when the recorded failure reproduces from its own inputs.

    A record that is not an object with a ``suite`` name and an
    ``inputs`` object, or whose inputs lack a field or have one of the
    wrong shape, raises ``ConfigError``.
    """
    suite = record.get("suite") if isinstance(record, dict) else None
    if not isinstance(suite, str):
        raise ConfigError(f"a failure record needs a 'suite' name, "
                          f"got {record!r}")
    entry = SUITES.get(suite) or HUNTS.get(suite)
    if entry is None:
        raise UnknownSuite(f"record names unknown suite {suite!r}")
    if "inputs" not in record:
        raise ConfigError("a failure record needs its 'inputs'")
    ok, _, _ = entry[1](inputs_from_json(record["inputs"]))
    return not ok


# --- counterexample hunts -------------------------------------------------------

def _random_ps1_sequence(rng, n: int, family: str) -> tuple[list, dict]:
    """A multiplier sequence known to lie in the first Polya-Schur class."""
    if family == "xp-prime":
        return [k for k in range(n + 1)], {"family": "xp-prime"}
    if family == "laguerre":
        m = rng.randint(1, 3)
        p = rng.randint(0, 2)
        while n < max(1, m - p):
            m = rng.randint(1, 3)
            p = rng.randint(0, 2)
        seq = laguerre_ms(m, p, n + 1)
        return list(seq.gammas), {"family": "laguerre", "m": m, "p": p}
    # mixed: elementwise products of geometric and rising-linear factors,
    # each of which is a first-kind multiplier sequence
    ratio = rng.choice((Fraction(1, 2), 1, Fraction(3, 2), 2, 3))
    shifts = [Fraction(rng.randint(0, 8), 2) for _ in range(rng.randint(0, 2))]
    gammas = []
    for k in range(n + 1):
        g = ratio ** k
        for cshift in shifts:
            g *= (k + cshift)
        gammas.append(g)
    return gammas, {"family": "mixed", "ratio": str(ratio),
                    "shifts": [str(s) for s in shifts]}


def _gen_pb1(cfg, rng):
    family = cfg.params.get("family", "mixed")
    if family == "mixed":
        family = rng.choice(("mixed", "laguerre", "xp-prime"))
    n = cfg.degree(rng, low=2)
    gammas, meta = _random_ps1_sequence(rng, n, family)
    p, q = _pair(cfg, rng, n, mode=RATIONAL)
    return {"gammas": gammas, "meta": meta, "p": p, "q": q,
            "rel_tol": cfg.rel_tol}


def _check_diagonal(inputs, normalized: bool = False):
    # pb2, and pb1 with its gammas normalized by the top one
    image = partial(multiplier_apply, MultiplierSequence(inputs["gammas"]),
                    normalized=normalized)
    return _check_isotone(image, inputs["p"], inputs["q"], inputs["rel_tol"],
                          hunt=True)


def _find_diagonal_operator(rng, n: int) -> list:
    """A diagonal hyperbolicity preserver gamma_0..gamma_n with gamma_n = 1.

    By the finite Polya-Schur theorem (Craven-Csordas; Borcea-Branden),
    these are exactly gamma_k = [x^k] J / C(n, k) for J = prod (x + r_i)
    with the r_i all >= 0 or all <= 0.  The r_i are drawn on the 1/4 grid
    in [0, 2], with the boundary on purpose: zeros at 0 (gamma_0 = 0),
    ties and tight clusters (a zero plus k/64); then one sign is drawn for
    all of them.  Every draw is a preserver by construction.
    """
    zeros = []
    while len(zeros) < n:
        kind = rng.randrange(8)
        if kind == 0:
            zeros.append(Fraction(0))
            continue
        r = Fraction(rng.randint(1, 8), 4)
        if kind == 1:
            zeros += [r, r]
        elif kind == 2:
            zeros += [r, r + Fraction(rng.randint(1, 3), 64)]
        else:
            zeros.append(r)
    sign = rng.choice((1, -1))
    jensen = exact_expansion([-sign * r for r in zeros[:n]])
    return [Fraction(c, jensen.den * math.comb(n, k))
            for k, c in enumerate(jensen.nums)]


def _gen_pb2(cfg, rng):
    n = cfg.degree(rng, low=2)
    gammas = _find_diagonal_operator(rng, n)
    p, q = _pair(cfg, rng, n, mode=RATIONAL)
    return {"gammas": gammas, "p": p, "q": q, "rel_tol": cfg.rel_tol}


def _gen_pb3(cfg, rng):
    n = cfg.degree(rng, low=2)
    gammas = _find_diagonal_operator(rng, n)
    drift = Fraction(0)
    if rng.random() < 0.5:
        drift = _frac(rng, -2, 2)
    pairs = [_pair(cfg, rng, n, mode=RATIONAL) for _ in range(3)]
    return {"gammas": gammas, "drift": drift, "pairs": pairs,
            "rel_tol": cfg.rel_tol}


def _check_pb3(inputs):
    # a diagonal operator always maps the zero-barycenter slice into itself;
    # composing with a shift keeps it there exactly when the drift is zero.
    # Outside that slice monoid a broken order is no counterexample, and a
    # kept one is only sampling evidence, never a certificate
    drift = inputs["drift"]
    image = partial(multiplier_apply, MultiplierSequence(inputs["gammas"]))
    worst = float("inf")
    for p, q in inputs["pairs"]:
        ok, margin, details = _check_isotone(image, p, q, inputs["rel_tol"],
                                             hunt=True, drift=drift)
        worst = min(worst, margin)
        if not ok:
            if drift:
                return True, worst, {}
            details["part"] = "slice-preserving operator broke the order"
            return False, worst, details
    return True, worst, (
        {"order_preserving_outside_slice_monoid": True} if drift else {})


HUNTS: dict[str, tuple[Callable, Callable]] = {
    "pb1": (_gen_pb1, partial(_check_diagonal, normalized=True)),
    "pb2": (_gen_pb2, _check_diagonal),
    "pb3": (_gen_pb3, _check_pb3),
}


def hunt_counterexamples(problem: str, config: ExperimentConfig) -> SuiteReport:
    """Randomized search for violations of the open problems.

    Only order violations beyond ``CONFIRM_REL_TOL`` on float image roots
    count as counterexamples; the anchor cases (pb2 at n=2, pb1 on the
    derivative-type and factorial families) are settled affirmatively and
    must report none.
    ``info["evidence"]`` counts the passing trials that carried evidence.
    """
    if problem not in HUNTS:
        raise UnknownSuite(f"unknown problem {problem!r}; "
                           f"choose from {', '.join(sorted(HUNTS))}")
    report, evidence = _run(problem, *HUNTS[problem], config)
    report.info["evidence"] = evidence
    if config.out:
        report.write(config.out)
    return report
