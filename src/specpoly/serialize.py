"""JSON wire formats for polynomials, certificates, witnesses and chains.

Rationals travel as "p/q" strings so exactness survives the round trip;
floats stay native JSON numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .contract import ContractionChain, ContractionStep
from .errors import ConfigError
from .lpops import LPFunction
from .majorize import DoublyStochasticWitness, MajorizationCertificate
from .poly import HyperbolicPoly, from_roots, hyperbolic_from_coeffs
from .scalars import FLOAT, RATIONAL, parse_scalar, scalar_to_json


def _entries(obj: dict, key: str) -> list:
    # the list a JSON object holds under key, or ConfigError
    value = obj[key]
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    return value


def _finite(value):
    # a scalar, refused when it is a float NaN or infinity
    scalar = parse_scalar(value)
    if isinstance(scalar, float) and not math.isfinite(scalar):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return scalar


def _double(value) -> float:
    # a scalar as a finite double, refused beyond double range
    try:
        return float(_finite(value))
    except OverflowError:
        raise ConfigError(f"{value!r} is beyond double range") from None


def poly_to_json(p: HyperbolicPoly) -> dict:
    return {"mode": p.mode, "roots": [scalar_to_json(r) for r in p.roots]}


def poly_from_json(obj, tol: float | None = None) -> HyperbolicPoly:
    """Accepts {"mode", "roots"}, a bare root list, or {"coeffs": [...]}.

    Coefficient import runs the root finder, so it always yields a
    float-mode polynomial and requires the input to be real-rooted; a
    coefficient that is not a finite double is refused.
    """
    if isinstance(obj, (list, tuple)):
        return from_roots([parse_scalar(v) for v in obj])
    if not isinstance(obj, dict):
        raise ConfigError(f"cannot read a polynomial from {obj!r}")
    if "coeffs" in obj:
        return hyperbolic_from_coeffs(
            [_double(v) for v in _entries(obj, "coeffs")], tol)
    if "roots" not in obj:
        raise ConfigError("polynomial JSON needs 'roots' or 'coeffs'")
    mode = obj.get("mode")
    if mode is not None and mode not in (RATIONAL, FLOAT):
        raise ConfigError(f"unknown mode {mode!r}")
    return from_roots([parse_scalar(v) for v in _entries(obj, "roots")], mode)


def certificate_to_json(cert: MajorizationCertificate) -> dict:
    return {
        "verdict": cert.verdict.value,
        "sum_residual": scalar_to_json(cert.sum_residual),
        "slacks": [scalar_to_json(s) for s in cert.slacks],
        "tol": scalar_to_json(cert.tol),
    }


def witness_to_json(w: DoublyStochasticWitness) -> list:
    return [[scalar_to_json(v) for v in row] for row in w.matrix]


def witness_from_json(rows) -> DoublyStochasticWitness:
    return DoublyStochasticWitness(
        tuple(tuple(Fraction(parse_scalar(v)) for v in row) for row in rows))


def chain_to_json(chain: ContractionChain) -> dict:
    return {
        "source": poly_to_json(chain.source),
        "steps": [{"k": s.k, "l": s.l, "t": scalar_to_json(s.t)}
                  for s in chain.steps],
        "target": poly_to_json(chain.target),
    }


def _step_from_json(obj) -> ContractionStep:
    k, l = (obj.get(key) if isinstance(obj, dict) else None
            for key in ("k", "l"))
    if type(k) is not int or type(l) is not int or "t" not in obj:
        raise ConfigError(f"a chain step needs integers 'k', 'l' and a 't', "
                          f"got {obj!r}")
    return ContractionStep(k, l, parse_scalar(obj["t"]))


def chain_from_json(obj) -> ContractionChain:
    if not (isinstance(obj, dict)
            and {"source", "steps", "target"} <= set(obj)):
        raise ConfigError("chain JSON needs 'source', 'steps' and 'target'")
    steps = tuple(_step_from_json(s) for s in _entries(obj, "steps"))
    return ContractionChain(poly_from_json(obj["source"]), steps,
                            poly_from_json(obj["target"]))


def lp_to_json(phi: LPFunction) -> dict:
    return {
        "c": scalar_to_json(phi.c),
        "m": phi.m,
        "a": scalar_to_json(phi.a),
        "b": scalar_to_json(phi.b),
        "alphas": [scalar_to_json(a) for a in phi.alphas],
    }


def lp_from_json(obj) -> LPFunction:
    """An LP function from JSON: finite scalars and an integer m >= 0."""
    if not isinstance(obj, dict):
        raise ConfigError(f"cannot read an LP function from {obj!r}")
    m = obj.get("m", 0)
    if type(m) is not int or m < 0:
        raise ConfigError(f"'m' must be an integer >= 0, got {m!r}")
    try:
        return LPFunction(
            c=_finite(obj.get("c", 1)),
            m=m,
            a=_finite(obj.get("a", 0)),
            b=_finite(obj.get("b", 0)),
            alphas=tuple(_finite(v) for v in obj.get("alphas", ())),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid LP function: {exc}") from None
