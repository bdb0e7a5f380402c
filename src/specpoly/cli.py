"""Command line interface.

Exit codes: 0 all checks passed, 1 violations found, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import serialize
from .contract import decompose_majorization, random_comparable_pair
from .errors import ConfigError, SpecPolyError
from .harness import (HUNTS, SUITES, ExperimentConfig, hunt_counterexamples,
                      run_suite)
from .lpops import (DiffOperator, appell, gaussian_op, laguerre_ms,
                    multiplier_apply, apply_operator, shift_pencil)
from .majorize import build_witness, check_majorization
from .pencil import pencil_path
from .poly import HyperbolicPoly, hyperbolic_from_coeffs
from .roots import real_roots_near
from .scalars import FLOAT, parse_scalar


def _read_json(path):
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def _load_poly(path, tol=None):
    return serialize.poly_from_json(_read_json(path), tol)


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _add_harness_flags(sub):
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--degree-min", type=int)
    sub.add_argument("--degree-max", type=int)
    sub.add_argument("--mode", choices=["rational", "float"])
    sub.add_argument("--tol", type=float)
    sub.add_argument("--out")
    sub.add_argument("--config", help="JSON config file; flags win")
    sub.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE")


_INT_KEYS = ("trials", "seed", "degree_min", "degree_max", "step_cap")


def _build_config(args, suite) -> ExperimentConfig:
    cfg = ExperimentConfig(suite=suite)
    if args.config:
        config = _read_json(args.config)
        if not isinstance(config, dict):
            raise ConfigError("--config needs a JSON object")
        for key, value in config.items():
            if not hasattr(cfg, key):
                raise SpecPolyError(f"unknown config key {key!r}")
            if key in _INT_KEYS and type(value) is not int:
                raise ConfigError(f"config key {key!r} needs an integer")
            setattr(cfg, key, value)
    for name in ("trials", "seed", "degree_min", "degree_max", "mode",
                 "tol", "out"):
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    if args.param and not isinstance(cfg.params, dict):
        raise ConfigError("--param needs the config's params to be an object")
    for item in args.param:
        key, _, value = item.partition("=")
        cfg.params[key] = value
    cfg.suite = suite
    return cfg


def _report_outcome(report) -> int:
    slack = report.worst_slack
    print(f"{report.suite}: {report.trials} trials, "
          f"{len(report.failures)} failure(s), "
          f"worst slack {'none' if slack is None else format(slack, '.3g')}, "
          f"{report.wall_time:.2f}s")
    for rec in report.failures[:5]:
        print(f"  trial {rec['trial']}: {json.dumps(rec['details'])[:200]}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specpoly",
        description="Hyperbolic polynomials under the spectral order: "
                    "majorization certificates, contraction chains, "
                    "operator application, and theorem-verification suites.")
    top = parser.add_subparsers(dest="command", required=True)

    p_verify = top.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    _add_harness_flags(p_verify)

    p_hunt = top.add_parser("hunt", help="hunt counterexamples to an open problem")
    p_hunt.add_argument("problem", choices=sorted(HUNTS))
    _add_harness_flags(p_hunt)

    p_maj = top.add_parser("majorize", help="majorization checks and witnesses")
    maj_sub = p_maj.add_subparsers(dest="action", required=True)
    for name in ("check", "witness", "chain"):
        ps = maj_sub.add_parser(name)
        ps.add_argument("--x", required=True, help="smaller tuple / polynomial JSON")
        ps.add_argument("--y", required=True, help="larger tuple / polynomial JSON")
        ps.add_argument("--tol", type=float)
        ps.add_argument("--out")

    p_chain = top.add_parser("chain", help="contraction chains")
    chain_sub = p_chain.add_subparsers(dest="action", required=True)
    pc = chain_sub.add_parser("decompose")
    pc.add_argument("--p", required=True)
    pc.add_argument("--q", required=True)
    pc.add_argument("--step-cap", type=int, default=10 ** 6)
    pc.add_argument("--perturb-eps")
    pc.add_argument("--out")
    pv = chain_sub.add_parser("verify")
    pv.add_argument("--chain", required=True)
    pr = chain_sub.add_parser("random-pair")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--budget", type=int, default=3)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out")

    p_op = top.add_parser("op", help="apply differential / multiplier operators")
    op_sub = p_op.add_subparsers(dest="action", required=True)
    pa = op_sub.add_parser("apply")
    pa.add_argument("--phi", required=True)
    pa.add_argument("--poly", required=True)
    pa.add_argument("--degree", type=int)
    pa.add_argument("--normalized", action="store_true")
    pa.add_argument("--tol", type=float)
    pa.add_argument("--out")
    pap = op_sub.add_parser("appell")
    pap.add_argument("--phi", required=True)
    pap.add_argument("--n", type=int, required=True)
    pap.add_argument("--normalized", action="store_true")
    pap.add_argument("--out")
    psp = op_sub.add_parser("shift-pencil")
    psp.add_argument("--poly", required=True)
    psp.add_argument("--lambda", dest="lam", required=True)
    psp.add_argument("--out")
    pg = op_sub.add_parser("gaussian")
    pg.add_argument("--poly", required=True)
    pg.add_argument("--a", required=True)
    pg.add_argument("--out")
    pd = op_sub.add_parser("deform")
    pd.add_argument("--phi", required=True)
    pd.add_argument("--s", required=True, help="JSON list of deformation entries")
    pd.add_argument("--out")
    pm = op_sub.add_parser("multiplier")
    pm.add_argument("--poly", required=True)
    group = pm.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", help="JSON list of gamma_k")
    group.add_argument("--laguerre", nargs=2, type=int, metavar=("M", "P"))
    pm.add_argument("--degree", type=int)
    pm.add_argument("--normalized", action="store_true")
    pm.add_argument("--out")

    p_scan = top.add_parser("pencil", help="pencil trajectory sampling")
    scan_sub = p_scan.add_subparsers(dest="action", required=True)
    psc = scan_sub.add_parser("scan")
    psc.add_argument("--poly", required=True)
    psc.add_argument("--grid", nargs=2, metavar=("L", "N"), required=True)
    psc.add_argument("--out")

    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (SpecPolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "verify":
        return _report_outcome(run_suite(_build_config(args, args.suite)))

    if args.command == "hunt":
        cfg = _build_config(args, args.problem)
        return _report_outcome(hunt_counterexamples(args.problem, cfg))

    if args.command == "majorize":
        x = serialize.poly_from_json(_read_json(args.x))
        y = serialize.poly_from_json(_read_json(args.y))
        if args.action == "check":
            cert = check_majorization(x.roots, y.roots, args.tol)
            _emit(serialize.certificate_to_json(cert), args.out)
            return 0 if cert.comparable else 1
        if args.action == "witness":
            witness = build_witness(x.roots, y.roots)
            _emit(serialize.witness_to_json(witness), args.out)
            return 0
        chain = decompose_majorization(y, x)
        _emit(serialize.chain_to_json(chain), args.out)
        return 0

    if args.command == "chain":
        return _chain_command(args)

    if args.command == "op":
        return _op_command(args)

    if args.command == "pencil":
        return _pencil_command(args)

    raise SpecPolyError(f"unhandled command {args.command!r}")


def _chain_command(args) -> int:
    if args.action == "decompose":
        p = _load_poly(args.p)
        q = _load_poly(args.q)
        eps = parse_scalar(args.perturb_eps) if args.perturb_eps else None
        chain = decompose_majorization(p, q, step_cap=args.step_cap,
                                       perturb_eps=eps)
        _emit(serialize.chain_to_json(chain), args.out)
        return 0
    if args.action == "verify":
        chain = serialize.chain_from_json(_read_json(args.chain))
        try:
            chain.verify()
        except SpecPolyError as exc:
            print(f"chain invalid: {exc}", file=sys.stderr)
            return 1
        print(f"chain ok: {len(chain.steps)} steps replay exactly")
        return 0
    p, q = random_comparable_pair(args.seed, args.n, args.budget)
    _emit({"p": serialize.poly_to_json(p), "q": serialize.poly_to_json(q)},
          args.out)
    return 0


def _op_command(args) -> int:
    if args.action == "apply":
        phi = serialize.lp_from_json(_read_json(args.phi))
        poly = _load_poly(args.poly)
        degree = args.degree if args.degree is not None else poly.degree
        op = DiffOperator.from_function(phi, degree,
                                        normalized=args.normalized)
        image = apply_operator(op, poly, args.tol)
        _emit(serialize.poly_to_json(image), args.out)
        return 0
    if args.action == "appell":
        phi = serialize.lp_from_json(_read_json(args.phi))
        coeffs = appell(phi, args.n, normalized=args.normalized)
        _emit(serialize.poly_to_json(hyperbolic_from_coeffs(coeffs)), args.out)
        return 0
    if args.action == "shift-pencil":
        poly = _load_poly(args.poly)
        image = shift_pencil(poly, parse_scalar(args.lam))
        _emit(serialize.poly_to_json(image), args.out)
        return 0
    if args.action == "gaussian":
        poly = _load_poly(args.poly)
        a = parse_scalar(args.a)
        if a < 0:
            print("warning: negative coefficient leaves the Laguerre-Polya "
                  "regime; the image may not be real-rooted", file=sys.stderr)
        image = gaussian_op(poly, a)
        _emit(serialize.poly_to_json(image), args.out)
        return 0
    if args.action == "deform":
        phi = serialize.lp_from_json(_read_json(args.phi))
        entries = [parse_scalar(v) for v in _read_json(args.s)]
        _emit(serialize.lp_to_json(phi.deform(entries)), args.out)
        return 0
    if args.action == "multiplier":
        poly = _load_poly(args.poly)
        n = args.degree if args.degree is not None else poly.degree
        if args.gamma:
            gammas = [parse_scalar(v) for v in _read_json(args.gamma)]
        else:
            m, p = args.laguerre
            if m < 1 or p < 0:
                raise ConfigError("--laguerre needs M >= 1 and P >= 0")
            gammas = laguerre_ms(m, p, n + 1).gammas
        coeffs = multiplier_apply(gammas, poly.coeff_vector(), n,
                                  normalized=args.normalized)
        image = HyperbolicPoly(real_roots_near(coeffs, poly.roots), FLOAT)
        _emit(serialize.poly_to_json(image), args.out)
        return 0
    raise SpecPolyError(f"unhandled op action {args.action!r}")


def _pencil_command(args) -> int:
    poly = _load_poly(args.poly)
    try:
        span, count = float(args.grid[0]), int(args.grid[1])
    except ValueError:
        raise ConfigError("grid needs a number L and an integer N") from None
    if count < 2 or not 0 < span < math.inf:
        raise ConfigError("grid needs L > 0 and N >= 2")
    lams = [-span + 2 * span * k / (count - 1) for k in range(count)]
    n = poly.degree
    samples = pencil_path(poly, lams)

    def emit(handle):
        writer = csv.writer(handle)
        writer.writerow(["lambda"] + [f"x{i}" for i in range(1, n + 1)]
                        + [f"f{m}" for m in range(1, n + 1)])
        for sample in samples:
            writer.writerow([repr(sample.lam)]
                            + [repr(v) for v in sample.roots]
                            + [repr(v) for v in sample.partial_sums])

    if args.out:
        with open(args.out, "w", newline="") as handle:
            emit(handle)
    else:
        emit(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
