"""Batch command-line front end.

Subcommands:
  norm       compute one norm of a polynomial file
  diff       differentiate by one of several methods, reporting residuals
  verify     run a randomized verification sweep, writing JSONL + CSV
             (and, with --profile, wall times of the sweep, of writing its
             outputs and of each check to a JSON file)
  constants  print the explicit embedding/identity constants for a degree

Exit codes: 0 success, 1 verification failures (witnesses dumped), 2 bad
input or parameters.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import kernels, measures, norms, sweep
from .errors import PolynormError
from .norms import QuadratureConfig, norm_value
from .poly import ExponentialSum, TrigPoly, _read_json, load_poly_file

_FMT = "{:.15g}"


def _fmt_complex(v: complex) -> str:
    return f"{_FMT.format(v.real)}{v.imag:+.15g}j"


def _load_cfg(path: str | None) -> QuadratureConfig:
    return QuadratureConfig.from_json(_read_json(path)) if path else QuadratureConfig()


def _cmd_norm(args) -> int:
    poly = load_poly_file(args.poly)
    if isinstance(poly, ExponentialSum):
        raise PolynormError("norm expects a polynomial input, not an exponential sum")
    cfg = _load_cfg(args.cfg)
    value = norm_value(poly, args.kind, args.p, cfg)
    print(_FMT.format(value))
    return 0


def _parse_at(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise PolynormError(f"cannot parse evaluation point {text!r}") from exc


def _cmd_diff(args) -> int:
    obj = load_poly_file(args.poly)
    at = _parse_at(args.at)
    method = args.method
    # trig polynomials and exponential sums take the real angle x
    if isinstance(obj, ExponentialSum):
        name, methods, x = "exponential sums", ("direct", "boas"), at.real
    elif isinstance(obj, TrigPoly):
        name, methods, x = "trig polynomials", ("direct", "riesz", "kernel"), at.real
    else:
        name, methods, x = "algebraic polynomials", ("direct", "kernel"), at
    if method not in methods:
        raise PolynormError(f"{name} support methods: {', '.join(methods)}")
    direct = obj.derivative_values(x) if isinstance(obj, ExponentialSum) else obj.derivative()(x)

    err_bound = None
    if method == "direct":
        val = direct
    elif method == "boas":
        approx, err_bound = measures.boas_derivative(obj, args.trunc)
        val = approx(x)
    elif method == "riesz":
        val = measures.convolve(obj, measures.riesz_measure(max(obj.degree, 1)), x)
    elif isinstance(obj, TrigPoly):
        # the kernel gives the z-derivative at e^{ix}; the chain rule
        # i e^{ix} T'(e^{ix}) recovers the x-derivative
        xi = complex(np.exp(1j * x))
        val = 1j * xi * kernels.trig_deriv_via_kernel(obj, xi)
    else:
        val = kernels.deriv_via_kernel(obj, x)
    print(f"derivative = {_fmt_complex(val)}")
    if method != "direct":
        print(f"residual_vs_direct = {_FMT.format(abs(val - direct))}")
    if err_bound is not None:
        print(f"error_bound = {_FMT.format(err_bound)}")
    return 0


def _cmd_verify(args) -> int:
    obj = _read_json(args.config) if args.config else {}
    if not isinstance(obj, dict):
        raise PolynormError(f"{args.config}: a sweep config is a JSON object")
    # the flags override the file before the config is validated, as one dict
    overrides = {"seed": args.seed, "trials": args.trials, "tol": args.tol,
                 "rho_list": None if args.rho is None else [args.rho],
                 "bound_scale": args.debug_shrink_bound}
    obj.update({key: value for key, value in overrides.items() if value is not None})
    sc = sweep.SweepConfig.from_json(obj)
    out_jsonl = args.out + ".jsonl" if args.out else (sc.out_jsonl or "polynorm_report.jsonl")
    out_csv = args.out + ".csv" if args.out else (sc.out_csv or "polynorm_summary.csv")

    profile = {} if args.profile else None
    t0 = time.perf_counter()
    result = sweep.run_sweep(sc, profile)
    t1 = time.perf_counter()
    sweep.write_jsonl(out_jsonl, result.reports)
    sweep.write_csv(out_csv, result.summary)
    if args.profile:
        write_s = time.perf_counter() - t1
        with open(args.profile, "w", encoding="utf-8") as handle:
            json.dump({"sweep_s": t1 - t0, "write_s": write_s, "checks": profile}, handle,
                      indent=1, sort_keys=True)

    n_fail = len(result.failures())
    print(f"checks: {len(sc.checks)}  reports: {len(result.reports)}  failures: {n_fail}")
    print(f"wrote {out_jsonl} and {out_csv}")
    if n_fail:
        print("FAILURES (witnesses below):", file=sys.stderr)
        for rep in result.failures()[:20]:
            print(json.dumps(rep.to_json(), sort_keys=True), file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _cmd_constants(args) -> int:
    n = args.n
    if n < 1:
        raise PolynormError("constants need n >= 1")
    euler = measures.euler_partial_sums(args.terms)
    rows = [
        ("wiener_bound sqrt(n+1)", kernels.wiener_bound_constant(n)),
        ("besov_inf1_bound sum_{k=0}^{n-1} 1/(2k+1)", kernels.besov_inf1_bound_constant(n)),
        ("besov_inf1_bound alt variant (k=1..n-1)", kernels.besov_inf1_bound_constant(n, start_index=1)),
        ("besov_111_bound (8/pi)*sum gamma-terms", kernels.besov_111_bound_constant(n)),
        ("besov_111_linear_bound (8/pi)*n", 8.0 / math.pi * n),
        ("riesz_weight_identity prefactor 1/(4n^2)", measures.riesz_weight_identity(n)),
        ("riesz_weight_identity alt prefactor 1/(2n^2)", measures.riesz_weight_identity_alt(n)),
        (f"pi^2/8 partial sum (R={args.terms})", euler["pi2_over_8_estimate"]),
        (f"pi^2/6 derived estimate (R={args.terms})", euler["pi2_over_6_estimate"]),
    ]
    width = max(len(name) for name, _ in rows)
    print(f"n = {n}")
    for name, value in rows:
        if name.startswith("riesz_weight_identity"):
            print(f"{name:<{width}}  = {value:.12f}")
        else:
            print(f"{name:<{width}}  = {_FMT.format(value)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polynorm",
        description="norms, exact differentiation, and inequality verification "
        "for polynomials on the unit circle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute a norm of a polynomial file")
    p_norm.add_argument("poly", help="polynomial JSON file")
    p_norm.add_argument("--kind", required=True, choices=norms._NORM_KINDS)
    p_norm.add_argument("--p", type=float, default=None, help="exponent for --kind lp")
    p_norm.add_argument("--cfg", default=None, help="quadrature config JSON file")
    p_norm.set_defaults(func=_cmd_norm)

    p_diff = sub.add_parser("diff", help="differentiate by a chosen method")
    p_diff.add_argument("poly", help="polynomial or expsum JSON file")
    p_diff.add_argument("--method", required=True,
                        choices=["direct", "riesz", "kernel", "boas"])
    p_diff.add_argument("--at", required=True,
                        help="evaluation point: real x for trig/expsum, complex for algebraic")
    p_diff.add_argument("--trunc", type=int, default=401,
                        help="odd truncation order for --method boas")
    p_diff.set_defaults(func=_cmd_diff)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("config", nargs="?", default=None, help="sweep config JSON file")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--rho", type=float, default=None,
                          help="replace the root-exclusion radius list with one value")
    p_verify.add_argument("--out", default=None, help="output path prefix")
    p_verify.add_argument("--debug-shrink-bound", type=float, default=None,
                          help="negative control: multiply every bound by this factor")
    p_verify.add_argument("--profile", default=None, metavar="PATH",
                          help="write the wall times of the sweep (sweep_s) and of writing "
                               "its outputs (write_s), and per check the wall times of "
                               "building and checking inputs, the group count (one per "
                               "degree, trials and witness family together) and the report "
                               "count, to this JSON file (the reports do not change)")
    p_verify.set_defaults(func=_cmd_verify)

    p_const = sub.add_parser("constants", help="print explicit constants for degree n")
    p_const.add_argument("--n", type=int, required=True)
    p_const.add_argument("--terms", type=int, default=10000,
                         help="partial-sum length for the series estimates")
    p_const.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolynormError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
