"""Command line front end: JSON in, one JSON document out.

Machine output goes to stdout; when stderr is a terminal a short human
summary is printed there as well.  Exit codes: 0 success, 2 malformed or
unusable input, 3 theorem-violation diagnostic (or route disagreement),
64 flag and usage errors.  The TOEPNORM_EPS environment variable overrides
the default relative tolerance; an explicit --eps flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from .classify import (
    TheoremViolation,
    classification_to_json,
    classify_complex,
    classify_real,
    classify_via_proof,
)
from .genlab import (
    EnumRequest,
    GenRequest,
    Kind,
    enum_report_to_json,
    enumerate_and_verify,
    generate,
)
from .normality import check, fast_max_residual, report_to_json, residual_scale
from .polyid import (
    identity16_holds,
    identity14_check,
    identity8_coefficient_check,
    identity8_residual,
    identity9_residual,
    factor_polys,
    is_zero_poly,
)
from .scalar import GaussianRational, ScalarPolicy, SpecFormatError, scalar_from_json
from .toeplitz import commutator_norm, spec_from_json, spec_to_json

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64

_KIND_TOKENS = {
    "typeI": Kind.TYPE_I,
    "typeII": Kind.TYPE_II,
    "symmetric": Kind.SYMMETRIC,
    "skew-symmetric": Kind.SKEW_SYMMETRIC,
    "circulant": Kind.CIRCULANT,
    "skew-circulant": Kind.SKEW_CIRCULANT,
    "unconstrained": Kind.UNCONSTRAINED,
}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _note(text: str) -> None:
    if sys.stderr.isatty():
        print(text, file=sys.stderr)


def _fail(message: str, code: int) -> int:
    print(f"toepnorm: {message}", file=sys.stderr)
    return code


def _read_spec(path: str):
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"input is not JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFormatError("input is not JSON: nested too deeply") from exc
    return spec_from_json(doc)


_DEFAULT_POLICY = ScalarPolicy()


def _policy_for(spec, args) -> ScalarPolicy:
    """The tolerances of a float spec; exact specs never read them."""
    if spec.is_exact:
        return _DEFAULT_POLICY
    eps = args.eps
    if eps is None:
        env = os.environ.get("TOEPNORM_EPS")
        try:
            eps = _DEFAULT_POLICY.eps_rel if env is None else float(env)
        except ValueError:
            raise SpecFormatError(f"TOEPNORM_EPS is not a number: {env!r}")
    return ScalarPolicy(eps, args.eps_floor)


def _add_policy_flags(sub) -> None:
    sub.add_argument("--eps", type=float, default=None, help="relative tolerance")
    sub.add_argument(
        "--eps-floor",
        type=float,
        default=_DEFAULT_POLICY.eps_abs_floor,
        help="absolute tolerance floor",
    )


def _cmd_check(args) -> int:
    spec = _read_spec(args.input)
    report = check(spec, _policy_for(spec, args))
    _emit(report_to_json(report))
    verdict = "normal" if report.is_normal_fast else "not normal"
    _note(f"{verdict}; max residual {report.max_residual}, oracle agrees: {report.agrees}")
    return EXIT_OK


def _witnesses_match(a, b, policy) -> bool:
    if (a is None) != (b is None):
        return False
    return a is None or policy.equal(a, b, 1.0)


def _cmd_classify(args) -> int:
    spec = _read_spec(args.input)
    policy = _policy_for(spec, args)
    real = None
    if args.route in ("direct", "both"):
        direct = classify_complex(spec, policy)
        if spec.is_real:
            real = classify_real(spec, policy)
    if args.route in ("proof", "both"):
        proof, trace = classify_via_proof(spec, policy)
        if args.route == "proof" and spec.is_real:
            real = classify_real(spec, policy)
    if args.route == "direct":
        _emit(classification_to_json(direct, real))
        _note(f"verdict: {direct.verdict.value}")
        return EXIT_OK
    if args.route == "proof":
        _emit(classification_to_json(proof, real, trace))
        _note(f"verdict: {proof.verdict.value}")
        return EXIT_OK
    agree = direct.verdict is proof.verdict and _witnesses_match(
        direct.type_I, proof.type_I, policy
    ) and _witnesses_match(direct.type_II, proof.type_II, policy)
    _emit(
        {
            "route": "both",
            "direct": classification_to_json(direct, real),
            "proof": classification_to_json(proof, real, trace),
            "agree": agree,
        }
    )
    _note(f"direct={direct.verdict.value} proof={proof.verdict.value} agree={agree}")
    return EXIT_OK if agree else EXIT_VIOLATION


def _cmd_verify_identities(args) -> int:
    spec = _read_spec(args.input)
    policy = _policy_for(spec, args)
    wanted = ["8", "9", "14", "16"] if args.which == "all" else [args.which]
    if args.which == "all" and not spec.is_real:
        wanted = ["8", "9"]
    approx = spec
    if spec.is_exact and {"8", "9"} & set(wanted):
        approx = spec.as_approx()  # the float view identities 8 and 9 sample
    results = {}
    for which in wanted:
        if which == "8":
            rng = random.Random(8)
            pairs = [
                (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                for _ in range(64)
            ]
            sampled = max(abs(identity8_residual(approx, x, y)) for x, y in pairs)
            results["8"] = {
                "holds": identity8_coefficient_check(spec, policy),
                "max_sampled_abs": sampled,
            }
        elif which == "9":
            angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            results["9"] = {
                "max_abs": max(abs(identity9_residual(approx, float(x))) for x in angles)
            }
        elif which == "14":
            if not spec.is_real:
                raise SpecFormatError("identity 14 needs a real spec")
            results["14"] = {"holds": identity14_check(spec, policy)}
        else:
            if not spec.is_real:
                raise SpecFormatError("identity 16 needs a real spec")
            scale = residual_scale(spec)
            f1, f2 = factor_polys(spec)
            results["16"] = {
                "holds": identity16_holds(spec, policy, (f1, f2)),
                "f1_is_zero": is_zero_poly(f1, policy, scale),
                "f2_is_zero": is_zero_poly(f2, policy, scale),
            }
    _emit({"n": spec.n, "which": wanted, "results": results})
    _note(f"identities checked: {', '.join(wanted)}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        spec = generate(
            GenRequest(
                n=args.n,
                kind=_KIND_TOKENS[args.kind],
                witness=args.witness,
                seed=args.seed,
                value_scale=args.scale,
                exact=args.exact,
            )
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    _emit(spec_to_json(spec))
    _note(f"generated {args.kind} spec, n={args.n}, seed={args.seed}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.values == "gauss1":
        values = tuple(
            GaussianRational(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
        )
    else:
        values = tuple(Fraction(v) for v in range(-2, 3))
    req = EnumRequest(
        n=args.n, value_set=values, real_only=args.real, budget=args.budget
    )
    report = enumerate_and_verify(req)
    _emit(enum_report_to_json(report))
    _note(
        f"{report.total} instances: {report.normal} normal, "
        f"{len(report.violations)} violations"
    )
    return EXIT_VIOLATION if report.violations else EXIT_OK


def run_bench(n_list, repeat: int, seed: int = 1) -> list:
    """Median wall times (ms) of the residual scan vs the dense oracle."""
    rows = []
    for n in n_list:
        for kind in (Kind.UNCONSTRAINED, Kind.TYPE_I):
            spec = generate(GenRequest(n=n, kind=kind, seed=seed))
            fast_times = []
            oracle_times = []
            for _ in range(repeat):
                t0 = time.perf_counter()
                fast_max_residual(spec)
                fast_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                commutator_norm(spec)
                oracle_times.append(time.perf_counter() - t0)
            fast_ms = statistics.median(fast_times) * 1e3
            oracle_ms = statistics.median(oracle_times) * 1e3
            rows.append(
                {
                    "n": n,
                    "kind": kind.value,
                    "fast_ms": fast_ms,
                    "oracle_ms": oracle_ms,
                    "ratio": oracle_ms / fast_ms if fast_ms > 0 else float("inf"),
                }
            )
    return rows


def _cmd_bench(args) -> int:
    rows = run_bench(args.n, args.repeat)
    _emit({"repeat": args.repeat, "results": rows})
    for row in rows:
        _note(
            f"n={row['n']} {row['kind']}: fast {row['fast_ms']:.2f} ms, "
            f"oracle {row['oracle_ms']:.2f} ms, ratio {row['ratio']:.1f}"
        )
    return EXIT_OK


def _n_list(text: str):
    if not text.strip():
        return []
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("matrix sizes must be positive")
    return values


def _witness_arg(text: str):
    try:
        return scalar_from_json(json.loads(text))
    except (json.JSONDecodeError, SpecFormatError) as exc:
        raise argparse.ArgumentTypeError(f"bad witness: {exc}")
    except RecursionError:
        raise argparse.ArgumentTypeError("bad witness: nested too deeply")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="toepnorm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="dual-route normality check")
    p.add_argument("input", nargs="?", default="-", help="spec JSON path or - for stdin")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="structure classification")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--route", choices=("direct", "proof", "both"), default="direct")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-identities", help="check the defining identities")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--which", choices=("8", "9", "14", "16", "all"), default="all")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("generate", help="emit a structured spec")
    p.add_argument("--kind", choices=sorted(_KIND_TOKENS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness", type=_witness_arg, default=None, help="scalar JSON")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("enumerate", help="exhaustive grid verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--values", choices=("gauss1", "int2"), required=True)
    p.add_argument("--real", action="store_true")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bench", help="time the residual scan against the oracle")
    p.add_argument("--n", type=_n_list, default=[64, 256])
    p.add_argument("--repeat", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.n < 1:
        parser.error("--n must be at least 1")
    if args.command == "enumerate":
        if args.n < 1:
            parser.error("--n must be at least 1")
        if args.real and args.values == "gauss1":
            parser.error("--real needs a real value set (use --values int2)")
    if args.command == "bench" and args.repeat < 1:
        parser.error("--repeat must be at least 1")
    try:
        return args.func(args)
    except SpecFormatError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except TheoremViolation as exc:
        _emit(
            {
                "error": "theorem-violation",
                "detail": str(exc),
                "deviations": exc.deviations,
            }
        )
        return _fail(str(exc), EXIT_VIOLATION)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)


def run() -> None:
    sys.exit(main())
