"""Command-line interface: verification sweeps and access to every operation.

Subcommands: verify, hermite, closed-form, dilate, shift, normal-order,
nieto-truax, emit.  Series travel as JSON (string-encoded integer
numerators/denominators); text output is canonically ordered and therefore
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .closed_forms import (
    closed_form_HKL,
    closed_form_plan,
    nieto_truax,
    nieto_truax_partial_sum,
)
from .hermite import hermite_egf, hermite_poly
from .normal_ordering import SemiLinearOp, normal_order
from .operators import dilate_bruteforce, shift
from .series import BivarPoly, LambdaSeries
from .verify import VerifyConfig, run_appendix_sweep, run_verification


class UsageError(ValueError):
    pass


def emit_series(kind: str, params: dict, order: int, fmt: str = "json") -> str:
    """Serialize one of the stock series; deterministic for identical inputs."""
    if fmt not in ("json", "text", "plan"):
        raise UsageError(f"unknown format {fmt!r}")
    if kind == "egf":
        series = hermite_egf(order)
    elif kind == "hk0":
        series = closed_form_HKL(params["K"], 0, order)
    elif kind == "hkl":
        series = closed_form_HKL(params["K"], params.get("L", 0), order)
    elif kind == "dilated":
        K = params["K"]
        series = dilate_bruteforce(hermite_egf(order * K), K)
    elif kind == "shifted":
        L = params.get("L", 0)
        series = shift(hermite_egf(order + L), L)
    else:
        raise UsageError(f"unknown series kind {kind!r}")
    if fmt == "plan":
        if kind not in ("hk0", "hkl"):
            raise UsageError("plan format applies to closed forms only")
        return json.dumps(closed_form_plan(params["K"]).to_json(), indent=2)
    if fmt == "text":
        return str(series)
    return json.dumps(series.to_json(), indent=2)


def _read_series(path: str | None) -> LambdaSeries:
    if path is None or path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    try:
        return LambdaSeries.from_json(data)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed series JSON: {exc!r}") from None


def _parse_poly(text: str) -> BivarPoly:
    return BivarPoly.from_json(json.loads(text))


def _print(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lacunary",
        description="Exact lacunary generating functions of two-variable "
                    "Hermite polynomials",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="closed-form vs oracle sweep")
    v.add_argument("--kmin", type=int)
    v.add_argument("--kmax", type=int)
    v.add_argument("--lmin", type=int, default=0)
    v.add_argument("--lmax", type=int, default=0)
    v.add_argument("--nmax", type=int, default=6)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")

    h = sub.add_parser("hermite", help="print H_n(x, y)")
    h.add_argument("n", type=int)
    h.add_argument("--format", choices=("json", "text"), default="text")
    h.add_argument("--out")

    c = sub.add_parser("closed-form", help="K-tuple L-shifted closed form")
    c.add_argument("K", type=int)
    c.add_argument("L", type=int, nargs="?", default=0)
    c.add_argument("--order", type=int, default=4)
    c.add_argument("--format", choices=("json", "text", "plan"), default="text")
    c.add_argument("--out")

    d = sub.add_parser("dilate", help="K-fold dilatation of a JSON series")
    d.add_argument("K", type=int)
    d.add_argument("--in", dest="infile", default="-")
    d.add_argument("--out")

    s = sub.add_parser("shift", help="L-fold lambda-derivative of a JSON series")
    s.add_argument("L", type=int)
    s.add_argument("--in", dest="infile", default="-")
    s.add_argument("--out")

    no = sub.add_parser("normal-order", help="solve the (T, g) IVP")
    no.add_argument("--q", required=True, help="JSON term list for q(x)")
    no.add_argument("--v", required=True, help="JSON term list for v(x)")
    no.add_argument("--order", type=int, default=6)
    no.add_argument("--out")

    nt = sub.add_parser("nieto-truax", help="roots-of-unity numeric evaluation")
    nt.add_argument("K", type=int)
    nt.add_argument("L", type=int)
    nt.add_argument("--lambda", dest="lam", default="1/10")
    nt.add_argument("--x", default="1")
    nt.add_argument("--y", default="1/2")
    nt.add_argument("--bits", type=int, default=256)
    nt.add_argument("--terms", type=int, default=30)
    nt.add_argument("--out")

    e = sub.add_parser("emit", help="serialize a stock series")
    e.add_argument("kind", choices=("egf", "hk0", "hkl", "dilated", "shifted"))
    e.add_argument("--K", type=int, default=2)
    e.add_argument("--L", type=int, default=0)
    e.add_argument("--order", type=int, default=4)
    e.add_argument("--format", choices=("json", "text", "plan"), default="json")
    e.add_argument("--out")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "verify":
        if args.kmin is None and args.kmax is None:
            report = run_appendix_sweep(output_path=args.out)
        else:
            k_min = 2 if args.kmin is None else args.kmin
            cfg = VerifyConfig(
                k_min=k_min,
                k_max=k_min if args.kmax is None else args.kmax,
                l_min=args.lmin,
                l_max=args.lmax,
                n_max=args.nmax,
                seed=args.seed,
                output_path=args.out,
            )
            report = run_verification(cfg)
        for case in report.cases:
            if not case.passed:
                print(f"FAIL {case.to_json()}")
        print(
            f"{report.passed} passed, {report.failed} failed "
            f"({report.elapsed_ms:.0f} ms)"
        )
        return 0 if report.failed == 0 else 1

    if args.command == "hermite":
        poly = hermite_poly(args.n)
        text = json.dumps(poly.to_json(), indent=2) if args.format == "json" else str(poly)
        _print(args, text)
        return 0

    if args.command == "closed-form":
        _print(args, emit_series("hkl", {"K": args.K, "L": args.L},
                                 args.order, args.format))
        return 0

    if args.command == "dilate":
        series = dilate_bruteforce(_read_series(args.infile), args.K)
        _print(args, json.dumps(series.to_json(), indent=2))
        return 0

    if args.command == "shift":
        series = shift(_read_series(args.infile), args.L)
        _print(args, json.dumps(series.to_json(), indent=2))
        return 0

    if args.command == "normal-order":
        op = SemiLinearOp(q=_parse_poly(args.q), v=_parse_poly(args.v))
        result = normal_order(op, args.order)
        _print(args, json.dumps(
            {
                "order": result.order,
                "T": result.T_series.to_json(),
                "g": result.g_series.to_json(),
            },
            indent=2,
        ))
        return 0

    if args.command == "nieto-truax":
        lam, x, y = Fraction(args.lam), Fraction(args.x), Fraction(args.y)
        value = nieto_truax(args.K, args.L, lam, x, y, precision_bits=args.bits)
        oracle = nieto_truax_partial_sum(args.K, args.L, lam, x, y, args.terms)
        _print(args, json.dumps(
            {
                "real": mpf_str(value.real),
                "imag": mpf_str(value.imag),
                "partial_sum": f"{oracle.numerator}/{oracle.denominator}",
            },
            indent=2,
        ))
        return 0

    if args.command == "emit":
        _print(args, emit_series(args.kind, {"K": args.K, "L": args.L},
                                 args.order, args.format))
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def mpf_str(v) -> str:
    import mpmath

    return mpmath.nstr(v, 40)


if __name__ == "__main__":
    sys.exit(main())
