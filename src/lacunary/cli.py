"""Command-line interface: verification sweeps and access to every operation.

Subcommands: verify, hermite, closed-form, dilate, shift, normal-order, emit.
Series travel as JSON (string-encoded integer numerators/denominators); text
output is canonically ordered and therefore byte-deterministic for identical
inputs.  Each handler imports what it calls, so a command loads only the
modules of the package that it runs, and json only when it reads or writes JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .hermite import check_cap


INT_STR_DIGITS = 4300  # Python's default limit on int-to-str conversion


def _open(path: str, mode: str = "r"):
    """open(path, mode), with a path that cannot be opened reported as a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}") from None


def _parse(what: str, parse, text: str):
    """parse(text), with malformed input, or a number past Python's limit on
    str-to-int conversion, reported as a usage error that names the input."""
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        if str(exc).startswith("Exceeds the limit"):
            raise ValueError(f"a number in {what} is past {INT_STR_DIGITS} digits, Python's "
                             "limit on str-to-int conversion; shorten it") from None
        raise ValueError(f"malformed {what}: {exc!r}") from None


def _at_least_0(flag: str, value: int) -> int:
    """value, or a usage error that names flag if value is negative."""
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


def _render(obj, fmt: str = "json") -> str:
    """obj's text form for --format text, else its JSON, indented."""
    if fmt == "text":
        return str(obj)
    import json
    return json.dumps(obj.to_json(), indent=2)


def _text(run, args, lower: str) -> str:
    """run(args), with an output past Python's int-to-str limit reported by what to lower."""
    try:
        return run(args)
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):
            raise
    raise ValueError(f"the output has a number past {INT_STR_DIGITS} digits, Python's limit "
                     f"on int-to-str conversion; lower {lower}")


def _write(out: str | None, text: str) -> int:
    """Print text to the file out, or to stdout if out is unset; exit status 0."""
    with _open(out, "w") if out else nullcontext(sys.stdout) as fh:
        print(text, file=fh)
    return 0


def _read_series(path: str):
    """The series JSON at path ("-" is stdin), capped by its order."""
    import json
    from .series import LambdaSeries
    with nullcontext(sys.stdin) if path == "-" else _open(path) as fh:
        text = fh.read()
    series = _parse("series JSON", lambda t: LambdaSeries.from_json(json.loads(t)), text)
    check_cap(series.order)
    return series


def run_verify(args) -> int:
    """Print the sweep's summary and return its exit status; --out names the report."""
    from .verify import run_verification
    if args.kmin is None and args.kmax is None:
        given = [f for f in ("lmin", "lmax", "nmax", "seed") if getattr(args, f) is not None]
        if given:
            flags = ", ".join("--" + f for f in given)
            raise ValueError(f"the default sweep takes no {flags}; give --kmin or --kmax")
        # the default sweep: K = 3 and 4 to n = 16, K = 5 to n = 15, all at L = 0
        report = run_verification({3: 16, 4: 16, 5: 15})
    else:
        k_min = 2 if args.kmin is None else args.kmin
        k_max = k_min if args.kmax is None else args.kmax
        if k_max < k_min:
            raise ValueError(f"--kmax {k_max} is below --kmin {k_min}: the K range is empty")
        for flag, K in (("--kmin", k_min), ("--kmax", k_max)):
            if not 1 <= K <= 12:
                raise ValueError(f"{flag} must lie within 1..12, got {K}")
        l_min = _at_least_0("--lmin", 0 if args.lmin is None else args.lmin)
        l_max = l_min if args.lmax is None else args.lmax
        if l_max < l_min:
            raise ValueError(f"--lmax {l_max} is below --lmin {l_min}: the L range is empty")
        n_max = _at_least_0("--nmax", 6 if args.nmax is None else args.nmax)
        report = run_verification({K: n_max for K in range(k_min, k_max + 1)},
                                  l_min=l_min, l_max=l_max, seed=args.seed or 0)
    if args.out:
        import json
        with _open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    for case in report["cases"]:
        if not case["pass"]:
            print(f"FAIL {case}")
    print(f"{report['passed']} passed, {report['failed']} failed ({report['elapsed_ms']:.0f} ms)")
    return 0 if report["failed"] == 0 else 1


def run_hermite(args) -> str:
    from .hermite import hermite_poly
    check_cap(args.n)
    return _render(hermite_poly(args.n), args.format)


def run_closed_form(args) -> str:
    from .closed_forms import closed_form_HKL, closed_form_plan
    if args.format == "plan":
        if args.L is not None or args.order is not None:
            raise ValueError("--format plan takes no L or --order: the plan depends on K alone")
        check_cap(args.K)
        return _render(closed_form_plan(args.K))
    L = args.L or 0
    order = _at_least_0("--order", 4 if args.order is None else args.order)
    check_cap(max(args.K, args.K * order) + L)
    return _render(closed_form_HKL(args.K, L, order), args.format)


def run_emit(args) -> str:
    from .hermite import hermite_egf
    check_cap(_at_least_0("--order", args.order))
    return _render(hermite_egf(args.order), args.format)


def run_dilate(args) -> str:
    from .operators import dilate_bruteforce
    return _render(dilate_bruteforce(_read_series(args.infile), args.K))


def run_shift(args) -> str:
    from .operators import shift
    return _render(shift(_read_series(args.infile), args.L))


def run_normal_order(args) -> str:
    import json
    from .normal_ordering import SemiLinearOp, normal_order
    from .series import BivarPoly
    q, v = (_parse(f"--{name}", lambda t: BivarPoly.from_json(json.loads(t)), text)
            for name, text in (("q", args.q), ("v", args.v)))
    check_cap(_at_least_0("--order", args.order) * max(1, q.degree_x(), v.degree_x()))
    result = normal_order(SemiLinearOp(q=q, v=v), args.order)
    return json.dumps({"order": result.T_series.order, "T": result.T_series.to_json(),
                       "g": result.g_series.to_json()}, indent=2)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lacunary",
        description="Exact lacunary generating functions of two-variable "
                    "Hermite polynomials",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, lower: str) -> argparse.ArgumentParser:
        c = sub.add_parser(name, help=help)
        c.add_argument("--out")
        c.set_defaults(run=lambda args: _write(args.out, _text(run, args, lower)))
        return c

    v = sub.add_parser("verify", help="closed-form vs oracle sweep")
    v.add_argument("--out", help="write the JSON report here")
    v.set_defaults(run=run_verify)
    v.add_argument("--kmin", type=int)
    v.add_argument("--kmax", type=int)
    # unset unless given, so that the default sweep can reject them
    v.add_argument("--lmin", type=int, help="with a K range; default 0")
    v.add_argument("--lmax", type=int, help="with a K range; default --lmin")
    v.add_argument("--nmax", type=int, help="with a K range; default 6")
    v.add_argument("--seed", type=int, help="with a K range; default 0")

    h = command("hermite", run_hermite, "print H_n(x, y)", "n")
    h.add_argument("n", type=int)
    h.add_argument("--format", choices=("json", "text"), default="text")

    c = command("closed-form", run_closed_form, "K-tuple L-shifted closed form", "--order or L")
    c.add_argument("K", type=int)
    # unset unless given, so that --format plan can reject them
    c.add_argument("L", type=int, nargs="?", help="default 0; not with --format plan")
    c.add_argument("--order", type=int, help="default 4; not with --format plan")
    c.add_argument("--format", choices=("json", "text", "plan"), default="text")

    d = command("dilate", run_dilate, "K-fold dilatation of a JSON series",
                "the input's order or numbers")
    d.add_argument("K", type=int)
    d.add_argument("--in", dest="infile", default="-")

    s = command("shift", run_shift, "L-fold lambda-derivative of a JSON series",
                "L or the input's numbers")
    s.add_argument("L", type=int)
    s.add_argument("--in", dest="infile", default="-")

    no = command("normal-order", run_normal_order, "solve the (T, g) IVP",
                 "--order or the numbers of --q and --v")
    no.add_argument("--q", required=True, help="JSON term list for q(x)")
    no.add_argument("--v", required=True, help="JSON term list for v(x)")
    no.add_argument("--order", type=int, default=6)

    e = command("emit", run_emit, "serialize the Hermite EGF", "--order")
    e.add_argument("kind", choices=("egf",))
    e.add_argument("--order", type=int, default=4)
    e.add_argument("--format", choices=("json", "text"), default="json")

    return p


def main(argv=None) -> int:
    """Run one subcommand and return its exit status; bad input exits 2, and a
    reader that closes stdout early exits 141 (128 + SIGPIPE) without a traceback."""
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the flush at interpreter exit would fail again: let it write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
