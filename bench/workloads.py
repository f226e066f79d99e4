"""The three workloads: one round of seeded jobs each, with their checks.

A job is one call into ``lacunary`` (or one ``lacunary`` process) whose
output is checked against ``oracles`` after the timer stops.  The sizes
below were chosen once, on the 2-core machine the README describes, so
that the jobs of a workload cost about alike (20-50 ms of computation);
they are fixed so that a faster commit runs the same jobs, not bigger ones.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

import oracles

# closed_form_HKL(K, L, n): (K, L) -> n
HKL_ORDER = {
    (2, 0): 25, (2, 1): 23, (2, 2): 21,
    (3, 0): 14, (3, 1): 14, (3, 2): 12, (3, 3): 11,
    (4, 0): 12, (4, 1): 12, (4, 2): 11, (4, 3): 10, (4, 4): 10,
    (5, 0): 9, (5, 1): 8, (5, 2): 8, (5, 3): 7, (5, 4): 7, (5, 5): 7,
    (6, 0): 9, (6, 1): 9, (6, 2): 9, (6, 3): 9, (6, 4): 8, (6, 5): 7, (6, 6): 7,
    (7, 0): 8, (7, 1): 7, (7, 2): 7, (7, 3): 7, (7, 4): 7, (7, 5): 7, (7, 6): 7, (7, 7): 6,
    (8, 0): 8, (8, 1): 7, (8, 2): 7, (8, 3): 7, (8, 4): 6, (8, 5): 6, (8, 6): 6,
    (8, 7): 6, (8, 8): 6,
}
# rk_series(K, mu_order, n): (K, mu_order) -> n
RK_ORDER = {
    (2, 1): 20, (2, 2): 16, (2, 3): 14, (3, 1): 13, (3, 2): 11, (3, 3): 10,
    (4, 1): 11, (4, 2): 9, (4, 3): 8, (5, 1): 6, (5, 2): 6, (5, 3): 5,
    (6, 1): 6, (6, 2): 6, (6, 3): 5, (7, 1): 7, (7, 2): 6, (7, 3): 4,
    (8, 1): 5, (8, 2): 6, (8, 3): 5,
}
# K -> order of resum_lemma1 / resum_corollary1 on the Hermite table
LEMMA1_ORDER = {2: 40, 3: 35, 4: 31, 5: 27, 6: 25, 7: 24, 8: 22}
COR1_ORDER = {2: 46, 3: 38, 4: 34, 5: 28, 6: 27, 7: 24, 8: 24}
# K -> order of resum_lemma1 / resum_corollary1 on a dense seeded table
DENSE_ORDER = {2: 31, 3: 26, 4: 23, 5: 20, 6: 19, 7: 17, 8: 15}
# K -> output order of dilate_bruteforce(hermite_egf(K * n), K)
DILATE_ORDER = {2: 42, 3: 30, 4: 26, 5: 21, 6: 18, 7: 15, 8: 14}
# the `lacunary verify` range (kmin, kmax, lmax, nmax) of cli_cold: about half the default sweep
VERIFY_RANGE = (2, 4, 1, 10)
# (function, operator family) -> order of normal_order / apply_exp_op
FLOW_ORDER = {
    ("normal_order", "translate"): 70, ("normal_order", "quadratic"): 21,
    ("normal_order", "multiply"): 17,
    ("apply_exp_op", "translate"): 40, ("apply_exp_op", "quadratic"): 14,
    ("apply_exp_op", "multiply"): 10,
}


class CheckError(Exception):
    """A job's output disagreed with its reference."""


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(got, want: list[dict], what: str):
    """Compare a series with a reference list of {(xp, yp): value} dicts.

    ``got`` is a LambdaSeries, or the coefficients of one read back from JSON.
    """
    if not isinstance(got, list):
        got = [c.terms for c in got.coeffs]
    if len(got) != len(want):
        raise CheckError(f"{what}: {len(got)} coefficients, expected {len(want)}")
    for p, (c, w) in enumerate(zip(got, want)):
        if c != w:
            raise CheckError(f"{what}: coefficient of lambda^{p} differs")


def _rational(rng: random.Random, top: int = 5) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 4))


# -- closed_form ----------------------------------------------------------------


def closed_form_round(seed: int, lac) -> list[Job]:
    """closed_form_HKL on every (K, L) of its grid and rk_series on every
    (K, mu_order) of its grid, in seeded order.

    The seed sets only the order: the grids are small and each point has
    its own size, so drawing points would make seeds differ in cost.
    """
    rng = random.Random(f"closed_form:{seed}")
    jobs = []
    for (K, L), n in sorted(HKL_ORDER.items()):
        want = oracles.hermite_series([p * K + L for p in range(n + 1)])
        jobs.append(Job(f"closed_form_HKL({K},{L},{n})",
                        lambda K=K, L=L, n=n: lac.closed_form_HKL(K, L, n),
                        lambda out, want=want: expect(out, want, "closed_form_HKL")))
    for (K, mu), n in sorted(RK_ORDER.items()):
        # L! [mu^L] is the L-shifted generating function: [mu^L lambda^p] = H_(pK+L) / (p! L!)
        want = [[oracles.poly_scale(c, Fraction(1, factorial(L))) for c in
                 oracles.hermite_series([p * K + L for p in range(n + 1)])]
                for L in range(mu + 1)]
        jobs.append(Job(f"rk_series({K},{mu},{n})",
                        lambda K=K, mu=mu, n=n: lac.rk_series(K, mu, n),
                        lambda out, want=want: _check_rk(out, want)))
    rng.shuffle(jobs)
    return jobs


def _check_rk(out, want):
    if len(out.mu_coeffs) != len(want):
        raise CheckError("rk_series: wrong mu order")
    for L, (got, w) in enumerate(zip(out.mu_coeffs, want)):
        expect(got, w, f"rk_series mu^{L}")


# -- series_algebra ------------------------------------------------------------


def dense_table(seed: int, max_index: int, lac):
    """A full-support coefficient table with seeded rational entries.

    Returns (CoeffTable, entries) where entries maps (r, m) with
    r + m <= max_index to {y_power: value}, the oracle's copy.
    """
    rng = random.Random(f"dense:{seed}")
    entries, polys = {}, {}
    for total in range(max_index + 1):
        for r in range(total + 1):
            g = {0: _rational(rng, 9), 1: _rational(rng, 9)}
            entries[r, total - r] = g
            polys[r, total - r] = lac.BivarPoly({(0, yp): c for yp, c in g.items()})
    return lac.CoeffTable(generator=lambda r, m: polys[r, m], name=f"dense{seed}"), entries


def _operator(rng: random.Random, family: str):
    """(q, v, f) as oracle dicts for one of the three known flows.

    The seed draws the coefficients; the monomials are fixed, so that every
    seed costs about the same.
    """
    f = {(5, 1): _rational(rng), (3, 0): _rational(rng), (1, 1): _rational(rng)}
    if family == "translate":       # q free of x: T = x + q mu
        return {(0, 1): _rational(rng)}, {(0, 1): _rational(rng)}, f
    if family == "quadratic":       # q = b x^2: T = x / (1 - b mu x)
        return {(2, 1): _rational(rng)}, {(0, 1): _rational(rng)}, f
    return {}, {(2, 0): _rational(rng), (1, 1): _rational(rng), (0, 1): _rational(rng)}, f


def _flow(family: str, q: dict, v: dict, f: dict, order: int):
    """Reference (T, g, exp(mu D) f) for D = q d/dx + v.

    For the translate and quadratic families v is free of x, so it commutes
    with q d/dx and exp(mu D) f = exp(mu v) * f(T).
    """
    g = oracles.flow_exp(v, {(0, 0): 1}, order)
    if family == "translate":
        return (oracles.flow_translate_T(q, order), g,
                oracles.series_mul(g, oracles.flow_translate(q, f, order)))
    if family == "quadratic":
        b = {(0, yp): c for (_, yp), c in q.items()}
        return (oracles.flow_quadratic_T(b, order), g,
                oracles.series_mul(g, oracles.flow_quadratic(b, f, order)))
    return [{(1, 0): 1}] + [{} for _ in range(order)], g, oracles.flow_exp(v, f, order)


def series_algebra_round(seed: int, lac) -> list[Job]:
    """For every K: resummation on the Hermite and on a seeded dense table
    (lemma 1 and its parity split), and dilatation then a seeded shift; for
    each operator family, two seeded operators through normal ordering and
    two through the operator exponential.  In seeded order."""
    rng = random.Random(f"series_algebra:{seed}")
    hermite = lac.hermite_coeff_table()
    table, entries = dense_table(seed, max(K * (n + 1) for K, n in DENSE_ORDER.items()), lac)
    jobs = []
    for K in range(2, 9):
        n = LEMMA1_ORDER[K]
        want = oracles.hermite_series([p * K for p in range(n + 1)])
        jobs.append(Job(f"resum_lemma1(hermite,{K},{n})",
                        lambda K=K, n=n: lac.resum_lemma1(hermite, K, n),
                        lambda out, want=want: expect(out, want, "resum_lemma1")))
        n = COR1_ORDER[K]
        want = (oracles.hermite_series([p * K for p in range(n + 1)]), [{}] * (n + 1))
        jobs.append(Job(f"resum_corollary1(hermite,{K},{n})",
                        lambda K=K, n=n: lac.resum_corollary1(hermite, K, n),
                        lambda out, want=want: _check_pair(out, want, "resum_corollary1")))
        n = DENSE_ORDER[K]
        want = oracles.dilate_direct(entries, K, n)
        jobs.append(Job(f"resum_lemma1(dense,{K},{n})",
                        lambda K=K, n=n: lac.resum_lemma1(table, K, n),
                        lambda out, want=want: expect(out, want, "resum_lemma1 dense")))
        want = (oracles.dilate_direct(entries, K, n, 0), oracles.dilate_direct(entries, K, n, 1))
        jobs.append(Job(f"resum_corollary1(dense,{K},{n})",
                        lambda K=K, n=n: lac.resum_corollary1(table, K, n),
                        lambda out, want=want: _check_pair(out, want, "resum_corollary1 dense")))
        n, L = DILATE_ORDER[K], rng.randint(0, 3)
        want = (oracles.hermite_series([p * K for p in range(n + 1)]),
                oracles.hermite_series([(p + L) * K for p in range(n - L + 1)]))
        jobs.append(Job(f"dilate_shift({K},{n},{L})",
                        lambda K=K, n=n, L=L: _dilate_shift(lac, K, n, L),
                        lambda out, want=want: _check_pair(out, want, "dilate_bruteforce/shift")))
    for (kind, family), n in sorted(FLOW_ORDER.items()):
        for _ in range(2):
            q, v, f = _operator(rng, family)
            T, g, applied = _flow(family, q, v, f, n)
            op = lac.SemiLinearOp(q=lac.BivarPoly(q), v=lac.BivarPoly(v))
            if kind == "normal_order":
                jobs.append(Job(f"normal_order({family},{n})",
                                lambda op=op, n=n: lac.normal_order(op, n),
                                lambda out, want=(T, g): _check_pair(
                                    (out.T_series, out.g_series), want, "normal_order")))
            else:
                fp = lac.BivarPoly(f)
                jobs.append(Job(f"apply_exp_op({family},{n})",
                                lambda op=op, n=n, fp=fp: lac.apply_exp_op(op, n, fp),
                                lambda out, want=applied: expect(out, want, "apply_exp_op")))
    rng.shuffle(jobs)
    return jobs


def _dilate_shift(lac, K: int, n: int, L: int):
    dilated = lac.dilate_bruteforce(lac.hermite_egf(K * n), K)
    return dilated, lac.shift(dilated, L)


def _check_pair(out, want, what: str):
    for i, (got, w) in enumerate(zip(out, want)):
        expect(got, w, f"{what}[{i}]")


# -- cli_cold ---------------------------------------------------------------------


@dataclass
class CliOutput:
    stdout: str
    file_text: str | None


class Cli:
    """Runs ``python -m lacunary.cli`` as a fresh process, one at a time.

    With ``tracer`` set, the process runs under ``trace_child.py`` instead
    and its spans are adopted under the tracer's open span.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.tracer = None

    def run(self, args: list[str], out_name: str | None = None) -> CliOutput:
        out_path = self.workdir / out_name if out_name else None
        if out_path is not None:
            args = args + ["--out", str(out_path)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lacunary.cli", *args]
        else:
            spans = self.workdir / "spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("trace_child.py")),
                   str(spans), *args]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        if self.tracer is not None:
            with open(spans) as fh:
                self.tracer.adopt(json.load(fh))
        if proc.returncode != 0:
            raise RuntimeError(f"lacunary {' '.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        text = out_path.read_text() if out_path is not None else None
        return CliOutput(proc.stdout, text)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


VERIFY_LINE = re.compile(r"^(\d+) passed, (\d+) failed \(\d+ ms\)$")


def _check_verify(out: CliOutput, cases: int):
    m = VERIFY_LINE.match(out.stdout.strip().splitlines()[-1])
    if m is None or (int(m[1]), int(m[2])) != (cases, 0):
        raise CheckError(f"verify: expected '{cases} passed, 0 failed', got {out.stdout!r}")


def parse_poly_text(text: str) -> dict:
    """Read the text form `c * x^a * y^b + ...` that `lacunary hermite` prints."""
    out = {}
    for term in text.strip().split(" + "):
        c, *factors = term.split(" * ")
        xp = yp = 0
        for fac in factors:
            var, _, exp = fac.partition("^")
            power = int(exp) if exp else 1
            if var == "x":
                xp = power
            else:
                yp = power
        out[xp, yp] = Fraction(c)
    return out


def _series_terms(text: str) -> list[dict]:
    """The coefficients of a series in the CLI's JSON form."""
    data = json.loads(text)
    coeffs = [{(t["xp"], t["yp"]): Fraction(int(t["num"]), int(t["den"])) for t in c}
              for c in data["coeffs"]]
    if data["order"] != len(coeffs) - 1:
        raise CheckError("series JSON: order does not match its coefficients")
    return coeffs


def _check_hermite_text(out: CliOutput, n: int):
    if parse_poly_text(out.stdout) != oracles.hermite(n):
        raise CheckError(f"hermite {n}: output differs from H_{n}")


def cli_round(seed: int, cli: Cli) -> list[Job]:
    """Ten processes: the default verify sweep twice, verify on a fixed
    range, two closed forms, two Hermite polynomials, and emit egf ->
    dilate -> shift chained through files.  The seed picks the (K, L) and n
    of the others, which cost about the same whatever it picks.  The chain
    keeps its order; the rest is shuffled.

    The default sweep is the dearest job.  Run twice in ten, it holds the
    top fifth of job times, so p90 falls inside it and not on the edge
    between it and the next kind; the fixed range costs about half of it.
    """
    rng = random.Random(f"cli_cold:{seed}")
    # the default sweep: K = 3 and 4 to n = 16, K = 5 to n = 15, each with 3 resummation cases
    jobs = [Job("verify", lambda: cli.run(["verify"]),
                lambda out: _check_verify(out, (17 + 3) + (17 + 3) + (16 + 3)))] * 2
    kmin, kmax, lmax, nmax = VERIFY_RANGE
    cases = (kmax - kmin + 1) * ((lmax + 1) * (nmax + 1) + 3)
    jobs.append(Job(f"verify {kmin}..{kmax}",
                    lambda: cli.run(["verify", "--kmin", str(kmin), "--kmax", str(kmax),
                                     "--lmin", "0", "--lmax", str(lmax), "--nmax", str(nmax)]),
                    lambda out: _check_verify(out, cases)))
    for K, L in rng.sample(sorted(HKL_ORDER), 2):
        n = HKL_ORDER[K, L]
        want = oracles.hermite_series([p * K + L for p in range(n + 1)])
        jobs.append(Job(f"closed-form {K} {L}",
                        lambda K=K, L=L, n=n: cli.run(["closed-form", str(K), str(L), "--order",
                                                       str(n), "--format", "json"]),
                        lambda out, want=want: expect(_series_terms(out.stdout), want, "closed-form")))
    for n in rng.sample(range(30, 61), 2):
        jobs.append(Job(f"hermite {n}", lambda n=n: cli.run(["hermite", str(n)]),
                        lambda out, n=n: _check_hermite_text(out, n)))
    rng.shuffle(jobs)
    K, L = rng.randint(2, 6), rng.randint(0, 3)
    m = rng.randint(8, 12)
    jobs.append(Job(f"emit egf {K * m}",
                    lambda: cli.run(["emit", "egf", "--order", str(K * m)], "egf.json"),
                    lambda out: expect(_series_terms(out.file_text),
                                       oracles.hermite_series(range(K * m + 1)), "emit egf")))
    jobs.append(Job(f"dilate {K}",
                    lambda: cli.run(["dilate", str(K), "--in", str(cli.workdir / "egf.json")],
                                    "dilated.json"),
                    lambda out: expect(_series_terms(out.file_text),
                                       oracles.hermite_series([p * K for p in range(m + 1)]),
                                       "dilate")))
    jobs.append(Job(f"shift {L}",
                    lambda: cli.run(["shift", str(L), "--in", str(cli.workdir / "dilated.json")],
                                    "shifted.json"),
                    lambda out: expect(_series_terms(out.file_text),
                                       oracles.hermite_series([(p + L) * K
                                                               for p in range(m - L + 1)]),
                                       "shift")))
    return jobs
