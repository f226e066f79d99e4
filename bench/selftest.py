"""Self-test of the benchmark: its checks must catch wrong answers.

    python3 bench/selftest.py

Runs one round of each workload with a tiny run size, shows that every
check accepts the real output and rejects the same output with one
perturbed coefficient, that a job which raises counts as failed, that the
oracles agree with each other (and with sympy when it is installed), and
that the benchmark refuses to run without the package.  It lives outside
``tests/`` so the package's own test run does not pick it up.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from math import factorial
from pathlib import Path

import oracles
import run
import workloads
from tracer import Tracer
from workloads import CheckError, Cli, CliOutput, Job

sys.path.insert(0, str(run.ROOT / "src"))
import lacunary  # noqa: E402

SEED = 7


def perturb_series(s):
    """The same series with one coefficient changed by adding 1 to one term."""
    coeffs = list(s.coeffs)
    p = max((i for i, c in enumerate(coeffs) if not c.is_zero()), default=0)
    (xp, yp) = next(iter(coeffs[p].terms), (0, 0))
    coeffs[p] = coeffs[p] + lacunary.BivarPoly.monomial(1, xp, yp)
    return lacunary.LambdaSeries(s.order, coeffs)


def perturb_json(text: str) -> str:
    data = json.loads(text)
    term = [c for c in data["coeffs"] if c][-1][-1]
    term["num"] = str(int(term["num"]) + int(term["den"]))
    return json.dumps(data)


def perturb(out):
    if isinstance(out, lacunary.LambdaSeries):
        return perturb_series(out)
    if isinstance(out, tuple):
        return out[:-1] + (perturb_series(out[-1]),)
    if isinstance(out, lacunary.RkSeries):
        return dataclasses.replace(out, mu_coeffs=out.mu_coeffs[:-1] + (perturb_series(out.mu_coeffs[-1]),))
    if isinstance(out, lacunary.NormalOrderResult):
        return dataclasses.replace(out, g_series=perturb_series(out.g_series))
    if isinstance(out, CliOutput):
        if out.file_text is not None:
            return CliOutput(out.stdout, perturb_json(out.file_text))
        if out.stdout.lstrip().startswith("{"):
            return CliOutput(perturb_json(out.stdout), None)
        if "passed" in out.stdout:
            return CliOutput(re.sub(r"(\d+) passed, 0 failed",
                                    lambda m: f"{int(m[1]) - 1} passed, 1 failed", out.stdout), None)
        return CliOutput(re.sub(r"^\d+", lambda m: str(int(m[0]) + 1), out.stdout), None)
    raise TypeError(f"no perturbation for {type(out).__name__}")


class ChecksRejectPerturbedOutputs(unittest.TestCase):
    def assert_checks(self, jobs):
        for job in jobs:
            with self.subTest(job=job.kind):
                out = job.run()
                job.check(out)
                with self.assertRaises(CheckError):
                    job.check(perturb(out))

    def test_closed_form(self):
        self.assert_checks(workloads.closed_form_round(SEED, lacunary))

    def test_series_algebra(self):
        self.assert_checks(workloads.series_algebra_round(SEED, lacunary))

    def test_cli_cold(self):
        run.RESULTS.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.RESULTS)
        try:
            self.assert_checks(workloads.cli_round(SEED, Cli(run.ROOT, Path(workdir))))
        finally:
            shutil.rmtree(workdir)


class Counting(unittest.TestCase):
    def test_job_that_raises_is_failed_not_done(self):
        good = workloads.closed_form_round(SEED, lacunary)[0]
        bad = Job("closed_form_HKL(2,-1,3)", lambda: lacunary.closed_form_HKL(2, -1, 3), good.check)
        runner = run.Runner([good, bad])
        runner.round()
        self.assertEqual((runner.attempted, runner.failed, len(runner.times)), (2, 1, 1))
        self.assertTrue(run.result(runner, {})["correct"])

    def test_wrong_output_makes_the_run_incorrect(self):
        good = workloads.closed_form_round(SEED, lacunary)[0]
        runner = run.Runner([Job("perturbed", lambda: perturb(good.run()), good.check)])
        runner.round()
        self.assertEqual((runner.attempted, runner.failed), (1, 0))
        self.assertFalse(run.result(runner, {})["correct"])


class Oracles(unittest.TestCase):
    def test_dilatation_oracle_agrees_with_hermite_oracle(self):
        # g_{r,m}(y) of the Hermite EGF: (r+m)! y^(m/2) / (r! (m/2)!) for even m
        entries = {(r, m): {m // 2: Fraction(factorial(r + m), factorial(r) * factorial(m // 2))}
                   for r in range(40) for m in range(0, 40, 2)}
        for K in range(2, 6):
            self.assertEqual(oracles.dilate_direct(entries, K, 6),
                             oracles.hermite_series([p * K for p in range(7)]))
            self.assertEqual(oracles.dilate_direct(entries, K, 6, parity=1), [{}] * 7)

    def test_hermite_oracle_matches_sympy(self):
        try:
            bad = oracles.sympy_hermite_mismatches(40)
        except ImportError:
            self.skipTest("sympy is not installed")
        self.assertEqual(bad, [])


class Tracing(unittest.TestCase):
    def test_spans_nest_and_wrappers_come_off(self):
        original = lacunary.closed_form_HKL
        tracer = Tracer()
        runner = run.Runner(workloads.closed_form_round(SEED, lacunary)[:3], tracer)
        tracer.install()
        try:
            runner.round()
        finally:
            tracer.uninstall()
        self.assertIs(lacunary.closed_form_HKL, original)
        totals = tracer.totals()
        self.assertGreater(totals["hypergeom.pochhammer"]["calls"], 0)
        self.assertEqual(sum(v["calls"] for k, v in totals.items() if k.startswith("job.")), 3)
        # self times partition the job spans
        jobs = sum(v["ms"] for k, v in totals.items() if k.startswith("job."))
        self.assertAlmostEqual(sum(v["self_ms"] for v in totals.values()), jobs, places=6)


class Refusal(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        run.RESULTS.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=run.RESULTS))
        try:
            shutil.copytree(run.BENCH, tmp / run.BENCH.name,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                                   "closed_form", "--seed", "1", "--seconds", "1"],
                                  cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
