"""Benchmark of the lacunary engine: one command, three workloads.

    python3 bench/run.py --workload closed_form|series_algebra|cli_cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  A
single client runs one job at a time in a closed loop, in whole rounds of
the seeded jobs of ``workloads.py``, until S seconds have passed and at
least MIN_JOBS jobs have run.  Every output is checked against ``oracles``
after its timer stops.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from wrapped
calls with ``--trace 1``.  Both also go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer
from workloads import CheckError, Cli, child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# p90 needs at least ten samples beyond it
MIN_JOBS = 100
# fresh starts per run for setup_s, spread over the run
SETUP_PROBES = 15
# a run stops starting rounds after this many seconds, whatever MIN_JOBS says
HARD_STOP_S = 150
# (layer function, field) pairs reported per job by the traced run
PER_LAYER = [
    ("series.BivarPoly.mul", "calls"), ("series.BivarPoly.add", "calls"),
    ("series.LambdaSeries.mul", "calls"), ("series.LambdaSeries.mul", "ms"),
    ("series.series_exp", "ms"),
    ("hermite.hermite_poly", "calls"), ("hermite.hermite_poly", "ms"),
    ("hermite.hermite_egf", "ms"),
    ("hypergeom.pfq_series", "calls"), ("hypergeom.pfq_series", "ms"),
    ("hypergeom.pfq_series", "self_ms"), ("hypergeom.pochhammer", "calls"),
    ("hypergeom.pochhammer", "ms"),
    ("closed_forms.closed_form_HKL", "ms"), ("closed_forms._leibniz_prefactor", "calls"),
    ("closed_forms._leibniz_prefactor", "ms"), ("closed_forms.rk_series", "ms"),
    ("operators.dilate_bruteforce", "ms"), ("operators.resum_lemma1", "ms"),
    ("operators.resum_corollary1", "ms"),
    ("normal_ordering.normal_order", "ms"), ("normal_ordering.apply_exp_op", "ms"),
    ("normal_ordering.compose", "calls"),
]


class Runner:
    """Runs whole rounds of jobs and keeps one wall time per completed job."""

    def __init__(self, jobs: list, tracer: Tracer | None = None):
        self.jobs = jobs
        self.tracer = tracer
        self.times: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def round(self):
        for job in self.jobs:
            self.attempted += 1
            span = self.tracer.open("job." + re.split(r"[( ]", job.kind)[0]) if self.tracer else None
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a job that raises is counted as failed; the run goes on
                out, error = None, exc
            else:
                error = None
            dt = perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
            self.busy += dt
            if error is not None:
                self.failed += 1
                print(f"failed: {job.kind}: {type(error).__name__}: {error}", file=sys.stderr)
                continue
            self.times.append(dt)
            try:
                job.check(out)
            except CheckError as exc:
                self.wrong.append(f"{job.kind}: {exc}")
                print(f"wrong: {job.kind}: {exc}", file=sys.stderr)


def fresh_start(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], env=child_env(ROOT), cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)


def timed_start(code: str) -> float:
    t0 = perf_counter()
    fresh_start(code)
    return perf_counter() - t0


def mpmath_import_ms() -> float:
    """Cumulative import time of mpmath under ``import lacunary``, from -X importtime."""
    err = fresh_start("import lacunary", "-X", "importtime").stderr
    for line in err.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "mpmath":
            return int(parts[1]) / 1000.0
    return 0.0


def measure(jobs: list, seconds: float, min_jobs: int, in_children: bool) -> dict:
    """The end-to-end run: untraced rounds with fresh-start probes between them."""
    runner = Runner(jobs)
    setup: list[float] = []
    start = perf_counter()
    next_probe = start
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and runner.attempted >= min_jobs) or elapsed >= HARD_STOP_S:
            break
        if perf_counter() >= next_probe:
            setup.append(timed_start("import lacunary"))
            next_probe += seconds / SETUP_PROBES
        runner.round()
    while len(setup) < SETUP_PROBES:
        setup.append(timed_start("import lacunary"))
    if len(runner.times) < 10:
        raise SystemExit(f"error: only {len(runner.times)} jobs completed")
    ms = [t * 1e3 for t in runner.times]
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    metrics = {
        "jobs_per_s": (len(runner.times) / runner.busy, "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return result(runner, metrics)


def trace(jobs: list, seconds: float, cli: Cli | None, label: str) -> dict:
    """The traced run: untraced and traced rounds alternate, so the slowdown
    of the traced ones is the tracing overhead."""
    bare, imported, mp = [], [], []
    for _ in range(5):
        bare.append(timed_start("pass"))
        imported.append(timed_start("import lacunary"))
        mp.append(mpmath_import_ms())
    tracer = Tracer()
    plain, traced = Runner(jobs), Runner(jobs, tracer)
    start = perf_counter()
    while not traced.attempted or perf_counter() - start < seconds:
        plain.round()
        if cli is None:
            tracer.install()
        else:
            cli.tracer = tracer
        try:
            traced.round()
        finally:
            tracer.uninstall()
            if cli is not None:
                cli.tracer = None
    totals = tracer.totals()
    n = traced.attempted
    metrics = {f"{name}.{field}": (totals.get(name, {}).get(field, 0) / n,
                                   "calls/job" if field == "calls" else "ms/job")
               for name, field in PER_LAYER}
    metrics["cli.interpreter_ms"] = (statistics.median(bare) * 1e3, "ms")
    metrics["cli.import_ms"] = ((statistics.median(imported) - statistics.median(bare)) * 1e3, "ms")
    metrics["cli.import_mpmath_ms"] = (statistics.median(mp), "ms")
    metrics["cli.main_ms"] = (totals.get("cli.main", {}).get("ms", 0) / n, "ms/job")
    metrics["trace.overhead_pct"] = (
        ((traced.busy / traced.attempted) / (plain.busy / plain.attempted) - 1) * 100, "%")
    out = result(traced, metrics, plain)
    tracer.write(RESULTS / f"trace-{label}.tsv.gz", {"result": out})
    return out


def result(runner: Runner, metrics: dict, *others: Runner) -> dict:
    runners = (runner, *others)
    return {
        "correct": not any(r.wrong for r in runners),
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("closed_form", "series_algebra", "cli_cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lacunary" / "__init__.py").is_file():
        print(f"error: no lacunary package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lacunary

    RESULTS.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}"
    cli = None
    workdir = RESULTS / f"work-{label}"
    try:
        if args.workload == "closed_form":
            jobs = workloads.closed_form_round(args.seed, lacunary)
        elif args.workload == "series_algebra":
            jobs = workloads.series_algebra_round(args.seed, lacunary)
        else:
            workdir.mkdir(exist_ok=True)
            cli = Cli(ROOT, workdir)
            jobs = workloads.cli_round(args.seed, cli)
        if args.trace:
            out = trace(jobs, args.seconds, cli, label)
        else:
            out = measure(jobs, args.seconds, MIN_JOBS, cli is not None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(out)
    (RESULTS / f"{label}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
