"""CLI surface: subcommand behavior, determinism, report round-trips."""

import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacunary
import lacunary.operators
from lacunary.cli import build_parser, main
from lacunary.closed_forms import closed_form_HKL
from lacunary.hermite import hermite_egf
from lacunary.series import BivarPoly, LambdaSeries
from lacunary.verify import RESUM_ORDER, first_diff_series, run_verification


CAPPED = [
    ["closed-form", "3", "--order", "2000"],
    ["closed-form", "100000", "--order", "0"],
    ["hermite", "100000000"],
    ["emit", "egf", "--order", "1000"],
    ["normal-order", "--q", "[]", "--v", "[]", "--order", "1000"],
    ["normal-order", "--q", '[{"xp":100000000,"yp":0,"num":"1","den":"1"}]', "--v", "[]"],
    ["normal-order", "--q", "[]", "--v", '[{"xp":100000000,"yp":0,"num":"1","den":"1"}]'],
    ["dilate", "1"],
    ["shift", "0"],
]
# stdin of every capped command: an all-zero series, which dilate and shift read
ZERO_SERIES = json.dumps({"order": 10000, "coeffs": [[]] * 10001})

Q1, V1 = '[{"xp":0,"yp":1,"num":"2","den":"1"}]', '[{"xp":1,"yp":0,"num":"1","den":"1"}]'
Q2 = '[{"xp":2,"yp":1,"num":"1","den":"2"},{"xp":0,"yp":0,"num":"3","den":"1"}]'
V2 = '[{"xp":3,"yp":0,"num":"-1","den":"3"},{"xp":1,"yp":1,"num":"1","den":"1"}]'
# a fresh process that runs one command (or none: import lacunary alone), then prints
# the lacunary.* modules it loaded, and mpmath if it did: no command needs it
LOADED = """
import json, sys, lacunary
status = 0
if sys.argv[1:]:
    from lacunary.cli import main
    status = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "mpmath" or m.startswith("lacunary."))))
sys.exit(status)
"""
# stdin of the commands in LOADS: a small zero series, which dilate and shift read
SMALL_SERIES = json.dumps({"order": 4, "coeffs": [[]] * 5})
LOADS = {
    (): [],
    ("hermite", "45"): ["cli", "hermite", "series"],
    ("emit", "egf", "--order", "6"): ["cli", "hermite", "series"],
    ("dilate", "2"): ["cli", "hermite", "operators", "series"],
    ("shift", "1"): ["cli", "hermite", "operators", "series"],
    ("normal-order", "--q", Q1, "--v", V1): ["cli", "hermite", "normal_ordering", "series"],
    ("closed-form", "4", "1", "--format", "json"):
        ["cli", "closed_forms", "hermite", "hypergeom", "series"],
    ("verify", "--kmin", "2", "--nmax", "1"):
        ["cli", "closed_forms", "hermite", "hypergeom", "operators", "series", "verify"],
}
# a fresh process that runs one command, then prints the modules it added to sys.modules:
# the difference, since site may have loaded any of them before
ADDED = """
import sys
before = set(sys.modules)
from lacunary.cli import main
status = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(status)
"""
# stdlib modules that a command does not run, so does not load
UNLOADED = {
    ("verify",): {"json", "dataclasses"},
    ("hermite", "45"): {"json", "dataclasses"},
    ("closed-form", "4", "1", "--format", "json"): {"dataclasses"},
}
# SHA-256 of the stdout of each command, as the code printed it when the pins were taken
PINNED = {
    ("closed-form", "5", "--format", "plan"):
        "14fd8f2526d5a6464303980a8190dcc24a96207e37afb504dfa7ed5dc99360cc",
    ("closed-form", "1", "--format", "plan"):
        "e0ab6a72c872830026c3d295bd440d867fe922cec10267179735054c8a517cd9",
    ("closed-form", "4", "--order", "5", "--format", "json"):
        "c57a51835fff019f4e9eb9245ec6649c99ca7a4e056135b2345a26e45f3be9e6",
    ("closed-form", "1", "2", "--order", "6", "--format", "json"):
        "88748a039afc4675ccd0c4c8ad7a3a8adf31ecc9b7908521a493216d3c6ee059",
    ("closed-form", "7", "2", "--order", "6", "--format", "json"):
        "19e7b2532b21ea40c0ce4131006e0970564f29ba0f2ac69f6ca9f31dd8cf3beb",
    ("closed-form", "11", "2", "--order", "4", "--format", "json"):
        "86bc7a48971c9efc7c15f03bd07d330d23f303616bf662f70102a8943c68c5fb",
    ("closed-form", "12", "3", "--order", "3", "--format", "json"):
        "a6e68be83d7bb73ddbbaba27cefac859a19732679734666a4848d5c52495f947",
    ("closed-form", "3", "1", "--order", "5"):
        "f2e5c9d0acc1d660c19a2cbece5d58ba349dc6fc7b961fcc2069ddcd41899f02",
    ("closed-form", "7", "7", "--order", "6", "--format", "json"):
        "0b23119c9e948cf5b82310b37c5e3d18628399dedb220d11bd88a2faa4127de5",
    ("closed-form", "12", "100", "--order", "1", "--format", "json"):
        "59eaf9632b9f4b7c0e01d621bb4e8ddb9aafee80ef29ebeafdb74ffea68dfb3e",
    ("closed-form", "2", "2", "--order", "21", "--format", "json"):
        "fb33895b1f7f1a6b259c39823b573ecc328ec2876d733fb8e4b1539afbdd1725",
    ("hermite", "30", "--format", "json"):
        "5c73d66663b4b85a8076498f3bd0c579df68ed31b06fc58bc23b832423efed96",
    ("normal-order", "--q", Q1, "--v", V1, "--order", "12"):
        "c85d05516382d2ec2f219f218271489192b91dd7e0dfb35c4a46d99fe038f244",
    ("normal-order", "--q", Q2, "--v", V2, "--order", "8"):
        "1a57ff896ee341c89cabaa071a90e6493f30e7ee6889a314caed39ce75a2d0d2",
}
# SHA-256 of the stdout of closed-form K --format plan, K = 1 ... 12, pinned likewise
PINNED_PLANS = {
    1: "e0ab6a72c872830026c3d295bd440d867fe922cec10267179735054c8a517cd9",
    2: "a1433b305cd704ad1e208307cfbfaed6dd931e99caad7f03bb86511d1e39d00f",
    3: "62cf604a771ecc517975911c610bd5b16752089fbece0c52fe65fbad3add6cce",
    4: "71c48291a00c4aa733483a494590213bf352f920c9c11706947452a9d5fe9e11",
    5: "14fd8f2526d5a6464303980a8190dcc24a96207e37afb504dfa7ed5dc99360cc",
    6: "71146c66c24959414bca7663da38d074def8bea5cb570fa185dc6d5bc997283f",
    7: "1174112263aaf505e9f84b4d991e807de1ad2137f8639df397a39cd874a750e3",
    8: "27ae03c353b1bfee5b412b3af74b032dcc715c05c0519a526d4c1d6dc88c9ca9",
    9: "dc3fd40d84a7258f336ecf82d04c6b9fa90be4ee4f5c480c9599953c69986ddb",
    10: "6136b8b2d028fc0c676d80aa2209980fc4f214fd61660aa816bede22133126d0",
    11: "9ecdb9617673a1a3e7594933fbcafeee02be3e5652925177a72bc8f15c4f96df",
    12: "a94f90bd232bdfdfe4c877b7e75056dbac02db8cee0ab5f5b7c0c108b1dc1632",
}
# emit egf --order 6, then dilate 2 and shift 1, each reading the one before through --in
PINNED_CHAIN = [
    (("emit", "egf", "--order", "6"),
     "66a3749eaf161ebaf6935451d77ff50f4a0e0155b4100b3c1757043bdc58dd9c"),
    (("dilate", "2"), "7d5ce190bdc0b90dc0afcedb5bc98acde369edaccb9049e5a43ad2c790df2871"),
    (("shift", "1"), "2d3ccb9a27655709f62b67ab116f5fd25e5d45bd0bbe9f2df33245e73edb2944"),
]
# emit egf --order 40, then dilate 4 and shift 3: the scalars n!/(n/4)! and (n+3)!/n!
# cancel against large denominators, so a wrong cancellation shows here
PINNED_CHAIN_40 = [
    (("emit", "egf", "--order", "40"),
     "f6db8429def1276af29e131803d4d681a2a4cc2250428844c91a3ca62f1895aa"),
    (("dilate", "4"), "e0d776c437e0afa9d6bb4a26596428049a101d9b137dc3fe91ae7c0ae9c58d66"),
    (("shift", "3"), "fb1b9d372ece3d2ab3696c36452b264ce86210f9581a4b342c5e06b8958b9f21"),
]


def stdout_of(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_are_pinned(capsys, tmp_path):
    # exact arithmetic prints the same bytes on every run and after every refactor
    for argv, digest in PINNED.items():
        assert sha256(stdout_of(capsys, *argv)) == digest, argv
    for chain in (PINNED_CHAIN, PINNED_CHAIN_40):
        infile = []
        for argv, digest in chain:
            text = stdout_of(capsys, *argv, *infile)
            assert sha256(text) == digest, argv
            path = tmp_path / f"{argv[0]}.json"
            path.write_text(text)
            infile = ["--in", str(path)]


class TestEmitSeries:
    def test_egf_text(self, capsys):
        text = stdout_of(capsys, "emit", "egf", "--order", "2", "--format", "text")
        assert text == "1 + λ·1 * x + λ^2·(1/2 * x^2 + 1 * y)\n"

    def test_hkl_order_zero(self, capsys):
        out = json.loads(stdout_of(capsys, "closed-form", "3", "--order", "0", "--format", "json"))
        assert out == {"order": 0, "coeffs": [[{"xp": 0, "yp": 0, "num": "1", "den": "1"}]]}

    def test_determinism(self, capsys):
        argv = ("closed-form", "4", "--order", "3", "--format", "json")
        assert stdout_of(capsys, *argv) == stdout_of(capsys, *argv)

    def test_plan_format(self, capsys):
        plan = json.loads(stdout_of(capsys, "closed-form", "4", "--format", "plan"))
        assert plan["K"] == 4 and len(plan["branches"]) == 2

    def test_plan_is_pinned_for_k1_to_12(self, capsys):
        # the plan of every K the sweep reaches prints the bytes it printed when pinned
        for K, digest in PINNED_PLANS.items():
            text = stdout_of(capsys, "closed-form", str(K), "--format", "plan")
            assert sha256(text) == digest, K

    def test_bad_kind(self, capsys):
        # emit serializes the EGF only; closed forms are the closed-form command's
        for argv in (["emit", "nope"], ["emit", "hk0"], ["emit", "egf", "--K", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err, argv

    def test_plan_rejected_for_egf(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "egf", "--format", "plan"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--format" in err and "plan" in err

    def test_plan_builds_no_series(self, capsys, monkeypatch):
        # the plan depends on K alone: a cap of K admits it, not the series of order 4
        monkeypatch.setenv("LACUNAE_CAP", "8")
        assert main(["closed-form", "8", "--format", "plan"]) == 0
        assert main(["closed-form", "8"]) == 2
        assert "LACUNAE_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["5", "3", "--order", "9"], ["5", "0"],
                                      ["5", "--order", "4"]], ids=" ".join)
    def test_plan_refuses_l_and_order(self, capsys, args):
        # the plan would ignore them, even at their defaults
        assert main(["closed-form", *args, "--format", "plan"]) == 2
        assert capsys.readouterr().err == ("error: --format plan takes no L or --order: "
                                           "the plan depends on K alone\n")


class TestVerify:
    def test_all_pass_and_exit_zero(self, capsys):
        code = main(["verify", "--kmin", "2", "--kmax", "3", "--nmax", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out

    def test_config_cap(self):
        with pytest.raises(ValueError):
            run_verification({K: 20 for K in range(2, 13)})

    def test_k_range_bounds(self):
        # the dict is the whole sweep: an empty one, or one K outside 1..12, is refused
        for n_max in ({K: 6 for K in range(0, 4)}, {}, {3: 2, 13: 1}):
            with pytest.raises(ValueError, match=r"K range must lie within \[1, 12\]"):
                run_verification(n_max)

    def test_huge_k_range_is_refused_unbuilt(self, capsys, monkeypatch):
        # an end outside 1..12 is refused by its flag, before any sweep is built
        sizes = []

        def verification(n_max, **kw):
            sizes.append(len(n_max))
            return run_verification(n_max, **kw)

        monkeypatch.setattr("lacunary.verify.run_verification", verification)
        for kmin, kmax, err in (("-1000000000000", "1000000000000", "--kmin"),
                                ("5", "1000000000000", "--kmax"),
                                ("-1000000000000", "-5", "--kmin"),
                                ("0", "3", "--kmin"), ("12", "13", "--kmax")):
            assert main(["verify", "--kmin", kmin, "--kmax", kmax]) == 2
            got = kmin if err == "--kmin" else kmax
            assert capsys.readouterr().err == f"error: {err} must lie within 1..12, got {got}\n"
        # an empty range is refused by name, before any sweep is built
        assert main(["verify", "--kmin", "4", "--kmax", "3"]) == 2
        assert capsys.readouterr().err == ("error: --kmax 3 is below --kmin 4: "
                                           "the K range is empty\n")
        assert sizes == []

    def test_negative_n_max_names_the_field(self):
        for n_max in ({2: -1, 3: -1}, {2: 3, 3: -1}):
            with pytest.raises(ValueError, match="n_max"):
                run_verification(n_max)

    def test_appendix_sweep_passes(self, capsys, monkeypatch):
        # the default sweep reaches H_75 (K = 5, n = 15), so a cap of 75 admits it
        monkeypatch.setenv("LACUNAE_CAP", "75")
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.startswith("59 passed, 0 failed")

    def test_resummation_is_capped(self, monkeypatch):
        # n_max * K + l_max = 12, but the resummation checks build H_60
        monkeypatch.setenv("LACUNAE_CAP", "20")
        with pytest.raises(ValueError, match="LACUNAE_CAP"):
            run_verification({12: 1})

    def test_determinism_modulo_timing(self):
        first, second = (run_verification({2: 2}, seed=5) for _ in range(2))
        assert first["cases"] == second["cases"]

    @pytest.mark.parametrize("flag", ["--lmin", "--lmax", "--nmax", "--seed"])
    def test_range_flags_need_a_k_range(self, flag, capsys):
        # the default sweep would otherwise run and ignore the flag
        assert main(["verify", flag, "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    def test_range_flag_defaults(self, tmp_path):
        # with a K range the flags keep their defaults: L = 0, n up to 6, seed 0
        out = tmp_path / "report.json"
        assert main(["verify", "--kmax", "3", "--out", str(out)]) == 0
        expected = run_verification({2: 6, 3: 6}, l_min=0, l_max=0, seed=0)["cases"]
        assert json.loads(out.read_text())["cases"] == expected

    def test_lmax_defaults_to_lmin(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--kmin", "2", "--lmin", "2", "--nmax", "1", "--out",
                     str(out)]) == 0
        expected = run_verification({2: 1}, l_min=2, l_max=2)["cases"]
        assert json.loads(out.read_text())["cases"] == expected

    @pytest.mark.parametrize("flag", ["--lmin", "--nmax"])
    def test_negative_flag_is_refused_by_name(self, flag, capsys):
        assert main(["verify", "--kmin", "2", flag, "-1"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -1\n"

    def test_empty_l_range_is_refused_by_name(self, capsys):
        assert main(["verify", "--kmin", "2", "--lmin", "3", "--lmax", "1"]) == 2
        assert capsys.readouterr().err == ("error: --lmax 1 is below --lmin 3: "
                                           "the L range is empty\n")

    def test_failing_case_is_reported(self, capsys, monkeypatch, tmp_path):
        # a wrong oracle H_4: the one case that reads it fails, with its first differing term
        orig = lacunary.verify.hermite_poly
        monkeypatch.setattr("lacunary.verify.hermite_poly",
                            lambda n: orig(n) + BivarPoly.monomial(int(n == 4), 0, 0))
        out = tmp_path / "report.json"
        assert main(["verify", "--kmin", "2", "--nmax", "2", "--out", str(out)]) == 1
        diff_term = {"lp": 2, "xp": 0, "yp": 0, "num": "-1", "den": "1"}
        fail, summary, rest = capsys.readouterr().out.split("\n")
        assert fail == ("FAIL {'K': 2, 'L': 0, 'n': 2, 'pass': False, 'diff_term': "
                        f"{diff_term}, 'check': 'closed_form'}}")
        assert summary.startswith("5 passed, 1 failed (") and summary.endswith(" ms)")
        assert rest == ""
        data = json.loads(out.read_text())
        assert data["failed"] == 1
        assert [c["diff_term"] for c in data["cases"] if not c["pass"]] == [diff_term]

    def test_short_resummation_fails(self, capsys, monkeypatch, tmp_path):
        # a resummation one lambda-power short fails where it stops, in each of its checks
        resum = lacunary.operators._resum

        def short(*args):
            series = resum(*args)
            return LambdaSeries(series.order - 1, series.coeffs[:-1])

        monkeypatch.setattr("lacunary.operators._resum", short)
        out = tmp_path / "report.json"
        assert main(["verify", "--kmin", "2", "--nmax", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("2 passed, 3 failed (")
        cases = json.loads(out.read_text())["cases"]
        assert [c["diff_term"] for c in cases if not c["pass"]] == [
            {"lp": RESUM_ORDER, "missing": True}] * 3

    def test_wrong_resummation_fails_at_its_term(self, capsys, monkeypatch, tmp_path):
        # one monomial added at lambda^2 is the first differing term of each resummation case
        resum = lacunary.operators._resum
        extra = BivarPoly.monomial(Fraction(3, 7), 1, 2)

        def wrong(*args):
            series = resum(*args)
            return LambdaSeries(series.order, [c + extra if n == 2 else c
                                               for n, c in enumerate(series.coeffs)])

        monkeypatch.setattr("lacunary.operators._resum", wrong)
        out = tmp_path / "report.json"
        assert main(["verify", "--kmin", "2", "--nmax", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("2 passed, 3 failed (")
        cases = json.loads(out.read_text())["cases"]
        assert [c["diff_term"] for c in cases if not c["pass"]] == [
            {"lp": 2, "xp": 1, "yp": 2, "num": "3", "den": "7"}] * 3

    def test_first_diff_series(self):
        a = hermite_egf(4)
        b = LambdaSeries(4, [c + (BivarPoly.monomial(-5, 0, 3) if n == 3 else BivarPoly())
                             for n, c in enumerate(a.coeffs)])
        assert first_diff_series(a, hermite_egf(4)) is None
        assert first_diff_series(a, b) == {"lp": 3, "xp": 0, "yp": 3, "num": "5", "den": "1"}
        assert first_diff_series(b, a) == {"lp": 3, "xp": 0, "yp": 3, "num": "-5", "den": "1"}
        # a short series differs where it stops, in either argument
        short = LambdaSeries(2, a.coeffs[:3])
        assert first_diff_series(a, short) == first_diff_series(short, a) == {
            "lp": 3, "missing": True}
        # a difference before the shorter one stops comes first
        assert first_diff_series(b, LambdaSeries(3, a.coeffs[:4]))["lp"] == 3

    def test_short_closed_form_fails(self, monkeypatch):
        # a closed form one lambda-power short fails its last case instead of raising
        monkeypatch.setattr("lacunary.verify.closed_form_HKL",
                            lambda K, L, order: closed_form_HKL(K, L, order - 1))
        cases = run_verification({3: 2})["cases"]
        assert len(cases) == 6
        assert [c["diff_term"] for c in cases if not c["pass"]] == [{"lp": 2, "missing": True}]

    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--kmin", "2", "--nmax", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["failed"] == 0
        assert data["passed"] == len(data["cases"])


class TestSubcommands:
    def test_hermite(self, capsys):
        assert main(["hermite", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1 * x^3 + 6 * x * y"

    def test_closed_form_text(self, capsys):
        assert main(["closed-form", "3", "0", "--order", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_pipe_dilate_shift(self, capsys, monkeypatch, tmp_path):
        series_path = tmp_path / "egf.json"
        assert main(["emit", "egf", "--order", "6", "--out", str(series_path)]) == 0
        assert main(["dilate", "2", "--in", str(series_path)]) == 0
        dilated = json.loads(capsys.readouterr().out)
        assert dilated["order"] == 3

    @pytest.mark.parametrize("argv", LOADS, ids=[a[0] if a else "import" for a in LOADS])
    def test_fresh_process_loads_only_its_modules(self, argv):
        # each command loads only the modules it runs, and none loads mpmath;
        # stdlib modules are not asserted on, since site may load any of them
        env = dict(os.environ, PYTHONPATH=str(Path(lacunary.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                              input=SMALL_SERIES, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [f"lacunary.{m}" for m in LOADS[argv]]

    @pytest.mark.parametrize("argv", UNLOADED, ids=[a[0] for a in UNLOADED])
    def test_fresh_process_skips_stdlib_modules_it_does_not_run(self, argv):
        # verify without --out and text output write no JSON; only rk_series and normal-order
        # build a dataclass
        env = dict(os.environ, PYTHONPATH=str(Path(lacunary.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", ADDED, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.splitlines()[-1].split())
        assert "lacunary.cli" in added
        assert not added & UNLOADED[argv], added & UNLOADED[argv]

    def test_readme_documents_exactly_the_subcommands(self):
        # the commands in README's CLI block: a removed one must not stay documented
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = set(re.findall(r"\blacunary ([a-z-]+)", block))
        choices = re.search(r"\{([a-z,-]+)\}", build_parser().format_usage()).group(1)
        assert documented == set(choices.split(","))

    def test_public_names_resolve(self):
        # each exported name loads from its home module; an unknown name is still an error
        for name in lacunary.__all__:
            home = importlib.import_module(getattr(lacunary, name).__module__)
            assert getattr(home, name) is getattr(lacunary, name), name
            assert name in dir(lacunary), name
        assert not hasattr(lacunary, "no_such_name")

    def test_closed_pipe_exits_quietly(self):
        # more output than a pipe buffer holds, read by a consumer that stops early
        env = dict(os.environ, PYTHONPATH=str(Path(lacunary.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-m", "lacunary.cli", "emit", "egf",
                               "--order", "60"], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            proc.stdout.read(10)
            proc.stdout.close()
            assert proc.wait(timeout=30) == 141
            assert proc.stderr.read() == b""

    def test_usage_error_exit_code(self, capsys):
        assert main(["closed-form", "0", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_rejects_k_zero(self, capsys):
        # 0 is a value, not "unset": the sweep must not fall back to K = 2
        assert main(["verify", "--kmin", "0", "--kmax", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_series_json(self, capsys, monkeypatch):
        term = '{"order":%s,"coeffs":[[{"xp":0,"yp":0,"num":%s,"den":1}]]}'
        for text in ('{"order":1}', '[1, 2]', '{"order":0,"coeffs":[[{"xp":0}]]}',
                     term % (0, 1.5), term % (0, "true"), term % ("true", 1),
                     term % (-1, 1), term % (1, 1),
                     '{"order":0,"coeffs":[[{"xp":-1,"yp":0,"num":1,"den":1}]]}',
                     "[" * 100000):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["dilate", "2"]) == 2, text[:40]
            assert capsys.readouterr().err.startswith("error: malformed "), text[:40]

    def test_malformed_json_names_the_flag(self, capsys):
        assert main(["normal-order", "--q", "[", "--v", "[]"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed --q: ")

    @pytest.mark.parametrize("argv", CAPPED, ids=" ".join)
    def test_size_cap(self, argv):
        # a fresh process with a timeout: without the cap each of these runs for minutes
        env = {k: v for k, v in os.environ.items() if k != "LACUNAE_CAP"}
        env["PYTHONPATH"] = str(Path(lacunary.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "lacunary.cli", *argv], env=env,
                              input=ZERO_SERIES, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "LACUNAE_CAP" in proc.stderr

    def test_shift_input_past_int_str_limit(self, capsys, monkeypatch):
        # the interpreter refuses to read a 5000-digit numerator; the CLI names the input
        term = {"xp": 0, "yp": 0, "num": "7" * 5000, "den": "1"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"order": 1,
                                                                  "coeffs": [[term], []]})))
        assert main(["shift", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: a number in series JSON is past 4300 digits, Python's limit on str-to-int "
            "conversion; shorten it\n")

    def test_normal_order_input_past_int_str_limit(self, capsys):
        q = json.dumps([{"xp": 0, "yp": 1, "num": "7" * 5000, "den": "1"}])
        assert main(["normal-order", "--q", q, "--v", V1]) == 2
        assert capsys.readouterr().err == (
            "error: a number in --q is past 4300 digits, Python's limit on str-to-int "
            "conversion; shorten it\n")

    def test_normal_order_output_past_int_str_limit(self, capsys):
        # a 3000-digit q coefficient, raised to the 4th power, passes the int-to-str limit
        q = json.dumps([{"xp": 0, "yp": 1, "num": "7" * 3000, "den": "1"}])
        assert main(["normal-order", "--q", q, "--v", V1, "--order", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: the output has a number past 4300 digits, Python's limit on int-to-str "
            "conversion; lower --order or the numbers of --q and --v\n")

    def test_dilate_output_past_int_str_limit(self, capsys, tmp_path):
        # a 4290-digit lambda^40 numerator reads in, but dilated it prints past the limit
        coeffs = [[] for _ in range(41)]
        coeffs[40] = [{"xp": 0, "yp": 0, "num": "9" * 4290, "den": "1"}]
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": 40, "coeffs": coeffs}))
        assert main(["dilate", "2", "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: the output has a number past 4300 digits, Python's limit on int-to-str "
            "conversion; lower the input's order or numbers\n")

    def test_normal_order_of_the_hermite_operator(self, capsys):
        # q = 2y, v = x: g = exp(mu x + mu^2 y), the Hermite EGF
        q, v = '[{"xp":0,"yp":1,"num":"2","den":"1"}]', '[{"xp":1,"yp":0,"num":"1","den":"1"}]'
        solved = json.loads(stdout_of(capsys, "normal-order", "--q", q, "--v", v,
                                      "--order", "12"))
        egf = json.loads(stdout_of(capsys, "emit", "egf", "--order", "12"))
        assert solved["g"] == egf

    def test_default_sweep_is_capped(self, capsys, monkeypatch):
        # one below the H_75 that the default sweep reaches: rejected before it runs
        monkeypatch.setenv("LACUNAE_CAP", "74")
        assert main(["verify"]) == 2
        assert "LACUNAE_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["normal-order", "--q", '[{"xp":0}]', "--v", "[]"],
        ["normal-order", "--q", "{}", "--v", "[]"],
        ["normal-order", "--q", "[]", "--v", '[{"xp":0,"yp":0,"num":"1","den":"0"}]'],
        ["normal-order", "--q", '[{"xp":1.5,"yp":0,"num":"1","den":"1"}]', "--v", "[]"],
        ["normal-order", "--q", "[]", "--v", '[{"xp":1,"yp":0,"num":"1","den":"1"},'
                                             '{"xp":1,"yp":0,"num":"2","den":"1"}]'],
        ["normal-order", "--q", "[]", "--v", "[]", "--order", "-1"],
        ["verify", "--kmin", "2", "--nmax", "-1"],
        ["hermite", "-1"],
        ["closed-form", "3", "-1"],
        ["shift", "-1"],
    ], ids=" ".join)
    def test_malformed_input(self, argv, capsys, monkeypatch):
        # a valid series on stdin, so that shift fails on its L, not on its input
        monkeypatch.setattr("sys.stdin", io.StringIO('{"order":1,"coeffs":[[],[]]}'))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["closed-form", "3", "--order", "-1"],
        ["emit", "egf", "--order", "-1"],
        ["normal-order", "--q", "[]", "--v", "[]", "--order", "-1"],
    ], ids=" ".join)
    def test_negative_order_names_the_flag(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --order must be >= 0, got -1\n"

    def test_unopenable_paths(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        for argv in (["dilate", "2", "--in", str(missing / "in.json")],
                     ["hermite", "3", "--out", str(missing / "x")],
                     ["verify", "--kmin", "2", "--nmax", "1", "--out", str(missing / "r")]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: cannot open "), argv

    def test_bad_cap_names_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("LACUNAE_CAP", "abc")
        assert main(["verify", "--kmin", "2", "--kmax", "3"]) == 2
        assert "LACUNAE_CAP" in capsys.readouterr().err


# the argument grammar of every subcommand: its positionals (normal-order's two required
# options among them) and its options, with values that are valid, out of range or not
# numbers; "{tmp}" is a fresh directory
NUMBER = st.sampled_from([str(n) for n in range(-2, 10)] + ["x", "", "2.5", "9" * 30])
FORMAT = st.sampled_from(["json", "text", "plan", "csv"])
IN_PATH = st.sampled_from(["-", "{tmp}/in.json", "{tmp}/missing/in.json"])
OUT_PATH = st.sampled_from(["{tmp}/out", "{tmp}/missing/out"])
TERMS = st.sampled_from(["[]", Q1, V1, Q2, V2, '[{"xp":0}]', "{}", "[", '[{"xp":1,"yp":0,'
                         '"num":"1","den":"0"}]'])
GRAMMAR = {
    "verify": ([], dict.fromkeys(["--kmin", "--kmax", "--lmin", "--lmax", "--nmax", "--seed"],
                                 NUMBER)),
    "hermite": ([NUMBER], {"--format": FORMAT}),
    "closed-form": ([NUMBER, NUMBER], {"--order": NUMBER, "--format": FORMAT}),
    "dilate": ([NUMBER], {"--in": IN_PATH}),
    "shift": ([NUMBER], {"--in": IN_PATH}),
    "normal-order": ([st.just("--q"), TERMS, st.just("--v"), TERMS], {"--order": NUMBER}),
    "emit": ([st.sampled_from(["egf", "egf", "hk0"])], {"--order": NUMBER, "--format": FORMAT}),
}
RARELY = st.sampled_from([0, 0, 0, 1])  # 1 in about a quarter of the draws
EGF_6 = json.dumps(hermite_egf(6).to_json())
# stdin of dilate and shift: a series, a series past the cap, and bodies that are not one
STDIN = st.sampled_from([EGF_6, SMALL_SERIES, ZERO_SERIES, "", "{", "[]",
                         '{"order":-1,"coeffs":[]}', '{"order":1,"coeffs":[[]]}'])


@st.composite
def argument_lists(draw):
    """A subcommand, its positionals (now and then the last one left out), some of its
    options (--out among them) with values, and now and then a stray token."""
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    positionals, options = GRAMMAR[name]
    options = {**options, "--out": OUT_PATH}
    argv = [name] + [draw(s) for s in positionals][:len(positionals) - draw(RARELY)]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
        argv += [flag, draw(options[flag])]
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--nope", "-h", "7"])))
    return argv


@given(argument_lists(), STDIN)
@settings(max_examples=150, deadline=None)
def test_error_contract(argv, stdin):
    # whatever the arguments, main ends with 0, 1 (a failing verify case) or 2 (bad
    # input, named on stderr by "error: " or by argparse's usage), never a traceback
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        Path(tmp, "in.json").write_text(EGF_6)
        mp.setenv("LACUNAE_CAP", "20")
        mp.setattr("sys.stdin", io.StringIO(stdin))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main([a.replace("{tmp}", tmp) for a in argv])
            except SystemExit as exc:  # argparse: a usage error, or -h
                status = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (argv, status)
    if status == 1:
        assert out.startswith("FAIL "), (argv, out)
    if status == 2:
        assert err.startswith("error: ") or (err.startswith("usage: ") and ": error: " in err), (
            argv, err)
