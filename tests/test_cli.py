"""CLI surface: subcommand behavior, determinism, report round-trips."""

import io
import json

import pytest

from lacunary.cli import UsageError, emit_series, main
from lacunary.verify import (
    VerifyConfig,
    VerifyReport,
    run_appendix_sweep,
    run_verification,
)


class TestEmitSeries:
    def test_egf_text(self):
        text = emit_series("egf", {}, 2, "text")
        assert text == "1 + λ·1 * x + λ^2·(1/2 * x^2 + 1 * y)"

    def test_hkl_order_zero(self):
        assert emit_series("hkl", {"K": 3, "L": 0}, 0, "text") == "1"

    def test_determinism(self):
        a = emit_series("hk0", {"K": 4}, 3, "json")
        b = emit_series("hk0", {"K": 4}, 3, "json")
        assert a == b

    def test_plan_format(self):
        plan = json.loads(emit_series("hk0", {"K": 4}, 0, "plan"))
        assert plan["K"] == 4 and len(plan["branches"]) == 2

    def test_plan_regenerates_k1_to_10_structures(self):
        # explicit closed forms exist for every K; plan output covers K=2..10
        for K in range(2, 11):
            plan = json.loads(emit_series("hk0", {"K": K}, 0, "plan"))
            assert plan["branches"], K

    def test_bad_kind(self):
        with pytest.raises(UsageError):
            emit_series("nope", {}, 2, "text")

    def test_plan_rejected_for_egf(self):
        with pytest.raises(UsageError):
            emit_series("egf", {}, 2, "plan")


class TestVerify:
    def test_report_round_trip(self):
        cfg = VerifyConfig(k_min=2, k_max=3, l_min=0, l_max=1, n_max=2)
        report = run_verification(cfg)
        again = VerifyReport.from_json(report.to_json())
        assert [c.to_json() for c in again.cases] == [c.to_json() for c in report.cases]

    def test_all_pass_and_exit_zero(self, capsys):
        code = main(["verify", "--kmin", "2", "--kmax", "3", "--nmax", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out

    def test_config_cap(self):
        with pytest.raises(ValueError):
            VerifyConfig(k_min=2, k_max=12, n_max=20)

    def test_k_range_bounds(self):
        with pytest.raises(ValueError):
            VerifyConfig(k_min=0, k_max=3)

    def test_appendix_sweep_passes(self):
        report = run_appendix_sweep()
        assert report.failed == 0

    def test_determinism_modulo_timing(self):
        cfg = VerifyConfig(k_min=2, k_max=2, n_max=2, seed=5)
        a, b = run_verification(cfg), run_verification(cfg)
        strip = lambda r: [c.to_json() for c in r.cases]
        assert strip(a) == strip(b)

    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = VerifyConfig(k_min=2, k_max=2, n_max=1, output_path=str(out))
        run_verification(cfg)
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

    def test_nieto_truax(self, capsys):
        assert main(["nieto-truax", "2", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["real"].startswith("1.0")

    def test_usage_error_exit_code(self, capsys):
        assert main(["closed-form", "0", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_rejects_k_zero(self, capsys):
        # 0 is a value, not "unset": the sweep must not fall back to K = 2
        assert main(["verify", "--kmin", "0", "--kmax", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_series_json(self, capsys, monkeypatch):
        for text in ('{"order":1}', '[1, 2]', '{"order":0,"coeffs":[[{"xp":0}]]}'):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["dilate", "2"]) == 2, text
            assert capsys.readouterr().err.startswith("error: "), text

    def test_bad_cap_names_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("LACUNAE_CAP", "abc")
        assert main(["verify", "--kmin", "2", "--kmax", "3"]) == 2
        assert "LACUNAE_CAP" in capsys.readouterr().err
