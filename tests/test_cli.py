"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, main
from repro.sim._kernel_build import kernel_available


class TestList:
    def test_list_prints_orgs_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cameo" in out
        assert "mcf" in out and "astar" in out


class TestRun:
    def test_run_prints_telemetry(self, capsys):
        assert main(["run", "cameo", "astar", "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        assert "speedup over baseline" in out
        assert "LLP accuracy" in out

    def test_unknown_org_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense", "astar"])

    def test_baseline_run_has_no_llp_row(self, capsys):
        assert main(["run", "baseline", "astar", "--accesses", "300"]) == 0
        assert "LLP accuracy" not in capsys.readouterr().out


class TestCompare:
    def test_compare_prints_bars(self, capsys):
        assert main(["compare", "astar", "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        for org in ("cache", "tlm-static", "tlm-dynamic", "cameo", "doubleuse"):
            assert org in out


class TestFigure:
    def test_registry_covers_the_paper(self):
        assert set(FIGURES) == {"2", "3", "8", "9", "12", "13", "14", "15",
                                "table3", "table4"}

    def test_analytic_figures_render(self, capsys):
        assert main(["figure", "8"]) == 0
        assert "colocated" in capsys.readouterr().out
        assert main(["figure", "3"]) == 0
        assert "HMC" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_no_result_cache_flag_accepted(self, capsys):
        assert main(["figure", "8", "--no-result-cache"]) == 0
        assert "colocated" in capsys.readouterr().out

    def test_json_emits_every_cell(self, capsys):
        import json

        assert main(["figure", "13", "--accesses", "120", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for per_org in payload.values():
            assert "baseline" in per_org and "cameo" in per_org
            assert per_org["cameo"]["organization"] == "cameo"

    def test_json_rejected_for_analytic_figures(self, capsys):
        assert main(["figure", "8", "--json"]) == 2
        assert "analytical" in capsys.readouterr().err


class TestPaper:
    def test_dry_run_prints_the_dedup_accounting(self, capsys):
        assert main([
            "paper", "--experiments", "figure13,table4",
            "--accesses", "120", "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "204 cells requested" in out
        assert "unique cells:    102" in out
        assert "dedup saves 50%" in out
        assert "figure13: 102 cells" in out
        assert "table4: 102 cells" in out

    def test_executes_and_renders_each_experiment(self, capsys):
        assert main([
            "paper", "--experiments", "figure13", "--accesses", "120",
            "--no-result-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "ran 102 of 102 cells" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["paper", "--experiments", "figure99", "--dry-run"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestMix:
    def test_mix_runs(self, capsys):
        import os
        os.environ["REPRO_ACCESSES_PER_CONTEXT"] = "300"
        try:
            assert main(["mix", "gcc", "astar"]) == 0
        finally:
            del os.environ["REPRO_ACCESSES_PER_CONTEXT"]
        out = capsys.readouterr().out
        assert "gcc+astar" in out
        assert "speedup over baseline" in out


class TestBenchRequireKernel:
    BENCH_ARGS = ["bench", "--orgs", "cameo", "--workloads", "astar",
                  "--accesses", "200", "--repeats", "1", "--require-kernel"]

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler / kernel unavailable"
    )
    def test_passes_when_every_cell_lowers(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        output = tmp_path / "BENCH_X.json"
        assert main(self.BENCH_ARGS + ["--output", str(output)]) == 0
        assert "every lowerable cell" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        # The flag implies the vector engine and the cells prove it.
        assert payload["config"]["engine"] == "vector"
        assert all(e["backend"] == "vector" for e in payload["results"])

    def test_exits_2_when_the_kernel_cannot_engage(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sim import _kernel_build

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
        _kernel_build.reset_for_tests()
        try:
            output = tmp_path / "BENCH_X.json"
            assert main(self.BENCH_ARGS + ["--output", str(output)]) == 2
        finally:
            _kernel_build.reset_for_tests()
        out = capsys.readouterr().out
        assert "require-kernel: cameo/astar" in out
        assert "disabled" in out


class TestTrace:
    def test_trace_dump_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "out.trace"
        assert main(["trace", "astar", str(path), "-n", "150"]) == 0
        assert "wrote 150 records" in capsys.readouterr().out

        from repro.workloads.replay import ReplayTraceSource

        with open(path) as fp:
            source = ReplayTraceSource.from_file(fp)
        assert len(source) == 150

    def test_trace_rejects_unknown_workload(self, tmp_path, capsys):
        # Library errors are reported, not raised (see TestErrorHandling).
        assert main(["trace", "doom", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err


class TestJsonFlag:
    def test_run_json_is_valid(self, capsys):
        import json

        assert main(["run", "cameo", "astar", "--accesses", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["organization"] == "cameo"
        assert payload["speedup_over_baseline"] > 0


class TestErrorHandling:
    def test_repro_error_exits_2_with_one_line_message(self, capsys):
        assert main(["run", "cameo", "unknown-workload", "--accesses", "300"]) == 2
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_campaign_spec_error_exits_2(self, tmp_path, capsys):
        # An empty grid is a CampaignError, surfaced the same way.
        assert main([
            "campaign", "--checkpoint", str(tmp_path / "c.json"),
            "--timeout", "-1",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestArgumentValidation:
    @pytest.mark.parametrize("value", ["0", "-5", "three"])
    def test_non_positive_accesses_rejected_at_parse_time(self, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "cameo", "astar", "--accesses", value])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["-1", "nope"])
    def test_negative_seed_rejected_at_parse_time(self, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "cameo", "astar", "--seed", value])
        assert excinfo.value.code == 2

    def test_trace_record_count_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "astar", str(tmp_path / "x"), "-n", "0"])

    def test_fault_rates_must_be_probabilities(self):
        with pytest.raises(SystemExit):
            main(["faults", "cameo", "astar", "--transient-rate", "1.5"])

    def test_campaign_seed_list_must_be_integers(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--checkpoint", str(tmp_path / "c.json"),
                  "--seeds", "0,two"])


class TestFaultsCommand:
    def test_prints_recovery_telemetry(self, capsys):
        assert main([
            "faults", "cameo", "astar", "--accesses", "400",
            "--transient-rate", "0.05", "--uncorrectable", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection on" in out
        assert "ecc_corrected" in out
        assert "decommissioned_groups" in out

    def test_json_carries_fault_summary(self, capsys):
        import json

        assert main([
            "faults", "cameo", "astar", "--accesses", "400", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fault_summary" in payload
        assert payload["fault_summary"]["audits"] >= 0


class TestCampaignCommand:
    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "campaign.json")
        argv = [
            "campaign", "--checkpoint", checkpoint,
            "--orgs", "baseline,cameo", "--workloads", "astar",
            "--accesses", "40", "--scale-shift", "14",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2/2 points complete" in first

        # Re-invoking with the same checkpoint re-runs nothing.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resume: 2 points already complete" in second
        assert "start:" not in second

    def test_failed_points_flip_the_exit_code(self, tmp_path, capsys):
        assert main([
            "campaign", "--checkpoint", str(tmp_path / "c.json"),
            "--orgs", "baseline,no-such-org", "--workloads", "astar",
            "--accesses", "40", "--scale-shift", "14", "--attempts", "1",
        ]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestPlanCommand:
    def write_plan(self, tmp_path, text=None):
        path = tmp_path / "p.yaml"
        path.write_text(text or (
            "plan: repro-campaign-plan\n"
            "version: 1\n"
            "name: cli-test\n"
            "defaults: {accesses: 200}\n"
            "stages:\n"
            "  - name: only\n"
            "    grid:\n"
            "      orgs: [baseline, cameo]\n"
            "      workloads: [mcf]\n"
        ))
        return str(path)

    def test_validate_prints_the_shape(self, tmp_path, capsys):
        assert main(["plan", "validate", self.write_plan(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "plan is valid" in out
        assert "2 cell(s)" in out

    def test_validate_rejects_bad_plans_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("plan: repro-campaign-plan\nversion: 7\nname: x\nstages:\n  - name: a\n")
        assert main(["plan", "validate", str(path)]) == 2
        assert "version" in capsys.readouterr().err

    def test_run_status_resume_cycle(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        status = str(tmp_path / "s.json")
        export1 = str(tmp_path / "e1.json")
        assert main(["plan", "run", plan, "--status", status,
                     "--export", export1]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s) simulated" in out

        assert main(["plan", "status", status]) == 0
        assert "completed" in capsys.readouterr().out

        export2 = str(tmp_path / "e2.json")
        assert main(["plan", "run", plan, "--status", status, "--resume",
                     "--export", export2]) == 0
        assert "2 served from the store" in capsys.readouterr().out
        with open(export1, "rb") as a, open(export2, "rb") as b:
            assert a.read() == b.read()

    def test_failed_stage_flips_the_exit_code(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, (
            "plan: repro-campaign-plan\n"
            "version: 1\n"
            "name: cli-fail\n"
            "stages:\n"
            "  - name: broken\n"
            "    failure_policy: {on_failure: continue}\n"
            "    grid:\n"
            "      orgs: [cameo]\n"
            "      trace: missing.trace\n"
        ))
        assert main(["plan", "run", plan]) == 1
        assert "failed" in capsys.readouterr().out


class TestIngestCommand:
    def write_trace(self, tmp_path):
        out = str(tmp_path / "t.trace")
        assert main(["trace", "mcf", out, "-n", "120",
                     "--footprint-pages", "8"]) == 0
        return out

    def test_trace_dump_is_ingestable(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        capsys.readouterr()
        assert main(["ingest", path]) == 0
        out = capsys.readouterr().out
        assert "120 record(s)" in out
        assert "sha256:" in out

    def test_json_report_and_quarantine_file(self, tmp_path, capsys):
        import json

        path = self.write_trace(tmp_path)
        lines = open(path).read().splitlines(True)
        lines[-1] = "broken line\n"
        open(path, "w").writelines(lines)
        capsys.readouterr()
        quarantine = str(tmp_path / "q.txt")
        assert main(["ingest", path, "--json", "--error-budget", "2",
                     "--quarantine", quarantine]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quarantined"] == 1
        assert payload["checksum_verified"] is False
        assert payload["quarantine"][0]["text"] == "broken line"
        assert "broken line" in open(quarantine).read()

    def test_budget_exceeded_exits_2(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        lines = open(path).read().splitlines(True)
        for i in range(1, 4):
            lines[-i] = "bad\n"
        open(path, "w").writelines(lines)
        capsys.readouterr()
        assert main(["ingest", path, "--error-budget", "1"]) == 2
        assert "budget" in capsys.readouterr().err


class TestDispatchFlag:
    def test_per_cell_dispatch_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "2", "--jobs", "2", "--dispatch", "per-cell"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'per-cell'" in capsys.readouterr().err

    def test_per_cell_env_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_DISPATCH", "per-cell")
        assert main(["figure", "2", "--accesses", "100", "--jobs", "2",
                     "--no-result-cache"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_DISPATCH='per-cell'" in err
        assert "accepted values: pool, remote" in err
