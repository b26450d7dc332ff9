"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import FIGURES, main


@pytest.fixture
def disk_store(tmp_path, monkeypatch):
    """A ``REPRO_RESULT_CACHE=disk`` store of this case's own."""
    from repro.sim.result_store import clear_default_result_store

    store = tmp_path / "store"
    monkeypatch.setenv("REPRO_RESULT_CACHE", "disk")
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(store))
    clear_default_result_store()
    yield store
    clear_default_result_store()


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

    def test_out_writes_each_rendered_artifact(self, tmp_path, capsys):
        from repro.analysis.verification import paper_claims, render_claims
        from repro.experiments import run_figure3, run_figure8
        from repro.experiments import run_figure13, run_table3

        out = tmp_path / "results"
        assert main([
            "paper", "--experiments", "figure13,table3", "--accesses", "120",
            "--no-result-cache", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        figure13 = run_figure13(accesses_per_context=120)
        table3 = run_table3(accesses_per_context=120)
        expected = {
            "figure13.txt": figure13.render(),
            "table3.txt": table3.render(),
            "figure3.txt": run_figure3().render(),
            "figure8.txt": run_figure8().render(),
            "verification.txt": render_claims(
                paper_claims(figure13, table3),
                title="Paper-vs-measured verification",
            ),
        }
        assert sorted(os.listdir(out)) == sorted(expected)
        for name, text in expected.items():
            assert (out / name).read_text() == text + "\n", name

    def test_out_skips_verification_without_figure13_and_table3(
        self, tmp_path, capsys
    ):
        out = tmp_path / "results"
        assert main([
            "paper", "--experiments", "figure13", "--accesses", "120",
            "--out", str(out),
        ]) == 0
        assert sorted(os.listdir(out)) == [
            "figure13.txt", "figure3.txt", "figure8.txt",
        ]

    @pytest.mark.parametrize("flag", ["--resume", "--manifest"])
    def test_retired_checkpoint_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["paper", flag, "x", "--dry-run"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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
        # A non-positive timeout fails plan validation (a PlanError),
        # surfaced the same way, before anything simulates.
        assert main([
            "campaign", "--checkpoint", str(tmp_path / "c.json"),
            "--timeout", "-1",
        ]) == 2
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "c.json").exists()

    def test_sub_floor_campaign_timeout_exits_2_before_simulating(
        self, tmp_path, capsys
    ):
        assert main([
            "campaign", "--checkpoint", str(tmp_path / "c.json"),
            "--timeout", "0.0005",
        ]) == 2
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "stage 'campaign'" in lines[0]
        assert "must be a number >= 0.001 (MIN_TIMEOUT_SECONDS" in lines[0]
        assert "done:" not in captured.out
        assert not (tmp_path / "c.json").exists()


class TestTraceCacheKnob:
    def test_retired_disk_mode_exits_2_naming_the_accepted_values(
        self, monkeypatch, capsys
    ):
        from repro.sim.result_store import use_result_store

        monkeypatch.setenv("REPRO_TRACE_CACHE", "disk")
        # An empty store, as a fresh process has: the cell must need
        # its traces.
        with use_result_store(None):
            assert main(["run", "cameo", "mcf", "--accesses", "40"]) == 2
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "REPRO_TRACE_CACHE" in lines[0]
        assert "accepted values: memory, off" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["run", "cameo", "astar", "--accesses", "40"],
        ["figure", "2", "--accesses", "40"],
    ], ids=["run", "figure"])
    def test_bad_mode_exits_2_over_a_warm_store(
        self, argv, disk_store, monkeypatch, capsys
    ):
        """A store that would serve every cell does not hide the bad
        value."""
        assert main(argv) == 0  # warms the store
        capsys.readouterr()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "disk")
        assert main(argv) == 2
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "accepted values: memory, off" in lines[0]


class TestResultStoreErrors:
    @pytest.fixture(autouse=True)
    def fresh_default_store(self):
        """Each case starts and ends without a process-wide store."""
        from repro.sim.result_store import clear_default_result_store

        clear_default_result_store()
        yield
        clear_default_result_store()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_store_exits_2_before_simulating(
        self, jobs, tmp_path, monkeypatch, capsys
    ):
        from repro.sim import plan

        blocker = tmp_path / "file"
        blocker.write_text("")
        directory = str(blocker / "store")
        monkeypatch.setenv("REPRO_RESULT_CACHE", "disk")
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", directory)
        dispatched = []
        run_many = plan.run_many

        def spy(jobs, *args, **kwargs):
            dispatched.extend(jobs)
            return run_many(jobs, *args, **kwargs)

        monkeypatch.setattr(plan, "run_many", spy)
        assert main(["figure", "2", "--accesses", "40", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert directory in lines[0]
        assert dispatched == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_chaos_knob_exits_2_at_any_job_count(
        self, jobs, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_INJECT_WORKER_FAULTS", "seed=nan")
        assert main(["figure", "2", "--accesses", "40", "--jobs", jobs]) == 2
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "seed" in lines[0]


class TestInterruptMessage:
    """A SIGINT mid-grid exits 3 and says where the settled cells went."""

    FIGURE = ["figure", "2", "--accesses", "40"]

    @staticmethod
    def interrupted(argv, monkeypatch, capsys):
        """Run ``argv`` with a SIGINT as its second in-process cell
        starts: that cell finishes and is kept, so two cells settle."""
        import signal

        from repro.sim import parallel

        run_job = parallel.run_job
        started = []

        def interrupt_on_second_cell(job):
            started.append(job)
            if len(started) == 2:
                os.kill(os.getpid(), signal.SIGINT)
            return run_job(job)

        monkeypatch.setattr(parallel, "run_job", interrupt_on_second_cell)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "interrupted: interrupted by SIGINT: 2 of " in err
        assert "flushed" not in err
        return err

    def test_memory_store_keeps_nothing(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        err = self.interrupted(self.FIGURE, monkeypatch, capsys)
        assert "settled cells were not kept (result store: memory)" in err

    def test_disk_store_names_its_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "disk")
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        err = self.interrupted(self.FIGURE, monkeypatch, capsys)
        assert f"settled cells are stored in {tmp_path}; re-run" in err
        assert list(tmp_path.glob("*/*.result.json"))  # the settled cell

    def test_campaign_names_its_plan_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        checkpoint = tmp_path / "c.json"
        err = self.interrupted(
            ["campaign", "--checkpoint", str(checkpoint),
             "--orgs", "baseline,cameo", "--workloads", "astar",
             "--accesses", "40", "--scale-shift", "14"],
            monkeypatch, capsys,
        )
        assert f"settled cells are stored in {checkpoint}.results; " in err
        assert len(list(tmp_path.glob("c.json.results/*/*.result.json"))) == 2

    def test_plan_run_names_its_plan_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        plan = TestPlanCommand().write_plan(tmp_path)
        status = tmp_path / "s.json"
        err = self.interrupted(
            ["plan", "run", plan, "--status", str(status)],
            monkeypatch, capsys,
        )
        assert f"settled cells are stored in {status}.results; continue " in err
        assert "--resume" in err


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

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--attempts", "0"), ("--orgs", ","),
    ], ids=["workers", "attempts", "empty-orgs"])
    def test_campaign_grid_and_counts_checked_at_parse_time(
        self, tmp_path, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--checkpoint", str(tmp_path / "c.json"),
                  flag, value])
        assert excinfo.value.code == 2
        assert not (tmp_path / "c.json").exists()

    def test_campaign_has_no_single_seed_flag(self, tmp_path):
        # Seeds come from --seeds; a --seed that was parsed and then
        # ignored would checkpoint seed 0 under the caller's nose.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--checkpoint", str(tmp_path / "c.json"),
                  "--orgs", "baseline", "--workloads", "astar",
                  "--accesses", "40", "--scale-shift", "14", "--seed", "5"])
        assert excinfo.value.code == 2
        assert not (tmp_path / "c.json").exists()


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
    TINY = ["--accesses", "40", "--scale-shift", "14"]

    @staticmethod
    def campaign(*argv):
        """One ``repro campaign`` invocation, as a fresh process sees it.

        The memory result store starts empty, so only the checkpoint can
        serve a cell — not the cells earlier tests left in this process.
        """
        from repro.sim.result_store import ResultStore, use_result_store

        with use_result_store(ResultStore()):
            return main(["campaign", *argv])

    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "nested" / "campaign.json")
        argv = [
            "--checkpoint", checkpoint,
            "--orgs", "baseline,cameo", "--workloads", "astar", *self.TINY,
        ]
        assert self.campaign(*argv) == 0
        first = capsys.readouterr().out
        assert "2/2 points complete" in first
        assert "2 cell(s) simulated" in first

        # Re-invoking with the same checkpoint re-runs nothing.
        assert self.campaign(*argv) == 0
        second = capsys.readouterr().out
        assert "0 cell(s) simulated, 2 served from the store" in second
        assert "2/2 points complete" in second
        assert f"results in {checkpoint}.results" in second

        # The checkpoint is a plan status file, written atomically, next
        # to the store its cells are in.
        assert main(["plan", "status", checkpoint]) == 0
        assert "campaign  completed" in capsys.readouterr().out
        assert sorted(os.listdir(tmp_path / "nested")) == [
            "campaign.json", "campaign.json.results",
        ]

    def test_table_lists_every_point_in_grid_order(self, tmp_path, capsys):
        assert self.campaign(
            "--checkpoint", str(tmp_path / "c.json"),
            "--orgs", "baseline,cameo", "--workloads", "astar",
            "--seeds", "0,1", *self.TINY,
        ) == 0
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines()
                if "  ok  " in line]
        assert rows == [
            "baseline/astar/s0", "baseline/astar/s1",
            "cameo/astar/s0", "cameo/astar/s1",
        ]

    def test_results_equal_run_workload(self, tmp_path, capsys):
        import json

        from repro.config.system import scaled_paper_system
        from repro.sim.result_store import (
            result_from_state, result_store_disabled, result_to_state,
        )
        from repro.sim.runner import run_workload

        checkpoint = tmp_path / "c.json"
        assert self.campaign(
            "--checkpoint", str(checkpoint),
            "--orgs", "baseline,cameo", "--workloads", "astar",
            "--seeds", "0,1", "--workers", "2", *self.TINY,
        ) == 0
        entries = (tmp_path / "c.json.results").glob("*/*.result.json")
        results = [json.loads(entry.read_text())["result"] for entry in entries]
        served = {
            (r.organization, r.provenance.seed): result_to_state(r)
            for r in map(result_from_state, results)
        }
        config = scaled_paper_system(scale_shift=14)
        with result_store_disabled():
            expected = {
                (org, seed): result_to_state(
                    run_workload(org, "astar", config, 40, seed)
                )
                for org in ("baseline", "cameo")
                for seed in (0, 1)
            }
        assert served == expected

    def test_failed_points_flip_the_exit_code(self, tmp_path, capsys,
                                              monkeypatch):
        # This spec crashes cameo/astar/s0's first attempt only, and one
        # attempt is all the budget there is.
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "crash=0.5,max_attempt=1,seed=1"
        )
        argv = [
            "--checkpoint", str(tmp_path / "c.json"),
            "--orgs", "baseline,cameo", "--workloads", "astar", *self.TINY,
            "--workers", "2", "--attempts", "1",
        ]
        assert self.campaign(*argv) == 1
        out = capsys.readouterr().out
        assert "1/2 points complete" in out
        assert ["cameo/astar/s0", "FAILED", "worker", "crashed"] in [
            line.split()[:4] for line in out.splitlines()
        ]

        # A re-run retries the failed point and serves the other.
        monkeypatch.delenv("REPRO_INJECT_WORKER_FAULTS")
        assert self.campaign(*argv) == 0
        assert "1 cell(s) simulated, 1 served" in capsys.readouterr().out

    def test_hung_point_times_out_and_is_reported(self, tmp_path, capsys,
                                                  monkeypatch):
        # Every first attempt hangs before simulating, so the 0.2s
        # budget always expires however fast the cell itself is.
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "hang=1.0,max_attempt=1,seed=0"
        )
        assert self.campaign(
            "--checkpoint", str(tmp_path / "c.json"),
            "--orgs", "cameo", "--workloads", "astar", *self.TINY,
            "--workers", "2", "--attempts", "1", "--timeout", "0.2",
        ) == 1
        assert "timeout after 0.2s" in capsys.readouterr().out

    def test_changed_grid_replans_and_serves_cells_by_fingerprint(
        self, tmp_path, capsys
    ):
        checkpoint = str(tmp_path / "c.json")
        base = ["--checkpoint", checkpoint, "--workloads", "astar", *self.TINY]
        assert self.campaign(*base, "--orgs", "baseline") == 0
        capsys.readouterr()
        assert self.campaign(*base, "--orgs", "baseline,cameo") == 0
        out = capsys.readouterr().out
        assert "1 cell(s) simulated, 1 served from the store" in out

    @pytest.mark.parametrize("case", [
        "unknown-org", "unknown-workload", "duplicate-seeds",
        "old-checkpoint", "corrupt-checkpoint",
    ])
    def test_bad_input_exits_2_before_simulating(self, tmp_path, capsys,
                                                 case):
        import json

        checkpoint = tmp_path / "c.json"
        grid = {"--orgs": "baseline,cameo", "--workloads": "astar",
                "--seeds": "0"}
        if case == "unknown-org":
            grid["--orgs"] = "baseline,no-such-org"
        elif case == "unknown-workload":
            grid["--workloads"] = "astar,no-such-workload"
        elif case == "duplicate-seeds":
            grid["--seeds"] = "0,1,0"
        elif case == "old-checkpoint":
            # What the checkpointed runner of earlier versions wrote.
            checkpoint.write_text(json.dumps({
                "version": 1, "spec": {}, "completed": {}, "failed": {},
            }))
        else:
            checkpoint.write_text("{not json")
        argv = [item for pair in grid.items() for item in pair]
        assert self.campaign(
            "--checkpoint", str(checkpoint), *argv, *self.TINY,
        ) == 2
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "done:" not in captured.out


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

    def test_validate_rejects_a_sub_floor_timeout(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, (
            "plan: repro-campaign-plan\n"
            "version: 1\n"
            "name: cli-floor\n"
            "stages:\n"
            "  - name: quick\n"
            "    failure_policy: {timeout_seconds: 0.0005}\n"
            "    grid:\n"
            "      orgs: [cameo]\n"
            "      workloads: [astar]\n"
        ))
        assert main(["plan", "validate", plan]) == 2
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(lines) == 1 and "stage 'quick'" in lines[0]
        assert "MIN_TIMEOUT_SECONDS" in lines[0]

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

    def test_hung_cell_fails_on_the_default_idle_budget(
        self, tmp_path, capsys, monkeypatch
    ):
        # No --hang-timeout and no hang_timeout_seconds in the plan: the
        # default idle budget (patched small) still kills the wedged
        # pool worker, and its cell fails instead of stalling the run.
        from repro.sim import supervisor

        monkeypatch.setattr(supervisor, "DEFAULT_HANG_TIMEOUT_SECONDS", 0.3)
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "hang=1.0,max_attempt=1,seed=0"
        )
        plan = self.write_plan(tmp_path, (
            "plan: repro-campaign-plan\n"
            "version: 1\n"
            "name: cli-hang\n"
            "defaults: {accesses: 200}\n"
            "stages:\n"
            "  - name: wedged\n"
            "    failure_policy: {on_failure: continue}\n"
            "    grid:\n"
            "      orgs: [cameo]\n"
            "      workloads: [astar]\n"
        ))
        journal = tmp_path / "j.jsonl"
        assert main(["plan", "run", plan, "--jobs", "2",
                     "--journal", str(journal)]) == 1
        assert "1 failed" in capsys.readouterr().out
        assert "hung: no progress for 0.3s" in journal.read_text()

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

    def test_no_result_cache_still_resumes_from_the_plan_store(
        self, tmp_path, capsys
    ):
        plan = self.write_plan(tmp_path)
        status = str(tmp_path / "s.json")
        argv = ["plan", "run", plan, "--status", status, "--no-result-cache"]
        assert main(argv) == 0
        assert "2 cell(s) simulated" in capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        assert "0 cell(s) simulated, 2 served" in capsys.readouterr().out
        assert main(["plan", "status", status]) == 0
        assert "2 cell(s) ok in settled stages" in capsys.readouterr().out


class TestJournalFlag:
    def test_journal_flag_is_scoped_to_its_command(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--journal`` must not leak into later commands of the process."""
        from repro.sim.supervisor import JOURNAL_ENV_VAR

        monkeypatch.delenv(JOURNAL_ENV_VAR, raising=False)
        argv = ["figure", "2", "--accesses", "40"]
        assert main([*argv, "--journal", str(tmp_path / "a.jsonl")]) == 0
        assert JOURNAL_ENV_VAR not in os.environ
        monkeypatch.setenv(JOURNAL_ENV_VAR, str(tmp_path / "outer.jsonl"))
        assert main([*argv, "--journal", str(tmp_path / "b.jsonl")]) == 0
        assert os.environ[JOURNAL_ENV_VAR] == str(tmp_path / "outer.jsonl")

    @pytest.mark.parametrize("command", ["figure", "paper", "plan"])
    def test_journal_flag_takes_precedence_over_the_env_journal(
        self, command, tmp_path, monkeypatch, capsys
    ):
        from repro.sim.supervisor import JOURNAL_ENV_VAR

        flag, env = tmp_path / "flag.jsonl", tmp_path / "env.jsonl"
        monkeypatch.setenv(JOURNAL_ENV_VAR, str(env))
        argv = {
            "figure": ["figure", "2", "--accesses", "40",
                       "--no-result-cache"],
            "paper": ["paper", "--experiments", "figure2", "--accesses", "40",
                      "--no-result-cache"],
            "plan": ["plan", "run", TestPlanCommand().write_plan(tmp_path),
                     "--status", str(tmp_path / "s.json")],
        }[command]
        assert main([*argv, "--jobs", "2", "--journal", str(flag)]) == 0
        events = [json.loads(line)["event"]
                  for line in flag.read_text().splitlines()]
        assert "pool_start" in events
        assert not env.exists()


class TestMaxAttempts:
    @pytest.mark.parametrize("argv", [
        ["figure", "2", "--accesses", "40"],
        ["paper", "--experiments", "figure2", "--accesses", "40"],
    ], ids=["figure", "paper"])
    def test_five_attempts_mean_five(
        self, argv, disk_store, tmp_path, monkeypatch, capsys
    ):
        """``--max-attempts 5`` gives each cell five tries, however many
        of the grid's cells need them all."""
        from repro.sim.result_store import clear_default_result_store

        assert main(argv) == 0  # stores every cell
        stored = sorted(disk_store.glob("*/*.result.json"))
        for entry in stored[:2]:
            entry.unlink()
        clear_default_result_store()  # as a fresh process finds it
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "crash=1.0,max_attempt=4,seed=0"
        )
        monkeypatch.setattr("repro.sim.supervisor.BACKOFF_MAX_SECONDS", 0.0)
        journal = tmp_path / "j.jsonl"
        assert main([*argv, "--jobs", "2", "--max-attempts", "5",
                     "--journal", str(journal)]) == 0
        events = [json.loads(line)["event"]
                  for line in journal.read_text().splitlines()]
        assert events.count("crash") == 8  # two cells, four crashes each
        assert len(list(disk_store.glob("*/*.result.json"))) == len(stored)


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
        """The pool is the only fan-out: there is no dispatch flag, no
        endpoint list and no `worker` command."""
        for argv in (
            ["figure", "2", "--jobs", "2", "--dispatch", "pool"],
            ["paper", "--jobs", "2", "--endpoints", "127.0.0.1:7463"],
            ["worker", "serve"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert "error:" in capsys.readouterr().err
