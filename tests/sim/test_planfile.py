"""Tests for declarative campaign plans (repro.sim.planfile)."""

import json
import os
import signal
from pathlib import Path

import pytest

from repro.errors import InterruptedRunError, PlanError, PlanExecutionError
from repro.sim.planfile import (
    CampaignPlan,
    load_plan,
    load_status,
    parse_plan,
    parse_plan_source,
    run_plan,
    write_status,
)
from repro.sim.result_store import ResultStore, SharedDirBackend, use_result_store
from repro.sim.supervisor import SupervisorPolicy
from repro.workloads.ingest import write_trace_file
from repro.workloads.trace import records_from_raw

ACCESSES = 240


def plan_text(**overrides):
    base = {
        "plan": "repro-campaign-plan",
        "version": 1,
        "name": "t",
        "defaults": {"accesses": ACCESSES},
        "stages": [
            {
                "name": "first",
                "grid": {"orgs": ["baseline", "cameo"], "workloads": ["mcf"]},
            },
            {
                "name": "second",
                "depends_on": ["first"],
                "grid": {"orgs": ["cameo"], "workloads": ["lbm"]},
            },
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def load(text, path="<plan>"):
    return parse_plan(parse_plan_source(text, path), path)


def write_tiny_trace(path, n=50, name="tiny", extra=()):
    raw = [(i % 64, 0x1000 + i, i % 2 == 0) for i in range(n)] + list(extra)
    write_trace_file(str(path), list(records_from_raw(raw)), name=name)
    return str(path)


class TestYamlSubsetParser:
    def test_nested_mappings_lists_and_scalars(self):
        data = parse_plan_source(
            "a:\n"
            "  b: 1\n"
            "  c: [x, 2, true]\n"
            "d:\n"
            "  - name: one\n"
            "    flag: false\n"
            "  - name: two\n"
            "e: 'quoted: text'  # comment\n"
            "f: null\n"
            "g: 1.5\n"
        )
        assert data == {
            "a": {"b": 1, "c": ["x", 2, True]},
            "d": [{"name": "one", "flag": False}, {"name": "two"}],
            "e": "quoted: text",
            "f": None,
            "g": 1.5,
        }

    def test_list_at_same_indent_as_key(self):
        data = parse_plan_source("stages:\n- a\n- b\n")
        assert data == {"stages": ["a", "b"]}

    def test_inline_mapping(self):
        data = parse_plan_source("p: {max_attempts: 2, on_failure: continue}\n")
        assert data == {"p": {"max_attempts": 2, "on_failure": "continue"}}

    def test_tabs_in_indentation_rejected_with_line(self):
        with pytest.raises(PlanError, match=r"<plan>:2: tabs"):
            parse_plan_source("a:\n\tb: 1\n")

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(PlanError, match=r"<plan>:2: duplicate key 'a'"):
            parse_plan_source("a: 1\na: 2\n")

    def test_unterminated_inline_list_rejected(self):
        with pytest.raises(PlanError, match="unterminated"):
            parse_plan_source("a: [1, 2\n")

    def test_stray_indent_rejected(self):
        with pytest.raises(PlanError, match="indent"):
            parse_plan_source("a: 1\n    b: 2\n")

    def test_json_documents_accepted(self):
        assert parse_plan_source('{"a": [1, 2]}') == {"a": [1, 2]}

    def test_invalid_json_names_the_line(self):
        with pytest.raises(PlanError, match="invalid JSON"):
            parse_plan_source('{"a": }', "p.json")

    def test_empty_document_rejected(self):
        with pytest.raises(PlanError, match="empty"):
            parse_plan_source("# nothing here\n")


class TestPlanValidation:
    def test_valid_plan_parses(self):
        plan = load(plan_text())
        assert isinstance(plan, CampaignPlan)
        assert [s.name for s in plan.stages] == ["first", "second"]
        assert plan.stages[0].grid.accesses == ACCESSES  # default applied

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(PlanError, match="unknown key"):
            load(plan_text(surprise=1))
        # "endpoints" is not a stage key.
        data = json.loads(plan_text())
        data["stages"][0]["endpoints"] = ["10.0.0.2:7463"]
        with pytest.raises(PlanError, match=r"stages\[0\]: unknown key\(s\) endpoints"):
            load(json.dumps(data))

    def test_wrong_kind_and_version_rejected(self):
        with pytest.raises(PlanError, match="'plan' must be"):
            load(plan_text(plan="something-else"))
        with pytest.raises(PlanError, match="version"):
            load(plan_text(version=2))

    def test_unknown_org_workload_experiment_rejected(self):
        bad_org = json.loads(plan_text())
        bad_org["stages"][0]["grid"]["orgs"] = ["warp-drive"]
        with pytest.raises(PlanError, match="warp-drive"):
            load(json.dumps(bad_org))
        bad_wl = json.loads(plan_text())
        bad_wl["stages"][0]["grid"]["workloads"] = ["nonsense"]
        with pytest.raises(PlanError, match="nonsense"):
            load(json.dumps(bad_wl))
        bad_exp = json.loads(plan_text())
        bad_exp["stages"][0] = {"name": "first", "experiments": ["figure99"]}
        with pytest.raises(PlanError, match="figure99"):
            load(json.dumps(bad_exp))

    def test_grid_and_experiments_mutually_exclusive(self):
        data = json.loads(plan_text())
        data["stages"][0]["experiments"] = ["figure2"]
        with pytest.raises(PlanError, match="exactly one"):
            load(json.dumps(data))
        data["stages"][0] = {"name": "first"}
        with pytest.raises(PlanError, match="exactly one"):
            load(json.dumps(data))

    def test_unknown_dependency_self_dependency_and_cycle_rejected(self):
        data = json.loads(plan_text())
        data["stages"][1]["depends_on"] = ["ghost"]
        with pytest.raises(PlanError, match="ghost"):
            load(json.dumps(data))
        data["stages"][1]["depends_on"] = ["second"]
        with pytest.raises(PlanError, match="itself"):
            load(json.dumps(data))
        data["stages"][1]["depends_on"] = ["first"]
        data["stages"][0]["depends_on"] = ["second"]
        with pytest.raises(PlanError, match="cycle"):
            load(json.dumps(data))

    def test_duplicate_stage_names_rejected(self):
        data = json.loads(plan_text())
        data["stages"][1]["name"] = "first"
        data["stages"][1].pop("depends_on")
        with pytest.raises(PlanError, match="twice"):
            load(json.dumps(data))

    def test_bad_on_failure_mode_rejected(self):
        data = json.loads(plan_text())
        data["stages"][0]["failure_policy"] = {"on_failure": "explode"}
        with pytest.raises(PlanError, match="explode"):
            load(json.dumps(data))

    @pytest.mark.parametrize("policy", [
        {"max_attempts": 0}, {"backoff_seconds": -1}, {"timeout_seconds": 0},
        {"hang_timeout_seconds": -2.5},
    ], ids=["attempts", "backoff", "timeout", "hang-timeout"])
    def test_bad_failure_policy_values_rejected(self, policy):
        data = json.loads(plan_text())
        data["stages"][0]["failure_policy"] = policy
        with pytest.raises(PlanError, match=next(iter(policy))):
            load(json.dumps(data))

    @pytest.mark.parametrize("policy, message", [
        ({"timeout_seconds": 0.0005},
         "timeout_seconds must be a number >= 0.001 (MIN_TIMEOUT_SECONDS"),
        ({"max_attempts": "3"}, "max_attempts must be an integer >= 1, got '3'"),
        ({"max_rss_mb": 0}, "max_rss_mb must be an integer >= 1, got 0"),
        ({"max_rss_mb": 1.5}, "max_rss_mb must be an integer >= 1, got 1.5"),
    ], ids=["sub-floor-timeout", "string-attempts", "zero-rss", "float-rss"])
    def test_policy_errors_name_the_stage_and_the_plan_key(
        self, policy, message
    ):
        data = json.loads(plan_text())
        data["stages"][1]["failure_policy"] = policy
        with pytest.raises(PlanError) as excinfo:
            load(json.dumps(data))
        assert str(excinfo.value).startswith(
            "<plan>: stage 'second'.failure_policy: "
        )
        assert message in str(excinfo.value)

    def test_bad_default_policy_is_named_as_a_default(self):
        data = json.loads(plan_text())
        data["defaults"]["failure_policy"] = {"backoff_seconds": -1}
        data["stages"][0]["failure_policy"] = {"backoff_seconds": 0}
        with pytest.raises(PlanError, match=r"defaults\.failure_policy: "
                           "backoff_seconds must be a number >= 0"):
            load(json.dumps(data))

    def test_failure_policy_maps_onto_the_supervisor_policy(self):
        data = json.loads(plan_text())
        data["stages"][0]["failure_policy"] = {
            "max_attempts": 2, "backoff_seconds": 0, "timeout_seconds": 9,
            "hang_timeout_seconds": 4.5, "max_rss_mb": 3,
            "on_failure": "continue",
        }
        stage = load(json.dumps(data)).stages[0]
        assert stage.policy == SupervisorPolicy(
            max_attempts=2, backoff_base_seconds=0, timeout_seconds=9,
            hang_timeout_seconds=4.5, max_rss_bytes=3 * 1024 * 1024,
        )
        assert stage.on_failure == "continue"

    def test_fallback_requires_explicit_opt_in(self):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"],
            "trace": "t.trace",
            "fallback_workloads": ["mcf"],
        }
        with pytest.raises(PlanError, match="allow_synthetic_fallback"):
            load(json.dumps(data))
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"],
            "trace": "t.trace",
            "allow_synthetic_fallback": True,
        }
        with pytest.raises(PlanError, match="fallback_workloads"):
            load(json.dumps(data))

    def test_default_failure_policy_merges_with_stage_overrides(self):
        data = json.loads(plan_text())
        data["defaults"]["failure_policy"] = {
            "max_attempts": 4, "on_failure": "continue",
        }
        data["stages"][0]["failure_policy"] = {"on_failure": "abort"}
        plan = load(json.dumps(data))
        assert plan.stages[0].policy == SupervisorPolicy(max_attempts=4)
        assert plan.stages[0].on_failure == "abort"
        assert plan.stages[1].policy == SupervisorPolicy(max_attempts=4)
        assert plan.stages[1].on_failure == "continue"

    def test_execution_order_is_topological(self):
        data = json.loads(plan_text())
        data["stages"].insert(0, dict(data["stages"][1]))
        data["stages"][0]["name"] = "zeroth"
        plan = load(json.dumps(data))
        order = plan.execution_order()
        assert order.index("first") < order.index("zeroth")
        assert order.index("first") < order.index("second")


class TestStatusFile:
    def test_load_rejects_missing_foreign_and_malformed(self, tmp_path):
        with pytest.raises(PlanError, match="unreadable"):
            load_status(str(tmp_path / "missing.json"))
        path = tmp_path / "s.json"
        path.write_text("{}")
        with pytest.raises(PlanError, match="kind"):
            load_status(str(path))
        path.write_text(json.dumps({
            "kind": "repro-plan-status", "version": 3, "plan_name": "t",
            "stages": {"a": {"state": "launched"}},
        }))
        with pytest.raises(PlanError):
            load_status(str(path))
        # Version 1 banked every result in the file, and version 2 kept
        # a fingerprint per stage; both are refused by name, not
        # migrated.
        path.write_text(json.dumps({
            "kind": "repro-plan-status", "version": 1, "plan_name": "t",
            "stages": {}, "results": {},
        }))
        with pytest.raises(PlanError, match="version 1, expected 3"):
            load_status(str(path))
        path.write_text(json.dumps({
            "kind": "repro-plan-status", "version": 2, "plan_name": "t",
            "stages": {"a": {
                "state": "completed", "fingerprint": "f", "attempts": 1,
                "incidents": [], "cells_total": 2, "cells_failed": 0,
            }},
        }))
        with pytest.raises(PlanError, match="version 2, expected 3"):
            load_status(str(path))
        for extra in ({"results": {}}, {"fingerprint": "f"}):
            stages = {"a": {
                "state": "completed", "attempts": 1, "incidents": [],
                "cells_total": 2, "cells_failed": 0,
            }}
            payload = {"kind": "repro-plan-status", "version": 3,
                       "plan_name": "t", "stages": stages}
            if "results" in extra:
                payload.update(extra)
            else:
                stages["a"].update(extra)
            path.write_text(json.dumps(payload))
            with pytest.raises(PlanError, match=next(iter(extra))):
                load_status(str(path))

    def test_write_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "s.json")
        status = {
            "kind": "repro-plan-status", "version": 3, "plan_name": "t",
            "stages": {"a": {
                "state": "completed", "attempts": 1,
                "incidents": [], "cells_total": 2, "cells_failed": 0,
            }},
        }
        write_status(path, status)
        assert load_status(path) == status


def stored_cells(status_path):
    """The result-store entries a plan run keeps next to its status file."""
    return sorted(Path(status_path + ".results").glob("*/*.result.json"))


class TestRunPlan:
    def run(self, text, tmp_path, resume=False, n_jobs=1, log=None,
            export=None, status_name="s.json"):
        plan = load(text)
        status_path = str(tmp_path / status_name)
        with use_result_store(None):
            report = run_plan(
                plan, status_path, n_jobs=n_jobs, log=log, resume=resume,
                export_path=export,
            )
        return report, status_path

    def test_runs_stages_in_order_and_persists_status(self, tmp_path):
        report, status_path = self.run(plan_text(), tmp_path)
        states = {
            name: entry["state"]
            for name, entry in report.status["stages"].items()
        }
        assert states == {"first": "completed", "second": "completed"}
        persisted = load_status(status_path)
        assert persisted["stages"]["first"]["cells_total"] == 2
        assert "results" not in persisted
        assert len(stored_cells(status_path)) == 3

    def test_resume_serves_every_cell_from_the_banked_results(self, tmp_path):
        _, status_path = self.run(plan_text(), tmp_path)
        report, _ = self.run(plan_text(), tmp_path, resume=True)
        outcomes = [o for v in report.outcomes.values() for o in v]
        assert outcomes and all(o.cached for o in outcomes)

    def test_stage_max_attempts_is_not_capped_by_the_run_budget(
        self, tmp_path, monkeypatch
    ):
        # Every cell's first four attempts crash its worker: only the
        # declared five attempts per cell get the stage through.
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "crash=1.0,max_attempt=4,seed=0"
        )
        data = json.loads(plan_text())
        data["stages"] = [{
            "name": "only",
            "grid": {"orgs": ["baseline", "cameo"], "workloads": ["mcf"]},
            "failure_policy": {"max_attempts": 5, "backoff_seconds": 0},
        }]
        report, _ = self.run(json.dumps(data), tmp_path, n_jobs=2)
        assert report.succeeded
        assert [o.attempts for o in report.outcomes["only"]] == [5, 5]

    def test_describe_counts_failed_cells_apart_from_simulated_ones(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "crash=1.0,max_attempt=9,seed=0"
        )
        data = json.loads(plan_text())
        data["stages"] = [{
            "name": "only",
            "grid": {"orgs": ["baseline", "cameo"], "workloads": ["mcf"]},
            "failure_policy": {"max_attempts": 1, "on_failure": "continue"},
        }]
        report, _ = self.run(json.dumps(data), tmp_path, n_jobs=2)
        assert not report.succeeded
        assert report.describe().endswith(
            "; 0 cell(s) simulated, 0 served from the store, 2 failed"
        )

    def test_undecodable_banked_cell_is_simulated_again(self, tmp_path):
        _, status_path = self.run(plan_text(), tmp_path)
        drifted = stored_cells(status_path)[0]
        entry = json.loads(drifted.read_text())
        del entry["result"]["total_cycles"]
        drifted.write_text(json.dumps(entry))
        report, _ = self.run(plan_text(), tmp_path, resume=True)
        outcomes = [o for v in report.outcomes.values() for o in v]
        assert [o.cached for o in outcomes].count(False) == 1
        assert "total_cycles" in json.loads(drifted.read_text())["result"]

    def test_a_fresh_run_empties_the_plan_store(self, tmp_path):
        _, status_path = self.run(plan_text(), tmp_path)
        report, _ = self.run(plan_text(), tmp_path)
        outcomes = [o for v in report.outcomes.values() for o in v]
        assert outcomes and not any(o.cached for o in outcomes)
        assert len(stored_cells(status_path)) == 3

    def test_a_fresh_run_never_clears_a_disk_store(self, tmp_path):
        """Under ``REPRO_RESULT_CACHE=disk`` the shared store is the
        plan's checkpoint: a run without --resume serves from it."""
        plan = load(plan_text())
        status_path = str(tmp_path / "s.json")
        shared = str(tmp_path / "shared")
        for _ in range(2):
            with use_result_store(ResultStore(backend=SharedDirBackend(shared))):
                report = run_plan(plan, status_path)
        assert all(o.cached for v in report.outcomes.values() for o in v)
        assert not os.path.exists(status_path + ".results")
        assert len(list(Path(shared).glob("*/*.result.json"))) == 3

    def test_resume_refuses_a_foreign_status_file(self, tmp_path):
        _, status_path = self.run(plan_text(), tmp_path)
        with pytest.raises(PlanError, match="belongs to plan"):
            self.run(plan_text(name="other"), tmp_path, resume=True)

    def test_abort_policy_stops_the_plan_and_records_the_stage(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"], "trace": str(tmp_path / "missing.trace"),
        }
        with pytest.raises(PlanExecutionError) as excinfo:
            self.run(json.dumps(data), tmp_path)
        assert excinfo.value.stage == "first"
        status = load_status(str(tmp_path / "s.json"))
        assert status["stages"]["first"]["state"] == "failed"
        assert status["stages"]["second"]["state"] == "pending"

    def test_continue_policy_runs_the_dependents(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"], "trace": str(tmp_path / "missing.trace"),
        }
        data["stages"][0]["failure_policy"] = {"on_failure": "continue"}
        report, _ = self.run(json.dumps(data), tmp_path)
        states = {
            name: entry["state"]
            for name, entry in report.status["stages"].items()
        }
        assert states == {"first": "failed", "second": "completed"}

    def test_skip_dependents_policy_skips_only_downstream(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"], "trace": str(tmp_path / "missing.trace"),
        }
        data["stages"][0]["failure_policy"] = {"on_failure": "skip-dependents"}
        data["stages"].append(
            {"name": "loner", "grid": {"orgs": ["baseline"], "workloads": ["mcf"]}}
        )
        report, _ = self.run(json.dumps(data), tmp_path)
        states = {
            name: entry["state"]
            for name, entry in report.status["stages"].items()
        }
        assert states == {
            "first": "failed", "second": "skipped", "loner": "completed",
        }
        assert "second" not in report.outcomes

    def test_trace_stage_simulates_the_ingested_trace(self, tmp_path):
        trace_path = write_tiny_trace(tmp_path / "t.trace", n=80)
        data = json.loads(plan_text())
        data["stages"][1]["grid"] = {"orgs": ["cameo"], "trace": trace_path}
        report, _ = self.run(json.dumps(data), tmp_path)
        keys = [o.job.key for o in report.outcomes["second"]]
        assert keys == ["cameo/tiny/s0"]

    def test_fallback_degrades_only_when_allowed_and_records_incident(
        self, tmp_path
    ):
        data = json.loads(plan_text())
        data["stages"][1]["grid"] = {
            "orgs": ["cameo"],
            "trace": str(tmp_path / "missing.trace"),
            "allow_synthetic_fallback": True,
            "fallback_workloads": ["mcf"],
        }
        report, _ = self.run(json.dumps(data), tmp_path)
        entry = report.status["stages"]["second"]
        assert entry["state"] == "completed"
        assert any("degrading" in line for line in entry["incidents"])
        assert [o.job.workload for o in report.outcomes["second"]] == ["mcf"]

    def test_export_is_deterministic_across_interrupt_and_resume(
        self, tmp_path
    ):
        from tests.sim.test_plan import interrupt_after

        clean = str(tmp_path / "clean.json")
        self.run(plan_text(), tmp_path, export=clean, status_name="c.json")
        with pytest.raises(InterruptedRunError):
            self.run(
                plan_text(), tmp_path, log=interrupt_after(1),
                status_name="i.json",
            )
        status_path = str(tmp_path / "i.json")
        status = load_status(status_path)
        assert status["stages"]["first"]["state"] == "interrupted"
        assert len(stored_cells(status_path)) == 1  # the settled prefix
        resumed = str(tmp_path / "resumed.json")
        report, _ = self.run(
            plan_text(), tmp_path, resume=True, export=resumed,
            status_name="i.json",
        )
        cached = [o.cached for v in report.outcomes.values() for o in v]
        assert cached.count(True) == 1
        with open(clean, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()

    def test_settled_cells_are_banked_before_the_stage_ends(self, tmp_path):
        """A kill mid-stage keeps what settled: each cell is stored the
        moment it settles, not at stage transitions."""

        class Killed(BaseException):
            """Escapes every handler, as SIGKILL would."""

        def kill_at_third_cell(message):
            if message.startswith("done:"):
                done.append(message)
                if len(done) == 3:
                    raise Killed

        done = []
        data = json.loads(plan_text())
        data["stages"] = [{"name": "only", "grid": {
            "orgs": ["baseline", "cameo"], "workloads": ["mcf"],
            "seeds": [0, 1],
        }}]
        with pytest.raises(Killed):
            self.run(json.dumps(data), tmp_path, log=kill_at_third_cell)
        status_path = str(tmp_path / "s.json")
        status = load_status(status_path)
        assert status["stages"]["only"]["state"] == "running"
        assert len(stored_cells(status_path)) == 3

    def test_plan_edit_between_resumes_simulates_only_changed_cells(
        self, tmp_path
    ):
        self.run(plan_text(), tmp_path)
        data = json.loads(plan_text())
        data["stages"][0]["grid"]["seeds"] = [0, 3]
        report, status_path = self.run(json.dumps(data), tmp_path, resume=True)
        # The edited stage simulates its new cells only...
        assert [o.cached for o in report.outcomes["first"]] == [
            True, False, True, False,
        ]
        # ...and its dependent's unchanged cell is served from the store:
        # cells are content-addressed, wherever they sit in the plan.
        assert all(o.cached for o in report.outcomes["second"])
        # The status carries each stage's entry over by name.
        stages = load_status(status_path)["stages"]
        assert stages["first"]["attempts"] == 2
        assert stages["second"]["attempts"] == 1

    def test_failure_policy_edit_between_resumes_serves_every_cell(
        self, tmp_path
    ):
        self.run(plan_text(), tmp_path)
        data = json.loads(plan_text())
        data["stages"][0]["failure_policy"] = {
            "max_attempts": 7, "timeout_seconds": 60,
        }
        report, _ = self.run(json.dumps(data), tmp_path, resume=True)
        outcomes = [o for v in report.outcomes.values() for o in v]
        assert len(outcomes) == 3 and all(o.cached for o in outcomes)

    def test_trace_content_decides_what_a_resume_simulates(self, tmp_path):
        write_tiny_trace(tmp_path / "a.trace")
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {"orgs": ["cameo"], "trace": "a.trace"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        status_path = str(tmp_path / "s.json")

        def run(resume):
            with use_result_store(None):
                report = run_plan(load_plan(str(path)), status_path,
                                  resume=resume)
            return [o.cached for o in report.outcomes["first"]]

        assert run(resume=False) == [False]
        # New content at the same path: its cell simulates again.
        write_tiny_trace(tmp_path / "a.trace", extra=[(5, 5, False)])
        assert run(resume=True) == [False]
        # The same bytes written again: served from the store.
        write_tiny_trace(tmp_path / "a.trace", extra=[(5, 5, False)])
        assert run(resume=True) == [True]

    def test_experiments_stage_executes_planner_jobs(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"] = [
            {"name": "fig", "experiments": ["figure2"], "accesses": 120}
        ]
        report, _ = self.run(json.dumps(data), tmp_path)
        assert report.status["stages"]["fig"]["state"] == "completed"
        assert len(report.outcomes["fig"]) > 10
