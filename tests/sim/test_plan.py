"""Tests for the deduplicating grid planner (repro.sim.plan)."""

import os
import signal

import pytest

from repro.errors import InterruptedRunError, ParallelError
from repro.sim.export import result_to_json
from repro.sim.parallel import SimJob, raise_on_failures, run_many
from repro.sim.plan import (
    PlannedExperiment,
    build_grid_plan,
    execute_grid_plan,
    run_jobs_cached,
)
from repro.sim.result_store import (
    ResultStore,
    SharedDirBackend,
    result_store_disabled,
    use_result_store,
)
from repro.workloads.spec import workload
from tests.conftest import make_config

from .golden_cases import (
    ACCESSES_PER_CONTEXT,
    NUM_CONTEXTS,
    STACKED_PAGES,
    fixture_path,
    golden_cases,
)

SPEC = workload("milc")
N = 120


def job(org="cameo", spec=SPEC, seed=0, **kwargs):
    config = kwargs.pop("config", None) or make_config(stacked_pages=8)
    return SimJob(org, spec, config, N, seed, **kwargs)


class TestRunJobsCached:
    def test_duplicate_jobs_execute_once_and_share_the_result(self):
        jobs = [job(), job("baseline"), job()]
        with use_result_store(ResultStore()) as store:
            outcomes = run_jobs_cached(jobs)
        assert [o.ok for o in outcomes] == [True, True, True]
        assert [o.cached for o in outcomes] == [False, False, True]
        assert result_to_json(outcomes[2].result) == result_to_json(
            outcomes[0].result
        )
        # Only two cells simulated; both landed in the store.
        assert store.stats.hits == 0
        assert len(store) == 2

    def test_store_hits_are_served_in_the_parent(self):
        jobs = [job(), job("baseline")]
        with use_result_store(ResultStore()):
            first = run_jobs_cached(jobs)
            second = run_jobs_cached(jobs)
        assert all(not o.cached for o in first)
        assert all(o.cached for o in second)
        for a, b in zip(first, second):
            assert result_to_json(a.result) == result_to_json(b.result)

    def test_store_off_still_shares_duplicate_cells(self):
        jobs = [job(), job("baseline"), job()]
        settled = []
        with result_store_disabled():
            outcomes = run_jobs_cached(jobs, on_settle=settled.append)
            plain = run_many(jobs)
        # No store to serve from, but the duplicate still shares the
        # first cell's one simulation.
        assert [o.cached for o in outcomes] == [False, False, True]
        assert len(settled) == 2
        for a, b in zip(outcomes, plain):
            assert result_to_json(a.result) == result_to_json(b.result)

    def test_on_settle_sees_store_served_cells_too(self):
        jobs = [job(), job("baseline")]
        settled = []
        with use_result_store(ResultStore()):
            run_jobs_cached(jobs[:1])
            run_jobs_cached(jobs, on_settle=settled.append)
        assert [(o.job.organization, o.cached) for o in settled] == [
            ("cameo", True), ("baseline", False),
        ]

    def test_outcomes_stay_in_job_order(self):
        jobs = [job("baseline"), job(), job("cache"), job()]
        with use_result_store(ResultStore()):
            outcomes = run_jobs_cached(jobs)
        assert [o.job.organization for o in outcomes] == [
            "baseline", "cameo", "cache", "cameo",
        ]

    def test_failed_cell_fails_its_duplicates_too(self):
        bad = SimJob("cameo", "no-such-workload", make_config(), N)
        with use_result_store(ResultStore()) as store:
            outcomes = run_jobs_cached([bad, bad])
        assert all(not o.ok for o in outcomes)
        assert len(store) == 0  # failures are never stored
        with pytest.raises(ParallelError):
            raise_on_failures(outcomes, "test grid")


def planned(name, jobs):
    return PlannedExperiment(
        name=name, jobs=jobs, assemble=lambda results: list(results)
    )


class TestGridPlan:
    def test_counts_total_unique_and_predicted_hits(self):
        shared = job("baseline")
        experiments = [
            planned("a", [shared, job()]),
            planned("b", [shared, job("cache")]),
        ]
        with use_result_store(ResultStore()) as store:
            plan = build_grid_plan(experiments)
            assert plan.total_cells == 4
            assert plan.unique_cells == 3
            assert plan.predicted_hits == 0
            assert plan.predicted_runs == 3
            assert plan.dedup_fraction == pytest.approx(0.25)
            # Warm one cell, re-plan: it is predicted as a hit.
            run_jobs_cached([shared])
            assert build_grid_plan(experiments).predicted_hits == 1

    def test_describe_mentions_the_numbers(self):
        plan = build_grid_plan([planned("a", [job(), job()])])
        text = plan.describe()
        assert "2 cells requested" in text
        assert "unique cells:    1" in text
        assert "a: 2 cells" in text

    def test_empty_plan(self):
        plan = build_grid_plan([])
        assert plan.total_cells == 0
        assert plan.dedup_fraction == 0.0


class TestExecuteGridPlan:
    def test_assembles_each_experiment_from_shared_cells(self):
        shared = job("baseline")
        experiments = [
            planned("a", [shared, job()]),
            planned("b", [shared, job("cache")]),
        ]
        with use_result_store(ResultStore()):
            report = execute_grid_plan(build_grid_plan(experiments))
        assert len(report.results) == 2
        assert [r.organization for r in report.results[0]] == [
            "baseline", "cameo",
        ]
        assert [r.organization for r in report.results[1]] == [
            "baseline", "cache",
        ]
        # The shared baseline cell is literally the same simulation.
        assert result_to_json(report.results[0][0]) == result_to_json(
            report.results[1][0]
        )
        assert report.executed_cells == 3
        assert report.served_cells == 1
        assert report.wall_seconds > 0

    def test_matches_unplanned_execution_byte_for_byte(self):
        jobs = [job("baseline"), job()]
        with result_store_disabled():
            direct = [o.result for o in run_many(jobs)]
        with use_result_store(ResultStore()):
            report = execute_grid_plan(build_grid_plan([planned("a", jobs)]))
        for a, b in zip(report.results[0], direct):
            assert result_to_json(a) == result_to_json(b)

    def test_failed_cell_raises_after_the_grid_completes(self):
        bad = SimJob("cameo", "no-such-workload", make_config(), N)
        experiments = [planned("a", [job("baseline"), bad])]
        with use_result_store(ResultStore()):
            with pytest.raises(ParallelError):
                execute_grid_plan(build_grid_plan(experiments))


class TestPaperPlanners:
    def test_full_paper_grid_dedups_at_least_30_percent(self):
        """The acceptance bar: planning every matrix figure/table must
        save >= 30% of the requested cells by dedup alone."""
        from repro.experiments import PAPER_PLANNERS

        specs = [SPEC, workload("astar")]
        with use_result_store(ResultStore()):
            plan = build_grid_plan([
                build(workloads=specs, accesses_per_context=N)
                for build in PAPER_PLANNERS.values()
            ])
        assert plan.total_cells > plan.unique_cells
        assert plan.dedup_fraction >= 0.30

    def test_planned_figure_equals_run_figure(self):
        from repro.experiments import plan_figure13, run_figure13

        specs = [SPEC]
        with result_store_disabled():
            direct = run_figure13(workloads=specs, accesses_per_context=N)
        with use_result_store(ResultStore()):
            report = execute_grid_plan(build_grid_plan([
                plan_figure13(workloads=specs, accesses_per_context=N)
            ]))
        assert report.results[0].render() == direct.render()


def interrupt_after(n_done):
    """A log callback that raises SIGINT during the n-th ``done:`` line.

    The signal fires while the n-th job's outcome is still being
    reported (before it is appended or flushed), so exactly ``n - 1``
    jobs settle — a deterministic interrupt point for resume tests.
    """
    done = []

    def log(message):
        if message.startswith("done:"):
            done.append(message)
            if len(done) == n_done:
                os.kill(os.getpid(), signal.SIGINT)

    return log


class TestResumeFromStore:
    """An interrupted grid resumes by running again over the same store."""

    def test_interrupt_flushes_settled_cells_and_resume_completes(
        self, tmp_path
    ):
        """SIGINT mid-grid, then a fresh store over the same directory:
        the re-run simulates only the missing cells, byte-identically."""
        jobs = [job(seed=s) for s in range(4)]
        with result_store_disabled():
            reference = [result_to_json(o.result) for o in run_many(jobs)]

        directory = str(tmp_path / "store")
        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            with pytest.raises(InterruptedRunError) as excinfo:
                run_jobs_cached(jobs, log=interrupt_after(2))
        assert excinfo.value.signal_name == "SIGINT"

        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            outcomes = run_jobs_cached(jobs)
        # The second cell stored its result before the signal cut its
        # settle short, so only the last two were simulated again.
        assert [o.cached for o in outcomes] == [True, True, False, False]
        assert [result_to_json(o.result) for o in outcomes] == reference

    def test_golden_subset_byte_identical_across_interrupt_resume_cycle(
        self, tmp_path
    ):
        """Golden fixtures through an interrupt + resume: no byte moves."""
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()[:6]
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        directory = str(tmp_path / "store")
        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            with pytest.raises(InterruptedRunError):
                run_jobs_cached(jobs, log=interrupt_after(4))

        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            outcomes = run_jobs_cached(jobs)
        assert [o.cached for o in outcomes] == [True] * 4 + [False] * 2
        raise_on_failures(outcomes, "golden resume")
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted across the interrupt/resume cycle"
