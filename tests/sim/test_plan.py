"""Tests for the deduplicating grid planner (repro.sim.plan)."""

import multiprocessing
import os
import signal

import pytest

from repro.errors import ConfigurationError, InterruptedRunError, ParallelError
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

    def test_each_executed_cell_is_stored_once_at_one_job(self, monkeypatch):
        """At ``n_jobs=1`` the cells run in this process with the store
        off, as pool workers do: one write per executed cell, from here."""
        puts = []
        put = ResultStore.put

        def counted_put(store, fingerprint, result):
            puts.append(fingerprint)
            put(store, fingerprint, result)

        monkeypatch.setattr(ResultStore, "put", counted_put)
        jobs = [job(), job("baseline"), job("cache"), job()]
        with use_result_store(ResultStore()) as store:
            outcomes = run_jobs_cached(jobs)
        executed = [o for o in outcomes if not o.cached]
        assert len(executed) == 3
        assert len(puts) == len(set(puts)) == len(executed) == len(store)

    def test_failed_cell_fails_its_duplicates_too(self):
        bad = SimJob("cameo", "no-such-workload", make_config(), N)
        with use_result_store(ResultStore()) as store:
            outcomes = run_jobs_cached([bad, bad])
        assert all(not o.ok for o in outcomes)
        assert len(store) == 0  # failures are never stored
        with pytest.raises(ParallelError):
            raise_on_failures(outcomes, "test grid")


def _store_after_worker_setup(conn):
    """Spawned child: run a pool worker's set-up, report the store."""
    from repro.sim.parallel import _init_worker
    from repro.sim.result_store import default_result_store

    _init_worker()
    conn.send(default_result_store() is None)
    conn.close()


class TestParentOwnsTheStore:
    """For a pooled grid, this process alone reads and writes the store."""

    def test_worker_setup_turns_the_store_off_under_spawn(
        self, tmp_path, monkeypatch
    ):
        """A spawned worker inherits no override; it reads the env knob,
        which says ``disk`` here, and its set-up must still turn it off."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", "disk")
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_store_after_worker_setup, args=(child,))
        process.start()
        child.close()
        try:
            assert parent.poll(60), "the spawned worker never reported"
            assert parent.recv() is True
        finally:
            process.join(10)
        assert process.exitcode == 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched writer reaches pool workers only through fork",
    )
    def test_pool_workers_never_write_the_store(self, tmp_path, monkeypatch):
        writers = tmp_path / "writers"
        write = SharedDirBackend.store

        def logged_write(backend, fingerprint, payload):
            with open(writers, "a") as fp:
                fp.write(f"{os.getpid()}\n")
            write(backend, fingerprint, payload)

        # Patched before the fork, so a worker's own write would log its pid.
        monkeypatch.setattr(SharedDirBackend, "store", logged_write)
        jobs = [job(seed=s) for s in range(4)] + [job(seed=1), job("baseline")]
        with result_store_disabled():
            reference = [result_to_json(o.result) for o in run_many(jobs)]
        directory = str(tmp_path / "store")
        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            outcomes = run_jobs_cached(jobs, n_jobs=2)
        raise_on_failures(outcomes, "pooled store grid")
        assert [result_to_json(o.result) for o in outcomes] == reference
        executed = [o for o in outcomes if not o.cached]
        assert len(executed) == 5  # the seed=1 duplicate shares its result
        assert {o.worker_id for o in executed} <= {"w0", "w1"}
        # One write per unique executed cell, every one from this process.
        assert writers.read_text().split() == [str(os.getpid())] * 5
        assert len(list((tmp_path / "store").glob("*/*.result.json"))) == 5

    def test_an_unwritable_store_fails_before_any_cell_runs(
        self, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            "repro.sim.plan.run_many", lambda *a, **k: calls.append(a)
        )
        blocker = tmp_path / "file"
        blocker.write_text("")
        directory = str(blocker / "store")
        for n_jobs in (1, 2):
            with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
                with pytest.raises(ConfigurationError, match="not writable"):
                    run_jobs_cached([job(), job("baseline")], n_jobs=n_jobs)
        assert calls == []

    def test_a_grid_of_store_hits_is_not_probed(self, tmp_path, monkeypatch):
        """The probe runs only when a cell is to be simulated and stored,
        so a store that serves every cell needs no write access."""
        directory = str(tmp_path / "store")
        jobs = [job(), job("baseline")]
        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            run_jobs_cached(jobs)

        def unwritable(backend):
            raise ConfigurationError("probed")

        monkeypatch.setattr(SharedDirBackend, "check_writable", unwritable)
        with use_result_store(ResultStore(backend=SharedDirBackend(directory))):
            outcomes = run_jobs_cached(jobs)
        assert all(o.ok and o.cached for o in outcomes)


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

    def test_dispatch_keyword_accepts_only_the_pool(self):
        """perfbench passes ``dispatch="pool"`` to both grid entry
        points; that keeps working, and any other mode is refused."""
        jobs = [job("baseline"), job()]
        plan = build_grid_plan([planned("a", jobs)])
        with use_result_store(ResultStore()):
            report = execute_grid_plan(plan, n_jobs=2, dispatch="pool")
            outcomes = run_jobs_cached(jobs, n_jobs=2, dispatch="pool")
        assert report.executed_cells == 2
        assert all(o.ok and o.cached for o in outcomes)
        for dispatch in ("remote", "per-cell"):
            with pytest.raises(ConfigurationError, match="accepted values: pool"):
                execute_grid_plan(plan, dispatch=dispatch)
            with pytest.raises(ConfigurationError, match="accepted values: pool"):
                run_jobs_cached(jobs, dispatch=dispatch)


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

    A serial ``done:`` line is printed after its job was flushed, so
    exactly ``n`` jobs settle, all of them stored — a deterministic
    interrupt point for resume tests.
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
        # Both cells whose done: line printed were stored, so only the
        # last two were simulated again.
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
