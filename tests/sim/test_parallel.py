"""Tests for the process-pool fan-out layer (repro.sim.parallel)."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, InterruptedRunError, ParallelError
from repro.sim._kernel_build import kernel_available
from repro.sim.export import result_to_json
from repro.sim.parallel import (
    JobOutcome,
    SimJob,
    derive_seed,
    last_pool_report,
    raise_on_failures,
    resolve_n_jobs,
    run_job,
    run_many,
    warm_trace_cache,
)
from repro.sim.plan import run_jobs_cached
from repro.sim.result_store import result_store_disabled
from repro.sim.supervisor import (
    FAULTS_ENV_VAR,
    MIN_TIMEOUT_SECONDS,
    IncidentJournal,
    SupervisorPolicy,
    use_supervision,
)
from repro.workloads.spec import workload
from tests.conftest import make_config

from .golden_cases import (
    ACCESSES_PER_CONTEXT,
    NUM_CONTEXTS,
    STACKED_PAGES,
    corpus_cases,
    fixture_path,
    golden_cases,
)

ACCESSES = 150

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)


def _stall_long_cells(job):
    """``run_job`` with every cell longer than ``ACCESSES`` stalled
    until a timeout kills its worker; the others really run."""
    if job.accesses_per_context > ACCESSES:
        time.sleep(60)
    return run_job(job)


def small_grid():
    config = make_config(stacked_pages=8, num_contexts=2)
    return [
        SimJob(org, wl, config, ACCESSES)
        for org in ("baseline", "cameo")
        for wl in ("astar", "milc")
    ]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("figure13", "cameo", "milc", 0) == \
            derive_seed("figure13", "cameo", "milc", 0)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed("grid", org, rep)
                 for org in ("baseline", "cameo") for rep in range(4)}
        assert len(seeds) == 8

    def test_fits_in_signed_64_bits(self):
        seed = derive_seed("anything")
        assert 0 <= seed < 2 ** 63


class TestResolveNJobs:
    def test_none_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_n_jobs(0) >= 1

    def test_positive_passes_through(self):
        assert resolve_n_jobs(3) == 3


class TestSimJob:
    def test_key_includes_tag(self):
        job = SimJob("cameo", "milc", seed=2, tag="K=8")
        assert job.key == "cameo/milc/s2/K=8"

    def test_workload_name_from_spec(self):
        assert SimJob("cameo", workload("milc")).workload_name == "milc"


class TestRunMany:
    def test_empty_grid(self):
        assert run_many([], n_jobs=2) == []

    def test_serial_outcomes_in_job_order(self):
        jobs = small_grid()
        outcomes = run_many(jobs, n_jobs=1)
        assert [o.job for o in outcomes] == jobs
        assert all(o.ok for o in outcomes)

    def test_parallel_identical_to_serial(self):
        jobs = small_grid()
        serial = run_many(jobs, n_jobs=1)
        parallel = run_many(jobs, n_jobs=2)
        assert [o.job for o in parallel] == jobs
        for ours, theirs in zip(serial, parallel):
            assert result_to_json(ours.result) == result_to_json(theirs.result)

    def test_serial_error_capture_does_not_kill_grid(self):
        jobs = [SimJob("no-such-org", "milc")] + small_grid()
        outcomes = run_many(jobs, n_jobs=1)
        assert not outcomes[0].ok
        assert "no-such-org" in outcomes[0].error
        assert all(o.ok for o in outcomes[1:])

    def test_parallel_error_capture_does_not_kill_grid(self):
        jobs = small_grid()
        jobs.insert(1, SimJob("no-such-org", "milc"))
        # A cell that cannot be pickled to a worker fails alone too.
        jobs.insert(3, SimJob("tlm-oracle", "mcf", accesses_per_context=100,
                              org_kwargs={"hot_vpages": {5: 1, 9: 2}.keys()}))
        outcomes = run_many(jobs, n_jobs=2)
        assert not outcomes[1].ok
        assert "no-such-org" in outcomes[1].error
        assert not outcomes[3].ok
        assert "pickle" in outcomes[3].error
        assert all(o.ok for i, o in enumerate(outcomes) if i not in (1, 3))
        # The failed cell records which worker ran the final attempt.
        assert outcomes[1].worker_id

    def test_raising_outcome_hook_stops_every_worker(self):
        def explode(index, outcome):
            raise RuntimeError("hook failed")

        before = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(RuntimeError, match="hook failed"):
            run_many(small_grid(), n_jobs=2, on_outcome=explode)
        assert [child for child in multiprocessing.active_children()
                if child.pid not in before] == []

    def test_worker_ids_reflect_dispatch_mode(self):
        jobs = small_grid()
        pool = run_many(jobs, n_jobs=2)
        assert all(o.worker_id in ("w0", "w1") for o in pool)
        report = last_pool_report()
        assert report is not None
        assert report.n_workers == 2
        assert report.respawns == 0
        assert sum(report.cells_per_worker.values()) == len(jobs)
        serial = run_many(jobs, n_jobs=1)
        assert all(o.worker_id == "inline" for o in serial)
        assert last_pool_report() is None

    @needs_kernel
    def test_engine_counters_count_each_in_process_cell_once(
        self, monkeypatch
    ):
        """A cell run in this process — at one job, or after a pool fell
        back to serial — already counted its kernel run here; folding
        its delta back in as a worker's would count it twice."""
        from repro.sim import engine_vector

        monkeypatch.setenv("REPRO_ENGINE", "vector")
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        monkeypatch.setattr("repro.sim.supervisor.SPAWN_FAILURE_LIMIT", 1)
        jobs = small_grid()
        with result_store_disabled():
            for n_jobs in (1, 2):
                engine_vector.reset_backend_stats()
                outcomes = run_many(jobs, n_jobs=n_jobs)
                assert {o.worker_id for o in outcomes} == {"inline"}
                assert engine_vector.backend_stats["kernel_runs"] == len(jobs)

    def test_dispatch_overhead_measured_in_both_parallel_modes(self):
        """Pool workers report the in-worker simulation time that
        dispatch overhead is measured against."""
        for o in run_many(small_grid(), n_jobs=2):
            assert o.sim_seconds is not None
            assert o.dispatch_overhead_seconds is not None
            assert o.dispatch_overhead_seconds >= 0.0

    def test_timeout_terminates_hung_worker(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        jobs = [
            SimJob("cameo", "milc", config, 2_000_000),
            SimJob("baseline", "astar", config, ACCESSES),
        ]
        with use_supervision(SupervisorPolicy(timeout_seconds=0.2)):
            outcomes = run_many(jobs, n_jobs=2)
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error
        assert outcomes[1].ok

    def test_rejects_absurd_timeout(self):
        """A grid's one supervision channel is a policy, and a policy
        with a non-positive timeout cannot be made."""
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(timeout_seconds=0.0)

    def test_sub_floor_timeout_message_names_the_floor(self):
        """Values in (0, MIN_TIMEOUT_SECONDS) are positive — the error
        must say what is actually wrong, not 'must be positive'."""
        with pytest.raises(ConfigurationError) as excinfo:
            SupervisorPolicy(timeout_seconds=MIN_TIMEOUT_SECONDS / 2)
        message = str(excinfo.value)
        assert "must be positive" not in message
        assert "MIN_TIMEOUT_SECONDS" in message
        assert str(MIN_TIMEOUT_SECONDS) in message
        SupervisorPolicy(timeout_seconds=MIN_TIMEOUT_SECONDS)  # the floor itself

    def test_hang_timeout_spares_slow_but_advancing_workers(self, monkeypatch):
        """Heartbeats distinguish slow from hung: a hang timeout far
        below a job's total runtime must not kill it while it reports
        progress."""
        monkeypatch.setattr(
            "repro.sim.supervisor.HEARTBEAT_INTERVAL_ACCESSES", 500
        )
        config = make_config(stacked_pages=8, num_contexts=2)
        jobs = [SimJob("baseline", "astar", config, 30_000)]
        with use_supervision(SupervisorPolicy(
            max_attempts=1, hang_timeout_seconds=2.0,
        )):
            outcomes = run_many(jobs, n_jobs=2)
        assert outcomes[0].ok

    def test_hang_timeout_spares_a_python_loop_cell_at_the_shipped_interval(
        self, monkeypatch
    ):
        """At the shipped heartbeat interval, a pooled python-loop cell that
        runs several times its hang budget heartbeats often enough to
        live: the interval is short enough for the slowest engine."""
        monkeypatch.setenv("REPRO_ENGINE", "python")
        config = make_config(stacked_pages=8, num_contexts=2)
        hang_budget = 0.75
        # Size the cell from this host's python-loop speed.
        start = time.perf_counter()
        with result_store_disabled():
            run_job(SimJob("baseline", "astar", config, 10_000))
        per_access = (time.perf_counter() - start) / 10_000
        accesses = int(4 * hang_budget / per_access)
        with use_supervision(SupervisorPolicy(
            max_attempts=1, hang_timeout_seconds=hang_budget,
        )):
            outcomes = run_many(
                [SimJob("baseline", "astar", config, accesses)], n_jobs=2
            )
        assert outcomes[0].ok, outcomes[0].error
        assert outcomes[0].worker_id != "inline"
        assert outcomes[0].wall_seconds >= 3 * hang_budget

    def test_every_cell_gets_all_its_attempts(self, monkeypatch, tmp_path):
        """``max_attempts`` alone bounds retries: with every cell's first
        four attempts crashing, five attempts get both cells through."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=4,seed=0")
        journal = IncidentJournal(str(tmp_path / "incidents.jsonl"))
        jobs = [SimJob(org, "mcf", make_config(stacked_pages=8, num_contexts=2),
                       ACCESSES) for org in ("baseline", "cameo")]
        with use_supervision(SupervisorPolicy(
            max_attempts=5, backoff_base_seconds=0.0,
        ), journal):
            outcomes = run_many(jobs, n_jobs=2)
        raise_on_failures(outcomes, "five attempts")
        assert [o.attempts for o in outcomes] == [5, 5]
        assert journal.counts.get("crash") == 8

    def test_retry_after_injected_worker_kill(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=1,seed=3")
        journal = IncidentJournal(str(tmp_path / "incidents.jsonl"))
        jobs = small_grid()
        serial = run_many(jobs, n_jobs=1)  # in-process: no injection
        with use_supervision(SupervisorPolicy(
            max_attempts=2, backoff_base_seconds=0.0,
        ), journal):
            retried = run_many(jobs, n_jobs=2)
        assert all(o.ok for o in retried)
        assert all(o.attempts == 2 for o in retried)
        assert journal.counts.get("crash") == len(jobs)
        for ours, theirs in zip(serial, retried):
            assert result_to_json(ours.result) == result_to_json(theirs.result)

    def test_sigint_mid_serial_grid_keeps_settled_prefix(self):
        jobs = small_grid()
        flushed = []

        def flush(index, outcome):
            flushed.append((index, outcome))
            if len(flushed) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            run_many(jobs, n_jobs=1, on_outcome=flush)
        exc = excinfo.value
        assert exc.signal_name == "SIGINT"
        assert [index for index, _ in flushed] == [0, 1]
        assert all(o.ok for _, o in flushed)
        assert "2 of 4 cell(s) settled" in str(exc)

    def test_one_job_retries_and_journals_transient_failures(
        self, monkeypatch, tmp_path
    ):
        """``max_attempts`` and the journal hold at ``n_jobs=1`` as they
        do for a pool: each cell's failed first attempt is retried."""
        tried = []

        def fail_first_attempt(job):
            tried.append(job.key)
            if tried.count(job.key) == 1:
                raise OSError("transient: first attempt fails")
            return run_job(job)

        monkeypatch.setattr("repro.sim.parallel.run_job", fail_first_attempt)
        journal = IncidentJournal(str(tmp_path / "incidents.jsonl"))
        jobs = small_grid()[:2]
        with use_supervision(SupervisorPolicy(
            max_attempts=2, backoff_base_seconds=0.0,
        ), journal):
            outcomes = run_many(jobs, n_jobs=1)
        assert all(o.ok for o in outcomes)
        assert [o.attempts for o in outcomes] == [2, 2]
        assert all(o.worker_id == "inline" for o in outcomes)
        assert journal.counts == {"retry": 2}

    def test_a_cell_sharing_a_timed_out_label_runs(self, monkeypatch):
        """Cells are told apart by fingerprint, not by label: a short
        cell labelled like a long one that timed out still runs."""
        config = make_config(stacked_pages=8, num_contexts=2)
        jobs = [SimJob(org, "milc", config, 10 * ACCESSES)
                for org in ("cameo", "baseline", "cache")]
        jobs.append(SimJob("cameo", "milc", config, ACCESSES))
        assert jobs[0].key == jobs[3].key
        monkeypatch.setattr("repro.sim.parallel.run_job", _stall_long_cells)
        with result_store_disabled():
            with use_supervision(SupervisorPolicy(
                timeout_seconds=0.5, backoff_base_seconds=0.0,
            )):
                outcomes = run_jobs_cached(jobs, n_jobs=2)
            expected = result_to_json(run_job(jobs[3]))
        assert all("timeout" in o.error for o in outcomes[:3])
        assert outcomes[3].ok
        assert result_to_json(outcomes[3].result) == expected

    def test_on_outcome_fires_for_every_job_in_both_modes(self):
        jobs = small_grid()
        for n_jobs in (1, 2):
            seen = []
            run_many(jobs, n_jobs=n_jobs,
                     on_outcome=lambda i, o: seen.append(i))
            assert sorted(seen) == list(range(len(jobs)))


class TestRaiseOnFailures:
    def test_silent_when_all_ok(self):
        job = SimJob("baseline", "astar")
        raise_on_failures([JobOutcome(job, result=object())], "grid")

    def test_lists_every_failed_cell(self):
        ok = JobOutcome(SimJob("baseline", "astar"), result=object())
        bad = JobOutcome(SimJob("cameo", "milc", tag="x"), error="boom")
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures([ok, bad], "grid")
        assert "cameo/milc/s0/x" in str(excinfo.value)
        assert "boom" in str(excinfo.value)

    def test_reports_overflow_count_beyond_eight(self):
        failures = [
            JobOutcome(SimJob("cameo", "milc", seed=i), error=f"err{i}")
            for i in range(11)
        ]
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures(failures, "grid")
        message = str(excinfo.value)
        assert "11/11 grid jobs failed" in message
        assert "and 3 more" in message
        # The ninth failure is summarized, not spelled out.
        assert "err8" not in message

    def test_no_overflow_note_at_exactly_eight(self):
        failures = [
            JobOutcome(SimJob("cameo", "milc", seed=i), error=f"err{i}")
            for i in range(8)
        ]
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures(failures, "grid")
        assert "more" not in str(excinfo.value)

    def test_failure_names_the_worker(self):
        bad = JobOutcome(SimJob("cameo", "milc"), error="boom",
                         worker_id="w1")
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures([bad], "grid")
        assert "[worker w1]" in str(excinfo.value)

    def test_worker_tag_is_not_duplicated(self):
        bad = JobOutcome(SimJob("cameo", "milc"),
                         error="boom [worker w1]", worker_id="w1")
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures([bad], "grid")
        assert str(excinfo.value).count("[worker w1]") == 1


class TestWarmTraceCache:
    def test_plain_warm_stays_in_memory(self, tmp_path, monkeypatch):
        from repro.workloads.trace_cache import (
            clear_default_trace_cache,
            default_trace_cache,
        )

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "t"))
        clear_default_trace_cache()
        try:
            warmed = warm_trace_cache(small_grid())
            assert warmed > 0
            assert len(default_trace_cache()) == warmed
            assert not os.path.exists(str(tmp_path / "t"))
        finally:
            clear_default_trace_cache()

    def test_each_distinct_trace_is_warmed_once_within_the_budget(self):
        """Warming walks distinct trace keys, not jobs, and stops before
        a new trace would evict one it warmed: past the record budget the
        workers generate the rest, instead of the parent regenerating
        traces it has just evicted."""
        from repro.workloads.trace_cache import (
            clear_default_trace_cache,
            default_trace_cache,
        )

        config = make_config(stacked_pages=8, num_contexts=2)
        # Org-major, as the paper's planners declare their cells: every
        # org revisits every workload's traces.
        jobs = [
            SimJob(org, wl, config, ACCESSES)
            for org in ("baseline", "cameo", "cache")
            for wl in ("astar", "milc", "lbm", "mcf")
        ]  # 4 workloads x 2 contexts: 8 distinct traces
        clear_default_trace_cache()
        try:
            cache = default_trace_cache()
            cache.max_records = 5 * ACCESSES + ACCESSES // 2
            assert warm_trace_cache(jobs) == 5
            assert cache.stats.misses == len(cache) == 5
            assert cache.stats.evictions == 0
            assert warm_trace_cache(jobs) == 0  # all five are hits now

            clear_default_trace_cache()
            cache = default_trace_cache()
            assert warm_trace_cache(jobs) == 8
            assert cache.stats.misses == len(cache) == 8
            assert cache.stats.hits == 0
        finally:
            clear_default_trace_cache()


NON_FORK_START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"no {method} start method on this platform",
        ),
    )
    for method in ("spawn", "forkserver")
]


class TestNonForkStartMethods:
    @pytest.mark.parametrize("method", NON_FORK_START_METHODS)
    def test_pooled_grid_equals_the_serial_run(self, method):
        """Workers that inherit no memory generate their own traces:
        the pooled grid must still equal the serial run byte for byte."""
        from repro.workloads.trace_cache import clear_default_trace_cache

        jobs = small_grid()
        serial = [result_to_json(o.result) for o in run_many(jobs)]
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        clear_default_trace_cache()
        messages = []
        try:
            outcomes = run_many(jobs, n_jobs=2, log=messages.append)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        raise_on_failures(outcomes, f"pool under {method}")
        assert {o.worker_id for o in outcomes} <= {"w0", "w1"}
        # Nothing was warmed for workers that could not inherit it.
        assert not any(m.startswith("pre-materialized") for m in messages)
        assert [result_to_json(o.result) for o in outcomes] == serial


class TestMatrixParity:
    def test_run_matrix_identical_across_worker_counts(self):
        from repro.experiments.common import run_matrix

        config = make_config(stacked_pages=8, num_contexts=2)
        kwargs = dict(
            org_names=("cameo", "tlm-oracle"),
            workloads=[workload("astar")],
            config=config,
            accesses_per_context=ACCESSES,
        )
        serial = run_matrix(n_jobs=1, **kwargs)
        parallel = run_matrix(n_jobs=2, **kwargs)
        for wl in serial.results:
            for org in serial.results[wl]:
                assert result_to_json(serial.results[wl][org]) == \
                    result_to_json(parallel.results[wl][org])


class TestGoldenFixturesUnderFanOut:
    @pytest.mark.parametrize("engine", [
        "python", pytest.param("vector", marks=needs_kernel),
    ])
    def test_every_golden_fixture_byte_identical_with_two_workers(
        self, engine, monkeypatch
    ):
        """The whole corpus, fanned out over the pool: not one byte may
        move, on either engine backend."""
        monkeypatch.setenv("REPRO_ENGINE", engine)
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = corpus_cases()
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=use_l3)
            for org, wl, use_l3 in cases
        ]
        outcomes = run_many(jobs, n_jobs=2)
        raise_on_failures(outcomes, f"golden (pool, {engine})")
        for (org, wl, use_l3), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl, use_l3)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted under n_jobs=2 (pool, {engine})"

    def test_pool_interrupt_then_resume_byte_identical(self):
        """SIGINT mid-pool settles a prefix; rerunning just the pending
        cells must complete the corpus byte-for-byte."""
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()[:8]
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        settled = []

        def flush(index, outcome):
            settled.append((index, outcome))
            if len(settled) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError):
            run_many(jobs, n_jobs=2, on_outcome=flush)
        results = {}
        for index, outcome in settled:
            assert outcome.ok
            results[index] = outcome.result
        remainder = [
            (index, job) for index, job in enumerate(jobs)
            if index not in results
        ]
        assert remainder, "the interrupt settled the whole grid"
        resumed = run_many([job for _, job in remainder], n_jobs=2)
        raise_on_failures(resumed, "golden resume")
        for (index, _), outcome in zip(remainder, resumed):
            results[index] = outcome.result
        for index, (org, wl) in enumerate(cases):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(results[index]) + "\n" == expected, \
                f"{org} on {wl} drifted across interrupt + resume"

    def test_every_golden_fixture_byte_identical_under_injected_kills(
        self, monkeypatch
    ):
        """Half the workers crash on their first attempt; the retried
        grid must still match every fixture byte for byte."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.5,max_attempt=1,seed=1")
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        with use_supervision(SupervisorPolicy(
            max_attempts=2, backoff_base_seconds=0.0,
        )):
            outcomes = run_many(jobs, n_jobs=2)
        raise_on_failures(outcomes, "golden under injected kills")
        retried = sum(1 for o in outcomes if o.attempts > 1)
        assert retried > 0, "the chaos knob injected no crashes at all"
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted under injected worker kills"

    def test_golden_subset_byte_identical_under_forced_serial_fallback(
        self, monkeypatch
    ):
        """Every spawn fails: the pool degrades to in-process execution
        and the results must not move a byte."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()[:6]
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        messages = []
        outcomes = run_many(jobs, n_jobs=2, log=messages.append)
        raise_on_failures(outcomes, "golden under serial fallback")
        assert any("falling back to in-process serial" in m for m in messages)
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted under the serial fallback"
