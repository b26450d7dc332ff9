"""Tests for the shared supervision core (repro.sim.supervisor)."""

import contextlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    InterruptedRunError,
    ReproError,
    SimulationError,
)
from repro.sim.supervisor import (
    FAULTS_ENV_VAR,
    INJECTED_CRASH_EXIT_CODE,
    SPAWN_FAILURE_LIMIT,
    IncidentJournal,
    InjectedFaults,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
    current_supervision,
    escalate_kill,
    is_retryable_exception,
    journal_from_env,
    parse_injected_faults,
    use_supervision,
)

# -- Picklable worker targets ----------------------------------------------------


def _double(payload):
    return payload * 2


def _raise_oserror(payload):
    raise OSError("flaky io")


def _raise_config_error(payload):
    raise ConfigurationError("bad input")


def _raise_type_error(payload):
    raise TypeError("a bug")


def _succeed_second_time(path):
    """Fails with a retryable error once, then succeeds (cross-process)."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("attempt 1")
        raise OSError("transient: first attempt always fails")
    return "recovered"


def _crash_first_time(path):
    """Hard-kills its worker process once, then succeeds (cross-process)."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("attempt 1")
        os._exit(9)
    return "recovered"


def _hang_first_time(path):
    """Wedges its worker (no heartbeats) once, then succeeds."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("attempt 1")
        while True:
            time.sleep(0.05)
    return "woke"


def _sleep_then_double(payload):
    """Stays in flight long enough for the parent to police it."""
    time.sleep(1.0)
    return payload * 2


def _ignore_sigterm_forever(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    while True:
        time.sleep(0.1)


def _sleep_forever(conn):
    conn.send("ready")
    while True:
        time.sleep(0.1)


def _exit_before_ready():
    """A ``worker_setup`` that kills its worker before the handshake."""
    os._exit(3)


class _Overran(Exception):
    """Raised by SIGALRM in a run that outlived its deadline."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail a run that does not finish within ``seconds``: a regression
    becomes a failure instead of a hang."""

    def expire(signum, frame):
        raise _Overran(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tasks_for(target, payloads):
    return [
        SupervisedTask(index=i, key=f"t{i}", target=target, payload=p)
        for i, p in enumerate(payloads)
    ]


FAST = dict(backoff_base_seconds=0.0)


@pytest.fixture(autouse=True)
def short_grace(monkeypatch):
    """Kill escalation waits half a second for SIGTERM, not two."""
    monkeypatch.setattr("repro.sim.supervisor.GRACE_SECONDS", 0.5)


class TestPolicy:
    def test_rejects_non_positive_attempts(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_attempts=0)

    def test_rejects_non_positive_timeouts(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(timeout_seconds=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(hang_timeout_seconds=-1.0)

    @pytest.mark.parametrize("field_name, value", [
        ("max_attempts", 2.5), ("max_attempts", True),
        ("timeout_seconds", "10"), ("timeout_seconds", float("nan")),
        ("hang_timeout_seconds", float("nan")),
        ("backoff_base_seconds", -0.1), ("max_rss_bytes", 0),
        ("max_rss_bytes", 1.5),
    ])
    def test_every_value_is_checked(self, field_name, value):
        with pytest.raises(ConfigurationError, match=field_name):
            SupervisorPolicy(**{field_name: value})

    def test_backoff_grows_exponentially_and_caps(self, monkeypatch):
        monkeypatch.setattr("repro.sim.supervisor.BACKOFF_MAX_SECONDS", 4.0)
        monkeypatch.setattr("repro.sim.supervisor.BACKOFF_JITTER", 0.0)
        policy = SupervisorPolicy(max_attempts=10, backoff_base_seconds=1.0)
        assert policy.backoff_delay("k", 1) == 1.0
        assert policy.backoff_delay("k", 2) == 2.0
        assert policy.backoff_delay("k", 3) == 4.0
        assert policy.backoff_delay("k", 4) == 4.0  # capped

    def test_jitter_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.sim.supervisor.BACKOFF_JITTER", 0.25)
        policy = SupervisorPolicy(max_attempts=3, backoff_base_seconds=1.0)
        first = policy.backoff_delay("cameo/milc/s0", 1)
        assert first == policy.backoff_delay("cameo/milc/s0", 1)
        assert 1.0 <= first <= 1.25
        # Different keys decorrelate.
        assert first != policy.backoff_delay("baseline/astar/s0", 1)


class TestRetryClassifier:
    def test_repro_errors_fail_fast(self):
        assert not is_retryable_exception(ReproError("x"))
        assert not is_retryable_exception(ConfigurationError("x"))
        assert not is_retryable_exception(SimulationError("x"))

    def test_environmental_errors_retry(self):
        assert is_retryable_exception(OSError("io"))
        assert is_retryable_exception(MemoryError())
        assert is_retryable_exception(TimeoutError())
        assert is_retryable_exception(EOFError())
        assert is_retryable_exception(KeyboardInterrupt())
        assert is_retryable_exception(SystemExit(1))

    def test_unknown_exceptions_are_deterministic(self):
        assert not is_retryable_exception(TypeError("bug"))
        assert not is_retryable_exception(ValueError("bug"))


class TestInjectedFaultsParsing:
    def test_unset_or_empty_is_none(self):
        assert parse_injected_faults(None) is None
        assert parse_injected_faults("  ") is None

    def test_full_spec(self):
        faults = parse_injected_faults("crash=0.5,hang=0.25,spawn=0,"
                                       "max_attempt=2,seed=7")
        assert faults == InjectedFaults(
            crash_rate=0.5, hang_rate=0.25, spawn_rate=0.0,
            max_attempt=2, seed=7,
        )
        assert faults.active

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            parse_injected_faults("crash")
        with pytest.raises(ConfigurationError):
            parse_injected_faults("crash=lots")
        with pytest.raises(ConfigurationError):
            parse_injected_faults("explode=0.5")
        with pytest.raises(ConfigurationError):
            parse_injected_faults("crash=1.5")
        # The integer fields parse as integers, and max_attempt must let
        # at least one attempt be sabotaged; each error names its field.
        for spec, field_name in (
            ("seed=nan", "seed"),
            ("seed=1.5", "seed"),
            ("max_attempt=inf", "max_attempt"),
            ("max_attempt=0", "max_attempt"),
            ("max_attempt=-1", "max_attempt"),
            ("endpoint_kill=0.1", "endpoint_kill"),
        ):
            with pytest.raises(ConfigurationError, match=field_name):
                parse_injected_faults(spec)


class TestIncidentJournal:
    def test_appends_flushed_jsonl(self, tmp_path):
        path = str(tmp_path / "incidents.jsonl")
        journal = IncidentJournal(path)
        journal.record("retry", key="cameo/milc/s0", attempt=1, detail="crash")
        journal.record("give_up", key="cameo/milc/s0", attempt=2, detail="crash")
        lines = [json.loads(line) for line in open(path)]
        assert [line["event"] for line in lines] == ["retry", "give_up"]
        assert lines[0]["key"] == "cameo/milc/s0"
        assert journal.counts == {"retry": 1, "give_up": 1}
        assert journal.events_written == 2

    def test_journal_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_INCIDENT_JOURNAL", raising=False)
        assert journal_from_env() is None
        monkeypatch.setenv("REPRO_INCIDENT_JOURNAL", str(tmp_path / "j.jsonl"))
        assert journal_from_env().path == str(tmp_path / "j.jsonl")


class TestJournalRotation:
    def test_rotation_keeps_both_files_readable(self, tmp_path, monkeypatch):
        """Crossing the cap renames to <path>.1 and starts the live
        file with a journal_rotated event; every line in both files is
        valid JSON at all times."""
        path = str(tmp_path / "incidents.jsonl")
        # Sized for exactly one rotation across 20 ~110-byte lines;
        # a second rotation would (by design) replace the first .1. The
        # cap is read when a line is written, not when the journal opens.
        journal = IncidentJournal(path)
        monkeypatch.setattr("repro.sim.supervisor.JOURNAL_MAX_BYTES", 1500)
        for i in range(20):
            journal.record("retry", key=f"cell{i}", attempt=1,
                           detail="injected")
        assert journal.rotations == 1
        assert os.path.exists(path + ".1")
        live = [json.loads(line) for line in open(path)]
        rotated = [json.loads(line) for line in open(path + ".1")]
        assert live and rotated
        # The fresh file leads with the rotation marker so a tail
        # reader knows where the history went.
        assert live[0]["event"] == "journal_rotated"
        assert ".1" in live[0]["detail"]
        # No event was lost across the rotation.
        events = [e for e in live + rotated if e["event"] == "retry"]
        assert len(events) == 20
        assert journal.counts["retry"] == 20


class TestEnvKnobValidation:
    def test_unknown_result_cache_mode_lists_accepted_values(
        self, monkeypatch
    ):
        from repro.errors import EnvKnobError
        from repro.sim.result_store import (
            clear_default_result_store,
            default_result_store,
        )

        try:
            # "shared" is rejected like any other unknown mode.
            for value in ("sideways", "shared"):
                monkeypatch.setenv("REPRO_RESULT_CACHE", value)
                clear_default_result_store()
                with pytest.raises(EnvKnobError) as excinfo:
                    default_result_store()
                # The message lists every accepted value, and the type
                # maps to CLI exit code 2 through the ReproError family.
                assert "accepted values: memory, disk, off" in str(excinfo.value)
        finally:
            monkeypatch.undo()
            clear_default_result_store()
        assert issubclass(EnvKnobError, ConfigurationError)
        assert issubclass(EnvKnobError, ReproError)

    def test_chaos_knob_is_validated_at_one_job(self, monkeypatch):
        """The serial path injects nothing, but a malformed spec is the
        same error it is for a pool, before anything runs."""
        from repro.sim.parallel import SimJob, run_many
        from tests.conftest import make_config

        ran = []
        monkeypatch.setattr("repro.sim.parallel.run_job", ran.append)
        job = SimJob("baseline", "milc", make_config(), 40)
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=nan")
        with pytest.raises(ConfigurationError, match="seed"):
            run_many([job], n_jobs=1)
        assert ran == []
        # A valid spec at one job runs the cell untouched.
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,seed=0")
        [outcome] = run_many([job], n_jobs=1)
        assert ran == [job] and outcome.error is None


class TestEscalateKill:
    def test_terminates_cooperative_worker(self):
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_sleep_forever, args=(child,), daemon=True)
        process.start()
        assert parent.recv() == "ready"
        assert escalate_kill(process, grace_seconds=5.0) == "terminated"
        assert not process.is_alive()

    def test_kills_sigterm_ignoring_worker_without_blocking(self):
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_ignore_sigterm_forever, args=(child,), daemon=True
        )
        process.start()
        assert parent.recv() == "ready"  # SIG_IGN is installed
        start = time.monotonic()
        how = escalate_kill(process, grace_seconds=0.3, join_timeout_seconds=5.0)
        assert how == "killed"
        assert not process.is_alive()
        assert time.monotonic() - start < 10.0

    def test_already_dead(self):
        ctx = multiprocessing.get_context()
        process = ctx.Process(target=_double, args=(1,), daemon=True)
        process.start()
        process.join()
        assert escalate_kill(process) == "already-dead"


class TestSupervisorBasics:
    def test_runs_tasks_and_orders_outcomes(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        outcomes = supervisor.run(tasks_for(_double, [1, 2, 3]), n_workers=2)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_deterministic_failure_fails_fast(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=3, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            tasks_for(_raise_config_error, [None]), n_workers=2
        )
        assert not outcomes[0].ok
        assert "bad input" in outcomes[0].error
        assert outcomes[0].attempts == 1  # no retry burned on a ReproError
        assert "retry" not in journal.counts

    def test_transient_failure_retries_to_success(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "attempt-marker")
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            [SupervisedTask(0, "flaky", _succeed_second_time, marker)],
            n_workers=2,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == "recovered"
        assert outcomes[0].attempts == 2
        assert journal.counts.get("retry") == 1

    def test_exhausted_retries_give_up_for_each_duplicate(self, tmp_path):
        """Two cells sharing a key each spend their own attempts and
        give up on their own; neither is failed on the other's behalf."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        tasks = [
            SupervisedTask(0, "poison", _raise_oserror, None),
            SupervisedTask(1, "poison", _raise_oserror, None),
        ]
        outcomes = supervisor.run(tasks, n_workers=1)
        assert [o.attempts for o in outcomes] == [2, 2]
        assert all("flaky io" in o.error for o in outcomes)
        assert journal.counts.get("retry") == 2
        assert journal.counts.get("give_up") == 2
        assert set(journal.counts) == {"pool_start", "worker_error", "retry",
                                       "give_up"}

    def test_a_cell_sharing_a_given_up_key_still_runs(self):
        """A timed-out cell gives up; the next cell with the same key is
        a different cell, and settles on its own result."""
        supervisor = Supervisor(SupervisorPolicy(
            timeout_seconds=0.5, backoff_base_seconds=0.0,
        ))
        tasks = [
            SupervisedTask(0, "K", _sleep_then_double, 0),
            SupervisedTask(1, "K", _double, 21),
        ]
        with deadline(30):
            outcomes = supervisor.run(tasks, n_workers=1)
        assert "timeout" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 42
        assert outcomes[1].attempts == 1


def _pid(payload):
    return os.getpid()


def _interrupt_self_once(payload):
    """Send this process one SIGINT mid-cell, then finish the cell."""
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(0.2)
    return payload


def _interrupt_self_twice(payload):
    """Send this process two SIGINTs mid-cell; the cell never finishes."""
    os.kill(os.getpid(), signal.SIGINT)
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(30)
    return payload


class TestInProcess:
    """``n_workers=0``: every cell runs in this process, under the same
    retry classifier, journal and interrupt rule as the pool."""

    def test_cells_run_here_without_a_pool(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        outcomes = supervisor.run(tasks_for(_pid, [None, None]), n_workers=0)
        assert [o.value for o in outcomes] == [os.getpid()] * 2
        assert all(o.worker_id == "inline" for o in outcomes)
        assert supervisor.last_pool_report is None
        assert journal.events_written == 0

    def test_transient_failure_retries_in_process(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "attempt-marker")
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        [outcome] = supervisor.run(
            [SupervisedTask(0, "flaky", _succeed_second_time, marker)],
            n_workers=0,
        )
        assert outcome.ok and outcome.value == "recovered"
        assert outcome.attempts == 2
        assert outcome.worker_id == "inline"
        assert journal.counts == {"retry": 1}

    def test_negative_worker_count_is_rejected(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            Supervisor(SupervisorPolicy()).run(tasks_for(_double, [1]),
                                               n_workers=-1)

    def test_first_signal_lets_the_running_cell_finish(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        settled = []
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        tasks = tasks_for(_double, [1]) + [
            SupervisedTask(1, "t1", _interrupt_self_once, 1),
            SupervisedTask(2, "t2", _double, 3),
        ]
        with deadline(30), pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=0, on_settle=settled.append)
        assert [o.value for o in settled] == [2, 1]
        assert "2 of 3 cell(s) settled" in str(excinfo.value)
        assert journal.counts == {"interrupt": 1}

    def test_second_signal_stops_the_running_cell_at_once(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        settled = []
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        tasks = tasks_for(_double, [1]) + [
            SupervisedTask(1, "t1", _interrupt_self_twice, 1),
            SupervisedTask(2, "t2", _double, 3),
        ]
        start = time.monotonic()
        with deadline(20), pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=0, on_settle=settled.append)
        assert time.monotonic() - start < 10
        assert excinfo.value.signal_name == "SIGINT"
        assert [o.value for o in settled] == [2]
        assert "1 of 3 cell(s) settled" in str(excinfo.value)
        assert journal.counts == {"interrupt": 1}


class TestPersistentPool:
    def test_pool_streams_cells_through_long_lived_workers(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        outcomes = supervisor.run(
            tasks_for(_double, list(range(8))), n_workers=2
        )
        assert [o.value for o in outcomes] == [2 * i for i in range(8)]
        report = supervisor.last_pool_report
        assert report is not None
        assert report.n_workers == 2
        assert report.workers_started == 2
        assert report.respawns == 0
        assert sum(report.cells_per_worker.values()) == 8
        assert set(report.cells_per_worker) <= {"w0", "w1"}
        assert journal.counts.get("pool_start") == 1
        # Every cell was served by a pool worker.
        assert all(o.worker_id in ("w0", "w1") for o in outcomes)

    def test_crash_mid_queue_respawns_worker_and_reenqueues(self, tmp_path):
        """A worker dying mid-cell costs one respawn: the crashed cell
        retries, cells prefetched into that worker's pipe are re-enqueued
        without burning an attempt, and the rest of the queue drains."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "crash-marker")
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        tasks = [SupervisedTask(0, "crashy", _crash_first_time, marker)]
        tasks += [
            SupervisedTask(i, f"t{i}", _double, i) for i in range(1, 6)
        ]
        outcomes = supervisor.run(tasks, n_workers=1)
        assert outcomes[0].ok and outcomes[0].value == "recovered"
        assert outcomes[0].attempts == 2
        # Trailing cells were never charged for riding in a dead pipe.
        assert all(o.ok and o.attempts == 1 for o in outcomes[1:])
        assert journal.counts.get("crash") == 1
        assert journal.counts.get("worker_respawn", 0) >= 1
        report = supervisor.last_pool_report
        assert report.respawns >= 1
        assert report.workers_started >= 2
        # The crash incident names the worker that died.
        crash_lines = [
            json.loads(line) for line in open(journal.path)
            if json.loads(line)["event"] == "crash"
        ]
        assert crash_lines[0]["worker"] == "w0"

    def test_hang_kills_one_worker_not_the_pool(self, tmp_path, monkeypatch):
        """Idle-timeout enforcement is per worker: the wedged worker is
        killed and respawned while its sibling keeps serving cells."""
        monkeypatch.setattr("repro.sim.supervisor.GRACE_SECONDS", 0.3)
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "hang-marker")
        supervisor = Supervisor(
            SupervisorPolicy(
                max_attempts=2, hang_timeout_seconds=0.3,
                backoff_base_seconds=0.0,
            ),
            journal=journal,
        )
        tasks = [SupervisedTask(0, "wedged", _hang_first_time, marker)]
        tasks += [
            SupervisedTask(i, f"t{i}", _double, i) for i in range(1, 8)
        ]
        outcomes = supervisor.run(tasks, n_workers=2)
        assert outcomes[0].ok and outcomes[0].value == "woke"
        assert outcomes[0].attempts == 2
        assert all(o.ok and o.attempts == 1 for o in outcomes[1:])
        assert journal.counts.get("hang") == 1
        assert journal.counts.get("worker_respawn", 0) >= 1
        report = supervisor.last_pool_report
        assert report.respawns >= 1
        # The sibling survived: both workers served cells.
        assert len(report.cells_per_worker) >= 2

    def test_rss_ceiling_kills_the_worker_and_names_it(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_rss_bytes=1, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            tasks_for(_sleep_then_double, [1]), n_workers=1
        )
        assert not outcomes[0].ok
        assert "RSS" in outcomes[0].error
        with open(journal.path) as fp:
            rss_lines = [e for e in map(json.loads, fp)
                         if e["event"] == "rss_kill"]
        assert len(rss_lines) == 1
        assert rss_lines[0]["key"] == "t0"
        assert re.fullmatch(r"w\d+", rss_lines[0]["worker"])
        assert "1-byte ceiling" in rss_lines[0]["detail"]

    def test_pool_start_failure_falls_back_to_serial(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        monkeypatch.setattr("repro.sim.supervisor.SPAWN_FAILURE_LIMIT", 2)
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        messages = []
        supervisor = Supervisor(
            SupervisorPolicy(**FAST), log=messages.append, journal=journal,
        )
        outcomes = supervisor.run(
            tasks_for(_double, [1, 2, 3]), n_workers=2
        )
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert any(o.worker_id == "inline" for o in outcomes)
        assert journal.counts.get("serial_fallback") == 1
        assert any("falling back to in-process serial" in m for m in messages)

    def test_workers_dying_before_their_handshake_fall_back_to_serial(
        self, tmp_path
    ):
        """A pool whose workers die while starting gives up on them after
        SPAWN_FAILURE_LIMIT deaths, instead of respawning them without
        end, and runs every cell in process."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(**FAST), journal=journal,
            worker_setup=_exit_before_ready,
        )
        with deadline(60):
            outcomes = supervisor.run(
                tasks_for(_double, [1, 2, 3, 4]), n_workers=2
            )
        assert [o.value for o in outcomes] == [2, 4, 6, 8]
        assert all(o.worker_id == "inline" for o in outcomes)
        assert journal.counts.get("spawn_failure") == SPAWN_FAILURE_LIMIT
        assert journal.counts.get("serial_fallback") == 1
        assert "crash" not in journal.counts

    def test_pool_interrupt_settles_incrementally(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        settled = []
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        tasks = tasks_for(_double, list(range(30)))

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 3:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=2, on_settle=on_settle)
        exc = excinfo.value
        assert exc.signal_name == "SIGINT"
        assert 3 <= len(settled) < len(tasks)
        assert all(o.ok and o.value == 2 * o.task.payload for o in settled)
        assert f"{len(settled)} of {len(tasks)} cell(s) settled" in str(exc)


class TestInjectedWorkerFaults:
    def test_injected_crash_retries_deterministically(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=1,seed=0")
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        outcomes = supervisor.run(tasks_for(_double, [5, 6]), n_workers=2)
        assert [o.value for o in outcomes] == [10, 12]
        assert all(o.attempts == 2 for o in outcomes)
        assert journal.counts.get("crash") == 2
        crash_lines = [
            json.loads(line) for line in open(journal.path)
            if json.loads(line)["event"] == "crash"
        ]
        assert all(
            str(INJECTED_CRASH_EXIT_CODE) in line["detail"]
            for line in crash_lines
        )

    def test_injected_hang_is_killed_by_idle_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang=1.0,max_attempt=1,seed=0")
        monkeypatch.setattr("repro.sim.supervisor.GRACE_SECONDS", 0.3)
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(
                max_attempts=2, hang_timeout_seconds=0.3,
                backoff_base_seconds=0.0,
            ),
            journal=journal,
        )
        outcomes = supervisor.run(tasks_for(_double, [7]), n_workers=2)
        assert outcomes[0].ok and outcomes[0].value == 14
        assert outcomes[0].attempts == 2
        assert journal.counts.get("hang") == 1

    def test_injected_spawn_failures_fall_back_to_serial(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        monkeypatch.setattr("repro.sim.supervisor.SPAWN_FAILURE_LIMIT", 2)
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        messages = []
        supervisor = Supervisor(
            SupervisorPolicy(**FAST), log=messages.append, journal=journal,
        )
        outcomes = supervisor.run(tasks_for(_double, [1, 2, 3]), n_workers=2)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok for o in outcomes)
        assert any(o.worker_id == "inline" for o in outcomes)
        assert journal.counts.get("serial_fallback") == 1
        assert journal.counts.get("spawn_failure", 0) >= 2
        assert any("falling back to in-process serial" in m for m in messages)


#: A parent that fills a two-worker pool, prints the workers' pids once
#: every cell has settled (both workers idle), then waits to be killed.
_IDLE_POOL_PARENT = """
import multiprocessing, sys, time
from repro.sim.supervisor import SupervisedTask, Supervisor, SupervisorPolicy

tasks = [SupervisedTask(index=i, key=f"t{i}", target=abs, payload=-i)
         for i in range(4)]
settled = []

def on_settle(outcome):
    settled.append(outcome)
    if len(settled) == len(tasks):
        pids = [child.pid for child in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)
        time.sleep(120)

Supervisor(SupervisorPolicy()).run(tasks, n_workers=2, on_settle=on_settle)
"""


def _exited(pid):
    """Whether ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestPoolWorkerLifetime:
    def test_hung_pool_worker_stops_on_sigterm(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang=1.0,max_attempt=1,seed=0")
        monkeypatch.setattr("repro.sim.supervisor.GRACE_SECONDS", 5.0)
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(
                max_attempts=2, hang_timeout_seconds=0.3,
                backoff_base_seconds=0.0,
            ),
            journal=journal,
        )
        outcomes = supervisor.run(tasks_for(_double, [7]), n_workers=1)
        assert outcomes[0].ok and outcomes[0].value == 14
        with open(journal.path) as fp:
            hangs = [e for e in map(json.loads, fp) if e["event"] == "hang"]
        assert len(hangs) == 1
        # Not "worker killed": SIGTERM alone stopped it, without the
        # grace period running out.
        assert hangs[0]["detail"].endswith("; worker terminated")

    def test_idle_workers_exit_after_their_parent_is_sigkilled(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        parent = subprocess.Popen(
            [sys.executable, "-c", _IDLE_POOL_PARENT],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        workers = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            parent.kill()
            parent.wait(10)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not all(
                _exited(pid) for pid in workers
            ):
                time.sleep(0.1)
            assert [pid for pid in workers if not _exited(pid)] == []
        finally:
            parent.kill()
            parent.wait(10)
            parent.stdout.close()
            for pid in workers:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)


class TestGracefulInterrupt:
    def test_sigint_mid_pool_raises_interrupted_with_settled_outcomes(
        self, tmp_path
    ):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        settled = []
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        tasks = tasks_for(_double, list(range(30)))

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=1, on_settle=on_settle)
        exc = excinfo.value
        assert exc.signal_name == "SIGINT"
        assert 2 <= len(settled) < len(tasks)
        assert all(o.ok and o.value == 2 * o.task.payload for o in settled)
        assert f"{len(settled)} of {len(tasks)} cell(s) settled" in str(exc)
        assert journal.counts.get("interrupt") == 1

    def test_sigterm_reports_its_own_name(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        tasks = tasks_for(_double, list(range(30)))
        settled = []

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=1, on_settle=on_settle)
        assert excinfo.value.signal_name == "SIGTERM"

    def test_signal_handlers_are_restored(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        supervisor.run(tasks_for(_double, [1]), n_workers=2)
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term


class TestRunStateIsPerRun:
    """One Supervisor may run many grids; no run may inherit another's
    fallback, interrupt, or report."""

    def test_serial_fallback_does_not_carry_into_the_next_run(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.sim.supervisor.SPAWN_FAILURE_LIMIT", 1)
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        fallen_back = supervisor.run(
            tasks_for(_double, [1, 2, 3]), n_workers=2
        )
        assert all(o.worker_id == "inline" for o in fallen_back)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        outcomes = supervisor.run(
            tasks_for(_double, [4, 5, 6]), n_workers=2
        )
        assert [o.value for o in outcomes] == [8, 10, 12]
        assert all(o.worker_id in ("w0", "w1") for o in outcomes)
        report = supervisor.last_pool_report
        assert report.workers_started == 2
        assert sum(report.cells_per_worker.values()) == 3

    def test_interrupt_does_not_carry_into_the_next_run(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        settled = []

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 1:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError):
            supervisor.run(tasks_for(_double, list(range(30))), n_workers=1,
                           on_settle=on_settle)
        outcomes = supervisor.run(tasks_for(_double, [1, 2, 3]), n_workers=1)
        assert [o.value for o in outcomes] == [2, 4, 6]


class TestAmbientPolicy:
    def test_nesting_and_clearing(self, tmp_path):
        """The innermost block supplies both the policy and the journal."""
        assert current_supervision() == (None, None)
        outer = SupervisorPolicy(max_attempts=3)
        inner = SupervisorPolicy(max_attempts=5)
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        with use_supervision(outer, journal):
            assert current_supervision() == (outer, journal)
            with use_supervision(inner):
                assert current_supervision() == (inner, None)
            with use_supervision(None):
                assert current_supervision() == (None, None)
            assert current_supervision() == (outer, journal)
        assert current_supervision() == (None, None)
