"""Tests for distributed supervised dispatch (repro.sim.remote)."""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    EnvKnobError,
    RemoteError,
    RemoteProtocolError,
)
from repro.sim.export import result_to_json
from repro.sim.parallel import (
    SimJob,
    last_remote_report,
    raise_on_failures,
    run_many,
)
from repro.sim.remote import (
    ENDPOINTS_ENV_VAR,
    REMOTE_PROTOCOL_VERSION,
    Endpoint,
    FramedConnection,
    code_fingerprint,
    connect_endpoint,
    endpoints_from_env,
    parse_endpoint,
    parse_endpoints,
    resolve_endpoints,
    serve,
    start_endpoint_process,
)
from repro.sim.supervisor import (
    FAULTS_ENV_VAR,
    IncidentJournal,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
    use_supervision,
)
from tests.conftest import make_config

from .golden_cases import (
    ACCESSES_PER_CONTEXT,
    NUM_CONTEXTS,
    STACKED_PAGES,
    fixture_path,
    golden_cases,
)

FAST = dict(backoff_base_seconds=0.0, grace_seconds=0.5,
            join_timeout_seconds=5.0, connect_timeout_seconds=5.0)


def _double(payload):
    return payload * 2


def _raise_oserror(payload):
    raise OSError("flaky io")


def _raise_config_error(payload):
    raise ConfigurationError("bad input")


def tasks_for(target, payloads):
    return [
        SupervisedTask(index=i, key=f"t{i}", target=target, payload=p)
        for i, p in enumerate(payloads)
    ]


@pytest.fixture
def endpoint_pair():
    """Two live `serve()` subprocesses; terminated on teardown."""
    started = [start_endpoint_process() for _ in range(2)]
    yield started
    for process, _ in started:
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)


class TestEndpointSpecs:
    def test_parse_endpoint(self):
        endpoint = parse_endpoint(" 10.0.0.2:7463 ")
        assert endpoint == Endpoint("10.0.0.2", 7463)
        assert endpoint.address == "10.0.0.2:7463"

    @pytest.mark.parametrize("bad", [
        "nohost", "host:", ":7463", "host:port", "host:0", "host:70000",
    ])
    def test_bad_specs_are_remote_errors(self, bad):
        with pytest.raises(RemoteError):
            parse_endpoint(bad)

    def test_parse_endpoints_list(self):
        endpoints = parse_endpoints("a:1, b:2,")
        assert [e.address for e in endpoints] == ["a:1", "b:2"]
        assert parse_endpoints(None) == []
        assert parse_endpoints("  ") == []

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(RemoteError, match="more than once"):
            parse_endpoints("a:1,a:1")

    def test_env_endpoints(self, monkeypatch):
        monkeypatch.delenv(ENDPOINTS_ENV_VAR, raising=False)
        assert endpoints_from_env() == []
        monkeypatch.setenv(ENDPOINTS_ENV_VAR, "h:9")
        assert [e.address for e in endpoints_from_env()] == ["h:9"]

    def test_bad_env_is_a_named_knob_error(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV_VAR, "garbage")
        with pytest.raises(EnvKnobError, match="REPRO_ENDPOINTS"):
            endpoints_from_env()

    def test_resolve_explicit_empty_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV_VAR, "h:9")
        assert resolve_endpoints([]) == []
        assert [e.address for e in resolve_endpoints(None)] == ["h:9"]
        mixed = resolve_endpoints(["a:1", Endpoint("b", 2)])
        assert [e.address for e in mixed] == ["a:1", "b:2"]


class TestFraming:
    def _pair(self):
        a, b = socket.socketpair()
        return FramedConnection(a), FramedConnection(b)

    def test_round_trip(self):
        left, right = self._pair()
        try:
            left.send({"hello": [1, 2, 3]})
            assert right.recv() == {"hello": [1, 2, 3]}
        finally:
            left.close()
            right.close()

    def test_clean_close_is_eof(self):
        left, right = self._pair()
        left.close()
        with pytest.raises(EOFError):
            right.recv()
        right.close()

    def test_oversized_header_is_protocol_corruption(self):
        left, right = self._pair()
        try:
            # A raw header claiming an absurd frame must be rejected
            # before any allocation is attempted.
            left._sock.sendall((2 ** 62).to_bytes(8, "big"))
            with pytest.raises(RemoteProtocolError, match="corrupt"):
                right.recv()
        finally:
            left.close()
            right.close()


class TestHandshake:
    def _serve_once(self):
        bound = []
        event = threading.Event()

        def report(endpoint):
            bound.append(endpoint)
            event.set()

        thread = threading.Thread(
            target=serve, kwargs=dict(once=True, on_bound=report), daemon=True
        )
        thread.start()
        assert event.wait(10.0), "server never bound"
        return bound[0], thread

    def test_matching_build_is_welcomed(self):
        endpoint, thread = self._serve_once()
        conn, welcome = connect_endpoint(endpoint, timeout=5.0)
        try:
            assert welcome["protocol"] == REMOTE_PROTOCOL_VERSION
            assert welcome["fingerprint"] == code_fingerprint()
            assert "server" in welcome
        finally:
            conn.send({"stop": True})
            conn.close()
            thread.join(timeout=5.0)

    def test_protocol_skew_is_rejected_deterministically(self):
        endpoint, thread = self._serve_once()
        sock = socket.create_connection((endpoint.host, endpoint.port), 5.0)
        conn = FramedConnection(sock)
        try:
            conn.send({
                "kind": "repro-remote-hello",
                "protocol": REMOTE_PROTOCOL_VERSION + 1,
                "fingerprint": code_fingerprint(),
            })
            reject = conn.recv()
            assert reject["kind"] == "repro-remote-reject"
            assert "version skew" in reject["reason"]
        finally:
            conn.close()
            thread.join(timeout=5.0)

    def test_fingerprint_skew_is_rejected(self):
        endpoint, thread = self._serve_once()
        sock = socket.create_connection((endpoint.host, endpoint.port), 5.0)
        conn = FramedConnection(sock)
        try:
            conn.send({
                "kind": "repro-remote-hello",
                "protocol": REMOTE_PROTOCOL_VERSION,
                "fingerprint": "not-this-build",
            })
            reject = conn.recv()
            assert reject["kind"] == "repro-remote-reject"
            assert "fingerprint" in reject["reason"]
        finally:
            conn.close()
            thread.join(timeout=5.0)


class TestRemoteDispatch:
    def test_cells_stream_through_remote_endpoints(self, endpoint_pair,
                                                   tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        addresses = [endpoint.address for _, endpoint in endpoint_pair]
        outcomes = supervisor.run(
            tasks_for(_double, list(range(8))), n_workers=2,
            endpoints=addresses,
        )
        assert [o.value for o in outcomes] == [2 * i for i in range(8)]
        # Every cell was served remotely, and the worker id names the host.
        assert all("@" in o.worker_id for o in outcomes)
        report = supervisor.last_remote_report
        assert report is not None
        assert sorted(report.endpoints) == sorted(addresses)
        assert report.sessions_opened == 2
        assert not report.degraded and not report.quarantined
        assert sum(report.cells_per_endpoint.values()) == 8
        assert journal.counts.get("endpoint_connect") == 2

    def test_remote_mode_without_endpoints_is_a_config_error(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        with pytest.raises(ConfigurationError, match="endpoint"):
            supervisor.run(tasks_for(_double, [1]), n_workers=2,
                           dispatch="remote", endpoints=[])

    def test_deterministic_failure_fails_fast_remotely(self, endpoint_pair):
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=3, **FAST)
        )
        outcomes = supervisor.run(
            tasks_for(_raise_config_error, [None]), n_workers=1,
            endpoints=[endpoint_pair[0][1].address],
        )
        assert not outcomes[0].ok
        assert "bad input" in outcomes[0].error
        assert outcomes[0].attempts == 1

    def test_unreachable_endpoints_quarantine_and_degrade(self, tmp_path):
        # Bind-then-close gives ports that refuse connections instantly.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        messages = []
        supervisor = Supervisor(
            SupervisorPolicy(endpoint_failure_limit=2, **FAST),
            log=messages.append, journal=journal,
        )
        outcomes = supervisor.run(
            tasks_for(_double, [1, 2, 3]), n_workers=1,
            endpoints=[f"127.0.0.1:{dead_port}"],
        )
        # The grid still completed, on the local fallback ladder.
        assert [o.value for o in outcomes] == [2, 4, 6]
        report = supervisor.last_remote_report
        assert report.degraded
        assert f"127.0.0.1:{dead_port}" in report.quarantined
        assert journal.counts.get("endpoint_quarantine") == 1
        assert journal.counts.get("remote_degraded") == 1
        assert any("falling back to local dispatch" in m for m in messages)

    def test_session_drop_reconnects_with_results_intact(
        self, monkeypatch, tmp_path
    ):
        """Chaos in the serving process only: every first attempt drops
        its connection mid-cell. The parent retries the cell and opens a
        fresh session to the same endpoint."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=1,seed=0")
        process, endpoint = start_endpoint_process()
        monkeypatch.delenv(FAULTS_ENV_VAR)
        try:
            journal = IncidentJournal(str(tmp_path / "j.jsonl"))
            supervisor = Supervisor(
                SupervisorPolicy(max_attempts=2, **FAST), journal=journal
            )
            outcomes = supervisor.run(
                tasks_for(_double, [1, 2, 3]), n_workers=1,
                endpoints=[endpoint.address],
            )
        finally:
            process.terminate()
            process.join(timeout=5.0)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.attempts == 2 for o in outcomes)
        assert all(endpoint.address in o.worker_id for o in outcomes)
        report = supervisor.last_remote_report
        assert report.reconnects >= 1
        assert not report.quarantined and not report.degraded
        assert journal.counts.get("endpoint_reconnect", 0) >= 1
        assert journal.counts.get("crash") == 3
        assert journal.counts.get("retry") == 3

    def test_endpoint_hang_is_policed_and_retried(self, monkeypatch,
                                                  tmp_path):
        """A wedged session stops heartbeating: the parent's own clock
        declares the hang, and the cell retries elsewhere."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang=1.0,max_attempt=1,seed=0")
        process, endpoint = start_endpoint_process()
        monkeypatch.delenv(FAULTS_ENV_VAR)
        try:
            journal = IncidentJournal(str(tmp_path / "j.jsonl"))
            supervisor = Supervisor(
                SupervisorPolicy(
                    max_attempts=2, hang_timeout_seconds=0.5,
                    endpoint_failure_limit=1, **FAST,
                ),
                journal=journal,
            )
            outcomes = supervisor.run(
                tasks_for(_double, [4]), n_workers=1,
                endpoints=[endpoint.address],
            )
        finally:
            process.terminate()
            process.join(timeout=5.0)
        assert outcomes[0].ok and outcomes[0].value == 8
        assert outcomes[0].attempts == 2
        with open(journal.path) as fp:
            hang_lines = [e for e in map(json.loads, fp)
                          if e["event"] == "hang"]
        assert len(hang_lines) == 1
        assert hang_lines[0]["key"] == "t0"
        assert endpoint.address in hang_lines[0]["worker"]
        assert journal.counts.get("retry") == 1

    def test_transient_remote_failure_retries_to_give_up_and_quarantine(
        self, endpoint_pair, tmp_path
    ):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            [SupervisedTask(0, "poison", _raise_oserror, None),
             SupervisedTask(1, "poison", _raise_oserror, None)],
            n_workers=1, endpoints=[endpoint_pair[0][1].address],
        )
        assert not outcomes[0].ok and not outcomes[1].ok
        assert outcomes[0].attempts == 2
        assert "quarantined" in outcomes[1].error
        # Each copy's first attempt fails and retries; the first copy's
        # second failure gives up and quarantines the key.
        assert journal.counts.get("retry") == 2
        assert journal.counts.get("give_up") == 1
        assert journal.counts.get("quarantine") == 1
        assert journal.counts.get("quarantine_hit") == 1

    def test_failing_cell_keeps_its_session(self, endpoint_pair, tmp_path):
        """A cell's own OSError is that cell's error, not a lost
        connection: the endpoint answers it and serves the next cell on
        the same session."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        outcomes = supervisor.run(
            [SupervisedTask(0, "io", _raise_oserror, None),
             SupervisedTask(1, "ok", _double, 3)],
            n_workers=1, endpoints=[endpoint_pair[0][1].address],
        )
        assert "OSError: flaky io" in outcomes[0].error
        assert outcomes[1].value == 6
        report = supervisor.last_remote_report
        assert report.sessions_opened == 1 and report.reconnects == 0
        assert journal.counts.get("worker_error") == 1
        assert "crash" not in journal.counts

    def test_cells_per_endpoint_counts_every_session(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=1,seed=0")
        process, endpoint = start_endpoint_process()
        monkeypatch.delenv(FAULTS_ENV_VAR)
        try:
            supervisor = Supervisor(SupervisorPolicy(max_attempts=2, **FAST))
            supervisor.run(tasks_for(_double, [1, 2, 3]), n_workers=1,
                           endpoints=[endpoint.address])
        finally:
            process.terminate()
            process.join(timeout=5.0)
        report = supervisor.last_remote_report
        assert report.reconnects >= 1
        assert report.cells_per_endpoint == {endpoint.address: 3}

    def test_remote_report_is_per_run(self, tmp_path):
        probe = socket.create_server(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        supervisor = Supervisor(
            SupervisorPolicy(endpoint_failure_limit=1, **FAST)
        )
        supervisor.run(tasks_for(_double, [1]), n_workers=1,
                       endpoints=[f"127.0.0.1:{dead_port}"])
        assert supervisor.last_remote_report.degraded
        outcomes = supervisor.run(tasks_for(_double, [2]), n_workers=1,
                                  endpoints=[])
        assert outcomes[0].value == 4
        assert supervisor.last_remote_report is None

    def test_endpoint_sigkill_mid_grid_retries_on_survivor(
        self, endpoint_pair, tmp_path
    ):
        """Host death mid-grid: the in-flight cell re-enters the retry
        classifier, the dead endpoint quarantines, the survivor and the
        retry finish the grid."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        victim_process, victim = endpoint_pair[0]
        _, survivor = endpoint_pair[1]
        killed = []

        def kill_victim_once(message):
            if message.startswith("done:") and not killed:
                killed.append(True)
                os.kill(victim_process.pid, signal.SIGKILL)

        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=3, endpoint_failure_limit=2,
                             **FAST),
            log=kill_victim_once, journal=journal,
        )
        outcomes = supervisor.run(
            tasks_for(_double, list(range(12))), n_workers=2,
            endpoints=[victim.address, survivor.address],
        )
        assert killed, "the grid finished before the kill fired"
        assert [o.value for o in outcomes] == [2 * i for i in range(12)]
        report = supervisor.last_remote_report
        assert victim.address in report.quarantined
        assert not report.degraded
        assert report.cells_per_endpoint.get(survivor.address, 0) > 0
        assert journal.counts.get("endpoint_quarantine") == 1


class TestGoldenFixturesOverRemoteEndpoints:
    def test_every_golden_fixture_byte_identical_over_two_endpoints(
        self, endpoint_pair
    ):
        """The whole corpus through two remote worker hosts: not one
        byte may move relative to the serial fixtures."""
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        with use_supervision(SupervisorPolicy(**FAST)):
            outcomes = run_many(
                jobs, n_jobs=2,
                endpoints=[endpoint.address for _, endpoint in endpoint_pair],
            )
        raise_on_failures(outcomes, "golden over remote endpoints")
        report = last_remote_report()
        assert report is not None
        assert sum(report.cells_per_endpoint.values()) == len(jobs)
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted over remote endpoints"

    def test_golden_subset_byte_identical_under_endpoint_chaos(
        self, monkeypatch, tmp_path
    ):
        """Endpoint-kill chaos: serving hosts die, the grid degrades to
        the local pool, and the fixtures still match byte for byte."""
        monkeypatch.setenv(
            FAULTS_ENV_VAR, "endpoint_kill=1.0,max_attempt=1,seed=2"
        )
        started = [start_endpoint_process() for _ in range(2)]
        try:
            config = make_config(
                stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
            )
            cases = golden_cases()[:6]
            jobs = [
                SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
                for org, wl in cases
            ]
            journal = IncidentJournal(str(tmp_path / "j.jsonl"))
            with use_supervision(SupervisorPolicy(
                max_attempts=3, endpoint_failure_limit=1, **FAST
            )):
                outcomes = run_many(
                    jobs, n_jobs=2, journal=journal,
                    endpoints=[endpoint.address for _, endpoint in started],
                )
            raise_on_failures(outcomes, "golden under endpoint chaos")
            assert journal.counts.get("endpoint_quarantine", 0) >= 1
            for (org, wl), outcome in zip(cases, outcomes):
                with open(fixture_path(org, wl)) as fp:
                    expected = fp.read()
                assert result_to_json(outcome.result) + "\n" == expected, \
                    f"{org} on {wl} drifted under endpoint chaos"
        finally:
            for process, _ in started:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)


class TestCrossHostResume:
    def test_fresh_parent_resumes_from_the_shared_store(self, tmp_path,
                                                        endpoint_pair):
        """Host A banks half the grid in a shared-directory store and
        dies; a fresh parent ("host B") sharing that directory serves
        the banked cells as hits and simulates only the rest —
        byte-identical to one uninterrupted serial run."""
        from repro.sim.plan import run_jobs_cached
        from repro.sim.result_store import (
            ResultStore,
            SharedDirBackend,
            use_result_store,
        )

        shared = str(tmp_path / "shared-store")
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()[:8]
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        _, first_endpoint = endpoint_pair[0]
        with use_result_store(ResultStore(backend=SharedDirBackend(shared))):
            with use_supervision(SupervisorPolicy(**FAST)):
                first = run_jobs_cached(
                    jobs[:4], n_jobs=2, endpoints=[first_endpoint.address]
                )
        raise_on_failures(first, "host A's half")
        # "Host B": a brand-new store instance over the same directory,
        # a different endpoint roster, the full grid.
        _, second_endpoint = endpoint_pair[1]
        with use_result_store(ResultStore(backend=SharedDirBackend(shared))):
            with use_supervision(SupervisorPolicy(**FAST)):
                resumed = run_jobs_cached(
                    jobs, n_jobs=2, endpoints=[second_endpoint.address]
                )
        raise_on_failures(resumed, "host B's resume")
        assert all(o.cached for o in resumed[:4]), \
            "host A's cells were resimulated instead of served"
        assert any(not o.cached for o in resumed[4:])
        for (org, wl), outcome in zip(cases, resumed):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted across the cross-host resume"
