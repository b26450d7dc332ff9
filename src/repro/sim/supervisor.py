"""One supervision core for every grid in this repo, at every worker count.

The parallel grid (:mod:`repro.sim.parallel`) — and through it every
plan stage and ``repro campaign`` — runs deterministic simulations in
this process or on subprocess workers. One :class:`Supervisor` answers
the operational questions for all of them, at every worker count; it
owns:

* **heartbeats** — workers report progress (accesses simulated, via
  :func:`repro.sim.engine.set_progress_hook`) over the result pipe, so
  the parent distinguishes a *hung* worker (no progress) from a *slow*
  one and applies an idle-based ``hang_timeout_seconds`` (by default
  :data:`DEFAULT_HANG_TIMEOUT_SECONDS`) instead of only a wall-clock
  budget;
* **retry with exponential backoff + deterministic jitter** and a
  retryable-error classifier: timeouts, signals, worker crashes, and
  transient ``OSError``-family failures retry, up to ``max_attempts``
  tries per cell; deterministic :class:`~repro.errors.ReproError`\\ s
  (bad input, simulator bugs) fail fast. Every cell spends its own
  attempts, in process or on a worker;
* **kill escalation** — ``terminate()`` → grace period → ``kill()`` →
  *bounded* ``join()``, so a worker that ignores SIGTERM can never
  deadlock the parent — plus an optional per-worker RSS ceiling;
* **graceful shutdown** — SIGINT/SIGTERM stops launching, escalates a
  kill on every running worker, and raises
  :class:`~repro.errors.InterruptedRunError`, after every completed
  cell has already been delivered to the caller's ``on_settle`` hook
  (which is what flushes results to checkpoints and the result store).
  A cell running in this process finishes first; a second signal stops
  it at once;
* **graceful degradation** — a pool of persistent local workers →
  in-process serial. Cells leave the pool only after
  :data:`SPAWN_FAILURE_LIMIT` spawn failures in a row: a failing
  ``start()``, or a worker that dies or wedges before its ready
  handshake (sandboxed hosts without fork/spawn, workers that cannot
  bootstrap). Results are bit-identical either way because both run
  the same cell body;
* a **JSONL incident journal** recording every retry, timeout, kill,
  crash, give-up, and fallback, for observability.

``n_workers=0`` runs every cell in this process, through the same retry
classifier, journal and interrupt rule as the pool's serial fallback.
Timeouts, hang kills and the RSS ceiling police a worker process, so
they apply only from ``n_workers=1``.

A caller sets all of it in one place: :func:`use_supervision` installs
a :class:`SupervisorPolicy` (the five values a caller may set, each
checked once in its constructor) and an optional
:class:`IncidentJournal` for the grids run inside the block. Without a
journal, ``REPRO_INCIDENT_JOURNAL=<path>`` names one. Everything else
is a module constant.

Deterministic chaos testing rides the worker entrypoint: the
``REPRO_INJECT_WORKER_FAULTS`` environment knob (e.g.
``crash=0.5,hang=0.2,seed=1``) makes a stable, hash-derived subset of
(cell, attempt) pairs crash or hang before simulating, so CI can prove
a grid survives worker kills with byte-identical results.

One supervision loop (:meth:`_Pool.drive`) streams cells through the
pool: prefetching assignment, message pump, timeout/hang policing, and
the failure path back into the retry classifier. A pool worker starts
once, runs an optional ``worker_setup`` hook (imports, kernel dlopen,
cache opening), then streams cells until the queue drains, so spawn
cost is paid once per worker instead of once per cell; a wedged or
crashed worker is killed and *respawned* alone (``worker_respawn``
incidents).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_for_conns
from multiprocessing.reduction import ForkingPickler
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, InterruptedRunError, ReproError

#: Fault-injection knob for the worker entrypoint (chaos testing):
#: ``crash=0.3,hang=0.1,spawn=0.0,max_attempt=1,seed=0``. Rates are
#: per-(cell, attempt) probabilities drawn from a stable hash, so a
#: given spec always fails the same cells — and, with ``max_attempt=1``
#: (the default), only on their first attempt, so retries always
#: converge.
FAULTS_ENV_VAR = "REPRO_INJECT_WORKER_FAULTS"
#: Default incident-journal path (CLI ``--journal`` overrides).
JOURNAL_ENV_VAR = "REPRO_INCIDENT_JOURNAL"
#: Cap on the JSONL incident journal before it rotates to ``<path>.1``.
#: Generous: multi-day campaigns emit kilobyte-scale events, so 64 MiB
#: is months of incidents — the cap exists to bound the pathological
#: case (a crash loop journaling forever), not to trim healthy runs.
JOURNAL_MAX_BYTES = 64 * 1024 * 1024

#: The worker id of a cell run in this process (``n_workers=0``, or the
#: pool's serial fallback).
INLINE_WORKER_ID = "inline"
#: Exit code of an injected worker crash (distinctive in journals).
INJECTED_CRASH_EXIT_CODE = 86
#: Workers rate-limit heartbeat sends to one per this many seconds.
HEARTBEAT_MIN_INTERVAL_SECONDS = 0.1
#: Cells in flight per pool worker: one running plus one buffered in
#: its pipe, so a worker rolls straight into the next cell instead of
#: idling a scheduler quantum while the parent wins the CPU back. The
#: second slot is only filled once every ready worker has a first.
POOL_PREFETCH_DEPTH = 2
#: How often an idle pool worker checks that its parent is still alive.
#: A fork-started worker holds the parent's end of its own pipe (and of
#: every earlier sibling's), so a SIGKILLed parent never closes it and
#: ``recv()`` alone would wait forever.
ORPHAN_POLL_SECONDS = 0.5
#: Backoff between attempts of one cell: the policy's base delay grows
#: by this factor per attempt, up to the cap.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_SECONDS = 30.0
#: Deterministic jitter: a delay is stretched by up to this fraction,
#: hash-derived from (key, attempt) — decorrelates retry bursts without
#: any run-to-run nondeterminism.
BACKOFF_JITTER = 0.1
#: SIGTERM grace before SIGKILL, and the bounded join after either.
GRACE_SECONDS = 2.0
JOIN_TIMEOUT_SECONDS = 5.0
#: Spawn failures in a row before the run falls back to in-process
#: serial execution. A failing ``start()`` counts, and so does a worker
#: that dies, or is killed for wedging, before its ready handshake; a
#: ready handshake resets the count.
SPAWN_FAILURE_LIMIT = 3
#: Worker heartbeat granularity, in simulated accesses. Each heartbeat
#: is a compiled-kernel exit, and a worker sends at most one per
#: HEARTBEAT_MIN_INTERVAL_SECONDS anyway; at this interval a
#: 12,000-access grid cell exits for none, while the python loop (about
#: 4-12 us an access) still beats every 0.06-0.2 s.
HEARTBEAT_INTERVAL_ACCESSES = 16_384


def _unit_hash(*parts: object) -> float:
    """A deterministic draw in [0, 1) from any hashable description.

    The supervisor's only randomness source: backoff jitter and fault
    injection both derive from it, so supervised runs are reproducible
    run-to-run and machine-to-machine.
    """
    blob = repr(parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# -- Retryable-error classification ---------------------------------------------

#: Exception families worth retrying: environmental/transient by nature.
_RETRYABLE_EXCEPTIONS = (
    OSError,            # includes IOError, BrokenPipeError, ConnectionError
    MemoryError,
    TimeoutError,
    EOFError,
    InterruptedError,
    KeyboardInterrupt,  # a signal delivered to the worker, not a bug
    SystemExit,
)


def is_retryable_exception(exc: BaseException) -> bool:
    """Whether re-running the same cell could plausibly succeed.

    :class:`~repro.errors.ReproError` and its family are deterministic —
    bad input or a simulator bug reproduces identically on retry, so
    they fail fast. OS-level trouble (I/O errors, OOM, signals) is
    transient and retries. Anything else (an unexpected ``TypeError``)
    is treated as deterministic: retrying a bug wastes the budget.
    """
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, _RETRYABLE_EXCEPTIONS)


# -- Injected worker faults (chaos knob) ----------------------------------------


@dataclass(frozen=True)
class InjectedFaults:
    """Parsed ``REPRO_INJECT_WORKER_FAULTS`` specification."""

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    spawn_rate: float = 0.0
    #: Inject only while ``attempt <= max_attempt`` — the default (1)
    #: guarantees retries converge, which keeps chaos runs deterministic
    #: *and* terminating.
    max_attempt: int = 1
    seed: int = 0

    @property
    def active(self) -> bool:
        return self.crash_rate > 0 or self.hang_rate > 0 or self.spawn_rate > 0


#: The knob's fields and their types: the rates are probabilities in
#: [0, 1]; ``max_attempt`` and ``seed`` are integers.
_FAULT_FIELDS = {"crash": float, "hang": float, "spawn": float,
                 "max_attempt": int, "seed": int}


def parse_injected_faults(text: Optional[str]) -> Optional[InjectedFaults]:
    """Parse the env knob; None when unset/empty, raises on a bad spec."""
    if not text or not text.strip():
        return None
    fields: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} entry {part!r} is not name=value"
            )
        name, _, raw = part.partition("=")
        name = name.strip()
        kind = _FAULT_FIELDS.get(name)
        if kind is None:
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} has unknown field {name!r}; "
                f"known: {', '.join(_FAULT_FIELDS)}"
            )
        try:
            value = kind(raw)
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} value {raw!r} for {name!r} is not {what}"
            ) from None
        if kind is float and not 0.0 <= value <= 1.0:
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} {name}={value} is not within [0, 1]"
            )
        fields[name] = value
    max_attempt = fields.get("max_attempt", 1)
    if max_attempt < 1:
        raise ConfigurationError(
            f"{FAULTS_ENV_VAR} max_attempt={max_attempt} is below 1, so "
            "no attempt would ever be sabotaged"
        )
    return InjectedFaults(
        crash_rate=fields.get("crash", 0.0),
        hang_rate=fields.get("hang", 0.0),
        spawn_rate=fields.get("spawn", 0.0),
        max_attempt=max_attempt,
        seed=fields.get("seed", 0),
    )


def _maybe_inject_worker_fault(faults: InjectedFaults, key: str, attempt: int) -> None:
    """Crash or hang this worker if the (key, attempt) draw says so."""
    if attempt > faults.max_attempt:
        return
    draw = _unit_hash("inject-worker", faults.seed, key, attempt)
    if draw < faults.crash_rate:
        os._exit(INJECTED_CRASH_EXIT_CODE)
    if draw < faults.crash_rate + faults.hang_rate:
        while True:  # a genuine hang: alive, no progress, ignores nothing
            time.sleep(3600)


def _spawn_should_fail(faults: Optional[InjectedFaults], key: str, attempt: int) -> bool:
    if faults is None or faults.spawn_rate <= 0:
        return False
    return _unit_hash("inject-spawn", faults.seed, key, attempt) < faults.spawn_rate


# -- The incident journal -------------------------------------------------------


class IncidentJournal:
    """Append-only JSONL record of supervision incidents.

    One line per event — ``retry``, ``timeout``, ``hang``, ``crash``,
    ``worker_error``, ``rss_kill``, ``give_up``,
    ``spawn_failure``, ``serial_fallback``, ``interrupt``, and the
    pool-lifecycle events ``pool_start`` and ``worker_respawn`` — with
    the cell key, the
    attempt number, the id of the worker that served the cell (empty
    when no worker was involved), and a human-readable detail. Each
    line is flushed as written, so the journal is readable while the
    run is still going (and survives a later crash of the parent).

    The file is capped at :data:`JOURNAL_MAX_BYTES`. Reaching the
    cap atomically renames the file to ``<path>.1``
    (replacing any previous rotation) and starts the live file fresh
    with a ``journal_rotated`` event, so the tail stays readable
    mid-run and a multi-day campaign can never fill the disk with
    incidents.
    """

    def __init__(self, path: str):
        self.path = path
        self.events_written = 0
        self.rotations = 0
        self.counts: Dict[str, int] = {}

    def _entry(self, event: str, key: str = "", attempt: int = 0,
               detail: str = "", worker: str = "") -> Dict[str, object]:
        entry = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "event": event,
            "key": key,
            "attempt": attempt,
            "detail": detail,
            "worker": worker,
        }
        self.counts[event] = self.counts.get(event, 0) + 1
        self.events_written += 1
        return entry

    def _maybe_rotate(self, incoming_bytes: int) -> Optional[Dict[str, object]]:
        """Rotate if the incoming line would break the cap; returns the
        ``journal_rotated`` entry to lead the fresh file, or None."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return None
        if size == 0 or size + incoming_bytes <= JOURNAL_MAX_BYTES:
            return None
        rotated_to = self.path + ".1"
        os.replace(self.path, rotated_to)
        self.rotations += 1
        return self._entry(
            "journal_rotated",
            detail=f"rotated {size} bytes to {rotated_to}",
        )

    def record(self, event: str, key: str = "", attempt: int = 0,
               detail: str = "", worker: str = "") -> None:
        entry = self._entry(event, key=key, attempt=attempt,
                            detail=detail, worker=worker)
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            rotated = self._maybe_rotate(len(line))
            with open(self.path, "a") as fp:
                if rotated is not None:
                    fp.write(json.dumps(rotated, sort_keys=True) + "\n")
                fp.write(line)
        except OSError:
            # Observability must never sink the run it observes.
            pass


def journal_from_env() -> Optional[IncidentJournal]:
    """The env-configured journal (``REPRO_INCIDENT_JOURNAL``), or None."""
    path = os.environ.get(JOURNAL_ENV_VAR)
    if not path:
        return None
    return IncidentJournal(path)


# -- Kill escalation ------------------------------------------------------------


def escalate_kill(
    process: multiprocessing.process.BaseProcess,
    grace_seconds: float = GRACE_SECONDS,
    join_timeout_seconds: float = JOIN_TIMEOUT_SECONDS,
) -> str:
    """Stop a worker without ever blocking forever; returns how it died.

    ``terminate()`` (SIGTERM) → bounded grace join → ``kill()``
    (SIGKILL, uncatchable) → bounded join. The unbounded
    ``terminate(); join()`` this replaces deadlocked the parent whenever
    a worker ignored SIGTERM. Returns ``"terminated"``, ``"killed"``,
    ``"already-dead"``, or — join still failing after SIGKILL, which
    only an unkillable (D-state) process can produce — ``"leaked"``.
    """
    if not process.is_alive():
        process.join(join_timeout_seconds)
        return "already-dead"
    process.terminate()
    process.join(grace_seconds)
    if not process.is_alive():
        return "terminated"
    process.kill()
    process.join(join_timeout_seconds)
    if process.is_alive():
        return "leaked"
    return "killed"


def _rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of a live process, or None where unknowable."""
    try:
        with open(f"/proc/{pid}/statm") as fp:
            resident_pages = int(fp.read().split()[1])
        page_size = os.sysconf("SC_PAGE_SIZE")
        return resident_pages * page_size
    except (OSError, ValueError, IndexError, AttributeError):
        return None


# -- Policy ---------------------------------------------------------------------

#: The idle budget of a policy that sets none: a worker that reports no
#: progress for this long is killed. A live cell heartbeats every
#: :data:`HEARTBEAT_INTERVAL_ACCESSES` simulated accesses — at most every
#: 0.2 s on the python loop, and a kernel cell shorter than that sends
#: its result before any heartbeat — so only a wedged worker ever comes
#: near it.
DEFAULT_HANG_TIMEOUT_SECONDS = 300.0
#: The smallest enforceable ``timeout_seconds``. The pool supervises
#: workers by polling every few milliseconds, so a budget below this
#: floor cannot be distinguished from "kill immediately".
MIN_TIMEOUT_SECONDS = 0.001


def _check(name: str, value: object, minimum: float, integer: bool = False,
           above: bool = False, note: str = "") -> None:
    """Raise unless ``value`` is a number (an integer if asked) of at
    least ``minimum`` (more than it if ``above``); NaN is no number."""
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (value > minimum if above else value >= minimum)):
        what = "an integer" if integer else "a number"
        raise ConfigurationError(
            f"{name} must be {what} {'>' if above else '>='} {minimum}"
            f"{note}, got {value!r}"
        )


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the cells of one grid are supervised: what a caller may set.

    Every value is checked here, whichever channel it came from (CLI
    flags, a plan stage's ``failure_policy``, a library caller); a bad
    one is a :class:`~repro.errors.ConfigurationError`.
    """

    #: Total tries per cell (first attempt + retries).
    max_attempts: int = 1
    #: Hard wall-clock budget per attempt (None = unbounded; at least
    #: :data:`MIN_TIMEOUT_SECONDS`).
    timeout_seconds: Optional[float] = None
    #: Idle budget per attempt: kill a worker that reports no progress
    #: for this long (None = :data:`DEFAULT_HANG_TIMEOUT_SECONDS`). Unlike
    #: ``timeout_seconds`` this never kills a slow-but-advancing worker.
    hang_timeout_seconds: Optional[float] = None
    #: The first retry's backoff; later ones grow by
    #: :data:`BACKOFF_FACTOR`, up to :data:`BACKOFF_MAX_SECONDS`.
    backoff_base_seconds: float = 0.5
    #: Optional per-worker RSS ceiling (bytes); exceeding it is a kill.
    max_rss_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        _check("max_attempts", self.max_attempts, 1, integer=True)
        if self.timeout_seconds is not None:
            _check("timeout_seconds", self.timeout_seconds, MIN_TIMEOUT_SECONDS,
                   note=" (MIN_TIMEOUT_SECONDS, the finest budget the pool's "
                   "polling can enforce)")
        if self.hang_timeout_seconds is not None:
            _check("hang_timeout_seconds", self.hang_timeout_seconds, 0,
                   above=True)
        _check("backoff_base_seconds", self.backoff_base_seconds, 0)
        if self.max_rss_bytes is not None:
            _check("max_rss_bytes", self.max_rss_bytes, 1, integer=True)

    def idle_budget_seconds(self) -> float:
        """The hang budget in force: the policy's own, else the default."""
        if self.hang_timeout_seconds is not None:
            return self.hang_timeout_seconds
        return DEFAULT_HANG_TIMEOUT_SECONDS

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Delay before attempt ``attempt + 1`` of cell ``key``."""
        if self.backoff_base_seconds <= 0:
            return 0.0
        delay = min(
            self.backoff_base_seconds * BACKOFF_FACTOR ** (attempt - 1),
            BACKOFF_MAX_SECONDS,
        )
        return delay * (1.0 + BACKOFF_JITTER * _unit_hash("jitter", key, attempt))


# -- Tasks, outcomes, and the worker bodies -------------------------------------


@dataclass(frozen=True)
class SupervisedTask:
    """One unit of supervised work.

    ``target`` is a function ``target(payload) -> value``, which a pool
    needs to be picklable (module-level); it runs verbatim in a
    subprocess worker *and* in this process (``n_workers=0``, or the
    pool's serial fallback), which is what makes the two bit-identical. ``key``
    labels the cell in logs and the journal; two tasks may share it,
    and each still runs and spends its own attempts.
    """

    index: int
    key: str
    target: Callable
    payload: object


@dataclass
class TaskOutcome:
    """Terminal state of one supervised task."""

    task: SupervisedTask
    value: object = None
    error: Optional[str] = None
    attempts: int = 1
    wall_seconds: float = 0.0
    #: Which worker ran the final attempt: ``w0``/``w1``... for pool
    #: workers, ``inline`` for a cell run in this process.
    worker_id: Optional[str] = None
    #: Seconds spent inside ``target(payload)`` in the worker — the
    #: simulation itself, excluding spawn/dispatch/pipe overhead.
    #: ``wall_seconds - sim_seconds`` is the dispatch overhead.
    sim_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _settled_wall(final: Dict, observed: float) -> float:
    """The cell's wall time: worker-reported when sane, else observed.

    The worker's ``wall_seconds`` (see :func:`_run_cell`) excludes the
    parent's own wake-up latency, which on an oversubscribed host
    inflates the parent-side observation by a scheduler quantum per
    cell.
    """
    reported = final.get("wall_seconds")
    if isinstance(reported, (int, float)) and reported >= 0:
        return float(reported)
    return observed


def _install_heartbeat_hook(conn, heartbeat_every) -> None:
    """Point the engine's progress hook at ``conn`` (best effort)."""
    try:
        from .engine import set_progress_hook

        last_sent = [0.0]

        def heartbeat(total_accesses: int) -> None:
            now = time.monotonic()
            if now - last_sent[0] >= HEARTBEAT_MIN_INTERVAL_SECONDS:
                last_sent[0] = now
                with contextlib.suppress(Exception):
                    conn.send({"hb": total_accesses})

        set_progress_hook(heartbeat, heartbeat_every)
    except Exception:
        pass  # No heartbeats is degraded observability, not a failure.


def _run_worker_setup(setup: Optional[Callable[[], None]]) -> None:
    """Run the warm-up hook; its failure degrades perf, never the run."""
    if setup is None:
        return
    with contextlib.suppress(Exception):
        setup()


def _failed_cell(exc: BaseException) -> Dict[str, object]:
    return {
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "retryable": is_retryable_exception(exc),
    }


def _run_cell(conn, message: Dict, wall_start: float) -> None:
    """Run one task message and answer it with the cell's final message.

    The answer is ``{"ok": True, "value": ..., "sim_seconds": ...,
    "wall_seconds": ...}`` or ``{"ok": False, "error": ...,
    "retryable": ..., ...}``; ``wall_seconds`` counts from
    ``wall_start``, a ``time.monotonic()`` reading. A failing cell
    never takes its worker down; a value that will not pickle is
    reported as the cell's error. Raises only when the answer cannot be
    delivered, i.e. the pipe to the parent is gone.
    """
    started = time.perf_counter()
    try:
        final = {"ok": True, "value": message["target"](message["payload"])}
    except BaseException as exc:  # noqa: BLE001 — must never escape the cell
        final = _failed_cell(exc)
    timing = {
        "sim_seconds": time.perf_counter() - started,
        "wall_seconds": max(0.0, time.monotonic() - wall_start),
    }
    try:
        conn.send({**final, **timing})
    except (EOFError, OSError):
        raise
    except Exception as exc:  # noqa: BLE001 — the value did not pickle
        conn.send({**_failed_cell(exc), **timing})


def _pool_worker_main(worker_id, setup, conn, heartbeat_every) -> None:
    """Persistent-pool subprocess body: set up once, then stream cells.

    The expensive per-process work — interpreter start, ``repro``
    imports, kernel dlopen, cache opening (all via ``setup``) — happens
    exactly once; after that the worker loops on ``conn.recv()``,
    running one cell per ``{"target", "payload", "key", "attempt",
    "dispatched"}`` message through :func:`_run_cell`. ``{"stop":
    True}``, a closed pipe, or the parent's death ends the loop.
    Injected chaos fires per (key, attempt) — a ``crash`` draw takes the
    whole worker down mid-queue, which is precisely the failure the
    parent's respawn logic exists to absorb.

    Interrupts belong to the parent: a terminal's Ctrl-C reaches the
    whole process group, and the parent then stops every worker itself.
    A fork-started worker would otherwise inherit the parent's graceful
    SIGTERM handler and shrug off the ``terminate()`` that starts every
    kill escalation.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    faults = parse_injected_faults(os.environ.get(FAULTS_ENV_VAR))
    _run_worker_setup(setup)
    _install_heartbeat_hook(conn, heartbeat_every)
    # Ready handshake: the parent only assigns cells to workers that
    # have finished setup, so worker start-up cost is paid concurrently
    # at pool start and never shows up as per-cell dispatch overhead.
    with contextlib.suppress(Exception):
        conn.send({"ready": True})
    free_since = time.monotonic()
    while True:
        try:
            while os.getppid() == parent and not conn.poll(ORPHAN_POLL_SECONDS):
                pass
            if os.getppid() != parent:
                break  # orphaned: drop any prefetched cell too
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, dict) or message.get("stop"):
            break
        # A cell's wall clock starts at the parent's dispatch stamp, or
        # — for a prefetched cell that waited in the pipe while this
        # worker ran its predecessor — when the worker became free.
        # ``time.monotonic()`` is CLOCK_MONOTONIC on Linux, one clock
        # per boot rather than per process, so the parent's stamp and
        # this worker's reads are comparable.
        dispatched = message.get("dispatched")
        wall_start = free_since
        if isinstance(dispatched, (int, float)) and dispatched > wall_start:
            wall_start = float(dispatched)
        if faults is not None and faults.active:
            _maybe_inject_worker_fault(
                faults, message.get("key", ""), int(message.get("attempt", 1))
            )
        try:
            _run_cell(conn, message, wall_start)
        except Exception:
            break  # unreportable: die so the parent sees a crash
        free_since = time.monotonic()
    with contextlib.suppress(Exception):
        conn.close()


# -- Graceful-signal plumbing ---------------------------------------------------


class _SignalRaised(KeyboardInterrupt):
    """KeyboardInterrupt that remembers which signal caused it."""

    def __init__(self, signal_name: str):
        super().__init__(signal_name)
        self.signal_name = signal_name


@contextlib.contextmanager
def _signal_handlers(handler):
    """Install ``handler`` for SIGINT/SIGTERM inside the block.

    Outside the main thread (where Python forbids signal handlers) this
    is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):
            pass
    try:
        yield
    finally:
        for signum, restored in previous.items():
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signum, restored)


# -- Ambient supervision --------------------------------------------------------
#
# The one way a caller sets how its grids are supervised: a grid's
# fan-out sits several calls deep (figure runners, ablations, plan
# stages), so the CLI and the plan executor install the policy and the
# journal here instead of threading them through every signature, and
# run_many() reads them.

_ambient: List[Tuple[Optional[SupervisorPolicy], Optional[IncidentJournal]]] = [
    (None, None)
]


@contextlib.contextmanager
def use_supervision(policy: Optional[SupervisorPolicy],
                    journal: Optional[IncidentJournal] = None):
    """Supervise every :func:`repro.sim.parallel.run_many` grid inside
    the block under ``policy``, journaling its incidents to ``journal``.

    The innermost block supplies both values. A ``None`` policy means
    ``SupervisorPolicy()``; a ``None`` journal means the one
    ``REPRO_INCIDENT_JOURNAL`` names, if any.
    """
    _ambient.append((policy, journal))
    try:
        yield policy
    finally:
        _ambient.pop()


def current_supervision() -> Tuple[Optional[SupervisorPolicy],
                                   Optional[IncidentJournal]]:
    """The innermost :func:`use_supervision` ``(policy, journal)``."""
    return _ambient[-1]


# -- Reports --------------------------------------------------------------------


@dataclass
class PoolReport:
    """What the persistent pool did during one :meth:`Supervisor.run`.

    Surfaced as :attr:`Supervisor.last_pool_report` (and from there
    through :func:`repro.sim.parallel.last_pool_report`) so worker
    starts and respawn churn are observable rather than folklore.
    """

    n_workers: int
    workers_started: int = 0
    respawns: int = 0
    cells_per_worker: Dict[str, int] = field(default_factory=dict)


# -- One run: the retry classifier and the in-process fallback -----------------


class _Run:
    """The state of one :meth:`Supervisor.run` call.

    Outcomes, the pending queue, attempts, the
    serial-fallback flag and the interrupt flag all live here and
    die with the call, so a supervisor that fell back to serial — or
    was interrupted — runs its next grid from a clean slate.
    """

    def __init__(self, supervisor: Supervisor,
                 tasks: Sequence[SupervisedTask],
                 on_settle: Optional[Callable[[TaskOutcome], None]]):
        self.policy = supervisor.policy
        self.emit = supervisor.emit
        self.incident = supervisor._incident
        self.on_settle = on_settle
        self.tasks = list(tasks)
        self.outcomes: List[Optional[TaskOutcome]] = [None] * (
            max((t.index for t in self.tasks), default=-1) + 1
        )
        self.pending = deque(self.tasks)
        self.attempts: Dict[int, int] = {}
        self.elapsed: Dict[int, float] = {}
        self.eligible_at: Dict[int, float] = {}
        self.faults = parse_injected_faults(os.environ.get(FAULTS_ENV_VAR))
        #: Set by the pool after repeated spawn failures: the rest of
        #: the run executes in this process, as a run without a pool
        #: does from the start.
        self.inline = False
        self.signal_name: Optional[str] = None
        #: The pool whose workers are live (an interrupt kills them).
        self.pool: Optional[_Pool] = None

    # -- settling --------------------------------------------------------

    def settle(self, task: SupervisedTask, outcome: TaskOutcome) -> None:
        self.outcomes[task.index] = outcome
        if self.on_settle is not None:
            self.on_settle(outcome)
        status = "done" if outcome.ok else "failed"
        detail = "" if outcome.ok else f" ({outcome.error})"
        self.emit(f"{status}: {task.key} ({outcome.wall_seconds:.2f}s){detail}")

    def settle_failure(self, task: SupervisedTask, attempt: int, reason: str,
                       retryable: bool, worker_id: Optional[str] = None,
                       sim_seconds: Optional[float] = None) -> None:
        """Retry a failed attempt, or settle the cell as failed."""
        key = task.key
        if retryable and attempt < self.policy.max_attempts:
            delay = self.policy.backoff_delay(key, attempt)
            self.eligible_at[task.index] = time.monotonic() + delay
            self.pending.append(task)
            self.incident("retry", key, attempt, reason,
                          worker=worker_id or "")
            self.emit(f"retry: {key} after {reason} (backoff {delay:.1f}s)")
            return
        if retryable:
            # The cell defeated every attempt it was allowed.
            self.incident("give_up", key, attempt, reason,
                          worker=worker_id or "")
        if worker_id:
            reason = f"{reason} [worker {worker_id}]"
        self.settle(task, TaskOutcome(
            task, error=reason, attempts=attempt,
            wall_seconds=self.elapsed.get(task.index, 0.0),
            worker_id=worker_id, sim_seconds=sim_seconds,
        ))

    def next_attempt(self, task: SupervisedTask) -> int:
        """Charge ``task`` its next attempt."""
        attempt = self.attempts.get(task.index, 0) + 1
        self.attempts[task.index] = attempt
        return attempt

    # -- the in-process path ---------------------------------------------

    def run_inline(self, task: SupervisedTask, attempt: int) -> None:
        start = time.perf_counter()
        try:
            value = task.target(task.payload)
        except Exception as exc:
            wall = time.perf_counter() - start
            self.elapsed[task.index] = self.elapsed.get(task.index, 0.0) + wall
            self.settle_failure(task, attempt, f"{type(exc).__name__}: {exc}",
                                is_retryable_exception(exc),
                                worker_id=INLINE_WORKER_ID, sim_seconds=wall)
            return
        wall = time.perf_counter() - start
        self.elapsed[task.index] = self.elapsed.get(task.index, 0.0) + wall
        self.settle(task, TaskOutcome(
            task, value=value, attempts=attempt,
            wall_seconds=self.elapsed[task.index],
            worker_id=INLINE_WORKER_ID, sim_seconds=wall,
        ))

    def drain_inline(self) -> None:
        """Run every pending cell in this process, in order.

        With a pool, only a serial fallback leaves cells pending; a run
        without one starts here. A cell still in retry backoff waits
        its turn. A first signal is acted on between cells, so the
        running cell finishes and is settled first.
        """
        while self.pending:
            self.check_signal()
            now = time.monotonic()
            position = next(
                (i for i, task in enumerate(self.pending)
                 if self.eligible_at.get(task.index, 0.0) <= now),
                None,
            )
            if position is None:
                time.sleep(0.005)
                continue
            task = self.pending[position]
            del self.pending[position]
            self.run_inline(task, self.next_attempt(task))

    # -- interrupts ------------------------------------------------------

    def graceful_signals(self):
        """First SIGINT/SIGTERM requests shutdown; a second one forces it."""

        def request_shutdown(signum, frame):
            name = signal.Signals(signum).name
            if self.signal_name is not None:
                raise _SignalRaised(name)
            self.signal_name = name

        return _signal_handlers(request_shutdown)

    def check_signal(self) -> None:
        if self.signal_name is not None:
            self.shutdown(self.signal_name)

    def shutdown(self, signal_name: str) -> None:
        pool, self.pool = self.pool, None
        killed = len(pool.workers) if pool is not None else 0
        self.incident(
            "interrupt", detail=f"{signal_name}: {killed} worker(s) killed, "
            f"{sum(1 for o in self.outcomes if o is None)} cell(s) pending",
        )
        if pool is not None:
            pool.stop(kill=True)
        settled = sum(1 for o in self.outcomes if o is not None)
        raise InterruptedRunError(
            f"interrupted by {signal_name}: {settled} of {len(self.tasks)} "
            "cell(s) settled",
            signal_name=signal_name,
        )


# -- The worker pool ------------------------------------------------------------


@dataclass
class _InFlight:
    """One cell assigned to a worker (running or buffered in its pipe)."""

    task: SupervisedTask
    attempt: int
    assigned_at: float
    last_progress_at: float
    progress: int = 0


@dataclass
class _Worker:
    """One live pool worker process.

    ``queue[0]`` is the cell the worker is running (heartbeats and hang
    policing attach to it); ``queue[1:]`` are prefetched cells waiting
    in its pipe (at most :data:`POOL_PREFETCH_DEPTH` total).
    """

    worker_id: str
    conn: object
    process: multiprocessing.process.BaseProcess
    #: When the worker was spawned (its ready handshake is policed).
    opened_at: float
    queue: List[_InFlight] = field(default_factory=list)
    #: Whether the worker takes cells yet: set by its ready handshake.
    ready: bool = False


class _Pool:
    """Persistent local worker processes streaming cells.

    Workers are spawned once (:func:`_pool_worker_main`) and stream
    cells until the queue drains. :meth:`drive` is the supervision
    loop: it assigns cells with prefetch, pumps heartbeats and final
    messages, polices timeouts, hangs and RSS, and fails a worker back
    through the run's retry classifier. A crashed or hung worker is
    killed and respawned *alone*. Repeated spawn failures give up on
    subprocesses altogether: the pool stops and the run drains the rest
    in-process.
    """

    def __init__(self, run: _Run, n_workers: int, ctx,
                 setup: Optional[Callable[[], None]]):
        self.run = run
        self.policy = run.policy
        self.ctx = ctx
        self.setup = setup
        self.workers: Dict[str, _Worker] = {}
        self.report = PoolReport(n_workers=n_workers)
        self.next_seq = 0
        self.spawn_failures = 0
        self.started = False

    def busy(self) -> int:
        return sum(1 for w in self.workers.values() if w.queue)

    def drive(self) -> None:
        """Stream pending cells through the workers.

        Returns when the queue has drained, or with cells still pending
        after a serial fallback — :meth:`_Run.drain_inline` runs those.
        """
        run = self.run
        run.pool = self
        while run.pending or self.busy():
            run.check_signal()
            if not self.top_up():
                break
            progressed = not run.inline and self.assign(time.monotonic())
            conns = {w.conn: w for w in self.workers.values()}
            if conns:
                # connection.wait() is the latency lever: a final
                # message wakes the parent immediately instead of on
                # the next sleep-poll tick, so dispatch costs
                # microseconds, not a scheduler quantum.
                try:
                    ready = _wait_for_conns(
                        list(conns), timeout=0.0 if progressed else 0.005,
                    )
                except (OSError, ValueError):
                    ready = list(conns)
                for conn in ready:
                    worker = conns[conn]
                    if self.workers.get(worker.worker_id) is worker:
                        self.pump(worker)
            elif not progressed:
                time.sleep(0.005)
            self.police(time.monotonic())
        self.stop(kill=False)
        run.pool = None

    def top_up(self) -> bool:
        """Spawn workers up to what the queue needs; False once the run
        has fallen back to serial and no worker is busy."""
        run = self.run
        busy = self.busy()
        if not run.inline:
            desired = min(self.report.n_workers, busy + len(run.pending))
            while len(self.workers) < desired and not run.inline:
                self.spawn()
            if not self.started and self.workers:
                self.started = True
                run.incident("pool_start",
                             detail=f"{len(self.workers)} persistent worker(s)")
        # After a serial fallback, keep serving only the busy workers.
        return not run.inline or busy > 0

    def spawn(self) -> None:
        seq = self.next_seq
        self.next_seq += 1
        worker_id = f"w{seq}"
        try:
            if _spawn_should_fail(self.run.faults, f"pool-worker-{seq}", 1):
                raise OSError("injected spawn failure")
            parent_conn, child_conn = self.ctx.Pipe(duplex=True)
            process = self.ctx.Process(
                target=_pool_worker_main,
                args=(worker_id, self.setup, child_conn,
                      HEARTBEAT_INTERVAL_ACCESSES),
                daemon=True,
            )
            process.start()
        except OSError as exc:
            self.spawn_failed(worker_id, str(exc))
            return
        child_conn.close()
        self.workers[worker_id] = _Worker(
            worker_id=worker_id, conn=parent_conn, process=process,
            opened_at=time.monotonic(),
        )
        self.report.workers_started += 1
        self.report.cells_per_worker.setdefault(worker_id, 0)
        if self.started:
            self.report.respawns += 1
            self.run.incident("worker_respawn",
                              detail="replacing a dead or killed worker",
                              worker=worker_id)

    def spawn_failed(self, worker_id: str, detail: str) -> None:
        """Count one spawn failure; at the limit, fall back to serial.

        The count resets only on a ready handshake, so a pool whose
        workers all die while starting gives up instead of respawning
        them without end. The fallback releases every worker that has
        not become ready: none of them would ever get a cell.
        """
        run = self.run
        self.spawn_failures += 1
        run.incident("spawn_failure", detail=detail, worker=worker_id)
        if self.spawn_failures < SPAWN_FAILURE_LIMIT:
            return
        run.inline = True
        run.incident(
            "serial_fallback",
            detail=f"{self.spawn_failures} consecutive spawn failures",
        )
        run.emit(
            "WARNING: subprocess spawn failed "
            f"{self.spawn_failures} time(s) ({detail}); falling back "
            "to in-process serial execution (results identical)"
        )
        for worker in [w for w in self.workers.values() if not w.ready]:
            self.close(worker, kill=True)
            del self.workers[worker.worker_id]

    def assign(self, now: float) -> bool:
        # Two passes: every ready worker gets a first cell before any
        # worker gets its prefetch slot filled, so prefetching never
        # starves an idle worker.
        run = self.run
        progressed = False
        blocked: List[SupervisedTask] = []
        for depth in range(1, POOL_PREFETCH_DEPTH + 1):
            for worker in list(self.workers.values()):
                if not worker.ready or len(worker.queue) >= depth:
                    continue
                while run.pending:
                    task = run.pending.popleft()
                    if run.eligible_at.get(task.index, 0.0) > now:
                        blocked.append(task)
                        continue
                    progressed = True
                    attempt = run.next_attempt(task)
                    try:
                        # Pickle before writing: a cell that will not
                        # pickle fails alone, and the pipe stays intact.
                        frame = ForkingPickler.dumps({
                            "target": task.target,
                            "payload": task.payload,
                            "key": task.key,
                            "attempt": attempt,
                            "dispatched": time.monotonic(),
                        })
                    except Exception as exc:  # noqa: BLE001 — any pickling failure
                        run.settle_failure(
                            task, attempt,
                            f"cell will not pickle: {type(exc).__name__}: {exc}",
                            retryable=False,
                        )
                        continue
                    try:
                        worker.conn.send_bytes(frame)
                    except (OSError, ValueError) as exc:
                        run.attempts[task.index] = attempt - 1
                        run.pending.appendleft(task)
                        self.fail_worker(worker, "crash",
                                         *self.lost(worker, exc, "on dispatch"))
                        break
                    worker.queue.append(_InFlight(
                        task=task, attempt=attempt,
                        assigned_at=now, last_progress_at=now,
                    ))
                    run.emit(f"start: {task.key} "
                             f"(attempt {attempt}/{self.policy.max_attempts})")
                    break
        run.pending.extendleft(reversed(blocked))
        return progressed

    def pump(self, worker: _Worker) -> None:
        """Read a worker's messages up to and including one final one."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError) as exc:
                self.fail_worker(worker, "crash",
                                 *self.lost(worker, exc, "mid-cell"))
                return
            if not isinstance(message, dict):
                continue
            if "ready" in message:
                worker.ready = True
                self.spawn_failures = 0
            elif "hb" in message:
                if worker.queue:
                    worker.queue[0].last_progress_at = time.monotonic()
                    worker.queue[0].progress = int(message["hb"])
            else:
                if worker.queue:
                    self.finish(worker, message)
                return

    def finish(self, worker: _Worker, final: Dict) -> None:
        run = self.run
        inflight = worker.queue.pop(0)
        if worker.queue:
            # The prefetched cell is now the one running: restart its
            # policing clocks so its queue wait is not mistaken for a
            # hang or timeout.
            promoted_at = time.monotonic()
            worker.queue[0].assigned_at = promoted_at
            worker.queue[0].last_progress_at = promoted_at
        self.report.cells_per_worker[worker.worker_id] += 1
        task = inflight.task
        run.elapsed[task.index] = run.elapsed.get(task.index, 0.0) + _settled_wall(
            final, time.monotonic() - inflight.assigned_at,
        )
        if final.get("ok"):
            run.settle(task, TaskOutcome(
                task, value=final["value"], attempts=inflight.attempt,
                wall_seconds=run.elapsed[task.index],
                worker_id=worker.worker_id,
                sim_seconds=final.get("sim_seconds"),
            ))
            return
        reason = final.get("error", "worker error")
        run.incident("worker_error", task.key, inflight.attempt, reason,
                     worker=worker.worker_id)
        run.settle_failure(task, inflight.attempt, reason,
                           bool(final.get("retryable", False)),
                           worker_id=worker.worker_id,
                           sim_seconds=final.get("sim_seconds"))

    def police(self, now: float) -> None:
        for worker in list(self.workers.values()):
            if self.workers.get(worker.worker_id) is not worker:
                continue  # released by a serial fallback this pass
            verdict = self.verdict(worker, now)
            if verdict is not None:
                self.fail_worker(worker, *verdict)

    def verdict(self, worker: _Worker, now: float) -> Optional[Tuple]:
        """``(event, reason, kill)`` when ``worker`` must go, else None.

        A busy worker is judged on its running cell (timeout, hang) and
        its RSS; an idle one must be alive and, before its ready
        handshake, within its setup budget (:meth:`fail_worker` counts
        either failure before the handshake as a spawn failure).
        """
        policy = self.policy
        process = worker.process
        if worker.queue:
            inflight = worker.queue[0]
            if (policy.timeout_seconds is not None
                    and now - inflight.assigned_at > policy.timeout_seconds):
                return ("timeout",
                        f"timeout after {policy.timeout_seconds:.1f}s", True)
            idle_budget = policy.idle_budget_seconds()
            if now - inflight.last_progress_at > idle_budget:
                return ("hang",
                        f"hung: no progress for {idle_budget:.1f}s "
                        f"(last heartbeat at {inflight.progress} accesses)", True)
            if policy.max_rss_bytes is not None:
                rss = _rss_bytes(process.pid)
                if rss is not None and rss > policy.max_rss_bytes:
                    return ("rss_kill",
                            f"RSS {rss} bytes exceeded the "
                            f"{policy.max_rss_bytes}-byte ceiling", True)
            return None
        if not process.is_alive():
            process.join(JOIN_TIMEOUT_SECONDS)
            return ("crash",
                    f"idle worker died (exit code {process.exitcode})", False)
        if (not worker.ready and now - worker.opened_at
                > policy.idle_budget_seconds() + GRACE_SECONDS):
            return ("hang", "worker never became ready", True)
        return None

    def lost(self, worker: _Worker, exc: BaseException,
             when: str) -> Tuple[str, bool]:
        """Describe a broken pipe as ``(reason, kill)``: it usually means
        the worker died, so report its exit code rather than the symptom."""
        worker.process.join(JOIN_TIMEOUT_SECONDS)
        if worker.process.is_alive():
            return f"worker pipe broken {when} ({exc})", True
        return f"worker crashed (exit code {worker.process.exitcode})", False

    def fail_worker(self, worker: _Worker, event: str, reason: str,
                    kill: bool) -> None:
        """Close a worker and send its running cell to the retry classifier.

        A worker that fails before its ready handshake held no cell:
        its failure is a spawn failure.
        """
        run = self.run
        detail = reason + self.close(worker, kill)
        self.workers.pop(worker.worker_id, None)
        if not worker.ready:
            self.spawn_failed(worker.worker_id, f"{event}: {detail}")
            return
        queue, worker.queue = worker.queue, []
        # Prefetched cells the worker never started go straight back
        # to pending without burning an attempt.
        for extra in reversed(queue[1:]):
            run.attempts[extra.task.index] -= 1
            run.pending.appendleft(extra.task)
        if queue:
            inflight = queue[0]
            index = inflight.task.index
            run.elapsed[index] = (
                run.elapsed.get(index, 0.0)
                + (time.monotonic() - inflight.assigned_at)
            )
            run.incident(event, inflight.task.key, inflight.attempt, detail,
                         worker=worker.worker_id)
            run.settle_failure(inflight.task, inflight.attempt, reason,
                               retryable=True, worker_id=worker.worker_id)
        else:
            run.incident(event, detail=detail, worker=worker.worker_id)

    def close(self, worker: _Worker, kill: bool) -> str:
        """Release one worker; returns a suffix for the incident detail."""
        suffix = ""
        if kill:
            how = escalate_kill(worker.process, GRACE_SECONDS,
                                JOIN_TIMEOUT_SECONDS)
            suffix = f"; worker {how}"
        else:
            worker.process.join(JOIN_TIMEOUT_SECONDS)
            if worker.process.is_alive():
                escalate_kill(worker.process, GRACE_SECONDS,
                              JOIN_TIMEOUT_SECONDS)
        with contextlib.suppress(Exception):
            worker.conn.close()
        return suffix

    def stop(self, kill: bool) -> None:
        """Close every worker: told to stop once the queue has drained,
        or killed outright."""
        if not kill:
            for worker in self.workers.values():
                with contextlib.suppress(Exception):
                    worker.conn.send({"stop": True})
        for worker in self.workers.values():
            self.close(worker, kill)
        self.workers.clear()


# -- The supervisor -------------------------------------------------------------


class Supervisor:
    """Run tasks in this process or across subprocess workers, under one
    :class:`SupervisorPolicy`.

    Construction is cheap; :meth:`run` owns the whole lifecycle: launch,
    heartbeat tracking, timeouts, retry scheduling, kill escalation,
    serial fallback, and graceful shutdown. ``on_settle(outcome)`` fires
    the moment each task reaches a terminal state — callers use it to
    flush results incrementally (checkpoints, the result store), which
    is exactly what makes interruption lossless.
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        log: Optional[Callable[[str], None]] = None,
        journal: Optional[IncidentJournal] = None,
        ctx=None,
        worker_setup: Optional[Callable[[], None]] = None,
    ):
        self.policy = policy
        self.emit = log if log is not None else (lambda message: None)
        self.journal = journal if journal is not None else journal_from_env()
        self.ctx = ctx if ctx is not None else multiprocessing.get_context()
        #: Picklable zero-arg warm-up hook run once per worker process
        #: (imports, kernel dlopen, cache opening). Failures are
        #: suppressed: a cold worker is slower, not broken.
        self.worker_setup = worker_setup
        #: The :class:`PoolReport` of the most recent run.
        self.last_pool_report: Optional[PoolReport] = None

    def _incident(self, event: str, key: str = "", attempt: int = 0,
                  detail: str = "", worker: str = "") -> None:
        if self.journal is not None:
            self.journal.record(event, key=key, attempt=attempt,
                                detail=detail, worker=worker)

    def run(
        self,
        tasks: Sequence[SupervisedTask],
        n_workers: int = 1,
        on_settle: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> List[Optional[TaskOutcome]]:
        """Supervise every task to a terminal state; outcomes by ``index``.

        ``n_workers=0`` runs every cell in this process, with no pool
        (:attr:`last_pool_report` is then None). Otherwise cells stream
        through a pool of ``n_workers`` persistent local workers, and
        only after repeated spawn failures through this process. Retries,
        the journal and interrupts work the same either way, and results
        are byte-identical; timeouts, hang kills and the RSS ceiling
        need a worker to police.

        Raises :class:`~repro.errors.InterruptedRunError` on
        SIGINT/SIGTERM, after killing the in-flight workers, or after
        the cell running in this process finishes (a second signal
        stops that cell at once); every settled outcome was already
        delivered through ``on_settle``. Any other exception — one
        raised by ``on_settle``, say — also kills the live workers
        before it propagates.
        """
        _check("n_workers", n_workers, 0, integer=True)
        run = _Run(self, tasks, on_settle)
        pool = None
        if n_workers:
            pool = _Pool(run, n_workers, self.ctx, self.worker_setup)
        self.last_pool_report = pool.report if pool is not None else None
        with run.graceful_signals():
            try:
                if pool is not None:
                    pool.drive()
                run.drain_inline()
                run.check_signal()
            except _SignalRaised as exc:
                run.shutdown(exc.signal_name)
            except BaseException:
                # An interrupt has already stopped the workers (this is
                # then a no-op); any other escape must not leave them
                # running behind the caller's back.
                if pool is not None:
                    pool.stop(kill=True)
                raise
        return run.outcomes
