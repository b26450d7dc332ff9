"""Process-pool fan-out for embarrassingly parallel simulation grids.

Every figure, sweep, and benchmark walks an (organization x workload x
seed) grid of *independent deterministic* simulations, so the grid
scales with cores. :func:`run_many` executes a list of picklable
:class:`SimJob` specs across subprocess workers with

* **ordered collection** — outcome ``i`` always describes job ``i``,
  whatever order the workers finished in;
* **per-job error capture** — one failed cell becomes a
  :class:`JobOutcome` with an error string; it never kills the grid;
* **supervision** — workers run under :class:`repro.sim.supervisor.
  Supervisor`: heartbeat-based hang detection alongside the wall-clock
  timeout, retry with exponential backoff for transient failures
  (``max_attempts``), bounded kill escalation instead of an unbounded
  ``join()``, serial fallback when subprocess spawn is impossible,
  SIGINT/SIGTERM-safe shutdown (completed cells survive via
  ``on_outcome``), and an optional JSONL incident journal;
* **bit-identical results** — each job is the same
  :func:`repro.sim.runner.run_workload` call the serial code makes, so
  ``n_jobs``, retries, and fallbacks change wall time, never a single
  byte of a ``RunResult``. ``n_jobs=1`` runs in-process with no
  multiprocessing at all.

Workers are **persistent** (see :mod:`repro.sim.supervisor`): ``n_jobs``
long-lived processes import ``repro``, dlopen the compiled kernel, and
open the trace cache *once* (:func:`_init_worker`), then stream cells
until the grid drains, so a cell's dispatch overhead is one pipe
round-trip rather than a process spawn. Remote ``repro worker serve``
endpoints, when configured, take cells first; results are
byte-identical on every rung of that ladder.

Before launching workers the parent pre-materializes each distinct
trace, as many as the cache's record budget holds, into the
process-wide trace cache — and, whatever the multiprocessing start
method, into its content-addressed *disk* layer —
so fork children inherit traces copy-on-write and ``spawn``/
``forkserver`` children (no inherited memory) load them from disk
instead of regenerating per worker.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Mapping, Optional, Sequence

from ..errors import InterruptedRunError, ParallelError
from .results import RunResult
from .remote import Endpoint, resolve_endpoints
from .supervisor import (
    IncidentJournal,
    PoolReport,
    RemoteReport,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
    TaskOutcome,
    _SignalRaised,
    current_supervision,
    deliver_signals_as_interrupts,
    resolve_dispatch,
)

#: The smallest enforceable ``timeout_seconds``. The pool supervises
#: workers by polling every few milliseconds, so a budget below this
#: floor cannot be distinguished from "kill immediately" and is
#: rejected up front with a message that names the floor.
MIN_TIMEOUT_SECONDS = 0.001


def derive_seed(*parts: object) -> int:
    """A deterministic 63-bit seed from any hashable description.

    Grid builders that want distinct seeds per cell (e.g. per-seed
    replications of a campaign) derive them from stable labels instead
    of Python's salted ``hash`` or shared-state RNGs::

        seed = derive_seed("figure13", org, workload, replication)

    Same parts, same seed — across processes, platforms, and runs.
    """
    blob = repr(parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` knob: None -> 1, 0 or negative -> all cores."""
    if n_jobs is None:
        return 1
    if n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return n_jobs


@dataclass(frozen=True)
class SimJob:
    """One picklable simulation: the full argument set of ``run_workload``.

    ``workload`` is a Table II name or a :class:`WorkloadSpec`;
    ``config=None`` means the default scaled paper system. ``tag`` is
    free-form caller bookkeeping carried through to the outcome.
    """

    organization: str
    workload: object
    config: Optional[object] = None
    accesses_per_context: Optional[int] = None
    seed: int = 0
    use_l3: bool = False
    org_kwargs: Optional[Mapping[str, object]] = None
    fault_config: Optional[object] = None
    tag: Optional[str] = None

    @property
    def workload_name(self) -> str:
        return getattr(self.workload, "name", str(self.workload))

    @property
    def key(self) -> str:
        """Human-readable job label for logs and error reports."""
        label = f"{self.organization}/{self.workload_name}/s{self.seed}"
        return f"{label}/{self.tag}" if self.tag else label


@dataclass
class JobOutcome:
    """What happened to one grid cell."""

    job: SimJob
    result: Optional[RunResult] = None
    error: Optional[str] = None
    wall_seconds: float = 0.0
    #: True when the result was served by the result store (or shared
    #: with an identical cell that ran) instead of simulated for this
    #: specific job — see :func:`repro.sim.plan.run_jobs_cached`.
    cached: bool = False
    #: Tries the supervisor spent on this cell (1 = first try sufficed).
    attempts: int = 1
    #: Which worker served the final attempt (``w0``... for pool
    #: workers, ``r<n>@host:port`` for remote sessions, ``inline`` for
    #: the serial fallback, ``serial`` for ``n_jobs=1``).
    worker_id: Optional[str] = None
    #: Seconds spent inside the simulation itself, measured in the
    #: worker; ``None`` when the cell never ran (e.g. store hits).
    sim_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def dispatch_overhead_seconds(self) -> Optional[float]:
        """Wall time spent *around* the simulation: pipe, polling.

        This is the number the persistent pool exists to shrink: a
        pool cell pays one pipe round-trip here, not a process start.
        """
        if self.sim_seconds is None:
            return None
        return max(0.0, self.wall_seconds - self.sim_seconds)


def run_job(job: SimJob) -> RunResult:
    """Execute one job in this process (the serial path and the worker body).

    The engine-backend counters (kernel engagements, fallbacks) are
    process-local, so a subprocess worker's tallies would otherwise
    vanish when it exits and a parallel grid would report zero kernel
    runs however many cells lowered. The delta this job accumulated is
    stamped on the result envelope; the pool folds it back into the
    parent's counters as each cell settles.
    """
    from .engine_vector import backend_stats_since, snapshot_backend_stats
    from .runner import run_workload

    before = snapshot_backend_stats()
    result = run_workload(
        job.organization,
        job.workload,
        config=job.config,
        accesses_per_context=job.accesses_per_context,
        seed=job.seed,
        use_l3=job.use_l3,
        org_kwargs=job.org_kwargs,
        fault_config=job.fault_config,
    )
    result.engine_stats = backend_stats_since(before)
    return result


def warm_trace_cache(jobs: Sequence[SimJob], ensure_disk: bool = False) -> int:
    """Materialize each distinct trace the jobs will replay; returns count.

    Run in the parent before launching workers so traces are generated
    once: fork children inherit them copy-on-write, and with
    ``ensure_disk=True`` they are also written to the content-addressed
    disk layer so ``spawn``/``forkserver`` children — which inherit no
    memory — load them from disk instead of regenerating per worker.
    Each distinct trace key is warmed once, in job order, and warming
    stops before a new entry would evict one warmed by this call: past
    the cache's record budget the workers generate the rest themselves.
    A job whose inputs are invalid is skipped — it will report its own
    error when it runs.
    """
    from ..config.system import scaled_paper_system
    from ..workloads.ingest import IngestedTrace, ingested_columns
    from ..workloads.mixes import per_context_footprint_pages, rate_mode_seed
    from ..workloads.spec import WorkloadSpec, workload
    from ..workloads.trace_cache import default_cache_dir, default_trace_cache
    from .engine import default_accesses_per_context

    warmed_ingested = 0
    ingested_seen = set()
    for job in jobs:
        # Ingested traces warm their own memo (independent of the trace
        # cache mode) so forked workers inherit the records copy-on-write.
        if isinstance(job.workload, IngestedTrace):
            if job.workload.checksum not in ingested_seen:
                ingested_seen.add(job.workload.checksum)
                try:
                    ingested_columns(job.workload)
                    warmed_ingested += 1
                except Exception:
                    continue
    cache = default_trace_cache()
    if cache is None:
        return warmed_ingested  # mode "off": the operator opted out
    if ensure_disk and not cache.disk_dir:
        # Memory-only mode, but the handoff to the workers needs the
        # disk layer: give the default cache one, so the traces warmed
        # below are also persisted where any start method can see them.
        cache.disk_dir = default_cache_dir()
    # (spec, footprint pages, seed, lines per page, length): the inputs
    # of one context's trace, as TraceCache.materialize takes them.
    keys = {}
    for job in jobs:
        try:
            if isinstance(job.workload, IngestedTrace):
                continue
            spec = (
                job.workload
                if isinstance(job.workload, WorkloadSpec)
                else workload(str(job.workload))
            )
            config = job.config if job.config is not None else scaled_paper_system()
            n_accesses = (
                job.accesses_per_context
                if job.accesses_per_context is not None
                else default_accesses_per_context()
            )
            footprint = per_context_footprint_pages(spec, config)
            for context_id in range(config.num_contexts):
                keys.setdefault((
                    spec, footprint, rate_mode_seed(job.seed, context_id),
                    config.lines_per_page, n_accesses,
                ))
        except Exception:
            continue
    warmed_before = cache.stats.misses
    warmed_records = 0
    for key in keys:
        n_accesses = key[-1]
        if warmed_records and warmed_records + n_accesses > cache.max_records:
            break
        try:
            cache.materialize(*key)
        except Exception:
            continue
        warmed_records += n_accesses
    return warmed_ingested + cache.stats.misses - warmed_before


def _init_worker(trace_cache_mode: Optional[str]) -> None:
    """One-time warm-up inside a pool worker process.

    Everything a cold process would otherwise pay *per cell*: the trace
    cache mode override (so non-fork workers read the disk layer the
    parent pre-warmed), the heavy ``runner`` imports, and the compiled
    kernel dlopen. Every step is best-effort — a worker that fails to
    warm is slower, never wrong.
    """
    import contextlib

    if trace_cache_mode is not None:
        with contextlib.suppress(Exception):
            from ..workloads.trace_cache import set_default_trace_cache_mode

            set_default_trace_cache_mode(trace_cache_mode)
    with contextlib.suppress(Exception):
        from .runner import run_workload  # noqa: F401 — import cost only
    with contextlib.suppress(Exception):
        from ._kernel_build import kernel_available, load_kernel

        if kernel_available():
            load_kernel()


_last_pool_report: List[Optional[PoolReport]] = [None]
_last_remote_report: List[Optional[RemoteReport]] = [None]


def last_pool_report() -> Optional[PoolReport]:
    """The :class:`PoolReport` of this process's most recent pool run.

    ``None`` when no pool has run yet (or the last grid ran serial).
    perfbench's paper-grid run reads its respawn count next to the
    timing it explains.
    """
    return _last_pool_report[0]


def last_remote_report() -> Optional[RemoteReport]:
    """The :class:`RemoteReport` of this process's most recent grid run.

    ``None`` when the last grid used no remote endpoints. Sessions,
    reconnects, per-endpoint cell counts, quarantines, and whether the
    run degraded to local dispatch, for observability next to timing.
    """
    return _last_remote_report[0]


def _to_job_outcome(task_outcome: TaskOutcome) -> JobOutcome:
    """Map the supervisor's generic outcome back onto this layer's type."""
    job = task_outcome.task.payload
    return JobOutcome(
        job,
        result=task_outcome.value if task_outcome.ok else None,
        error=task_outcome.error,
        wall_seconds=task_outcome.wall_seconds,
        attempts=task_outcome.attempts,
        worker_id=task_outcome.worker_id,
        sim_seconds=task_outcome.sim_seconds,
    )


def run_many(
    jobs: Sequence[SimJob],
    n_jobs: Optional[int] = 1,
    timeout_seconds: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    max_attempts: Optional[int] = None,
    hang_timeout_seconds: Optional[float] = None,
    max_rss_bytes: Optional[int] = None,
    journal: Optional[IncidentJournal] = None,
    on_outcome: Optional[Callable[[int, JobOutcome], None]] = None,
    dispatch: Optional[str] = None,
    endpoints: Optional[Sequence] = None,
) -> List[JobOutcome]:
    """Run every job; return outcomes in job order.

    ``n_jobs=1`` (the default) executes in-process — the exact code path
    of a plain serial loop, so golden fixtures stay byte-identical.
    ``n_jobs>1`` fans out over subprocess workers under the shared
    :class:`~repro.sim.supervisor.Supervisor`'s persistent worker pool;
    ``n_jobs<=0`` means one worker per core. ``dispatch`` (``"pool"``,
    the default, or ``"remote"``, which insists on endpoints; ``None``
    defers to ``REPRO_DISPATCH``) is validated here and passed on.
    Results are byte-identical in every mode.

    ``endpoints`` (``host:port`` strings or
    :class:`~repro.sim.remote.Endpoint`\\ s; ``None`` defers to
    ``REPRO_ENDPOINTS``) streams cells to remote ``repro worker
    serve`` processes first, degrading to the local lifecycle — and
    ultimately in-process serial — if every endpoint is lost. Any
    endpoint forces the supervised path even at ``n_jobs=1``
    (``n_jobs`` then only sizes the local fallback pool).

    Supervision knobs (parallel mode): ``timeout_seconds`` bounds each
    attempt's wall clock (floor: :data:`MIN_TIMEOUT_SECONDS`);
    ``hang_timeout_seconds`` bounds its *idle* time between worker
    heartbeats, so a slow-but-advancing cell survives what a hung one
    does not; ``max_attempts`` retries transiently failed cells with
    exponential backoff; ``max_rss_bytes`` kills a worker that exceeds
    the ceiling. Knobs left ``None`` inherit from the ambient
    :func:`~repro.sim.supervisor.use_supervision` policy, if any.

    ``on_outcome(index, outcome)`` fires the moment each job settles —
    callers use it to flush results incrementally so an interrupt loses
    only in-flight work. On SIGINT/SIGTERM (both modes) the run stops
    gracefully and raises :class:`~repro.errors.InterruptedRunError`
    once every settled job has been through ``on_outcome``.
    """
    jobs = list(jobs)
    n_jobs = resolve_n_jobs(n_jobs)
    if timeout_seconds is not None:
        if timeout_seconds <= 0:
            raise ParallelError("timeout_seconds must be positive")
        if timeout_seconds < MIN_TIMEOUT_SECONDS:
            raise ParallelError(
                f"timeout_seconds={timeout_seconds} is below the enforceable "
                f"floor MIN_TIMEOUT_SECONDS={MIN_TIMEOUT_SECONDS}; the pool "
                "cannot time a worker more finely than its polling interval"
            )
    emit = log if log is not None else (lambda message: None)
    if not jobs:
        return []
    ambient = current_supervision()
    base = ambient if ambient is not None else SupervisorPolicy()
    overrides = {}
    if timeout_seconds is not None:
        overrides["timeout_seconds"] = timeout_seconds
    if max_attempts is not None:
        overrides["max_attempts"] = max_attempts
    if hang_timeout_seconds is not None:
        overrides["hang_timeout_seconds"] = hang_timeout_seconds
    if max_rss_bytes is not None:
        overrides["max_rss_bytes"] = max_rss_bytes
    policy = replace(base, **overrides) if overrides else base
    endpoint_list = resolve_endpoints(endpoints)
    if n_jobs == 1 and not endpoint_list:
        _last_pool_report[0] = None
        _last_remote_report[0] = None
        return _run_serial_all(jobs, emit, on_outcome)
    return _run_pool(jobs, n_jobs, policy, emit, journal, on_outcome,
                     dispatch, endpoint_list)


def _run_serial_all(
    jobs: List[SimJob],
    emit: Callable[[str], None],
    on_outcome: Optional[Callable[[int, JobOutcome], None]],
) -> List[JobOutcome]:
    """The in-process loop: byte-identical to pre-supervision serial runs.

    The only additions are interrupt safety (SIGINT/SIGTERM between or
    during jobs becomes :class:`InterruptedRunError` after the settled
    prefix went through ``on_outcome``, instead of an abort that loses
    it) and the incremental ``on_outcome`` flush hook.
    """
    outcomes: List[JobOutcome] = []
    with deliver_signals_as_interrupts():
        try:
            for index, job in enumerate(jobs):
                outcome = _run_serial(job, emit)
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(index, outcome)
        except _SignalRaised as exc:
            raise InterruptedRunError(
                f"interrupted by {exc.signal_name}: {len(outcomes)} of "
                f"{len(jobs)} job(s) settled",
                signal_name=exc.signal_name,
            ) from None
    return outcomes


def _run_serial(job: SimJob, emit: Callable[[str], None]) -> JobOutcome:
    start = time.perf_counter()
    try:
        result = run_job(job)
    except Exception as exc:
        wall = time.perf_counter() - start
        emit(f"failed: {job.key} ({type(exc).__name__}: {exc})")
        return JobOutcome(job, error=f"{type(exc).__name__}: {exc}",
                          wall_seconds=wall, worker_id="serial",
                          sim_seconds=wall)
    wall = time.perf_counter() - start
    emit(f"done: {job.key} ({wall:.2f}s)")
    return JobOutcome(job, result=result, wall_seconds=wall,
                      worker_id="serial", sim_seconds=wall)


def _run_pool(
    jobs: List[SimJob],
    n_jobs: int,
    policy: SupervisorPolicy,
    emit: Callable[[str], None],
    journal: Optional[IncidentJournal],
    on_outcome: Optional[Callable[[int, JobOutcome], None]],
    dispatch: Optional[str] = None,
    endpoints: Optional[Sequence[Endpoint]] = None,
) -> List[JobOutcome]:
    mode = resolve_dispatch(dispatch)
    ctx = multiprocessing.get_context()
    forked = ctx.get_start_method() == "fork"
    # Warm unconditionally: fork children inherit the in-memory traces
    # copy-on-write; spawn/forkserver children (no inherited memory)
    # need the content-addressed disk layer populated instead.
    warmed = warm_trace_cache(jobs, ensure_disk=not forked)
    if warmed:
        emit(f"pre-materialized {warmed} trace(s) for the workers")
    worker_cache_mode = None
    if not forked:
        from ..workloads.trace_cache import default_trace_cache_mode

        if default_trace_cache_mode() != "off":
            # Point cold workers at the disk layer the parent just
            # warmed ("off" stays off: the operator opted out).
            worker_cache_mode = "disk"
    tasks = [
        SupervisedTask(index=index, key=job.key, target=run_job, payload=job)
        for index, job in enumerate(jobs)
    ]
    supervisor = Supervisor(
        policy, log=emit, journal=journal, ctx=ctx,
        worker_setup=functools.partial(_init_worker, worker_cache_mode),
    )

    def on_settle(task_outcome: TaskOutcome) -> None:
        # Fold the worker's engine counters into this process the moment
        # the cell settles (exactly once per cell — the final collection
        # below maps the same outcomes again and must not re-merge).
        result = task_outcome.value if task_outcome.ok else None
        if isinstance(result, RunResult) and result.engine_stats:
            from .engine_vector import merge_backend_stats

            merge_backend_stats(result.engine_stats)
        if on_outcome is not None:
            on_outcome(task_outcome.task.index, _to_job_outcome(task_outcome))

    try:
        task_outcomes = supervisor.run(
            tasks, n_workers=n_jobs, on_settle=on_settle, dispatch=mode,
            endpoints=endpoints if endpoints is not None else [],
        )
    finally:
        _last_pool_report[0] = supervisor.last_pool_report
        _last_remote_report[0] = supervisor.last_remote_report
    return [_to_job_outcome(t) for t in task_outcomes]


def raise_on_failures(outcomes: Sequence[JobOutcome], what: str) -> None:
    """Collapse failed outcomes into one :class:`ParallelError`.

    For grid consumers (matrices, sweeps) that need *every* cell: the
    whole grid has already run to completion, so the error lists every
    failed cell at once instead of dying on the first. Only the first 8
    failures are spelled out; the rest are summarized as "and N more"
    so a fully failed grid stays readable.
    """
    failures = [o for o in outcomes if not o.ok]
    if not failures:
        return

    def describe(o: JobOutcome) -> str:
        # Name the worker that served the cell so pool-mode failures are
        # attributable; the supervisor already tags errors it settles,
        # so only add the tag where it is missing (e.g. serial runs).
        error = o.error or "no result"
        if o.worker_id and "[worker " not in error:
            error = f"{error} [worker {o.worker_id}]"
        return f"{o.job.key}: {error}"

    details = "; ".join(describe(o) for o in failures[:8])
    more = f"; and {len(failures) - 8} more" if len(failures) > 8 else ""
    raise ParallelError(
        f"{len(failures)}/{len(outcomes)} {what} jobs failed: {details}{more}"
    )
