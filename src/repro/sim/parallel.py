"""Process-pool fan-out for embarrassingly parallel simulation grids.

Every figure, sweep, and benchmark walks an (organization x workload x
seed) grid of *independent deterministic* simulations, so the grid
scales with cores. :func:`run_many` executes a list of picklable
:class:`SimJob` specs, in this process or across subprocess workers,
with

* **ordered collection** — outcome ``i`` always describes job ``i``,
  whatever order the workers finished in;
* **per-job error capture** — one failed cell becomes a
  :class:`JobOutcome` with an error string; it never kills the grid;
* **supervision** — every grid, at every ``n_jobs``, runs under one
  :class:`repro.sim.supervisor.Supervisor` loop: retry with exponential
  backoff for transient failures (``max_attempts``), SIGINT/SIGTERM-safe
  shutdown (completed cells survive via ``on_outcome``), and an
  optional JSONL incident journal. Pool workers add heartbeat-based
  hang detection alongside the wall-clock timeout, bounded kill
  escalation instead of an unbounded ``join()``, and serial fallback
  when subprocess spawn is impossible. The policy and the journal come
  from the innermost :func:`~repro.sim.supervisor.use_supervision`
  block, the one channel for them;
* **bit-identical results** — each job is the same
  :func:`repro.sim.runner.run_workload` call, so ``n_jobs``, retries,
  and fallbacks change wall time, never a single byte of a
  ``RunResult``. ``n_jobs=1`` runs in-process with no multiprocessing
  at all.

Workers are **persistent** (see :mod:`repro.sim.supervisor`): ``n_jobs``
long-lived processes import ``repro``, dlopen the compiled kernel, and
turn the result store off *once* (:func:`_init_worker`), then stream cells
until the grid drains, so a cell's dispatch overhead is one pipe
round-trip rather than a process spawn.

Before forking workers the parent pre-materializes each distinct
trace, as many as the cache's record budget holds, into the
process-wide trace cache, so fork children inherit traces
copy-on-write. ``spawn``/``forkserver`` children inherit no memory:
they generate the traces their cells replay themselves.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

from ..errors import ParallelError
from .results import RunResult
from .supervisor import (
    INLINE_WORKER_ID,
    PoolReport,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
    TaskOutcome,
    current_supervision,
)


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
    #: Which worker ran the final attempt (``w0``... for pool
    #: workers, ``inline`` for a cell run in this process: ``n_jobs=1``
    #: or the pool's serial fallback).
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
    """Execute one job in this process: the body of every cell, pooled or not.

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


def warm_trace_cache(jobs: Sequence[SimJob]) -> int:
    """Materialize each distinct trace the jobs will replay; returns count.

    Run in the parent before forking workers so traces are generated
    once: fork children inherit them copy-on-write. Each distinct trace
    key is warmed once, in job order, and warming stops before a new
    entry would evict one warmed by this call: past the cache's record
    budget the workers generate the rest themselves. A job whose inputs
    are invalid is skipped — it will report its own error when it runs.
    """
    from ..config.system import default_paper_system
    from ..workloads.ingest import IngestedTrace, ingested_columns
    from ..workloads.mixes import per_context_footprint_pages, rate_mode_seed
    from ..workloads.spec import WorkloadSpec, workload
    from ..workloads.trace_cache import default_trace_cache
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
            config = job.config if job.config is not None else default_paper_system()
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


def _init_worker() -> None:
    """One-time set-up inside a pool worker process.

    The result store goes off for the worker's lifetime: the parent
    fingerprints, probes and stores every cell of a grid
    (:func:`repro.sim.plan.run_jobs_cached`), and a worker's own probe
    and write would repeat that inside the cell's time.

    Then everything a cold process would otherwise pay *per cell*: the
    heavy ``runner`` imports and the compiled kernel dlopen. These steps
    are best-effort — a worker that fails to warm is slower, never
    wrong.
    """
    import contextlib

    from .result_store import disable_default_result_store

    disable_default_result_store()
    with contextlib.suppress(Exception):
        from .runner import run_workload  # noqa: F401 — import cost only
    with contextlib.suppress(Exception):
        from ._kernel_build import kernel_available, load_kernel

        if kernel_available():
            load_kernel()


_last_pool_report: List[Optional[PoolReport]] = [None]


def last_pool_report() -> Optional[PoolReport]:
    """The :class:`PoolReport` of this process's most recent pool run.

    ``None`` when no pool has run yet (or the last grid ran in process).
    perfbench's paper-grid run reads its respawn count next to the
    timing it explains.
    """
    return _last_pool_report[0]


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
    log: Optional[Callable[[str], None]] = None,
    on_outcome: Optional[Callable[[int, JobOutcome], None]] = None,
) -> List[JobOutcome]:
    """Run every job; return outcomes in job order.

    ``n_jobs=1`` (the default) executes in-process, with no pool.
    ``n_jobs>1`` fans out over the
    :class:`~repro.sim.supervisor.Supervisor`'s persistent worker pool;
    ``n_jobs<=0`` means one worker per core. Results are byte-identical
    in every mode.

    Every mode runs under the innermost
    :func:`~repro.sim.supervisor.use_supervision` policy (else
    ``SupervisorPolicy()``) and journal: ``max_attempts`` retries
    transiently failed cells with exponential backoff, and journals
    each retry. Pool workers are also policed: ``timeout_seconds``
    bounds each attempt's wall clock; ``hang_timeout_seconds`` bounds
    its *idle* time between worker heartbeats, so a slow-but-advancing
    cell survives what a hung one does not; ``max_rss_bytes`` kills a
    worker that exceeds the ceiling.

    ``on_outcome(index, outcome)`` fires the moment each job settles —
    callers use it to flush results incrementally so an interrupt loses
    only in-flight work. On SIGINT/SIGTERM the run stops gracefully (a
    cell running in this process finishes first; a second signal stops
    it at once) and raises :class:`~repro.errors.InterruptedRunError`
    once every settled job has been through ``on_outcome``.

    Pool workers run with the result store off: they never read or
    write it. :func:`repro.sim.plan.run_jobs_cached` serves and stores a
    grid's cells in this process, at every ``n_jobs``; called directly
    with ``n_jobs=1``, each cell goes through
    :func:`~repro.sim.runner.run_workload`'s own store path.

    ``REPRO_INJECT_WORKER_FAULTS`` is validated in every mode before any
    cell runs (a malformed spec raises
    :class:`~repro.errors.ConfigurationError`), but only pool workers
    inject its faults.
    """
    jobs = list(jobs)
    n_jobs = resolve_n_jobs(n_jobs)
    emit = log if log is not None else (lambda message: None)
    if not jobs:
        return []
    ctx = multiprocessing.get_context()
    if n_jobs > 1 and ctx.get_start_method() == "fork":
        # Fork children inherit the warmed traces copy-on-write;
        # spawn/forkserver children inherit no memory and generate the
        # traces their cells replay themselves.
        warmed = warm_trace_cache(jobs)
        if warmed:
            emit(f"pre-materialized {warmed} trace(s) for the workers")
    tasks = [
        SupervisedTask(index=index, key=job.key, target=run_job, payload=job)
        for index, job in enumerate(jobs)
    ]
    policy, journal = current_supervision()
    supervisor = Supervisor(
        policy or SupervisorPolicy(), log=emit, journal=journal, ctx=ctx,
        worker_setup=_init_worker,
    )

    def on_settle(task_outcome: TaskOutcome) -> None:
        # Fold a worker's engine counters into this process the moment
        # the cell settles (exactly once per cell — the final collection
        # below maps the same outcomes again and must not re-merge). A
        # cell run in this process already counted them here.
        result = task_outcome.value if task_outcome.ok else None
        if (isinstance(result, RunResult) and result.engine_stats
                and task_outcome.worker_id != INLINE_WORKER_ID):
            from .engine_vector import merge_backend_stats

            merge_backend_stats(result.engine_stats)
        if on_outcome is not None:
            on_outcome(task_outcome.task.index, _to_job_outcome(task_outcome))

    try:
        task_outcomes = supervisor.run(
            tasks, n_workers=n_jobs if n_jobs > 1 else 0, on_settle=on_settle,
        )
    finally:
        _last_pool_report[0] = supervisor.last_pool_report
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
        # Name the worker that served the cell so failures are
        # attributable; the supervisor already tags errors it settles,
        # so only add the tag where it is missing.
        error = o.error or "no result"
        if o.worker_id and "[worker " not in error:
            error = f"{error} [worker {o.worker_id}]"
        return f"{o.job.key}: {error}"

    details = "; ".join(describe(o) for o in failures[:8])
    more = f"; and {len(failures) - 8} more" if len(failures) > 8 else ""
    raise ParallelError(
        f"{len(failures)}/{len(outcomes)} {what} jobs failed: {details}{more}"
    )
