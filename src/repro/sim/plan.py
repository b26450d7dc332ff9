"""The deduplicating grid planner: simulate each cell once, reuse everywhere.

Reproducing the full paper walks hundreds of (organization x workload x
seed) cells, and the same cell appears in many consumers — ``baseline``
and ``cameo`` are in nearly every figure. Experiment runners therefore
*declare* their grids as :class:`~repro.sim.parallel.SimJob` lists
(:class:`PlannedExperiment`); the planner collects the union across all
requested figures/tables, dedupes it by the result-store cell
fingerprint, serves already-stored cells from the store, executes only
the unique misses through the existing :func:`~repro.sim.parallel.run_many`
fan-out, and distributes each finished result back to every consumer.

Three layers use this module:

* :func:`run_jobs_cached` — the drop-in ``run_many`` wrapper every grid
  consumer (matrices, sweeps) calls: store hits are served in the
  *parent* before any worker is spawned, duplicate cells within one
  submission execute once, and completed results are stored for the
  next grid.
* :func:`build_grid_plan` / :class:`GridPlan` — the multi-experiment
  union with its dedup/hit accounting, printable before running
  (``repro paper --dry-run``).
* :func:`execute_grid_plan` — runs a plan and assembles every
  experiment's result object from the shared cell results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .parallel import JobOutcome, SimJob, raise_on_failures, run_many
from .result_store import (
    default_result_store,
    job_fingerprint,
    result_store_disabled,
)
from .results import RunResult
from .supervisor import IncidentJournal


def _check_dispatch(dispatch: Optional[str]) -> None:
    """Accept the ``dispatch`` keyword's one value, ``"pool"``, or None.

    A grid fans out through the local worker pool only, so the keyword
    selects nothing. It stays because perfbench still passes
    ``dispatch="pool"``; drop it once perfbench no longer does.
    """
    if dispatch not in (None, "pool"):
        raise ConfigurationError(
            f"dispatch={dispatch!r} is not a dispatch mode; "
            "accepted values: pool"
        )


def run_jobs_cached(
    jobs: Sequence[SimJob],
    n_jobs: Optional[int] = 1,
    timeout_seconds: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    max_attempts: Optional[int] = None,
    hang_timeout_seconds: Optional[float] = None,
    journal: Optional[IncidentJournal] = None,
    dispatch: Optional[str] = None,
    on_settle: Optional[Callable[[JobOutcome], None]] = None,
) -> List[JobOutcome]:
    """Run every job, serving and deduplicating through the result store.

    Semantically identical to :func:`~repro.sim.parallel.run_many` —
    outcomes in job order, per-job error capture, supervision knobs
    (``max_attempts``, ``hang_timeout_seconds``, ``journal``) passed
    through — with three optimizations layered on top:

    * two submitted jobs with the same cell fingerprint execute once and
      share the result (the duplicate's outcome is ``cached=True``),
      whether or not a result store is on;
    * cells already in the result store are served here in the parent
      (outcome ``cached=True``), so no worker is spawned for them;
    * completed cells are stored *the moment they settle* (not after the
      whole grid), so the *next* grid reuses them — and an interrupted
      grid keeps everything that finished. That is the whole resume
      story: under ``REPRO_RESULT_CACHE=disk`` the store
      outlives the process, and re-running the same grid simulates only
      what is missing.

    This function alone reads and writes the store, at every
    ``n_jobs``: cells execute with it off (in this process at
    ``n_jobs=1``, as pool workers always do), so each executed cell is
    fingerprinted, probed and written once, here. A disk-backed store
    is checked for writability before any cell runs; an unusable
    directory is a :class:`~repro.errors.ConfigurationError` with
    nothing simulated.

    ``on_settle(outcome)`` fires for every store-served cell and after
    each executed cell is stored. Jobs without a fingerprint
    (uncacheable ``org_kwargs``, malformed specs) always execute
    individually. ``dispatch`` accepts only ``None`` or ``"pool"`` (see
    :func:`_check_dispatch`).
    """
    _check_dispatch(dispatch)
    jobs = list(jobs)
    store = default_result_store()
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    to_run: List[SimJob] = []
    run_fingerprints: List[Optional[str]] = []
    #: job indices sharing each entry of ``to_run`` (first = the runner).
    run_slots: List[List[int]] = []
    fingerprint_to_run: Dict[str, int] = {}
    for index, job in enumerate(jobs):
        fingerprint = job_fingerprint(job)
        if fingerprint is not None:
            cached = store.get(fingerprint) if store is not None else None
            if cached is not None:
                outcomes[index] = JobOutcome(job, result=cached, cached=True)
                if log is not None:
                    log(f"cached: {job.key}")
                if on_settle is not None:
                    on_settle(outcomes[index])
                continue
            shared = fingerprint_to_run.get(fingerprint)
            if shared is not None:
                run_slots[shared].append(index)
                continue
            fingerprint_to_run[fingerprint] = len(to_run)
        to_run.append(job)
        run_fingerprints.append(fingerprint)
        run_slots.append([index])
    if store is not None and fingerprint_to_run:
        store.check_writable()

    def distribute(run_index: int, outcome: JobOutcome) -> None:
        """Map one settled runner back onto every job slot that shares it."""
        slots = run_slots[run_index]
        outcomes[slots[0]] = outcome
        for index in slots[1:]:
            outcomes[index] = JobOutcome(
                jobs[index],
                result=outcome.result,
                error=outcome.error,
                cached=True,
            )

    def flush(run_index: int, outcome: JobOutcome) -> None:
        # Incremental: each settled cell reaches the store (and the full
        # outcome table) immediately, so an interrupt or crash of the
        # parent loses only in-flight work.
        fingerprint = run_fingerprints[run_index]
        if outcome.ok and fingerprint is not None and store is not None:
            store.put(fingerprint, outcome.result)
        distribute(run_index, outcome)
        if on_settle is not None:
            on_settle(outcome)

    with result_store_disabled():
        run_many(
            to_run,
            n_jobs=n_jobs,
            timeout_seconds=timeout_seconds,
            log=log,
            max_attempts=max_attempts,
            hang_timeout_seconds=hang_timeout_seconds,
            journal=journal,
            on_outcome=flush,
        )
    return outcomes  # type: ignore[return-value]


@dataclass
class PlannedExperiment:
    """One experiment's declared grid plus its result assembler.

    ``jobs[i]``'s finished :class:`RunResult` is passed as
    ``results[i]`` to ``assemble``, which builds the experiment's
    renderable result object (e.g. ``Figure13Result``). Declaring is
    cheap for everything except the oracle profile pre-passes, which run
    at declaration time so the jobs stay picklable.
    """

    name: str
    jobs: List[SimJob]
    assemble: Callable[[Sequence[RunResult]], object]


@dataclass
class GridPlan:
    """The deduplicated union of several experiments' grids."""

    experiments: List[PlannedExperiment]
    #: Cells requested across all experiments (with repetition).
    total_cells: int
    #: Distinct cells after fingerprint dedup (uncacheable cells count
    #: individually — they cannot be shared).
    unique_cells: int
    #: Unique cells already present in the result store right now.
    predicted_hits: int
    #: Cells with no fingerprint (always simulated, never stored).
    uncacheable_cells: int

    @property
    def dedup_fraction(self) -> float:
        """Fraction of requested cells saved by deduplication alone."""
        if not self.total_cells:
            return 0.0
        return 1.0 - self.unique_cells / self.total_cells

    @property
    def predicted_runs(self) -> int:
        """Cells that would actually simulate if executed right now."""
        return self.unique_cells - self.predicted_hits

    def describe(self) -> str:
        """The ``--dry-run`` summary."""
        lines = [
            f"plan: {len(self.experiments)} experiment(s), "
            f"{self.total_cells} cells requested",
            f"  unique cells:    {self.unique_cells} "
            f"(dedup saves {self.dedup_fraction:.0%})",
            f"  store hits now:  {self.predicted_hits}",
            f"  cells to run:    {self.predicted_runs}",
        ]
        if self.uncacheable_cells:
            lines.append(
                f"  uncacheable:     {self.uncacheable_cells} "
                "(no canonical fingerprint; always simulated)"
            )
        for experiment in self.experiments:
            lines.append(f"  - {experiment.name}: {len(experiment.jobs)} cells")
        return "\n".join(lines)


def build_grid_plan(experiments: Sequence[PlannedExperiment]) -> GridPlan:
    """Fingerprint every declared cell and account for dedup and hits.

    Probing the store for predicted hits is a cheap existence check —
    corrupt entries still count as predicted hits here and are
    regenerated at execution time.
    """
    store = default_result_store()
    seen: Dict[str, bool] = {}
    total = 0
    uncacheable = 0
    unique_uncached = 0
    for experiment in experiments:
        for job in experiment.jobs:
            total += 1
            fingerprint = job_fingerprint(job)
            if fingerprint is None:
                uncacheable += 1
                unique_uncached += 1
                continue
            if fingerprint not in seen:
                seen[fingerprint] = (
                    store.contains(fingerprint) if store is not None else False
                )
    predicted_hits = sum(1 for hit in seen.values() if hit)
    return GridPlan(
        experiments=list(experiments),
        total_cells=total,
        unique_cells=len(seen) + unique_uncached,
        predicted_hits=predicted_hits,
        uncacheable_cells=uncacheable,
    )


@dataclass
class GridRunReport:
    """What happened when a :class:`GridPlan` executed."""

    plan: GridPlan
    #: Assembled result objects, one per experiment, in plan order.
    results: List[object] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Cells actually simulated this execution.
    executed_cells: int = 0
    #: Cells served from the store or shared with an identical cell.
    served_cells: int = 0

    def describe(self) -> str:
        return (
            f"ran {self.executed_cells} of {self.plan.total_cells} cells "
            f"({self.served_cells} served from the result store / dedup) "
            f"in {self.wall_seconds:.1f}s"
        )


def execute_grid_plan(
    plan: GridPlan,
    n_jobs: Optional[int] = 1,
    timeout_seconds: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    max_attempts: Optional[int] = None,
    hang_timeout_seconds: Optional[float] = None,
    journal: Optional[IncidentJournal] = None,
    dispatch: Optional[str] = None,
) -> GridRunReport:
    """Execute a plan: run unique misses once, assemble every experiment.

    The concatenated grid goes through :func:`run_jobs_cached`, so hits
    are served in the parent, duplicates collapse, and results are
    byte-identical to running each experiment on its own. A failed cell
    fails every experiment that needs it, reported all at once. The
    supervision knobs pass straight through to the worker pool; on
    SIGINT/SIGTERM the :class:`~repro.errors.InterruptedRunError`
    propagates once every settled cell is in the result store.
    ``dispatch`` accepts only ``None`` or ``"pool"`` (see
    :func:`_check_dispatch`).
    """
    _check_dispatch(dispatch)
    all_jobs: List[SimJob] = []
    for experiment in plan.experiments:
        all_jobs.extend(experiment.jobs)
    start = time.perf_counter()
    outcomes = run_jobs_cached(
        all_jobs,
        n_jobs=n_jobs,
        timeout_seconds=timeout_seconds,
        log=log,
        max_attempts=max_attempts,
        hang_timeout_seconds=hang_timeout_seconds,
        journal=journal,
    )
    wall = time.perf_counter() - start
    raise_on_failures(outcomes, "paper grid")
    report = GridRunReport(
        plan=plan,
        wall_seconds=wall,
        executed_cells=sum(1 for o in outcomes if not o.cached),
        served_cells=sum(1 for o in outcomes if o.cached),
    )
    cursor = 0
    for experiment in plan.experiments:
        span = outcomes[cursor:cursor + len(experiment.jobs)]
        cursor += len(experiment.jobs)
        report.results.append(
            experiment.assemble([outcome.result for outcome in span])
        )
    return report

