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

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..atomic import atomic_write
from ..errors import InterruptedRunError, ReproError
from .parallel import JobOutcome, SimJob, raise_on_failures, run_many
from .result_store import (
    ResultStore,
    default_result_store,
    job_fingerprint,
    result_from_state,
    result_to_state,
)
from .results import RunResult
from .supervisor import IncidentJournal


def run_jobs_cached(
    jobs: Sequence[SimJob],
    n_jobs: Optional[int] = 1,
    timeout_seconds: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    max_attempts: Optional[int] = None,
    hang_timeout_seconds: Optional[float] = None,
    journal: Optional[IncidentJournal] = None,
    dispatch: Optional[str] = None,
    endpoints: Optional[Sequence] = None,
    on_settle: Optional[Callable[[JobOutcome], None]] = None,
) -> List[JobOutcome]:
    """Run every job, serving and deduplicating through the result store.

    Semantically identical to :func:`~repro.sim.parallel.run_many` —
    outcomes in job order, per-job error capture, supervision knobs
    (``max_attempts``, ``hang_timeout_seconds``, ``journal``,
    ``dispatch``, ``endpoints``) passed through — with three
    optimizations layered on top:

    * cells already in the result store are served here in the parent
      (outcome ``cached=True``), so no worker is spawned for them;
    * two submitted jobs with the same cell fingerprint execute once and
      share the result (the duplicate's outcome is ``cached=True``);
    * completed cells are stored *the moment they settle* (not after the
      whole grid), so the *next* grid reuses them — and an interrupted
      grid keeps everything that finished.

    ``on_settle(outcome)`` fires after each executed cell is stored —
    :func:`repro.sim.planfile.run_plan` banks results through it. Jobs
    without a fingerprint (uncacheable ``org_kwargs``, malformed specs)
    always execute individually, exactly as before. With the
    store off this degrades to plain ``run_many``. On SIGINT/SIGTERM the
    :class:`~repro.errors.InterruptedRunError` re-raised here carries
    outcomes re-mapped to the *submitted* job list (store hits and
    settled dedup shares included).
    """
    jobs = list(jobs)
    store = default_result_store()
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    to_run: List[SimJob] = []
    run_fingerprints: List[Optional[str]] = []
    #: job indices sharing each entry of ``to_run`` (first = the runner).
    run_slots: List[List[int]] = []
    fingerprint_to_run: Dict[str, int] = {}
    for index, job in enumerate(jobs):
        fingerprint = job_fingerprint(job) if store is not None else None
        if fingerprint is not None:
            cached = store.get(fingerprint)
            if cached is not None:
                outcomes[index] = JobOutcome(job, result=cached, cached=True)
                if log is not None:
                    log(f"cached: {job.key}")
                continue
            shared = fingerprint_to_run.get(fingerprint)
            if shared is not None:
                run_slots[shared].append(index)
                continue
            fingerprint_to_run[fingerprint] = len(to_run)
        to_run.append(job)
        run_fingerprints.append(fingerprint)
        run_slots.append([index])

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

    try:
        run_many(
            to_run,
            n_jobs=n_jobs,
            timeout_seconds=timeout_seconds,
            log=log,
            max_attempts=max_attempts,
            hang_timeout_seconds=hang_timeout_seconds,
            journal=journal,
            on_outcome=flush,
            dispatch=dispatch,
            endpoints=endpoints,
        )
    except InterruptedRunError as exc:
        pending = [jobs[i].key for i, o in enumerate(outcomes) if o is None]
        raise InterruptedRunError(
            str(exc),
            signal_name=exc.signal_name,
            outcomes=list(outcomes),
            pending_keys=pending,
        ) from None
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
    endpoints: Optional[Sequence] = None,
) -> GridRunReport:
    """Execute a plan: run unique misses once, assemble every experiment.

    The concatenated grid goes through :func:`run_jobs_cached`, so hits
    are served in the parent, duplicates collapse, and results are
    byte-identical to running each experiment on its own. A failed cell
    fails every experiment that needs it, reported all at once. The
    supervision knobs pass straight through to the worker pool; on
    SIGINT/SIGTERM the :class:`~repro.errors.InterruptedRunError`
    propagates with per-job outcomes for the full concatenated grid
    (``repro paper`` turns those into a resume manifest).
    """
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
        dispatch=dispatch,
        endpoints=endpoints,
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


# -- Resume manifests ------------------------------------------------------------
#
# The default result store is in-memory, so an interrupted `repro paper`
# would lose its settled cells the moment the process exits. The resume
# manifest makes the store's relevant slice durable: every completed
# cell's RunResult rides inside the manifest (keyed by its store
# fingerprint), and `repro paper --resume <manifest>` seeds the store
# from it before planning — the planner then serves those cells as hits
# and simulates only what is missing.

RESUME_MANIFEST_KIND = "repro-resume-manifest"
RESUME_MANIFEST_VERSION = 1


def write_resume_manifest(
    path: str,
    outcomes: Sequence[Optional[JobOutcome]],
    signal_name: str,
    recipe: Optional[Dict] = None,
    pending_keys: Sequence[str] = (),
) -> int:
    """Atomically persist every completed outcome; returns cells saved.

    ``outcomes`` is the (possibly partial) per-job list off an
    :class:`~repro.errors.InterruptedRunError` — ``None`` entries and
    failed cells are skipped; duplicates of one fingerprint collapse.
    ``recipe`` records how the grid was invoked (experiment names,
    trace length, seed) purely as operator documentation: the manifest
    is self-validating through fingerprints, so resuming with different
    arguments is safe — unknown fingerprints are simply never served.
    """
    completed: Dict[str, Dict] = {}
    for outcome in outcomes:
        if outcome is None or not outcome.ok:
            continue
        fingerprint = job_fingerprint(outcome.job)
        if fingerprint is None:  # uncacheable cells cannot be resumed from
            continue
        if fingerprint not in completed:
            completed[fingerprint] = result_to_state(outcome.result)
    payload = {
        "kind": RESUME_MANIFEST_KIND,
        "version": RESUME_MANIFEST_VERSION,
        "signal": signal_name,
        "recipe": recipe or {},
        "completed": completed,
        "pending": list(pending_keys),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True).encode())
    return len(completed)


#: Exactly the keys :func:`write_resume_manifest` emits; a manifest with
#: more or fewer keys was written by something else and is rejected.
_MANIFEST_KEYS = ("kind", "version", "signal", "recipe", "completed", "pending")


def load_resume_manifest(path: str) -> Dict:
    """Read and validate a resume manifest written by this module.

    Raises :class:`~repro.errors.PlanError` for a missing file, corrupt
    JSON, the wrong kind of file, an incompatible version, or a key
    structure this module never wrote (hand-edited or foreign files) —
    a resume must never silently start over, and a malformed manifest
    must fail as a named error, not a mid-run ``KeyError``.
    """
    from ..errors import PlanError

    try:
        with open(path) as fp:
            payload = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise PlanError(f"unreadable resume manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != RESUME_MANIFEST_KIND:
        raise PlanError(
            f"{path} is not a resume manifest (expected kind="
            f"{RESUME_MANIFEST_KIND!r})"
        )
    if payload.get("version") != RESUME_MANIFEST_VERSION:
        raise PlanError(
            f"resume manifest {path} has version {payload.get('version')}, "
            f"expected {RESUME_MANIFEST_VERSION}"
        )
    unknown = sorted(set(payload) - set(_MANIFEST_KEYS))
    if unknown:
        raise PlanError(
            f"resume manifest {path} has unknown key(s) {', '.join(unknown)}"
        )
    missing = sorted(set(_MANIFEST_KEYS) - set(payload))
    if missing:
        raise PlanError(
            f"resume manifest {path} is missing key(s) {', '.join(missing)}"
        )
    if not isinstance(payload["signal"], str):
        raise PlanError(f"resume manifest {path}: 'signal' must be a string")
    if not isinstance(payload["recipe"], dict):
        raise PlanError(f"resume manifest {path}: 'recipe' must be a mapping")
    completed = payload["completed"]
    if not isinstance(completed, dict) or not all(
        isinstance(key, str) and isinstance(state, dict)
        for key, state in completed.items()
    ):
        raise PlanError(
            f"resume manifest {path}: 'completed' must map fingerprints to "
            "result states"
        )
    pending = payload["pending"]
    if not isinstance(pending, list) or not all(
        isinstance(key, str) for key in pending
    ):
        raise PlanError(
            f"resume manifest {path}: 'pending' must be a list of cell keys"
        )
    return payload


def seed_store_from_manifest(manifest: Dict, store: ResultStore) -> int:
    """Decode every manifest cell into ``store``; returns cells seeded.

    A cell whose saved state no longer decodes (hand-edited manifest,
    schema drift in a field) is skipped rather than trusted — the
    planner will simply re-simulate it.
    """
    seeded = 0
    for fingerprint, state in manifest.get("completed", {}).items():
        try:
            result = result_from_state(state)
        except Exception:
            continue
        store.put(fingerprint, result)
        seeded += 1
    return seeded
