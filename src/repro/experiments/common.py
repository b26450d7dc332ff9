"""Shared machinery for the per-figure experiment functions.

Every experiment runs a matrix of (workload x organization) simulations
against the default scaled system and returns structured results the
benchmarks print and EXPERIMENTS.md records. Trace length follows
``REPRO_ACCESSES_PER_CONTEXT`` so the same code scales from smoke test
to full reproduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..config.system import SystemConfig, scaled_paper_system
from ..sim.parallel import SimJob, raise_on_failures
from ..sim.plan import PlannedExperiment, run_jobs_cached
from ..sim.results import RunResult, SpeedupReport
from ..units import geomean
from ..vm.page_table import VirtualPage
from ..workloads.mixes import per_context_footprint_pages, rate_mode_generators
from ..workloads.spec import CAPACITY, LATENCY, WORKLOADS, WorkloadSpec

#: The paper's five headline configurations (Figures 2 and 13).
HEADLINE_ORGS = ("cache", "tlm-static", "tlm-dynamic", "cameo", "doubleuse")


def default_config() -> SystemConfig:
    """The evaluation machine: scaled Table I geometry."""
    return scaled_paper_system()


def default_workloads() -> Sequence[WorkloadSpec]:
    """All 17 Table II workloads, in paper order."""
    return WORKLOADS


@dataclass
class ResultMatrix:
    """All runs of one experiment: results[workload][org] -> RunResult."""

    results: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)
    categories: Dict[str, str] = field(default_factory=dict)

    def add(self, spec: WorkloadSpec, org_name: str, result: RunResult) -> None:
        self.results.setdefault(spec.name, {})[org_name] = result
        self.categories[spec.name] = spec.category

    def baseline(self, workload: str) -> RunResult:
        return self.results[workload]["baseline"]

    def speedup(self, workload: str, org_name: str) -> float:
        return self.results[workload][org_name].speedup_over(self.baseline(workload))

    def workloads(self, category: Optional[str] = None) -> List[str]:
        return [
            w for w in self.results
            if category is None or self.categories[w] == category
        ]

    def organizations(self) -> List[str]:
        names: List[str] = []
        for per_org in self.results.values():
            for name in per_org:
                if name != "baseline" and name not in names:
                    names.append(name)
        return names

    def gmean_speedup(self, org_name: str, category: Optional[str] = None) -> float:
        return geomean(
            [self.speedup(w, org_name) for w in self.workloads(category)]
        )

    def to_json(self, indent: int = 2) -> str:
        """Every cell's full JSON export, as one stable document.

        Shaped ``{workload: {org: result_dict}}`` with sorted keys, so
        two matrices over the same grid are byte-comparable — the CI
        warm-vs-cold check diffs exactly this.
        """
        import json

        from ..sim.export import result_to_dict

        payload = {
            workload: {
                org: result_to_dict(result)
                for org, result in per_org.items()
            }
            for workload, per_org in self.results.items()
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_speedup_report(self) -> SpeedupReport:
        report = SpeedupReport()
        for workload in self.workloads():
            for org_name in self.organizations():
                if org_name in self.results[workload]:
                    report.add(
                        workload,
                        self.categories[workload],
                        org_name,
                        self.speedup(workload, org_name),
                    )
        return report


def profile_hot_vpages(
    spec: WorkloadSpec,
    config: SystemConfig,
    budget_pages: int,
    accesses_per_context: int = 4000,
    seed: int = 0,
) -> FrozenSet[VirtualPage]:
    """TLM-Oracle's oracular knowledge: the hottest virtual pages.

    Replays the same deterministic generators the run will use and ranks
    pages by access count, keeping the ``budget_pages`` hottest (the
    stacked-DRAM capacity). The profile covers the first
    ``accesses_per_context`` accesses of each context (4,000 by default),
    whatever the length of the run it feeds. The pre-pass stream comes
    from the trace cache when one is active, so the two oracle-style
    organizations of a matrix profile from one materialized trace.
    """
    from ..workloads.replay import ReplayTraceSource
    from ..workloads.trace_cache import materialized_rate_mode_sources

    counts: Counter = Counter()
    per_page = config.lines_per_page
    sources = materialized_rate_mode_sources(
        spec, config, seed, accesses_per_context
    )
    for ctx, gen in enumerate(sources):
        # A cache entry holds exactly accesses_per_context records.
        columns = (
            gen.columns if isinstance(gen, ReplayTraceSource)
            else gen.columns(accesses_per_context)
        )
        pages = Counter([line // per_page for line in columns.lines])
        # Contexts own disjoint keys, so merging in context order keeps
        # the first-seen key order that breaks most_common's ties.
        counts.update({(ctx, page): n for page, n in pages.items()})
    hottest = [vpage for vpage, _count in counts.most_common(budget_pages)]
    return frozenset(hottest)


def matrix_jobs(
    org_names: Sequence[str],
    workloads: Optional[Iterable[WorkloadSpec]] = None,
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
) -> Tuple[List[SimJob], List[Tuple[WorkloadSpec, str]]]:
    """Declare a matrix grid: (jobs, slots) with ``slots[i]`` naming job i.

    ``tlm-oracle``/``cameo-freq-hint`` get their hot-page profile from a
    pre-pass over the same trace, computed here at declaration time so
    the picklable jobs already carry their profiles.
    """
    if config is None:
        config = default_config()
    if workloads is None:
        workloads = default_workloads()
    jobs: List[SimJob] = []
    slots: List[Tuple[WorkloadSpec, str]] = []
    for spec in workloads:
        slots.append((spec, "baseline"))
        jobs.append(SimJob("baseline", spec, config, accesses_per_context, seed))
        for org_name in org_names:
            kwargs: Mapping[str, object] = {}
            if org_name in ("tlm-oracle", "cameo-freq-hint"):
                kwargs = {
                    "hot_vpages": profile_hot_vpages(
                        spec, config, budget_pages=config.stacked_pages, seed=seed
                    )
                }
            slots.append((spec, org_name))
            jobs.append(SimJob(
                org_name, spec, config, accesses_per_context, seed,
                org_kwargs=kwargs,
            ))
    return jobs, slots


def assemble_matrix(
    slots: Sequence[Tuple[WorkloadSpec, str]],
    results: Sequence[RunResult],
) -> ResultMatrix:
    """Fold finished cell results back into a :class:`ResultMatrix`."""
    matrix = ResultMatrix()
    for (spec, org_name), result in zip(slots, results):
        matrix.add(spec, org_name, result)
    return matrix


def planned_matrix(
    name: str,
    org_names: Sequence[str],
    workloads: Optional[Iterable[WorkloadSpec]] = None,
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
    wrap=None,
) -> PlannedExperiment:
    """A matrix as a planner-consumable declaration (``repro paper``).

    The assembler returns the :class:`ResultMatrix`, passed through
    ``wrap`` when given — experiment modules pass their result dataclass
    (e.g. ``wrap=Figure13Result``) so the planner hands back the same
    object their ``run_*`` function would.
    """
    jobs, slots = matrix_jobs(
        org_names, workloads, config, accesses_per_context, seed
    )

    def assemble(results: Sequence[RunResult]) -> object:
        matrix = assemble_matrix(slots, results)
        return matrix if wrap is None else wrap(matrix)

    return PlannedExperiment(name=name, jobs=jobs, assemble=assemble)


def run_matrix(
    org_names: Sequence[str],
    workloads: Optional[Iterable[WorkloadSpec]] = None,
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
    n_jobs: Optional[int] = 1,
) -> ResultMatrix:
    """Run baseline + every named org on every workload.

    ``tlm-oracle`` is handled specially: its hot-page profile is computed
    by a pre-pass over the same trace before the timed run.

    ``n_jobs`` fans the grid's independent cells out over subprocess
    workers (:mod:`repro.sim.parallel`); the assembled matrix is
    identical to the serial run whatever the worker count, and the
    default stays serial. A failed cell is reported together with every
    other failure after the rest of the grid has completed.

    Cells go through :func:`repro.sim.plan.run_jobs_cached`: with the
    result store active (the default), already-stored cells are served
    without simulating and identical cells within the grid execute once
    — byte-identical results either way.
    """
    jobs, slots = matrix_jobs(
        org_names, workloads, config, accesses_per_context, seed
    )
    outcomes = run_jobs_cached(jobs, n_jobs=n_jobs)
    raise_on_failures(outcomes, "matrix")
    return assemble_matrix(slots, [outcome.result for outcome in outcomes])


def category_gmean_rows(matrix: "ResultMatrix", orgs):
    """Gmean summary rows, skipping categories with no workloads run."""
    for category, label in (
        (CAPACITY, "Gmean-Capacity"),
        (LATENCY, "Gmean-Latency"),
        (None, "Gmean-ALL"),
    ):
        if matrix.workloads(category):
            yield [label, ""] + [
                matrix.gmean_speedup(org, category) for org in orgs
            ]
