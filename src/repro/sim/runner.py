"""High-level entry points: run one workload under one or many organizations.

This is the API the examples, benchmarks, and experiments build on::

    from repro import scaled_paper_system, run_workload
    result = run_workload("cameo", "milc")
    print(result.speedup_over(run_workload("baseline", "milc")))
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from ..config.system import SystemConfig, default_paper_system
from ..faults.injector import FaultInjector
from ..faults.model import FaultConfig
from ..orgs.factory import build_organization
from ..workloads.ingest import IngestedTrace, replay_sources, replay_spec
from ..workloads.spec import WorkloadSpec, workload
from ..workloads.trace_cache import (
    default_trace_cache,
    materialized_mixed_sources,
    materialized_rate_mode_sources,
)
from .engine import default_accesses_per_context, run_trace
from .machine import Machine
from .result_store import cell_fingerprint, default_result_store
from .results import RunProvenance, RunResult, SpeedupReport

WorkloadLike = Union[str, WorkloadSpec, IngestedTrace]


def _resolve_spec(workload_like: WorkloadLike) -> WorkloadSpec:
    if isinstance(workload_like, WorkloadSpec):
        return workload_like
    if isinstance(workload_like, IngestedTrace):
        # An externally captured trace runs under a surrogate spec whose
        # name embeds the content checksum, so ingested cells are
        # content-addressed everywhere a workload name is keyed.
        return replay_spec(workload_like)
    return workload(workload_like)


def run_workload(
    org_name: str,
    workload_like: WorkloadLike,
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
    use_l3: bool = False,
    org_kwargs: Optional[Mapping[str, object]] = None,
    fault_config: Optional[FaultConfig] = None,
) -> RunResult:
    """Simulate one workload under one organization and return the result.

    ``fault_config`` attaches a deterministic fault injector to the
    organization and its DRAM devices (see :mod:`repro.faults`); the
    result then carries the fault/recovery counters in
    :attr:`~repro.sim.results.RunResult.fault_summary`. An all-zero-rate
    config reproduces the fault-free numbers bit-for-bit.

    The per-context access streams come from the process-wide trace
    cache (:mod:`repro.workloads.trace_cache`) when one is active: the
    five organizations of an experiment cell then replay one
    materialized trace instead of regenerating it, with byte-identical
    results either way. The returned result carries a
    :class:`~repro.sim.results.RunProvenance` stamp recording the exact
    recipe it came from.

    One level up, the result *store* (:mod:`repro.sim.result_store`)
    memoizes the whole simulation: when the cell's content fingerprint
    is already stored, the finished result is served without simulating
    — byte-identical to a fresh run — and a completed run is stored for
    the next caller. ``REPRO_RESULT_CACHE=off`` (or
    :func:`~repro.sim.result_store.result_store_disabled`) restores the
    always-simulate behavior.
    """
    spec = _resolve_spec(workload_like)
    if config is None:
        config = default_paper_system()
    n_accesses = (
        accesses_per_context
        if accesses_per_context is not None
        else default_accesses_per_context()
    )
    default_trace_cache()  # validates REPRO_TRACE_CACHE before any hit
    store = default_result_store()
    fingerprint = None
    if store is not None:
        fingerprint = cell_fingerprint(
            org_name, spec, config, n_accesses, seed,
            use_l3=use_l3, org_kwargs=org_kwargs, fault_config=fault_config,
        )
        if fingerprint is not None:
            cached = store.get(fingerprint)
            if cached is not None:
                return cached
    org = build_organization(org_name, config, **dict(org_kwargs or {}))
    if fault_config is not None:
        org.attach_fault_injector(FaultInjector(fault_config))
    machine = Machine(config, org, use_l3=use_l3, seed=seed)
    if isinstance(workload_like, IngestedTrace):
        # Replay bypasses the synthetic generators: every context walks
        # the validated record stream (rate-mode convention), so the
        # seed paces nothing — determinism comes from the trace itself.
        generators = replay_sources(workload_like, config, n_accesses)
    else:
        generators = materialized_rate_mode_sources(spec, config, seed, n_accesses)
    result = run_trace(machine, generators, spec, n_accesses)
    result.provenance = RunProvenance(
        organization=org_name,
        workload=spec.name,
        config_fingerprint=config.fingerprint(),
        accesses_per_context=n_accesses,
        seed=seed,
    )
    if store is not None and fingerprint is not None:
        store.put(fingerprint, result)
    return result


def mix_provenance_name(specs: Sequence[WorkloadSpec]) -> str:
    """The provenance encoding of a mix: the *per-context* workload list.

    Order matters (context 0's workload is not context 1's), so this is
    the full list, not the deduplicated display name ``run_trace`` puts
    on the result — ``mix:milc,astar`` and ``mix:astar,milc`` are
    different simulations and must never satisfy the same provenance
    check.
    """
    return "mix:" + ",".join(spec.name for spec in specs)


def run_mix(
    org_name: str,
    workload_likes: Sequence[WorkloadLike],
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
    org_kwargs: Optional[Mapping[str, object]] = None,
) -> RunResult:
    """Simulate a heterogeneous multi-programmed mix (one workload/context).

    An extension beyond the paper's rate-mode evaluation: each context
    runs a *different* Table II workload; pacing follows each workload's
    own MPKI. Mixes get the same memoization as rate-mode runs: the
    per-context streams replay through the trace cache (bit-for-bit
    equivalent to live generation), the result carries a
    :class:`~repro.sim.results.RunProvenance` stamp encoding the
    per-context workload list, and the finished result is served from /
    stored into the result store under its cell fingerprint.
    """
    specs = [_resolve_spec(w) for w in workload_likes]
    if config is None:
        config = default_paper_system()
    n_accesses = (
        accesses_per_context
        if accesses_per_context is not None
        else default_accesses_per_context()
    )
    default_trace_cache()  # validates REPRO_TRACE_CACHE before any hit
    store = default_result_store()
    fingerprint = None
    if store is not None:
        fingerprint = cell_fingerprint(
            org_name, specs, config, n_accesses, seed, org_kwargs=org_kwargs
        )
        if fingerprint is not None:
            cached = store.get(fingerprint)
            if cached is not None:
                return cached
    org = build_organization(org_name, config, **dict(org_kwargs or {}))
    machine = Machine(config, org, seed=seed)
    generators = materialized_mixed_sources(specs, config, seed, n_accesses)
    result = run_trace(machine, generators, specs, n_accesses)
    result.provenance = RunProvenance(
        organization=org_name,
        workload=mix_provenance_name(specs),
        config_fingerprint=config.fingerprint(),
        accesses_per_context=n_accesses,
        seed=seed,
    )
    if store is not None and fingerprint is not None:
        store.put(fingerprint, result)
    return result


def run_configs(
    org_names: Sequence[str],
    workload_like: WorkloadLike,
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
    org_kwargs_by_name: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> Dict[str, RunResult]:
    """Run one workload under several organizations (same trace each time)."""
    results = {}
    for org_name in org_names:
        kwargs = (org_kwargs_by_name or {}).get(org_name)
        results[org_name] = run_workload(
            org_name,
            workload_like,
            config=config,
            accesses_per_context=accesses_per_context,
            seed=seed,
            org_kwargs=kwargs,
        )
    return results


def build_speedup_report(
    org_names: Sequence[str],
    workload_likes: Iterable[WorkloadLike],
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    seed: int = 0,
    org_kwargs_by_name: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> SpeedupReport:
    """The paper's evaluation recipe: everything vs the no-stacked baseline.

    Runs the baseline plus every named organization on every workload and
    collects per-workload speedups into a :class:`SpeedupReport`.
    """
    report = SpeedupReport()
    for workload_like in workload_likes:
        spec = _resolve_spec(workload_like)
        baseline = run_workload(
            "baseline", spec, config, accesses_per_context, seed
        )
        for org_name in org_names:
            kwargs = (org_kwargs_by_name or {}).get(org_name)
            result = run_workload(
                org_name, spec, config, accesses_per_context, seed, org_kwargs=kwargs
            )
            report.add(spec.name, spec.category, org_name, result.speedup_over(baseline))
    return report
