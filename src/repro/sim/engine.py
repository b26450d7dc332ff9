"""The trace-driven run loop.

Contexts are interleaved by simulated time (a min-heap on each context's
next-issue time), so the DRAM channel/bank horizons see a realistically
mixed request stream and bandwidth contention emerges naturally.

Execution-time model (Section III-C's figure of merit):

``time += instructions_between_events x CPI_base + stall``

where the stall of a read is the L3 lookup plus the organization's
latency divided by the memory-level-parallelism factor (an OOO core
overlaps independent misses), a write (L3 dirty writeback) is posted and
contributes only bandwidth, and a page fault blocks for the full SSD
latency.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError, SimulationError
from ..workloads.spec import WorkloadSpec
from ..workloads.synthetic import SyntheticTraceGenerator
from .machine import Machine
from .request import MemoryRequest
from .results import RunResult

#: Environment knob: accesses simulated per context (trace length).
ACCESSES_ENV_VAR = "REPRO_ACCESSES_PER_CONTEXT"
DEFAULT_ACCESSES_PER_CONTEXT = 12_000

#: Environment knob: which engine backend drives the run loop.
#: ``python`` is the reference interpreter; ``vector`` lowers the hot
#: loop onto the columnar compiled kernel (:mod:`repro.sim.engine_vector`)
#: when the run is lowerable, falling back to ``python`` — byte-identical
#: either way — when it is not.
ENGINE_ENV_VAR = "REPRO_ENGINE"
ENGINE_BACKENDS = ("python", "vector")


def engine_backends() -> tuple:
    """The registered engine backends (for test parametrization/CLI)."""
    return ENGINE_BACKENDS


def default_engine_backend() -> str:
    """The backend selected by ``REPRO_ENGINE`` (default ``python``)."""
    raw = os.environ.get(ENGINE_ENV_VAR)
    if raw is None:
        return "python"
    value = raw.strip().lower()
    if value not in ENGINE_BACKENDS:
        raise ConfigurationError(
            f"{ENGINE_ENV_VAR}={raw!r} is not a known engine backend; "
            f"choose from {ENGINE_BACKENDS}"
        )
    return value


def resolve_engine_backend(engine: Optional[str] = None) -> str:
    """``engine`` checked against the registered backends (None: the default)."""
    backend = engine if engine is not None else default_engine_backend()
    if backend not in ENGINE_BACKENDS:
        raise ConfigurationError(
            f"unknown engine backend {backend!r}; choose from {ENGINE_BACKENDS}"
        )
    return backend


def default_accesses_per_context() -> int:
    """Trace length per context, overridable via the environment."""
    raw = os.environ.get(ACCESSES_ENV_VAR)
    if raw is None:
        return DEFAULT_ACCESSES_PER_CONTEXT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{ACCESSES_ENV_VAR}={raw!r} is not an integer") from exc
    if value <= 0:
        raise ConfigurationError(f"{ACCESSES_ENV_VAR} must be positive")
    return value


#: Fraction of each context's trace treated as (untimed) warmup.
DEFAULT_WARMUP_FRACTION = 0.25


def resolve_warmup_accesses(n_accesses: int, warmup_fraction: float) -> int:
    """Deterministic warmup length: round half up, never silently zero.

    ``int(n * fraction)`` truncated, so short traces (``n * fraction < 1``)
    got *no* warmup — the global measurement barrier and the counter
    reset were silently skipped while callers believed 25% warmup had
    happened. The rule now is:

    * ``fraction == 0`` → 0 (warmup explicitly disabled);
    * otherwise round ``n * fraction`` half up, with a floor of 1 — a
      caller that asked for warmup always gets the barrier and reset —
      and a ceiling of ``n - 1`` so at least one access is measured;
    * a single-access trace (``n == 1``) cannot both warm and measure,
      so it measures its only access (warmup 0).
    """
    if warmup_fraction == 0.0 or n_accesses <= 1:
        return 0
    warmup = int(n_accesses * warmup_fraction + 0.5)
    if warmup < 1:
        warmup = 1
    elif warmup > n_accesses - 1:
        warmup = n_accesses - 1
    return warmup


# -- Progress reporting (worker heartbeats) -------------------------------------
#
# Subprocess workers install a hook so the supervising parent can tell a
# hung worker from a slow one (repro.sim.supervisor). With no hook set —
# every in-process run — the hot loop is untouched: the instrumentation
# wraps the trace iterators only when a hook is active.

_progress_hook = None
_progress_every = 2_000


def set_progress_hook(hook, every: int = 2_000) -> None:
    """Install (or, with ``hook=None``, clear) the progress callback.

    ``hook(total_accesses)`` is called from inside :func:`run_trace`
    every ``every`` accesses (summed over all contexts, warmup
    included). The hook must be cheap and must never raise.
    """
    global _progress_hook, _progress_every
    if hook is not None and every <= 0:
        raise ConfigurationError("progress interval must be positive")
    _progress_hook = hook
    _progress_every = every


def _counted(iterator, shared, every, hook):
    """Yield from ``iterator``, firing ``hook`` every ``every`` accesses."""
    for item in iterator:
        shared[0] += 1
        if shared[0] % every == 0:
            hook(shared[0])
        yield item


def _resolve_run_plan(
    machine: Machine,
    generators: Sequence,
    spec,
    accesses_per_context: Optional[int],
    instructions_per_event: Optional[float],
    warmup_fraction: float,
):
    """Validate inputs and derive the run parameters both backends share."""
    config = machine.config
    if len(generators) != config.num_contexts:
        raise ConfigurationError(
            f"need {config.num_contexts} generators, got {len(generators)}"
        )
    if not 0 <= warmup_fraction < 1:
        raise ConfigurationError("warmup_fraction must be within [0, 1)")
    if isinstance(spec, WorkloadSpec):
        specs = [spec] * config.num_contexts
        workload_name = spec.name
    else:
        specs = list(spec)
        if len(specs) != config.num_contexts:
            raise ConfigurationError(
                f"need {config.num_contexts} workload specs, got {len(specs)}"
            )
        names = []
        for s_ in specs:
            if s_.name not in names:
                names.append(s_.name)
        workload_name = "+".join(names)
    n_accesses = (
        accesses_per_context
        if accesses_per_context is not None
        else default_accesses_per_context()
    )
    if instructions_per_event is not None:
        instr_per_event = [float(instructions_per_event)] * config.num_contexts
    else:
        instr_per_event = [s_.instructions_per_miss for s_ in specs]
    warmup_accesses = resolve_warmup_accesses(n_accesses, warmup_fraction)
    return workload_name, n_accesses, instr_per_event, warmup_accesses


def _acquire_posted_queue(org):
    """The loop-setup assertion behind the posted-queue contract.

    The hot loop holds one reference to the organization's posted heap
    for the whole run; an organization that rebinds its queue (or hands
    out a fresh list per call) would silently desync writeback flushing.
    Verify the accessor is stable before trusting it.
    """
    posted = org.posted_queue()
    if posted is not org.posted_queue() or posted is not org._posted:
        raise SimulationError(
            f"{type(org).__name__}.posted_queue() must return the same "
            "list object on every call (the engine aliases it for the "
            "whole run); the posted queue may be mutated but never "
            "reassigned"
        )
    return posted


def build_run_result(
    machine: Machine,
    workload_name: str,
    finish_times: Sequence[float],
    measure_start: Sequence[float],
    n_accesses: int,
    warmup_accesses: int,
    instr_per_event: Sequence[float],
) -> RunResult:
    """Assemble the :class:`RunResult` from a finished run's final state.

    Shared by the python and vector backends — both end with identical
    machine/org state, so the result construction is identical too.
    """
    org = machine.org
    mm = machine.memory_manager
    l3 = machine.l3
    org.drain_posted()  # Account the tail of in-flight posted traffic.
    total_cycles = max(
        finish - start for finish, start in zip(finish_times, measure_start)
    )
    measured_accesses = n_accesses - warmup_accesses
    instructions = int(measured_accesses * sum(instr_per_event))
    return RunResult(
        workload=workload_name,
        organization=org.name,
        total_cycles=total_cycles,
        instructions=instructions,
        dram_bytes=org.bytes_by_device(),
        storage_bytes=machine.ssd.stats.bytes_transferred,
        page_faults=mm.stats.faults,
        stacked_service_fraction=org.stats.stacked_service_fraction,
        line_swaps=org.stats.line_swaps,
        page_migrations=org.stats.page_migrations,
        llp_cases=getattr(org, "case_stats", None),
        l3_miss_rate=l3.stats.miss_rate if l3 is not None else None,
        accesses=measured_accesses * machine.config.num_contexts,
        device_summary={
            name: {
                "row_hit_rate": device.stats.row_hit_rate,
                "average_latency": device.stats.average_latency,
                "accesses": device.stats.accesses,
            }
            for name, device in org.devices().items()
        },
        fault_summary=(
            org.fault_injector.stats.as_dict()
            if getattr(org, "fault_injector", None) is not None
            else None
        ),
    )


def run_trace(
    machine: Machine,
    generators: Sequence,
    spec,
    accesses_per_context: Optional[int] = None,
    instructions_per_event: Optional[float] = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    pretouch: bool = True,
    engine: Optional[str] = None,
) -> RunResult:
    """Drive ``machine`` with one generator per context; returns the result.

    ``spec`` is one :class:`WorkloadSpec` (rate mode) or a sequence with
    one spec per context (heterogeneous mixes; see
    :func:`repro.workloads.mixes.mixed_generators`).

    ``instructions_per_event`` defaults to each workload's Table II
    MPKI-derived spacing (the generators emit an L3-miss-level stream).

    ``engine`` selects the backend (``python``/``vector``), defaulting
    to the ``REPRO_ENGINE`` environment knob. The vector backend lowers
    the run onto the columnar compiled kernel when the configuration is
    lowerable and transparently falls back to the python loop when not;
    results are byte-identical either way (the golden corpus enforces
    this).

    Measurement methodology: the address space is pre-faulted
    (``pretouch``) and the first ``warmup_fraction`` of each context's
    accesses warms the LLT/caches/predictors before counters are zeroed
    and timing restarts — the paper measures representative slices of
    long-running programs, not cold starts. Warmup length is
    :func:`resolve_warmup_accesses` of the trace length — rounded half
    up, at least 1 when warmup was requested, and capped at ``n - 1`` so
    single-access traces measure their only access.

    Warmup ends at a *global barrier*: a context that finishes its
    warmup accesses parks until every context has warmed, then all
    counters are reset and every context's measurement window starts at
    the same simulated time. This keeps the cycle windows and the
    org/device counters consistent — exactly the ``n - warmup`` accesses
    each context issues after the barrier are timed *and* counted.
    """
    backend = resolve_engine_backend(engine)
    if backend == "vector":
        from .engine_vector import run_trace_vector

        result = run_trace_vector(
            machine,
            generators,
            spec,
            accesses_per_context=accesses_per_context,
            instructions_per_event=instructions_per_event,
            warmup_fraction=warmup_fraction,
            pretouch=pretouch,
        )
        if result is not None:
            return result
        # Not lowerable (org/config/features outside the kernel's scope,
        # or no working C toolchain): the python loop is the fallback.
    return _run_trace_python(
        machine,
        generators,
        spec,
        accesses_per_context,
        instructions_per_event,
        warmup_fraction,
        pretouch,
    )


def _run_trace_python(
    machine: Machine,
    generators: Sequence,
    spec,
    accesses_per_context: Optional[int] = None,
    instructions_per_event: Optional[float] = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    pretouch: bool = True,
) -> RunResult:
    """The reference per-access interpreter (see :func:`run_trace`)."""
    config = machine.config
    workload_name, n_accesses, instr_per_event, warmup_accesses = _resolve_run_plan(
        machine, generators, spec, accesses_per_context,
        instructions_per_event, warmup_fraction,
    )
    if pretouch:
        machine.pretouch([gen.footprint_pages for gen in generators], engine="python")

    org = machine.org
    mm = machine.memory_manager
    l3 = machine.l3
    lines_per_page = config.lines_per_page
    l3_latency = config.l3.latency_cycles
    mlp = config.memory_level_parallelism
    work_per_event = [i * config.cpi_base for i in instr_per_event]

    iterators = [gen.generate(n_accesses) for gen in generators]
    progress_hook = _progress_hook
    if progress_hook is not None:
        shared_count = [0]
        iterators = [
            _counted(it, shared_count, _progress_every, progress_hook)
            for it in iterators
        ]
    # Heap of (next_issue_time, context_id); tuples keep it allocation-light.
    heap: List = [(0.0, ctx) for ctx in range(config.num_contexts)]
    heapq.heapify(heap)
    finish_times = [0.0] * config.num_contexts
    measure_start = [0.0] * config.num_contexts
    access_counts = [0] * config.num_contexts
    warmed = [False] * config.num_contexts
    parked: List[int] = []
    contexts_warm = 0 if warmup_accesses else config.num_contexts

    # Hot-loop locals: bound methods and constants resolved once, not per
    # access. ``posted`` aliases the org's queue through the asserted
    # stable accessor (never reassigned, see posted_queue) so the
    # empty-queue common case skips the flush_posted call entirely.
    heappush = heapq.heappush
    heappop = heapq.heappop
    num_contexts = config.num_contexts
    org_access = org.access
    mm_translate = mm.translate
    org_flush_posted = org.flush_posted
    posted = _acquire_posted_queue(org)
    l3_access = l3.access if l3 is not None else None
    # The engine owns these two request objects and mutates them in place;
    # organizations consume requests synchronously and must not retain them.
    demand_req = MemoryRequest(0, 0, 0, False)
    wb_req = MemoryRequest(0, 0, 0, True, is_writeback=True)

    while heap:
        now, ctx = heappop(heap)
        if warmup_accesses and not warmed[ctx] and access_counts[ctx] == warmup_accesses:
            warmed[ctx] = True
            contexts_warm += 1
            if contexts_warm < num_contexts:
                # Park until every context has warmed, so the counter
                # reset and every timing window share one start time.
                parked.append(ctx)
                continue
            # Last context warmed: the global measurement barrier.
            machine.reset_measurement_stats()
            measure_start = [now] * num_contexts
            for other in parked:
                heappush(heap, (now, other))
            parked.clear()
        access_counts[ctx] += 1
        try:
            virtual_line, pc, is_write = next(iterators[ctx])
        except StopIteration:
            finish_times[ctx] = now
            continue
        # Replay swap/fill/migration traffic that became ready by now, so
        # device calls stay in non-decreasing time order.
        if posted:
            org_flush_posted(now)

        vpage, offset = divmod(virtual_line, lines_per_page)
        translation = mm_translate((ctx, vpage), is_write)
        stall = 0.0
        if translation.faulted:
            evicted = translation.evicted
            evicted_frame = translation.evicted_frame
            if l3 is not None and evicted_frame is not None:
                # OS shootdown: dirty L3 lines of the departing frame
                # must reach DRAM (their bytes count) before the page
                # can be read out to storage below.
                _drain_evicted_frame(l3, org, now, ctx, evicted_frame, lines_per_page)
            if evicted is not None and evicted[1]:
                # Dirty page: read it out of DRAM on its way to storage.
                org.page_drain(now, evicted_frame)
            org.page_fill(now, translation.frame)
            stall += translation.fault_latency

        line_addr = translation.frame * lines_per_page + offset
        go_to_memory = True
        if l3_access is not None:
            l3_result = l3_access(line_addr, is_write)
            stall += l3_latency
            if l3_result.hit:
                go_to_memory = False
            elif l3_result.writeback_line is not None:
                wb_req.context_id = ctx
                wb_req.pc = pc
                wb_req.line_addr = l3_result.writeback_line
                org_access(now, wb_req)
        else:
            stall += l3_latency  # The miss still paid the L3 lookup.

        if go_to_memory:
            demand_req.context_id = ctx
            demand_req.pc = pc
            demand_req.line_addr = line_addr
            demand_req.is_write = is_write
            result = org_access(now, demand_req)
            if not is_write:
                stall += result.latency / mlp

        heappush(heap, (now + work_per_event[ctx] + stall, ctx))

    return build_run_result(
        machine, workload_name, finish_times, measure_start,
        n_accesses, warmup_accesses, instr_per_event,
    )


def _drain_evicted_frame(
    l3, org, now: float, ctx: int, frame: int, lines_per_page: int
) -> int:
    """Flush a reclaimed frame's lines from the L3 (OS cache shootdown).

    Dirty lines hold data newer than the DRAM copy the subsequent
    ``page_drain`` reads, so each one is written back through the
    organization (as tagged, non-demand writeback traffic) before its
    frame leaves memory. Returns the number of dirty lines drained.
    """
    first = frame * lines_per_page
    drained = 0
    for line in range(first, first + lines_per_page):
        dirty = l3.evict_line(line)
        if dirty:
            org.access(now, MemoryRequest(ctx, 0, line, True, is_writeback=True))
            drained += 1
    return drained
