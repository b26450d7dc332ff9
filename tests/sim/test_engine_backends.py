"""The vector engine backend: engagement, bails, contracts, fallbacks.

The byte-identity of full runs is enforced by the golden corpus
(``test_golden_equivalence.py``, parametrized over backends). This file
covers what the corpus cannot see: that the compiled kernel actually
*engaged* (a backend that silently falls back would pass every
equivalence test while delivering none of the speedup), the bail paths
(warmup barrier, page faults, progress heartbeats), the posted-queue
stable-identity contract, and deterministic warmup rounding.
"""

from array import array

import pytest

from repro.errors import SimulationError
from repro.orgs.baseline import NoStackedBaseline
from repro.orgs.factory import build_organization
from repro.sim import engine_vector
from repro.sim._kernel_build import kernel_available
from repro.sim.engine import (
    engine_backends,
    resolve_warmup_accesses,
    run_trace,
    set_progress_hook,
)
from repro.sim.export import result_to_json
from repro.sim.machine import Machine
from repro.workloads.mixes import mixed_generators, rate_mode_generators
from repro.workloads.spec import workload

from tests.conftest import make_config
from tests.sim.golden_cases import golden_result_json

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)


def run_case(org_name, workload_name, engine, *, num_contexts=2, **kwargs):
    config = make_config(stacked_pages=16, num_contexts=num_contexts)
    org = build_organization(org_name, config)
    machine = Machine(config, org, use_l3=True)
    spec = workload(workload_name)
    generators = rate_mode_generators(spec, config)
    result = run_trace(
        machine, generators, spec, accesses_per_context=300,
        engine=engine, **kwargs,
    )
    return result_to_json(result)


def test_backends_registered():
    assert engine_backends() == ("python", "vector")


@needs_kernel
def test_kernel_engages_on_lowerable_run():
    engine_vector.reset_backend_stats()
    run_case("cameo", "astar", "vector")
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1
    assert stats["fallbacks"] == 0
    assert stats["bails"]["barrier"] == 1  # default 25% warmup barrier


@needs_kernel
def test_fault_bails_resolve_through_python():
    # mcf over-commits the tiny golden-config memory: the kernel must
    # bail to Python for every page fault and still match byte-for-byte.
    engine_vector.reset_backend_stats()
    py = run_case("cameo", "mcf", "python")
    vec = run_case("cameo", "mcf", "vector")
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert engine_vector.backend_stats["bails"]["fault"] > 0


@needs_kernel
def test_heterogeneous_mix_interleaves_identically():
    # Different per-context event spacing exercises the scheduler: the
    # kernel's argmin select must reproduce heapq's (time, ctx) order.
    def mix(engine):
        config = make_config(stacked_pages=16, num_contexts=2)
        org = build_organization("cameo", config)
        machine = Machine(config, org, use_l3=True)
        specs = [workload("astar"), workload("milc")]
        generators = mixed_generators(specs, config)
        result = run_trace(
            machine, generators, specs, accesses_per_context=400,
            engine=engine,
        )
        return result_to_json(result)

    engine_vector.reset_backend_stats()
    assert mix("vector") == mix("python")
    assert engine_vector.backend_stats["kernel_runs"] == 1


@needs_kernel
@pytest.mark.parametrize("warmup_fraction", [0.0, 0.25, 0.5])
def test_measurement_barrier_under_batching(warmup_fraction):
    engine_vector.reset_backend_stats()
    py = run_case("cameo", "astar", "python", warmup_fraction=warmup_fraction)
    vec = run_case("cameo", "astar", "vector", warmup_fraction=warmup_fraction)
    assert vec == py
    expected_barriers = 0 if warmup_fraction == 0.0 else 1
    assert engine_vector.backend_stats["bails"]["barrier"] == expected_barriers


@needs_kernel
def test_progress_heartbeats_fire_identically():
    def counts(engine):
        seen = []
        set_progress_hook(seen.append, every=100)
        try:
            run_case("cameo", "astar", engine)
        finally:
            set_progress_hook(None)
        return seen

    assert counts("vector") == counts("python")


def test_vector_without_kernel_falls_back(monkeypatch):
    from repro.sim import _kernel_build

    monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
    _kernel_build.reset_for_tests()
    try:
        engine_vector.reset_backend_stats()
        vec = golden_result_json("cameo", "astar", engine="vector")
        py = golden_result_json("cameo", "astar", engine="python")
        assert vec == py
        assert engine_vector.backend_stats["kernel_runs"] == 0
        assert engine_vector.backend_stats["fallbacks"] == 1
        assert "disabled" in engine_vector.backend_stats["last_fallback_reason"]
    finally:
        _kernel_build.reset_for_tests()  # Drop the memoized "disabled" state.


@needs_kernel
def test_non_lowerable_org_falls_back_transparently():
    # The set-associative extension has no kernel-side service path, and
    # the exact-type gate must not lower an org it has never audited:
    # the vector backend runs it through the python loop and says so.
    engine_vector.reset_backend_stats()
    vec = run_case("cameo-assoc", "astar", "vector")
    py = run_case("cameo-assoc", "astar", "python")
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 0
    assert engine_vector.backend_stats["fallbacks"] == 1
    assert "not lowerable" in engine_vector.backend_stats["last_fallback_reason"]


@needs_kernel
@pytest.mark.parametrize("org_name", engine_vector.LOWERED_ORG_NAMES)
def test_kernel_engages_per_org(org_name):
    # Engagement, not just equivalence: a silent fallback would pass the
    # golden corpus while delivering none of the speedup.
    engine_vector.reset_backend_stats()
    vec = run_case(org_name, "astar", "vector")
    py = run_case(org_name, "astar", "python")
    assert vec == py
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1
    assert stats["fallbacks"] == 0
    # by_org tallies under the built design's own name: the predictor
    # variants of the co-located design all report as "cameo".
    tally_key = build_organization(org_name, make_config(stacked_pages=16)).name
    assert stats["by_org"][tally_key]["kernel_runs"] == 1


def kernel_engagement_failures(jobs):
    """One line per job the kernel did not serve: its key and why."""
    from repro.sim.parallel import run_job
    from repro.sim.result_store import result_store_disabled

    failures = []
    with result_store_disabled():
        for job in jobs:
            stats = run_job(job).engine_stats
            if stats["kernel_runs"] != 1 or stats["fallbacks"] != 0:
                failures.append(f"{job.key}: {stats['last_fallback_reason']}")
    return failures


@needs_kernel
def test_every_paper_grid_cell_of_a_lowered_org_engages_the_kernel(monkeypatch):
    # The kernel-engagement gate, on the cells the paper actually runs:
    # every unique paper-grid cell, TLM-Oracle's with the hot-page set
    # its planner computes, must be served by the kernel. A silent
    # fallback would pass the golden corpus while delivering none of the
    # speedup.
    from repro.experiments import PAPER_PLANNERS
    from repro.sim.result_store import job_fingerprint

    jobs = {}
    for plan in PAPER_PLANNERS.values():
        for job in plan(accesses_per_context=1500, seed=0).jobs:
            jobs.setdefault(job_fingerprint(job), job)
    assert None not in jobs  # an uncacheable cell would hide others
    # The lowered roster is exactly the paper grid's organizations.
    assert {job.organization for job in jobs.values()} == set(
        engine_vector.LOWERED_ORG_NAMES
    )
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    failures = kernel_engagement_failures(jobs.values())
    assert not failures, (
        f"{len(failures)} of {len(jobs)} cells fell back to the python "
        "loop:\n" + "\n".join(failures)
    )


def test_engagement_gate_names_each_cell_the_kernel_cannot_serve(monkeypatch):
    # The gate must be able to fail: with the kernel disabled, every
    # cell is reported by its key together with the reason it fell back.
    from repro.sim import _kernel_build
    from repro.sim.parallel import SimJob

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
    _kernel_build.reset_for_tests()
    config = make_config(stacked_pages=16, num_contexts=2)
    jobs = [
        SimJob("cameo", "astar", config, 200, use_l3=True),
        SimJob("baseline", "milc", config, 200, use_l3=True),
    ]
    try:
        failures = kernel_engagement_failures(jobs)
    finally:
        _kernel_build.reset_for_tests()
    assert len(failures) == len(jobs)
    for job, failure in zip(jobs, failures):
        assert failure.startswith(f"{job.key}: ")
        assert "disabled" in failure


def test_each_cell_result_records_why_it_fell_back(monkeypatch):
    # Vector configured but the kernel is unavailable: each cell's own
    # result must say it ran the python loop, and why, so no grid can
    # claim compiled throughput it never measured.
    from repro.sim import _kernel_build
    from repro.sim.parallel import SimJob, run_many
    from repro.sim.result_store import result_store_disabled

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
    _kernel_build.reset_for_tests()
    config = make_config(stacked_pages=16, num_contexts=2)
    jobs = [
        SimJob("baseline", "milc", config, 200, use_l3=True),
        SimJob("cameo", "milc", config, 200, use_l3=True),
    ]
    try:
        with result_store_disabled():
            outcomes = run_many(jobs, n_jobs=1)
    finally:
        _kernel_build.reset_for_tests()
    for outcome in outcomes:
        assert outcome.ok
        stats = outcome.result.engine_stats
        assert stats["kernel_runs"] == 0
        assert stats["fallbacks"] == 1
        assert "disabled" in stats["last_fallback_reason"]


@needs_kernel
def test_tlm_dynamic_fault_bails_resolve_through_python():
    # mcf over-commits the tiny memory: every fault (and any migration
    # the python-side fault servicing triggers) must leave the kernel's
    # dense translation maps coherent with the page table.
    engine_vector.reset_backend_stats()
    py = run_case("tlm-dynamic", "mcf", "python")
    vec = run_case("tlm-dynamic", "mcf", "vector")
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert engine_vector.backend_stats["bails"]["fault"] > 0


@needs_kernel
def test_tlm_dynamic_migrations_journal_to_page_table():
    # In-kernel page swaps must be replayed into the python page table:
    # the exported fixture includes migration counts and the final VM
    # stats, which diverge if the journal is dropped.
    engine_vector.reset_backend_stats()
    vec = run_case("tlm-dynamic", "milc", "vector")
    py = run_case("tlm-dynamic", "milc", "python")
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert '"page_migrations": 0' not in vec  # the case actually migrates


def _run_tlm_freq_epoch_case(engine):
    from repro.orgs.tlm_freq import TlmFreq

    config = make_config(stacked_pages=16, num_contexts=2)
    # A tiny epoch forces boundaries inside the kernel's steady state
    # (the golden-scale default of 2000 never fires at 600 accesses).
    org = TlmFreq(config, epoch_accesses=50, min_promote_count=2)
    machine = Machine(config, org, use_l3=True)
    spec = workload("milc")
    generators = rate_mode_generators(spec, config)
    result = run_trace(
        machine, generators, spec, accesses_per_context=300, engine=engine
    )
    return result_to_json(result)


@needs_kernel
def test_tlm_freq_epoch_runs_in_the_kernel():
    engine_vector.reset_backend_stats()
    vec = _run_tlm_freq_epoch_case("vector")
    py = _run_tlm_freq_epoch_case("python")
    assert vec == py
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1 and stats["fallbacks"] == 0
    assert stats["bails"].get("epoch", 0) == 0
    # Every kernel exit is one of the bails it still takes.
    assert stats["kernel_calls"] == 1 + sum(stats["bails"].values())
    assert '"page_migrations": 0' not in vec


def _run_tlm_freq_every_access(engine):
    from repro.orgs.tlm_freq import TlmFreq

    config = make_config(stacked_pages=16, num_contexts=2)
    # An epoch per access with no promotion floor: epochs inside L3
    # writebacks and inside demand accesses, each migrating up to the
    # kernel's headroom, while over-committed mcf faults.
    org = TlmFreq(
        config, epoch_accesses=1, max_migrations_per_epoch=64,
        min_promote_count=0,
    )
    machine = Machine(config, org, use_l3=True)
    spec = workload("mcf")
    return run_trace(
        machine, rate_mode_generators(spec, config), spec,
        accesses_per_context=300, engine=engine,
    )


@needs_kernel
def test_tlm_freq_epoch_per_access_matches_the_python_loop():
    engine_vector.reset_backend_stats()
    vec = _run_tlm_freq_every_access("vector")
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1 and stats["fallbacks"] == 0
    assert stats["bails"].get("epoch", 0) == 0
    assert stats["bails"]["fault"] > 0
    assert vec.page_migrations > 0
    py = _run_tlm_freq_every_access("python")
    assert result_to_json(vec) == result_to_json(py)


def _assert_coherent(table):
    """``fwd`` and ``inv`` are each other's inverse, slot for slot."""
    fwd, inv = table.fwd, table.inv
    for frame, key in enumerate(inv):
        if key:
            assert fwd[key - 1] == frame + 1
    for key, frame in enumerate(fwd):
        if frame:
            assert inv[frame - 1] == key + 1


class _BailCheckingKernel:
    """The kernel, checking the page table it shares after every fault bail.

    A fault bail maps its page, and runs a migrating org's hooks, on the
    Python side, straight into the columns the kernel translates
    through; at the next kernel entry they must still be coherent.
    ``patches`` records how many frames each bail re-mapped.
    """

    def __init__(self, lib, table):
        self._lib = lib
        self._table = table
        self._rc = None
        self._inv = None
        self.patches = []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def rk_run(self, I, F, P):
        table = self._table
        if self._rc == engine_vector.RK_FAULT:
            _assert_coherent(table)
            self.patches.append(
                sum(a != b for a, b in zip(self._inv, table.inv))
            )
        self._rc = self._lib.rk_run(I, F, P)
        self._inv = array("q", table.inv)
        return self._rc


def _run_with_checked_bails(monkeypatch, build_org, engine="vector"):
    """Run mcf on the golden config, checking the page table after every bail."""
    config = make_config(stacked_pages=16, num_contexts=2)
    machine = Machine(config, build_org(config), use_l3=True)
    kernel = _BailCheckingKernel(
        engine_vector.load_kernel(), machine.memory_manager.page_table
    )
    monkeypatch.setattr(engine_vector, "load_kernel", lambda: kernel)
    spec = workload("mcf")
    result = run_trace(
        machine, rate_mode_generators(spec, config), spec,
        accesses_per_context=300, engine=engine,
    )
    _assert_coherent(machine.memory_manager.page_table)
    return result, kernel.patches


@needs_kernel
@pytest.mark.parametrize("org_name", ["tlm-dynamic", "cameo", "cache"])
def test_fault_bail_patches_keep_maps_coherent(monkeypatch, org_name):
    engine_vector.reset_backend_stats()
    result, patches = _run_with_checked_bails(
        monkeypatch, lambda config: build_organization(org_name, config)
    )
    bails = engine_vector.backend_stats["bails"]
    assert bails["fault"] > 0
    assert len(patches) == bails["fault"]
    assert min(patches) >= 1  # each bail maps its own page
    if org_name == "tlm-dynamic":
        assert result.page_migrations > 0
        # Some bail swapped pages on the Python side: more than its own frame.
        assert max(patches) > 1


@needs_kernel
def test_epoch_and_fault_bail_patches_keep_maps_coherent(monkeypatch):
    from repro.orgs.tlm_freq import TlmFreq

    def build(config):
        # A tiny epoch interleaves rebalances with mcf's faults.
        return TlmFreq(config, epoch_accesses=50, min_promote_count=2)

    engine_vector.reset_backend_stats()
    vec, patches = _run_with_checked_bails(monkeypatch, build)
    bails = engine_vector.backend_stats["bails"]
    assert bails["fault"] > 0
    assert len(patches) == bails["fault"]
    assert vec.page_migrations > 0
    py, _ = _run_with_checked_bails(monkeypatch, build, engine="python")
    assert result_to_json(vec) == result_to_json(py)


@needs_kernel
def test_alloy_fault_injection_falls_back():
    from repro.faults.injector import FaultConfig, FaultInjector

    engine_vector.reset_backend_stats()
    config = make_config(stacked_pages=16, num_contexts=2)
    org = build_organization("cache", config)
    org.stacked.fault_injector = FaultInjector(FaultConfig())
    machine = Machine(config, org, use_l3=True)
    spec = workload("astar")
    generators = rate_mode_generators(spec, config)
    run_trace(
        machine, generators, spec, accesses_per_context=50, engine="vector"
    )
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 0
    assert stats["fallbacks"] == 1
    assert "fault injection" in stats["by_org"]["cache"]["last_fallback_reason"]


@needs_kernel
def test_parallel_pool_recovers_worker_engine_stats(monkeypatch):
    # Worker counters are process-local: without the result-envelope
    # plumbing, a `--jobs N` grid reports zero kernel runs no matter
    # how many cells lowered, and no engagement check could trust a
    # parallel run.
    from repro.sim.parallel import SimJob, run_many

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    engine_vector.reset_backend_stats()
    config = make_config(stacked_pages=16, num_contexts=2)
    jobs = [
        SimJob("cameo", "astar", config, 300, use_l3=True),
        SimJob("cache", "milc", config, 300, use_l3=True),
    ]
    outcomes = run_many(jobs, n_jobs=2)
    for outcome in outcomes:
        assert outcome.ok
        assert outcome.result.engine_stats["kernel_runs"] == 1
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 2
    assert stats["fallbacks"] == 0
    assert stats["by_org"]["cameo"]["kernel_runs"] == 1
    assert stats["by_org"]["cache"]["kernel_runs"] == 1


@needs_kernel
@pytest.mark.parametrize("field", ["line", "pc"])
def test_negative_trace_values_fall_back_to_the_python_loop(field):
    # Replay sources accept caller-built records unchecked. The kernel
    # would index its translation map with a negative page (or its
    # predictor table with a negative pc), reading and writing outside
    # them; the vector backend must refuse the run, not crash.
    from repro.workloads.replay import ReplayTraceSource

    config = make_config(stacked_pages=16, num_contexts=2)
    spec = workload("milc")

    def run(engine):
        sources = []
        for gen in rate_mode_generators(spec, config):
            records = list(gen.generate(300))
            line, pc, is_write = records[0]
            records[0] = (-6400, pc, is_write) if field == "line" else (line, -4, is_write)
            sources.append(ReplayTraceSource.from_raw(
                records, lines_per_page=config.lines_per_page,
                footprint_pages=gen.footprint_pages,
            ))
        machine = Machine(config, build_organization("cameo", config), use_l3=True)
        return result_to_json(run_trace(
            machine, sources, spec, accesses_per_context=300, engine=engine,
        ))

    engine_vector.reset_backend_stats()
    vec = run("vector")
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 0
    assert stats["last_fallback_reason"] == "trace holds a negative line or pc"
    assert vec == run("python")


@needs_kernel
def test_warm_cells_hand_the_kernel_the_trace_caches_own_arrays(monkeypatch):
    # No per-cell re-columnarization: every cell replaying a cached
    # trace passes the kernel the cache entry's arrays themselves.
    from repro.sim.result_store import result_store_disabled
    from repro.sim.runner import run_workload
    from repro.workloads.mixes import per_context_footprint_pages, rate_mode_seed
    from repro.workloads.trace_cache import (
        clear_default_trace_cache,
        default_trace_cache,
    )

    exported = []
    for name in ("_addr_of_array", "_addr_of_bytes"):
        original = getattr(engine_vector, name)

        def recording(buf, keepalive, original=original):
            exported.append(buf)
            return original(buf, keepalive)

        monkeypatch.setattr(engine_vector, name, recording)
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    config = make_config(stacked_pages=16, num_contexts=2)
    spec = workload("astar")
    clear_default_trace_cache()
    try:
        with result_store_disabled():
            for org_name in ("cameo", "baseline"):
                exported.clear()
                engine_vector.reset_backend_stats()
                run_workload(org_name, spec, config, 300)
                assert engine_vector.backend_stats["kernel_runs"] == 1
                cache = default_trace_cache()
                for ctx in range(config.num_contexts):
                    columns = cache.materialize(
                        spec, per_context_footprint_pages(spec, config),
                        rate_mode_seed(0, ctx), config.lines_per_page, 300,
                    )
                    for column in (columns.lines, columns.pcs, columns.writes):
                        assert any(buf is column for buf in exported)
    finally:
        clear_default_trace_cache()


class ReassigningOrg(NoStackedBaseline):
    """An organization that breaks the posted-queue identity contract."""

    def posted_queue(self):
        return list(self._posted)


@pytest.mark.parametrize("engine", engine_backends())
def test_posted_queue_reassignment_fails_loudly(engine):
    config = make_config(stacked_pages=16, num_contexts=2)
    org = ReassigningOrg(config)
    machine = Machine(config, org, use_l3=True)
    spec = workload("astar")
    generators = rate_mode_generators(spec, config)
    with pytest.raises(SimulationError, match="posted_queue"):
        run_trace(
            machine, generators, spec, accesses_per_context=50, engine=engine
        )


def test_posted_list_property_cannot_be_rebound():
    config = make_config(stacked_pages=16, num_contexts=2)
    org = NoStackedBaseline(config)
    with pytest.raises(AttributeError):
        org._posted = []


class TestResolveWarmupAccesses:
    def test_quarter_of_long_trace(self):
        assert resolve_warmup_accesses(12_000, 0.25) == 3_000

    def test_rounds_half_up(self):
        assert resolve_warmup_accesses(6, 0.25) == 2  # 1.5 -> 2
        assert resolve_warmup_accesses(5, 0.25) == 1  # 1.25 -> 1

    def test_short_trace_still_warms(self):
        # The old int() truncation silently skipped the barrier here.
        assert resolve_warmup_accesses(3, 0.25) == 1
        assert resolve_warmup_accesses(2, 0.25) == 1

    def test_zero_fraction_disables_warmup(self):
        assert resolve_warmup_accesses(12_000, 0.0) == 0

    def test_single_access_measures_its_only_access(self):
        assert resolve_warmup_accesses(1, 0.25) == 0

    def test_at_least_one_access_is_measured(self):
        assert resolve_warmup_accesses(4, 0.99) == 3
