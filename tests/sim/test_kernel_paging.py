"""The compiled kernel's paging path against the python reference.

Faults in full memory and pretouch run inside the kernel, on a C mirror
of the clock replacer's ``random.Random`` and of the memory manager's
free lists. Whole-run equality is the golden corpus's and the
differential harness's job; these tests pin what lies underneath it:
the random draws, the state a pretouch leaves behind, and the VM state
the Python objects hold when the kernel exits mid-run and at the end.
"""

import random
from array import array

import pytest

from repro.orgs.factory import build_organization
from repro.sim import engine_vector
from repro.sim._kernel_build import kernel_available, load_kernel
from repro.sim.machine import Machine

from tests.conftest import make_config

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)

#: Bounds of the bit-length buckets ``randrange`` rejects within.
DRAW_BOUNDS = (1, 2, 3, 255, 256, 257, 768, 1016, 1024, 2**31 - 1, 2**31)
DRAWS = 5000


def kernel_draws(words, n, count):
    """``count`` kernel draws of ``randrange(n)`` from the state ``words``."""
    out = array("q", bytes(8 * count))
    rc = load_kernel().rk_mt_randbelow(
        words.buffer_info()[0], n, count, out.buffer_info()[0]
    )
    assert rc == engine_vector.RK_DONE
    return list(out)


@needs_kernel
@pytest.mark.parametrize("n", DRAW_BOUNDS)
def test_mt_mirror_draws_what_random_randrange_draws(n):
    reference = random.Random(n)
    state = reference.getstate()
    words = array("q", state[1])
    assert kernel_draws(words, n, DRAWS) == [
        reference.randrange(n) for _ in range(DRAWS)
    ]
    # The words the kernel leaves are the generator's own state.
    assert tuple(words) == reference.getstate()[1]


@needs_kernel
def test_mt_state_round_trips_through_getstate_and_setstate():
    source = random.Random(7)
    source.random()  # mid-block: the index is not 624
    state = source.getstate()
    words = array("q", state[1])
    kernel_draws(words, 1016, 300)
    resumed = random.Random()
    resumed.setstate((state[0], tuple(words), state[2]))
    for _ in range(300):
        source.randrange(1016)
    assert resumed.getstate() == source.getstate()
    assert [resumed.randrange(1016) for _ in range(50)] == [
        source.randrange(1016) for _ in range(50)
    ]


#: Per-context footprints on the 16-stacked-page test config (48-64
#: frames): one that fits (and, on the orgs with 16 stacked and 48
#: off-chip free frames, pops past the point where the two pools tie),
#: one that over-commits memory several times.
FITTING = [24, 16]
OVER_COMMITTED = [150, 110]

PRETOUCH_ORGS = engine_vector.LOWERED_ORG_NAMES + ("cameo-sram-llt",)


def _machine(org_name, seed=3):
    config = make_config(stacked_pages=16, num_contexts=2)
    kwargs = {}
    if org_name == "tlm-oracle":
        kwargs["hot_vpages"] = frozenset(
            (asid, vpage) for asid in range(2) for vpage in range(0, 60, 3)
        )
    return Machine(config, build_organization(org_name, config, **kwargs), seed=seed)


def _forward_map(table):
    """Every page ``lookup`` resolves, whatever layout the table grew to."""
    pages = (
        (asid, vpage) for asid in range(table.n_asids)
        for vpage in range(table.vbase, table.vbase + table.stride)
    )
    return {vp: frame for vp in pages if (frame := table.lookup(vp)) is not None}


def _vm_state(machine):
    mm = machine.memory_manager
    table = mm.page_table
    return {
        "forward": _forward_map(table),
        "vpages": [table.vpage_of(frame) for frame in range(table.num_frames)],
        "resident": table.resident_count(),
        "referenced": bytes(table.referenced),
        "dirty": bytes(table.dirty),
        "free_stacked": list(mm._free_stacked),
        "free_offchip": list(mm._free_offchip),
        "free_set": set(mm._free_set),
        "hand": mm.replacer._hand,
        "rng": mm.replacer._rng.getstate(),
        "vm_stats": mm.stats,
        "ssd_stats": mm.ssd.stats,
    }


def _kernel_pretouch(machine, footprints):
    """Pretouch through the kernel entry itself, so a fallback cannot hide."""
    assert engine_vector.pretouch_vector(machine, footprints)
    machine.reset_paging_stats()


@needs_kernel
@pytest.mark.parametrize("footprints", [FITTING, OVER_COMMITTED],
                         ids=["fitting", "over-committed"])
@pytest.mark.parametrize("org_name", PRETOUCH_ORGS)
def test_kernel_pretouch_leaves_the_python_loops_state(org_name, footprints):
    reference = _machine(org_name)
    initial_rng = reference.memory_manager.replacer._rng.getstate()
    reference.pretouch(footprints, engine="python")
    machine = _machine(org_name)
    _kernel_pretouch(machine, footprints)
    assert _vm_state(machine) == _vm_state(reference)
    reclaimed = reference.memory_manager.replacer._rng.getstate() != initial_rng
    assert reclaimed == (footprints is OVER_COMMITTED)


@needs_kernel
@pytest.mark.parametrize("org_name", ["cameo", "tlm-dynamic", "tlm-oracle"])
def test_kernel_pretouch_over_a_used_page_table(org_name):
    """Stale free-list entries, dirty pages and a moved hand: the kernel
    must pop, skip and reclaim exactly as ``_pop_free`` and the clock do."""
    def used(engine):
        machine = _machine(org_name, seed=11)
        mm = machine.memory_manager
        machine.pretouch([20, 12], engine="python")
        for frame_a, frame_b in ((0, 40), (3, 17), (40, 5), (17, 33)):
            mm.swap_frames(frame_a, frame_b)  # moves "free" between frames
        for vpage in range(0, 20, 4):
            mm.translate((0, vpage), is_write=True)
        mm.replacer._hand = 9
        if engine == "vector":
            _kernel_pretouch(machine, [70, 90])
        else:
            machine.pretouch([70, 90], engine="python")
        return _vm_state(machine)

    assert used("vector") == used("python")


@needs_kernel
def test_machine_pretouch_reaches_the_kernel_under_the_vector_engine(monkeypatch):
    served = []
    pretouch_vector = engine_vector.pretouch_vector

    def spy(machine, footprints):
        served.append(pretouch_vector(machine, footprints))
        return served[-1]

    monkeypatch.setattr(engine_vector, "pretouch_vector", spy)
    machine = _machine("cameo")
    machine.pretouch(OVER_COMMITTED, engine="vector")
    reference = _machine("cameo")
    reference.pretouch(OVER_COMMITTED, engine="python")
    assert served == [True]
    assert _vm_state(machine) == _vm_state(reference)


@needs_kernel
def test_opaque_placement_hook_keeps_the_python_pretouch():
    machine = _machine("cameo")
    machine.memory_manager.frame_preference = lambda vpage: "offchip"
    assert not engine_vector.pretouch_vector(machine, FITTING)
    assert machine.memory_manager.page_table.resident_count() == 0


def _run_recording_vm_state(org_name, engine, pretouch=True):
    """An L3-off mcf run; the VM state at the warmup barrier and at the end."""
    from repro.sim.engine import run_trace
    from repro.workloads.mixes import rate_mode_generators
    from repro.workloads.spec import workload

    config = make_config(stacked_pages=16, num_contexts=2)
    machine = Machine(config, build_organization(org_name, config))
    snapshots = []
    reset = machine.reset_measurement_stats

    def snapshot_then_reset():
        snapshots.append(_vm_state(machine))
        reset()

    machine.reset_measurement_stats = snapshot_then_reset
    spec = workload("mcf")
    result = run_trace(
        machine, rate_mode_generators(spec, config), spec,
        accesses_per_context=400, pretouch=pretouch, engine=engine,
    )
    snapshots.append(_vm_state(machine))
    return result, snapshots


@needs_kernel
@pytest.mark.parametrize("org_name", PRETOUCH_ORGS)
def test_kernel_faults_leave_the_python_loops_vm_state(org_name):
    """At a mid-run exit (the barrier) and at the end of the run, the page
    table, free lists, hand, RNG and VM/SSD counters are the reference's."""
    engine_vector.reset_backend_stats()
    result, snapshots = _run_recording_vm_state(org_name, "vector")
    bails = engine_vector.backend_stats["bails"]
    assert bails["fault"] == 0 and result.page_faults > 0
    _, reference = _run_recording_vm_state(org_name, "python")
    assert len(snapshots) == len(reference) == 2
    assert snapshots == reference


@needs_kernel
@pytest.mark.parametrize("org_name", ["tlm-dynamic", "tlm-freq", "cameo"])
def test_kernel_takes_over_faults_once_python_has_filled_memory(
    org_name, monkeypatch
):
    """No pretouch: faults bail while frames are free (migrations into
    free frames leave stale free-list entries behind), then the kernel
    serves the rest, and the state still matches at every exit."""
    from repro.vm.memory_manager import MemoryManager

    kernel_faulted = []  # one entry per kernel exit after faults it served
    drain = MemoryManager.drain_free_pools

    def counted(self):
        kernel_faulted.append(True)
        drain(self)

    monkeypatch.setattr(MemoryManager, "drain_free_pools", counted)
    engine_vector.reset_backend_stats()
    _, snapshots = _run_recording_vm_state(org_name, "vector", pretouch=False)
    assert engine_vector.backend_stats["bails"]["fault"] > 0
    assert kernel_faulted
    _, reference = _run_recording_vm_state(org_name, "python", pretouch=False)
    assert snapshots == reference


@needs_kernel
def test_a_kernel_fault_drains_stale_free_list_entries():
    """In full memory, the python loop's first fault pops every stale
    free-list entry; the kernel's first fault must leave the lists so."""
    from repro.sim.engine import run_trace
    from repro.workloads.mixes import rate_mode_generators
    from repro.workloads.spec import workload

    def run(engine):
        config = make_config(stacked_pages=16, num_contexts=2)
        machine = Machine(config, build_organization("tlm-static", config))
        spec = workload("mcf")
        generators = rate_mode_generators(spec, config)
        machine.pretouch([gen.footprint_pages for gen in generators], engine=engine)
        mm = machine.memory_manager
        assert not mm._free_set
        # What swaps into then-free frames leave behind: entries for
        # frames that are no longer free.
        mm._free_stacked.append(3)
        mm._free_offchip.extend((40, 17))
        result = run_trace(machine, generators, spec, accesses_per_context=400,
                           pretouch=False, engine=engine)
        return _vm_state(machine), result.page_faults

    engine_vector.reset_backend_stats()
    served, faults = run("vector")
    assert faults > 0 and engine_vector.backend_stats["bails"]["fault"] == 0
    assert served == run("python")[0]


@needs_kernel
@pytest.mark.parametrize("org_name", ["cameo", "tlm-dynamic", "tlm-freq"])
def test_kernel_served_paging_makes_no_python_side_mapping(org_name, monkeypatch):
    """Over-committed, L3 off, pretouched by the kernel: every fault and
    migration of the run lands in the page table's shared columns, and
    Python maps, evicts, swaps and replays nothing."""
    from repro.sim.engine import run_trace
    from repro.sim.export import result_to_json
    from repro.vm.memory_manager import MemoryManager
    from repro.vm.page_table import PageTable
    from repro.workloads.mixes import rate_mode_generators
    from repro.workloads.spec import workload

    def run(engine):
        config = make_config(stacked_pages=16, num_contexts=2)
        kwargs = ({"epoch_accesses": 50, "min_promote_count": 2}
                  if org_name == "tlm-freq" else {})
        machine = Machine(config, build_organization(org_name, config, **kwargs))
        spec = workload("mcf")
        generators = rate_mode_generators(spec, config)
        machine.pretouch([gen.footprint_pages for gen in generators], engine=engine)
        if engine == "vector":
            for cls, names in (
                (PageTable, ("map", "evict", "unmap_frame", "swap_frames",
                             "touch", "_relayout")),
                (MemoryManager, ("translate", "swap_frames",
                                 "reconcile_external_log")),
            ):
                for name in names:
                    def counted(*args, _original=getattr(cls, name), _name=name,
                                **kwargs):
                        calls.append(_name)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(cls, name, counted)
        return run_trace(machine, generators, spec, accesses_per_context=400,
                         pretouch=False, engine=engine)

    calls = []
    engine_vector.reset_backend_stats()
    served = run("vector")
    monkeypatch.undo()
    assert engine_vector.backend_stats["bails"]["fault"] == 0
    assert served.page_faults > 0
    if org_name != "cameo":
        assert served.page_migrations > 0
    assert calls == []
    assert result_to_json(served) == result_to_json(run("python"))
