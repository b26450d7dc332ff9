"""Tests for the optional full-pipeline (pre-L3) mode of the engine."""

import pytest

from repro.orgs.factory import build_organization
from repro.sim.engine import run_trace
from repro.sim.machine import Machine
from repro.workloads.mixes import rate_mode_generators
from repro.workloads.spec import workload
from tests.conftest import make_config


def run_l3(org_name="baseline", workload_name="astar", n=600, **kwargs):
    config = make_config(stacked_pages=16, num_contexts=2)
    org = build_organization(org_name, config)
    machine = Machine(config, org, use_l3=True)
    spec = workload(workload_name)
    gens = rate_mode_generators(spec, config)
    result = run_trace(machine, gens, spec, accesses_per_context=n,
                       instructions_per_event=4.0, **kwargs)
    return machine, result


class TestL3Mode:
    def test_l3_filters_the_stream(self):
        machine, result = run_l3()
        # astar's hot set fits in the 16 KB test L3: many references hit.
        assert result.l3_miss_rate is not None
        assert result.l3_miss_rate < 1.0
        assert machine.org.stats.accesses < result.accesses

    def test_l3_hits_bypass_memory(self):
        machine, result = run_l3()
        memory_accesses = machine.org.stats.accesses
        l3_accesses = machine.l3.stats.accesses
        assert memory_accesses <= l3_accesses

    def test_l3_mode_is_faster_than_memory_only(self):
        _, with_l3 = run_l3("baseline")
        config = make_config(stacked_pages=16, num_contexts=2)
        org = build_organization("baseline", config)
        machine = Machine(config, org, use_l3=False)
        spec = workload("astar")
        gens = rate_mode_generators(spec, config)
        without = run_trace(machine, gens, spec, accesses_per_context=600,
                            instructions_per_event=4.0)
        assert with_l3.total_cycles < without.total_cycles

    def test_l3_writebacks_reach_memory(self):
        machine, _ = run_l3("baseline", "lbm", n=1200)
        # lbm is write-heavy; its dirty L3 victims must surface as writes.
        assert machine.org.offchip.stats.writes > 0

    def test_l3_mode_with_cameo(self):
        machine, result = run_l3("cameo", "sphinx3", n=800)
        assert result.total_cycles > 0
        machine.org.check_invariants()

    def test_fault_invalidates_l3_lines(self):
        # Force heavy overcommit so frames are reclaimed while cached.
        config = make_config(stacked_pages=4, num_contexts=2)
        org = build_organization("baseline", config)
        machine = Machine(config, org, use_l3=True)
        spec = workload("mcf")
        gens = rate_mode_generators(spec, config)
        result = run_trace(machine, gens, spec, accesses_per_context=500,
                           instructions_per_event=4.0)
        assert result.page_faults > 0
        # Sanity: every cached line belongs to a currently-resident frame.
        page_table = machine.memory_manager.page_table
        resident = {
            frame for frame in range(page_table.num_frames)
            if page_table.frame(frame).valid
        }
        for line in machine.l3._cache.resident_lines():
            assert line // config.lines_per_page in resident
