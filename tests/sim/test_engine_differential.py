"""Seeded differential test: the compiled kernel against the python loop.

The golden corpus pins a few dozen fixed cases at one geometry. This
test draws many more from stdlib ``random``, one seeded PRNG per case:
the organization and its parameters, the geometry, the workload mix
(over-committing capacity inputs included), the trace length down to a
single access, the warmup fraction at its edges, the L3, and whether the
run pretouches its footprint. Each case runs on both engines from
scratch and must produce the same result JSON byte for byte, with the
kernel engaged exactly once on the vector run. The JSON carries only a
digest of some counters (a device's row-hit rate, not its closed and
conflict counts), so every statistic the two engines sync is compared
too, field by field (:func:`synced_state`).

Coverage: one extra case per drawn org runs pretouched mcf with the L3
off — memory over-committed and full — and the test demands that every
org has such a case whose faults the kernel served without one fault
bail, and that some L3-off case still takes the fault bail the kernel
keeps for a free frame (left by a run without pretouch).

A failure names its seed. ``draw_case(seed)`` rebuilds the case for a
debugger; pin it as a golden fixture once it is understood.

The drawn geometries keep every divisor the kernel's hot path uses a
power of two, which it serves with shifts and masks. Two fixed
geometries reach its ``/`` and ``%`` path instead: the six-workload mix
``repro mix`` runs (whose stacked device has 3 channels), and a small
machine with 3 channels, 6 banks, 24-line rows, 24 L3 sets and
100-entry predictor tables.
"""

import dataclasses
import json
import random

import pytest

from repro.config.system import L3Config, scaled_paper_system
from repro.config.timing import paper_offchip_timing, paper_stacked_timing
from repro.core.llp import LastLocationPredictor
from repro.orgs.alloy import MapIPredictor
from repro.orgs.factory import build_organization
from repro.sim import engine_vector
from repro.sim._kernel_build import kernel_available
from repro.sim.engine import run_trace
from repro.sim.export import result_to_json
from repro.sim.machine import Machine
from repro.workloads.mixes import mixed_generators, rate_mode_generators
from repro.workloads.replay import ReplayTraceSource
from repro.workloads.spec import workload, workload_names

from tests.conftest import make_config

#: Cases per tier-1 run (about 35 ms each, most of it the python loop).
CASES = 200

#: Share of the random cases that skip pretouch, so faults with free
#: frames left (which bail to Python) stay covered.
NO_PRETOUCH_SHARE = 0.15

#: Every org the kernel serves: the paper grid's, plus the SRAM strawman
#: that lowers through the Ideal-LLT design.
DRAWN_ORGS = engine_vector.LOWERED_ORG_NAMES + ("cameo-sram-llt",)

WARMUP_FRACTIONS = (0.0, 0.01, 0.25, 0.99)


def _org_kwargs(rng, org_name, n_contexts, footprint_pages):
    if org_name == "tlm-oracle":
        pages = [(asid, vpage) for asid in range(n_contexts)
                 for vpage in range(footprint_pages)]
        return {"hot_vpages": frozenset(
            rng.sample(pages, rng.randint(0, len(pages)))
        )}
    if org_name == "tlm-dynamic":
        return {"migration_threshold": rng.choice((1, 2, 4))}
    if org_name == "tlm-freq":
        return {
            "epoch_accesses": rng.choice((1, 7, 50, 300)),
            "max_migrations_per_epoch": rng.choice((1, 4, 64)),
            "hysteresis": rng.choice((1.0, 2.0)),
            "min_promote_count": rng.choice((0, 2, 24)),
        }
    if org_name.startswith("cameo"):
        return {"swap_on_write": rng.random() < 0.8}
    return {}


def draw_case(seed, org=None):
    """The case for ``seed``: everything needed to build and run it.

    ``org`` makes it a coverage case for that organization: pretouched
    mcf on every context with the L3 off, 400 accesses per context with
    the default warmup, so memory is over-committed and full from the
    start and every measured fault can stay in the kernel.
    """
    rng = random.Random(seed)
    n_contexts = rng.randint(1, 4)
    names = workload_names()
    if rng.random() < 0.5:
        workloads = [rng.choice(names)]
    else:
        workloads = [rng.choice(names) for _ in range(n_contexts)]
    case = {
        "seed": seed,
        "org": rng.choice(DRAWN_ORGS),
        "group_size": rng.choice((2, 4, 8)),
        "stacked_pages": rng.choice((4, 8, 16, 32)),
        "contexts": n_contexts,
        "workloads": workloads,
        "accesses": rng.choice(
            (1, rng.randint(2, 60), rng.randint(61, 600), rng.randint(601, 1000))
        ),
        "warmup_fraction": rng.choice(WARMUP_FRACTIONS),
        "use_l3": rng.random() < 0.75,
        # Replay a prefix of each generated trace, wrapping when shorter
        # than the run (None: hand the engines the live generators).
        "replay_records": rng.choice((None, None, rng.randint(1, 200))),
    }
    if org is not None:
        case.update(
            org=org, workloads=["mcf"], accesses=400, warmup_fraction=0.25,
            use_l3=False, replay_records=None,
        )
    config = _config(case)
    footprint = max(
        gen.footprint_pages for gen in _generators(case, config, replay=False)
    )
    case["org_kwargs"] = _org_kwargs(rng, case["org"], n_contexts, footprint)
    case["pretouch"] = org is not None or rng.random() >= NO_PRETOUCH_SHARE
    return case


def _config(case):
    return make_config(
        stacked_pages=case["stacked_pages"],
        group_size=case["group_size"],
        num_contexts=case["contexts"],
    )


def _specs(case):
    return [workload(name) for name in case["workloads"]]


def _generators(case, config, replay=True):
    specs = _specs(case)
    if len(specs) == 1:
        generators = rate_mode_generators(specs[0], config)
    else:
        generators = mixed_generators(specs, config)
    if replay and case["replay_records"] is not None:
        generators = [
            ReplayTraceSource.from_raw(
                list(gen.generate(case["replay_records"])),
                lines_per_page=config.lines_per_page,
                footprint_pages=gen.footprint_pages,
            )
            for gen in generators
        ]
    return generators


def synced_state(machine):
    """Every statistic the kernel syncs back, as ``{"object.field": value}``.

    Each device's :class:`DramStats`, the org's stats and LLP case
    stats, Alloy's stats and MAP-I's tallies, and the VM, SSD and L3
    stats: after a run the two engines must leave all of them equal.
    """
    org = machine.org
    objects = {f"dram[{name}]": dev.stats for name, dev in org.devices().items()}
    objects["org"] = org.stats
    objects["vm"] = machine.memory_manager.stats
    objects["ssd"] = machine.ssd.stats
    for name in ("case_stats", "alloy_stats"):
        if hasattr(org, name):
            objects[name] = getattr(org, name)
    if machine.l3 is not None:
        objects["l3"] = machine.l3.stats
    state = {
        f"{name}.{field}": value
        for name, stats in objects.items()
        for field, value in dataclasses.asdict(stats).items()
    }
    if isinstance(getattr(org, "predictor", None), MapIPredictor):
        state["mapi.predictions"] = org.predictor.predictions
        state["mapi.correct"] = org.predictor.correct
    return state


def diverging_fields(actual, expected):
    """The fields of two :func:`synced_state` dicts that differ."""
    return sorted(
        (name, actual.get(name), expected.get(name))
        for name in actual.keys() | expected.keys()
        if actual.get(name) != expected.get(name)
    )


def run_drawn_case(case, engine):
    """Run ``case`` on ``engine`` from a fresh machine: (result JSON,
    :func:`synced_state`)."""
    config = _config(case)
    org = build_organization(case["org"], config, **case["org_kwargs"])
    machine = Machine(config, org, use_l3=case["use_l3"])
    specs = _specs(case)
    result = run_trace(
        machine, _generators(case, config),
        specs[0] if len(specs) == 1 else specs,
        accesses_per_context=case["accesses"],
        warmup_fraction=case["warmup_fraction"],
        pretouch=case["pretouch"],
        engine=engine,
    )
    return result_to_json(result), synced_state(machine)


def _drawn_cases():
    """The random cases, then one coverage case per drawn org."""
    for seed in range(CASES):
        yield draw_case(seed)
    for i, org in enumerate(DRAWN_ORGS):
        yield draw_case(CASES + i, org=org)


@pytest.mark.skipif(not kernel_available(), reason="no C compiler / kernel unavailable")
def test_kernel_matches_python_loop_on_seeded_random_cases():
    served_in_kernel = set()  # orgs with a full-memory case the kernel paged
    free_frame_bails = 0  # L3 off: a fault bails only while a frame is free
    for case in _drawn_cases():
        seed = case["seed"]
        try:
            expected, expected_state = run_drawn_case(case, "python")
            engine_vector.reset_backend_stats()
            actual, actual_state = run_drawn_case(case, "vector")
        except Exception as exc:
            pytest.fail(f"seed {seed} raised {exc!r}; case {case}")
        stats = engine_vector.backend_stats
        assert stats["kernel_runs"] == 1 and stats["fallbacks"] == 0, (
            f"seed {seed}: kernel did not serve the run "
            f"({stats['last_fallback_reason']}); case {case}"
        )
        assert actual == expected, f"seed {seed}: engines diverge; case {case}"
        assert diverging_fields(actual_state, expected_state) == [], (
            f"seed {seed}: synced stats diverge (field, vector, python); "
            f"case {case}"
        )
        if case["use_l3"]:
            continue
        free_frame_bails += stats["bails"]["fault"]
        if (
            case["pretouch"] and stats["bails"]["fault"] == 0
            and json.loads(actual)["page_faults"] > 0
        ):
            served_in_kernel.add(case["org"])
    missing = [org for org in DRAWN_ORGS if org not in served_in_kernel]
    assert not missing, (
        f"no L3-off, over-committed case had its faults served in the "
        f"kernel for {missing}"
    )
    assert free_frame_bails > 0, "no L3-off case faulted with a frame still free"


#: One workload per context of ``scaled_paper_system(num_contexts=6)``.
SIX_WORKLOAD_MIX = ("mcf", "lbm", "milc", "astar", "GemsFDTD", "sphinx3")


def _odd_timing(timing):
    """``timing`` with 3 channels, 6 banks and 1,536-byte (24-line) rows."""
    return dataclasses.replace(
        timing, channels=3, banks_per_channel=6, row_buffer_bytes=1536
    )


def _odd_geometry_config():
    return make_config(
        stacked_pages=16,
        stacked_timing=_odd_timing(paper_stacked_timing()),
        offchip_timing=_odd_timing(paper_offchip_timing()),
        l3=L3Config(capacity_bytes=24 * 1024, ways=16, latency_cycles=24),
    )


def _build_with_odd_tables(org_name, config):
    """The org with 100-entry LLP and MAP-I tables where it has one."""
    if org_name == "cameo":
        return build_organization(
            org_name, config, predictor=LastLocationPredictor(entries=100)
        )
    org = build_organization(org_name, config)
    if org_name in ("cache", "doubleuse"):
        org.predictor = MapIPredictor(entries=100)
    return org


def _run_geometry_case(org_name, config, specs, use_l3, engine):
    machine = Machine(config, _build_with_odd_tables(org_name, config), use_l3=use_l3)
    if len(specs) == 1:
        generators = rate_mode_generators(specs[0], config)
    else:
        generators = mixed_generators(specs, config)
    result = run_trace(
        machine, generators, specs[0] if len(specs) == 1 else specs,
        accesses_per_context=300, engine=engine,
    )
    return result_to_json(result), synced_state(machine)


def _geometry_case(name):
    """(config, specs, use_l3) of one fixed geometry case."""
    if name == "six-workload-mix":
        mix = [workload(w) for w in SIX_WORKLOAD_MIX]
        return scaled_paper_system(num_contexts=6), mix, False
    return _odd_geometry_config(), [workload("mcf")], name.endswith("l3-on")


@pytest.mark.skipif(not kernel_available(), reason="no C compiler / kernel unavailable")
@pytest.mark.parametrize(
    "name", ["six-workload-mix", "odd-geometry-l3-on", "odd-geometry-l3-off"]
)
def test_kernel_matches_python_loop_off_power_of_two_geometry(name):
    config, specs, use_l3 = _geometry_case(name)
    assert config.stacked_timing.channels == 3
    for org_name in engine_vector.LOWERED_ORG_NAMES:
        expected, expected_state = _run_geometry_case(
            org_name, config, specs, use_l3, "python"
        )
        engine_vector.reset_backend_stats()
        actual, actual_state = _run_geometry_case(
            org_name, config, specs, use_l3, "vector"
        )
        stats = engine_vector.backend_stats
        assert stats["kernel_runs"] == 1 and stats["fallbacks"] == 0, (
            f"{name}: kernel did not serve {org_name} "
            f"({stats['last_fallback_reason']})"
        )
        assert actual == expected, f"{name}: engines diverge on {org_name}"
        assert diverging_fields(actual_state, expected_state) == [], (
            f"{name}: synced stats diverge on {org_name}"
        )


#: TLM-Freq cases whose epochs see many equal counts: a short epoch,
#: every off-chip frame a candidate, and a budget wide enough to reach
#: the ties. The kernel's hot and cold lists must break them as the
#: python loop's stable sorts do (frame ascending), on an input that
#: fits memory and on one that over-commits it.
TIE_WORKLOADS = {"fitting": "sphinx3", "over-committed": "mcf"}


@pytest.mark.skipif(not kernel_available(), reason="no C compiler / kernel unavailable")
@pytest.mark.parametrize("epoch_accesses, max_migrations", [(8, 16), (50, 64)])
@pytest.mark.parametrize("memory", sorted(TIE_WORKLOADS))
def test_kernel_matches_python_loop_on_tlm_freq_ties(
    memory, epoch_accesses, max_migrations
):
    case = {
        "seed": None, "org": "tlm-freq", "group_size": 4, "stacked_pages": 16,
        "contexts": 2, "workloads": [TIE_WORKLOADS[memory]], "accesses": 600,
        "warmup_fraction": 0.25, "use_l3": False, "replay_records": None,
        "pretouch": True,
        "org_kwargs": {
            "epoch_accesses": epoch_accesses,
            "max_migrations_per_epoch": max_migrations,
            "hysteresis": 1.0,
            "min_promote_count": 0,
        },
    }
    expected, expected_state = run_drawn_case(case, "python")
    engine_vector.reset_backend_stats()
    actual, actual_state = run_drawn_case(case, "vector")
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1 and stats["fallbacks"] == 0
    assert actual == expected
    assert diverging_fields(actual_state, expected_state) == []
    result = json.loads(actual)
    assert result["page_migrations"] > 0
    assert (result["page_faults"] > 0) == (memory == "over-committed")
