"""The compiled trace generator against the Python reference.

``SyntheticTraceGenerator.columns`` runs ``generate``'s draws in the
kernel (``rk_gen_synthetic``) on a mirror of the same MT19937 state;
every consumer of synthetic traces reads its arrays. These tests pin
byte identity with ``TraceColumns.from_records(generate(n))`` over the
Table II registry and the knob edges, the hot-page profile TLM-Oracle
builds from the columns, and the no-kernel path.
"""

import dataclasses
from collections import Counter

import pytest

from repro.experiments.common import profile_hot_vpages
from repro.sim import _kernel_build
from repro.sim._kernel_build import kernel_available, load_kernel
from repro.workloads.mixes import per_context_footprint_pages, rate_mode_generators
from repro.workloads.replay import TraceColumns
from repro.workloads.spec import WORKLOADS, workload
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace_cache import trace_cache_disabled

from tests.conftest import make_config

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)

#: Seeds, one of them past 32 bits (seeding stays in Python).
SEEDS = (0, 7, 2**40 + 5)
#: One page, a few pages, and a page past a power of two.
FOOTPRINTS = (1, 3, 257)
RECORDS = 3000

_MCF = workload("mcf")
#: The knob edges: every draw of the random branch's ``else`` arm (the
#: hot set is the footprint), single-record bursts on one line a page,
#: one-PC pools with a fractional skew, and a random-only stream.
EDGE_SPECS = (
    dataclasses.replace(_MCF, name="all-hot", hot_fraction=1.0),
    dataclasses.replace(
        _MCF, name="burst-1", burst_length=1, lines_used_per_page=1
    ),
    dataclasses.replace(
        _MCF, name="pool-1", pc_pool_hot=1, pc_pool_stream=1,
        pc_pool_random=1, hot_skew=3.7,
    ),
    dataclasses.replace(
        _MCF, name="random-only", hot_access_prob=0.0, stream_prob=0.0
    ),
)


def reference(gen, n):
    return TraceColumns.from_records(gen.generate(n))


def kernel_columns(gen, n):
    """The kernel's columns, failing (not falling back) if it declines."""
    columns = gen._kernel_columns(load_kernel(), n)
    assert columns is not None, "the kernel declined a range it mirrors"
    return columns


@needs_kernel
@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda spec: spec.name)
def test_kernel_columns_equal_generate_on_every_workload(spec):
    real = per_context_footprint_pages(spec, make_config(stacked_pages=64))
    for seed in SEEDS:
        for footprint in FOOTPRINTS + (real,):
            gen = SyntheticTraceGenerator(spec, footprint, seed=seed)
            assert kernel_columns(gen, RECORDS) == reference(gen, RECORDS), (
                spec.name, seed, footprint,
            )


@needs_kernel
@pytest.mark.parametrize("spec", EDGE_SPECS, ids=lambda spec: spec.name)
def test_kernel_columns_equal_generate_at_the_knob_edges(spec):
    for seed in SEEDS:
        for footprint in FOOTPRINTS + (5000,):
            gen = SyntheticTraceGenerator(spec, footprint, seed=seed)
            assert kernel_columns(gen, RECORDS) == reference(gen, RECORDS), (
                spec.name, seed, footprint,
            )


@needs_kernel
def test_columns_come_from_the_kernel_and_release_their_buffers():
    gen = SyntheticTraceGenerator(workload("lbm"), 300, seed=1)
    columns = gen.columns(500)
    assert columns == kernel_columns(gen, 500) == reference(gen, 500)
    columns.writes.append(0)  # BufferError if a ctypes export outlived the call


@needs_kernel
@pytest.mark.parametrize("footprint, burst", [(2**32, 12), (64, 2**33)])
def test_kernel_declines_ranges_past_32_bits(footprint, burst):
    """``randrange`` past 2**32 draws several words per call, which the
    mirror does not copy: those traces come from ``generate``."""
    spec = dataclasses.replace(workload("milc"), burst_length=burst)
    gen = SyntheticTraceGenerator(spec, footprint, seed=3)
    assert gen._kernel_columns(load_kernel(), 40) is None
    assert gen.columns(40) == reference(gen, 40)


def test_columns_of_an_empty_trace_raise_like_from_records():
    from repro.errors import WorkloadError

    gen = SyntheticTraceGenerator(workload("astar"), 16)
    with pytest.raises(WorkloadError):
        gen.columns(0)


def test_no_kernel_path_gives_identical_columns(monkeypatch):
    specs = (workload("GemsFDTD"), EDGE_SPECS[1])
    gens = [SyntheticTraceGenerator(spec, 257, seed=2**40 + 5) for spec in specs]
    expected = [gen.columns(RECORDS) for gen in gens]
    monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
    _kernel_build.reset_for_tests()
    try:
        assert load_kernel() is None
        assert [gen.columns(RECORDS) for gen in gens] == expected
        assert expected == [reference(gen, RECORDS) for gen in gens]
    finally:
        _kernel_build.reset_for_tests()  # Drop the memoized "disabled" state.


# -- TLM-Oracle's hot-page profile ---------------------------------------------

def tuple_loop_profile(spec, config, budget, n, seed):
    """The profile as a per-record loop over ``generate``: the reference."""
    counts = Counter()
    per_page = config.lines_per_page
    for ctx, gen in enumerate(rate_mode_generators(spec, config, base_seed=seed)):
        for line, _pc, _w in gen.generate(n):
            counts[(ctx, line // per_page)] += 1
    return frozenset(vpage for vpage, _ in counts.most_common(budget))


@pytest.mark.parametrize("name", ["mcf", "lbm", "milc", "astar"])
@pytest.mark.parametrize("cache", ["on", "off"])
def test_hot_set_from_columns_equals_the_tuple_loop(name, cache):
    config = make_config(stacked_pages=64)
    spec = workload(name)
    for seed in (0, 3):
        expected = tuple_loop_profile(spec, config, 64, 1500, seed)
        if cache == "off":
            with trace_cache_disabled():
                got = profile_hot_vpages(spec, config, 64, 1500, seed)
        else:
            got = profile_hot_vpages(spec, config, 64, 1500, seed)
        assert got == expected


def test_hot_set_keeps_first_seen_order_for_a_tie_at_the_cutoff():
    """Ties at the budget cutoff go to the page seen first, context by
    context: the merged per-context counts must keep that order."""
    config = make_config(stacked_pages=64)
    spec = workload("xalancbmk")
    counts = Counter()
    for ctx, gen in enumerate(rate_mode_generators(spec, config, base_seed=1)):
        for line, _pc, _w in gen.generate(1200):
            counts[(ctx, line // config.lines_per_page)] += 1
    ranked = [count for _, count in counts.most_common()]
    # Budgets whose cutoff splits a run of equal counts, with tied pages
    # on both sides of it.
    tied = [b for b in range(1, len(ranked)) if ranked[b - 1] == ranked[b]]
    assert tied, "no tie at any cutoff: pick another workload or length"
    for budget in tied[:5] + tied[-5:]:
        assert profile_hot_vpages(spec, config, budget, 1200, 1) == (
            tuple_loop_profile(spec, config, budget, 1200, 1)
        )
