"""The golden-seed equivalence corpus: cases + one canonical runner.

Both the regression test (``test_golden_equivalence.py``) and the
fixture regenerator (``tools/regen_golden_fixtures.py``) import this
module, so a fixture can only ever be produced by the exact recipe the
test replays.

The corpus pins the full :class:`~repro.sim.results.RunResult` JSON of
every organization on two workloads (plus paging-heavy extras) at small
N with the L3 enabled, and of every lowered organization on mcf with
the L3 off (``<org>_mcf_nol3.json``), where the compiled kernel serves
page faults itself — hot-path rewrites must leave every byte of it
unchanged.
"""

from __future__ import annotations

import os
from typing import List, Tuple

from repro.orgs.factory import build_organization, organization_names
from repro.sim.engine import run_trace
from repro.sim.export import result_to_json
from repro.sim.machine import Machine
from repro.workloads.mixes import rate_mode_generators
from repro.workloads.spec import workload

from tests.conftest import make_config

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Every org on a latency and a capacity workload...
GOLDEN_WORKLOADS = ("astar", "milc")
#: ...plus the paging/shootdown path (mcf over-commits the tiny memory)
#: on the designs with the most distinct eviction behavior, on the two
#: page-migrating designs, and on the three LLT storage designs, whose
#: faults interleave with line swaps.
EXTRA_CASES = (
    ("baseline", "mcf"), ("cameo", "mcf"), ("cache", "mcf"),
    ("tlm-dynamic", "mcf"), ("tlm-freq", "mcf"),
    ("cameo-ideal-llt", "mcf"), ("cameo-embedded-llt", "mcf"),
    ("cameo-sram-llt", "mcf"),
)

#: The L3-off paging path: with no L3 shootdown to drain, a fault in full
#: memory never leaves the compiled kernel, so these cases pin its clock
#: reclaim, SSD accounting and each org shape's page drain/fill streams.
NOL3_CASES = tuple(
    (org, "mcf")
    for org in (
        "baseline", "cameo", "cameo-ideal-llt", "cameo-embedded-llt",
        "cache", "doubleuse", "tlm-static", "tlm-oracle", "tlm-dynamic",
        "tlm-freq",
    )
)

ACCESSES_PER_CONTEXT = 300
NUM_CONTEXTS = 2
STACKED_PAGES = 16


def golden_cases() -> List[Tuple[str, str]]:
    """The (organization, workload) pairs the corpus covers."""
    cases = [
        (org, wl)
        for org in organization_names()
        for wl in GOLDEN_WORKLOADS
    ]
    cases.extend(EXTRA_CASES)
    return cases


def nol3_golden_cases() -> List[Tuple[str, str]]:
    """The (organization, workload) pairs the corpus runs with the L3 off."""
    return list(NOL3_CASES)


def corpus_cases() -> List[Tuple[str, str, bool]]:
    """Every fixture's (organization, workload, use_l3), L3-on cases first."""
    return [(org, wl, True) for org, wl in golden_cases()] + [
        (org, wl, False) for org, wl in nol3_golden_cases()
    ]


def fixture_path(org: str, workload_name: str, use_l3: bool = True) -> str:
    suffix = "" if use_l3 else "_nol3"
    return os.path.join(FIXTURE_DIR, f"{org}_{workload_name}{suffix}.json")


def golden_result_json(
    org_name: str, workload_name: str, engine=None, use_l3: bool = True
) -> str:
    """Run one corpus case and return its canonical JSON.

    ``engine`` picks the backend (``python``/``vector``); the default
    honours ``REPRO_ENGINE``. Every backend must produce the same bytes.
    """
    config = make_config(stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS)
    org = build_organization(org_name, config)
    machine = Machine(config, org, use_l3=use_l3)
    spec = workload(workload_name)
    generators = rate_mode_generators(spec, config)
    result = run_trace(
        machine, generators, spec, accesses_per_context=ACCESSES_PER_CONTEXT,
        engine=engine,
    )
    return result_to_json(result) + "\n"
