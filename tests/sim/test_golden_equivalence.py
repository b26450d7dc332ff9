"""Golden-seed equivalence: hot-path edits must not move a single byte.

Each committed fixture is the full ``RunResult`` JSON of one
(organization, workload) case from :mod:`tests.sim.golden_cases`, with
the L3 on or (``*_nol3.json``) off. An optimization that changes any
simulated outcome — latency, byte counts, swap decisions, predictor
behavior — fails here loudly instead of drifting silently.

When a *deliberate* model change shifts results, regenerate with::

    PYTHONPATH=src:. python tools/regen_golden_fixtures.py

and document the delta in CHANGES.md.
"""

import os

import pytest

from repro.sim.engine import engine_backends
from tests.sim.golden_cases import (
    fixture_path,
    golden_cases,
    golden_result_json,
    nol3_golden_cases,
)


def _assert_matches_fixture(org, workload_name, engine, use_l3):
    path = fixture_path(org, workload_name, use_l3)
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden fixture {path}; run "
            "PYTHONPATH=src:. python tools/regen_golden_fixtures.py"
        )
    with open(path) as fp:
        expected = fp.read()
    actual = golden_result_json(org, workload_name, engine=engine, use_l3=use_l3)
    assert actual == expected, (
        f"{org} on {workload_name} (L3 {'on' if use_l3 else 'off'}) diverged "
        f"from its golden fixture under the {engine!r} engine; if this is a "
        "deliberate model change, regenerate the fixtures and document the "
        "delta in CHANGES.md"
    )


@pytest.mark.parametrize("engine", engine_backends())
@pytest.mark.parametrize("org,workload_name", golden_cases())
def test_run_result_matches_committed_fixture(org, workload_name, engine):
    _assert_matches_fixture(org, workload_name, engine, use_l3=True)


@pytest.mark.parametrize("engine", engine_backends())
@pytest.mark.parametrize("org,workload_name", nol3_golden_cases())
def test_l3_off_run_matches_committed_fixture(org, workload_name, engine):
    """The paging path with no L3: the kernel serves these faults itself."""
    _assert_matches_fixture(org, workload_name, engine, use_l3=False)
