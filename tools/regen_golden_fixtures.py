#!/usr/bin/env python
"""Regenerate the golden-seed equivalence fixtures.

Usage (from the repo root)::

    PYTHONPATH=src:. python tools/regen_golden_fixtures.py

Rewrites every fixture under ``tests/sim/golden/`` using the canonical
recipe in :mod:`tests.sim.golden_cases` — the same module the
equivalence test replays, so test and fixtures cannot drift apart.
Review the diff before committing: a changed fixture is a changed
simulation result and must be justified in CHANGES.md.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from tests.sim.golden_cases import (  # noqa: E402
    FIXTURE_DIR,
    corpus_cases,
    fixture_path,
    golden_result_json,
)


def main() -> int:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    changed = 0
    cases = corpus_cases()
    for org, workload_name, use_l3 in cases:
        path = fixture_path(org, workload_name, use_l3)
        payload = golden_result_json(org, workload_name, use_l3=use_l3)
        previous = None
        if os.path.exists(path):
            with open(path) as fp:
                previous = fp.read()
        if payload != previous:
            with open(path, "w") as fp:
                fp.write(payload)
            changed += 1
            status = "wrote" if previous is None else "UPDATED"
        else:
            status = "unchanged"
        print(f"{status:>9s}  {os.path.relpath(path, REPO_ROOT)}")
    print(f"{changed} fixture(s) changed, "
          f"{len(cases) - changed} unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
