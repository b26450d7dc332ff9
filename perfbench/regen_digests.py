"""Regenerate the reference digests with the python reference loop.

Every cell of every workload is simulated with ``REPRO_ENGINE=python``
and the sha256 of its ``result_to_json`` export is written under the
cell's label::

    python3 perfbench/regen_digests.py 0 1        # rewrite digests/seed-0.json, seed-1.json
    python3 perfbench/regen_digests.py $(seq 0 15)  # every input seed (~12 min)

Run it from the repository root. The committed files must only change
when a change to the simulator is meant to change its results.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

from common import (
    BUILD_DIR,
    CELL_ACCESSES,
    INPUT_SEEDS,
    SRC,
    WORKLOADS,
    BenchError,
    cell_sweep,
    digest_path,
    hermetic_env,
    job_label,
    planned_experiments,
    result_digest,
    write_digests,
)


def reference_digests(seed: int) -> dict:
    """label -> digest for every cell every workload runs at ``seed``."""
    from repro.sim.engine import default_engine_backend
    from repro.sim.runner import run_workload

    if default_engine_backend() != "python":
        raise BenchError("reference digests must come from REPRO_ENGINE=python")
    cells = {}
    for name in WORKLOADS:
        if name == "paper-grid":
            for experiment in planned_experiments(seed):
                for job in experiment.jobs:
                    label = job_label(job, experiment.name)
                    if label not in cells:
                        cells[label] = result_digest(run_workload(
                            job.organization, job.workload, config=job.config,
                            accesses_per_context=job.accesses_per_context,
                            seed=job.seed, use_l3=job.use_l3,
                            org_kwargs=job.org_kwargs, fault_config=job.fault_config,
                        ))
        else:
            for cell in cell_sweep(name, seed):
                if cell.label not in cells:
                    cells[cell.label] = result_digest(run_workload(
                        cell.org, cell.spec, accesses_per_context=CELL_ACCESSES,
                        seed=cell.seed,
                    ))
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, choices=range(INPUT_SEEDS),
                        metavar="seed", help=f"input seeds (0-{INPUT_SEEDS - 1})")
    args = parser.parse_args(argv)
    os.makedirs(BUILD_DIR, exist_ok=True)
    private = tempfile.mkdtemp(prefix="regen-", dir=BUILD_DIR)
    try:
        os.environ.clear()
        os.environ.update(hermetic_env(private, engine="python"))
        sys.path.insert(0, SRC)
        for seed in args.seeds:
            cells = reference_digests(seed)
            write_digests(digest_path(seed), seed, cells)
            print(f"seed {seed}: {len(cells)} cell digests", file=sys.stderr)
    finally:
        shutil.rmtree(private, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
