"""What the benchmark runs, how its cells are labelled, and how it checks them.

Shared by the launcher (``run.py``), the measuring process
(``measure.py``) and the digest regenerator (``regen_digests.py``). This
module imports nothing from ``repro`` at import time, so the launcher can
validate its arguments and the reference digests before the simulator
is even importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGEST_DIR = os.path.join(HERE, "digests")
#: Scratch space inside the checkout (git-ignored): private per-run
#: caches and span dumps.
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: Input seeds 0..INPUT_SEEDS-1 have committed python-reference digests.
#: ``--seed n`` runs input seed ``n % INPUT_SEEDS``, so every run is
#: checked against committed digests and none spends its time budget
#: running the python reference loop (10-30 s a workload).
INPUT_SEEDS = 16

#: The nine paper organizations the compiled kernel serves.
LOWERED_PAPER_ORGS = (
    "baseline", "cache", "cameo", "cameo-sam", "cameo-perfect",
    "doubleuse", "tlm-static", "tlm-dynamic", "tlm-freq",
)

#: Inputs of the cell workloads in sweep order: (SPEC input, offset of
#: its input seed from the run's). A sweep runs every org on every entry.
#: ``cell-capacity`` lists mcf three times: its cell times fall into three
#: clusters (GemsFDTD/bwaves on non-migrating orgs ~20-45 ms, the other
#: faulting cells ~60-150 ms, tlm-dynamic/tlm-freq x mcf ~600 ms). With
#: one mcf row the median sat on the edge of the first cluster and p90 in
#: the gap below the last; weighting mcf 3:1:1 puts p50 mid-way into the
#: middle cluster and p90 a quarter of the way into the last one (6 of 45
#: cells). The slow cluster's times depend on the trace: over ten seeds
#: p90 spread 0.11, against 0.04 over five runs of one seed, so the three
#: mcf rows replay three seeds' traces.
CELL_MIXES = {
    "cell-latency": tuple((spec, 0) for spec in (
        "sphinx3", "milc", "gcc", "soplex", "libquantum", "omnetpp")),
    "cell-capacity": (("mcf", 0), ("GemsFDTD", 0), ("mcf", 1), ("bwaves", 0), ("mcf", 2)),
}
#: Set-up runs every org once on this input, paying each org's first-call
#: costs before timing starts (a short-running input keeps set-up short).
WARMUP_INPUT = {"cell-latency": "sphinx3", "cell-capacity": "GemsFDTD"}
CELL_ACCESSES = 6000
GRID_ACCESSES = 3000
GRID_WORKERS = 2
WORKLOADS = ("cell-latency", "cell-capacity", "paper-grid")

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Environment knobs cleared for every run so an operator's shell
#: cannot redirect dispatch, inject faults, resize traces or disable the
#: kernel behind the benchmark's back.
CLEARED_ENV = (
    "REPRO_DISPATCH", "REPRO_ENDPOINTS", "REPRO_INJECT_WORKER_FAULTS",
    "REPRO_ACCESSES_PER_CONTEXT", "REPRO_NO_KERNEL", "REPRO_INCIDENT_JOURNAL",
)


#: Host-speed reference: a fixed pure-Python loop and the time it takes
#: on an uncontended core of the baseline host (2.1 GHz x86-64 VM). On
#: that shared VM the same loop drifted from 20 to 50 ms per 300k
#: iterations within two minutes and simulator cells drifted with it:
#: over six 30 s windows the median cell time ranged 15%, while cell time
#: scaled by the loop's running median (sampled every few cells) ranged
#: 3%. Every host-time metric is therefore reported at reference speed.
REFERENCE_LOOP_ITERATIONS = 20_000
REFERENCE_LOOP_S = 1.3e-3
#: Loop samples in the running median behind the current speed factor.
SPEED_WINDOW = 7


class BenchError(Exception):
    """A benchmark run that cannot produce a trustworthy result."""


def hermetic_env(private_dir: str, engine: str = "vector") -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    Every cache the simulator could touch, and the temporary files of
    the C compiler and of Python's ``tempfile``, point into
    ``private_dir``, so a run never reads or writes ``~/.cache/repro``
    or ``/tmp``.
    """
    tmp = os.path.join(private_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(
        TMPDIR=tmp,
        REPRO_KERNEL_CACHE=os.path.join(private_dir, "kernel"),
        REPRO_TRACE_CACHE_DIR=os.path.join(private_dir, "traces"),
        REPRO_RESULT_CACHE_DIR=os.path.join(private_dir, "results"),
        REPRO_ENGINE=engine,
        REPRO_TRACE_CACHE="memory",
        REPRO_RESULT_CACHE="off",
        PYTHONPATH=SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""),
    )
    return env


# -- Cell labels and digests ----------------------------------------------------


def cell_label(org: str, spec: str, seed: int, accesses: int,
               experiment: Optional[str] = None) -> str:
    """The benchmark's own key for one cell.

    ``experiment`` is set only for cells whose org carries
    ``org_kwargs`` (the tlm-oracle hot-page profiles), which depend on
    the experiment that requested them.
    """
    label = f"{org}/{spec}/s{seed}/n{accesses}"
    return f"{label}@{experiment}" if experiment else label


def job_label(job, experiment: str) -> str:
    """:func:`cell_label` of one grid ``SimJob``."""
    return cell_label(
        job.organization, job.workload_name, job.seed,
        job.accesses_per_context, experiment if job.org_kwargs else None,
    )


class SweepCell(NamedTuple):
    """One cell of a cell-workload sweep."""

    label: str
    org: str
    spec: str
    seed: int


def cell_sweep(workload: str, seed: int) -> List[SweepCell]:
    """Every cell of one sweep at input seed ``seed``, in run order."""
    cells = []
    for spec, offset in CELL_MIXES[workload]:
        cell_seed = input_seed(seed + offset)
        cells.extend(
            SweepCell(cell_label(org, spec, cell_seed, CELL_ACCESSES), org, spec, cell_seed)
            for org in LOWERED_PAPER_ORGS
        )
    return cells


def planned_experiments(seed: int) -> list:
    """The paper grid's declared experiments (imports ``repro``)."""
    from repro.experiments import PAPER_PLANNERS

    return [
        planner(accesses_per_context=GRID_ACCESSES, seed=seed)
        for planner in PAPER_PLANNERS.values()
    ]


def grid_labels(planned: Sequence) -> List[str]:
    """One label per requested grid cell, in execution order."""
    return [job_label(job, exp.name) for exp in planned for job in exp.jobs]


def result_digest(result) -> str:
    """sha256 of the cell's exported JSON: the identity the check compares."""
    from repro.sim.export import result_to_json

    return hashlib.sha256(result_to_json(result).encode("utf-8")).hexdigest()


def input_seed(seed: int) -> int:
    """The input seed a run's ``--seed`` selects (see INPUT_SEEDS)."""
    return seed % INPUT_SEEDS


def digest_path(seed: int) -> str:
    return os.path.join(DIGEST_DIR, f"seed-{seed}.json")


def load_digests(path: str) -> Dict[str, str]:
    """label -> digest from one digest file; raises BenchError if unusable."""
    try:
        with open(path) as fp:
            payload = json.load(fp)
    except (OSError, ValueError) as exc:
        raise BenchError(f"unreadable reference digests {path}: {exc}") from exc
    cells = payload.get("cells") if isinstance(payload, dict) else None
    if not isinstance(cells, dict) or not cells:
        raise BenchError(f"{path} holds no cell digests")
    return cells


def write_digests(path: str, seed: int, cells: Dict[str, str]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fp:
        json.dump({"seed": seed, "engine": "python", "cells": dict(sorted(cells.items()))},
                  fp, indent=0, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, path)


class DigestCheck:
    """Counts attempted and failed cells against the reference digests.

    A cell fails when it raised, when its outcome was not ok, or when
    its digest differs from the reference. A label with no reference
    digest is an error, never a skipped check.
    """

    def __init__(self, reference: Dict[str, str]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, label: str, result) -> bool:
        expected = self.reference.get(label)
        if expected is None:
            raise BenchError(f"no reference digest for cell {label}")
        if result_digest(result) != expected:
            self.fail(label, "digest differs from the python reference")
            return False
        self.attempted += 1
        return True

    def fail(self, label: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")


# -- Statistics -----------------------------------------------------------------


class Speedometer:
    """The host's current speed, from the reference loop sampled between measurements.

    ``factor()`` turns a host time measured now into reference-speed
    time: REFERENCE_LOOP_S / (running median of the last SPEED_WINDOW
    loop times). It is below 1 when the host runs slower than the
    reference.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.last_sampled = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            total = 0
            for i in range(REFERENCE_LOOP_ITERATIONS):
                total += i * i % 7
            self.last_sampled = time.perf_counter()
            self.samples.append(self.last_sampled - start)

    def factor(self, last: int = SPEED_WINDOW) -> float:
        return REFERENCE_LOOP_S / statistics.median(self.samples[-last:])

    def overall(self) -> float:
        """The factor over every sample taken so far."""
        return self.factor(len(self.samples))


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def metric_units(trace: int) -> Dict[str, str]:
    """name -> unit of the metrics a timed (0) or traced (1) run prints."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark_spec()[key]}


def at_reference_speed(metrics: Dict[str, float], units: Dict[str, str],
                       factor: float) -> Dict[str, float]:
    """Host times (s, ms, ns) and rates (x/s) rescaled by a speed factor."""
    scaled = {}
    for name, value in metrics.items():
        unit = units[name]
        if unit in ("s", "ms", "ns"):
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        scaled[name] = value
    return scaled


def percentile(samples: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, refusing one with too few samples beyond it."""
    values = sorted(samples)
    beyond = len(values) - math.ceil(len(values) * pct / 100)
    if pct > 50 and beyond < MIN_TAIL_SAMPLES:
        raise BenchError(
            f"p{pct} of {len(values)} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES}); run longer"
        )
    if not values:
        raise BenchError("no samples")
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
