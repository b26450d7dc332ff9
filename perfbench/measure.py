"""The measuring process: one workload, one seed, timed or traced.

Started by ``run.py`` with a hermetic environment (private caches,
``REPRO_ENGINE=vector``); not meant to be run by hand. It writes one
JSON document to ``--out``:

* ``ready`` — ``time.monotonic()`` when setup ended and the first timed
  operation began, and ``setup_factor``, the host-speed factor right
  after it (``run.py`` turns both into ``setup_s``);
* ``metrics`` — end-to-end metrics (timed run) or per-layer metrics
  (traced run, ``--trace 1``), host times at reference speed (see
  ``common.Speedometer``), and ``raw_metrics``, the same unscaled;
* ``attempted``/``failed``/``failures`` — the exact-result check.

Every cell result is checked against the python-reference digests after
its timer stops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

from common import (
    CELL_ACCESSES,
    CELL_MIXES,
    GRID_ACCESSES,
    GRID_WORKERS,
    WARMUP_INPUT,
    BenchError,
    DigestCheck,
    Speedometer,
    at_reference_speed,
    cell_sweep,
    grid_labels,
    load_digests,
    metric_units,
    percentile,
    planned_experiments,
)
from tracing import Tracer, engine_of_result, engine_since, engine_snapshot

#: Store-served passes after each cold pass on paper-grid, and the fewest
#: cold passes a run makes: at least 15 store-served passes a run. One
#: ~0.2 s pass swings ~17% between processes; the median of 15, each
#: after gc.collect(), holds within a few percent.
WARM_PASSES = 5
MIN_COLD_PASSES = 3
#: Traced cell runs alternate untraced and traced sweeps; at least this
#: many traced sweeps, so every p90 has ten samples beyond it.
MIN_TRACED_SWEEPS = 3
#: The reference loop runs before a cell when this long has passed since
#: it last ran (~2% of a sweep), so the running median of its last 7
#: times spans well under a second on every workload.
SPEED_PERIOD_S = 0.1

#: Per-layer metrics a workload's layers never reach read 0 there.
CELL_ONLY = (
    "workloads.sources_ms.p50", "orgs.build_ms.p50", "orgs.build_ms.p90",
    "vm.machine_ms.p50", "vm.pretouch_ms.p50", "vm.pretouch_ms.p90",
    "engine.run_trace_ms.p50", "engine.run_trace_ms.p90", "engine.ns_per_access",
)
GRID_ONLY = (
    "plan.build_s", "plan.assemble_ms", "workloads.warm_s",
    "dispatch.utilization", "dispatch.overhead_ms.p50", "dispatch.overhead_ms.p90",
    "dispatch.cells_executed", "dispatch.cells_served", "dispatch.retries",
    "dispatch.respawns", "result_store.fingerprint_ms.p50", "result_store.put_ms.p50",
    "result_store.get_ms.p50", "result_store.hits", "result_store.misses",
)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_kernel_timed() -> float:
    from repro.sim._kernel_build import load_error, load_kernel

    start = time.perf_counter()
    if load_kernel() is None:
        raise BenchError(f"compiled kernel unavailable: {load_error()}")
    return time.perf_counter() - start


def another_round(deadline: float, last_round_s: float) -> bool:
    """Whether one more round like the last ends nearer the deadline than stopping now.

    Runs are measured in whole rounds (a sweep, or a cold pass and its
    store-served passes) of up to several seconds; this ends a run
    within half a round of ``--seconds`` instead of up to a round past it.
    """
    return time.perf_counter() + last_round_s / 2 < deadline


def num_contexts() -> int:
    from repro.config.system import scaled_paper_system

    return scaled_paper_system().num_contexts


def end_to_end(cells, cold, warm, accesses_per_cell: int) -> dict:
    """The end-to-end metrics from per-cell seconds and pass walls."""
    ms = [t * 1e3 for t in cells]
    return {
        "cell_ms.p50": percentile(ms, 50),
        "cell_ms.p90": percentile(ms, 90),
        "sim_acc_per_s": len(cells) * accesses_per_cell / sum(cells),
        "grid_s": statistics.median(cold),
        "rerun_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb(),
    }


class Cell(NamedTuple):
    """One returned cell of a sweep; results are checked after timing."""

    label: str
    result: object
    extra: object
    seconds: float
    scaled: float


class Samples:
    """Raw and reference-speed copies of one series of host times."""

    def __init__(self) -> None:
        self.raw, self.scaled = [], []

    def add(self, seconds: float, factor: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)


def metrics_pair(cells: Samples, cold: Samples, warm: Samples, per_cell: int):
    """(metrics at reference speed, raw metrics)."""
    return (end_to_end(cells.scaled, cold.scaled, warm.scaled, per_cell),
            end_to_end(cells.raw, cold.raw, warm.raw, per_cell))


# -- Cell workloads ---------------------------------------------------------------


class CellBench:
    """cell-latency / cell-capacity: closed loop of in-process run_workload calls."""

    def __init__(self, workload: str, seed: int, check: DigestCheck, speed: Speedometer):
        self.workload = workload
        self.check = check
        self.speed = speed
        self.sweep = cell_sweep(workload, seed)
        self.layers = {}

    def setup(self) -> None:
        from repro.workloads.trace_cache import default_trace_cache

        self.layers["kernel.load_s"] = load_kernel_timed()
        cache = default_trace_cache()
        misses = cache.stats.misses
        start = time.perf_counter()
        self.materialize()
        self.layers["workloads.generate_s"] = time.perf_counter() - start
        self.layers["workloads.traces_generated"] = cache.stats.misses - misses
        warmup = [cell for cell in self.sweep if cell.spec == WARMUP_INPUT[self.workload]]
        self.run_sweep(list(dict.fromkeys(warmup)), self.run_cell)

    def materialize(self) -> None:
        """Put the traces of every input of the mix into the trace cache."""
        from repro.config.system import scaled_paper_system
        from repro.workloads.spec import workload
        from repro.workloads.trace_cache import materialized_rate_mode_sources

        config = scaled_paper_system()
        for spec, seed in dict.fromkeys((cell.spec, cell.seed) for cell in self.sweep):
            materialized_rate_mode_sources(workload(spec), config, seed, CELL_ACCESSES)

    def run_cell(self, cell):
        from repro.sim.runner import run_workload

        return run_workload(cell.org, cell.spec, accesses_per_context=CELL_ACCESSES,
                            seed=cell.seed), None

    def run_sweep(self, cells, cell_fn, cold: bool = False):
        """Run one sweep: (a Cell per cell that returned, (raw wall, scaled wall)).

        ``cell_fn(cell)`` returns (result, extra) for a ``SweepCell``. A cold
        sweep first empties the trace cache and materializes every
        input's traces again, inside the sweep's wall but outside any
        cell, so every cell of every sweep runs on cached traces.
        """
        from repro.workloads.trace_cache import clear_default_trace_cache

        gc.collect()
        done, wall, scaled = [], 0.0, 0.0
        if cold:
            clear_default_trace_cache()
            start = time.perf_counter()
            self.materialize()
            wall = time.perf_counter() - start
            scaled = wall * self.speed.factor()
        for cell in cells:
            if time.perf_counter() - self.speed.last_sampled >= SPEED_PERIOD_S:
                self.speed.sample()
            factor = self.speed.factor()
            start = time.perf_counter()
            try:
                result, extra = cell_fn(cell)
            except Exception as exc:  # A failed cell is counted, not fatal.
                self.check.fail(cell.label, f"{type(exc).__name__}: {exc}")
                result = None
            seconds = time.perf_counter() - start
            wall += seconds
            scaled += seconds * factor
            if result is not None:
                done.append(Cell(cell.label, result, extra, seconds, seconds * factor))
        for cell in done:
            self.check.check(cell.label, cell.result)
        return done, (wall, scaled)

    def timed(self, seconds: float):
        """Alternate cold and warm sweeps; every returned cell is a sample."""
        deadline = time.perf_counter() + seconds
        cold, warm, cells = Samples(), Samples(), Samples()
        index, wall = 0, 0.0
        while index < 2 or another_round(deadline, wall):
            is_cold = index % 2 == 0
            done, (wall, scaled) = self.run_sweep(self.sweep, self.run_cell, cold=is_cold)
            (cold if is_cold else warm).add(wall, scaled / wall)
            for cell in done:
                cells.add(cell.seconds, cell.scaled / cell.seconds)
            index += 1
        print(f"{self.workload}: {len(cells.raw)} cells in {len(cold.raw)} cold and "
              f"{len(warm.raw)} warm sweeps", file=sys.stderr)
        return metrics_pair(cells, cold, warm, CELL_ACCESSES * num_contexts())

    def traced_cell(self, tracer: Tracer, cell):
        """The public steps run_workload takes, each in its own span."""
        from repro.config.system import scaled_paper_system
        from repro.orgs.factory import build_organization
        from repro.sim.engine import run_trace
        from repro.sim.machine import Machine
        from repro.workloads.spec import workload
        from repro.workloads.trace_cache import materialized_rate_mode_sources

        label = cell.label
        with tracer.span("cell", label):
            spec = workload(cell.spec)
            config = scaled_paper_system()
            with tracer.span("orgs", label):
                org = build_organization(cell.org, config)
            with tracer.span("vm.machine", label):
                machine = Machine(config, org, use_l3=False, seed=cell.seed)
            with tracer.span("workloads.sources", label):
                sources = materialized_rate_mode_sources(
                    spec, config, cell.seed, CELL_ACCESSES)
            with tracer.span("vm.pretouch", label):
                machine.pretouch([source.footprint_pages for source in sources])
            before = engine_snapshot()
            with tracer.span("engine", label):
                result = run_trace(machine, sources, spec, CELL_ACCESSES, pretouch=False)
            counters = engine_since(before)
        return result, counters

    def traced(self, seconds: float, tracer: Tracer) -> dict:
        deadline = time.perf_counter() + seconds
        untraced_s = traced_s = 0.0
        sweeps = []

        def traced_cell(cell):
            return self.traced_cell(tracer, cell)

        pair_s = 0.0
        while len(sweeps) < MIN_TRACED_SWEEPS or another_round(deadline, pair_s):
            # The overhead compares walls at reference speed: host drift
            # between two multi-second sweeps is larger than the overhead.
            untraced_wall, untraced = self.run_sweep(self.sweep, self.run_cell)[1]
            done, (wall, traced) = self.run_sweep(self.sweep, traced_cell)
            untraced_s += untraced
            traced_s += traced
            pair_s = untraced_wall + wall
            per_sweep = {"python": 0.0, "vector": 0.0, "faulting": 0.0,
                         "cells.python": 0, "counters": {}}
            for cell in done:
                counters = cell.extra
                path = ("python" if counters["fallbacks"] else
                        "faulting" if cell.result.page_faults else "vector")
                per_sweep[path] += cell.seconds
                per_sweep["cells.python"] += path == "python"
                for key, value in counters.items():
                    per_sweep["counters"][key] = per_sweep["counters"].get(key, 0) + value
            sweeps.append(per_sweep)
        accesses = len(tracer.durations("engine")) * CELL_ACCESSES * num_contexts()
        counters = sweeps[-1]["counters"]

        def ms(name):
            return [t * 1e3 for t in tracer.durations(name)]

        self.layers.update({
            "workloads.sources_ms.p50": percentile(ms("workloads.sources"), 50),
            "orgs.build_ms.p50": percentile(ms("orgs"), 50),
            "orgs.build_ms.p90": percentile(ms("orgs"), 90),
            "vm.machine_ms.p50": percentile(ms("vm.machine"), 50),
            "vm.pretouch_ms.p50": percentile(ms("vm.pretouch"), 50),
            "vm.pretouch_ms.p90": percentile(ms("vm.pretouch"), 90),
            "engine.run_trace_ms.p50": percentile(ms("engine"), 50),
            "engine.run_trace_ms.p90": percentile(ms("engine"), 90),
            "engine.ns_per_access": tracer.self_total("engine") / accesses * 1e9,
            "engine.kernel_calls": counters["kernel_calls"],
            "engine.bails.fault": counters["bails.fault"],
            "engine.bails.barrier": counters["bails.barrier"],
            "engine.bails.epoch": counters["bails.epoch"],
            "engine.bails.other": counters["bails.other"],
            "engine.fallbacks": counters["fallbacks"],
            "engine.sim_s.python": statistics.median(s["python"] for s in sweeps),
            "engine.sim_s.vector": statistics.median(s["vector"] for s in sweeps),
            "engine.sim_s.faulting": statistics.median(s["faulting"] for s in sweeps),
            "engine.cells.python": sweeps[-1]["cells.python"],
            "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
            "trace.coverage": tracer.coverage("cell"),
        })
        self.layers.update(dict.fromkeys(GRID_ONLY, 0))
        return self.layers


# -- paper-grid -------------------------------------------------------------------


class GridBench:
    """paper-grid: the 8 paper planners through execute_grid_plan on a 2-worker pool."""

    def __init__(self, seed: int, check: DigestCheck, speed: Speedometer, private: str):
        self.seed = seed
        self.check = check
        self.speed = speed
        self.private = private
        self.layers = {}
        self.captured = []

    def setup(self, tracer: Tracer) -> None:
        from repro.sim import plan as plan_module

        self.layers["kernel.load_s"] = load_kernel_timed()
        with tracer.span("plan.build"):
            self.planned = planned_experiments(self.seed)
            self.plan = plan_module.build_grid_plan(self.planned)
        self.layers["plan.build_s"] = tracer.durations("plan.build")[0]
        self.speed.sample(3)
        self.labels = grid_labels(self.planned)
        self.jobs = [job for exp in self.planned for job in exp.jobs]
        # Keep every outcome list execute_grid_plan produces, so each
        # requested cell (dedup shares included) is checked and timed.
        original = plan_module.run_jobs_cached

        def capturing(*args, **kwargs):
            outcomes = original(*args, **kwargs)
            self.captured.append(outcomes)
            return outcomes

        plan_module.run_jobs_cached = capturing

    def new_store(self, directory: str):
        from repro.sim.result_store import ResultStore, SharedDirBackend

        return ResultStore(backend=SharedDirBackend(directory))

    def grid_pass(self, store_dir: str, cold: bool):
        """One execute_grid_plan pass: (raw wall, speed factor, outcomes).

        The reference loop runs three times before and three times after
        the pass; their median gives the pass's speed factor. It tracks
        the store-served passes, which run in this process, but not a
        single cold pass, whose cells run in the pool workers: over 12
        cold passes the factor (sampled around or during the pass) did
        not correlate with the pass time. The run's overall factor tracks
        the run better: over two sets of ten runs it cut the spread of
        grid_s, cell_ms and sim_acc_per_s from 0.10-0.21 to 0.06-0.18, so
        cold passes and their cells are scaled by that instead.
        """
        from repro.errors import ReproError
        from repro.sim.plan import execute_grid_plan
        from repro.sim.result_store import use_result_store
        from repro.workloads.trace_cache import clear_default_trace_cache

        if cold:
            clear_default_trace_cache()
        gc.collect()
        self.captured.clear()
        self.speed.sample(3)
        with use_result_store(self.new_store(store_dir)):
            start = time.perf_counter()
            with contextlib.suppress(ReproError):  # failed cells are counted below
                execute_grid_plan(self.plan, n_jobs=GRID_WORKERS, dispatch="pool")
            wall = time.perf_counter() - start
        self.speed.sample(3)
        outcomes = self.captured[-1] if self.captured else [None] * len(self.jobs)
        self.check_outcomes(outcomes)
        return wall, self.speed.factor(6), outcomes

    def check_outcomes(self, outcomes) -> None:
        for label, outcome in zip(self.labels, outcomes):
            if outcome is None or not outcome.ok:
                self.check.fail(label, outcome.error if outcome else "never settled")
            else:
                self.check.check(label, outcome.result)

    def timed(self, seconds: float):
        deadline = time.perf_counter() + seconds
        cold_walls, cell_seconds, warm = [], [], Samples()
        round_s = 0.0
        while len(cold_walls) < MIN_COLD_PASSES or another_round(deadline, round_s):
            started = time.perf_counter()
            store_dir = tempfile.mkdtemp(prefix="store-", dir=self.private)
            wall, _, outcomes = self.grid_pass(store_dir, cold=True)
            cold_walls.append(wall)
            cell_seconds.extend(o.sim_seconds for o in outcomes
                                if o is not None and o.ok and not o.cached)
            for _ in range(WARM_PASSES):
                wall, factor, _ = self.grid_pass(store_dir, cold=False)
                warm.add(wall, factor)
            shutil.rmtree(store_dir, ignore_errors=True)
            round_s = time.perf_counter() - started
        # Pool work is scaled by the run's overall factor (see grid_pass).
        factor = self.speed.overall()
        cold, cells = Samples(), Samples()
        for wall in cold_walls:
            cold.add(wall, factor)
        for seconds_in_cell in cell_seconds:
            cells.add(seconds_in_cell, factor)
        print(f"paper-grid: {len(cold.raw)} cold passes ({len(cells.raw)} executed cells), "
              f"{len(warm.raw)} store-served passes", file=sys.stderr)
        return metrics_pair(cells, cold, warm, GRID_ACCESSES * num_contexts())

    def traced(self, tracer: Tracer) -> dict:
        from repro.config.system import scaled_paper_system
        from repro.sim import parallel
        from repro.sim.plan import run_jobs_cached
        from repro.sim.result_store import job_fingerprint, use_result_store
        from repro.workloads.spec import workload
        from repro.workloads.trace_cache import (
            clear_default_trace_cache,
            materialized_rate_mode_sources,
        )

        untraced_wall = self.grid_pass(
            tempfile.mkdtemp(prefix="store-", dir=self.private), cold=True)[0]

        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.private)
        warmed = []
        original_warm = parallel.warm_trace_cache

        def traced_warm(*args, **kwargs):
            with tracer.span("workloads.warm"):
                warmed.append(original_warm(*args, **kwargs))
            return warmed[-1]

        clear_default_trace_cache()
        gc.collect()
        self.speed.sample(3)
        store = self.new_store(store_dir)
        parallel.warm_trace_cache = traced_warm
        try:
            with use_result_store(store), tracer.span("pass"):
                with tracer.span("dispatch"):
                    outcomes = run_jobs_cached(
                        self.jobs, n_jobs=GRID_WORKERS, dispatch="pool")
                with tracer.span("plan.assemble"):
                    parallel.raise_on_failures(outcomes, "paper grid")
                    cursor = 0
                    for experiment in self.planned:
                        span = outcomes[cursor:cursor + len(experiment.jobs)]
                        cursor += len(experiment.jobs)
                        experiment.assemble([o.result for o in span])
        finally:
            parallel.warm_trace_cache = original_warm
        self.speed.sample(3)
        pool = parallel.last_pool_report()
        self.check_outcomes(outcomes)
        pass_wall = tracer.durations("pass")[0]

        executed = [o for o in outcomes if o.ok and not o.cached]
        paths = {"python": 0.0, "vector": 0.0, "faulting": 0.0}
        totals, python_cells = {}, 0
        for outcome in executed:
            counters = engine_of_result(outcome.result) or {}
            path = ("python" if counters.get("fallbacks") else
                    "faulting" if outcome.result.page_faults else "vector")
            paths[path] += outcome.sim_seconds or 0.0
            python_cells += path == "python"
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        overhead_ms = [o.dispatch_overhead_seconds * 1e3 for o in executed
                       if o.dispatch_overhead_seconds is not None]

        with use_result_store(self.new_store(store_dir)) as rerun_store:
            rerun = run_jobs_cached(self.jobs, n_jobs=GRID_WORKERS, dispatch="pool")
        self.check_outcomes(rerun)

        self.speed.sample(3)
        fingerprint_ms = []
        for job in self.jobs:
            start = time.perf_counter()
            job_fingerprint(job)
            fingerprint_ms.append((time.perf_counter() - start) * 1e3)
        unique = {job_fingerprint(o.job): o.result for o in executed}
        io_dir = tempfile.mkdtemp(prefix="store-io-", dir=self.private)
        put_store, put_ms = self.new_store(io_dir), []
        for fingerprint, result in unique.items():
            start = time.perf_counter()
            put_store.put(fingerprint, result)
            put_ms.append((time.perf_counter() - start) * 1e3)
        get_store, get_ms = self.new_store(io_dir), []
        for fingerprint in unique:
            start = time.perf_counter()
            if get_store.get(fingerprint) is None:
                raise BenchError(f"result store lost cell {fingerprint}")
            get_ms.append((time.perf_counter() - start) * 1e3)

        clear_default_trace_cache()
        config = scaled_paper_system()
        start = time.perf_counter()
        for spec in dict.fromkeys(job.workload_name for job in self.jobs):
            materialized_rate_mode_sources(workload(spec), config, self.seed, GRID_ACCESSES)
        generate_s = time.perf_counter() - start
        self.speed.sample(3)

        self.layers.update({
            "plan.assemble_ms": tracer.durations("plan.assemble")[0] * 1e3,
            "workloads.generate_s": generate_s,
            "workloads.warm_s": sum(tracer.durations("workloads.warm")),
            "workloads.traces_generated": sum(warmed),
            "engine.kernel_calls": totals.get("kernel_calls", 0),
            "engine.bails.fault": totals.get("bails.fault", 0),
            "engine.bails.barrier": totals.get("bails.barrier", 0),
            "engine.bails.epoch": totals.get("bails.epoch", 0),
            "engine.bails.other": totals.get("bails.other", 0),
            "engine.fallbacks": totals.get("fallbacks", 0),
            "engine.sim_s.python": paths["python"],
            "engine.sim_s.vector": paths["vector"],
            "engine.sim_s.faulting": paths["faulting"],
            "engine.cells.python": python_cells,
            "dispatch.utilization": sum(o.sim_seconds or 0.0 for o in executed)
            / (GRID_WORKERS * pass_wall),
            "dispatch.overhead_ms.p50": percentile(overhead_ms, 50),
            "dispatch.overhead_ms.p90": percentile(overhead_ms, 90),
            "dispatch.cells_executed": len(executed),
            "dispatch.cells_served": sum(1 for o in outcomes if o.ok and o.cached),
            "dispatch.retries": sum(o.attempts - 1 for o in outcomes if o.ok),
            "dispatch.respawns": pool.respawns if pool is not None else 0,
            "result_store.fingerprint_ms.p50": percentile(fingerprint_ms, 50),
            "result_store.put_ms.p50": percentile(put_ms, 50),
            "result_store.get_ms.p50": percentile(get_ms, 50),
            "result_store.hits": store.stats.hits + store.stats.disk_hits
            + rerun_store.stats.hits + rerun_store.stats.disk_hits,
            "result_store.misses": store.stats.misses + rerun_store.stats.misses,
            "trace.overhead_pct": (pass_wall / untraced_wall - 1.0) * 100.0,
            "trace.coverage": tracer.coverage("pass"),
        })
        self.layers.update(dict.fromkeys(CELL_ONLY, 0))
        return self.layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference")
    parser.add_argument("--private", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--compile-kernel", action="store_true",
                        help="only compile the kernel into the empty private cache")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    speed = Speedometer()
    if args.compile_kernel:
        compile_s = load_kernel_timed()
        speed.sample(6)
        payload = {"raw_metrics": {"kernel.compile_s": compile_s},
                   "metrics": {"kernel.compile_s": compile_s * speed.overall()}}
    else:
        speed.sample(3)  # set-up is scaled by every sample taken until it ends
        check = DigestCheck(load_digests(args.reference))
        tracer = Tracer()
        if args.workload in CELL_MIXES:
            bench = CellBench(args.workload, args.seed, check, speed)
            bench.setup()
        else:
            bench = GridBench(args.seed, check, speed, args.private)
            bench.setup(tracer)
        payload = {"ready": time.monotonic()}
        speed.sample(3)
        payload["setup_factor"] = speed.overall()
        if not args.setup_only:
            if args.trace:
                if isinstance(bench, CellBench):
                    raw = bench.traced(args.seconds, tracer)
                else:
                    raw = bench.traced(tracer)
                scaled = at_reference_speed(raw, metric_units(1), speed.overall())
                if args.spans:
                    tracer.dump(args.spans)
            else:
                scaled, raw = bench.timed(args.seconds)
            payload.update(metrics=scaled, raw_metrics=raw, attempted=check.attempted,
                           failed=check.failed, failures=check.failures,
                           speed_factor=speed.overall())
    with open(args.out, "w") as fp:
        json.dump(payload, fp)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
