"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cell-latency --seed 0 --seconds 30 --trace 0

Run it from the repository root. Workloads: ``cell-latency``,
``cell-capacity``, ``paper-grid`` (see README.md). ``--seed n`` runs
input seed ``n % 16``, one of the seeds whose python-reference digests
are committed under ``digests/``. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run; the names and units are those of
``BENCHMARK.json``. The last line of standard output is the result::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Each run gets a fresh private directory under ``.bench_build/`` for the
kernel, trace and result caches, compiles the kernel there (timed as
``kernel.compile_s``), starts the measuring process several times to
take the median set-up time, and removes the directory at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from common import (
    BUILD_DIR,
    HERE,
    ROOT,
    SRC,
    WORKLOADS,
    BenchError,
    digest_path,
    hermetic_env,
    input_seed,
    load_digests,
    metric_units,
)

#: Set-up is measured this many times per run (the main run included).
SETUP_REPEATS = 5
#: Hard ceiling on one run.
RUN_BUDGET_S = 170.0


def provenance() -> dict:
    """Which code on which host produced the numbers."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain source checkout
    with open(os.path.join(SRC, "repro", "sim", "_vector_kernel.c"), "rb") as fp:
        kernel_sha = hashlib.sha256(fp.read()).hexdigest()
    return {
        "git_commit": commit,
        "kernel_source_sha256": kernel_sha,
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpu_count": os.cpu_count(),
            "system": platform.platform(),
            "python": platform.python_version(),
        },
    }


class Launcher:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.seed = input_seed(args.seed)
        self.started = time.monotonic()
        os.makedirs(BUILD_DIR, exist_ok=True)
        self.private = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
        self.env = hermetic_env(self.private)

    def remaining(self) -> float:
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_BUDGET_S:.0f} s")
        return left

    def call(self, argv) -> None:
        """Run a child in its own process group; kill the group on timeout."""
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{os.path.basename(argv[1])} did not finish in time")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise BenchError(f"{os.path.basename(argv[1])} exited with code {code}")

    def measure(self, out: str, *extra: str) -> dict:
        argv = [
            sys.executable, os.path.join(HERE, "measure.py"),
            "--workload", self.args.workload, "--seed", str(self.seed),
            "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
            "--private", self.private, "--out", out, *extra,
        ]
        self.call(argv)
        with open(out) as fp:
            return json.load(fp)

    def run(self) -> dict:
        reference = self.args.reference or digest_path(self.seed)
        load_digests(reference)  # fail before measuring, not after
        compiled = self.measure(os.path.join(self.private, "compile.json"),
                               "--compile-kernel")
        setups = []  # (raw seconds, speed factor) per start-up
        for i in range(SETUP_REPEATS - 1):
            spawned = time.monotonic()
            setup = self.measure(os.path.join(self.private, f"setup{i}.json"),
                                "--reference", reference, "--setup-only")
            setups.append((setup["ready"] - spawned, setup["setup_factor"]))
        spans = os.path.join(BUILD_DIR, f"spans-{self.args.workload}-seed{self.seed}.jsonl")
        spawned = time.monotonic()
        main = self.measure(os.path.join(self.private, "main.json"),
                           "--reference", reference, "--spans", spans)
        setups.append((main["ready"] - spawned, main["setup_factor"]))

        units = metric_units(self.args.trace)
        metrics, raw = dict(main["metrics"]), dict(main["raw_metrics"])
        if self.args.trace:
            metrics.update(compiled["metrics"])
            raw.update(compiled["raw_metrics"])
        else:
            metrics["setup_s"] = statistics.median(s * f for s, f in setups)
            raw["setup_s"] = statistics.median(s for s, _ in setups)
        if set(metrics) != set(units):
            raise BenchError(
                f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(units) - set(metrics))}, extra {sorted(set(metrics) - set(units))}"
            )
        for failure in main["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(json.dumps({"provenance": provenance(), "input_seed": self.seed,
                          "speed_factor": main["speed_factor"],
                          "setup_samples": setups, "raw_metrics": raw}))
        return {
            "correct": main["failed"] == 0,
            "attempted": main["attempted"],
            "failed": main["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }

    def close(self) -> None:
        shutil.rmtree(self.private, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="reference digest file (default: "
                        "the committed digests of the input seed)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator source not found under {SRC}", file=sys.stderr)
        return 1
    launcher = Launcher(args)
    try:
        result = launcher.run()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
