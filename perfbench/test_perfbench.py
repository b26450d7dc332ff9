"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

They run the benchmark end to end on short runs (about 30 s in all).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from common import (
    ROOT,
    SRC,
    BenchError,
    DigestCheck,
    cell_label,
    digest_path,
    load_digests,
    metric_units,
    percentile,
)

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_bench(*args: str, home: str = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if home is not None:
        env["HOME"] = home
        env.pop("XDG_CACHE_HOME", None)
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_p90_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(BenchError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_short_run_errors_out_instead_of_reporting_p90():
    # One second of cell-capacity is one cold and one warm sweep: 90
    # cells, 9 beyond p90.
    proc = run_bench("--workload", "cell-capacity", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "beyond it" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_digest_check_fails_when_one_field_is_perturbed(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
    from repro.sim.runner import run_workload

    label = cell_label("baseline", "sphinx3", 0, 6000)
    check = DigestCheck(load_digests(digest_path(0)))
    result = run_workload("baseline", "sphinx3", accesses_per_context=6000, seed=0)
    assert check.check(label, result)
    result.page_migrations += 1
    assert not check.check(label, result)
    assert (check.attempted, check.failed) == (2, 1)
    with pytest.raises(BenchError):
        check.check(cell_label("baseline", "sphinx3", 0, 7), result)


def test_wrong_reference_digest_fails_that_cell_and_leaves_user_cache_alone(tmp_path):
    reference = load_digests(digest_path(0))
    wrong = cell_label("cameo", "milc", 0, 6000)
    reference[wrong] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"seed": 0, "cells": reference}))
    home = tmp_path / "home"
    home.mkdir()
    proc = run_bench("--workload", "cell-latency", "--seed", "0", "--seconds", "3",
                     "--trace", "0", "--reference", str(path), home=str(home))
    result = result_line(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    failed = {line.split(": ")[0] for line in proc.stderr.splitlines()
              if line.startswith("FAILED ")}
    assert failed == {f"FAILED {wrong}"}
    assert not (home / ".cache" / "repro").exists()
    assert not os.listdir(home)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace):
    result = result_line(run_bench("--workload", "cell-latency", "--seed", "1",
                                   "--seconds", "3", "--trace", trace))
    expected = metric_units(int(trace))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True and result["failed"] == 0

