"""In-memory spans for the traced run, and the one reader of engine counters.

Spans are recorded by the benchmark around its calls into each layer of
the simulator; nothing inside ``src/`` is instrumented. A span's self
time is its duration minus the durations of its child spans (children
run sequentially inside their parent, so they never overlap).
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional

#: Bail kinds reported on their own; every other kind is summed as "other".
NAMED_BAILS = ("fault", "barrier", "epoch")


class Tracer:
    """Spans (name, start, end, parent, cell) kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "cell": cell}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> List[float]:
        """Self time of every span, aligned with :attr:`spans`."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s["name"] == name)

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' time covered by their child spans."""
        own = self.self_times()
        total = sum(s["end"] - s["start"] for s in self.spans if s["name"] == root)
        uncovered = sum(t for s, t in zip(self.spans, own) if s["name"] == root)
        return 1.0 - uncovered / total if total else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(span, sort_keys=True) + "\n")


# -- Engine counters -------------------------------------------------------------
#
# The engine exposes its bail/fallback counters two ways: a process-global
# tally (snapshot/delta) and the per-result ``RunResult.engine_stats`` that
# pool workers stamp on their results. Everything the benchmark reads about
# them goes through these three functions, so a change to how the engine
# reports them has one place to update here.


def _flatten(stats: Dict) -> Dict[str, int]:
    bails = dict(stats.get("bails", {}))
    flat = {
        "kernel_runs": stats.get("kernel_runs", 0),
        "kernel_calls": stats.get("kernel_calls", 0),
        "fallbacks": stats.get("fallbacks", 0),
    }
    for kind in NAMED_BAILS:
        flat[f"bails.{kind}"] = bails.pop(kind, 0)
    flat["bails.other"] = sum(bails.values())
    return flat


def engine_snapshot() -> Dict:
    """The in-process engine counters now, for :func:`engine_since`."""
    from repro.sim.engine_vector import snapshot_backend_stats

    return snapshot_backend_stats()


def engine_since(before: Dict) -> Dict[str, int]:
    """What this process's engine did since ``before``."""
    from repro.sim.engine_vector import backend_stats_since

    return _flatten(backend_stats_since(before))


def engine_of_result(result) -> Optional[Dict[str, int]]:
    """The counters a pool worker stamped on its result (None when served)."""
    stats = getattr(result, "engine_stats", None)
    return _flatten(stats) if stats else None
