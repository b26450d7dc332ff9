"""Table II: the SPEC CPU2006 workload registry, with behaviour knobs.

The paper drives its evaluation with 20-billion-instruction slices of
SPEC CPU2006 in 32-copy rate mode. We cannot ship those traces, so each
benchmark is described by (a) the *published* Table II numbers — L3 MPKI
and total memory footprint — and (b) a small set of locality knobs that
the synthetic generator (:mod:`repro.workloads.synthetic`) turns into a
statistically similar L3-miss stream:

* ``hot_fraction`` / ``hot_access_prob`` — size of the high-reuse working
  set and how often it is touched (temporal locality; what DRAM caches
  and CAMEO exploit);
* ``stream_prob`` — fraction of accesses from a sequential sweep of the
  whole footprint (what defeats page-granularity migration when sparse);
* ``lines_used_per_page`` — spatial density within a touched page
  (Section VI-A: milc uses ~10 of 64 lines, which is why TLM-Dynamic
  collapses on it);
* ``write_fraction`` — L3 dirty-writeback share of the miss stream.

Footprints scale with the system's ``scale_shift`` so that the
footprint-to-DRAM pressure of Table II is preserved exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import WorkloadError
from ..units import GIB, PAGE_BYTES

CAPACITY = "capacity"
LATENCY = "latency"


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table II row plus the synthetic-behaviour knobs."""

    name: str
    category: str
    l3_mpki: float
    footprint_bytes: int          # paper-scale footprint (Table II)
    hot_fraction: float           # hot set as a fraction of the footprint
    hot_access_prob: float        # P(access targets the hot set)
    stream_prob: float            # P(access comes from the sequential sweep)
    lines_used_per_page: int      # spatial density, out of 64
    write_fraction: float = 0.30
    #: PC pool sizes. Hot/random PCs have *page affinity* (an instruction
    #: keeps touching its data structure), which is the PC<->location
    #: correlation the LLP and MAP-I predictors exploit (Section V-B).
    #: Totals stay under the 256-entry predictor tables.
    pc_pool_hot: int = 128
    pc_pool_stream: int = 8
    pc_pool_random: int = 96
    #: Consecutive accesses one instruction makes to one page before
    #: moving on. Real miss streams cluster like this (an L3 miss is
    #: followed by misses to neighbouring lines from the same load), and
    #: it is the correlation the PC-indexed LLP exploits (Section V-B).
    burst_length: int = 12
    #: Popularity skew within the hot set: page picked as
    #: ``int(hot_pages * u**hot_skew)`` for uniform u. 1.0 is uniform;
    #: larger concentrates heat (zipf-like), which stabilises who wins a
    #: contested congruence group.
    hot_skew: float = 2.0

    def __post_init__(self) -> None:
        if self.category not in (CAPACITY, LATENCY):
            raise WorkloadError(f"{self.name}: unknown category {self.category!r}")
        if self.l3_mpki <= 0:
            raise WorkloadError(f"{self.name}: MPKI must be positive")
        if self.footprint_bytes < PAGE_BYTES:
            raise WorkloadError(f"{self.name}: footprint below one page")
        if not 0 < self.hot_fraction <= 1:
            raise WorkloadError(f"{self.name}: hot_fraction out of (0, 1]")
        if not 0 <= self.hot_access_prob <= 1 or not 0 <= self.stream_prob <= 1:
            raise WorkloadError(f"{self.name}: probabilities out of [0, 1]")
        if self.hot_access_prob + self.stream_prob > 1:
            raise WorkloadError(f"{self.name}: hot + stream probability exceeds 1")
        if not 1 <= self.lines_used_per_page <= 64:
            raise WorkloadError(f"{self.name}: lines_used_per_page out of [1, 64]")
        if not 0 <= self.write_fraction < 1:
            raise WorkloadError(f"{self.name}: write_fraction out of [0, 1)")
        if self.burst_length < 1:
            raise WorkloadError(f"{self.name}: burst_length must be at least 1")
        for pool in ("pc_pool_hot", "pc_pool_stream", "pc_pool_random"):
            if getattr(self, pool) < 1:
                raise WorkloadError(f"{self.name}: {pool} must be at least 1")
        if not (math.isfinite(self.hot_skew) and self.hot_skew > 0):
            raise WorkloadError(f"{self.name}: hot_skew must be finite and above 0")

    def as_dict(self) -> Dict[str, object]:
        """Every field by name (``dataclasses.asdict``), derived once.

        The content keys of traces and result-store cells hash it on
        every call. The spec is frozen, so the dict is computed once and
        kept on the instance (``object.__setattr__``, not a field);
        each call returns a copy, which is cheap as every value is a
        primitive.
        """
        cached = self.__dict__.get("_as_dict")
        if cached is None:
            cached = dataclasses.asdict(self)
            object.__setattr__(self, "_as_dict", cached)
        return dict(cached)

    @property
    def random_prob(self) -> float:
        """Probability of a uniform-random access (the remainder)."""
        return 1.0 - self.hot_access_prob - self.stream_prob

    @property
    def instructions_per_miss(self) -> float:
        """How many instructions separate consecutive L3 misses."""
        return 1000.0 / self.l3_mpki

    def footprint_pages(self, scale_shift: int) -> int:
        """Total footprint in pages at the given capacity scale."""
        scaled = self.footprint_bytes >> scale_shift
        return max(1, scaled // PAGE_BYTES)


def _gb(value: float) -> int:
    return int(value * GIB)


#: Table II, in paper order, with behaviour knobs calibrated against the
#: workload descriptions in Sections II/VI (streaming vs pointer-chasing
#: vs hot-set reuse; milc's sparse pages; libquantum's pure streaming).
WORKLOADS: Tuple[WorkloadSpec, ...] = (
    # -- Capacity-Limited: footprint exceeds the 12 GB off-chip memory. ------
    # mcf's active set sits just past the off-chip capacity: the extra
    # stacked-DRAM capacity captures it, which is where the paper's big
    # capacity win comes from.
    WorkloadSpec("mcf", CAPACITY, 39.1, _gb(52.4),
                 hot_fraction=0.26, hot_access_prob=0.55, stream_prob=0.15,
                 lines_used_per_page=16, write_fraction=0.25, hot_skew=1.0),
    WorkloadSpec("lbm", CAPACITY, 28.9, _gb(12.8),
                 hot_fraction=0.06, hot_access_prob=0.20, stream_prob=0.70,
                 lines_used_per_page=64, write_fraction=0.45),
    WorkloadSpec("GemsFDTD", CAPACITY, 19.1, _gb(25.2),
                 hot_fraction=0.08, hot_access_prob=0.30, stream_prob=0.60,
                 lines_used_per_page=48, write_fraction=0.35),
    WorkloadSpec("bwaves", CAPACITY, 6.3, _gb(27.2),
                 hot_fraction=0.06, hot_access_prob=0.30, stream_prob=0.62,
                 lines_used_per_page=48, write_fraction=0.30),
    WorkloadSpec("cactusADM", CAPACITY, 4.9, _gb(12.8),
                 hot_fraction=0.15, hot_access_prob=0.50, stream_prob=0.30,
                 lines_used_per_page=32, write_fraction=0.30),
    WorkloadSpec("zeusmp", CAPACITY, 5.0, _gb(14.1),
                 hot_fraction=0.12, hot_access_prob=0.45, stream_prob=0.35,
                 lines_used_per_page=32, write_fraction=0.30),
    # -- Latency-Limited: fits in off-chip memory, MPKI > 1. -----------------
    WorkloadSpec("gcc", LATENCY, 63.1, _gb(2.8),
                 hot_fraction=0.30, hot_access_prob=0.75, stream_prob=0.10,
                 lines_used_per_page=32, write_fraction=0.30),
    WorkloadSpec("milc", LATENCY, 31.9, _gb(11.2),
                 hot_fraction=0.15, hot_access_prob=0.50, stream_prob=0.20,
                 lines_used_per_page=10, write_fraction=0.30),
    WorkloadSpec("soplex", LATENCY, 28.9, _gb(7.6),
                 hot_fraction=0.25, hot_access_prob=0.65, stream_prob=0.15,
                 lines_used_per_page=24, write_fraction=0.25),
    WorkloadSpec("libquantum", LATENCY, 25.4, _gb(1.0),
                 hot_fraction=0.05, hot_access_prob=0.05, stream_prob=0.90,
                 lines_used_per_page=64, write_fraction=0.25),
    WorkloadSpec("xalancbmk", LATENCY, 23.7, _gb(4.4),
                 hot_fraction=0.30, hot_access_prob=0.70, stream_prob=0.05,
                 lines_used_per_page=20, write_fraction=0.25),
    WorkloadSpec("omnetpp", LATENCY, 20.5, _gb(4.8),
                 hot_fraction=0.25, hot_access_prob=0.60, stream_prob=0.05,
                 lines_used_per_page=16, write_fraction=0.30),
    WorkloadSpec("leslie3d", LATENCY, 15.8, _gb(2.4),
                 hot_fraction=0.20, hot_access_prob=0.40, stream_prob=0.50,
                 lines_used_per_page=48, write_fraction=0.35),
    WorkloadSpec("sphinx3", LATENCY, 13.5, _gb(0.60),
                 hot_fraction=0.40, hot_access_prob=0.70, stream_prob=0.15,
                 lines_used_per_page=32, write_fraction=0.15),
    WorkloadSpec("bzip2", LATENCY, 3.48, _gb(1.1),
                 hot_fraction=0.35, hot_access_prob=0.70, stream_prob=0.15,
                 lines_used_per_page=40, write_fraction=0.30),
    WorkloadSpec("dealII", LATENCY, 2.33, _gb(0.88),
                 hot_fraction=0.40, hot_access_prob=0.75, stream_prob=0.10,
                 lines_used_per_page=32, write_fraction=0.25),
    WorkloadSpec("astar", LATENCY, 1.81, _gb(0.12),
                 hot_fraction=0.50, hot_access_prob=0.80, stream_prob=0.05,
                 lines_used_per_page=24, write_fraction=0.25),
)

_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


def workload(name: str) -> WorkloadSpec:
    """Look a workload up by benchmark name.

    Raises:
        WorkloadError: for an unknown name.
    """
    spec = _BY_NAME.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(_BY_NAME)}"
        )
    return spec


def workload_names(category: Optional[str] = None) -> List[str]:
    """Names in Table II order, optionally filtered by category."""
    if category is not None and category not in (CAPACITY, LATENCY):
        raise WorkloadError(f"unknown category {category!r}")
    return [w.name for w in WORKLOADS if category in (None, w.category)]


def render_table2() -> str:
    """Table II as monospace text (used by the quickstart and the CLI)."""
    from ..analysis.report import format_table
    from ..units import format_bytes

    return format_table(
        ["Limited By", "Name", "L3 MPKI", "Memory Footprint"],
        [
            [w.category.capitalize(), w.name, w.l3_mpki, format_bytes(w.footprint_bytes)]
            for w in WORKLOADS
        ],
        title="Table II: workload characteristics (32-copies in rate mode)",
    )


def capacity_workloads() -> List[WorkloadSpec]:
    """The six workloads whose footprints exceed off-chip memory."""
    return [w for w in WORKLOADS if w.category == CAPACITY]


def latency_workloads() -> List[WorkloadSpec]:
    """The eleven memory-intensive workloads that fit in off-chip memory."""
    return [w for w in WORKLOADS if w.category == LATENCY]
