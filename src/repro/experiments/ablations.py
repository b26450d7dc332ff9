"""Ablation studies over CAMEO's design choices (DESIGN.md section 5).

These are not paper figures; they probe the design decisions the paper
fixes by construction: the stacked fraction (congruence-group size),
the LLP table size, and TLM-Dynamic's migration threshold. The
`benchmarks/bench_ablation_*.py` files print and assert these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..config.system import SystemConfig, scaled_paper_system
from ..core.llp import LastLocationPredictor
from ..sim.parallel import SimJob, raise_on_failures
from ..sim.plan import run_jobs_cached
from ..sim.sweep import SweepPoint, sweep_org_parameter, sweep_system
from ..units import MIB, format_bytes


@dataclass
class GroupSizeAblation:
    """CAMEO at several stacked:total splits of a fixed-size memory."""

    workload: str
    points: List[SweepPoint]

    def render(self) -> str:
        return format_table(
            ["split", "CAMEO speedup", "stacked service"],
            [
                [str(p.value), p.speedup, p.result.stacked_service_fraction]
                for p in self.points
            ],
            title=f"Ablation: stacked fraction / group size ({self.workload})",
        )


def run_group_size_ablation(
    workload: str = "xalancbmk",
    total_bytes: int = 4 * MIB,
    splits: Sequence[int] = (8, 4, 2),
    accesses_per_context: Optional[int] = None,
    n_jobs: Optional[int] = 1,
) -> GroupSizeAblation:
    """Hold total DRAM fixed; move the stacked:off-chip boundary.

    ``splits`` are group sizes K (stacked = total / K).
    """
    configs = {}
    for k in splits:
        stacked = total_bytes // k
        label = f"1:{k - 1} (K={k})"
        configs[label] = scaled_paper_system().replace(
            stacked_bytes=stacked, offchip_bytes=total_bytes - stacked
        )
    points = sweep_system("cameo", workload, configs, accesses_per_context,
                          n_jobs=n_jobs)
    return GroupSizeAblation(workload=workload, points=points)


@dataclass
class LlpSizeAblation:
    """LLP accuracy/speedup vs predictor table size."""

    workload: str
    rows: List[Tuple[int, float, float]]  # (entries, speedup, accuracy)

    def render(self) -> str:
        return format_table(
            ["entries", "bytes/core", "speedup", "accuracy"],
            [[e, e * 2 // 8, s, a] for e, s, a in self.rows],
            title=f"Ablation: LLP table size ({self.workload})",
        )

    def accuracy_of(self, entries: int) -> float:
        for e, _s, a in self.rows:
            if e == entries:
                return a
        raise KeyError(entries)


def run_llp_size_ablation(
    workload: str = "xalancbmk",
    table_sizes: Sequence[int] = (1, 16, 64, 256, 1024),
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    n_jobs: Optional[int] = 1,
) -> LlpSizeAblation:
    """Sweep the LLP's PC-indexed table from one shared LLR upward.

    The baseline is served from and stored into the result store; the
    live-predictor cells have no fingerprint and always simulate.
    """
    jobs = [SimJob("baseline", workload, config, accesses_per_context)]
    jobs.extend(
        SimJob(
            "cameo", workload, config, accesses_per_context,
            org_kwargs={"predictor": LastLocationPredictor(entries=entries)},
            tag=f"entries={entries}",
        )
        for entries in table_sizes
    )
    outcomes = run_jobs_cached(jobs, n_jobs=n_jobs)
    raise_on_failures(outcomes, "llp-size ablation")
    baseline = outcomes[0].result
    rows = []
    for entries, outcome in zip(table_sizes, outcomes[1:]):
        result = outcome.result
        rows.append(
            (entries, result.speedup_over(baseline), result.llp_cases.accuracy)
        )
    return LlpSizeAblation(workload=workload, rows=rows)


@dataclass
class ThresholdAblation:
    """TLM-Dynamic speedup/migrations vs touch threshold."""

    workload: str
    points: List[SweepPoint]

    def render(self) -> str:
        return format_table(
            ["threshold", "speedup", "page migrations"],
            [[p.value, p.speedup, p.result.page_migrations] for p in self.points],
            title=f"Ablation: TLM-Dynamic migration threshold ({self.workload})",
        )


def run_threshold_ablation(
    workload: str = "milc",
    thresholds: Sequence[int] = (1, 2, 4, 8, 16),
    config: Optional[SystemConfig] = None,
    accesses_per_context: Optional[int] = None,
    baseline=None,
    n_jobs: Optional[int] = 1,
) -> ThresholdAblation:
    """Sweep TLM-Dynamic's swap-on-Nth-touch threshold.

    ``baseline`` optionally reuses an already-simulated baseline
    :class:`~repro.sim.results.RunResult` instead of re-running it.
    """
    points = sweep_org_parameter(
        "tlm-dynamic", "migration_threshold", list(thresholds),
        workload, config, accesses_per_context, baseline=baseline,
        n_jobs=n_jobs,
    )
    return ThresholdAblation(workload=workload, points=points)
