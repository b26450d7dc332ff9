"""System geometry: the scaled-down counterpart of the paper's machine.

The paper evaluates 4 GB of stacked DRAM in front of 12 GB of off-chip
DRAM under 20-billion-instruction SPEC slices. A pure-Python simulator
cannot hold that, so :func:`scaled_paper_system` shrinks every *capacity*
by ``2**scale_shift`` while keeping every *ratio* the mechanisms depend
on intact:

* stacked : off-chip stays 1 : 3, so the congruence-group size is still 4;
* line (64 B) and page (4 KB) sizes are unchanged, so a page is still 64
  lines and spatial-locality effects are preserved;
* DRAM timings are unchanged, so the latency and bandwidth gaps between
  the two devices match Table I;
* workload footprints (Table II) are scaled by the same factor in
  :mod:`repro.workloads.spec`, so footprint/DRAM pressure is preserved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..units import LINE_BYTES, PAGE_BYTES, is_power_of_two, log2_exact
from . import paper
from .timing import DramTimingParams, paper_offchip_timing, paper_stacked_timing

#: Default capacity scale: 2**12 = 4096x smaller than the paper machine
#: (4 GB stacked becomes 1 MiB; 12 GB off-chip becomes 3 MiB).
DEFAULT_SCALE_SHIFT = 12


@dataclass(frozen=True)
class L3Config:
    """Shared last-level cache parameters (Table I)."""

    capacity_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.ways * self.line_bytes):
            raise ConfigurationError("L3 capacity must be a whole number of sets")

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class SystemConfig:
    """Complete hardware description for one simulated machine.

    Instances are immutable; derive variants with :meth:`replace`.
    """

    stacked_bytes: int
    offchip_bytes: int
    stacked_timing: DramTimingParams
    offchip_timing: DramTimingParams
    l3: L3Config
    line_bytes: int = LINE_BYTES
    page_bytes: int = PAGE_BYTES
    num_contexts: int = 4
    cpi_base: float = 0.5
    memory_level_parallelism: float = 2.0
    page_fault_cycles: int = paper.PAPER_PAGE_FAULT_CYCLES
    clock_random_probes: int = 5
    scale_shift: int = DEFAULT_SCALE_SHIFT

    def __post_init__(self) -> None:
        if self.stacked_bytes % self.line_bytes or self.offchip_bytes % self.line_bytes:
            raise ConfigurationError("DRAM capacities must be line-aligned")
        if self.page_bytes % self.line_bytes:
            raise ConfigurationError("page size must be a multiple of the line size")
        if not is_power_of_two(self.stacked_lines):
            raise ConfigurationError(
                "stacked capacity must be a power-of-two number of lines so the "
                "congruence group is selected by the low address bits (Section IV-A)"
            )
        if self.offchip_bytes % self.stacked_bytes:
            raise ConfigurationError(
                "off-chip capacity must be a multiple of stacked capacity so every "
                "congruence group has the same number of lines"
            )
        if self.stacked_bytes % self.page_bytes or self.offchip_bytes % self.page_bytes:
            raise ConfigurationError("DRAM capacities must be page-aligned")
        if self.num_contexts <= 0:
            raise ConfigurationError("num_contexts must be positive")
        if self.memory_level_parallelism < 1.0:
            raise ConfigurationError("MLP factor below 1 would amplify latencies")

    # -- Line-space geometry -------------------------------------------------

    @property
    def lines_per_page(self) -> int:
        return self.page_bytes // self.line_bytes

    @property
    def stacked_lines(self) -> int:
        return self.stacked_bytes // self.line_bytes

    @property
    def offchip_lines(self) -> int:
        return self.offchip_bytes // self.line_bytes

    @property
    def total_lines(self) -> int:
        """Lines in the combined (TLM/CAMEO) physical address space."""
        return self.stacked_lines + self.offchip_lines

    @property
    def group_size(self) -> int:
        """Lines per congruence group (paper: 4 for a 4 GB + 12 GB system)."""
        return self.total_lines // self.stacked_lines

    @property
    def num_groups(self) -> int:
        """Number of congruence groups (= number of stacked lines)."""
        return self.stacked_lines

    @property
    def group_index_bits(self) -> int:
        """Low address bits selecting the congruence group."""
        return log2_exact(self.stacked_lines)

    # -- Page-space geometry ---------------------------------------------------

    @property
    def stacked_pages(self) -> int:
        return self.stacked_bytes // self.page_bytes

    @property
    def offchip_pages(self) -> int:
        return self.offchip_bytes // self.page_bytes

    @property
    def total_pages(self) -> int:
        return self.stacked_pages + self.offchip_pages

    # -- Derived structure sizes (Section IV-C) --------------------------------

    @property
    def llt_entries(self) -> int:
        """One LLT entry per congruence group."""
        return self.num_groups

    @property
    def llt_bytes(self) -> int:
        """Total LLT size (paper: 64 MB for the 16 GB machine)."""
        return self.llt_entries * paper.PAPER_LLT_ENTRY_BYTES

    def replace(self, **overrides: object) -> "SystemConfig":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def fingerprint(self) -> str:
        """A stable content hash of every configuration field.

        Two configs fingerprint equal exactly when they describe the
        same machine; run provenance uses this to verify that results
        being compared (e.g. a sweep against a reused baseline) came
        from the same system. Computed once per instance: the config is
        frozen, and :meth:`replace` builds a new one.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            import hashlib
            import json

            blob = json.dumps(
                dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            cached = hashlib.sha256(blob).hexdigest()[:16]
            # A derived cache, not a field (``object.__setattr__``: frozen).
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def scaled_paper_system(
    scale_shift: int = DEFAULT_SCALE_SHIFT,
    num_contexts: int = 4,
    memory_level_parallelism: float = 2.0,
    scale_channels_to_contexts: bool = True,
) -> SystemConfig:
    """Build the Table I machine with capacities divided by ``2**scale_shift``.

    ``scale_shift=0`` reproduces the paper geometry exactly (4 GB + 12 GB,
    32 MB L3); the default ``12`` yields a 1 MiB + 3 MiB machine that runs
    in seconds. Timings are never scaled.

    ``scale_channels_to_contexts`` keeps the paper's *cores-per-channel*
    pressure (32 cores over 16 stacked / 8 off-chip channels) when fewer
    contexts are simulated, by shrinking both channel counts by the same
    factor — the 8x stacked:off-chip bandwidth ratio is preserved. Without
    it, a handful of contexts cannot saturate a 32-core memory system and
    every bandwidth effect in the paper disappears.
    """
    if scale_shift < 0:
        raise ConfigurationError("scale_shift must be non-negative")
    factor = 1 << scale_shift
    stacked = paper.PAPER_STACKED_BYTES // factor
    offchip = paper.PAPER_OFFCHIP_BYTES // factor
    l3_bytes = max(
        paper.PAPER_L3_BYTES // factor,
        paper.PAPER_L3_WAYS * LINE_BYTES,
    )
    if stacked < PAGE_BYTES:
        raise ConfigurationError(f"scale_shift={scale_shift} shrinks stacked DRAM below one page")
    stacked_timing = paper_stacked_timing()
    offchip_timing = paper_offchip_timing()
    if scale_channels_to_contexts and num_contexts < paper.PAPER_NUM_CORES:
        stacked_timing = dataclasses.replace(
            stacked_timing,
            channels=max(1, stacked_timing.channels * num_contexts // paper.PAPER_NUM_CORES),
        )
        offchip_timing = dataclasses.replace(
            offchip_timing,
            channels=max(1, offchip_timing.channels * num_contexts // paper.PAPER_NUM_CORES),
        )
    return SystemConfig(
        stacked_bytes=stacked,
        offchip_bytes=offchip,
        stacked_timing=stacked_timing,
        offchip_timing=offchip_timing,
        l3=L3Config(
            capacity_bytes=l3_bytes,
            ways=paper.PAPER_L3_WAYS,
            latency_cycles=paper.PAPER_L3_LATENCY_CYCLES,
        ),
        num_contexts=num_contexts,
        memory_level_parallelism=memory_level_parallelism,
        scale_shift=scale_shift,
    )
