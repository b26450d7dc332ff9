"""Machine assembly: organization + memory manager + (optional) L3.

A :class:`Machine` wires one memory organization to the OS substrate.
The organization decides how many pages the OS may allocate (the
capacity side of the paper's trade-off); the memory manager services
faults against the SSD; the optional L3 filters a pre-L3 reference
stream (by default the engine consumes L3-miss-level traces directly,
with the fixed L3 lookup latency charged on every miss).
"""

from __future__ import annotations

from typing import Optional

from ..cache.l3 import L3Cache
from ..config.system import SystemConfig
from ..organization import MemoryOrganization
from ..vm.memory_manager import MemoryManager
from ..vm.ssd import SsdModel


class Machine:
    """One fully-wired simulated system."""

    def __init__(
        self,
        config: SystemConfig,
        org: MemoryOrganization,
        use_l3: bool = False,
        seed: int = 0,
    ):
        self.config = config
        self.org = org
        self.ssd = SsdModel(config.page_fault_cycles, config.page_bytes)
        self.memory_manager = MemoryManager(
            num_frames=org.visible_pages,
            ssd=self.ssd,
            stacked_frames=org.stacked_visible_pages,
            random_probes=config.clock_random_probes,
            seed=seed,
        )
        org.bind_memory_manager(self.memory_manager)
        self.l3: Optional[L3Cache] = L3Cache(config.l3) if use_l3 else None

    @property
    def visible_pages(self) -> int:
        return self.org.visible_pages

    def pretouch(self, footprint_pages_by_context, engine: Optional[str] = None) -> None:
        """Pre-fault every context's address space, free of charge.

        This models measuring a representative slice of a long-running
        program (the paper simulates 20-billion-instruction slices, not
        process start-up): pages that fit are resident before timing
        begins, and for over-committed footprints the memory starts full
        so reclaim is in steady state. VM/SSD counters are reset after.

        ``footprint_pages_by_context`` is either one int (all contexts
        alike, the rate-mode case) or a sequence with one entry per
        context (heterogeneous mixes).

        ``engine`` selects the backend as for
        :func:`~repro.sim.engine.run_trace` (default: ``REPRO_ENGINE``).
        The vector backend runs the translations in one compiled-kernel
        call when it can, leaving the same state as the python loop.
        """
        from .engine import resolve_engine_backend

        if isinstance(footprint_pages_by_context, int):
            footprints = [footprint_pages_by_context] * self.config.num_contexts
        else:
            footprints = list(footprint_pages_by_context)
        served = False
        if resolve_engine_backend(engine) == "vector":
            from .engine_vector import pretouch_vector

            served = pretouch_vector(self, footprints)
        if not served:
            top = max(footprints)
            # Touch high pages first so the low region — where the
            # generators place each workload's hot set — is what remains
            # resident when the footprint over-commits the memory.
            for vpage in reversed(range(top)):
                for ctx, footprint in enumerate(footprints):
                    if vpage < footprint:
                        self.memory_manager.translate((ctx, vpage))
        self.reset_paging_stats()

    def reset_paging_stats(self) -> None:
        """Zero the SSD and VM fault-path counters."""
        self.ssd.reset_stats()
        self.memory_manager.stats = type(self.memory_manager.stats)()

    def reset_measurement_stats(self) -> None:
        """Zero every counter so measurement excludes the warmup phase.

        Timing state (device bank/bus horizons, context clocks) is left
        untouched — only the *accounting* restarts.
        """
        for device in self.org.devices().values():
            device.reset_stats()
        self.org.stats = type(self.org.stats)()
        case_stats = getattr(self.org, "case_stats", None)
        if case_stats is not None:
            self.org.case_stats = type(case_stats)()
        self.reset_paging_stats()
        if self.l3 is not None:
            self.l3.stats = type(self.l3.stats)()
