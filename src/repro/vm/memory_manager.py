"""The OS memory manager: frame allocation, faults, and reclaim.

This ties the page table, the clock replacer, and the SSD together. The
physical frame number *is* the physical page number: frames
``[0, stacked_frames)`` live in stacked DRAM and the rest in off-chip
DRAM (the paper's "memory space starts from stacked memory and grows to
the region of off-chip memory", Section IV-A).

Organizations that care where a page lands (TLM-Oracle's profiled
placement) install a :attr:`frame_preference` callback; everything else
gets the default policy of handing out frames in a seeded-random order,
which is exactly TLM-Static's "randomly maps the pages across the memory
address space" (Section II-B).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigurationError
from .clock import ClockReplacer
from .page_table import PageTable, VirtualPage
from .ssd import SsdModel


class TranslationResult:
    """Outcome of one virtual-to-physical translation.

    Hit-path results are reused by the owning :class:`MemoryManager`
    (translation is once-per-simulated-access): consume the fields before
    the next ``translate`` call. Fault results are freshly allocated.
    """

    __slots__ = ("frame", "faulted", "fault_latency", "evicted", "evicted_frame")

    def __init__(
        self,
        frame: int,
        faulted: bool,
        fault_latency: float,
        evicted: Optional[Tuple[VirtualPage, bool]] = None,
        evicted_frame: Optional[int] = None,
    ):
        self.frame = frame
        self.faulted = faulted
        self.fault_latency = fault_latency
        #: Virtual page evicted to make room, with its dirty bit (None if
        #: no eviction was needed).
        self.evicted = evicted
        #: Frame the evicted page vacated (== ``frame`` on a reclaim fault).
        self.evicted_frame = evicted_frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TranslationResult(frame={self.frame}, faulted={self.faulted}, "
                f"fault_latency={self.fault_latency}, evicted={self.evicted}, "
                f"evicted_frame={self.evicted_frame})")


@dataclass
class VmStats:
    """Fault-path counters."""

    translations: int = 0
    faults: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def fault_rate(self) -> float:
        if not self.translations:
            return 0.0
        return self.faults / self.translations


@functools.lru_cache(maxsize=16)
def _free_pools(
    num_frames: int, stacked_frames: int, allocation: str, seed: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The initial (stacked, off-chip) free-frame pools, in pop order.

    They depend on nothing else, and shuffling ~1,000 frames costs more
    than the rest of a manager's construction, so each key is built
    once; every manager copies the tuples into lists of its own.
    """
    frames = list(range(num_frames))
    if allocation == "random":
        random.Random(seed).shuffle(frames)
    return (
        tuple(f for f in frames if f < stacked_frames),
        tuple(f for f in frames if f >= stacked_frames),
    )


class MemoryManager:
    """Allocates frames, services faults, and drives reclaim."""

    def __init__(
        self,
        num_frames: int,
        ssd: SsdModel,
        stacked_frames: int = 0,
        random_probes: int = 5,
        allocation: str = "random",
        seed: int = 0,
    ):
        if num_frames <= 0:
            raise ConfigurationError("a memory of zero frames cannot back any workload")
        if not 0 <= stacked_frames <= num_frames:
            raise ConfigurationError("stacked_frames must be within [0, num_frames]")
        if allocation not in ("random", "sequential"):
            raise ConfigurationError(f"unknown allocation policy {allocation!r}")
        self.num_frames = num_frames
        self.stacked_frames = stacked_frames
        self.ssd = ssd
        self.page_table = PageTable(num_frames)
        self.replacer = ClockReplacer(self.page_table, random_probes, seed=seed)
        self.stats = VmStats()
        #: Optional placement hook: maps a vpage to "stacked", "offchip",
        #: or None (no preference). Consulted on first-touch allocation.
        self.frame_preference: Optional[Callable[[VirtualPage], Optional[str]]] = None

        stacked_pool, offchip_pool = _free_pools(
            num_frames, stacked_frames, allocation, seed
        )
        self._free_stacked: List[int] = list(stacked_pool)
        self._free_offchip: List[int] = list(offchip_pool)
        self._free_set = set(range(num_frames))
        # Reused for every non-faulting translation (the common case).
        self._hit_result = TranslationResult(0, False, 0.0)

    # -- Frame bookkeeping ------------------------------------------------------

    def is_stacked_frame(self, frame: int) -> bool:
        return frame < self.stacked_frames

    def _pop_free(self, preference: Optional[str]) -> Optional[int]:
        pools = [self._free_stacked, self._free_offchip]
        if preference == "offchip":
            pools.reverse()
        elif preference is None:
            # No preference: interleave by whichever pool is fuller so the
            # random shuffle's uniformity is preserved.
            pools.sort(key=len, reverse=True)
        for pool in pools:
            # Entries may have been consumed by a frame swap; skip those.
            while pool:
                frame = pool.pop()
                if frame in self._free_set:
                    self._free_set.discard(frame)
                    return frame
        return None

    def swap_frames(self, frame_a: int, frame_b: int) -> None:
        """Exchange two frames' contents, keeping the free lists coherent.

        Page-migrating organizations (TLM-Dynamic/Freq) must use this
        instead of touching the page table directly: a migration into a
        still-free frame moves the "free" status to the vacated frame.
        """
        self.page_table.swap_frames(frame_a, frame_b)
        self._exchange_free_status(frame_a, frame_b)

    def reconcile_external_log(self, log, n: int) -> None:
        """Replay the first ``n`` swaps of the compiled kernel's log.

        The kernel swaps pages in the shared page table itself; what it
        cannot do is keep the free lists, so it logs, as int64 pairs
        ``(frame_a, frame_b)`` in the order it made them, exactly the
        swaps that moved a page into a free frame. Each moves the free
        status as :meth:`swap_frames` would. A swap between two full
        frames changes no free list and is not logged.
        """
        for i in range(0, 2 * n, 2):
            self._exchange_free_status(log[i], log[i + 1])

    def drain_free_pools(self) -> None:
        """Empty both pools, as a fault in full memory does.

        With no frame free, :meth:`_pop_free` pops every (stale) entry
        off both pools before it gives up; the compiled kernel serves
        such faults without touching the pools, and the engine calls
        this after it did.
        """
        self._free_stacked.clear()
        self._free_offchip.clear()

    def _exchange_free_status(self, frame_a: int, frame_b: int) -> None:
        """A swap with a still-free frame moves "free" to the vacated one."""
        a_free = frame_a in self._free_set
        b_free = frame_b in self._free_set
        if a_free == b_free:
            return
        newly_free = frame_a if b_free else frame_b
        self._free_set.discard(frame_a if a_free else frame_b)
        self._free_set.add(newly_free)
        pool = (
            self._free_stacked
            if newly_free < self.stacked_frames
            else self._free_offchip
        )
        pool.append(newly_free)

    # -- The translation/fault path ---------------------------------------------

    def translate(self, vpage: VirtualPage, is_write: bool = False) -> TranslationResult:
        """Translate ``vpage``; faults allocate/reclaim and charge the SSD."""
        self.stats.translations += 1
        table = self.page_table
        # Inlined PageTable.lookup + touch (direct column reads and
        # writes) and a reused hit result: this runs once per access.
        asid, page = vpage
        offset = page - table.vbase
        stride = table.stride
        if 0 <= offset < stride and 0 <= asid < table.n_asids:
            frame = table.fwd[asid * stride + offset] - 1
            if frame >= 0:
                table.referenced[frame] = 1
                if is_write:
                    table.dirty[frame] = 1
                hit = self._hit_result
                hit.frame = frame
                return hit

        self.stats.faults += 1
        preference = self.frame_preference(vpage) if self.frame_preference else None
        evicted = None
        evicted_frame = None
        frame = self._pop_free(preference)
        if frame is None:
            frame = self.replacer.select_victim()
            # The clock's random probes may land on a free frame; claim it.
            self._free_set.discard(frame)
            # map() below resets the frame's columns.
            victim = table.evict(frame)
            if victim is not None:
                dirty = bool(table.dirty[frame])
                self.stats.evictions += 1
                evicted = (victim, dirty)
                evicted_frame = frame
                if dirty:
                    self.stats.dirty_evictions += 1
                    self.ssd.write_page()

        latency = self.ssd.read_page()
        table.map(vpage, frame)
        table.touch(frame, is_write)
        return TranslationResult(
            frame=frame,
            faulted=True,
            fault_latency=latency,
            evicted=evicted,
            evicted_frame=evicted_frame,
        )

    def resident_pages(self) -> int:
        return self.page_table.resident_count()
