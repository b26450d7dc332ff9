"""CAMEO extensions beyond the paper's evaluated design.

Two directions the paper explicitly points at:

* :class:`FreqHintCameo` — Section VI-D closes with "if page frequency
  information is available, CAMEO can retain lines from only heavily
  used pages in stacked DRAM". This variant takes the same profiled
  hot-page set TLM-Oracle uses and *filters the swap*: off-chip reads to
  lines of cold pages are serviced in place, so streaming sweeps stop
  evicting the hot set and stop paying swap bandwidth.

* :class:`SetAssociativeCameo` — footnote 3 blames CAMEO/DoubleUse
  conflict misses on the direct-mapped congruence structure (libquantum
  loses to TLM-Dynamic purely through conflicts). This variant groups
  ``ways`` adjacent congruence groups into one super-group whose lines
  may occupy any of its ``ways`` stacked slots, with LRU among them —
  trading an occasional second stacked probe for fewer conflicts, the
  same trade DRAM-cache papers (and CAMEO's follow-ons) explore.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, TYPE_CHECKING

from ..config.system import SystemConfig
from ..dram.device import DramDevice
from ..errors import ConfigurationError, SimulationError
from ..organization import AccessResult, MemoryOrganization
from ..request import MemoryRequest
from ..units import log2_exact
from ..vm.page_table import VirtualPage
from .lead import LEAD_BYTES
from .llp import LocationPredictor, SamPredictor
from .llt_designs import CoLocatedLltCameo

if TYPE_CHECKING:
    from ..vm.memory_manager import MemoryManager


class FreqHintCameo(CoLocatedLltCameo):
    """Co-Located CAMEO that only retains lines of profiled-hot pages.

    The filter applies to the *swap decision*: cold-page lines are still
    read from wherever they live (timing identical to a SAM/LLP
    off-chip access), they just do not displace a stacked-resident line.
    """

    name = "cameo-freq-hint"

    def __init__(
        self,
        config: SystemConfig,
        predictor: Optional[LocationPredictor] = None,
        hot_vpages: FrozenSet[VirtualPage] = frozenset(),
        swap_on_write: bool = True,
    ):
        super().__init__(
            config,
            predictor=predictor if predictor is not None else SamPredictor(),
            swap_on_write=swap_on_write,
        )
        self.hot_vpages = frozenset(hot_vpages)
        self.filtered_swaps = 0

    def _frame_is_hot(self, frame: int) -> bool:
        if self.memory_manager is None:
            return True  # Unbound (unit tests): behave like plain CAMEO.
        vpage = self.memory_manager.page_table.vpage_of(frame)
        return vpage is not None and vpage in self.hot_vpages

    def _perform_swap(self, time, group, requested_slot, actual_slot,
                      victim_prefetched):
        frame = self.space.join(group, requested_slot) // self.config.lines_per_page
        if not self._frame_is_hot(frame):
            self.filtered_swaps += 1
            return
        super()._perform_swap(
            time, group, requested_slot, actual_slot, victim_prefetched
        )


class SuperGroupTable:
    """Requested-slot -> physical-slot permutations over super-groups.

    A super-group has ``ways * group_size`` line slots; physical slots
    ``0..ways-1`` are its stacked-DRAM locations.
    """

    def __init__(self, num_supergroups: int, ways: int, group_size: int):
        self.num_supergroups = num_supergroups
        self.ways = ways
        self.slots = ways * group_size
        self._table = bytearray(
            s for _ in range(num_supergroups) for s in range(self.slots)
        )
        # LRU state: the least-recently-filled stacked way per super-group.
        self._lru_way = bytearray(num_supergroups)

    def location_of(self, supergroup: int, requested_slot: int) -> int:
        return self._table[supergroup * self.slots + requested_slot]

    def is_stacked(self, supergroup: int, requested_slot: int) -> bool:
        return self.location_of(supergroup, requested_slot) < self.ways

    def victim_way(self, supergroup: int) -> int:
        return self._lru_way[supergroup]

    def note_use(self, supergroup: int, way: int) -> None:
        """Mark ``way`` as MRU (two-way LRU: the other way becomes victim)."""
        if self.ways == 2:
            self._lru_way[supergroup] = 1 - way
        else:
            self._lru_way[supergroup] = (way + 1) % self.ways

    def resident_requested_slot(self, supergroup: int, way: int) -> int:
        base = supergroup * self.slots
        for requested in range(self.slots):
            if self._table[base + requested] == way:
                return requested
        raise SimulationError(
            f"super-group {supergroup} has no line in stacked way {way}"
        )

    def swap_to_way(self, supergroup: int, requested_slot: int, way: int) -> int:
        """Move ``requested_slot`` into stacked ``way``; returns the slot
        it vacated (where the displaced line now lives)."""
        base = supergroup * self.slots
        old_slot = self._table[base + requested_slot]
        if old_slot == way:
            return old_slot
        victim_requested = self.resident_requested_slot(supergroup, way)
        self._table[base + requested_slot] = way
        self._table[base + victim_requested] = old_slot
        return old_slot

    def check_invariant(self, supergroup: int) -> None:
        base = supergroup * self.slots
        mapping = sorted(self._table[base : base + self.slots])
        if mapping != list(range(self.slots)):
            raise SimulationError(
                f"super-group {supergroup} mapping is not a permutation"
            )


class SetAssociativeCameo(MemoryOrganization):
    """A ``ways``-associative CAMEO with co-located-LLT-style timing.

    Address math: with N stacked lines and W ways, there are N/W
    super-groups selected by the low ``log2(N/W)`` bits of the line
    address; the remaining high bits index one of ``W * K`` slots.

    Timing model: the controller probes the MRU stacked way (a LEAD
    read, which carries the super-group's full location entry). A line
    in the other stacked way costs a second stacked access; an off-chip
    line is fetched serially after the probe (SAM — associativity and
    prediction compose, but SAM isolates the associativity effect).
    """

    name = "cameo-assoc"

    def __init__(self, config: SystemConfig, ways: int = 2,
                 swap_on_write: bool = True):
        super().__init__(config)
        if ways < 1 or config.stacked_lines % ways:
            raise ConfigurationError("ways must divide the stacked line count")
        self.ways = ways
        self.swap_on_write = swap_on_write
        self.num_supergroups = config.stacked_lines // ways
        if self.num_supergroups & (self.num_supergroups - 1):
            raise ConfigurationError("super-group count must be a power of two")
        self._sg_bits = log2_exact(self.num_supergroups)
        self.slots = ways * config.group_size
        self.table = SuperGroupTable(self.num_supergroups, ways, config.group_size)
        self.stacked = DramDevice(
            config.stacked_timing, config.stacked_bytes, config.line_bytes
        )
        self.offchip = DramDevice(
            config.offchip_timing, config.offchip_bytes, config.line_bytes
        )
        self.second_probe_count = 0

    # -- Capacity (same 1/32 LEAD reservation as co-located CAMEO) ------------

    @property
    def reserved_pages(self) -> int:
        return self.config.stacked_pages // 32

    @property
    def visible_pages(self) -> int:
        return self.config.total_pages - self.reserved_pages

    @property
    def stacked_visible_pages(self) -> int:
        return self.config.stacked_pages

    # -- Address math -----------------------------------------------------------

    def split(self, line_addr: int):
        return line_addr & (self.num_supergroups - 1), line_addr >> self._sg_bits

    def _stacked_device_line(self, supergroup: int, way: int) -> int:
        return (way << self._sg_bits) | supergroup

    def _offchip_device_line(self, supergroup: int, phys_slot: int) -> int:
        return ((phys_slot - self.ways) << self._sg_bits) | supergroup

    # -- Demand path ---------------------------------------------------------------

    def access(self, now: float, request: MemoryRequest) -> AccessResult:
        supergroup, requested_slot = self.split(request.line_addr)
        phys = self.table.location_of(supergroup, requested_slot)
        if request.is_write and self.swap_on_write:
            result = self._service_write_swap(now, supergroup, requested_slot, phys)
        elif request.is_write:
            result = self._service_write_in_place(now, supergroup, phys)
        else:
            result = self._service_read(now, supergroup, requested_slot, phys)
        self.stats.note(request, result.serviced_by_stacked)
        return result

    def _probe(self, now: float, supergroup: int, way: int):
        return self.stacked.access(
            now, self._stacked_device_line(supergroup, way), LEAD_BYTES
        )

    def _service_read(self, now, supergroup, requested_slot, phys):
        mru_way = (self.table.victim_way(supergroup) + 1) % max(self.ways, 1) \
            if self.ways > 1 else 0
        probe = self._probe(now, supergroup, mru_way)
        if phys < self.ways:
            if phys == mru_way:
                latency = probe.latency
            else:
                # Second stacked probe: the associativity tax.
                self.second_probe_count += 1
                second = self._probe(now + probe.latency, supergroup, phys)
                latency = probe.latency + second.latency
            self.table.note_use(supergroup, phys)
            return AccessResult(latency=latency, serviced_by_stacked=True)

        # Off-chip: serial fetch, then swap into the LRU way.
        res = self.offchip.access_line(
            now + probe.latency, self._offchip_device_line(supergroup, phys)
        )
        latency = probe.latency + res.latency
        self._swap_in(now + latency, supergroup, requested_slot, phys)
        return AccessResult(latency=latency, serviced_by_stacked=False)

    def _swap_in(self, time, supergroup, requested_slot, phys):
        way = self.table.victim_way(supergroup)
        stacked_line = self._stacked_device_line(supergroup, way)
        offchip_line = self._offchip_device_line(supergroup, phys)

        def do_swap_traffic(t: float) -> None:
            self.stacked.access(t, stacked_line, LEAD_BYTES)        # victim out
            self.stacked.access(t, stacked_line, LEAD_BYTES, True)  # line in
            self.offchip.access_line(t, offchip_line, True)         # victim home

        self.post(time, do_swap_traffic)
        self.table.swap_to_way(supergroup, requested_slot, way)
        self.table.note_use(supergroup, way)
        self.stats.line_swaps += 1

    def _service_write_swap(self, now, supergroup, requested_slot, phys):
        probe = self._probe(now, supergroup, 0)
        if phys < self.ways:
            line = self._stacked_device_line(supergroup, phys)
            self.post(
                now + probe.latency,
                lambda t: self.stacked.access(t, line, LEAD_BYTES, True),
            )
            self.table.note_use(supergroup, phys)
            return AccessResult(latency=probe.latency, serviced_by_stacked=True)
        self._swap_in(now + probe.latency, supergroup, requested_slot, phys)
        return AccessResult(latency=probe.latency, serviced_by_stacked=False)

    def _service_write_in_place(self, now, supergroup, phys):
        probe = self._probe(now, supergroup, 0)
        if phys < self.ways:
            line = self._stacked_device_line(supergroup, phys)
            self.post(
                now + probe.latency,
                lambda t: self.stacked.access(t, line, LEAD_BYTES, True),
            )
            return AccessResult(latency=probe.latency, serviced_by_stacked=True)
        line = self._offchip_device_line(supergroup, phys)
        self.post(
            now + probe.latency,
            lambda t: self.offchip.access_line(t, line, is_write=True),
        )
        return AccessResult(latency=probe.latency, serviced_by_stacked=False)

    # -- Paging ---------------------------------------------------------------------

    def _split_frame_lines(self, frame: int):
        stacked_lines = 0
        offchip_lines = 0
        for line in self._frame_lines(frame):
            supergroup, requested_slot = self.split(line)
            if self.table.is_stacked(supergroup, requested_slot):
                stacked_lines += 1
            else:
                offchip_lines += 1
        return stacked_lines, offchip_lines

    def page_fill(self, now: float, frame: int) -> None:
        n_stacked, n_offchip = self._split_frame_lines(frame)
        first = frame * self.config.lines_per_page
        if n_stacked:
            self.stacked.stream(now, first, n_stacked, is_write=True)
        if n_offchip:
            self.offchip.stream(now, first, n_offchip, is_write=True)

    def page_drain(self, now: float, frame: int) -> None:
        n_stacked, n_offchip = self._split_frame_lines(frame)
        first = frame * self.config.lines_per_page
        if n_stacked:
            self.stacked.stream(now, first, n_stacked, is_write=False)
        if n_offchip:
            self.offchip.stream(now, first, n_offchip, is_write=False)

    def devices(self) -> Dict[str, DramDevice]:
        return {"stacked": self.stacked, "offchip": self.offchip}

    def check_invariants(self, sample: int = 64) -> None:
        step = max(1, self.num_supergroups // sample)
        for supergroup in range(0, self.num_supergroups, step):
            self.table.check_invariant(supergroup)
