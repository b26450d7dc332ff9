"""The CAMEO memory organization controller (Sections IV and V).

CAMEO exposes stacked + off-chip DRAM as one OS-visible space and swaps
recently-used lines into stacked DRAM within congruence groups. The
controller here owns the two DRAM devices, the logical
:class:`~repro.core.llt.LineLocationTable`, and a
:class:`~repro.core.llp.LocationPredictor`; subclasses in
:mod:`repro.core.llt_designs` specialise the *timing* of LLT access
(ideal / embedded / co-located) while sharing the swap and paging logic
implemented here.

Device address mapping note: group ``g``'s stacked slot is charged at
device line ``g``. The Co-Located design's 31-LEADs-per-row shift
(:mod:`repro.core.lead`) only changes which row a group lands in, a
second-order row-locality effect under line-interleaved channels, so the
capacity cost is modelled exactly (reserved pages + 66-byte bursts) while
device addressing stays identity.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Set, TYPE_CHECKING

from ..config.system import SystemConfig
from ..dram.device import DramDevice
from ..errors import ConfigurationError, FaultError, SimulationError
from ..organization import AccessResult, MemoryOrganization
from ..request import MemoryRequest
from .congruence import CongruenceSpace
from .llp import LlpCaseStats, LocationPredictor, SamPredictor
from .llt import LineLocationTable

if TYPE_CHECKING:
    from ..faults.auditor import InvariantAuditor
    from ..faults.injector import FaultInjector


class CameoController(MemoryOrganization):
    """Shared CAMEO machinery: congruence space, LLT contents, swap, paging."""

    name = "cameo"

    def __init__(
        self,
        config: SystemConfig,
        predictor: LocationPredictor = None,
        swap_on_write: bool = True,
    ):
        super().__init__(config)
        self.space = CongruenceSpace(
            num_groups=config.stacked_lines, group_size=config.group_size
        )
        # Hot-path copies of the (frozen) space's address arithmetic.
        self._group_mask = self.space.group_mask
        self._group_bits = self.space.group_bits
        self._total_lines = self.space.total_lines
        self.llt = LineLocationTable(self.space)
        # Aliases for the fault-free demand path: the LLT's backing
        # bytearray is mutated in place, never reassigned.
        self._llt_table = self.llt._table
        self._k = self.space.group_size
        self.predictor = predictor if predictor is not None else SamPredictor()
        self.swap_on_write = swap_on_write
        self.case_stats = LlpCaseStats()
        self.stacked = DramDevice(
            config.stacked_timing, config.stacked_bytes, config.line_bytes
        )
        self.offchip = DramDevice(
            config.offchip_timing, config.offchip_bytes, config.line_bytes
        )
        # Fault-recovery state (inert without an attached injector):
        # groups whose stacked slot failed permanently, and the surviving
        # off-chip line each one is remapped to (None = beyond salvage).
        self.decommissioned: Set[int] = set()
        self._remap: Dict[int, Optional[int]] = {}
        self.auditor: Optional["InvariantAuditor"] = None

    # -- Capacity ----------------------------------------------------------------

    @property
    def reserved_pages(self) -> int:
        """Pages hidden from the OS to pay for LLT storage (design-specific)."""
        return 0

    @property
    def visible_pages(self) -> int:
        return self.config.total_pages - self.reserved_pages

    @property
    def stacked_visible_pages(self) -> int:
        # The whole stacked capacity counts toward the address space; the
        # reservation is taken off the top (highest page numbers, which
        # are off-chip). Frames < stacked_pages start stacked-resident.
        return self.config.stacked_pages

    # -- Address helpers ------------------------------------------------------------

    def _stacked_device_line(self, group: int) -> int:
        return group

    def _offchip_device_line(self, group: int, slot: int) -> int:
        return self.space.offchip_device_line(group, slot)

    # -- Demand path -------------------------------------------------------------------

    def access(self, now: float, request: MemoryRequest) -> AccessResult:
        line_addr = request.line_addr
        if 0 <= line_addr < self._total_lines:
            group = line_addr & self._group_mask
            requested_slot = line_addr >> self._group_bits
        else:  # Out of range: split() raises the canonical error.
            group, requested_slot = self.space.split(line_addr)
        if self.fault_injector is None:
            # _dispatch inlined (with the LLT lookup) on the fault-free
            # demand path; the injected path below keeps the full stack.
            actual_slot = self._llt_table[group * self._k + requested_slot]
            if request.is_write:
                if self.swap_on_write:
                    result = self._service_write_swap(
                        now, request, group, requested_slot, actual_slot
                    )
                else:
                    result = self._service_write_in_place(now, group, actual_slot)
            else:
                result = self._service_read(
                    now, request, group, requested_slot, actual_slot
                )
        else:
            result = self._faulty_access(now, request, group, requested_slot)
        self.stats.note(request, result.serviced_by_stacked)
        return result

    def _dispatch(
        self, now: float, request: MemoryRequest, group: int, requested_slot: int
    ) -> AccessResult:
        """The fault-free service path (LLT lookup + design-specific timing)."""
        actual_slot = self.llt.location_of(group, requested_slot)
        if request.is_write:
            if self.swap_on_write:
                return self._service_write_swap(
                    now, request, group, requested_slot, actual_slot
                )
            return self._service_write_in_place(now, group, actual_slot)
        return self._service_read(now, request, group, requested_slot, actual_slot)

    def _faulty_access(
        self, now: float, request: MemoryRequest, group: int, requested_slot: int
    ) -> AccessResult:
        """The demand path under fault injection: inject, audit, recover.

        Permanent faults (stuck rows, exhausted retries) decommission the
        group and fall back to off-chip-only service; an LLT record so
        corrupted that the swap logic trips over it is scrubbed on the
        spot and the access retried once.
        """
        injector = self.fault_injector
        injector.maybe_corrupt_llt(self.llt)
        if self.auditor is not None:
            self.auditor.tick(now)
        if group in self.decommissioned:
            return self._service_decommissioned(now, request, group)
        try:
            return self._dispatch(now, request, group, requested_slot)
        except FaultError:
            self._decommission_group(now, group)
            return self._service_decommissioned(now, request, group)
        except SimulationError:
            # A corrupted group record broke the swap bookkeeping before
            # the audit caught it: scrub the group, then retry once.
            self._repair_group(now, group)
            try:
                return self._dispatch(now, request, group, requested_slot)
            except FaultError:
                self._decommission_group(now, group)
                return self._service_decommissioned(now, request, group)

    @abc.abstractmethod
    def _service_read(
        self,
        now: float,
        request: MemoryRequest,
        group: int,
        requested_slot: int,
        actual_slot: int,
    ) -> AccessResult:
        """Design-specific demand-read timing (includes swap on off-chip hit)."""

    @abc.abstractmethod
    def _service_write_in_place(
        self, now: float, group: int, actual_slot: int
    ) -> AccessResult:
        """Design-specific writeback timing (no location change)."""

    @abc.abstractmethod
    def _service_write_swap(
        self,
        now: float,
        request: MemoryRequest,
        group: int,
        requested_slot: int,
        actual_slot: int,
    ) -> AccessResult:
        """Writeback that upgrades the line into stacked DRAM.

        A writeback is an access too, so by default CAMEO retains the
        written line in stacked memory. Unlike a read swap there is no
        demand fetch: the incoming data fully overwrites the line, so the
        off-chip side of the swap is just the victim's write-out.
        """

    # -- The swap (Section IV-A, "Line Swapping") ------------------------------------------

    def _perform_swap(
        self,
        time: float,
        group: int,
        requested_slot: int,
        actual_slot: int,
        victim_prefetched: bool,
    ) -> None:
        """Move the requested line into the stacked slot, victim out.

        Unlike a cache eviction, the victim is the *only* copy of its
        line, so the off-chip write always happens. ``victim_prefetched``
        is True when the stacked probe already returned the victim's data
        (the Co-Located LEAD read), saving one stacked read. The swap
        uses the writeback/fill queues, i.e. it is off the critical path:
        its device traffic is *posted* at the demand access's completion
        time, so only its bandwidth (device occupancy) affects later
        requests.
        """
        stacked_line = self._stacked_device_line(group)
        offchip_line = self._offchip_device_line(group, actual_slot)
        write_bytes = self._stacked_write_bytes()
        line_bytes = self.config.line_bytes

        # Declarative micro-op record (not a closure): the swap traffic
        # is pure device accesses, so the compiled engine backend can
        # carry it through its own posted heap.
        if victim_prefetched:
            swap_traffic = (
                (self.stacked, stacked_line, write_bytes, True),
                (self.offchip, offchip_line, line_bytes, True),
            )
        else:
            swap_traffic = (
                (self.stacked, stacked_line, line_bytes, False),
                (self.stacked, stacked_line, write_bytes, True),
                (self.offchip, offchip_line, line_bytes, True),
            )
        self.post(time, swap_traffic)
        self.llt.swap_to_stacked(group, requested_slot)
        self.stats.line_swaps += 1

    def _stacked_write_bytes(self) -> int:
        """Bytes per stacked data write (66 for LEAD designs, else 64)."""
        return self.config.line_bytes

    def _stacked_read_bytes(self) -> int:
        """Bytes per stacked data read."""
        return self.config.line_bytes

    # -- Paging traffic ---------------------------------------------------------------------

    def _split_frame_lines(self, frame: int):
        """Partition a frame's lines into stacked- and off-chip-resident.

        A page's lines are consecutive congruence groups sharing one
        requested slot (groups come from the low address bits, and the
        group count is a whole number of pages), so their LLT entries
        are one strided slice of the table. Decommissioned groups serve
        off-chip whatever their entry says.
        """
        per_page = self.config.lines_per_page
        group, requested_slot = self.space.split(frame * per_page)
        k = self._k
        start = group * k + requested_slot
        table = self._llt_table
        stacked_lines = table[start : start + per_page * k : k].count(0)
        dead = self.decommissioned
        if dead:
            for g in range(group, group + per_page):
                if g in dead and table[g * k + requested_slot] == 0:
                    stacked_lines -= 1
        return stacked_lines, per_page - stacked_lines

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

    # -- Fault recovery (Section: robustness extension; docs/robustness.md) ----------------------

    def attach_fault_injector(self, injector: "FaultInjector") -> None:
        """Wire the injector into both devices and start the LLT auditor."""
        super().attach_fault_injector(injector)
        from ..faults.auditor import InvariantAuditor

        self.auditor = InvariantAuditor(
            self.llt,
            repair=self._repair_group,
            interval=injector.config.audit_interval_accesses,
            groups_per_audit=injector.config.audit_groups,
            stats=injector.stats,
        )

    def _repair_group(self, now: float, group: int) -> None:
        """Scrub one corrupted group: rebuild its LLT record, charge traffic.

        The scrub re-reads every line of the group (each line's tag says
        which requested slot it is) and rewrites the stacked entry; that
        traffic is posted — repair is patrol work, not demand work.
        """
        self.llt.repair_group(group)
        if self.fault_injector is not None:
            self.fault_injector.stats.llt_repairs += 1
        stacked_line = self._stacked_device_line(group)
        line_bytes = self.config.line_bytes
        scrub = (
            [(self.stacked, stacked_line, self._stacked_read_bytes(), False)]
            + [
                (self.offchip, self._offchip_device_line(group, slot), line_bytes, False)
                for slot in range(1, self.space.group_size)
            ]
            + [(self.stacked, stacked_line, self._stacked_write_bytes(), True)]
        )
        self.post(now, tuple(scrub))

    def _pick_service_line(self, group: int) -> Optional[int]:
        """A surviving off-chip line to serve a decommissioned group from."""
        for slot in range(1, self.space.group_size):
            line = self._offchip_device_line(group, slot)
            if not self.offchip.is_stuck_line(line):
                return line
        return None

    def _decommission_group(self, now: float, group: int) -> None:
        """Retire a group's stacked slot; degrade to off-chip-only service.

        The stacked-resident line is salvaged (best-effort read, then a
        write into the OS spare pool — modelled at the surviving off-chip
        slot for timing purposes) and the group permanently stops using stacked
        DRAM: no more probes, no more swaps. Idempotent.
        """
        if group in self.decommissioned:
            return
        self.decommissioned.add(group)
        if self.fault_injector is not None:
            self.fault_injector.stats.decommissioned_groups += 1
        service_line = self._pick_service_line(group)
        self._remap[group] = service_line
        if service_line is None:
            return
        stacked_line = self._stacked_device_line(group)
        self.post(now, (
            (self.stacked, stacked_line, self._stacked_read_bytes(), False),
            (self.offchip, service_line, self.config.line_bytes, True),
        ))

    def _service_decommissioned(
        self, now: float, request: MemoryRequest, group: int
    ) -> AccessResult:
        """Serve a retired group entirely from off-chip DRAM.

        If the remap target has since failed too, pick another survivor;
        with no survivors left the access is charged a nominal off-chip
        row-conflict latency (the data now lives only in the OS's page
        cache / storage path) and counted as a dead-group service.
        """
        line = self._remap.get(group)
        if line is not None:
            try:
                res = self.offchip.access_line(now, line, is_write=request.is_write)
                return AccessResult(latency=res.latency, serviced_by_stacked=False)
            except FaultError:
                line = self._pick_service_line(group)
                self._remap[group] = line
                if line is not None:
                    try:
                        res = self.offchip.access_line(
                            now, line, is_write=request.is_write
                        )
                        return AccessResult(
                            latency=res.latency, serviced_by_stacked=False
                        )
                    except FaultError:
                        self._remap[group] = None
        if self.fault_injector is not None:
            self.fault_injector.stats.dead_group_services += 1
        nominal = self.offchip.timing.row_conflict_cycles(self.config.line_bytes)
        return AccessResult(latency=nominal, serviced_by_stacked=False)

    # -- Invariants ------------------------------------------------------------------------------

    def check_invariants(self, sample_groups: int = 64) -> None:
        """Spot-check LLT permutations (cheap enough to call in tests)."""
        step = max(1, self.space.num_groups // sample_groups)
        for group in range(0, self.space.num_groups, step):
            self.llt.check_group_invariant(group)
