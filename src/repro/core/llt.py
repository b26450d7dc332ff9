"""The Line Location Table: the logical mapping CAMEO maintains (Section IV-B).

For every congruence group, the LLT records which *physical slot* each
*requested slot* currently occupies. Each per-group record is a
permutation of ``0..K-1`` (there is exactly one copy of every line in
memory, so two requested lines can never share a physical slot).

This module is the *contents* of the table. How the table is stored and
what its lookups cost (SRAM / embedded / co-located with data) is
modelled separately in :mod:`repro.core.llt_designs`.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import SimulationError
from .congruence import CongruenceSpace


class LineLocationTable:
    """Per-group requested-slot -> physical-slot permutations.

    Storage is a flat ``bytearray`` of ``N * K`` two-bit-conceptual (one
    byte actual) entries, matching the paper's one-byte-per-group budget
    for K = 4 at Python-friendly granularity.
    """

    def __init__(self, space: CongruenceSpace):
        self.space = space
        k = space.group_size
        self._k = k  # hot-path copy of the group size
        # Identity mapping: requested slot s starts at physical slot s
        # (Figure 5's initial state).
        self._table = bytearray(bytes(range(k)) * space.num_groups)
        # Cached inverse for the hot path: which requested slot sits in
        # physical slot 0 of each group. Identity mapping -> requested 0.
        self._resident = bytearray(space.num_groups)
        # Groups whose record may no longer be a permutation (fault
        # injection); lookups there fall back to scanning the record so
        # corruption keeps its observable semantics.
        self._suspect_groups = set()

    # -- Lookups ---------------------------------------------------------------

    def location_of(self, group: int, requested_slot: int) -> int:
        """Physical slot currently holding ``requested_slot`` of ``group``."""
        return self._table[group * self._k + requested_slot]

    def resident_requested_slot(self, group: int) -> int:
        """Which requested slot currently occupies the stacked slot (0).

        O(1) via the cached inverse; corrupted groups (fault injection)
        fall back to scanning the stored record.
        """
        if group in self._suspect_groups:
            return self._scan_resident(group)
        return self._resident[group]

    def _scan_resident(self, group: int) -> int:
        base = group * self.space.group_size
        k = self.space.group_size
        for requested in range(k):
            if self._table[base + requested] == 0:
                return requested
        raise SimulationError(f"group {group} has no stacked-resident line")

    def group_mapping(self, group: int) -> Tuple[int, ...]:
        """The full requested->physical permutation of ``group``."""
        base = group * self.space.group_size
        return tuple(self._table[base : base + self.space.group_size])

    def is_stacked_resident(self, group: int, requested_slot: int) -> bool:
        return self.location_of(group, requested_slot) == 0

    # -- The swap (Figure 5) -----------------------------------------------------

    def swap_to_stacked(self, group: int, requested_slot: int) -> int:
        """Upgrade ``requested_slot`` into the stacked slot of its group.

        The line previously in the stacked slot moves to wherever the
        upgraded line was (which is how Line B ends up at Line D's
        original off-chip location in Figure 5).

        Returns:
            The physical slot the upgraded line vacated, i.e. where the
            demoted (victim) line must be written.
        """
        base = group * self.space.group_size
        old_slot = self._table[base + requested_slot]
        if old_slot == 0:
            return 0  # Already stacked-resident; nothing to do.
        victim_requested = self.resident_requested_slot(group)
        self._table[base + requested_slot] = 0
        self._table[base + victim_requested] = old_slot
        self._resident[group] = requested_slot
        return old_slot

    # -- Fault modeling (used by repro.faults) -------------------------------------

    def corrupt_entry(self, group: int, requested_slot: int, value: int) -> None:
        """Overwrite one location entry with an arbitrary slot value.

        Models a bit flip in the stored entry: the value still *looks*
        valid (it indexes a real slot) but the group may silently stop
        being a permutation. Only the fault injector calls this.
        """
        if not 0 <= value < self.space.group_size:
            raise SimulationError(f"corrupt value {value} is not a slot index")
        self._table[group * self.space.group_size + requested_slot] = value
        # The cached inverse can no longer be trusted for this group.
        self._suspect_groups.add(group)

    def repair_group(self, group: int) -> None:
        """Rebuild a corrupted group's record as the identity permutation.

        Models a scrub that re-reads every line of the group and rewrites
        the entry from the lines' self-identifying tags (the data knows
        which requested slot it is); the caller charges that traffic. The
        simulator has no per-line data to recover, so the repaired state
        is deterministically the identity mapping.
        """
        base = group * self.space.group_size
        self._table[base : base + self.space.group_size] = bytes(
            range(self.space.group_size)
        )
        self._resident[group] = 0
        self._suspect_groups.discard(group)

    # -- Invariants (used by tests and debug assertions) --------------------------

    def check_group_invariant(self, group: int) -> None:
        """Raise :class:`SimulationError` if the group is not a permutation."""
        mapping = self.group_mapping(group)
        if sorted(mapping) != list(range(self.space.group_size)):
            raise SimulationError(
                f"group {group} mapping {mapping} is not a permutation"
            )

    def stacked_residency_histogram(self) -> List[int]:
        """Count, per requested slot index, how many groups hold it stacked.

        Index 0 of the result counts groups still holding their "home"
        line; a heavily-swapped run shifts weight to higher slots.
        """
        counts = [0] * self.space.group_size
        for group in range(self.space.num_groups):
            counts[self.resident_requested_slot(group)] += 1
        return counts
