"""Victim-frame selection: random probing plus the clock algorithm.

Section III-A: "The victim page is selected using a clock algorithm (if
an invalid page is not found after probing five random locations)". We
implement exactly that: on each reclaim, probe N random frames for an
invalid (free) one; only when all probes hit valid frames does the clock
hand sweep, clearing reference bits until it finds an unreferenced frame.
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from .page_table import PageTable


class ClockReplacer:
    """Stateful victim selector over a :class:`PageTable`'s frames."""

    def __init__(self, page_table: PageTable, random_probes: int = 5, seed: int = 0):
        if random_probes < 0:
            raise ConfigurationError("random_probes must be non-negative")
        self.page_table = page_table
        self.random_probes = random_probes
        self._rng = random.Random(seed)
        self._hand = 0

    def select_victim(self) -> int:
        """Return the frame to reclaim (free if the probes find one)."""
        # Reads the page table's columns directly rather than through
        # FrameView objects: every reclaim runs this. A frame is free
        # when ``inv`` holds no key for it.
        table = self.page_table
        inv = table.inv
        referenced = table.referenced
        n = len(inv)
        if n == 0:
            raise ConfigurationError("cannot reclaim from a zero-frame memory")

        for _ in range(self.random_probes):
            probe = self._rng.randrange(n)
            if not inv[probe]:
                return probe

        # Clock sweep: give referenced frames a second chance.
        hand = self._hand
        for _ in range(2 * n):
            frame = hand
            hand = (hand + 1) % n
            if not inv[frame] or not referenced[frame]:
                self._hand = hand
                return frame
            referenced[frame] = 0
        # Every frame was referenced twice in a row; take the hand position.
        self._hand = (hand + 1) % n
        return hand
