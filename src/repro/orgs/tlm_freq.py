"""TLM-Freq: epoch-based frequency-driven page placement (Section VI-D).

Dedicated hardware counts per-page accesses; periodically the OS swaps
the hottest off-chip pages with the coldest stacked pages. Matching the
paper's idealisation, TLB-shootdown and software sorting overheads are
ignored — only the page-transfer bandwidth is modelled.

The counters live in a dense per-frame column (shared zero-copy with
the compiled engine); candidate ordering breaks count ties by ascending
frame index, which is deterministic and identical in both backends.
"""

from __future__ import annotations

from array import array
from typing import Tuple

from ..config.system import SystemConfig
from ..errors import ConfigurationError
from ..request import MemoryRequest
from ..units import line_to_page
from .tlm import TlmBase


class TlmFreq(TlmBase):
    """Hottest-page promotion every ``epoch_accesses`` memory requests."""

    name = "tlm-freq"

    def __init__(
        self,
        config: SystemConfig,
        epoch_accesses: int = 2000,
        max_migrations_per_epoch: int = 64,
        hysteresis: float = 2.0,
        min_promote_count: int = 24,
    ):
        super().__init__(config)
        if epoch_accesses <= 0 or max_migrations_per_epoch <= 0:
            raise ConfigurationError("epoch length and migration budget must be positive")
        if hysteresis < 1.0:
            raise ConfigurationError("hysteresis below 1 would thrash borderline pages")
        self.epoch_accesses = epoch_accesses
        self.max_migrations_per_epoch = max_migrations_per_epoch
        self.hysteresis = hysteresis
        self.min_promote_count = min_promote_count
        self._counts = array("q", bytes(8 * config.total_pages))
        self._accesses_in_epoch = 0

    def columnar_state(self) -> Tuple[array]:
        """(counts,) column for the compiled engine (zero-copy)."""
        return (self._counts,)

    def _after_access(self, time: float, request: MemoryRequest) -> None:
        frame = line_to_page(request.line_addr, self.config.lines_per_page)
        self._counts[frame] += 1
        self._accesses_in_epoch += 1
        if self._accesses_in_epoch >= self.epoch_accesses:
            self.service_epoch(time)

    def service_epoch(self, time: float) -> None:
        """Rebalance at an epoch boundary, then decay the counters.

        The compiled kernel runs a C mirror of this method (and of
        :meth:`_rebalance`) at the same point of the access; this one
        serves the python loop and the accesses a kernel bail replays,
        and it is the reference the kernel is tested against.
        """
        self._rebalance(time)
        self._accesses_in_epoch = 0
        # Exponential decay rather than a hard clear: genuinely hot
        # pages accumulate history across epochs, so a single burst
        # of accesses to a cold page never outranks them.
        counts = self._counts
        for frame, count in enumerate(counts):
            if count:
                counts[frame] = count >> 1

    def _rebalance(self, time: float) -> None:
        """Swap hot off-chip pages with cold stacked pages."""
        boundary = self.config.stacked_pages
        counts = self._counts
        hot_offchip = sorted(
            (
                f for f in range(boundary, len(counts))
                if counts[f] >= self.min_promote_count
            ),
            key=counts.__getitem__,
            reverse=True,
        )[: self.max_migrations_per_epoch]
        if not hot_offchip:
            return
        # Cold stacked frames: untouched ones first, then ascending count.
        cold_stacked = [f for f in range(boundary) if not counts[f]]
        cold_stacked.extend(
            sorted(
                (f for f in range(boundary) if counts[f]),
                key=counts.__getitem__,
            )
        )

        for offchip_frame, stacked_frame in zip(hot_offchip, cold_stacked):
            hot_count = counts[offchip_frame]
            cold_count = counts[stacked_frame]
            # Hysteresis: a page must be clearly hotter than the victim,
            # else borderline pairs ping-pong every epoch and the 16 KB
            # swap traffic eats the benefit.
            if hot_count <= self.hysteresis * cold_count:
                break  # Remaining pairs are even colder; stop migrating.
            self.migrate_swap(time, offchip_frame, stacked_frame)
            counts[offchip_frame] = cold_count
            counts[stacked_frame] = hot_count
