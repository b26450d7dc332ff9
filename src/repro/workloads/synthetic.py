"""Synthetic SPEC-like L3-miss stream generation.

Each context (rate-mode copy) runs its own seeded generator over a
private virtual address space. Every access comes from one of three
components, mixed per the workload's knobs:

* **hot** — a uniformly-reused working set of ``hot_fraction`` of the
  footprint (temporal locality: what stacked-DRAM residency captures);
* **stream** — a sequential sweep of the whole footprint, visiting
  ``lines_used_per_page`` evenly-spaced lines per page (spatial locality
  and capacity pressure; sparse sweeps are what punish page-granularity
  migration);
* **random** — uniform over the footprint (the unpredictable tail).

Each component draws its PCs from a private pool, which is what gives
the PC-indexed predictors (LLP, MAP-I) their realistic correlation: hot
PCs keep finding stacked-resident lines, stream PCs keep finding
untouched lines whose location is their region's identity slot.

:meth:`SyntheticTraceGenerator.generate` is the reference. Producers
that want the whole trace as :class:`~repro.workloads.replay.TraceColumns`
(the trace cache, the vector engine, the TLM-Oracle profile) call
:meth:`SyntheticTraceGenerator.columns`, which runs the same draws in
the compiled kernel (``rk_gen_synthetic``) on a mirror of the same
MT19937 state when the kernel loads, and ``generate`` otherwise; the
arrays are identical either way.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from typing import Iterator, List, Optional

from ..errors import WorkloadError
from ..units import LINES_PER_PAGE
from .replay import TraceColumns
from .spec import WorkloadSpec
from .trace import RawRecord

#: Base instruction address for the generated PC pools. The three
#: component pools are laid out contiguously from here so that distinct
#: PCs occupy distinct entries of the PC-indexed predictor tables (which
#: hash ``pc >> 2`` modulo the table size).
_PC_BASE = 0x400000


class SyntheticTraceGenerator:
    """Seeded, restartable miss-stream generator for one context."""

    def __init__(
        self,
        spec: WorkloadSpec,
        footprint_pages: int,
        seed: int = 0,
        lines_per_page: int = LINES_PER_PAGE,
    ):
        if footprint_pages <= 0:
            raise WorkloadError(f"{spec.name}: footprint must be at least one page")
        self.spec = spec
        self.footprint_pages = footprint_pages
        self.lines_per_page = lines_per_page
        self.seed = seed

        self.hot_pages = max(1, int(footprint_pages * spec.hot_fraction))
        self.stride = max(1, lines_per_page // spec.lines_used_per_page)
        #: Line offsets actually touched within a page.
        self.used_offsets: List[int] = list(range(0, lines_per_page, self.stride))[
            : spec.lines_used_per_page
        ]
        hot_n, stream_n = spec.pc_pool_hot, spec.pc_pool_stream
        self._pc_hot = [_PC_BASE + 4 * i for i in range(hot_n)]
        self._pc_stream = [_PC_BASE + 4 * (hot_n + i) for i in range(stream_n)]
        self._pc_random = [
            _PC_BASE + 4 * (hot_n + stream_n + i) for i in range(spec.pc_pool_random)
        ]

    @property
    def footprint_lines(self) -> int:
        return self.footprint_pages * self.lines_per_page

    def columns(self, n_accesses: int) -> TraceColumns:
        """``generate(n_accesses)`` as trace columns, byte for byte.

        The compiled kernel writes them when it loads; otherwise, or for
        a range its random mirror does not cover, they are built from
        :meth:`generate`.
        """
        from ..sim._kernel_build import load_kernel

        lib = load_kernel()
        columns = None
        if lib is not None and n_accesses > 0:
            columns = self._kernel_columns(lib, n_accesses)
        if columns is None:
            columns = TraceColumns.from_records(self.generate(n_accesses))
        return columns

    def _kernel_columns(self, lib, n_accesses: int) -> Optional[TraceColumns]:
        """``rk_gen_synthetic``'s columns, or None where it declines."""
        spec = self.spec
        scalars = array("q", [
            n_accesses, self.lines_per_page, self.stride, len(self.used_offsets),
            self.hot_pages, self.footprint_pages, spec.burst_length, _PC_BASE,
            spec.pc_pool_hot, spec.pc_pool_stream, spec.pc_pool_random,
            0, 0, 0,  # out: max line, min line, min pc
        ])
        reals = array("d", [
            spec.hot_access_prob, spec.hot_access_prob + spec.stream_prob,
            spec.write_fraction, spec.hot_skew,
        ])
        # Seeding stays in Python, so any seed Random accepts works.
        words = array("q", random.Random(self.seed).getstate()[1])
        # Exactly sized (repetition allocates no spare capacity), so an
        # overrun reaches a sanitizer build's redzone.
        lines = array("q", [0]) * n_accesses
        pcs = array("q", [0]) * n_accesses
        writes = bytearray(n_accesses)
        view = (ctypes.c_char * n_accesses).from_buffer(writes)
        rc = lib.rk_gen_synthetic(
            scalars.buffer_info()[0], reals.buffer_info()[0],
            words.buffer_info()[0], lines.buffer_info()[0],
            pcs.buffer_info()[0], ctypes.addressof(view),
        )
        del view  # release the export: the bytearray stays resizable
        if rc != 0:
            return None
        return TraceColumns(lines, pcs, writes, *scalars[-3:])

    def generate(self, n_accesses: int) -> Iterator[RawRecord]:
        """Yield ``n_accesses`` raw ``(virtual_line, pc, is_write)`` events.

        Deterministic for a given (spec, footprint, seed): restarting the
        generator replays the identical stream, which is what makes the
        TLM-Oracle profiling pre-pass sound.
        """
        rng = random.Random(self.seed)
        spec = self.spec
        per_page = self.lines_per_page
        used = self.used_offsets
        n_used = len(used)
        hot_pages = self.hot_pages
        footprint_pages = self.footprint_pages
        p_hot = spec.hot_access_prob
        p_stream_cum = p_hot + spec.stream_prob
        write_fraction = spec.write_fraction
        burst = spec.burst_length
        pc_hot, pc_stream, pc_random = self._pc_hot, self._pc_stream, self._pc_random

        hot_skew = spec.hot_skew
        stream_page = 0
        stream_idx = 0
        # Per-component page-burst state: [page, pc, remaining, offset_idx].
        # One instruction misses to one page for a few events, walking
        # *distinct* lines sequentially — the L3 filters short-term line
        # re-references, so the miss stream a page produces is a sweep of
        # its lines, not random repeats. This is the PC<->location
        # correlation the LLP exploits (Section V-B).
        hot_burst = [0, pc_hot[0], 0, 0]
        random_burst = [0, pc_random[0], 0, 0]

        for _ in range(n_accesses):
            draw = rng.random()
            if draw < p_hot:
                if hot_burst[2] <= 0:
                    page = int(hot_pages * rng.random() ** hot_skew)
                    hot_burst[0] = page
                    # Page affinity: the same instruction touches the same
                    # structure, so prediction state follows the page.
                    hot_burst[1] = pc_hot[page % len(pc_hot)]
                    hot_burst[2] = rng.randrange(1, 2 * burst)
                    hot_burst[3] = rng.randrange(n_used)
                hot_burst[2] -= 1
                page, pc = hot_burst[0], hot_burst[1]
                offset = used[hot_burst[3]]
                hot_burst[3] = (hot_burst[3] + 1) % n_used
            elif draw < p_stream_cum:
                offset = used[stream_idx]
                page = stream_page
                pc = pc_stream[rng.randrange(len(pc_stream))]
                stream_idx += 1
                if stream_idx >= n_used:
                    stream_idx = 0
                    stream_page += 1
                    if stream_page >= footprint_pages:
                        stream_page = 0
            else:
                if random_burst[2] <= 0:
                    # Irregular accesses wander the *cold* region: the hot
                    # set has its own instructions, so a cold-access PC's
                    # lines share their (off-chip) location fate — the
                    # bimodality behind the paper's 92% LLP accuracy.
                    if footprint_pages > hot_pages:
                        random_burst[0] = rng.randrange(hot_pages, footprint_pages)
                    else:
                        random_burst[0] = rng.randrange(footprint_pages)
                    random_burst[1] = pc_random[random_burst[0] % len(pc_random)]
                    random_burst[2] = rng.randrange(1, 2 * burst)
                    random_burst[3] = rng.randrange(n_used)
                random_burst[2] -= 1
                page, pc = random_burst[0], random_burst[1]
                offset = used[random_burst[3]]
                random_burst[3] = (random_burst[3] + 1) % n_used

            is_write = rng.random() < write_fraction
            yield (page * per_page + offset, pc, is_write)
