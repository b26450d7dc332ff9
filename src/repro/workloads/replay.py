"""Replaying recorded traces through the simulator.

The synthetic generators are the default trace source, but any recorded
stream — e.g. one captured from a real application and saved with
:func:`repro.workloads.trace.write_trace` — can drive the engine. A
:class:`ReplayTraceSource` presents a record sequence through the same
``generate(n)`` / ``footprint_pages`` interface the engine expects, so
the two sources are interchangeable.

A source stores its records as :class:`TraceColumns` — the columnar
arrays the compiled kernel reads in place — and builds
``(virtual_line, pc, is_write)`` tuples only when ``generate`` is
iterated (the python loop, the TLM-Oracle pre-pass, calibration).
Sources built with :meth:`ReplayTraceSource.from_columns` share one set
of columns, so the trace cache and ingested traces hand every context
and every cell the same arrays.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from ..errors import WorkloadError
from ..units import LINES_PER_PAGE
from .trace import RawRecord, TraceRecord, read_trace


class TraceColumns(NamedTuple):
    """One trace in columns: what the kernel reads, shared and immutable.

    ``lines`` and ``pcs`` are ``array('q')``, ``writes`` holds one 0/1
    byte per record. The extremes are kept so the vector engine can size
    its translation map and refuse negative values (which it cannot
    index) without scanning the trace every run.
    """

    lines: array
    pcs: array
    writes: bytearray
    max_line: int
    min_line: int
    min_pc: int

    @classmethod
    def from_records(cls, records: Iterable[RawRecord]) -> "TraceColumns":
        """Columns of ``(virtual_line, pc, is_write)`` tuples (any truthy write)."""
        records = list(records)
        if not records:
            raise WorkloadError("cannot replay an empty trace")
        lines, pcs, writes = (list(map(itemgetter(i), records)) for i in range(3))
        return cls(
            array("q", lines), array("q", pcs), bytearray(map(bool, writes)),
            max(lines), min(lines), min(pcs),
        )

    def records(self, n_accesses: int) -> Iterator[RawRecord]:
        """``n_accesses`` ``(virtual_line, pc, is_write)`` tuples, wrapping past the end."""
        n_accesses = max(n_accesses, 0)
        # One zip per pass over the trace, built when the pass starts;
        # tolist() boxes a pass's ints in one C loop, faster than
        # iterating the arrays.
        passes = (
            zip(self.lines.tolist(), self.pcs.tolist(), map(bool, self.writes))
            for _ in range(-(-n_accesses // len(self.lines)))
        )
        return islice(chain.from_iterable(passes), n_accesses)


class ReplayTraceSource:
    """A fixed record sequence exposed through the generator interface.

    Replays loop when asked for more accesses than the trace holds (the
    usual convention for short traces driving long simulations); set
    ``allow_wrap=False`` to make exhaustion an error instead.
    """

    def __init__(self, records: Sequence[TraceRecord], allow_wrap: bool = True,
                 lines_per_page: int = LINES_PER_PAGE,
                 footprint_pages: Optional[int] = None):
        self._attach(
            TraceColumns.from_records(r.as_raw() for r in records),
            allow_wrap, lines_per_page, footprint_pages,
        )

    def _attach(self, columns: TraceColumns, allow_wrap: bool,
                lines_per_page: int, footprint_pages: Optional[int]) -> None:
        self.columns = columns
        self.allow_wrap = allow_wrap
        self.lines_per_page = lines_per_page
        if footprint_pages is None:
            # Derived footprint: the smallest address space holding the
            # trace. Callers replaying a *generated* stream should pass
            # the generator's nominal footprint instead — high pages the
            # trace happened not to touch still belong to the workload.
            footprint_pages = columns.max_line // lines_per_page + 1
        elif footprint_pages <= 0:
            raise WorkloadError("footprint_pages must be positive")
        self.footprint_pages = footprint_pages

    @classmethod
    def from_file(cls, fp: IO[str], allow_wrap: bool = True) -> "ReplayTraceSource":
        """Load a trace written by :func:`repro.workloads.trace.write_trace`."""
        return cls(read_trace(fp), allow_wrap=allow_wrap)

    @classmethod
    def from_raw(cls, raw: Sequence[RawRecord], allow_wrap: bool = True,
                 lines_per_page: int = LINES_PER_PAGE,
                 footprint_pages: Optional[int] = None) -> "ReplayTraceSource":
        """Wrap raw ``(virtual_line, pc, is_write)`` tuples (no ``TraceRecord`` boxing)."""
        return cls.from_columns(
            TraceColumns.from_records(raw), allow_wrap=allow_wrap,
            lines_per_page=lines_per_page, footprint_pages=footprint_pages,
        )

    @classmethod
    def from_columns(cls, columns: TraceColumns, allow_wrap: bool = True,
                     lines_per_page: int = LINES_PER_PAGE,
                     footprint_pages: Optional[int] = None) -> "ReplayTraceSource":
        """A source over ``columns`` as they are: shared, never copied.

        The constructor the trace cache and ingested traces use; callers
        must not mutate the columns afterwards.
        """
        source = cls.__new__(cls)
        source._attach(columns, allow_wrap, lines_per_page, footprint_pages)
        return source

    def __len__(self) -> int:
        return len(self.columns.lines)

    def generate(self, n_accesses: int) -> Iterator[RawRecord]:
        """``n_accesses`` records, wrapping around if permitted."""
        if not self.allow_wrap and n_accesses > len(self):
            raise WorkloadError(
                f"trace holds {len(self)} records, {n_accesses} requested "
                "and wrapping is disabled"
            )
        return self.columns.records(n_accesses)


def record_synthetic_trace(generator, n_accesses: int) -> List[TraceRecord]:
    """Materialise a synthetic generator's stream as replayable records."""
    return [
        TraceRecord(virtual_line, pc, is_write)
        for virtual_line, pc, is_write in generator.generate(n_accesses)
    ]
