"""Content-addressed materialization of synthetic traces.

Every run of a (workload, seed) pair regenerated its access stream from
scratch, even though the baseline/cache/tlm/cameo runs of one experiment
cell consume the *identical* trace. This module materializes the
per-context stream once per content key and replays it through the
existing :mod:`repro.workloads.replay` path:

* **key** — the tuple of the generator's inputs: (workload spec,
  footprint pages, generator seed, lines per page, trace length). The
  spec is a frozen dataclass, equal to another exactly when every knob
  is, so two requests share an entry exactly when the generator would
  emit byte-identical streams.
* **entry** — one :class:`~repro.workloads.replay.TraceColumns` per
  key: ``array('q')`` lines and pcs, a 0/1 write-flag ``bytearray`` and
  the extremes. These are the arrays the compiled kernel reads, so every
  cell replaying a key hands the kernel the same buffers; tuples are
  built only for the consumers that iterate ``generate``.
* **memory layer** — an LRU of entries inside the process, bounded by
  the total records it holds (17 bytes each); this is what makes a
  five-organization sweep generate each trace once.

There is no disk layer: a miss is regenerated, which in C is faster
than reading the same columns back from a file, even from a warm page
cache (see ``docs/modeling.md``). Forked pool workers inherit the
parent's entries copy-on-write; workers started any other way generate
their own.

The default mode is selected by ``REPRO_TRACE_CACHE``: ``memory`` (the
default) or ``off`` (every run regenerates, the pre-cache behavior).
Replaying a materialized trace is bit-for-bit equivalent to running
the generator: the cache stores exactly what
``SyntheticTraceGenerator.generate(n)`` yields, so ``RunResult``s are
unchanged whichever path served the stream. A miss is generated by
``SyntheticTraceGenerator.columns(n)`` — the compiled kernel's copy of
the generator when it loads, ``generate`` itself otherwise — straight
into the entry's columns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..errors import EnvKnobError, WorkloadError
from .mixes import per_context_footprint_pages, rate_mode_seed
from .replay import ReplayTraceSource, TraceColumns
from .spec import WorkloadSpec
from .synthetic import SyntheticTraceGenerator

#: Mode knob: "memory" (default) or "off".
MODE_ENV_VAR = "REPRO_TRACE_CACHE"
#: Memory-layer budget in records, across all entries. A record costs
#: 17 bytes as columns (two int64 and a flag byte); 5.76M records is
#: ~98 MB, the ceiling 64 tuple traces (~128 bytes a record) had at the
#: default 12,000 accesses/context — now 480 such traces.
DEFAULT_MAX_RECORDS = 5_760_000

_VALID_MODES = ("memory", "off")


@dataclass
class TraceCacheStats:
    """Hit/miss accounting for one :class:`TraceCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class TraceCache:
    """LRU of materialized traces, held in this process.

    ``max_records`` bounds the records held across all entries; the
    least recently used entries are evicted past it, but never the one
    just materialized.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS):
        if max_records <= 0:
            raise WorkloadError("trace cache needs a positive record budget")
        self.max_records = max_records
        self.stats = TraceCacheStats()
        self._entries: "OrderedDict[tuple, TraceColumns]" = OrderedDict()
        self._records = 0

    def __len__(self) -> int:
        return len(self._entries)

    def materialize(
        self,
        spec: WorkloadSpec,
        footprint_pages: int,
        seed: int,
        lines_per_page: int,
        n_accesses: int,
    ) -> TraceColumns:
        """The trace for this key: cached when possible, generated once.

        The returned columns are shared between callers (and handed to
        the kernel as they are), so they must be treated as immutable.
        """
        if n_accesses <= 0:
            raise WorkloadError("n_accesses must be positive")
        key = (spec, footprint_pages, seed, lines_per_page, n_accesses)
        columns = self._entries.get(key)
        if columns is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return columns
        self.stats.misses += 1
        columns = SyntheticTraceGenerator(
            spec, footprint_pages, seed=seed, lines_per_page=lines_per_page
        ).columns(n_accesses)
        self._entries[key] = columns
        self._records += len(columns.lines)
        while self._records > self.max_records and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._records -= len(evicted.lines)
            self.stats.evictions += 1
        return columns

    def source(
        self,
        spec: WorkloadSpec,
        footprint_pages: int,
        seed: int,
        lines_per_page: int,
        n_accesses: int,
    ) -> ReplayTraceSource:
        """A replay source over the materialized trace's own columns.

        Exposes the generator's *nominal* footprint (not the touched
        span), so engine pretouch and paging behave identically to a
        live generator.
        """
        columns = self.materialize(
            spec, footprint_pages, seed, lines_per_page, n_accesses
        )
        return ReplayTraceSource.from_columns(
            columns,
            lines_per_page=lines_per_page,
            footprint_pages=footprint_pages,
        )

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._records = 0


# -- The process-wide default cache --------------------------------------------

_default_cache: Optional[TraceCache] = None
#: Set inside :func:`trace_cache_disabled`, whatever the env knob says.
_disabled = False


def _env_mode() -> str:
    mode = os.environ.get(MODE_ENV_VAR, "memory").strip().lower()
    if mode not in _VALID_MODES:
        raise EnvKnobError(
            f"{MODE_ENV_VAR}={mode!r} is not a trace-cache mode; "
            f"accepted values: {', '.join(_VALID_MODES)}"
        )
    return mode


def default_trace_cache() -> Optional[TraceCache]:
    """The process-wide cache, or None when caching is off.

    The instance is created lazily, the first time ``REPRO_TRACE_CACHE``
    allows one, and kept until :func:`clear_default_trace_cache`.
    """
    global _default_cache
    if _disabled or _env_mode() == "off":
        return None
    if _default_cache is None:
        _default_cache = TraceCache()
    return _default_cache


def clear_default_trace_cache() -> None:
    """Drop the process-wide cache and every trace it holds."""
    global _default_cache
    if _default_cache is not None:
        _default_cache.clear()
    _default_cache = None


@contextlib.contextmanager
def trace_cache_disabled():
    """Temporarily run with the trace cache off (cold-generation path)."""
    global _disabled
    previous = _disabled
    _disabled = True
    try:
        yield
    finally:
        _disabled = previous


def materialized_rate_mode_sources(
    spec: WorkloadSpec,
    config,
    base_seed: int,
    n_accesses: int,
    cache: Optional[TraceCache] = None,
):
    """Rate-mode trace sources, served from the cache when one is active.

    Drop-in for :func:`repro.workloads.mixes.rate_mode_generators` with a
    known trace length: per-context footprints and seeds are derived by
    the same formulas, and each context's stream is the exact record
    sequence its live generator would emit. With caching off this
    *returns* the live generators, so the cold path is untouched.
    """
    if cache is None:
        cache = default_trace_cache()
    if cache is None:
        from .mixes import rate_mode_generators

        return rate_mode_generators(spec, config, base_seed=base_seed)
    footprint = per_context_footprint_pages(spec, config)
    return [
        cache.source(
            spec,
            footprint,
            rate_mode_seed(base_seed, context_id),
            config.lines_per_page,
            n_accesses,
        )
        for context_id in range(config.num_contexts)
    ]


def materialized_mixed_sources(
    specs: Sequence[WorkloadSpec],
    config,
    base_seed: int,
    n_accesses: int,
    cache: Optional[TraceCache] = None,
):
    """Heterogeneous-mix trace sources, served from the cache when active.

    Drop-in for :func:`repro.workloads.mixes.mixed_generators` with a
    known trace length: per-context footprints and seeds follow the same
    formulas, so each context's stream is the exact record sequence its
    live generator would emit — a mix cell replays materialized traces
    just like a rate-mode cell does. With caching off this *returns*
    the live generators, so the cold path is untouched. Contexts running
    the same workload share one materialized trace across mixes and
    rate-mode runs alike (the content key does not care who is asking).
    """
    from .mixes import mixed_context_footprint_pages, mixed_generators

    if len(specs) != config.num_contexts:
        raise WorkloadError(
            f"a mix needs one workload per context: got {len(specs)} for "
            f"{config.num_contexts} contexts"
        )
    if cache is None:
        cache = default_trace_cache()
    if cache is None:
        return mixed_generators(list(specs), config, base_seed=base_seed)
    return [
        cache.source(
            spec,
            mixed_context_footprint_pages(spec, config),
            rate_mode_seed(base_seed, context_id),
            config.lines_per_page,
            n_accesses,
        )
        for context_id, spec in enumerate(specs)
    ]
