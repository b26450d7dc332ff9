"""Content-addressed materialization of synthetic traces.

Every run of a (workload, seed) pair regenerated its access stream from
scratch, even though the baseline/cache/tlm/cameo runs of one experiment
cell consume the *identical* trace. This module materializes the
per-context stream once per content key and replays it through the
existing :mod:`repro.workloads.replay` path:

* **key** — sha256 over (the full workload-spec knobs, footprint pages,
  generator seed, lines per page, trace length). Two requests share an
  entry exactly when the generator would emit byte-identical streams.
* **entry** — one :class:`~repro.workloads.replay.TraceColumns` per
  key: ``array('q')`` lines and pcs, a 0/1 write-flag ``bytearray`` and
  the extremes. These are the arrays the compiled kernel reads, so every
  cell replaying a key hands the kernel the same buffers; tuples are
  built only for the consumers that iterate ``generate``.
* **memory layer** — an LRU of entries inside the process, bounded by
  the total records it holds (17 bytes each); this is what makes a
  five-organization sweep generate each trace once.
* **disk layer (optional)** — compact binary files under
  ``~/.cache/repro/traces`` (override with ``REPRO_TRACE_CACHE_DIR``),
  written atomically (tmp file + rename), so traces survive across
  processes and parallel workers. The columns go to and from the file
  as raw bytes. Unreadable, truncated or out-of-range files (a negative
  line or pc, a write flag other than 0/1) are treated as misses and
  regenerated, never trusted.

The default mode is selected by ``REPRO_TRACE_CACHE``: ``memory`` (the
default), ``disk`` (memory + disk), or ``off`` (every run regenerates,
the pre-cache behavior). Replaying a materialized trace is bit-for-bit
equivalent to running the generator: the cache stores exactly what
``SyntheticTraceGenerator.generate(n)`` yields, so ``RunResult``s are
unchanged whichever path served the stream. A miss is generated by
``SyntheticTraceGenerator.columns(n)`` — the compiled kernel's copy of
the generator when it loads, ``generate`` itself otherwise — straight
into the entry's columns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import struct
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..atomic import atomic_write
from ..errors import WorkloadError
from .mixes import per_context_footprint_pages, rate_mode_seed
from .replay import ReplayTraceSource, TraceColumns
from .spec import WorkloadSpec
from .synthetic import SyntheticTraceGenerator

#: Mode knob: "memory" (default), "disk", or "off".
MODE_ENV_VAR = "REPRO_TRACE_CACHE"
#: Disk-layer location override.
DIR_ENV_VAR = "REPRO_TRACE_CACHE_DIR"
#: Memory-layer budget in records, across all entries. A record costs
#: 17 bytes as columns (two int64 and a flag byte); 5.76M records is
#: ~98 MB, the ceiling 64 tuple traces (~128 bytes a record) had at the
#: default 12,000 accesses/context — now 480 such traces.
DEFAULT_MAX_RECORDS = 5_760_000

_VALID_MODES = ("memory", "disk", "off")
#: Disk file magic + format version; bump on layout changes.
_DISK_MAGIC = b"RTRC0001"


def default_cache_dir() -> str:
    """Where the disk layer lives (``REPRO_TRACE_CACHE_DIR`` overrides)."""
    override = os.environ.get(DIR_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "traces")


def trace_fingerprint(
    spec: WorkloadSpec,
    footprint_pages: int,
    seed: int,
    lines_per_page: int,
    n_accesses: int,
) -> str:
    """The content address of one materialized per-context trace.

    Covers every input the generator's output depends on, including all
    behaviour knobs of the spec — two specs that share a name but differ
    in any knob hash to different traces.
    """
    key = {
        "spec": spec.as_dict(),
        "footprint_pages": footprint_pages,
        "seed": seed,
        "lines_per_page": lines_per_page,
        "n_accesses": n_accesses,
    }
    blob = json.dumps(key, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class TraceCacheStats:
    """Hit/miss accounting for one :class:`TraceCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class TraceCache:
    """LRU of materialized traces, optionally backed by disk files.

    ``max_records`` bounds the records held across all entries; the
    least recently used entries are evicted past it, but never the one
    just materialized.
    """

    def __init__(
        self,
        max_records: int = DEFAULT_MAX_RECORDS,
        disk_dir: Optional[str] = None,
    ):
        if max_records <= 0:
            raise WorkloadError("trace cache needs a positive record budget")
        self.max_records = max_records
        self.disk_dir = disk_dir
        self.stats = TraceCacheStats()
        self._entries: "OrderedDict[str, TraceColumns]" = OrderedDict()
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
        fingerprint = trace_fingerprint(
            spec, footprint_pages, seed, lines_per_page, n_accesses
        )
        columns = self._entries.get(fingerprint)
        if columns is not None:
            self._entries.move_to_end(fingerprint)
            self.stats.hits += 1
            if self.disk_dir and not os.path.exists(self._disk_path(fingerprint)):
                # A disk layer attached after this entry was generated
                # (or a deleted file): persist on the way out so other
                # processes can share what this one already has.
                self._store_disk(fingerprint, columns)
            return columns
        columns = self._load_disk(fingerprint, n_accesses)
        if columns is None:
            self.stats.misses += 1
            columns = SyntheticTraceGenerator(
                spec, footprint_pages, seed=seed, lines_per_page=lines_per_page
            ).columns(n_accesses)
            self._store_disk(fingerprint, columns)
        else:
            self.stats.disk_hits += 1
        self._entries[fingerprint] = columns
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

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer; with ``disk=True`` also the disk files."""
        self._entries.clear()
        self._records = 0
        if disk and self.disk_dir and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.endswith(".trace"):
                    with contextlib.suppress(OSError):
                        os.unlink(os.path.join(self.disk_dir, name))

    # -- Disk layer --------------------------------------------------------

    def _disk_path(self, fingerprint: str) -> str:
        return os.path.join(self.disk_dir, f"{fingerprint}.trace")

    def _load_disk(self, fingerprint: str, n_accesses: int) -> Optional[TraceColumns]:
        if not self.disk_dir:
            return None
        path = self._disk_path(fingerprint)
        try:
            with open(path, "rb") as fp:
                payload = fp.read()
        except OSError:
            return None
        columns = _decode_trace(payload)
        if columns is None or len(columns.lines) != n_accesses:
            # Corrupt/truncated/stale file: regenerate rather than trust it.
            with contextlib.suppress(OSError):
                os.unlink(path)
            return None
        return columns

    def _store_disk(self, fingerprint: str, columns: TraceColumns) -> None:
        if not self.disk_dir:
            return
        atomic_write(self._disk_path(fingerprint), _encode_trace(columns))
        self.stats.disk_writes += 1


def _encode_trace(columns: TraceColumns) -> bytes:
    """Compact binary form: magic, count, then line/pc/write arrays."""
    return b"".join((
        _DISK_MAGIC, struct.pack("<Q", len(columns.lines)),
        columns.lines.tobytes(), columns.pcs.tobytes(), columns.writes,
    ))


def _decode_trace(payload: bytes) -> Optional[TraceColumns]:
    """Inverse of :func:`_encode_trace`; None for anything malformed.

    Malformed includes values no encoder writes: an empty trace, a
    negative line or pc, or a write flag other than 0/1. The decoded
    columns go to the kernel as they are, which would index its
    translation map with a negative page and read a flag of 2 as an
    op's stream bit.
    """
    header = len(_DISK_MAGIC) + 8
    if len(payload) < header or not payload.startswith(_DISK_MAGIC):
        return None
    (n,) = struct.unpack_from("<Q", payload, len(_DISK_MAGIC))
    if n == 0 or len(payload) != header + 17 * n:
        return None
    lines = array("q")
    lines.frombytes(payload[header:header + 8 * n])
    pcs = array("q")
    pcs.frombytes(payload[header + 8 * n:header + 16 * n])
    writes = bytearray(payload[header + 16 * n:])
    min_line, min_pc = min(lines), min(pcs)
    if min_line < 0 or min_pc < 0 or writes.translate(None, b"\x00\x01"):
        return None
    return TraceColumns(lines, pcs, writes, max(lines), min_line, min_pc)


# -- The process-wide default cache --------------------------------------------

_default_cache: Optional[TraceCache] = None
_default_cache_mode: Optional[str] = None
_mode_override: Optional[str] = None


def _env_mode() -> str:
    mode = os.environ.get(MODE_ENV_VAR, "memory").strip().lower()
    if mode not in _VALID_MODES:
        raise WorkloadError(
            f"{MODE_ENV_VAR}={mode!r} is not one of {_VALID_MODES}"
        )
    return mode


def default_trace_cache() -> Optional[TraceCache]:
    """The process-wide cache, or None when caching is off.

    The instance is created lazily from ``REPRO_TRACE_CACHE`` /
    ``REPRO_TRACE_CACHE_DIR`` and kept until the mode changes.
    """
    global _default_cache, _default_cache_mode
    mode = _mode_override if _mode_override is not None else _env_mode()
    if mode == "off":
        return None
    if _default_cache is None or _default_cache_mode != mode:
        _default_cache = TraceCache(
            disk_dir=default_cache_dir() if mode == "disk" else None
        )
        _default_cache_mode = mode
    return _default_cache


def clear_default_trace_cache(disk: bool = False) -> None:
    """Reset the process-wide cache (and optionally its disk files)."""
    global _default_cache, _default_cache_mode
    if _default_cache is not None:
        _default_cache.clear(disk=disk)
    _default_cache = None
    _default_cache_mode = None


def default_trace_cache_mode() -> str:
    """The mode the default cache resolves to right now."""
    return _mode_override if _mode_override is not None else _env_mode()


def set_default_trace_cache_mode(mode: Optional[str]) -> None:
    """Override the default cache's mode for the rest of this process.

    Worker processes use this to read the *disk* layer the parent
    pre-warmed, whatever the inherited ``REPRO_TRACE_CACHE`` says —
    under ``spawn``/``forkserver`` there is no copy-on-write memory
    layer to inherit, so disk is the only warm handoff. ``None`` clears
    the override (back to the environment's choice).
    """
    global _mode_override
    if mode is not None and mode not in _VALID_MODES:
        raise WorkloadError(
            f"trace cache mode {mode!r} is not one of {_VALID_MODES}"
        )
    _mode_override = mode


@contextlib.contextmanager
def trace_cache_disabled():
    """Temporarily run with the trace cache off (cold-generation path)."""
    global _mode_override
    previous = _mode_override
    _mode_override = "off"
    try:
        yield
    finally:
        _mode_override = previous


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
