"""Hardened ingestion of externally captured trace files.

The synthetic generators stop being the only workload source here: a
miss trace captured outside this repo — from a real application, another
simulator, or a hybrid-design study (e.g. MemCache-style workloads) —
drops into every runner through a documented text format and a strict
validator. The contract is deliberately paranoid:

* **per-file header** — magic/version line, a sha256 checksum of the
  canonical record encoding, the declared record count, and optional
  geometry/pacing hints (``lines-per-page``, ``footprint-pages``,
  ``mpki``, ``name``);
* **strict record validation** — every malformed body line is reported
  with its 1-based line number and reason; malformed records are
  *quarantined* (dropped, loudly) up to a bounded error budget, beyond
  which the whole file is rejected;
* **truncation and corruption detection** — the body must hold exactly
  the declared number of records, and (when nothing was quarantined)
  must hash to the declared checksum; a truncated or bit-rotted file is
  rejected whole, never silently replayed as a partial trace;
* **content-addressed replay** — validated records are memoized
  in-process as one set of :class:`~repro.workloads.replay.TraceColumns`
  (shared by every context's replay source) and, when the trace-cache
  directory is writable, as the same compact binary files
  :mod:`repro.workloads.trace_cache` uses, so workers replay one
  materialization instead of re-parsing text.

The :class:`IngestedTrace` handle this module returns is a small frozen
dataclass — picklable, content-addressed by checksum — that
:func:`repro.sim.runner.run_workload` (and therefore every grid,
campaign, and plan stage) accepts anywhere a workload name goes.
Falling back to a synthetic generator when ingestion fails is *never*
done here; only an explicit ``allow_synthetic_fallback`` in a campaign
plan may substitute a generator, and that substitution happens in
:mod:`repro.sim.planfile` where it is recorded as an incident.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

from ..atomic import atomic_write
from ..errors import IngestError
from ..units import LINES_PER_PAGE, PAGE_BYTES
from .replay import ReplayTraceSource, TraceColumns
from .spec import CAPACITY, WorkloadSpec
from .trace import RawRecord, TraceRecord

#: First line of every v1 trace file.
TRACE_MAGIC = "# repro-trace v1"
#: Malformed body lines tolerated (quarantined) before the file is
#: rejected. Override per call; the plan format exposes it per stage.
DEFAULT_ERROR_BUDGET = 10
#: Pacing hint when the header offers no ``mpki`` (Table II median-ish).
DEFAULT_TRACE_MPKI = 10.0

#: Header keys the v1 format defines; anything else is rejected.
_HEADER_KEYS = ("checksum", "records", "lines-per-page", "footprint-pages",
                "mpki", "name")
_REQUIRED_HEADER_KEYS = ("checksum", "records")


def _canonical_line(virtual_line: int, pc: int, is_write: bool) -> str:
    """The checksummed form of one record — exactly what the writer emits."""
    return f"{virtual_line} {pc} {'W' if is_write else 'R'}\n"


def records_checksum(records: Sequence[RawRecord]) -> str:
    """sha256 over the canonical encoding of ``records``, as ``sha256:<hex>``."""
    digest = hashlib.sha256()
    for virtual_line, pc, is_write in records:
        digest.update(_canonical_line(virtual_line, pc, is_write).encode("ascii"))
    return f"sha256:{digest.hexdigest()}"


@dataclass(frozen=True)
class TraceHeader:
    """The parsed ``# key: value`` block of a v1 trace file."""

    checksum: str
    records: int
    lines_per_page: int = LINES_PER_PAGE
    footprint_pages: Optional[int] = None
    mpki: float = DEFAULT_TRACE_MPKI
    name: Optional[str] = None


@dataclass(frozen=True)
class IngestedTrace:
    """Picklable handle to one validated external trace.

    ``checksum`` addresses the records actually kept (it equals the
    declared checksum unless records were quarantined), so two handles
    with equal checksums replay byte-identical streams — which is what
    makes ingested cells content-addressable in the result store.
    """

    name: str
    source_path: str
    checksum: str
    n_records: int
    lines_per_page: int
    footprint_pages: int
    mpki: float = DEFAULT_TRACE_MPKI
    #: Malformed records dropped during ingestion (0 for a clean file).
    quarantined: int = 0
    #: The budget the ingest ran under — re-ingestion uses the same one.
    error_budget: int = DEFAULT_ERROR_BUDGET
    #: False when quarantined records made the declared checksum
    #: unverifiable; the kept-records checksum above still pins content.
    checksum_verified: bool = True


@dataclass
class IngestReport:
    """Everything :func:`ingest_trace_file` learned about one file."""

    trace: IngestedTrace
    header: TraceHeader
    #: ``(line_number, reason, line_text)`` for each quarantined record.
    quarantine: List[Tuple[int, str, str]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def describe(self) -> str:
        trace = self.trace
        lines = [
            f"ingested {trace.source_path}: {trace.n_records} record(s), "
            f"{trace.footprint_pages} page(s), "
            f"{trace.lines_per_page} lines/page",
            f"  checksum: {trace.checksum}"
            + ("" if trace.checksum_verified else " (recomputed; declared "
               "checksum unverifiable after quarantine)"),
        ]
        for warning in self.warnings:
            lines.append(f"  WARNING: {warning}")
        for line_no, reason, text in self.quarantine:
            lines.append(f"  quarantined line {line_no}: {reason}: {text!r}")
        return "\n".join(lines)


# -- Writing ---------------------------------------------------------------------


def write_trace_file(
    path: str,
    records: Sequence[TraceRecord],
    lines_per_page: int = LINES_PER_PAGE,
    footprint_pages: Optional[int] = None,
    mpki: Optional[float] = None,
    name: Optional[str] = None,
) -> int:
    """Write ``records`` as a v1 trace file; returns the record count.

    The inverse of :func:`ingest_trace_file`: the emitted header carries
    the checksum and count the ingestor verifies, so a round-trip is
    bit-exact and any later corruption or truncation is detected.
    """
    raw = [record.as_raw() for record in records]
    if not raw:
        raise IngestError(f"{path}: refusing to write an empty trace")
    with open(path, "w") as fp:
        fp.write(TRACE_MAGIC + "\n")
        fp.write(f"# checksum: {records_checksum(raw)}\n")
        fp.write(f"# records: {len(raw)}\n")
        fp.write(f"# lines-per-page: {lines_per_page}\n")
        if footprint_pages is not None:
            fp.write(f"# footprint-pages: {footprint_pages}\n")
        if mpki is not None:
            fp.write(f"# mpki: {mpki}\n")
        if name is not None:
            fp.write(f"# name: {name}\n")
        for virtual_line, pc, is_write in raw:
            fp.write(_canonical_line(virtual_line, pc, is_write))
    return len(raw)


# -- Header parsing --------------------------------------------------------------


def _parse_header_value(path: str, line_no: int, key: str, value: str):
    try:
        if key == "records":
            parsed = int(value)
            if parsed <= 0:
                raise ValueError
            return parsed
        if key in ("lines-per-page", "footprint-pages"):
            parsed = int(value)
            if parsed <= 0:
                raise ValueError
            return parsed
        if key == "mpki":
            parsed_f = float(value)
            if parsed_f <= 0:
                raise ValueError
            return parsed_f
    except ValueError:
        raise IngestError(
            f"{path}:{line_no}: header {key!r} must be a positive number, "
            f"got {value!r}"
        ) from None
    if key == "checksum":
        prefix, _, digest = value.partition(":")
        if prefix != "sha256" or len(digest) != 64 or any(
            c not in "0123456789abcdef" for c in digest
        ):
            raise IngestError(
                f"{path}:{line_no}: checksum must be 'sha256:<64 hex>', "
                f"got {value!r}"
            )
        return value
    return value  # name: free-form


def read_trace_header(path: str) -> TraceHeader:
    """Parse just the header block of a v1 trace file.

    Cheap enough to call at plan-fingerprint time: only the leading
    comment lines are read. Raises :class:`~repro.errors.IngestError`
    with the file and line named for any structural problem.
    """
    try:
        with open(path) as fp:
            return _read_header(fp, path)[0]
    except OSError as exc:
        raise IngestError(f"unreadable trace {path}: {exc}") from exc


def _read_header(fp: IO[str], path: str) -> Tuple[TraceHeader, int]:
    """Parse the header; returns it plus the line number it ended on."""
    fields: Dict[str, object] = {}
    line_no = 0
    saw_magic = False
    for line in fp:
        line_no += 1
        stripped = line.strip()
        if not stripped:
            if saw_magic:
                break  # blank line ends the header block
            continue
        if not saw_magic:
            if stripped != TRACE_MAGIC:
                raise IngestError(
                    f"{path}:{line_no}: not a v1 trace file (expected first "
                    f"line {TRACE_MAGIC!r}, got {stripped!r})"
                )
            saw_magic = True
            continue
        if not stripped.startswith("#"):
            break  # first record line ends the header block
        body = stripped.lstrip("#").strip()
        key, sep, value = body.partition(":")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise IngestError(
                f"{path}:{line_no}: header line must be '# key: value', "
                f"got {stripped!r}"
            )
        if key not in _HEADER_KEYS:
            raise IngestError(
                f"{path}:{line_no}: unknown header key {key!r} "
                f"(known: {', '.join(_HEADER_KEYS)})"
            )
        if key in fields:
            raise IngestError(f"{path}:{line_no}: duplicate header key {key!r}")
        fields[key] = _parse_header_value(path, line_no, key, value)
    if not saw_magic:
        raise IngestError(f"{path}: empty file is not a v1 trace")
    missing = [key for key in _REQUIRED_HEADER_KEYS if key not in fields]
    if missing:
        raise IngestError(
            f"{path}: header is missing required key(s) {', '.join(missing)}"
        )
    header = TraceHeader(
        checksum=fields["checksum"],
        records=fields["records"],
        lines_per_page=fields.get("lines-per-page", LINES_PER_PAGE),
        footprint_pages=fields.get("footprint-pages"),
        mpki=fields.get("mpki", DEFAULT_TRACE_MPKI),
        name=fields.get("name"),
    )
    return header, line_no


# -- Strict ingestion ------------------------------------------------------------


def _parse_record(line: str, lines_per_page: int,
                  footprint_pages: Optional[int]) -> Tuple[Optional[RawRecord], str]:
    """One body line -> (record, "") or (None, reason)."""
    parts = line.split()
    if len(parts) != 3:
        return None, f"expected 3 fields, got {len(parts)}"
    if parts[2] not in ("R", "W"):
        return None, f"read/write flag must be R or W, got {parts[2]!r}"
    try:
        virtual_line, pc = int(parts[0]), int(parts[1])
    except ValueError:
        return None, "virtual line and pc must be integers"
    if virtual_line < 0 or pc < 0:
        return None, "negative address"
    if footprint_pages is not None and virtual_line // lines_per_page >= footprint_pages:
        return None, (
            f"line {virtual_line} falls outside the declared "
            f"{footprint_pages}-page footprint"
        )
    return (virtual_line, pc, parts[2] == "W"), ""


def ingest_trace_file(
    path: str,
    name: Optional[str] = None,
    error_budget: int = DEFAULT_ERROR_BUDGET,
) -> IngestReport:
    """Validate one external trace file end to end; returns the report.

    Rejection (always an :class:`~repro.errors.IngestError` naming the
    file and line) happens for: a malformed header, more quarantined
    records than ``error_budget``, a body record count that disagrees
    with the declared ``records`` (truncated or padded file), a checksum
    mismatch on a quarantine-free file, or zero surviving records.
    Within-budget quarantines *succeed* — with every dropped line
    reported in the returned :class:`IngestReport` — and the handle's
    checksum is recomputed over the records actually kept.
    """
    if error_budget < 0:
        raise IngestError(f"{path}: error budget must be non-negative")
    try:
        fp = open(path)
    except OSError as exc:
        raise IngestError(f"unreadable trace {path}: {exc}") from exc
    with fp:
        header, header_end = _read_header(fp, path)
        # _read_header consumed one body/blank line to find the header's
        # end; rewind and skip exactly the header lines it reported.
        fp.seek(0)
        records: List[RawRecord] = []
        quarantine: List[Tuple[int, str, str]] = []
        max_line = -1
        for line_no, line in enumerate(fp, start=1):
            stripped = line.strip()
            if line_no < header_end or not stripped or stripped.startswith("#"):
                continue
            record, reason = _parse_record(
                stripped, header.lines_per_page, header.footprint_pages
            )
            if record is None:
                quarantine.append((line_no, reason, stripped))
                if len(quarantine) > error_budget:
                    details = "; ".join(
                        f"line {n}: {r}" for n, r, _ in quarantine[:8]
                    )
                    raise IngestError(
                        f"{path}: {len(quarantine)} malformed record(s) "
                        f"exceed the error budget of {error_budget} "
                        f"({details})"
                    )
                continue
            records.append(record)
            if record[0] > max_line:
                max_line = record[0]
    seen = len(records) + len(quarantine)
    if seen != header.records:
        kind = "truncated" if seen < header.records else "padded"
        raise IngestError(
            f"{path}: {kind} trace: header declares {header.records} "
            f"record(s) but the body holds {seen} — refusing to replay a "
            "partial trace"
        )
    if not records:
        raise IngestError(f"{path}: no valid records survived ingestion")
    warnings: List[str] = []
    actual_checksum = records_checksum(records)
    verified = True
    if quarantine:
        verified = False
        warnings.append(
            f"{len(quarantine)} record(s) quarantined (budget "
            f"{error_budget}); declared checksum cannot be verified — "
            "content is addressed by the recomputed checksum instead"
        )
    elif actual_checksum != header.checksum:
        raise IngestError(
            f"{path}: checksum mismatch: header declares "
            f"{header.checksum}, body hashes to {actual_checksum} — the "
            "file is corrupt"
        )
    footprint_pages = header.footprint_pages
    if footprint_pages is None:
        footprint_pages = max_line // header.lines_per_page + 1
    trace = IngestedTrace(
        name=name or header.name or os.path.splitext(os.path.basename(path))[0],
        source_path=os.path.abspath(path),
        checksum=actual_checksum,
        n_records=len(records),
        lines_per_page=header.lines_per_page,
        footprint_pages=footprint_pages,
        mpki=header.mpki,
        quarantined=len(quarantine),
        error_budget=error_budget,
        checksum_verified=verified,
    )
    _remember(trace, TraceColumns.from_records(records))
    return IngestReport(
        trace=trace, header=header, quarantine=quarantine, warnings=warnings
    )


# -- Content-addressed replay ----------------------------------------------------

#: In-process memo: checksum -> the validated records' columns.
_INGESTED_COLUMNS: Dict[str, TraceColumns] = {}
#: Bound the memo: traces are big; keep only the most recent few.
_MEMO_MAX_ENTRIES = 8


def _binary_path(checksum: str) -> str:
    from .trace_cache import default_cache_dir

    digest = checksum.partition(":")[2] or checksum
    return os.path.join(default_cache_dir(), f"ingest-{digest}.trace")


def _remember(trace: IngestedTrace, columns: TraceColumns) -> None:
    """Memoize in-process and opportunistically persist the binary form."""
    while len(_INGESTED_COLUMNS) >= _MEMO_MAX_ENTRIES:
        _INGESTED_COLUMNS.pop(next(iter(_INGESTED_COLUMNS)))
    _INGESTED_COLUMNS[trace.checksum] = columns
    from .trace_cache import _encode_trace

    try:
        atomic_write(_binary_path(trace.checksum), _encode_trace(columns))
    except OSError:
        pass  # The binary layer is an optimization, never a requirement.


def ingested_columns(trace: IngestedTrace) -> TraceColumns:
    """The validated records behind a handle, from the cheapest source.

    Tries the in-process memo, then the binary materialization, then a
    full strict re-ingest of the source file. Every path re-checks the
    handle's checksum/record count, so a source file that changed since
    ingestion — or a corrupt binary — is an error, never a silently
    different trace.
    """
    columns = _INGESTED_COLUMNS.get(trace.checksum)
    if columns is not None:
        return columns
    from .trace_cache import _decode_trace

    try:
        with open(_binary_path(trace.checksum), "rb") as fp:
            payload = fp.read()
        decoded = _decode_trace(payload)
    except OSError:
        decoded = None
    if decoded is not None and len(decoded.lines) == trace.n_records and (
        records_checksum(decoded.records(trace.n_records)) == trace.checksum
    ):
        _INGESTED_COLUMNS[trace.checksum] = decoded
        return decoded
    report = ingest_trace_file(
        trace.source_path, name=trace.name, error_budget=trace.error_budget
    )
    if report.trace.checksum != trace.checksum:
        raise IngestError(
            f"{trace.source_path} changed since it was ingested: expected "
            f"checksum {trace.checksum}, re-ingestion produced "
            f"{report.trace.checksum}"
        )
    return _INGESTED_COLUMNS[trace.checksum]


def replay_spec(trace: IngestedTrace) -> WorkloadSpec:
    """The surrogate :class:`WorkloadSpec` an ingested trace runs under.

    Only the *identity* (name, content checksum) and the pacing/geometry
    fields matter — the behaviour knobs exist to satisfy the spec's
    validator and are never consulted, because replay bypasses the
    synthetic generator entirely. The checksum in the name is what makes
    result-store fingerprints of ingested cells content-addressed.
    """
    return WorkloadSpec(
        name=f"trace:{trace.name}#{trace.checksum.partition(':')[2][:16]}",
        category=CAPACITY,
        l3_mpki=trace.mpki,
        footprint_bytes=max(PAGE_BYTES, trace.footprint_pages * PAGE_BYTES),
        hot_fraction=1.0,
        hot_access_prob=0.0,
        stream_prob=0.0,
        lines_used_per_page=min(64, max(1, trace.lines_per_page)),
    )


def replay_sources(trace: IngestedTrace, config, n_accesses: int):
    """One :class:`ReplayTraceSource` per context, all over the same columns.

    Rate-mode convention, applied to a recorded stream: every context
    replays the same captured trace (the paper runs N copies of one
    benchmark), wrapping when the simulation asks for more accesses than
    the capture holds.
    """
    columns = ingested_columns(trace)
    return [
        ReplayTraceSource.from_columns(
            columns,
            lines_per_page=trace.lines_per_page,
            footprint_pages=trace.footprint_pages,
        )
        for _ in range(config.num_contexts)
    ]
