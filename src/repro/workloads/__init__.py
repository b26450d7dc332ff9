"""Workloads: Table II registry, synthetic generators, traces, mixes."""

from .calibration import CalibrationReport, StreamProfile, calibrate, profile_stream
from .mixes import (
    mixed_generators,
    per_context_footprint_pages,
    rate_mode_generators,
    rate_mode_seed,
)
from .ingest import (
    IngestReport,
    IngestedTrace,
    ingest_trace_file,
    read_trace_header,
    records_checksum,
    replay_sources,
    replay_spec,
    write_trace_file,
)
from .replay import ReplayTraceSource, record_synthetic_trace
from .trace_cache import (
    TraceCache,
    TraceCacheStats,
    clear_default_trace_cache,
    default_trace_cache,
    materialized_rate_mode_sources,
    trace_cache_disabled,
)
from .spec import (
    CAPACITY,
    LATENCY,
    WORKLOADS,
    WorkloadSpec,
    capacity_workloads,
    latency_workloads,
    render_table2,
    workload,
    workload_names,
)
from .synthetic import SyntheticTraceGenerator
from .trace import RawRecord, TraceRecord, read_trace, records_from_raw, write_trace

__all__ = [
    "CAPACITY",
    "CalibrationReport",
    "IngestReport",
    "IngestedTrace",
    "ReplayTraceSource",
    "StreamProfile",
    "TraceCache",
    "TraceCacheStats",
    "calibrate",
    "clear_default_trace_cache",
    "default_trace_cache",
    "ingest_trace_file",
    "materialized_rate_mode_sources",
    "mixed_generators",
    "profile_stream",
    "rate_mode_seed",
    "record_synthetic_trace",
    "render_table2",
    "trace_cache_disabled",
    "LATENCY",
    "RawRecord",
    "SyntheticTraceGenerator",
    "TraceRecord",
    "WORKLOADS",
    "WorkloadSpec",
    "capacity_workloads",
    "latency_workloads",
    "per_context_footprint_pages",
    "rate_mode_generators",
    "read_trace",
    "read_trace_header",
    "records_checksum",
    "records_from_raw",
    "replay_sources",
    "replay_spec",
    "workload",
    "workload_names",
    "write_trace",
    "write_trace_file",
]
