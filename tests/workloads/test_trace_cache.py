"""Tests for content-addressed trace materialization (trace_cache)."""

import dataclasses
import os
from array import array

import pytest

import repro.workloads.ingest as ingest_mod
from repro.errors import EnvKnobError, IngestError, WorkloadError
from repro.sim.export import result_to_json
from repro.sim.result_store import result_store_disabled
from repro.sim.runner import run_mix, run_workload
from repro.workloads.ingest import (
    _decode_trace,
    _encode_trace,
    ingest_trace_file,
    ingested_columns,
    write_trace_file,
)
from repro.workloads.mixes import (
    mixed_context_footprint_pages,
    per_context_footprint_pages,
    rate_mode_seed,
)
from repro.workloads.replay import ReplayTraceSource
from repro.workloads.spec import workload
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import records_from_raw
from repro.workloads.trace_cache import (
    TraceCache,
    clear_default_trace_cache,
    default_trace_cache,
    materialized_mixed_sources,
    materialized_rate_mode_sources,
    trace_cache_disabled,
)
from tests.conftest import make_config

SPEC = workload("milc")
LINES_PER_PAGE = 64
N = 200


def materialize(cache, spec=SPEC, footprint=32, seed=0, lpp=LINES_PER_PAGE, n=N):
    return cache.materialize(spec, footprint, seed, lpp, n)


class TestFingerprint:
    """The cache's key: every input the generator's output depends on."""

    def test_stable(self):
        cache = TraceCache()
        assert materialize(cache) is materialize(cache)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    @pytest.mark.parametrize("change", [
        {"footprint": 33},
        {"seed": 1},
        {"lpp": 128},
        {"n": N + 1},
        {"spec": workload("astar")},
        {"spec": dataclasses.replace(SPEC, l3_mpki=SPEC.l3_mpki + 1.0)},
    ])
    def test_sensitive_to_every_input(self, change):
        cache = TraceCache()
        first = materialize(cache)
        assert materialize(cache, **change) is not first
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        assert len(cache) == 2


class TestMemoryLayer:
    def test_matches_live_generator_exactly(self):
        cache = TraceCache()
        source = cache.source(SPEC, 32, 7, LINES_PER_PAGE, N)
        generator = SyntheticTraceGenerator(
            SPEC, 32, seed=7, lines_per_page=LINES_PER_PAGE
        )
        assert list(source.generate(N)) == list(generator.generate(N))

    def test_hit_returns_the_same_object(self):
        cache = TraceCache()
        first = cache.materialize(SPEC, 32, 0, LINES_PER_PAGE, N)
        second = cache.materialize(SPEC, 32, 0, LINES_PER_PAGE, N)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = TraceCache(max_records=2 * N)
        for seed in range(3):
            cache.materialize(SPEC, 32, seed, LINES_PER_PAGE, N)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Seed 0 was evicted; asking again is a miss.
        cache.materialize(SPEC, 32, 0, LINES_PER_PAGE, N)
        assert cache.stats.misses == 4

    def test_rejects_empty_traces_and_zero_capacity(self):
        with pytest.raises(WorkloadError):
            TraceCache(max_records=0)
        with pytest.raises(WorkloadError):
            TraceCache().materialize(SPEC, 32, 0, LINES_PER_PAGE, 0)


class TestDiskLayer:
    """What is left on disk under ``REPRO_TRACE_CACHE_DIR``.

    Synthetic traces never go there: a miss is regenerated, which is
    faster than a load. Ingested traces keep a binary there
    (:mod:`repro.workloads.ingest`); one that is malformed or holds
    values no encoder writes is regenerated from its source, never
    replayed.
    """

    @pytest.fixture
    def ingested(self, tmp_path, monkeypatch):
        """A trace of the generator's records, ingested: (handle, its
        binary, its source file, the records)."""
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))
        records = live_records()
        source = tmp_path / "t.trace"
        write_trace_file(str(source), list(records_from_raw(records)))
        trace = ingest_trace_file(str(source)).trace
        (binary,) = (tmp_path / "cache").glob("*.trace")
        ingest_mod._INGESTED_COLUMNS.clear()
        return trace, binary, source, records

    @staticmethod
    def assert_served_by_the_binary(trace, source, records):
        """With the memo empty and the source gone, only the binary can
        serve the handle."""
        text = source.read_text()
        source.unlink()
        try:
            ingest_mod._INGESTED_COLUMNS.clear()
            assert list(ingested_columns(trace).records(N)) == records
        finally:
            source.write_text(text)

    def test_corrupt_file_is_regenerated(self, ingested):
        trace, binary, source, records = ingested
        binary.write_bytes(b"RTRC0001 not really a trace")
        assert list(ingested_columns(trace).records(N)) == records
        # Re-ingesting the source replaced the corrupt file.
        self.assert_served_by_the_binary(trace, source, records)

    @pytest.mark.parametrize("column, value", [
        pytest.param(0, array("q", [-6400]).tobytes(), id="negative-line"),
        pytest.param(1, array("q", [-4]).tobytes(), id="negative-pc"),
        pytest.param(2, bytes([2]), id="write-flag-2"),
    ])
    def test_out_of_range_values_are_regenerated(self, ingested, column, value):
        # A file of the right length and magic can still hold values no
        # encoder writes. Decoded columns go to the kernel as they are,
        # where a negative page indexes outside its translation map and
        # a write flag of 2 reads as an op's stream bit.
        trace, binary, source, records = ingested
        payload = bytearray(binary.read_bytes())
        offset = len(b"RTRC0001") + 8 + 8 * N * column
        payload[offset:offset + len(value)] = value
        binary.write_bytes(bytes(payload))
        assert _decode_trace(bytes(payload)) is None
        # Without its source the handle fails rather than replay it.
        text = source.read_text()
        source.unlink()
        with pytest.raises(IngestError, match="unreadable"):
            ingested_columns(trace)
        source.write_text(text)
        assert list(ingested_columns(trace).records(N)) == records
        # The regenerated binary replaced the out-of-range file.
        self.assert_served_by_the_binary(trace, source, records)


def live_records(n=N, seed=3):
    generator = SyntheticTraceGenerator(
        SPEC, 32, seed=seed, lines_per_page=LINES_PER_PAGE
    )
    return list(generator.generate(n))


def assert_columns_hold(columns, records):
    """``columns`` are exactly ``records``, in the kernel's layout."""
    assert columns.lines.typecode == "q" and columns.pcs.typecode == "q"
    assert type(columns.writes) is bytearray
    assert list(columns.lines) == [r[0] for r in records]
    assert list(columns.pcs) == [r[1] for r in records]
    assert columns.writes == bytearray(1 if r[2] else 0 for r in records)
    assert columns.max_line == max(r[0] for r in records)
    assert columns.min_line == min(r[0] for r in records)
    assert columns.min_pc == min(r[1] for r in records)
    assert list(columns.records(len(records))) == records


class TestColumns:
    """Every path stores what the generator yields, as the kernel reads it."""

    def test_generated_into_memory(self):
        columns = TraceCache().materialize(SPEC, 32, 3, LINES_PER_PAGE, N)
        assert_columns_hold(columns, live_records())

    def test_disk_round_trip(self, tmp_path):
        """The binary form ingested traces keep on disk."""
        path = tmp_path / "t.trace"
        path.write_bytes(_encode_trace(
            TraceCache().materialize(SPEC, 32, 3, LINES_PER_PAGE, N)
        ))
        assert_columns_hold(_decode_trace(path.read_bytes()), live_records())

    def test_from_raw(self):
        records = live_records()
        assert_columns_hold(ReplayTraceSource.from_raw(records).columns, records)

    def test_generate_wraps_past_the_end(self):
        records = live_records()
        source = TraceCache().source(SPEC, 32, 3, LINES_PER_PAGE, N)
        n = 2 * N + 7
        assert list(source.generate(n)) == [records[i % N] for i in range(n)]

    def test_sources_share_the_cache_entry(self):
        cache = TraceCache()
        first = cache.source(SPEC, 32, 3, LINES_PER_PAGE, N)
        second = cache.source(SPEC, 32, 3, LINES_PER_PAGE, N)
        assert first.columns is second.columns
        assert first.columns is cache.materialize(SPEC, 32, 3, LINES_PER_PAGE, N)

    def test_record_budget_counts_records_not_entries(self):
        cache = TraceCache(max_records=3 * N)
        cache.materialize(SPEC, 32, 0, LINES_PER_PAGE, 2 * N)
        cache.materialize(SPEC, 32, 1, LINES_PER_PAGE, N)
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.materialize(SPEC, 32, 2, LINES_PER_PAGE, N)
        # The 2N-record entry was least recently used: evicting it alone
        # brings the cache back under budget.
        assert len(cache) == 2 and cache.stats.evictions == 1

    def test_an_entry_over_budget_is_still_served(self):
        cache = TraceCache(max_records=N)
        cache.materialize(SPEC, 32, 0, LINES_PER_PAGE, N)
        columns = cache.materialize(SPEC, 32, 1, LINES_PER_PAGE, 2 * N)
        assert len(cache) == 1 and cache.stats.evictions == 1
        assert cache.materialize(SPEC, 32, 1, LINES_PER_PAGE, 2 * N) is columns


class TestDefaultCache:
    def test_disabled_context_returns_live_generators(self):
        config = make_config()
        with trace_cache_disabled():
            assert default_trace_cache() is None
            sources = materialized_rate_mode_sources(SPEC, config, 0, N)
        assert all(
            isinstance(s, SyntheticTraceGenerator) for s in sources
        )

    def test_invalid_mode_env_is_rejected(self, monkeypatch):
        clear_default_trace_cache()
        try:
            # "disk" named the retired disk layer; it is unknown now.
            for mode in ("sideways", "disk"):
                monkeypatch.setenv("REPRO_TRACE_CACHE", mode)
                with pytest.raises(EnvKnobError, match="accepted values: memory, off"):
                    default_trace_cache()
        finally:
            monkeypatch.undo()
            clear_default_trace_cache()


class TestMaterializedSources:
    def test_per_context_streams_match_live_generators(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        cache = TraceCache()
        sources = materialized_rate_mode_sources(SPEC, config, 5, N, cache)
        footprint = per_context_footprint_pages(SPEC, config)
        for ctx, source in enumerate(sources):
            live = SyntheticTraceGenerator(
                SPEC, footprint,
                seed=rate_mode_seed(5, ctx),
                lines_per_page=config.lines_per_page,
            )
            assert source.footprint_pages == live.footprint_pages
            assert list(source.generate(N)) == list(live.generate(N))

    def test_cached_run_equals_cold_run_exactly(self):
        """A cache-served RunResult is byte-identical to cold generation.

        The result store is disabled throughout: this test exercises the
        *trace* cache, and with the store on the second identical run
        would be served whole without ever touching the trace layer.
        """
        config = make_config(stacked_pages=8, num_contexts=2)
        with result_store_disabled():
            with trace_cache_disabled():
                cold = run_workload("cameo", SPEC, config, N, use_l3=True)
            clear_default_trace_cache()
            miss = run_workload("cameo", SPEC, config, N, use_l3=True)
            hit = run_workload("cameo", SPEC, config, N, use_l3=True)
            cache = default_trace_cache()
            assert cache is not None and cache.stats.hits >= config.num_contexts
        assert result_to_json(miss) == result_to_json(cold)
        assert result_to_json(hit) == result_to_json(cold)


class TestMaterializedMixedSources:
    def test_per_context_streams_match_live_generators(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        specs = [SPEC, workload("astar")]
        cache = TraceCache()
        sources = materialized_mixed_sources(specs, config, 5, N, cache)
        for ctx, (spec, source) in enumerate(zip(specs, sources)):
            live = SyntheticTraceGenerator(
                spec, mixed_context_footprint_pages(spec, config),
                seed=rate_mode_seed(5, ctx),
                lines_per_page=config.lines_per_page,
            )
            assert source.footprint_pages == live.footprint_pages
            assert list(source.generate(N)) == list(live.generate(N))

    def test_rejects_wrong_context_count(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        with pytest.raises(WorkloadError):
            materialized_mixed_sources([SPEC], config, 0, N, TraceCache())

    def test_cached_mix_run_equals_cold_run_exactly(self):
        """A mix replayed through the trace cache is bit-for-bit the run
        live generation produces (the result store stays out of it)."""
        config = make_config(stacked_pages=8, num_contexts=2)
        specs = [SPEC, workload("astar")]
        with result_store_disabled():
            with trace_cache_disabled():
                cold = run_mix("cameo", specs, config, N)
            clear_default_trace_cache()
            miss = run_mix("cameo", specs, config, N)
            hit = run_mix("cameo", specs, config, N)
            cache = default_trace_cache()
            assert cache is not None and cache.stats.hits >= config.num_contexts
        assert result_to_json(miss) == result_to_json(cold)
        assert result_to_json(hit) == result_to_json(cold)
