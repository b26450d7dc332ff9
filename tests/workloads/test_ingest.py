"""Tests for hardened external-trace ingestion (repro.workloads.ingest)."""

import pytest

from repro.errors import IngestError
from repro.workloads.ingest import (
    ingest_trace_file,
    ingested_columns,
    read_trace_header,
    records_checksum,
    replay_spec,
    write_trace_file,
)
from repro.workloads.trace import records_from_raw


def make_raw(n=60, pages=12):
    return [(i % (pages * 64), 0x400000 + 4 * i, i % 3 == 0) for i in range(n)]


def write(path, raw, **kwargs):
    write_trace_file(str(path), list(records_from_raw(raw)), **kwargs)
    return str(path)


class TestWriteTraceFile:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        raw = make_raw()
        path = write(tmp_path / "t.trace", raw, name="demo")
        report = ingest_trace_file(path)
        assert list(ingested_columns(report.trace).records(len(raw))) == raw
        assert report.trace.name == "demo"
        assert report.trace.checksum_verified
        assert not report.quarantine

    def test_empty_trace_refused(self, tmp_path):
        with pytest.raises(IngestError, match="empty"):
            write_trace_file(str(tmp_path / "e.trace"), [])

    def test_consumed_iterator_refused_not_zero_records(self, tmp_path):
        records = iter(())
        with pytest.raises(IngestError, match="empty"):
            write_trace_file(str(tmp_path / "e.trace"), records)


class TestHeader:
    def test_header_probe_reads_metadata_only(self, tmp_path):
        raw = make_raw()
        path = write(tmp_path / "t.trace", raw, name="probe", mpki=17.5)
        header = read_trace_header(path)
        assert header.checksum == records_checksum(raw)
        assert header.records == len(raw)
        assert header.name == "probe"
        assert header.mpki == 17.5

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1 2 R\n")
        with pytest.raises(IngestError, match="repro-trace"):
            read_trace_header(str(path))

    def test_unknown_header_key_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        lines = path and open(path).read().splitlines(True)
        lines.insert(1, "# flavor: vanilla\n")
        open(path, "w").writelines(lines)
        with pytest.raises(IngestError, match=r":2: .*flavor"):
            read_trace_header(path)

    def test_duplicate_header_key_rejected(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        lines = open(path).read().splitlines(True)
        lines.insert(3, lines[2])
        open(path, "w").writelines(lines)
        with pytest.raises(IngestError, match="duplicate"):
            read_trace_header(path)


class TestStrictIngestion:
    def test_truncated_file_rejected(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        lines = open(path).read().splitlines(True)
        open(path, "w").writelines(lines[:-5])
        with pytest.raises(IngestError, match="truncat"):
            ingest_trace_file(path)

    def test_padded_file_rejected(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        with open(path, "a") as fp:
            fp.write("1 2 R\n")
        with pytest.raises(IngestError):
            ingest_trace_file(path)

    def test_checksum_corruption_rejected(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        text = open(path).read().replace(" 4194308 ", " 4194309 ", 1)
        open(path, "w").write(text)
        with pytest.raises(IngestError, match="checksum"):
            ingest_trace_file(path)

    def test_malformed_records_quarantined_with_line_numbers(self, tmp_path):
        raw = make_raw()
        path = write(tmp_path / "t.trace", raw)
        lines = open(path).read().splitlines(True)
        body_start = next(
            i for i, line in enumerate(lines) if not line.startswith("#")
        )
        lines[body_start + 2] = "not a record\n"
        open(path, "w").writelines(lines)
        report = ingest_trace_file(path, error_budget=2)
        assert report.trace.quarantined == 1
        assert not report.trace.checksum_verified
        assert report.trace.n_records == len(raw) - 1
        (line_no, reason, text) = report.quarantine[0]
        assert line_no == body_start + 3  # 1-based
        assert "flag" in reason or "fields" in reason
        assert text == "not a record"

    def test_error_budget_exceeded_rejects_whole_file(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        lines = open(path).read().splitlines(True)
        body_start = next(
            i for i, line in enumerate(lines) if not line.startswith("#")
        )
        for offset in range(4):
            lines[body_start + offset] = "bad\n"
        open(path, "w").writelines(lines)
        with pytest.raises(IngestError, match="budget"):
            ingest_trace_file(path, error_budget=3)

    def test_zero_budget_means_any_malformed_record_rejects(self, tmp_path):
        path = write(tmp_path / "t.trace", make_raw())
        lines = open(path).read().splitlines(True)
        lines[-1] = "bad\n"
        open(path, "w").writelines(lines)
        with pytest.raises(IngestError):
            ingest_trace_file(path, error_budget=0)

    def test_record_outside_declared_footprint_is_malformed(self, tmp_path):
        raw = make_raw(pages=2)
        path = write(tmp_path / "t.trace", raw, footprint_pages=2)
        with open(path) as fp:
            text = fp.read()
        # 2 pages x 64 lines -> any line >= 128 is out of bounds
        open(path, "w").write(text.replace("\n0 ", "\n999 ", 1))
        report = ingest_trace_file(path, error_budget=2)
        assert report.trace.quarantined == 1
        assert any("footprint" in reason for _, reason, _ in report.quarantine)

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="unreadable"):
            ingest_trace_file(str(tmp_path / "missing.trace"))


class TestReplayIntegration:
    def test_replay_spec_is_content_addressed(self, tmp_path):
        raw = make_raw()
        trace_a = ingest_trace_file(write(tmp_path / "a.trace", raw, name="x")).trace
        trace_b = ingest_trace_file(
            write(tmp_path / "b.trace", raw + [(0, 0, False)], name="x")
        ).trace
        assert replay_spec(trace_a).name != replay_spec(trace_b).name

    def test_trace_jobs_simulate_deterministically(self, tmp_path):
        from repro.sim.runner import run_workload

        path = write(tmp_path / "t.trace", make_raw(200), name="det")
        trace = ingest_trace_file(path).trace
        first = run_workload("cameo", trace, accesses_per_context=150)
        second = run_workload("cameo", trace, accesses_per_context=150)
        assert first.total_cycles == second.total_cycles
        assert first.ipc == second.ipc

    def test_replay_sources_share_the_ingested_columns(self, tmp_path, monkeypatch):
        from repro.config.system import scaled_paper_system
        from repro.workloads.ingest import replay_sources

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))
        raw = make_raw(200)
        trace = ingest_trace_file(write(tmp_path / "t.trace", raw)).trace
        columns = ingested_columns(trace)
        assert list(columns.lines) == [r[0] for r in raw]
        assert list(columns.pcs) == [r[1] for r in raw]
        assert columns.writes == bytearray(1 if r[2] else 0 for r in raw)
        config = scaled_paper_system()
        sources = replay_sources(trace, config, 500)
        assert len(sources) == config.num_contexts > 1
        assert all(source.columns is columns for source in sources)
        # Replay wraps: 500 accesses over a 200-record capture.
        assert list(sources[0].generate(500)) == [raw[i % 200] for i in range(500)]

    def test_binary_layer_round_trips_the_columns(self, tmp_path, monkeypatch):
        import repro.workloads.ingest as ingest_mod

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))
        raw = make_raw()
        trace = ingest_trace_file(write(tmp_path / "t.trace", raw)).trace
        ingest_mod._INGESTED_COLUMNS.clear()
        # The source file is gone, so only the binary layer can serve it.
        (tmp_path / "t.trace").unlink()
        assert list(ingested_columns(trace).records(len(raw))) == raw

    def test_failed_binary_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os

        def refuse(src, dst):
            raise OSError("disk full")

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(cache))
        path = write(tmp_path / "t.trace", make_raw())
        monkeypatch.setattr(os, "replace", refuse)
        # The binary layer is optional: ingestion still succeeds.
        assert ingest_trace_file(path).trace.n_records == 60
        assert list(cache.iterdir()) == []

    def test_ingested_records_detect_source_swap(self, tmp_path):
        import repro.workloads.ingest as ingest_mod

        raw = make_raw()
        path = write(tmp_path / "t.trace", raw, name="swap")
        trace = ingest_trace_file(path).trace
        write(tmp_path / "t.trace", make_raw(30), name="swap")
        ingest_mod._INGESTED_COLUMNS.clear()
        with pytest.raises(IngestError):
            no_cache = trace.__class__(
                **{**trace.__dict__, "checksum": "sha256:" + "0" * 64}
            )
            ingest_mod.ingested_columns(no_cache)
