"""Tests for the Table II workload registry."""

import dataclasses

import pytest

from repro.errors import WorkloadError
from repro.units import GIB
from repro.workloads.spec import (
    CAPACITY,
    LATENCY,
    WORKLOADS,
    WorkloadSpec,
    capacity_workloads,
    latency_workloads,
    workload,
    workload_names,
)


class TestTableII:
    def test_all_seventeen_workloads_present(self):
        assert len(WORKLOADS) == 17

    def test_six_capacity_eleven_latency(self):
        assert len(capacity_workloads()) == 6
        assert len(latency_workloads()) == 11

    def test_capacity_means_footprint_exceeds_offchip(self):
        # Table II: capacity-limited workloads have footprints > 12 GB.
        for spec in capacity_workloads():
            assert spec.footprint_bytes > 12 * GIB

    def test_latency_fits_offchip_with_mpki_over_one(self):
        for spec in latency_workloads():
            assert spec.footprint_bytes <= 12 * GIB
            assert spec.l3_mpki > 1.0

    def test_table2_exact_values(self):
        mcf = workload("mcf")
        assert mcf.l3_mpki == pytest.approx(39.1)
        assert mcf.footprint_bytes == int(52.4 * GIB)
        libq = workload("libquantum")
        assert libq.l3_mpki == pytest.approx(25.4)
        assert libq.footprint_bytes == 1 * GIB

    def test_milc_sparse_pages(self):
        # Section VI-A: milc uses ~10 of 64 lines per page.
        assert workload("milc").lines_used_per_page == 10

    def test_names_in_paper_order(self):
        assert workload_names()[:3] == ["mcf", "lbm", "GemsFDTD"]
        assert workload_names(LATENCY)[0] == "gcc"

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            workload("doom")

    def test_unknown_category_rejected(self):
        with pytest.raises(WorkloadError):
            workload_names("medium")


class TestDerivedQuantities:
    def test_instructions_per_miss(self):
        assert workload("gcc").instructions_per_miss == pytest.approx(1000 / 63.1)

    def test_footprint_scaling_preserves_pressure(self):
        # At every scale, mcf must exceed total memory and sphinx3 must
        # fit in stacked (the classification of Table II).
        for shift in (8, 10, 12):
            total_pages = (16 * GIB >> shift) // 4096
            stacked_pages = (4 * GIB >> shift) // 4096
            assert workload("mcf").footprint_pages(shift) > total_pages
            assert workload("sphinx3").footprint_pages(shift) < stacked_pages

    def test_footprint_never_zero(self):
        for spec in WORKLOADS:
            assert spec.footprint_pages(20) >= 1

    def test_random_prob_complements(self):
        for spec in WORKLOADS:
            assert spec.random_prob == pytest.approx(
                1 - spec.hot_access_prob - spec.stream_prob
            )
            assert spec.random_prob >= -1e-9


class TestValidation:
    def test_probabilities_must_not_exceed_one(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("x", LATENCY, 1.0, GIB, hot_fraction=0.1,
                         hot_access_prob=0.7, stream_prob=0.5,
                         lines_used_per_page=8)

    def test_zero_mpki_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("x", LATENCY, 0.0, GIB, hot_fraction=0.1,
                         hot_access_prob=0.5, stream_prob=0.1,
                         lines_used_per_page=8)

    def test_bad_category_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("x", "weird", 1.0, GIB, hot_fraction=0.1,
                         hot_access_prob=0.5, stream_prob=0.1,
                         lines_used_per_page=8)

    def test_bad_lines_used_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("x", LATENCY, 1.0, GIB, hot_fraction=0.1,
                         hot_access_prob=0.5, stream_prob=0.1,
                         lines_used_per_page=65)

    # Knobs the generator cannot run: an empty PC pool indexes an empty
    # list (a zero modulus in the compiled generator), and a hot_skew
    # that is not a finite positive number raises or leaves the footprint.
    @pytest.mark.parametrize(
        "pool", ["pc_pool_hot", "pc_pool_stream", "pc_pool_random"]
    )
    def test_empty_pc_pool_rejected(self, pool):
        with pytest.raises(WorkloadError, match=pool):
            dataclasses.replace(workload("mcf"), **{pool: 0})

    @pytest.mark.parametrize(
        "skew", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_hot_skew_must_be_finite_and_positive(self, skew):
        with pytest.raises(WorkloadError, match="hot_skew"):
            dataclasses.replace(workload("mcf"), hot_skew=skew)


class TestAsDictMemo:
    """``as_dict`` is derived once per instance of the frozen spec."""

    def test_equals_dataclasses_asdict(self):
        for spec in WORKLOADS:
            assert spec.as_dict() == dataclasses.asdict(spec)
            assert spec.as_dict() == dataclasses.asdict(spec)  # memoized

    def test_each_call_returns_a_copy(self):
        spec = dataclasses.replace(workload("milc"))
        first = spec.as_dict()
        first["l3_mpki"] = -1.0
        assert spec.as_dict()["l3_mpki"] == workload("milc").l3_mpki

    def test_the_memo_is_not_a_field(self):
        spec = dataclasses.replace(workload("milc"))
        spec.as_dict()
        plain = dataclasses.replace(workload("milc"))
        assert spec == plain
        assert hash(spec) == hash(plain)
        assert repr(spec) == repr(plain)
        assert dataclasses.asdict(spec) == dataclasses.asdict(plain)

    def test_replace_gets_a_fresh_value(self):
        spec = workload("milc")
        spec.as_dict()
        changed = dataclasses.replace(spec, l3_mpki=1.5)
        assert changed.as_dict()["l3_mpki"] == 1.5
        assert spec.as_dict()["l3_mpki"] == workload("milc").l3_mpki
