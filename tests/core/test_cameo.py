"""Tests for the three CAMEO controllers (Ideal / Embedded / Co-Located)."""

import random

import pytest

from repro.core.lead import LEAD_BYTES
from repro.core.llp import LastLocationPredictor, PerfectPredictor, SamPredictor
from repro.core.llt_designs import CoLocatedLltCameo, EmbeddedLltCameo, IdealLltCameo
from repro.errors import ConfigurationError
from repro.request import MemoryRequest
from tests.conftest import make_config


@pytest.fixture
def config():
    return make_config(stacked_pages=4)


def read(line, pc=0x400000, ctx=0):
    return MemoryRequest(context_id=ctx, pc=pc, line_addr=line)


def write(line, pc=0x400000, ctx=0):
    return MemoryRequest(context_id=ctx, pc=pc, line_addr=line, is_write=True)


class TestCapacityAccounting:
    def test_ideal_exposes_everything(self, config):
        org = IdealLltCameo(config)
        assert org.visible_pages == config.total_pages
        assert org.stacked_visible_pages == config.stacked_pages

    def test_embedded_reserves_llt_bytes(self, config):
        org = EmbeddedLltCameo(config)
        expected = -(-config.llt_bytes // config.page_bytes)
        assert org.visible_pages == config.total_pages - expected

    def test_colocated_reserves_one_32nd_of_stacked(self):
        config = make_config(stacked_pages=64)
        org = CoLocatedLltCameo(config)
        assert org.visible_pages == config.total_pages - 64 // 32

    def test_reservation_ordering(self):
        # Paper: the co-located design sacrifices more raw capacity than
        # embedded (1/32 of stacked vs 1/64), but wins on latency.
        config = make_config(stacked_pages=64)
        assert (
            IdealLltCameo(config).visible_pages
            >= EmbeddedLltCameo(config).visible_pages
        )


class TestSwapSemantics:
    @pytest.mark.parametrize("cls", [IdealLltCameo, EmbeddedLltCameo, CoLocatedLltCameo])
    def test_offchip_read_swaps_line_in(self, cls, config):
        org = cls(config, predictor=SamPredictor())
        line = config.stacked_lines + 5  # requested slot 1, group 5
        assert not org.llt.is_stacked_resident(5, 1)
        result = org.access(0.0, read(line))
        assert not result.serviced_by_stacked
        assert org.llt.is_stacked_resident(5, 1)
        assert org.stats.line_swaps == 1

    @pytest.mark.parametrize("cls", [IdealLltCameo, EmbeddedLltCameo, CoLocatedLltCameo])
    def test_second_read_is_stacked(self, cls, config):
        org = cls(config, predictor=SamPredictor())
        line = config.stacked_lines + 5
        org.access(0.0, read(line))
        org.flush_posted(1e6)
        result = org.access(1e6, read(line))
        assert result.serviced_by_stacked

    def test_stacked_read_does_not_swap(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor())
        org.access(0.0, read(7))  # line 7 starts stacked (slot 0)
        assert org.stats.line_swaps == 0

    def test_write_swap_moves_line(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor(), swap_on_write=True)
        line = config.stacked_lines + 9
        org.access(0.0, write(line))
        assert org.llt.is_stacked_resident(9, 1)

    def test_write_in_place_leaves_location(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor(), swap_on_write=False)
        line = config.stacked_lines + 9
        org.access(0.0, write(line))
        assert not org.llt.is_stacked_resident(9, 1)

    def test_invariants_hold_after_traffic(self, config):
        org = CoLocatedLltCameo(config, predictor=LastLocationPredictor())
        import random
        rng = random.Random(0)
        now = 0.0
        for _ in range(300):
            line = rng.randrange(org.visible_pages * config.lines_per_page)
            req = MemoryRequest(0, 0x400000 + 4 * rng.randrange(64), line,
                                rng.random() < 0.3)
            org.flush_posted(now)
            org.access(now, req)
            now += 50.0
        org.check_invariants()


class TestLatencyShapes:
    def test_embedded_stacked_hit_pays_indirection(self, config):
        embedded = EmbeddedLltCameo(config)
        colocated = CoLocatedLltCameo(config, predictor=SamPredictor())
        e = embedded.access(0.0, read(3)).latency
        c = colocated.access(0.0, read(3)).latency
        # Figure 8: embedded H = 2 units, co-located H = 1 unit.
        assert e > 1.5 * c

    def test_colocated_offchip_is_serial_under_sam(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor())
        stacked_only = org.access(0.0, read(3)).latency
        offchip = org.access(1e6, read(config.stacked_lines + 3)).latency
        # M = probe + off-chip access: strictly more than either alone.
        assert offchip > stacked_only
        assert offchip > config.offchip_timing.row_closed_cycles(64)

    def test_perfect_prediction_hides_probe(self, config):
        serial = CoLocatedLltCameo(make_config(), predictor=SamPredictor())
        parallel = CoLocatedLltCameo(make_config(), predictor=PerfectPredictor())
        line = make_config().stacked_lines + 3
        s = serial.access(0.0, read(line)).latency
        p = parallel.access(0.0, read(line)).latency
        assert p < s

    def test_ideal_stacked_hit_is_single_access(self, config):
        org = IdealLltCameo(config)
        latency = org.access(0.0, read(3)).latency
        assert latency == pytest.approx(config.stacked_timing.row_closed_cycles(64))


class TestTrafficAccounting:
    def test_lead_reads_move_66_bytes(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor())
        org.access(0.0, read(3))
        assert org.stacked.stats.bytes_read == LEAD_BYTES

    def test_swap_always_writes_victim_offchip(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor())
        org.access(0.0, read(config.stacked_lines + 3))
        org.drain_posted()
        # Demand read + victim write on the off-chip device.
        assert org.offchip.stats.bytes_read == 64
        assert org.offchip.stats.bytes_written == 64

    def test_case2_charges_wasted_offchip_read(self, config):
        org = CoLocatedLltCameo(config, predictor=LastLocationPredictor())
        pc = 0x400000
        line_off = config.stacked_lines + 3
        org.access(0.0, read(line_off, pc=pc))     # trains predictor -> slot 1
        org.drain_posted()
        before = org.offchip.stats.reads
        # A *different* group's stacked-resident line, same PC: the stale
        # "slot 1" prediction fires a useless parallel off-chip fetch.
        org.access(1e6, read(4, pc=pc))
        assert org.offchip.stats.reads == before + 1
        assert org.case_stats.case2_stacked_predicted_offchip == 1

    def test_case_stats_track_reads_only(self, config):
        org = CoLocatedLltCameo(config, predictor=SamPredictor())
        org.access(0.0, write(3))
        assert org.case_stats.total == 0
        org.access(1e5, read(3))
        assert org.case_stats.total == 1


class TestPaging:
    def test_page_fill_splits_by_residency(self, config):
        org = IdealLltCameo(config)
        org.page_fill(0.0, frame=0)  # frame 0 is entirely stacked initially
        assert org.stacked.stats.bytes_written == 64 * 64
        assert org.offchip.stats.bytes_written == 0

    def test_offchip_frame_fill_goes_offchip(self, config):
        org = IdealLltCameo(config)
        org.page_fill(0.0, frame=config.stacked_pages)
        assert org.offchip.stats.bytes_written == 64 * 64
        assert org.stacked.stats.bytes_written == 0

    def test_page_drain_reads(self, config):
        org = IdealLltCameo(config)
        org.page_drain(0.0, frame=0)
        assert org.stacked.stats.bytes_read == 64 * 64

    def test_fill_follows_swapped_lines(self, config):
        org = IdealLltCameo(config)
        offchip_frame = config.stacked_pages  # its lines live off-chip
        first_line = offchip_frame * config.lines_per_page
        org.access(0.0, read(first_line))  # swap one line into stacked
        org.drain_posted()
        org.stacked.reset_stats()
        org.offchip.reset_stats()
        org.page_fill(1e6, offchip_frame)
        assert org.stacked.stats.bytes_written == 64
        assert org.offchip.stats.bytes_written == 63 * 64

    @pytest.mark.parametrize("damage", ["none", "decommissioned", "corrupted"])
    def test_sliced_split_matches_per_line_split(self, damage):
        # _split_frame_lines counts a page's stacked lines with one
        # strided slice of the LLT table; the per-line walk below is the
        # definition it must reproduce on every frame.
        def per_line_split(org, frame):
            stacked_lines = 0
            offchip_lines = 0
            for line in org._frame_lines(frame):
                group, requested_slot = org.space.split(line)
                if group not in org.decommissioned and (
                    org.llt.location_of(group, requested_slot) == 0
                ):
                    stacked_lines += 1
                else:
                    offchip_lines += 1
            return stacked_lines, offchip_lines

        config = make_config(stacked_pages=8)
        org = CoLocatedLltCameo(config)
        rng = random.Random(7)
        groups, k = config.num_groups, config.group_size
        for _ in range(4 * groups):
            org.llt.swap_to_stacked(rng.randrange(groups), rng.randrange(k))
        if damage == "decommissioned":
            for group in rng.sample(range(groups), groups // 8):
                org._decommission_group(0.0, group)
        elif damage == "corrupted":
            for group in rng.sample(range(groups), groups // 8):
                org.llt.corrupt_entry(group, rng.randrange(k), rng.randrange(k))
        for frame in range(config.total_pages):
            assert org._split_frame_lines(frame) == per_line_split(org, frame)

    def test_split_rejects_frames_outside_the_line_space(self, config):
        org = IdealLltCameo(config)
        with pytest.raises(ConfigurationError):
            org._split_frame_lines(config.total_pages)
