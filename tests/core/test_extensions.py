"""Tests for the CAMEO extensions: frequency hints and associativity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.extensions import FreqHintCameo, SetAssociativeCameo, SuperGroupTable
from repro.core.llp import SamPredictor
from repro.errors import ConfigurationError
from repro.request import MemoryRequest
from repro.vm.memory_manager import MemoryManager
from repro.vm.ssd import SsdModel
from tests.conftest import make_config


def read(line, pc=0x400000):
    return MemoryRequest(0, pc, line)


def bind_mm(org, seed=0):
    mm = MemoryManager(
        num_frames=org.visible_pages,
        ssd=SsdModel(100_000, org.config.page_bytes),
        stacked_frames=org.stacked_visible_pages,
        allocation="sequential",
        seed=seed,
    )
    org.bind_memory_manager(mm)
    return mm


class TestFreqHintCameo:
    def test_cold_page_lines_are_not_swapped(self):
        config = make_config(stacked_pages=64)
        org = FreqHintCameo(config, hot_vpages=frozenset())  # nothing is hot
        mm = bind_mm(org)
        mm.translate((0, 5))  # sequential alloc: vpage 5 -> frame 5
        line = config.stacked_lines + 7
        frame = line // config.lines_per_page
        mm.page_table.unmap_frame(frame)  # keep it simple: unmapped
        before = org.stats.line_swaps
        org.access(0.0, read(line))
        assert org.stats.line_swaps == before
        assert org.filtered_swaps == 1

    def test_hot_page_lines_swap_normally(self):
        config = make_config(stacked_pages=64)
        org = FreqHintCameo(config, hot_vpages=frozenset({(0, 0)}))
        mm = bind_mm(org)
        # Map the hot vpage onto an off-chip frame by hand.
        offchip_frame = config.stacked_pages + 1
        mm.page_table.map((0, 0), offchip_frame)
        line = offchip_frame * config.lines_per_page
        org.access(0.0, read(line))
        assert org.stats.line_swaps == 1
        assert org.filtered_swaps == 0

    def test_unbound_behaves_like_plain_cameo(self):
        config = make_config(stacked_pages=64)
        org = FreqHintCameo(config, hot_vpages=frozenset())
        org.access(0.0, read(config.stacked_lines + 3))
        assert org.stats.line_swaps == 1


class TestSuperGroupTable:
    def test_initial_identity(self):
        table = SuperGroupTable(num_supergroups=4, ways=2, group_size=4)
        assert table.location_of(0, 3) == 3
        assert table.is_stacked(0, 0) and table.is_stacked(0, 1)
        assert not table.is_stacked(0, 2)

    def test_swap_to_way(self):
        table = SuperGroupTable(4, 2, 4)
        vacated = table.swap_to_way(1, requested_slot=5, way=0)
        assert vacated == 5
        assert table.location_of(1, 5) == 0
        assert table.location_of(1, 0) == 5
        table.check_invariant(1)

    def test_lru_alternates(self):
        table = SuperGroupTable(4, 2, 4)
        table.note_use(0, 0)
        assert table.victim_way(0) == 1
        table.note_use(0, 1)
        assert table.victim_way(0) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)), max_size=40))
    def test_permutation_invariant(self, swaps):
        table = SuperGroupTable(2, 2, 4)
        for slot, way in swaps:
            table.swap_to_way(0, slot, way)
            table.check_invariant(0)
            # Exactly `ways` slots are stacked at all times.
            stacked = sum(1 for s in range(8) if table.is_stacked(0, s))
            assert stacked == 2


class TestSetAssociativeCameo:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCameo(make_config(), ways=3)

    def test_capacity_matches_colocated(self):
        config = make_config(stacked_pages=64)
        org = SetAssociativeCameo(config, ways=2)
        assert org.visible_pages == config.total_pages - 2

    def test_two_lines_coexist_in_one_supergroup(self):
        """The whole point: direct-mapped conflicts disappear at 2-way."""
        config = make_config(stacked_pages=64)
        org = SetAssociativeCameo(config, ways=2)
        sg_count = org.num_supergroups
        line_a = sg_count * 2 + 5   # slot 2 of super-group 5
        line_b = sg_count * 3 + 5   # slot 3 of super-group 5
        org.access(0.0, read(line_a))
        org.flush_posted(1e6)
        org.access(1e6, read(line_b))
        org.flush_posted(2e6)
        assert org.access(2e6, read(line_a)).serviced_by_stacked
        org.flush_posted(3e6)
        assert org.access(3e6, read(line_b)).serviced_by_stacked

    def test_direct_mapped_cameo_conflicts_on_same_pattern(self):
        """Contrast: 1-way (= plain CAMEO structure) ping-pongs."""
        config = make_config(stacked_pages=64)
        org = SetAssociativeCameo(config, ways=1)
        sg_count = org.num_supergroups
        line_a = sg_count * 1 + 5
        line_b = sg_count * 2 + 5
        org.access(0.0, read(line_a))
        org.flush_posted(1e6)
        org.access(1e6, read(line_b))   # evicts line_a
        org.flush_posted(2e6)
        assert not org.access(2e6, read(line_a)).serviced_by_stacked

    def test_second_probe_counted(self):
        config = make_config(stacked_pages=64)
        org = SetAssociativeCameo(config, ways=2)
        sg_count = org.num_supergroups
        org.access(0.0, read(sg_count * 2 + 5))    # into way LRU
        org.flush_posted(1e6)
        org.access(1e6, read(sg_count * 3 + 5))    # into the other way
        org.flush_posted(2e6)
        before = org.second_probe_count
        org.access(2e6, read(sg_count * 2 + 5))
        org.flush_posted(3e6)
        org.access(3e6, read(sg_count * 3 + 5))
        assert org.second_probe_count > before

    def test_invariants_after_traffic(self):
        import random

        config = make_config(stacked_pages=16)
        org = SetAssociativeCameo(config, ways=2)
        rng = random.Random(0)
        now = 0.0
        for _ in range(400):
            line = rng.randrange(org.visible_pages * config.lines_per_page)
            org.flush_posted(now)
            org.access(now, MemoryRequest(0, 0x400000, line, rng.random() < 0.3))
            now += 50.0
        org.check_invariants()

    def test_paging_splits_by_residency(self):
        config = make_config(stacked_pages=16)
        org = SetAssociativeCameo(config, ways=2)
        org.page_fill(0.0, frame=0)
        total = org.stacked.stats.bytes_written + org.offchip.stats.bytes_written
        assert total == 4096
