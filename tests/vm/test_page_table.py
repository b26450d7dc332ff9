"""Tests for the forward/inverted page table."""

import pytest

from repro.vm.page_table import PageTable


class TestMapping:
    def test_lookup_unmapped_is_none(self):
        assert PageTable(4).lookup((0, 0)) is None

    def test_map_and_lookup(self):
        pt = PageTable(4)
        pt.map((0, 7), 2)
        assert pt.lookup((0, 7)) == 2
        assert pt.frame(2).vpage == (0, 7)

    def test_asid_disambiguates(self):
        pt = PageTable(4)
        pt.map((0, 7), 0)
        pt.map((1, 7), 1)
        assert pt.lookup((0, 7)) == 0
        assert pt.lookup((1, 7)) == 1

    def test_double_map_frame_rejected(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        with pytest.raises(ValueError):
            pt.map((0, 2), 0)

    def test_double_map_vpage_rejected(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        with pytest.raises(ValueError):
            pt.map((0, 1), 1)

    def test_resident_count(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.map((0, 2), 1)
        assert pt.resident_count() == 2


class TestUnmap:
    def test_unmap_returns_metadata(self):
        pt = PageTable(4)
        pt.map((0, 5), 3)
        pt.touch(3, is_write=True)
        info = pt.unmap_frame(3)
        assert info.vpage == (0, 5)
        assert info.dirty
        assert pt.lookup((0, 5)) is None
        assert not pt.frame(3).valid

    def test_unmap_empty_frame_is_noop(self):
        pt = PageTable(4)
        info = pt.unmap_frame(0)
        assert info.vpage is None


class TestTouch:
    def test_read_sets_referenced_only(self):
        pt = PageTable(4)
        pt.map((0, 0), 0)
        pt.frame(0).referenced = False
        pt.touch(0, is_write=False)
        assert pt.frame(0).referenced
        assert not pt.frame(0).dirty

    def test_write_sets_dirty(self):
        pt = PageTable(4)
        pt.map((0, 0), 0)
        pt.touch(0, is_write=True)
        assert pt.frame(0).dirty


class TestSwapFrames:
    def test_swap_updates_forward_map(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.map((0, 2), 3)
        pt.swap_frames(0, 3)
        assert pt.lookup((0, 1)) == 3
        assert pt.lookup((0, 2)) == 0

    def test_swap_with_empty_frame(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.swap_frames(0, 2)
        assert pt.lookup((0, 1)) == 2
        assert not pt.frame(0).valid

    def test_swap_carries_dirty_bit(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.touch(0, is_write=True)
        pt.swap_frames(0, 1)
        assert pt.frame(1).dirty


class TestFrameView:
    def test_view_reads_and_writes_the_columns(self):
        pt = PageTable(4)
        pt.map((0, 3), 2)
        view = pt.frame(2)
        view.dirty = True
        assert pt.dirty[2] == 1
        assert view.vpage == (0, 3)

    def test_out_of_range_frame_rejected(self):
        pt = PageTable(4)
        with pytest.raises(IndexError):
            pt.frame(4)
        with pytest.raises(IndexError):
            pt.frame(-1)
