"""Forward and inverted page tables.

Virtual pages are keyed by ``(asid, vpage)`` so rate-mode contexts (the
paper runs 32 copies of the same benchmark) never share physical frames:
"The virtual-to-physical mapping ensures that multiple benchmarks do not
map to the same physical address" (Section III-B).

The mapping is held in the layout the compiled kernel translates
through, so the vectorized engine hands it these very buffers and no
second copy exists to keep in sync. Two int64 columns carry it:

* ``fwd[key] = frame + 1`` (0: not resident), with
  ``key = asid * stride + (vpage - vbase)``;
* ``inv[frame] = key + 1`` (0: the frame is free).

``stride`` and ``n_asids`` bound the keys and grow on demand when a page
outside them is mapped (:meth:`PageTable.reserve` grows them ahead of
time); ``vbase`` is 0 unless a negative virtual page was ever mapped,
and the kernel only runs over tables where it is. Growing re-lays the
mapping out into a new ``fwd`` and rewrites ``inv`` in place.

Frame metadata is columnar too: the referenced and dirty bits live in
two flat ``bytearray`` columns indexed by frame, which the kernel shares
and the clock replacer scans. :meth:`PageTable.frame` makes a live
:class:`FrameView` over one frame; :meth:`PageTable.unmap_frame` returns
a :class:`FrameInfo` snapshot.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

VirtualPage = Tuple[int, int]  # (address-space id, virtual page number)


class FrameInfo:
    """A snapshot of one frame's metadata (what :meth:`PageTable.unmap_frame` returns)."""

    __slots__ = ("vpage", "referenced", "dirty")

    def __init__(
        self,
        vpage: Optional[VirtualPage] = None,
        referenced: bool = False,
        dirty: bool = False,
    ):
        self.vpage = vpage
        self.referenced = referenced
        self.dirty = dirty

    @property
    def valid(self) -> bool:
        return self.vpage is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrameInfo(vpage={self.vpage}, referenced={self.referenced}, "
                f"dirty={self.dirty})")


class FrameView:
    """A live view of one frame's slots in a :class:`PageTable`.

    Reads and writes of the referenced and dirty bits go through to the
    table's columns; the translation hot path writes the columns
    directly and skips these properties.
    """

    __slots__ = ("_table", "_frame")

    def __init__(self, table: "PageTable", frame: int):
        self._table = table
        self._frame = frame

    @property
    def vpage(self) -> Optional[VirtualPage]:
        return self._table.vpage_of(self._frame)

    @property
    def valid(self) -> bool:
        return self._table.inv[self._frame] != 0

    @property
    def referenced(self) -> bool:
        return bool(self._table.referenced[self._frame])

    @referenced.setter
    def referenced(self, value: bool) -> None:
        self._table.referenced[self._frame] = 1 if value else 0

    @property
    def dirty(self) -> bool:
        return bool(self._table.dirty[self._frame])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._table.dirty[self._frame] = 1 if value else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrameView(frame={self._frame}, vpage={self.vpage}, "
                f"referenced={self.referenced}, dirty={self.dirty})")


class PageTable:
    """Bidirectional vpage <-> frame mapping with frame metadata."""

    def __init__(self, num_frames: int):
        self.num_frames = num_frames
        self.n_asids = 0
        self.stride = 0
        self.vbase = 0
        self.fwd = array("q")
        self.inv = array("q", bytes(8 * num_frames))
        self.referenced = bytearray(num_frames)
        self.dirty = bytearray(num_frames)

    # -- Layout ------------------------------------------------------------------

    def key_of(self, vpage: VirtualPage) -> int:
        """``vpage``'s slot in :attr:`fwd`, or -1 when the layout lacks one."""
        asid, page = vpage
        offset = page - self.vbase
        if 0 <= offset < self.stride and 0 <= asid < self.n_asids:
            return asid * self.stride + offset
        return -1

    def reserve(self, n_asids: int, stride: int) -> None:
        """Give asids ``[0, n_asids)`` and vpages ``[0, stride)`` a slot.

        A no-op when the layout already covers them. The vectorized
        engine reserves a run's whole footprint before it hands the
        kernel :attr:`fwd`, so nothing the run maps re-lays it out.
        """
        if n_asids > self.n_asids or stride > self.vbase + self.stride:
            self._relayout(
                max(n_asids, self.n_asids),
                self.vbase,
                max(stride, self.vbase + self.stride) - self.vbase,
            )

    def _grow_to(self, asid: int, page: int) -> None:
        """Re-lay the table out so that ``(asid, page)`` has a slot.

        Each overflowing dimension at least doubles, so a table that
        grows one page at a time re-lays out only logarithmically often.
        """
        if asid < 0:
            raise ValueError(f"asid {asid} is negative")
        vbase = self.vbase
        top = vbase + self.stride  # one past the highest covered page
        if page < vbase:
            vbase = min(page, 2 * vbase)
        if page >= top:
            top = max(page + 1, vbase + 2 * self.stride)
        n_asids = self.n_asids
        if asid >= n_asids:
            n_asids = max(asid + 1, 2 * n_asids)
        self._relayout(n_asids, vbase, top - vbase)

    def _relayout(self, n_asids: int, vbase: int, stride: int) -> None:
        fwd = array("q", bytes(8 * n_asids * stride))
        inv = self.inv
        old_stride, shift = self.stride, self.vbase - vbase
        # An empty layout has no key, so inv is all zero: nothing to move
        # (a fresh machine's first reserve).
        if self.fwd:
            for frame, key in enumerate(inv):
                if key:
                    asid, offset = divmod(key - 1, old_stride)
                    new_key = asid * stride + offset + shift
                    fwd[new_key] = frame + 1
                    inv[frame] = new_key + 1
        self.fwd = fwd
        self.n_asids, self.vbase, self.stride = n_asids, vbase, stride

    # -- Mapping -----------------------------------------------------------------

    def frame(self, frame: int) -> FrameView:
        """A live view of one frame's metadata (reads and writes go through)."""
        if not 0 <= frame < self.num_frames:
            raise IndexError(f"frame {frame} out of range")
        return FrameView(self, frame)

    def lookup(self, vpage: VirtualPage) -> Optional[int]:
        """Return the frame holding ``vpage``, or None when not resident."""
        key = self.key_of(vpage)
        if key < 0:
            return None
        frame = self.fwd[key]
        return frame - 1 if frame else None

    def vpage_of(self, frame: int) -> Optional[VirtualPage]:
        """The virtual page ``frame`` holds, or None when it is free."""
        key = self.inv[frame]
        if not key:
            return None
        asid, offset = divmod(key - 1, self.stride)
        return (asid, offset + self.vbase)

    def map(self, vpage: VirtualPage, frame: int) -> None:
        """Install ``vpage`` into ``frame`` (which must be empty)."""
        if self.inv[frame]:
            raise ValueError(f"frame {frame} already holds {self.vpage_of(frame)}")
        key = self.key_of(vpage)
        if key < 0:
            self._grow_to(*vpage)
            key = self.key_of(vpage)
        elif self.fwd[key]:
            raise ValueError(f"{vpage} is already mapped")
        self.fwd[key] = frame + 1
        self.inv[frame] = key + 1
        self.referenced[frame] = 1
        self.dirty[frame] = 0

    def evict(self, frame: int) -> Optional[VirtualPage]:
        """Unmap whatever page ``frame`` holds, leaving its bits; returns it."""
        key = self.inv[frame]
        if not key:
            return None
        vpage = self.vpage_of(frame)
        self.fwd[key - 1] = 0
        self.inv[frame] = 0
        return vpage

    def unmap_frame(self, frame: int) -> FrameInfo:
        """Evict whatever occupies ``frame``; returns its prior metadata."""
        evicted = FrameInfo(
            vpage=self.evict(frame),
            referenced=bool(self.referenced[frame]),
            dirty=bool(self.dirty[frame]),
        )
        self.referenced[frame] = 0
        self.dirty[frame] = 0
        return evicted

    def touch(self, frame: int, is_write: bool) -> None:
        """Mark reference (and dirty) bits for an access to ``frame``."""
        self.referenced[frame] = 1
        if is_write:
            self.dirty[frame] = 1

    def resident_count(self) -> int:
        return self.num_frames - self.inv.count(0)

    def swap_frames(self, frame_a: int, frame_b: int) -> None:
        """Exchange the contents of two frames (used by TLM page migration)."""
        fwd, inv = self.fwd, self.inv
        key_a, key_b = inv[frame_a], inv[frame_b]
        if key_a:
            fwd[key_a - 1] = frame_b + 1
        if key_b:
            fwd[key_b - 1] = frame_a + 1
        inv[frame_a], inv[frame_b] = key_b, key_a
        ref = self.referenced
        ref[frame_a], ref[frame_b] = ref[frame_b], ref[frame_a]
        dirty = self.dirty
        dirty[frame_a], dirty[frame_b] = dirty[frame_b], dirty[frame_a]
