"""Forward and inverted page tables.

Virtual pages are keyed by ``(asid, vpage)`` so rate-mode contexts (the
paper runs 32 copies of the same benchmark) never share physical frames:
"The virtual-to-physical mapping ensures that multiple benchmarks do not
map to the same physical address" (Section III-B).

Frame metadata is columnar: the referenced and dirty bits live in two
flat ``bytearray`` columns indexed by frame (plus a plain list for the
owning virtual page), which is what the vectorized engine shares with
its compiled kernel and what the clock replacer scans. A
:class:`FrameInfo` is a view over one frame's slots, made on demand by
:meth:`PageTable.frame`; standalone instances (snapshots returned by
:meth:`PageTable.unmap_frame`, test fixtures) own one-element backing
columns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

VirtualPage = Tuple[int, int]  # (address-space id, virtual page number)


class FrameInfo:
    """Per-frame metadata used by the clock replacement algorithm.

    A view over one slot of the page table's columnar metadata; the
    translation hot path writes the columns directly and skips these
    properties.
    """

    __slots__ = ("_vpages", "_ref", "_dirty", "_idx")

    def __init__(
        self,
        vpage: Optional[VirtualPage] = None,
        referenced: bool = False,
        dirty: bool = False,
    ):
        self._vpages: List[Optional[VirtualPage]] = [vpage]
        self._ref = bytearray((1 if referenced else 0,))
        self._dirty = bytearray((1 if dirty else 0,))
        self._idx = 0

    @classmethod
    def view(
        cls,
        vpages: List[Optional[VirtualPage]],
        referenced: bytearray,
        dirty: bytearray,
        idx: int,
    ) -> "FrameInfo":
        """A view over slot ``idx`` of a table's columnar frame state."""
        info = cls.__new__(cls)
        info._vpages = vpages
        info._ref = referenced
        info._dirty = dirty
        info._idx = idx
        return info

    @property
    def vpage(self) -> Optional[VirtualPage]:
        return self._vpages[self._idx]

    @vpage.setter
    def vpage(self, value: Optional[VirtualPage]) -> None:
        self._vpages[self._idx] = value

    @property
    def referenced(self) -> bool:
        return bool(self._ref[self._idx])

    @referenced.setter
    def referenced(self, value: bool) -> None:
        self._ref[self._idx] = 1 if value else 0

    @property
    def dirty(self) -> bool:
        return bool(self._dirty[self._idx])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._dirty[self._idx] = 1 if value else 0

    @property
    def valid(self) -> bool:
        return self._vpages[self._idx] is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrameInfo(vpage={self.vpage}, referenced={self.referenced}, "
                f"dirty={self.dirty})")


class PageTable:
    """Bidirectional vpage <-> frame mapping with frame metadata."""

    def __init__(self, num_frames: int):
        self.num_frames = num_frames
        self._forward: Dict[VirtualPage, int] = {}
        # Columnar frame metadata — single source of truth; the
        # FrameInfo views frame() makes wrap these same columns.
        self._vpages: List[Optional[VirtualPage]] = [None] * num_frames
        self.referenced = bytearray(num_frames)
        self.dirty = bytearray(num_frames)

    def frame(self, frame: int) -> FrameInfo:
        """A live view of one frame's metadata (reads and writes go through)."""
        if not 0 <= frame < self.num_frames:
            raise IndexError(f"frame {frame} out of range")
        return FrameInfo.view(self._vpages, self.referenced, self.dirty, frame)

    def lookup(self, vpage: VirtualPage) -> Optional[int]:
        """Return the frame holding ``vpage``, or None when not resident."""
        return self._forward.get(vpage)

    def map(self, vpage: VirtualPage, frame: int) -> None:
        """Install ``vpage`` into ``frame`` (which must be empty)."""
        occupant = self._vpages[frame]
        if occupant is not None:
            raise ValueError(f"frame {frame} already holds {occupant}")
        if vpage in self._forward:
            raise ValueError(f"{vpage} is already mapped")
        self._vpages[frame] = vpage
        self.referenced[frame] = 1
        self.dirty[frame] = 0
        self._forward[vpage] = frame

    def unmap_frame(self, frame: int) -> FrameInfo:
        """Evict whatever occupies ``frame``; returns its prior metadata."""
        vpage = self._vpages[frame]
        if vpage is not None:
            del self._forward[vpage]
        evicted = FrameInfo(
            vpage=vpage,
            referenced=bool(self.referenced[frame]),
            dirty=bool(self.dirty[frame]),
        )
        self._vpages[frame] = None
        self.referenced[frame] = 0
        self.dirty[frame] = 0
        return evicted

    def touch(self, frame: int, is_write: bool) -> None:
        """Mark reference (and dirty) bits for an access to ``frame``."""
        self.referenced[frame] = 1
        if is_write:
            self.dirty[frame] = 1

    def resident_count(self) -> int:
        return len(self._forward)

    def swap_mappings(self, frame_a: int, frame_b: int) -> None:
        """Exchange two frames' virtual pages; their columns stay put."""
        vpages = self._vpages
        vpage_a, vpage_b = vpages[frame_a], vpages[frame_b]
        if vpage_a is not None:
            self._forward[vpage_a] = frame_b
        if vpage_b is not None:
            self._forward[vpage_b] = frame_a
        vpages[frame_a], vpages[frame_b] = vpage_b, vpage_a

    def swap_frames(self, frame_a: int, frame_b: int) -> None:
        """Exchange the contents of two frames (used by TLM page migration)."""
        self.swap_mappings(frame_a, frame_b)
        ref = self.referenced
        ref[frame_a], ref[frame_b] = ref[frame_b], ref[frame_a]
        dirty = self.dirty
        dirty[frame_a], dirty[frame_b] = dirty[frame_b], dirty[frame_a]
