"""Virtual-memory substrate: page tables, clock reclaim, SSD paging."""

from .clock import ClockReplacer
from .memory_manager import MemoryManager, TranslationResult, VmStats
from .page_table import FrameInfo, FrameView, PageTable, VirtualPage
from .ssd import SsdModel, SsdStats

__all__ = [
    "ClockReplacer",
    "FrameInfo",
    "FrameView",
    "MemoryManager",
    "PageTable",
    "SsdModel",
    "SsdStats",
    "TranslationResult",
    "VirtualPage",
    "VmStats",
]
