"""Analysis helpers: analytical models, landscape data, text rendering."""

from .dram_landscape import DRAM_PARTS, DramPart, bandwidth_gap, capacity_gap, landscape
from .latency_model import LltLatency, expected_latency, llt_latency_model
from .plots import ascii_scatter, ascii_series
from .report import format_bar_chart, format_speedup_bar, format_table
from .verification import (
    Claim,
    headline_claims,
    llp_claims,
    paper_claims,
    render_claims,
    scalar_claim,
    shape_claim,
)

__all__ = [
    "Claim",
    "ascii_scatter",
    "ascii_series",
    "DRAM_PARTS",
    "headline_claims",
    "llp_claims",
    "paper_claims",
    "render_claims",
    "scalar_claim",
    "shape_claim",
    "DramPart",
    "LltLatency",
    "bandwidth_gap",
    "capacity_gap",
    "expected_latency",
    "format_bar_chart",
    "format_speedup_bar",
    "format_table",
    "landscape",
    "llt_latency_model",
]
