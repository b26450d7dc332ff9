"""Automated paper-vs-measured verification (the EXPERIMENTS.md engine).

The paper makes a set of headline quantitative claims and a larger set
of *qualitative* shape claims. This module encodes both as checkable
:class:`Claim` objects: each has a paper value (or relation), extracts a
measured value from experiment results, and reports its verdict. The
benchmarks assert the qualitative claims; this module additionally
quantifies how far the measured values sit from the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..config import paper
from .report import format_table


@dataclass(frozen=True)
class Claim:
    """One verifiable statement from the paper."""

    source: str            # e.g. "Fig.13" or "Tab.III"
    description: str
    paper_value: Optional[float]   # None for purely relational claims
    measured_value: float
    #: Relational claims pass on the relation alone; scalar claims pass
    #: when measured is within ``tolerance`` (relative) of the paper.
    holds: bool
    tolerance: float = 0.25

    @property
    def deviation(self) -> Optional[float]:
        """Relative deviation from the paper value (None if relational)."""
        if self.paper_value is None or self.paper_value == 0:
            return None
        return (self.measured_value - self.paper_value) / self.paper_value

    @property
    def verdict(self) -> str:
        return "OK" if self.holds else "DEVIATES"


def scalar_claim(source: str, description: str, paper_value: float,
                 measured_value: float, tolerance: float = 0.25) -> Claim:
    """A numeric claim: measured within ``tolerance`` of the paper."""
    holds = abs(measured_value - paper_value) <= tolerance * abs(paper_value)
    return Claim(source, description, paper_value, measured_value, holds, tolerance)


def shape_claim(source: str, description: str, measured_value: float,
                predicate: Callable[[float], bool]) -> Claim:
    """A qualitative claim: a predicate over the measured value."""
    return Claim(source, description, None, measured_value, predicate(measured_value))


def headline_claims(gmeans: dict) -> List[Claim]:
    """The Section VI-A headline numbers, given Figure 13 Gmean-ALL values.

    ``gmeans`` maps organization name -> measured gmean speedup.
    """
    claims = [
        scalar_claim("Fig.13", "CAMEO overall speedup",
                     paper.PAPER_SPEEDUP_CAMEO, gmeans["cameo"], tolerance=0.10),
        scalar_claim("Fig.13", "Cache overall speedup",
                     paper.PAPER_SPEEDUP_CACHE, gmeans["cache"], tolerance=0.25),
        scalar_claim("Fig.13", "TLM-Static overall speedup",
                     paper.PAPER_SPEEDUP_TLM_STATIC, gmeans["tlm-static"],
                     tolerance=0.25),
        scalar_claim("Fig.13", "TLM-Dynamic overall speedup",
                     paper.PAPER_SPEEDUP_TLM_DYNAMIC, gmeans["tlm-dynamic"],
                     tolerance=0.25),
        scalar_claim("Fig.13", "DoubleUse overall speedup",
                     paper.PAPER_SPEEDUP_DOUBLEUSE, gmeans["doubleuse"],
                     tolerance=0.15),
        shape_claim("Fig.13", "CAMEO beats every baseline design",
                    gmeans["cameo"],
                    lambda v: v > max(gmeans["cache"], gmeans["tlm-static"],
                                      gmeans["tlm-dynamic"])),
        shape_claim("Fig.13", "CAMEO within 10% of DoubleUse",
                    gmeans["cameo"] / gmeans["doubleuse"],
                    lambda v: v > 0.90),
    ]
    return claims


def llp_claims(sam_accuracy: float, llp_accuracy: float) -> List[Claim]:
    """Table III's accuracy numbers."""
    return [
        scalar_claim("Tab.III", "SAM accuracy (stacked fraction)",
                     paper.PAPER_SAM_STACKED_FRACTION, sam_accuracy,
                     tolerance=0.15),
        scalar_claim("Tab.III", "LLP accuracy",
                     paper.PAPER_LLP_ACCURACY, llp_accuracy, tolerance=0.05),
        shape_claim("Tab.III", "LLP recovers most off-chip accesses",
                    llp_accuracy - sam_accuracy, lambda v: v > 0.10),
    ]


def paper_claims(figure13, table3) -> List[Claim]:
    """Every claim above, measured by a Figure 13 and a Table III result."""
    return headline_claims(figure13.gmeans()) + llp_claims(
        sam_accuracy=table3.accuracy("cameo-sam"),
        llp_accuracy=table3.accuracy("cameo"),
    )


def render_claims(claims: List[Claim], title: str = "Verification") -> str:
    """A monospace verdict table."""
    rows = []
    for claim in claims:
        paper_cell = "-" if claim.paper_value is None else f"{claim.paper_value:.3f}"
        dev = claim.deviation
        dev_cell = "-" if dev is None else f"{dev:+.1%}"
        rows.append(
            [claim.source, claim.description, paper_cell,
             f"{claim.measured_value:.3f}", dev_cell, claim.verdict]
        )
    return format_table(
        ["source", "claim", "paper", "measured", "deviation", "verdict"],
        rows,
        title=title,
    )
