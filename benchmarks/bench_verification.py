"""End-to-end verification: measured headline numbers vs the paper's.

Runs Figure 13 and Table III and renders a claim-by-claim verdict table
(the same machinery EXPERIMENTS.md is built from). Scalar claims carry
tolerances acknowledging the synthetic-trace substitution; the shape
claims are strict.
"""

from repro.analysis.verification import paper_claims, render_claims
from repro.experiments import run_figure13, run_table3

from conftest import emit, selected_workloads


def run_verification():
    workloads = selected_workloads()
    return paper_claims(run_figure13(workloads), run_table3(workloads))


def test_verification_against_paper(benchmark):
    claims = benchmark.pedantic(run_verification, rounds=1, iterations=1)
    emit("Paper-vs-measured verification", render_claims(claims))

    # Every qualitative (shape) claim must hold outright.
    for claim in claims:
        if claim.paper_value is None:
            assert claim.holds, f"shape claim failed: {claim.description}"
    # And the central quantitative claim — CAMEO's headline speedup —
    # must be within its (tight) tolerance.
    cameo = next(c for c in claims if c.description == "CAMEO overall speedup")
    assert cameo.holds, f"CAMEO gmean {cameo.measured_value} vs paper 1.78"
