"""Command-line interface: run simulations and regenerate paper artifacts.

Installed as the ``repro`` console script (also ``python -m repro``)::

    repro list                      # organizations and workloads
    repro run cameo milc            # one simulation, with telemetry
    repro compare milc              # all headline designs on one workload
    repro figure 13                 # regenerate a paper figure/table
    repro paper --jobs 4            # every matrix figure/table, deduped
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from .analysis.report import format_bar_chart, format_table
from .config.system import scaled_paper_system
from .errors import InterruptedRunError, ReproError
from .experiments import (
    run_figure2,
    run_figure3,
    run_figure8,
    run_figure9,
    run_figure12,
    run_figure13,
    run_figure14,
    run_figure15,
    run_table3,
    run_table4,
)
from .experiments.common import HEADLINE_ORGS
from .orgs.factory import organization_names
from .sim.runner import run_workload
from .units import format_bytes, percent
from .workloads.spec import WORKLOADS, workload

#: Exit code of a gracefully interrupted run (SIGINT/SIGTERM): distinct
#: from 2 (ReproError) so wrappers can tell "resume me" from "fix me".
EXIT_INTERRUPTED = 3

#: Experiment registry for ``repro figure <id>``.
FIGURES: Dict[str, Callable] = {
    "2": run_figure2,
    "3": run_figure3,
    "8": run_figure8,
    "9": run_figure9,
    "12": run_figure12,
    "13": run_figure13,
    "14": run_figure14,
    "15": run_figure15,
    "table3": run_table3,
    "table4": run_table4,
}


def _positive_int(text: str) -> int:
    """argparse type: an integer strictly greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer that is zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _rate(text: str) -> float:
    """argparse type: a probability in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1], got {value}")
    return value


def _name_list(text: str) -> List[str]:
    """argparse type: a non-empty comma-separated name list."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return names


def _int_list(text: str) -> List[int]:
    """argparse type: a non-empty comma-separated list of integers."""
    try:
        return [int(part) for part in _name_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated "
                                         "list of integers")


def _endpoint_list(text: str) -> List[str]:
    """argparse type: comma-separated ``host:port`` endpoint specs."""
    from .errors import RemoteError
    from .sim.remote import parse_endpoints

    try:
        return [endpoint.address for endpoint in parse_endpoints(text)]
    except RemoteError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CAMEO (MICRO 2014) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list organizations and workloads")

    run_p = sub.add_parser("run", help="simulate one workload under one design")
    run_p.add_argument("organization", choices=organization_names())
    run_p.add_argument("workload")
    run_p.add_argument("--json", action="store_true",
                       help="emit the full result as JSON instead of a table")
    _add_common(run_p)

    cmp_p = sub.add_parser("compare", help="all headline designs on one workload")
    cmp_p.add_argument("workload")
    _add_common(cmp_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig_p.add_argument("which", choices=sorted(FIGURES))
    fig_p.add_argument("--accesses", type=_positive_int, default=None,
                       help="trace length per context")
    fig_p.add_argument("--json", action="store_true",
                       help="emit every grid cell's RunResult as JSON "
                            "instead of the rendered table")
    _add_jobs(fig_p)
    _add_no_result_cache(fig_p)
    _add_supervision(fig_p)

    paper_p = sub.add_parser(
        "paper",
        help="regenerate every matrix figure/table through the deduplicating "
             "planner: shared cells simulate once",
    )
    paper_p.add_argument("--experiments", type=_name_list, default=None,
                         help="comma-separated experiment names "
                              "(default: all matrix figures/tables)")
    paper_p.add_argument("--accesses", type=_positive_int, default=None,
                         help="trace length per context")
    paper_p.add_argument("--seed", type=_non_negative_int, default=0)
    paper_p.add_argument("--dry-run", action="store_true",
                         help="print the plan (total cells, unique cells, "
                              "predicted store hits) without simulating")
    paper_p.add_argument("--resume", metavar="MANIFEST", default=None,
                         help="seed the result store from a resume manifest "
                              "written by an interrupted run, then simulate "
                              "only the missing cells")
    paper_p.add_argument("--manifest", default="repro-resume.json",
                         help="where to write the resume manifest if this "
                              "run is interrupted (default: %(default)s)")
    _add_jobs(paper_p)
    _add_no_result_cache(paper_p)
    _add_supervision(paper_p, default_attempts=2)

    mix_p = sub.add_parser("mix", help="heterogeneous mix: one workload per context")
    mix_p.add_argument("workloads", nargs="+",
                       help="one Table II name per context")
    mix_p.add_argument("--org", default="cameo", choices=organization_names())
    mix_p.add_argument("--accesses", type=_positive_int, default=None)
    mix_p.add_argument("--seed", type=_non_negative_int, default=0)

    abl_p = sub.add_parser("ablation", help="run a design-choice ablation")
    abl_p.add_argument("which", choices=["group-size", "llp-size", "threshold"])
    abl_p.add_argument("--workload", default=None)
    abl_p.add_argument("--accesses", type=_positive_int, default=None)
    _add_jobs(abl_p)
    _add_no_result_cache(abl_p)
    _add_supervision(abl_p)

    trace_p = sub.add_parser("trace", help="dump a synthetic trace to a file")
    trace_p.add_argument("workload")
    trace_p.add_argument("output", help="destination trace file")
    trace_p.add_argument("-n", "--records", type=_positive_int, default=10000)
    trace_p.add_argument("--footprint-pages", type=_positive_int, default=None)
    trace_p.add_argument("--seed", type=_non_negative_int, default=0)

    flt_p = sub.add_parser(
        "faults", help="one simulation under fault injection, with recovery telemetry"
    )
    flt_p.add_argument("organization", choices=organization_names())
    flt_p.add_argument("workload")
    flt_p.add_argument("--transient-rate", type=_rate, default=1e-3,
                       help="per-read probability of a transient bit flip")
    flt_p.add_argument("--uncorrectable", type=_rate, default=0.1,
                       help="fraction of flips that defeat SECDED correction")
    flt_p.add_argument("--stuck-rate", type=_rate, default=1e-4,
                       help="per-read probability of a permanent row failure")
    flt_p.add_argument("--timeout-rate", type=_rate, default=0.0,
                       help="per-read probability of a channel timeout")
    flt_p.add_argument("--llt-rate", type=_rate, default=1e-4,
                       help="per-access probability of LLT entry corruption")
    flt_p.add_argument("--fault-seed", type=_non_negative_int, default=0,
                       help="seed of the injector's private RNG")
    flt_p.add_argument("--json", action="store_true",
                       help="emit the full result (with fault counters) as JSON")
    _add_common(flt_p)

    bench_p = sub.add_parser(
        "bench",
        help="measure simulator throughput; extends the BENCH_<n>.json trajectory",
    )
    bench_p.add_argument("--quick", action="store_true",
                         help="CI smoke sizing: short traces, one repeat")
    bench_p.add_argument("--orgs", type=_name_list, default=None,
                         help="comma-separated organization names")
    bench_p.add_argument("--workloads", type=_name_list, default=None,
                         help="comma-separated Table II workload names")
    bench_p.add_argument("--accesses", type=_positive_int, default=None,
                         help="trace length per context")
    bench_p.add_argument("--repeats", type=_positive_int, default=None,
                         help="runs per grid cell (best-of)")
    bench_p.add_argument("--scale-shift", type=int, default=12,
                         help="capacity scale (0 = paper size)")
    bench_p.add_argument("--output", default=None,
                         help="destination JSON (default: next BENCH_<n>.json "
                              "in the current directory)")
    bench_p.add_argument("--compare", default=None,
                         help="baseline BENCH_*.json to diff against "
                              "(default: the newest committed one)")
    bench_p.add_argument("--threshold", type=_rate, default=0.30,
                         help="regression-warning threshold (fraction)")
    bench_p.add_argument("--engine", choices=("python", "vector"), default=None,
                         help="engine backend for this run (overrides the "
                              "REPRO_ENGINE environment variable)")
    bench_p.add_argument("--require-kernel", action="store_true",
                         help="exit 2 when any cell expected to lower to the "
                              "compiled kernel was served by the python loop "
                              "(implies --engine vector unless --engine is "
                              "given)")
    _add_jobs(bench_p)
    _add_no_result_cache(bench_p)
    _add_supervision(bench_p, default_attempts=1)

    plan_p = sub.add_parser(
        "plan",
        help="declarative campaign plans: DAG of stages with per-stage "
             "failure policy, interrupt-safe resume",
    )
    plan_sub = plan_p.add_subparsers(dest="plan_command", required=True)
    val_p = plan_sub.add_parser(
        "validate", help="parse and validate a plan file without running it"
    )
    val_p.add_argument("plan_file", help="YAML/JSON campaign plan")
    prun_p = plan_sub.add_parser(
        "run", help="execute a plan (re-run with --resume after an interrupt)"
    )
    prun_p.add_argument("plan_file", help="YAML/JSON campaign plan")
    prun_p.add_argument("--status", default=None, metavar="PATH",
                        help="atomic status JSON (default: "
                             "<plan>.status.json next to the plan file)")
    prun_p.add_argument("--resume", action="store_true",
                        help="continue from the status file: banked cells "
                             "replay from the result store, changed stages "
                             "(and their dependents) re-run")
    prun_p.add_argument("--export", default=None, metavar="PATH",
                        help="write a deterministic results JSON on "
                             "completion (byte-identical whether or not the "
                             "run was interrupted and resumed)")
    prun_p.add_argument("--journal", default=None, metavar="PATH",
                        help="append supervision incidents (retries, kills, "
                             "fallbacks) to this JSONL file")
    _add_jobs(prun_p)
    _add_no_result_cache(prun_p)
    pstat_p = plan_sub.add_parser(
        "status", help="show per-stage states from a plan status file"
    )
    pstat_p.add_argument("status_file", help="status JSON written by plan run")

    ing_p = sub.add_parser(
        "ingest",
        help="strictly validate an external trace file (quarantine report, "
             "checksum/truncation checks)",
    )
    ing_p.add_argument("trace_file", help="v1 text trace file")
    ing_p.add_argument("--name", default=None,
                       help="workload name for the ingested trace "
                            "(default: the header's, or the file stem)")
    ing_p.add_argument("--error-budget", type=_non_negative_int, default=None,
                       help="malformed records tolerated (quarantined) "
                            "before the file is rejected whole")
    ing_p.add_argument("--json", action="store_true",
                       help="emit the ingestion report as JSON")
    ing_p.add_argument("--quarantine", default=None, metavar="PATH",
                       help="also write quarantined lines (with line numbers "
                            "and reasons) to this file")

    camp_p = sub.add_parser(
        "campaign",
        help="crash-safe (org x workload x seed) sweep with checkpoint/resume",
    )
    camp_p.add_argument("--checkpoint", required=True,
                        help="JSON checkpoint path (also the output file); "
                             "re-run with the same path to resume")
    camp_p.add_argument("--orgs", type=_name_list, default=["baseline", "cameo"],
                        help="comma-separated organization names")
    camp_p.add_argument("--workloads", type=_name_list, default=["milc", "astar"],
                        help="comma-separated Table II workload names")
    camp_p.add_argument("--seeds", type=_int_list, default=[0],
                        help="comma-separated seeds")
    camp_p.add_argument("--timeout", type=float, default=300.0,
                        help="per-run wall-clock budget in seconds")
    camp_p.add_argument("--attempts", type=_positive_int, default=3,
                        help="tries per point before giving up")
    camp_p.add_argument("--workers", type=_positive_int, default=1,
                        help="concurrent subprocess workers")
    camp_p.add_argument("--hang-timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="kill a worker reporting no progress for this "
                             "long (heartbeat-based; unlike --timeout it "
                             "never kills a slow-but-advancing point)")
    camp_p.add_argument("--journal", default=None, metavar="PATH",
                        help="append supervision incidents (retries, kills, "
                             "fallbacks) to this JSONL file")
    _add_common(camp_p)

    worker_p = sub.add_parser(
        "worker",
        help="remote worker host: serve supervised grid cells to a parent "
             "over TCP (pair with --endpoints)",
    )
    worker_sub = worker_p.add_subparsers(dest="worker_command", required=True)
    serve_p = worker_sub.add_parser(
        "serve",
        help="listen for a parent's --endpoints dispatch; one session at a "
             "time, survives parent disconnects",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default: %(default)s)")
    serve_p.add_argument("--port", type=_non_negative_int, default=0,
                         help="TCP port (0 picks an ephemeral port; the "
                              "bound address is printed on startup)")
    serve_p.add_argument("--once", action="store_true",
                         help="exit after the first session ends instead of "
                              "returning to accept")
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--accesses", type=_positive_int, default=None,
                        help="trace length per context")
    parser.add_argument("--scale-shift", type=int, default=12,
                        help="capacity scale (0 = paper size)")
    parser.add_argument("--seed", type=_non_negative_int, default=0)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_non_negative_int, default=1,
                        help="subprocess workers for independent runs "
                             "(0 = one per CPU; results are identical "
                             "whatever the count)")
    parser.add_argument("--dispatch", choices=("pool", "remote"),
                        default=None,
                        help="dispatch for --jobs > 1: 'pool' (persistent "
                             "workers, the default) amortizes "
                             "spawn/import/kernel-load across cells; "
                             "'remote' also requires --endpoints; results "
                             "are byte-identical in every mode")
    parser.add_argument("--endpoints", type=_endpoint_list, default=None,
                        metavar="HOST:PORT,...",
                        help="running `repro worker serve` hosts to dispatch "
                             "cells to, with host-level retry/quarantine and "
                             "local fallback (results identical)")


def _apply_dispatch(args: argparse.Namespace) -> None:
    """Export ``--dispatch``/``--endpoints`` so nested fan-out inherits them."""
    mode = getattr(args, "dispatch", None)
    if mode:
        from .sim.supervisor import DISPATCH_ENV_VAR

        os.environ[DISPATCH_ENV_VAR] = mode
    endpoints = getattr(args, "endpoints", None)
    if endpoints:
        from .sim.remote import ENDPOINTS_ENV_VAR

        os.environ[ENDPOINTS_ENV_VAR] = ",".join(endpoints)


def _add_no_result_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-result-cache", action="store_true",
                        help="bypass the content-addressed result store and "
                             "simulate every cell (results are identical "
                             "either way)")


def _add_supervision(
    parser: argparse.ArgumentParser, default_attempts: Optional[int] = None
) -> None:
    parser.add_argument("--max-attempts", type=_positive_int,
                        default=default_attempts,
                        help="tries per grid cell: transient worker failures "
                             "(crashes, timeouts, hangs) retry with backoff; "
                             "deterministic errors fail fast"
                             + (" (default: %(default)s)"
                                if default_attempts is not None else ""))
    parser.add_argument("--hang-timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="kill a worker reporting no progress for this "
                             "long (heartbeat-based; never kills a "
                             "slow-but-advancing cell)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="append supervision incidents (retries, kills, "
                             "fallbacks) to this JSONL file")


def _journal_from_args(args: argparse.Namespace):
    """The command's incident journal: --journal or the env default."""
    from .sim.supervisor import IncidentJournal, journal_from_env

    path = getattr(args, "journal", None)
    if path:
        return IncidentJournal(path)
    return journal_from_env()


def _maybe_supervision(args: argparse.Namespace):
    """An ambient supervision policy for commands whose fan-out is nested.

    Figure/ablation runners call ``run_many`` several layers down; this
    context makes their ``--max-attempts``/``--hang-timeout`` reach it
    without threading knobs through every runner signature.
    """
    import contextlib

    from .sim.supervisor import SupervisorPolicy, use_supervision

    overrides = {}
    if getattr(args, "max_attempts", None) is not None:
        overrides["max_attempts"] = args.max_attempts
    if getattr(args, "hang_timeout", None) is not None:
        overrides["hang_timeout_seconds"] = args.hang_timeout
    if getattr(args, "journal", None):
        import os as _os

        from .sim.supervisor import JOURNAL_ENV_VAR

        # The ambient policy carries no journal; the env knob does.
        _os.environ[JOURNAL_ENV_VAR] = args.journal
    if not overrides:
        return contextlib.nullcontext()
    return use_supervision(SupervisorPolicy(**overrides))


def _maybe_no_result_cache(args: argparse.Namespace):
    """The command's result-store context: disabled or left as configured."""
    import contextlib

    from .sim.result_store import result_store_disabled

    if getattr(args, "no_result_cache", False):
        return result_store_disabled()
    return contextlib.nullcontext()


def _cmd_list() -> int:
    print(format_table(
        ["organization"], [[name] for name in organization_names()],
        title="Organizations:",
    ))
    print()
    print(format_table(
        ["workload", "category", "L3 MPKI", "footprint"],
        [
            [w.name, w.category, w.l3_mpki, format_bytes(w.footprint_bytes)]
            for w in WORKLOADS
        ],
        title="Workloads (Table II):",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = scaled_paper_system(scale_shift=args.scale_shift)
    spec = workload(args.workload)
    baseline = run_workload("baseline", spec, config, args.accesses, args.seed)
    result = run_workload(args.organization, spec, config, args.accesses, args.seed)
    if args.json:
        from .sim.export import result_to_json

        print(result_to_json(result, baseline))
        return 0
    rows = [
        ["speedup over baseline", f"{result.speedup_over(baseline):.3f}x"],
        ["IPC", f"{result.ipc:.3f}"],
        ["stacked service fraction", percent(result.stacked_service_fraction)],
        ["page faults", result.page_faults],
        ["line swaps", result.line_swaps],
        ["page migrations", result.page_migrations],
        ["storage traffic", format_bytes(result.storage_bytes)],
    ]
    for device, n_bytes in result.dram_bytes.items():
        rows.append([f"{device} traffic", format_bytes(n_bytes)])
    if result.llp_cases is not None and result.llp_cases.total:
        rows.append(["LLP accuracy", percent(result.llp_cases.accuracy)])
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.organization} on {spec.name}",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = scaled_paper_system(scale_shift=args.scale_shift)
    spec = workload(args.workload)
    baseline = run_workload("baseline", spec, config, args.accesses, args.seed)
    bars = []
    for org in HEADLINE_ORGS:
        result = run_workload(org, spec, config, args.accesses, args.seed)
        bars.append((org, result.speedup_over(baseline)))
    print(format_bar_chart(bars, title=f"{spec.name}: speedup over baseline"))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fn = FIGURES[args.which]
    if args.json and args.which in ("3", "8"):
        raise ReproError(
            f"figure {args.which} is analytical (no simulation grid); "
            "--json only applies to matrix figures/tables"
        )
    _apply_dispatch(args)
    with _maybe_no_result_cache(args), _maybe_supervision(args):
        if args.which in ("3", "8"):
            # Analytical figures: no simulation grid, nothing to fan out.
            result = fn()
        else:
            result = fn(accesses_per_context=args.accesses, n_jobs=args.jobs)
    if args.json:
        print(result.matrix.to_json())
    else:
        print(result.render())
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    import contextlib

    from .experiments import PAPER_PLANNERS
    from .sim.plan import (
        build_grid_plan,
        execute_grid_plan,
        load_resume_manifest,
        seed_store_from_manifest,
        write_resume_manifest,
    )
    from .sim.result_store import (
        ResultStore,
        default_result_store,
        use_result_store,
    )

    names = args.experiments or list(PAPER_PLANNERS)
    unknown = [name for name in names if name not in PAPER_PLANNERS]
    if unknown:
        known = ", ".join(PAPER_PLANNERS)
        raise ReproError(
            f"unknown experiment(s): {', '.join(unknown)} (known: {known})"
        )
    if args.resume and args.no_result_cache:
        raise ReproError(
            "--resume serves completed cells through the result store; "
            "it cannot be combined with --no-result-cache"
        )
    _apply_dispatch(args)
    manifest = load_resume_manifest(args.resume) if args.resume else None
    store_context = contextlib.nullcontext()
    if manifest is not None and default_result_store() is None:
        # Result caching is off (REPRO_RESULT_CACHE=off): serve the
        # manifest's cells from a temporary in-memory store instead.
        store_context = use_result_store(ResultStore())
    journal = _journal_from_args(args)
    with _maybe_no_result_cache(args), store_context:
        if manifest is not None:
            seeded = seed_store_from_manifest(manifest, default_result_store())
            print(f"resume: seeded {seeded} completed cell(s) from "
                  f"{args.resume}")
        print(f"declaring {len(names)} experiment grid(s)...")
        planned = [
            PAPER_PLANNERS[name](
                accesses_per_context=args.accesses, seed=args.seed
            )
            for name in names
        ]
        plan = build_grid_plan(planned)
        print(plan.describe())
        if args.dry_run:
            return 0
        try:
            report = execute_grid_plan(
                plan,
                n_jobs=args.jobs,
                log=print,
                max_attempts=args.max_attempts,
                hang_timeout_seconds=args.hang_timeout,
                journal=journal,
                dispatch=args.dispatch,
                endpoints=args.endpoints,
            )
        except InterruptedRunError as exc:
            saved = write_resume_manifest(
                args.manifest,
                exc.outcomes or [],
                exc.signal_name,
                recipe={
                    "experiments": names,
                    "accesses": args.accesses,
                    "seed": args.seed,
                },
                pending_keys=exc.pending_keys,
            )
            print(f"\ninterrupted by {exc.signal_name}: {saved} completed "
                  f"cell(s) saved to {args.manifest}", file=sys.stderr)
            print(f"resume with: repro paper --resume {args.manifest}",
                  file=sys.stderr)
            return EXIT_INTERRUPTED
        for result in report.results:
            print()
            print(result.render())
        print()
        print(report.describe())
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from .sim.runner import run_mix

    config = scaled_paper_system(num_contexts=len(args.workloads))
    baseline = run_mix("baseline", args.workloads, config, args.accesses, args.seed)
    result = run_mix(args.org, args.workloads, config, args.accesses, args.seed)
    print(format_table(
        ["metric", "value"],
        [
            ["mix", result.workload],
            ["speedup over baseline", f"{result.speedup_over(baseline):.3f}x"],
            ["stacked service fraction", percent(result.stacked_service_fraction)],
            ["page faults", result.page_faults],
        ],
        title=f"{args.org} on the mix",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .workloads.ingest import write_trace_file
    from .workloads.mixes import per_context_footprint_pages
    from .workloads.replay import record_synthetic_trace
    from .workloads.synthetic import SyntheticTraceGenerator

    spec = workload(args.workload)
    config = scaled_paper_system()
    footprint = (
        args.footprint_pages
        if args.footprint_pages is not None
        else per_context_footprint_pages(spec, config)
    )
    generator = SyntheticTraceGenerator(spec, footprint, seed=args.seed)
    records = record_synthetic_trace(generator, args.records)
    # The v1 header (checksum, record count, geometry) makes the dump
    # directly ingestable by `repro ingest` / plan trace stages.
    count = write_trace_file(
        args.output, records,
        footprint_pages=footprint, mpki=spec.l3_mpki, name=spec.name,
    )
    print(f"wrote {count} records to {args.output} "
          f"(v1 header; ingestable with `repro ingest {args.output}`)")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .sim.planfile import (
        describe_status, load_plan, load_status, run_plan,
    )

    if args.plan_command == "status":
        print(describe_status(load_status(args.status_file)))
        return 0
    plan = load_plan(args.plan_file)
    if args.plan_command == "validate":
        print(plan.describe())
        print("plan is valid")
        return 0
    status_path = args.status or (
        os.path.splitext(args.plan_file)[0] + ".status.json"
    )
    _apply_dispatch(args)
    with _maybe_no_result_cache(args):
        try:
            report = run_plan(
                plan,
                status_path,
                n_jobs=args.jobs,
                log=print,
                journal=_journal_from_args(args),
                resume=args.resume,
                export_path=args.export,
                dispatch=args.dispatch,
                endpoints=args.endpoints,
            )
        except InterruptedRunError as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            print(
                f"completed cells are banked in {status_path}; continue "
                f"with: repro plan run {args.plan_file} --status "
                f"{status_path} --resume",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
    print()
    print(report.describe())
    print(f"status: {status_path}")
    failed = any(
        entry["state"] != "completed"
        for entry in report.status["stages"].values()
    )
    return 1 if failed else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as _json

    from .workloads.ingest import ingest_trace_file

    kwargs = {}
    if args.error_budget is not None:
        kwargs["error_budget"] = args.error_budget
    report = ingest_trace_file(args.trace_file, name=args.name, **kwargs)
    if args.quarantine and report.quarantine:
        with open(args.quarantine, "w") as fp:
            for line_no, reason, text in report.quarantine:
                fp.write(f"{args.trace_file}:{line_no}: {reason}: {text}\n")
    if args.json:
        trace = report.trace
        print(_json.dumps({
            "name": trace.name,
            "source_path": trace.source_path,
            "checksum": trace.checksum,
            "checksum_verified": trace.checksum_verified,
            "records": trace.n_records,
            "lines_per_page": trace.lines_per_page,
            "footprint_pages": trace.footprint_pages,
            "mpki": trace.mpki,
            "quarantined": trace.quarantined,
            "quarantine": [
                {"line": line_no, "reason": reason, "text": text}
                for line_no, reason, text in report.quarantine
            ],
            "warnings": list(report.warnings),
        }, indent=2, sort_keys=True))
        return 0
    print(report.describe())
    if args.quarantine and report.quarantine:
        print(f"quarantined lines written to {args.quarantine}")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments.ablations import (
        run_group_size_ablation,
        run_llp_size_ablation,
        run_threshold_ablation,
    )

    runners = {
        "group-size": (run_group_size_ablation, "xalancbmk"),
        "llp-size": (run_llp_size_ablation, "xalancbmk"),
        "threshold": (run_threshold_ablation, "milc"),
    }
    runner, default_workload = runners[args.which]
    _apply_dispatch(args)
    with _maybe_no_result_cache(args), _maybe_supervision(args):
        result = runner(
            workload=args.workload or default_workload,
            accesses_per_context=args.accesses,
            n_jobs=args.jobs,
        )
    print(result.render())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import FaultConfig
    from .sim.export import result_to_json

    config = scaled_paper_system(scale_shift=args.scale_shift)
    spec = workload(args.workload)
    fault_config = FaultConfig(
        seed=args.fault_seed,
        transient_flip_rate=args.transient_rate,
        uncorrectable_fraction=args.uncorrectable,
        stuck_row_rate=args.stuck_rate,
        channel_timeout_rate=args.timeout_rate,
        llt_corruption_rate=args.llt_rate,
    )
    result = run_workload(
        args.organization, spec, config, args.accesses, args.seed,
        fault_config=fault_config,
    )
    if args.json:
        print(result_to_json(result))
        return 0
    print(format_table(
        ["metric", "value"],
        [
            ["IPC", f"{result.ipc:.3f}"],
            ["stacked service fraction", percent(result.stacked_service_fraction)],
            ["line swaps", result.line_swaps],
            ["page faults", result.page_faults],
        ],
        title=f"{args.organization} on {spec.name} (fault injection on)",
    ))
    print()
    print(format_table(
        ["fault counter", "count"],
        [[name, count] for name, count in result.fault_summary.items()],
        title="Fault and recovery telemetry:",
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .sim import bench

    orgs = args.orgs or list(bench.DEFAULT_ORGS)
    workloads = args.workloads or list(bench.DEFAULT_WORKLOADS)
    if args.accesses is not None:
        accesses = args.accesses
    else:
        accesses = bench.QUICK_ACCESSES if args.quick else bench.DEFAULT_ACCESSES
    if args.repeats is not None:
        repeats = args.repeats
    else:
        repeats = 1 if args.quick else bench.DEFAULT_REPEATS

    engine = args.engine
    if engine is None and args.require_kernel:
        # Requiring the kernel on the python backend would fail every
        # cell; the flag means "vector, and prove it engaged".
        engine = "vector"
    if engine is not None:
        # The knob is an env var so it reaches subprocess workers too
        # (the parallel grid pass re-resolves it in each worker).
        from .sim.engine import ENGINE_ENV_VAR
        os.environ[ENGINE_ENV_VAR] = engine
    _apply_dispatch(args)

    print(f"bench: {len(orgs)} orgs x {len(workloads)} workloads, "
          f"{accesses} accesses/context, best of {repeats}")
    with _maybe_no_result_cache(args):
        payload = bench.run_bench(
            orgs=orgs,
            workloads=workloads,
            accesses_per_context=accesses,
            repeats=repeats,
            scale_shift=args.scale_shift,
            n_jobs=args.jobs,
            log=print,
            max_attempts=args.max_attempts,
            hang_timeout_seconds=args.hang_timeout,
            journal=_journal_from_args(args),
        )
    output = args.output or bench.next_bench_path()
    bench.write_bench(payload, output)
    print(f"wrote {output}")

    baseline_path = args.compare
    if baseline_path is None:
        committed = [p for p in bench.bench_files() if os.path.abspath(p)
                     != os.path.abspath(output)]
        baseline_path = committed[-1] if committed else None
    if baseline_path is not None:
        warning = bench.compare_to_baseline(
            payload, bench.load_bench(baseline_path), threshold=args.threshold
        )
        if warning is not None:
            print(f"{warning} ({baseline_path})")
        else:
            print(f"throughput held versus {baseline_path} "
                  f"(threshold {args.threshold:.0%})")

    if args.require_kernel:
        failures = bench.require_kernel_failures(payload)
        if failures:
            for failure in failures:
                print(f"require-kernel: {failure}")
            print(f"require-kernel: {len(failures)} cell(s) expected to "
                  "lower were served by the python loop")
            return 2
        print("require-kernel: every lowerable cell ran on the compiled kernel")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .sim.remote import serve

    serve(host=args.host, port=args.port, log=print, once=args.once)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .sim.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        organizations=tuple(args.orgs),
        workloads=tuple(args.workloads),
        seeds=tuple(args.seeds),
        accesses_per_context=args.accesses,
        scale_shift=args.scale_shift,
        timeout_seconds=args.timeout,
        max_attempts=args.attempts,
    )
    result = run_campaign(
        spec, args.checkpoint, max_workers=args.workers, log=print,
        hang_timeout_seconds=args.hang_timeout,
        journal=_journal_from_args(args),
    )
    print()
    print(result.render())
    print(f"\ncheckpoint (and results): {args.checkpoint}")
    return 0 if result.all_completed else 1


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": lambda args: _cmd_list(),
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "paper": _cmd_paper,
    "mix": _cmd_mix,
    "trace": _cmd_trace,
    "plan": _cmd_plan,
    "ingest": _cmd_ingest,
    "ablation": _cmd_ablation,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
    "campaign": _cmd_campaign,
    "worker": _cmd_worker,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError`) are reported as a
    one-line message on stderr with exit code 2 — bad input and broken
    checkpoints should not look like simulator crashes. A graceful
    SIGINT/SIGTERM shutdown exits with :data:`EXIT_INTERRUPTED` (3):
    completed cells were flushed (result store / checkpoint) and the run
    can be resumed, so wrappers must not treat it like an error.
    """
    args = _build_parser().parse_args(argv)
    command = _COMMANDS.get(args.command)
    if command is None:
        raise AssertionError("unreachable")
    try:
        return command(args)
    except InterruptedRunError as exc:
        # Commands with richer resume flows (repro paper) catch this
        # themselves; everything else gets the generic contract.
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
