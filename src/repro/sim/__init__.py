"""Simulation engine: machines, the run loop, results, runners, sweeps,
supervised parallel fan-out, the content-addressed result store with its
deduplicating grid planner, and declarative campaign plans with an
atomic, resumable status file (``repro campaign`` runs a one-stage
plan)."""

from .export import report_to_dict, result_to_dict, result_to_json
from .engine import (
    ACCESSES_ENV_VAR,
    DEFAULT_ACCESSES_PER_CONTEXT,
    default_accesses_per_context,
    run_trace,
)
from .machine import Machine
from .parallel import (
    JobOutcome,
    SimJob,
    derive_seed,
    raise_on_failures,
    resolve_n_jobs,
    run_many,
)
from .planfile import (
    CampaignPlan,
    PlanRunReport,
    PlanStage,
    StageGrid,
    load_plan,
    load_status,
    parse_plan,
    parse_plan_source,
    run_plan,
    write_export,
    write_status,
)
from .plan import (
    GridPlan,
    GridRunReport,
    PlannedExperiment,
    build_grid_plan,
    execute_grid_plan,
    run_jobs_cached,
)
from .request import MemoryRequest
from .result_store import (
    ResultStore,
    cell_fingerprint,
    clear_default_result_store,
    default_result_store,
    job_fingerprint,
    result_store_disabled,
    use_result_store,
)
from .results import RunProvenance, RunResult, SpeedupReport
from .runner import build_speedup_report, run_configs, run_mix, run_workload
from .supervisor import (
    IncidentJournal,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
    TaskOutcome,
    current_supervision,
    escalate_kill,
    is_retryable_exception,
    journal_from_env,
    use_supervision,
)
from .sweep import SweepPoint, sweep_org_parameter, sweep_system

__all__ = [
    "ACCESSES_ENV_VAR",
    "CampaignPlan",
    "DEFAULT_ACCESSES_PER_CONTEXT",
    "GridPlan",
    "GridRunReport",
    "IncidentJournal",
    "JobOutcome",
    "Machine",
    "MemoryRequest",
    "PlanRunReport",
    "PlanStage",
    "PlannedExperiment",
    "ResultStore",
    "RunProvenance",
    "RunResult",
    "SimJob",
    "SpeedupReport",
    "StageGrid",
    "SupervisedTask",
    "Supervisor",
    "SupervisorPolicy",
    "SweepPoint",
    "TaskOutcome",
    "build_grid_plan",
    "build_speedup_report",
    "cell_fingerprint",
    "clear_default_result_store",
    "current_supervision",
    "default_accesses_per_context",
    "default_result_store",
    "derive_seed",
    "escalate_kill",
    "execute_grid_plan",
    "is_retryable_exception",
    "job_fingerprint",
    "journal_from_env",
    "load_plan",
    "load_status",
    "parse_plan",
    "parse_plan_source",
    "raise_on_failures",
    "report_to_dict",
    "resolve_n_jobs",
    "result_store_disabled",
    "result_to_dict",
    "result_to_json",
    "run_configs",
    "run_jobs_cached",
    "run_many",
    "run_mix",
    "run_plan",
    "run_trace",
    "run_workload",
    "sweep_org_parameter",
    "sweep_system",
    "use_result_store",
    "use_supervision",
    "write_export",
    "write_status",
]
