"""Declarative campaign plans: versioned schema, failure policy, resume.

Campaigns used to be constructed in Python, so retry/timeout/abort
behavior was hard-wired per call site and a third-party scenario meant
editing the repo. This module makes the whole construction declarative:
a plan file (YAML subset or JSON — parsed by a hand-rolled reader, no
new dependencies) declares **stages** of experiment cells, a dependency
DAG between them, and an explicit **per-stage failure policy**, and the
executor drives everything through the existing Supervisor / planner /
result-store stack::

    plan: repro-campaign-plan
    version: 1
    name: demo
    defaults:
      accesses: 2000
      failure_policy: {max_attempts: 2, on_failure: abort}
    stages:
      - name: headline
        grid:
          orgs: [baseline, cameo]
          workloads: [milc, mcf]
          seeds: [0]
      - name: replay
        depends_on: [headline]
        failure_policy: {on_failure: continue}
        grid:
          orgs: [cameo]
          trace: traces/app.trace

Robustness contract:

* **fail loudly, early** — the parser and validator reject unknown
  keys, bad types, unknown organization/workload/experiment names, and
  DAG problems (missing deps, cycles) with the file and line named,
  before anything simulates;
* **per-stage failure policy** — ``max_attempts``, ``backoff_seconds``,
  ``timeout_seconds``, ``hang_timeout_seconds``, an RSS ceiling
  (``max_rss_mb``), and an ``on_failure`` propagation mode (``abort``
  stops the plan, ``continue`` runs the rest, ``skip-dependents`` runs
  everything that does not depend on the failed stage). The per-cell
  values become the stage's
  :class:`~repro.sim.supervisor.SupervisorPolicy`, which checks them.
  Retries apply at every ``--jobs``; the timeouts and the RSS ceiling
  police a worker process, so they apply from ``--jobs 2``;
* **interrupt-safe resume** — the result store is the checkpoint: every
  cell is stored the moment it settles (in ``<status>.results/``, or
  the shared directory under ``REPRO_RESULT_CACHE=disk``), and an
  atomic status JSON records per-stage state/attempts/incidents, so
  ``--resume`` after SIGINT (or a crash) serves finished work from the
  store and simulates only what is missing — final results are
  byte-identical to an uninterrupted run;
* **safe plan modification between resumes** — every stage runs again
  on resume, and each cell's content fingerprint (inputs, trace
  *content* checksum) decides whether it simulates: an edited grid
  simulates only its new cells, an unchanged cell is served from the
  store wherever it sits in the plan, and failure-policy edits
  re-simulate nothing.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..atomic import atomic_write
from ..errors import (
    ConfigurationError,
    InterruptedRunError,
    PlanError,
    PlanExecutionError,
)
from ..workloads.ingest import DEFAULT_ERROR_BUDGET
from .parallel import JobOutcome, SimJob
from .result_store import (
    ResultStore,
    SharedDirBackend,
    default_result_store,
    result_to_state,
    use_result_store,
)
from .supervisor import IncidentJournal, SupervisorPolicy, use_supervision

PLAN_KIND = "repro-campaign-plan"
PLAN_SCHEMA_VERSION = 1
STATUS_KIND = "repro-plan-status"
STATUS_VERSION = 3
EXPORT_KIND = "repro-plan-export"
EXPORT_VERSION = 1

ON_FAILURE_MODES = ("abort", "continue", "skip-dependents")
STAGE_STATES = (
    "pending", "running", "completed", "failed", "skipped", "interrupted",
)

#: Incidents kept per stage in the status file; older ones are dropped
#: (the incident journal, when enabled, keeps the full history).
MAX_STAGE_INCIDENTS = 20


# -- The YAML-subset / JSON reader -----------------------------------------------
#
# Deliberately a subset, hand-rolled so the repo gains no dependency:
# indentation-nested mappings, "- " block lists (including list items
# that open a mapping), inline scalar lists "[a, b]", quoted strings,
# null/~, booleans, ints, floats, and "#" comments. Tabs in indentation
# and anything outside the subset are *errors with line numbers*, never
# guesses. JSON input (a ".json" path or a "{"-leading document) is
# delegated to the stdlib parser.


def parse_plan_source(text: str, path: str = "<plan>") -> object:
    """Parse a plan document (YAML subset or JSON) into plain data."""
    if path.endswith(".json") or text.lstrip()[:1] == "{":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return _YamlSubsetParser(text, path).parse()


_MAPPING_START = re.compile(r"^[^:\s\[\]{}#]+\s*:(\s|$)")


class _YamlSubsetParser:
    def __init__(self, text: str, path: str):
        self.path = path
        self.items: List[Tuple[int, int, str]] = []  # (line_no, indent, body)
        for line_no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            leading = raw[: len(raw) - len(raw.lstrip())]
            if "\t" in leading:
                raise PlanError(
                    f"{path}:{line_no}: tabs in indentation are not allowed"
                )
            body = self._strip_comment(raw.rstrip())
            if not body.strip():
                continue
            self.items.append((line_no, len(leading), body.strip()))
        self.pos = 0

    @staticmethod
    def _strip_comment(line: str) -> str:
        in_single = in_double = False
        for index, char in enumerate(line):
            if char == "'" and not in_double:
                in_single = not in_single
            elif char == '"' and not in_single:
                in_double = not in_double
            elif (
                char == "#"
                and not in_single
                and not in_double
                and (index == 0 or line[index - 1] in " \t")
            ):
                return line[:index]
        return line

    def parse(self) -> object:
        if not self.items:
            raise PlanError(f"{self.path}: empty plan document")
        value = self._parse_block(self.items[0][1])
        if self.pos != len(self.items):
            line_no, indent, _ = self.items[self.pos]
            raise PlanError(
                f"{self.path}:{line_no}: unexpected indentation ({indent} "
                "spaces does not match any open block)"
            )
        return value

    def _parse_block(self, indent: int) -> object:
        _, _, body = self.items[self.pos]
        if body == "-" or body.startswith("- "):
            return self._parse_list(indent)
        return self._parse_mapping(indent)

    def _parse_mapping(self, indent: int) -> Dict[str, object]:
        out: Dict[str, object] = {}
        while self.pos < len(self.items):
            line_no, item_indent, body = self.items[self.pos]
            if item_indent < indent:
                break
            if item_indent > indent:
                raise PlanError(
                    f"{self.path}:{line_no}: unexpected indentation"
                )
            if body == "-" or body.startswith("- "):
                break  # a sibling list (belongs to the key that opened it)
            key, sep, rest = body.partition(":")
            key = self._unquote(key.strip(), line_no)
            if not sep or not key:
                raise PlanError(
                    f"{self.path}:{line_no}: expected 'key: value', got {body!r}"
                )
            if key in out:
                raise PlanError(f"{self.path}:{line_no}: duplicate key {key!r}")
            rest = rest.strip()
            self.pos += 1
            if rest:
                out[key] = self._parse_scalar(rest, line_no)
                continue
            if self.pos < len(self.items):
                next_indent = self.items[self.pos][1]
                next_body = self.items[self.pos][2]
                if next_indent > indent:
                    out[key] = self._parse_block(next_indent)
                    continue
                if next_indent == indent and (
                    next_body == "-" or next_body.startswith("- ")
                ):
                    # The common YAML style where a list sits at the same
                    # indent as its key.
                    out[key] = self._parse_list(indent)
                    continue
            out[key] = None
        return out

    def _parse_list(self, indent: int) -> List[object]:
        out: List[object] = []
        while self.pos < len(self.items):
            line_no, item_indent, body = self.items[self.pos]
            if item_indent != indent or not (body == "-" or body.startswith("- ")):
                break
            rest = "" if body == "-" else body[2:].strip()
            if not rest:
                self.pos += 1
                if self.pos < len(self.items) and self.items[self.pos][1] > indent:
                    out.append(self._parse_block(self.items[self.pos][1]))
                else:
                    out.append(None)
            elif _MAPPING_START.match(rest):
                # A list item that opens a mapping: re-anchor the rest at
                # its real column so continuation lines line up with it.
                virtual_indent = item_indent + (len(body) - len(rest))
                self.items[self.pos] = (line_no, virtual_indent, rest)
                out.append(self._parse_mapping(virtual_indent))
            else:
                self.pos += 1
                out.append(self._parse_scalar(rest, line_no))
        return out

    def _parse_scalar(self, text: str, line_no: int) -> object:
        if text.startswith("["):
            if not text.endswith("]"):
                raise PlanError(
                    f"{self.path}:{line_no}: unterminated inline list {text!r}"
                )
            inner = text[1:-1].strip()
            if not inner:
                return []
            if "[" in inner or "{" in inner:
                raise PlanError(
                    f"{self.path}:{line_no}: nested inline collections are "
                    "not supported — use block form"
                )
            return [
                self._parse_scalar(part.strip(), line_no)
                for part in inner.split(",")
            ]
        if text.startswith("{"):
            # One level of flow mapping with scalar values, for compact
            # failure policies: {max_attempts: 2, on_failure: continue}.
            if not text.endswith("}"):
                raise PlanError(
                    f"{self.path}:{line_no}: unterminated inline mapping "
                    f"{text!r}"
                )
            inner = text[1:-1].strip()
            if "{" in inner or "[" in inner:
                raise PlanError(
                    f"{self.path}:{line_no}: nested inline collections are "
                    "not supported — use block form"
                )
            mapping: Dict[str, object] = {}
            if inner:
                for part in inner.split(","):
                    key, sep, value = part.partition(":")
                    key = self._unquote(key.strip(), line_no)
                    if not sep or not key or not value.strip():
                        raise PlanError(
                            f"{self.path}:{line_no}: expected 'key: value' "
                            f"inside inline mapping, got {part.strip()!r}"
                        )
                    if key in mapping:
                        raise PlanError(
                            f"{self.path}:{line_no}: duplicate key {key!r}"
                        )
                    mapping[key] = self._parse_scalar(value.strip(), line_no)
            return mapping
        if text[0] in "'\"":
            return self._unquote(text, line_no)
        lowered = text.lower()
        if lowered in ("null", "~", "none"):
            return None
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            pass
        return text

    def _unquote(self, text: str, line_no: int) -> str:
        if text[:1] in "'\"":
            if len(text) < 2 or text[-1] != text[0]:
                raise PlanError(
                    f"{self.path}:{line_no}: unterminated quoted string {text!r}"
                )
            return text[1:-1]
        return text


# -- Schema dataclasses ----------------------------------------------------------


@dataclass(frozen=True)
class StageGrid:
    """One stage's cell grid: orgs x (workloads | ingested trace) x seeds."""

    orgs: Tuple[str, ...]
    workloads: Tuple[str, ...] = ()
    #: Path to an external trace file (resolved against the plan file's
    #: directory at load time); mutually exclusive with ``workloads``.
    trace: Optional[str] = None
    #: Only an explicit ``true`` here lets a failed ingestion degrade to
    #: the synthetic ``fallback_workloads`` — never silently.
    allow_synthetic_fallback: bool = False
    fallback_workloads: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    accesses: Optional[int] = None
    use_l3: bool = False
    scale_shift: Optional[int] = None
    error_budget: int = DEFAULT_ERROR_BUDGET


@dataclass(frozen=True)
class PlanStage:
    """One node of the plan DAG."""

    name: str
    depends_on: Tuple[str, ...] = ()
    grid: Optional[StageGrid] = None
    #: Names from :data:`repro.experiments.PAPER_PLANNERS`; mutually
    #: exclusive with ``grid``.
    experiments: Tuple[str, ...] = ()
    #: Trace length / base seed for ``experiments`` stages.
    accesses: Optional[int] = None
    seed: int = 0
    #: How the stage's cells are supervised (from its ``failure_policy``).
    policy: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    #: What a failed stage does to the plan: one of
    #: :data:`ON_FAILURE_MODES`, applied once its cells have settled.
    on_failure: str = "abort"


@dataclass(frozen=True)
class CampaignPlan:
    """A validated plan: named stages in declaration order, acyclic deps."""

    name: str
    stages: Tuple[PlanStage, ...]
    source_path: str = "<plan>"

    def stage(self, name: str) -> PlanStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise PlanError(f"plan {self.name}: no stage named {name!r}")

    def execution_order(self) -> List[str]:
        """Kahn's topological order, stable in declaration order."""
        remaining = {s.name: set(s.depends_on) for s in self.stages}
        order: List[str] = []
        while remaining:
            ready = [
                s.name for s in self.stages
                if s.name in remaining and not remaining[s.name]
            ]
            if not ready:
                cycle = ", ".join(sorted(remaining))
                raise PlanError(
                    f"plan {self.name}: dependency cycle among stage(s) {cycle}"
                )
            for name in ready:
                del remaining[name]
                order.append(name)
                for deps in remaining.values():
                    deps.discard(name)
        return order

    def describe(self) -> str:
        """The ``repro plan validate`` summary."""
        lines = [f"plan {self.name!r}: {len(self.stages)} stage(s), schema v{PLAN_SCHEMA_VERSION}"]
        for name in self.execution_order():
            stage = self.stage(name)
            if stage.grid is not None:
                grid = stage.grid
                sources = (
                    f"trace {os.path.basename(grid.trace)}"
                    if grid.trace is not None
                    else f"{len(grid.workloads)} workload(s)"
                )
                cells = len(grid.orgs) * max(1, len(grid.workloads)) * len(grid.seeds)
                what = f"{cells} cell(s): {len(grid.orgs)} org(s) x {sources} x {len(grid.seeds)} seed(s)"
            else:
                what = f"experiments: {', '.join(stage.experiments)}"
            deps = f" (after {', '.join(stage.depends_on)})" if stage.depends_on else ""
            lines.append(
                f"  - {name}: {what}{deps} "
                f"[on_failure: {stage.on_failure}, "
                f"max_attempts: {stage.policy.max_attempts}]"
            )
        return "\n".join(lines)


# -- Validation ------------------------------------------------------------------


def _require_keys(
    mapping: Dict, allowed: Sequence[str], required: Sequence[str], where: str
) -> None:
    if not isinstance(mapping, dict):
        raise PlanError(f"{where} must be a mapping")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise PlanError(
            f"{where}: unknown key(s) {', '.join(unknown)} "
            f"(known: {', '.join(allowed)})"
        )
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise PlanError(f"{where}: missing required key(s) {', '.join(missing)}")


def _coerce_int(value: object, where: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise PlanError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise PlanError(f"{where} must be >= {minimum}, got {value}")
    return value


def _coerce_bool(value: object, where: str) -> bool:
    if not isinstance(value, bool):
        raise PlanError(f"{where} must be true or false, got {value!r}")
    return value


def _coerce_name_list(value: object, where: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(
        isinstance(item, str) and item for item in value
    ):
        raise PlanError(f"{where} must be a non-empty list of names")
    return tuple(value)


#: ``failure_policy`` keys: ``on_failure`` is the plan's own; each other
#: key sets the :class:`SupervisorPolicy` field it maps to.
_POLICY_FIELDS = {
    "max_attempts": "max_attempts",
    "backoff_seconds": "backoff_base_seconds",
    "timeout_seconds": "timeout_seconds",
    "hang_timeout_seconds": "hang_timeout_seconds",
    "max_rss_mb": "max_rss_bytes",
}
_POLICY_KEYS = (*_POLICY_FIELDS, "on_failure")


def _parse_failure_policy(
    data: object, where: str
) -> Tuple[SupervisorPolicy, str]:
    """A ``failure_policy`` mapping as ``(policy, on_failure)``.

    :class:`SupervisorPolicy` checks every per-cell value; its error
    becomes a :class:`~repro.errors.PlanError` naming ``where`` and the
    plan key.
    """
    _require_keys(data, _POLICY_KEYS, (), where)
    on_failure = data.get("on_failure", "abort")
    if on_failure not in ON_FAILURE_MODES:
        raise PlanError(
            f"{where}.on_failure must be one of "
            f"{', '.join(ON_FAILURE_MODES)}, got {on_failure!r}"
        )
    fields = {name: data[key] for key, name in _POLICY_FIELDS.items()
              if key in data}
    # Only a valid ceiling is converted, so an error shows it as written.
    rss_mb = fields.get("max_rss_bytes")
    if isinstance(rss_mb, int) and not isinstance(rss_mb, bool) and rss_mb > 0:
        fields["max_rss_bytes"] = rss_mb * 1024 * 1024
    try:
        policy = SupervisorPolicy(**fields)
    except ConfigurationError as exc:
        message = str(exc)
        for key, name in _POLICY_FIELDS.items():
            message = message.replace(name, key)
        raise PlanError(f"{where}: {message}") from None
    return policy, on_failure


_GRID_KEYS = (
    "orgs", "workloads", "trace", "allow_synthetic_fallback",
    "fallback_workloads", "seeds", "accesses", "use_l3", "scale_shift",
    "error_budget",
)


def _parse_grid(
    data: object, where: str, plan_dir: str, known_workloads: Sequence[str]
) -> StageGrid:
    from ..orgs.factory import organization_names

    _require_keys(data, _GRID_KEYS, ("orgs",), where)
    orgs = _coerce_name_list(data["orgs"], f"{where}.orgs")
    known_orgs = set(organization_names())
    for org in orgs:
        if org not in known_orgs:
            raise PlanError(
                f"{where}.orgs: unknown organization {org!r} "
                f"(known: {', '.join(sorted(known_orgs))})"
            )
    has_workloads = "workloads" in data
    has_trace = data.get("trace") is not None
    if has_workloads == has_trace:
        raise PlanError(
            f"{where}: declare exactly one of 'workloads' or 'trace'"
        )
    workloads: Tuple[str, ...] = ()
    trace: Optional[str] = None
    fallback: Tuple[str, ...] = ()
    allow_fallback = False
    if has_workloads:
        workloads = _coerce_name_list(data["workloads"], f"{where}.workloads")
        for name in workloads:
            if name not in known_workloads:
                raise PlanError(f"{where}.workloads: unknown workload {name!r}")
        for key in ("allow_synthetic_fallback", "fallback_workloads", "error_budget"):
            if key in data:
                raise PlanError(
                    f"{where}.{key} only applies to 'trace' stages"
                )
    else:
        if not isinstance(data["trace"], str) or not data["trace"]:
            raise PlanError(f"{where}.trace must be a file path")
        trace = os.path.normpath(os.path.join(plan_dir, data["trace"]))
        if "allow_synthetic_fallback" in data:
            allow_fallback = _coerce_bool(
                data["allow_synthetic_fallback"],
                f"{where}.allow_synthetic_fallback",
            )
        if "fallback_workloads" in data:
            if not allow_fallback:
                raise PlanError(
                    f"{where}.fallback_workloads requires "
                    "allow_synthetic_fallback: true"
                )
            fallback = _coerce_name_list(
                data["fallback_workloads"], f"{where}.fallback_workloads"
            )
            for name in fallback:
                if name not in known_workloads:
                    raise PlanError(
                        f"{where}.fallback_workloads: unknown workload {name!r}"
                    )
        if allow_fallback and not fallback:
            raise PlanError(
                f"{where}: allow_synthetic_fallback: true requires a "
                "non-empty fallback_workloads list"
            )
    seeds: Tuple[int, ...] = (0,)
    if "seeds" in data:
        raw_seeds = data["seeds"]
        if not isinstance(raw_seeds, list) or not raw_seeds:
            raise PlanError(f"{where}.seeds must be a non-empty list of integers")
        seeds = tuple(
            _coerce_int(seed, f"{where}.seeds[{i}]", minimum=0)
            for i, seed in enumerate(raw_seeds)
        )
        if len(set(seeds)) != len(seeds):
            raise PlanError(f"{where}.seeds contains duplicates")
    kwargs: Dict[str, object] = {}
    if data.get("accesses") is not None:
        kwargs["accesses"] = _coerce_int(
            data["accesses"], f"{where}.accesses", minimum=1
        )
    if "use_l3" in data:
        kwargs["use_l3"] = _coerce_bool(data["use_l3"], f"{where}.use_l3")
    if data.get("scale_shift") is not None:
        kwargs["scale_shift"] = _coerce_int(
            data["scale_shift"], f"{where}.scale_shift", minimum=0
        )
    if "error_budget" in data:
        kwargs["error_budget"] = _coerce_int(
            data["error_budget"], f"{where}.error_budget", minimum=0
        )
    return StageGrid(
        orgs=orgs,
        workloads=workloads,
        trace=trace,
        allow_synthetic_fallback=allow_fallback,
        fallback_workloads=fallback,
        seeds=seeds,
        **kwargs,
    )


_STAGE_KEYS = (
    "name", "depends_on", "grid", "experiments", "accesses", "seed",
    "failure_policy",
)
_TOP_KEYS = ("plan", "version", "name", "defaults", "stages")
_DEFAULTS_KEYS = ("accesses", "seed", "scale_shift", "failure_policy")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def parse_plan(data: object, source_path: str = "<plan>") -> CampaignPlan:
    """Validate parsed plan data into a :class:`CampaignPlan`.

    Structure, types, names (organizations, workloads, experiments), and
    the dependency DAG are all checked here; anything wrong raises
    :class:`~repro.errors.PlanError` naming the offending element. Trace
    files are *not* opened here — their existence is an execution-time
    concern (``repro plan validate`` must work on a machine that does
    not hold the traces yet).
    """
    from ..experiments import PAPER_PLANNERS
    from ..workloads.spec import workload_names

    where = source_path
    _require_keys(data, _TOP_KEYS, ("plan", "version", "name", "stages"), where)
    if data["plan"] != PLAN_KIND:
        raise PlanError(
            f"{where}: 'plan' must be {PLAN_KIND!r}, got {data['plan']!r}"
        )
    if data["version"] != PLAN_SCHEMA_VERSION:
        raise PlanError(
            f"{where}: schema version {data['version']!r} is not supported "
            f"(this build reads version {PLAN_SCHEMA_VERSION})"
        )
    if not isinstance(data["name"], str) or not _NAME_RE.match(data["name"]):
        raise PlanError(
            f"{where}: 'name' must be a [A-Za-z0-9._-] identifier, "
            f"got {data['name']!r}"
        )
    defaults = data.get("defaults") or {}
    _require_keys(defaults, _DEFAULTS_KEYS, (), f"{where}: defaults")
    default_accesses = None
    if defaults.get("accesses") is not None:
        default_accesses = _coerce_int(
            defaults["accesses"], f"{where}: defaults.accesses", minimum=1
        )
    default_seed = 0
    if "seed" in defaults:
        default_seed = _coerce_int(
            defaults["seed"], f"{where}: defaults.seed", minimum=0
        )
    default_scale_shift = None
    if defaults.get("scale_shift") is not None:
        default_scale_shift = _coerce_int(
            defaults["scale_shift"], f"{where}: defaults.scale_shift", minimum=0
        )
    default_policy_data = defaults.get("failure_policy") or {}
    # Checked on its own too, so a bad default is named as one.
    _parse_failure_policy(
        default_policy_data, f"{where}: defaults.failure_policy"
    )

    raw_stages = data["stages"]
    if not isinstance(raw_stages, list) or not raw_stages:
        raise PlanError(f"{where}: 'stages' must be a non-empty list")
    plan_dir = os.path.dirname(os.path.abspath(source_path)) if source_path != "<plan>" else os.getcwd()
    known_workloads = workload_names()
    stages: List[PlanStage] = []
    seen_names: Dict[str, int] = {}
    for index, raw in enumerate(raw_stages):
        label = f"{where}: stages[{index}]"
        _require_keys(raw, _STAGE_KEYS, ("name",), label)
        name = raw["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise PlanError(
                f"{label}: stage name must be a [A-Za-z0-9._-] identifier, "
                f"got {name!r}"
            )
        label = f"{where}: stage {name!r}"
        if name in seen_names:
            raise PlanError(f"{label} is declared twice")
        seen_names[name] = index
        has_grid = raw.get("grid") is not None
        has_experiments = "experiments" in raw
        if has_grid == has_experiments:
            raise PlanError(
                f"{label}: declare exactly one of 'grid' or 'experiments'"
            )
        depends_on: Tuple[str, ...] = ()
        if "depends_on" in raw:
            deps = raw["depends_on"]
            if isinstance(deps, str):
                deps = [deps]
            depends_on = _coerce_name_list(deps, f"{label}.depends_on")
            if len(set(depends_on)) != len(depends_on):
                raise PlanError(f"{label}.depends_on contains duplicates")
        policy_data = raw.get("failure_policy") or {}
        _require_keys(policy_data, _POLICY_KEYS, (), f"{label}.failure_policy")
        policy, on_failure = _parse_failure_policy(
            {**default_policy_data, **policy_data}, f"{label}.failure_policy",
        )
        grid: Optional[StageGrid] = None
        experiments: Tuple[str, ...] = ()
        accesses: Optional[int] = None
        seed = default_seed
        if has_grid:
            for key in ("accesses", "seed"):
                if key in raw:
                    raise PlanError(
                        f"{label}.{key}: for grid stages, set it inside 'grid'"
                    )
            grid = _parse_grid(raw["grid"], f"{label}.grid", plan_dir, known_workloads)
            if grid.accesses is None and default_accesses is not None:
                grid = replace(grid, accesses=default_accesses)
            if grid.scale_shift is None and default_scale_shift is not None:
                grid = replace(grid, scale_shift=default_scale_shift)
            if "seeds" not in (raw["grid"] or {}):
                grid = replace(grid, seeds=(default_seed,))
        else:
            experiments = _coerce_name_list(
                raw["experiments"], f"{label}.experiments"
            )
            for experiment in experiments:
                if experiment not in PAPER_PLANNERS:
                    raise PlanError(
                        f"{label}.experiments: unknown experiment "
                        f"{experiment!r} (known: "
                        f"{', '.join(sorted(PAPER_PLANNERS))})"
                    )
            accesses = default_accesses
            if raw.get("accesses") is not None:
                accesses = _coerce_int(
                    raw["accesses"], f"{label}.accesses", minimum=1
                )
            if "seed" in raw:
                seed = _coerce_int(raw["seed"], f"{label}.seed", minimum=0)
        stages.append(
            PlanStage(
                name=name,
                depends_on=depends_on,
                grid=grid,
                experiments=experiments,
                accesses=accesses,
                seed=seed,
                policy=policy,
                on_failure=on_failure,
            )
        )

    for stage in stages:
        for dep in stage.depends_on:
            if dep not in seen_names:
                raise PlanError(
                    f"{where}: stage {stage.name!r} depends on unknown "
                    f"stage {dep!r}"
                )
            if dep == stage.name:
                raise PlanError(
                    f"{where}: stage {stage.name!r} depends on itself"
                )
    plan = CampaignPlan(
        name=data["name"], stages=tuple(stages), source_path=source_path
    )
    plan.execution_order()  # raises PlanError on cycles
    return plan


def load_plan(path: str) -> CampaignPlan:
    """Read, parse, and validate a plan file."""
    try:
        with open(path) as fp:
            text = fp.read()
    except OSError as exc:
        raise PlanError(f"unreadable plan {path}: {exc}") from exc
    return parse_plan(parse_plan_source(text, path), path)


# -- The atomic status file ------------------------------------------------------

_STATUS_KEYS = ("kind", "version", "plan_name", "stages")
_STAGE_STATUS_KEYS = (
    "state", "attempts", "incidents", "cells_total", "cells_failed",
)


def _fresh_stage_status() -> Dict[str, object]:
    return {
        "state": "pending",
        "attempts": 0,
        "incidents": [],
        "cells_total": 0,
        "cells_failed": 0,
    }


def write_status(path: str, status: Dict) -> None:
    """Atomically persist the plan status (tmp file + rename)."""
    atomic_write(path, json.dumps(status, indent=2, sort_keys=True).encode())


def load_status(path: str) -> Dict:
    """Read and strictly validate a status file written by :func:`run_plan`.

    Unknown keys, missing keys, bad types, or unknown stage states raise
    :class:`~repro.errors.PlanError` — a resume must never guess at a
    half-understood status file.
    """
    try:
        with open(path) as fp:
            payload = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise PlanError(f"unreadable plan status {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != STATUS_KIND:
        raise PlanError(
            f"{path} is not a plan status file (expected kind={STATUS_KIND!r})"
        )
    if payload.get("version") != STATUS_VERSION:
        raise PlanError(
            f"plan status {path} has version {payload.get('version')}, "
            f"expected {STATUS_VERSION}"
        )
    _require_keys(payload, _STATUS_KEYS, _STATUS_KEYS, f"plan status {path}")
    if not isinstance(payload["plan_name"], str):
        raise PlanError(f"plan status {path}: 'plan_name' must be a string")
    stages = payload["stages"]
    if not isinstance(stages, dict):
        raise PlanError(f"plan status {path}: 'stages' must be a mapping")
    for name, entry in stages.items():
        where = f"plan status {path}: stage {name!r}"
        _require_keys(entry, _STAGE_STATUS_KEYS, _STAGE_STATUS_KEYS, where)
        if entry["state"] not in STAGE_STATES:
            raise PlanError(f"{where}: unknown state {entry['state']!r}")
        for key in ("attempts", "cells_total", "cells_failed"):
            if not isinstance(entry[key], int) or isinstance(entry[key], bool):
                raise PlanError(f"{where}: {key!r} must be an integer")
        if not isinstance(entry["incidents"], list) or not all(
            isinstance(item, str) for item in entry["incidents"]
        ):
            raise PlanError(f"{where}: 'incidents' must be a list of strings")
    return payload


def describe_status(status: Dict) -> str:
    """The ``repro plan status`` table."""
    from ..analysis.report import format_table

    rows = []
    settled_ok = 0
    for name, entry in status["stages"].items():
        incidents = entry["incidents"]
        if entry["state"] in ("completed", "failed"):
            ok = entry["cells_total"] - entry["cells_failed"]
            settled_ok += ok
            cells = f"{ok}/{entry['cells_total']}"
        else:
            cells = "-"  # not settled (pending/running/skipped/interrupted)
        rows.append([
            name,
            entry["state"],
            entry["attempts"],
            cells,
            incidents[-1] if incidents else "",
        ])
    return format_table(
        ["stage", "state", "attempts", "cells ok", "last incident"],
        rows,
        title=(
            f"Plan {status['plan_name']!r}: {settled_ok} cell(s) ok in "
            "settled stages"
        ),
    )


# -- The executor ----------------------------------------------------------------


@dataclass
class PlanRunReport:
    """What one :func:`run_plan` invocation did."""

    plan: CampaignPlan
    status: Dict
    #: stage name -> settled outcomes of this invocation (store hits
    #: included); absent for stages that were skipped.
    outcomes: Dict[str, List[JobOutcome]] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """Every stage completed: the exit-0 rule of ``repro plan run``
        and ``repro campaign``."""
        return all(
            entry["state"] == "completed"
            for entry in self.status["stages"].values()
        )

    def describe(self) -> str:
        states: Dict[str, int] = {}
        for entry in self.status["stages"].values():
            states[entry["state"]] = states.get(entry["state"], 0) + 1
        settled = [o for outcomes in self.outcomes.values() for o in outcomes]
        simulated = sum(1 for o in settled if o.ok and not o.cached)
        failed = sum(1 for o in settled if not o.ok)
        served = sum(1 for o in settled if o.ok and o.cached)
        summary = ", ".join(f"{count} {state}" for state, count in sorted(states.items()))
        return (
            f"plan {self.plan.name!r}: {summary}; "
            f"{simulated} cell(s) simulated, {served} served from the "
            f"store, {failed} failed"
        )


def _build_stage_jobs(
    stage: PlanStage, incidents: List[str], log: Callable[[str], None]
) -> List[SimJob]:
    """The stage's cell list; raises for an unusable trace stage.

    Ingestion failure with ``allow_synthetic_fallback: true`` degrades —
    loudly, through an incident and the log — to the declared fallback
    workloads; without it the :class:`~repro.errors.IngestError`
    propagates and the stage fails under its ``on_failure`` mode.
    """
    from ..config.system import scaled_paper_system
    from ..errors import IngestError
    from ..workloads.ingest import ingest_trace_file

    if stage.grid is None:
        from ..experiments import PAPER_PLANNERS

        jobs: List[SimJob] = []
        for experiment in stage.experiments:
            planned = PAPER_PLANNERS[experiment](
                accesses_per_context=stage.accesses, seed=stage.seed
            )
            jobs.extend(planned.jobs)
        return jobs
    grid = stage.grid
    config = (
        scaled_paper_system(scale_shift=grid.scale_shift)
        if grid.scale_shift is not None
        else None
    )
    if grid.trace is not None:
        try:
            report = ingest_trace_file(grid.trace, error_budget=grid.error_budget)
        except IngestError as exc:
            if not grid.allow_synthetic_fallback:
                raise
            incident = (
                f"trace ingestion failed ({exc}); degrading to synthetic "
                f"workload(s) {', '.join(grid.fallback_workloads)} as the "
                "plan explicitly allows"
            )
            incidents.append(incident)
            log(f"WARNING: {incident}")
            workloads: List[object] = list(grid.fallback_workloads)
        else:
            for line in report.describe().splitlines():
                log(line)
            for warning in report.warnings:
                incidents.append(warning)
            workloads = [report.trace]
    else:
        workloads = list(grid.workloads)
    return [
        SimJob(
            organization=org,
            workload=workload,
            config=config,
            accesses_per_context=grid.accesses,
            seed=seed,
            use_l3=grid.use_l3,
        )
        for org in grid.orgs
        for workload in workloads
        for seed in grid.seeds
    ]


def _record_incidents(entry: Dict, new_incidents: Sequence[str]) -> None:
    entry["incidents"] = (
        list(entry["incidents"]) + list(new_incidents)
    )[-MAX_STAGE_INCIDENTS:]


def plan_result_store(status_path: str) -> ResultStore:
    """The store a plan run at ``status_path`` reads and writes.

    It is the plan's checkpoint: the process-wide store when that
    persists (``REPRO_RESULT_CACHE=disk``), otherwise a sharded
    directory next to the status file, ``<status path>.results/`` — so
    a plan resumes under the default in-memory store and under
    ``--no-result-cache`` too.
    """
    store = default_result_store()
    if store is not None and store.backend is not None:
        return store
    return ResultStore(backend=SharedDirBackend(status_path + ".results"))


def run_plan(
    plan: CampaignPlan,
    status_path: str,
    n_jobs: Optional[int] = 1,
    log: Optional[Callable[[str], None]] = None,
    journal: Optional[IncidentJournal] = None,
    resume: bool = False,
    export_path: Optional[str] = None,
) -> PlanRunReport:
    """Execute (or resume) a validated plan; returns the run report.

    Every non-skipped stage executes in dependency order through
    :func:`repro.sim.plan.run_jobs_cached`, against
    :func:`plan_result_store`, inside
    :func:`~repro.sim.supervisor.use_supervision` with its own policy
    and ``journal`` (``None``: the one ``REPRO_INCIDENT_JOURNAL`` names,
    if any). That store is the checkpoint: each cell is written the
    moment it settles, so killing this function at any moment — even
    with ``kill -9`` — loses only the cells in flight. Every stage runs
    again on resume, and serves every stored cell without simulating,
    which is what makes it byte-identical to an uninterrupted one. A
    run without ``resume`` first empties the plan's own directory (a
    shared disk store is never cleared). The status file holds stage
    states, attempts and incidents only, carried over by stage name on
    resume; it is rewritten atomically after every stage transition.

    Raises:
        PlanExecutionError: a stage failed under ``on_failure: abort``
            (the status file already records the failure).
        InterruptedRunError: SIGINT/SIGTERM stopped the run; settled
            cells are already in the store for ``--resume``.
    """
    from .plan import run_jobs_cached

    emit = log if log is not None else (lambda message: None)
    order = plan.execution_order()

    previous_stages: Dict[str, Dict] = {}
    if resume:
        previous = load_status(status_path)
        if previous["plan_name"] != plan.name:
            raise PlanError(
                f"status file {status_path} belongs to plan "
                f"{previous['plan_name']!r}, not {plan.name!r}; use a fresh "
                "--status path"
            )
        previous_stages = previous["stages"]
    # A resumed stage keeps its attempts and incidents by name, and
    # every stage runs again: cells finished earlier are store hits, and
    # re-running (rather than trusting recorded states) is what
    # guarantees the final status and export cover the whole plan, that
    # previously-failed stages get retried, and that a stage skipped
    # last time runs once its dependency recovers.
    stage_status = {
        name: dict(previous_stages.get(name) or _fresh_stage_status(),
                   state="pending")
        for name in order
    }

    status: Dict = {
        "kind": STATUS_KIND,
        "version": STATUS_VERSION,
        "plan_name": plan.name,
        "stages": stage_status,
    }
    write_status(status_path, status)

    store = plan_result_store(status_path)
    if not resume and store is not default_result_store():
        store.backend.clear()
    report = PlanRunReport(plan=plan, status=status)

    with use_result_store(store):
        for name in order:
            stage = plan.stage(name)
            entry = stage_status[name]
            blocked_by = [
                dep
                for dep in stage.depends_on
                if stage_status[dep]["state"] in ("failed", "interrupted", "skipped")
                and (
                    stage_status[dep]["state"] == "skipped"
                    or plan.stage(dep).on_failure == "skip-dependents"
                )
            ]
            if blocked_by:
                entry["state"] = "skipped"
                _record_incidents(
                    entry,
                    [f"skipped: dependency {dep} did not complete"
                     for dep in blocked_by],
                )
                emit(f"stage {name}: skipped ({', '.join(blocked_by)} failed)")
                write_status(status_path, status)
                continue
            entry["state"] = "running"
            write_status(status_path, status)
            emit(f"stage {name}: starting")
            incidents: List[str] = []
            try:
                jobs = _build_stage_jobs(stage, incidents, emit)
            except Exception as exc:
                entry["state"] = "failed"
                incidents.append(f"stage setup failed: {exc}")
                _record_incidents(entry, incidents)
                write_status(status_path, status)
                if stage.on_failure == "abort":
                    raise PlanExecutionError(
                        f"plan {plan.name}: stage {name!r} failed during "
                        f"setup and its policy is abort: {exc}",
                        stage=name,
                    ) from exc
                emit(f"stage {name}: failed during setup ({exc}); continuing")
                continue
            entry["cells_total"] = len(jobs)
            try:
                with use_supervision(stage.policy, journal):
                    outcomes = run_jobs_cached(jobs, n_jobs=n_jobs, log=log)
            except InterruptedRunError as exc:
                entry["state"] = "interrupted"
                incidents.append(str(exc))
                _record_incidents(entry, incidents)
                write_status(status_path, status)
                emit(
                    f"stage {name}: interrupted; its settled cells are in "
                    "the store for --resume"
                )
                raise
            if any(not outcome.cached for outcome in outcomes):
                entry["attempts"] = entry["attempts"] + 1
            report.outcomes[name] = list(outcomes)
            failures = [outcome for outcome in outcomes if not outcome.ok]
            entry["cells_failed"] = len(failures)
            for outcome in failures[:8]:
                incidents.append(f"cell {outcome.job.key}: {outcome.error}")
            if len(failures) > 8:
                incidents.append(f"... and {len(failures) - 8} more failed cell(s)")
            if failures:
                entry["state"] = "failed"
                _record_incidents(entry, incidents)
                write_status(status_path, status)
                mode = stage.on_failure
                emit(
                    f"stage {name}: {len(failures)}/{len(jobs)} cell(s) "
                    f"failed (on_failure: {mode})"
                )
                if mode == "abort":
                    raise PlanExecutionError(
                        f"plan {plan.name}: stage {name!r} failed "
                        f"({len(failures)} of {len(jobs)} cells) and its "
                        "policy is abort; see the status file for incidents",
                        stage=name,
                    )
                continue
            entry["state"] = "completed"
            _record_incidents(entry, incidents)
            write_status(status_path, status)
            served = sum(1 for outcome in outcomes if outcome.cached)
            emit(
                f"stage {name}: completed ({len(jobs)} cell(s), "
                f"{served} served from the store)"
            )

    if export_path is not None:
        write_export(export_path, report)
        emit(f"exported results to {export_path}")
    return report


def write_export(path: str, report: PlanRunReport) -> None:
    """Write the deterministic results export for one finished run.

    Contains only per-stage states and full per-cell result payloads —
    no wall-clock times, attempt counts, or host details — so an
    interrupted-then-resumed run exports bytes identical to an
    uninterrupted one (the CI plan-smoke job diffs exactly this file).
    """
    stages: Dict[str, Dict] = {}
    for name, entry in report.status["stages"].items():
        cells = {}
        for outcome in report.outcomes.get(name, []):
            if outcome.ok:
                cells[outcome.job.key] = result_to_state(outcome.result)
        stages[name] = {"state": entry["state"], "cells": cells}
    payload = {
        "kind": EXPORT_KIND,
        "version": EXPORT_VERSION,
        "plan": report.plan.name,
        "stages": stages,
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True).encode())
