"""Exception hierarchy for the CAMEO reproduction library.

All library-specific failures derive from :class:`ReproError` so callers
can catch the whole family with one handler while still distinguishing
configuration mistakes from runtime simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A system or experiment configuration is inconsistent.

    Examples: a stacked-DRAM capacity that is not a power-of-two number
    of lines, or a workload footprint of zero pages.
    """


class EnvKnobError(ConfigurationError):
    """An environment knob holds a value outside its accepted set.

    Raised when an environment variable (``REPRO_RESULT_CACHE`` or
    ``REPRO_TRACE_CACHE``) holds a value this build does not
    understand. The message always names the variable, the offending
    value, and the full accepted set, and the CLI maps it to exit code
    2 — a typo in an env knob must fail loudly up front, never silently
    fall back to a default the operator did not choose.
    """


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state.

    These indicate bugs (e.g. the LLT mapping lost its permutation
    property), never bad user input, so they should not be caught and
    ignored.
    """


class WorkloadError(ReproError):
    """A workload name is unknown or its parameters are invalid."""


class FaultError(ReproError):
    """A modeled hardware fault was detected and could not be corrected.

    Raised by the DRAM device model when SECDED detects corruption it
    cannot fix (an uncorrectable transient, or any read of a stuck-at
    row). The memory organization catches these and applies its recovery
    policy — retry, or congruence-group decommission for ``permanent``
    faults — so under fault injection they are control flow, not bugs.
    """

    def __init__(
        self,
        message: str,
        device: str = "",
        line_addr: int = -1,
        permanent: bool = False,
    ):
        super().__init__(message)
        self.device = device
        self.line_addr = line_addr
        self.permanent = permanent


class RecoveryExhaustedError(FaultError):
    """Every recovery avenue for an access failed.

    Bounded retry-with-backoff ran out of attempts, or a decommissioned
    congruence group has no surviving off-chip slot left to serve from.
    Treated like a permanent fault by callers.
    """

    def __init__(self, message: str, device: str = "", line_addr: int = -1):
        super().__init__(message, device=device, line_addr=line_addr, permanent=True)


class PlanError(ReproError):
    """A campaign plan file or status file is invalid.

    Raised at parse/validation time with the offending file (and line,
    where one exists) named in the message — a malformed plan must fail
    loudly before anything simulates, never as a mid-run ``KeyError``.
    """


class PlanExecutionError(PlanError):
    """A plan stage failed and its ``on_failure: abort`` policy stopped the run.

    Carries the stage name and the aggregated cell failures; stages that
    fail under ``continue``/``skip-dependents`` policies do not raise —
    they are reported through the status file instead.
    """

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class IngestError(WorkloadError):
    """An external trace file failed strict ingestion validation.

    Every message names the file and, for record-level problems, the
    1-based line number; a trace that is truncated, fails its checksum,
    or exceeds its malformed-record budget is rejected whole — ingestion
    never silently yields a partial trace.
    """


class ParallelError(ReproError):
    """A parallel grid could not produce every required cell.

    Raised *after* the whole grid has run, aggregating every failed
    job's error, so one bad cell reports alongside its peers instead of
    killing the fan-out mid-flight.
    """


class InterruptedRunError(ReproError):
    """A supervised run was stopped by SIGINT/SIGTERM before completing.

    Not a failure: every cell that finished before the signal has
    already been delivered to the caller's settle hook (which, on the
    grid path, stores it in the result store and, for plans, banks it
    in the status file), so the run can be completed later by running
    it again. The CLI maps this to its own distinct exit code (3).
    """

    def __init__(self, message: str, signal_name: str = "SIGINT"):
        super().__init__(message)
        self.signal_name = signal_name
