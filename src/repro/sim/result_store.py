"""Content-addressed cache of finished :class:`RunResult`\\ s.

PR 3 memoized the *trace* layer: the five organizations of one
experiment cell replay one materialized access stream. This module
memoizes the *simulation* layer above it. Reproducing the full paper
re-simulates the same ``(organization, workload, config, seed,
accesses)`` cell many times — ``baseline`` and ``cameo`` appear in
nearly every figure runner — so each cell is keyed by a canonical
fingerprint and simulated once:

* **key** — sha256 over the organization name, canonicalized
  ``org_kwargs``, the full workload-spec knobs (one spec, or the
  per-context list of a heterogeneous mix), ``config.fingerprint()``,
  the resolved trace length, seed, ``use_l3``, a digest of the fault
  configuration, and a store schema version. Two cells share an entry
  exactly when :func:`repro.sim.runner.run_workload` would produce
  byte-identical results for both.
* **memory layer** — an LRU of *encoded* results inside the process;
  every hit decodes a fresh :class:`RunResult`, so a served result is
  byte-identical to a freshly simulated one and callers never alias the
  stored copy.
* **persistence layer (optional)** — a pluggable :class:`StoreBackend`.
  :class:`SharedDirBackend` keeps JSON entries fingerprint-sharded
  (``<dir>/<fp[:2]>/<fp>.result.json``) under ``~/.cache/repro/results``
  (override with ``REPRO_RESULT_CACHE_DIR``), so a directory many hosts
  mount at once never holds thousands of entries in one listing. It
  writes atomically (:func:`repro.atomic.atomic_write`) so any number
  of concurrent writers — parallel workers, or whole other hosts — can
  race on the same fingerprint and readers only ever see a complete
  entry. Corrupt, truncated, or stale-schema files are treated as
  misses and regenerated, never trusted.

The mode is selected by ``REPRO_RESULT_CACHE``: ``memory`` (the
default), ``disk`` (memory + the sharded directory — point
``REPRO_RESULT_CACHE_DIR`` at a mounted directory, and any host can
resume a campaign another host started), or ``off`` (every run
simulates, the pre-store behavior).
Cells whose ``org_kwargs`` hold values with no canonical encoding (e.g.
a live predictor object) have no fingerprint and always simulate — the
store refuses to guess at object state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..atomic import atomic_write
from ..core.llp import LlpCaseStats
from ..errors import ConfigurationError, EnvKnobError
from .results import RunProvenance, RunResult

#: Mode knob: "memory" (default), "disk", or "off".
MODE_ENV_VAR = "REPRO_RESULT_CACHE"
#: Disk-layer location override.
DIR_ENV_VAR = "REPRO_RESULT_CACHE_DIR"
#: Memory-layer entry budget (one entry = one encoded RunResult).
DEFAULT_MAX_ENTRIES = 1024

#: Bump whenever the fingerprint recipe, the encoded result layout, or
#: the simulation semantics behind a cell change: older disk entries
#: then miss (and are regenerated) instead of serving stale results.
RESULT_STORE_SCHEMA_VERSION = 1

_VALID_MODES = ("memory", "disk", "off")
_KIND = "repro-run-result"


def default_results_dir() -> str:
    """Where the disk layer lives (``REPRO_RESULT_CACHE_DIR`` overrides)."""
    override = os.environ.get(DIR_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "results")


# -- Canonical cell fingerprints -----------------------------------------------


class UncacheableCell(Exception):
    """A cell input has no canonical encoding; the cell must simulate."""


#: Forms of frozensets already encoded, by object identity (a bounded
#: LRU). A form costs one ``json.dumps`` per item, ~1.5 ms for
#: TLM-Oracle's 256-page ``hot_vpages``, and a cell is fingerprinted
#: several times. Identity, not equality, keys it: ``{(0, 1)}`` equals
#: ``{(0, 1.0)}`` but encodes differently. Each entry holds its set, so
#: the id cannot be reused while the entry lives. Forms are shared, so
#: callers only serialize them.
_FROZENSET_FORMS_SIZE = 64
_frozenset_forms: "OrderedDict[int, Tuple[frozenset, Dict[str, list]]]" = (
    OrderedDict()
)


def _canonical(value: object) -> object:
    """A JSON-stable form of one keyed input, or :class:`UncacheableCell`.

    Handles the values that legitimately appear in ``org_kwargs``:
    primitives, (frozen)sets (e.g. TLM-Oracle's ``hot_vpages``),
    sequences, string-keyed mappings, and frozen dataclasses. Anything
    else — a live predictor object, an open file — is uncacheable by
    design rather than keyed by ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": _canonical(dataclasses.asdict(value)),
        }
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise UncacheableCell(f"non-string mapping key {key!r}")
            out[key] = _canonical(value[key])
        return out
    if isinstance(value, frozenset):
        entry = _frozenset_forms.get(id(value))
        if entry is not None:
            _frozenset_forms.move_to_end(id(value))
            return entry[1]
        form = _canonical_set(value)
        _frozenset_forms[id(value)] = (value, form)
        if len(_frozenset_forms) > _FROZENSET_FORMS_SIZE:
            _frozenset_forms.popitem(last=False)
        return form
    if isinstance(value, set):
        return _canonical_set(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise UncacheableCell(f"no canonical encoding for {type(value).__name__}")


def _canonical_set(value) -> Dict[str, list]:
    """A set's form: its items' forms, sorted by their JSON."""
    items = [_canonical(item) for item in value]
    return {
        "__set__": sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    }


def cell_fingerprint(
    org_name: str,
    workloads: object,
    config,
    accesses_per_context: int,
    seed: int,
    use_l3: bool = False,
    org_kwargs: Optional[Mapping[str, object]] = None,
    fault_config: Optional[object] = None,
) -> Optional[str]:
    """The content address of one simulation cell, or None if uncacheable.

    ``workloads`` is one :class:`~repro.workloads.spec.WorkloadSpec`
    (rate mode) or a sequence of specs (heterogeneous mix — the
    per-context order is keyed, so permuted mixes do not collide).
    ``accesses_per_context`` must already be resolved: the environment
    default is an input to the simulation, not part of the key recipe.
    """
    mix = not _is_single_spec(workloads)
    specs = list(workloads) if mix else [workloads]
    try:
        key = {
            "kind": "repro-result-cell",
            "schema": RESULT_STORE_SCHEMA_VERSION,
            "organization": org_name,
            "mix": mix,
            "workloads": [_canonical(s.as_dict()) for s in specs],
            "config": config.fingerprint(),
            "accesses_per_context": int(accesses_per_context),
            "seed": int(seed),
            "use_l3": bool(use_l3),
            "org_kwargs": _canonical(dict(org_kwargs or {})),
            "faults": _canonical(fault_config),
        }
    except UncacheableCell:
        return None
    blob = json.dumps(key, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _is_single_spec(workloads: object) -> bool:
    from ..workloads.spec import WorkloadSpec

    return isinstance(workloads, WorkloadSpec)


def job_fingerprint(job) -> Optional[str]:
    """The cell fingerprint of one :class:`~repro.sim.parallel.SimJob`.

    Resolves the same defaults :func:`~repro.sim.runner.run_workload`
    resolves (workload name -> spec, default config, environment trace
    length), so a job and the run it describes always agree on the key.
    Returns None for uncacheable or malformed jobs — they simulate and
    report their own errors.
    """
    from ..config.system import default_paper_system
    from ..errors import ReproError
    from ..workloads.ingest import IngestedTrace, replay_spec
    from ..workloads.spec import WorkloadSpec, workload
    from .engine import default_accesses_per_context

    try:
        if isinstance(job.workload, WorkloadSpec):
            spec = job.workload
        elif isinstance(job.workload, IngestedTrace):
            # Ingested cells key on the surrogate spec, whose name embeds
            # the trace content checksum — same recipe run_workload uses.
            spec = replay_spec(job.workload)
        else:
            spec = workload(str(job.workload))
        config = job.config if job.config is not None else default_paper_system()
        n_accesses = (
            job.accesses_per_context
            if job.accesses_per_context is not None
            else default_accesses_per_context()
        )
    except ReproError:
        return None
    return cell_fingerprint(
        job.organization,
        spec,
        config,
        n_accesses,
        job.seed,
        use_l3=job.use_l3,
        org_kwargs=job.org_kwargs,
        fault_config=job.fault_config,
    )


# -- Full-fidelity RunResult codec ---------------------------------------------
#
# Unlike repro.sim.export (which deliberately drops provenance and
# derives display fields), this codec must round-trip every *measured*
# field so a cache-served result is indistinguishable from a fresh
# simulation. ``engine_stats`` is the one exception: it describes the
# process that simulated the run, and a store-served result engaged no
# engine in the serving process — None is the truthful value.


def result_to_state(result: RunResult) -> Dict:
    """Every field of a :class:`RunResult`, as JSON-safe plain data."""
    return {
        "workload": result.workload,
        "organization": result.organization,
        "total_cycles": result.total_cycles,
        "instructions": result.instructions,
        "accesses": result.accesses,
        "dram_bytes": dict(result.dram_bytes),
        "storage_bytes": result.storage_bytes,
        "page_faults": result.page_faults,
        "stacked_service_fraction": result.stacked_service_fraction,
        "line_swaps": result.line_swaps,
        "page_migrations": result.page_migrations,
        "llp_cases": (
            dataclasses.asdict(result.llp_cases)
            if result.llp_cases is not None
            else None
        ),
        "l3_miss_rate": result.l3_miss_rate,
        "device_summary": {
            device: dict(metrics)
            for device, metrics in result.device_summary.items()
        },
        "fault_summary": (
            dict(result.fault_summary)
            if result.fault_summary is not None
            else None
        ),
        "provenance": (
            dataclasses.asdict(result.provenance)
            if result.provenance is not None
            else None
        ),
    }


def result_from_state(state: Dict) -> RunResult:
    """Inverse of :func:`result_to_state`."""
    llp = state.get("llp_cases")
    provenance = state.get("provenance")
    return RunResult(
        workload=state["workload"],
        organization=state["organization"],
        total_cycles=state["total_cycles"],
        instructions=state["instructions"],
        accesses=state["accesses"],
        dram_bytes=dict(state["dram_bytes"]),
        storage_bytes=state["storage_bytes"],
        page_faults=state["page_faults"],
        stacked_service_fraction=state["stacked_service_fraction"],
        line_swaps=state["line_swaps"],
        page_migrations=state["page_migrations"],
        llp_cases=LlpCaseStats(**llp) if llp is not None else None,
        l3_miss_rate=state["l3_miss_rate"],
        device_summary={
            device: dict(metrics)
            for device, metrics in state["device_summary"].items()
        },
        fault_summary=(
            dict(state["fault_summary"])
            if state["fault_summary"] is not None
            else None
        ),
        provenance=(
            RunProvenance(**provenance) if provenance is not None else None
        ),
    )


def _encode_entry(fingerprint: str, result: RunResult) -> bytes:
    payload = {
        "kind": _KIND,
        "schema": RESULT_STORE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "result": result_to_state(result),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _decode_entry(payload: bytes, fingerprint: str) -> Optional[RunResult]:
    """Decode one stored entry; None for anything malformed or stale."""
    try:
        data = json.loads(payload.decode("utf-8"))
        if (
            not isinstance(data, dict)
            or data.get("kind") != _KIND
            or data.get("schema") != RESULT_STORE_SCHEMA_VERSION
            or data.get("fingerprint") != fingerprint
        ):
            return None
        return result_from_state(data["result"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


# -- Persistence backends -------------------------------------------------------


class StoreBackend:
    """One persistence layer behind a :class:`ResultStore`.

    Implementations hold *encoded* entries (the bytes of
    :func:`_encode_entry`) keyed by fingerprint; validation and
    corruption handling stay in the store, which treats any entry that
    fails to decode as a miss and calls :meth:`discard` on it. Every
    method must be safe under concurrent writers — multiple processes,
    or multiple hosts against a shared directory — which in practice
    means atomic whole-entry writes and tolerating files vanishing
    between a listing and a read.
    """

    name = "abstract"

    def load(self, fingerprint: str) -> Optional[bytes]:
        """The stored bytes for this fingerprint, or None."""
        raise NotImplementedError

    def store(self, fingerprint: str, payload: bytes) -> None:
        """Persist one encoded entry atomically (replace is fine)."""
        raise NotImplementedError

    def contains(self, fingerprint: str) -> bool:
        """A cheap presence probe; may report entries that later fail
        validation (the planner predicts hits, ``get`` decides them)."""
        raise NotImplementedError

    def discard(self, fingerprint: str) -> None:
        """Drop one entry (used on corrupt files); missing is fine."""
        raise NotImplementedError

    def check_writable(self) -> None:
        """Raise :class:`ConfigurationError` if a store would fail.

        Called once before a grid simulates anything, so an unusable
        location is one error up front, not a failure per finished cell.
        """

    def clear(self) -> None:
        """Drop every entry this backend owns."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class SharedDirBackend(StoreBackend):
    """Fingerprint-sharded directory layout, safe for many hosts at once.

    ``<dir>/<fp[:2]>/<fp>.result.json`` — 256 shard directories keep
    any one listing small on network filesystems, and the two-hex
    prefix is uniform because fingerprints are sha256 hexdigests.
    Writes go through :func:`repro.atomic.atomic_write`, so a reader
    can never observe a half-written entry, no matter how many
    processes (or hosts, for a mounted directory) race on the same
    fingerprint: last complete write wins, and every intermediate
    state is either the old complete entry or the new one. A fresh
    parent process on any machine pointed at the same directory serves
    every cell a previous host already simulated.
    """

    name = "shared-dir"

    def __init__(self, directory: str):
        if not directory:
            raise ConfigurationError(f"{self.name} backend needs a directory")
        self.directory = directory

    def _path(self, fingerprint: str) -> str:
        return os.path.join(
            self.directory, fingerprint[:2], f"{fingerprint}.result.json",
        )

    def load(self, fingerprint: str) -> Optional[bytes]:
        try:
            with open(self._path(fingerprint), "rb") as fp:
                return fp.read()
        except OSError:
            return None

    def store(self, fingerprint: str, payload: bytes) -> None:
        atomic_write(self._path(fingerprint), payload)

    def contains(self, fingerprint: str) -> bool:
        return os.path.exists(self._path(fingerprint))

    def discard(self, fingerprint: str) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self._path(fingerprint))

    def check_writable(self) -> None:
        """Create the directory, then write and remove a probe file.

        The probe goes through :func:`repro.atomic.atomic_write`, as
        every entry does, under a name no other writer uses.
        """
        probe = os.path.join(self.directory, f".probe-{uuid.uuid4().hex}")
        try:
            atomic_write(probe, b"")
            os.unlink(probe)
        except OSError as exc:
            raise ConfigurationError(
                f"result store directory {self.directory!r} is not writable: "
                f"{exc}"
            ) from None

    def clear(self) -> None:
        if not os.path.isdir(self.directory):
            return
        for shard in os.listdir(self.directory):
            shard_dir = os.path.join(self.directory, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(".result.json"):
                    with contextlib.suppress(OSError):
                        os.unlink(os.path.join(shard_dir, name))

    def describe(self) -> str:
        return f"{self.name}:{self.directory}"


# -- The store -----------------------------------------------------------------


@dataclass
class ResultStoreStats:
    """Hit/miss accounting for one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ResultStore:
    """LRU of encoded run results, optionally backed by a :class:`StoreBackend`."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        backend: Optional[StoreBackend] = None,
    ):
        if max_entries <= 0:
            raise ConfigurationError("result store needs at least one entry")
        self.max_entries = max_entries
        self.backend = backend
        self.stats = ResultStoreStats()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> Optional[RunResult]:
        """The stored result for this cell, decoded fresh, or None.

        Every hit decodes a new :class:`RunResult`, so callers can never
        mutate the stored copy through a served one.
        """
        payload = self._entries.get(fingerprint)
        if payload is not None:
            result = _decode_entry(payload, fingerprint)
            if result is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return result
            # An in-memory entry that fails to decode is unreachable in
            # practice (we encoded it), but drop it rather than trust it.
            del self._entries[fingerprint]
        if self.backend is not None:
            payload = self.backend.load(fingerprint)
            if payload is not None:
                result = _decode_entry(payload, fingerprint)
                if result is not None:
                    self.stats.disk_hits += 1
                    self._remember(fingerprint, payload)
                    return result
                # Corrupt/truncated/stale-schema entry (e.g. a reader
                # racing a non-atomic copy into a shared mount):
                # regenerate, never trust.
                self.backend.discard(fingerprint)
        self.stats.misses += 1
        return None

    def contains(self, fingerprint: str) -> bool:
        """A cheap presence probe (no decode, no stats) for plan previews.

        An entry that later fails validation still counts here — the
        planner predicts hits, :meth:`get` decides them.
        """
        if fingerprint in self._entries:
            return True
        return self.backend is not None and self.backend.contains(fingerprint)

    def check_writable(self) -> None:
        """Raise :class:`ConfigurationError` if the backend cannot store."""
        if self.backend is not None:
            self.backend.check_writable()

    def put(self, fingerprint: str, result: RunResult) -> None:
        """Store one finished result under its cell fingerprint."""
        payload = _encode_entry(fingerprint, result)
        self._remember(fingerprint, payload)
        if self.backend is not None:
            self.backend.store(fingerprint, payload)
            self.stats.disk_writes += 1

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer; with ``disk=True`` also the backend's."""
        self._entries.clear()
        if disk and self.backend is not None:
            self.backend.clear()

    # -- internals ---------------------------------------------------------

    def _remember(self, fingerprint: str, payload: bytes) -> None:
        self._entries[fingerprint] = payload
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


# -- The process-wide default store --------------------------------------------

_default_store: Optional[ResultStore] = None
#: The directory the default store was built for (None: memory only).
_default_store_dir: Optional[str] = None
_mode_override: Optional[str] = None
#: Sentinel-based instance override (``use_result_store``); the sentinel
#: distinguishes "no override" from "override with None/off".
_UNSET = object()
_store_override: object = _UNSET


def _env_mode() -> str:
    mode = os.environ.get(MODE_ENV_VAR, "memory").strip().lower()
    if mode not in _VALID_MODES:
        raise EnvKnobError(
            f"{MODE_ENV_VAR}={mode!r} is not a result-cache mode; "
            f"accepted values: {', '.join(_VALID_MODES)}"
        )
    return mode


def default_result_store() -> Optional[ResultStore]:
    """The process-wide store, or None when result caching is off.

    The instance is created lazily from ``REPRO_RESULT_CACHE`` /
    ``REPRO_RESULT_CACHE_DIR`` and kept until the mode or the directory
    changes.
    """
    global _default_store, _default_store_dir
    if _store_override is not _UNSET:
        return _store_override  # type: ignore[return-value]
    mode = _mode_override if _mode_override is not None else _env_mode()
    if mode == "off":
        return None
    directory = default_results_dir() if mode == "disk" else None
    if _default_store is None or _default_store_dir != directory:
        _default_store = ResultStore(
            backend=SharedDirBackend(directory) if directory else None
        )
        _default_store_dir = directory
    return _default_store


def clear_default_result_store(disk: bool = False) -> None:
    """Reset the process-wide store (and optionally its disk files)."""
    global _default_store, _default_store_dir
    if _default_store is not None:
        _default_store.clear(disk=disk)
    _default_store = None
    _default_store_dir = None


def disable_default_result_store() -> None:
    """Turn the store off for the rest of this process.

    Pool workers call this once at start-up: the parent that dispatches
    a grid reads and writes the store for every cell
    (:func:`repro.sim.plan.run_jobs_cached`). It holds whatever a fork
    inherited (a :func:`use_result_store` override) and whatever
    ``REPRO_RESULT_CACHE`` says.
    """
    global _mode_override, _store_override
    _mode_override, _store_override = "off", _UNSET


@contextlib.contextmanager
def result_store_disabled() -> Iterator[None]:
    """Temporarily run with the result store off (always-simulate path)."""
    global _mode_override, _store_override
    previous_mode, previous_store = _mode_override, _store_override
    _mode_override, _store_override = "off", _UNSET
    try:
        yield
    finally:
        _mode_override, _store_override = previous_mode, previous_store


@contextlib.contextmanager
def use_result_store(
    store: Optional[ResultStore],
) -> Iterator[Optional[ResultStore]]:
    """Temporarily install a specific store instance as the default.

    Benchmarks and tests use this to measure or inspect an isolated
    store without touching the process-wide one (``None`` disables).
    """
    global _store_override
    previous = _store_override
    _store_override = store
    try:
        yield store
    finally:
        _store_override = previous
