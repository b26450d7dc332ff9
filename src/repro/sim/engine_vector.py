"""The vector engine backend: the run loop on the compiled columnar kernel.

:func:`run_trace_vector` lowers a run onto ``_vector_kernel.c`` when —
and only when — every piece of the configuration has a kernel-side
mirror. The whole paper grid qualifies: CAMEO's LLT storage designs
(co-located with its predictors, ideal, SRAM and embedded), the
no-stacked baseline, the Alloy Cache (and DoubleUse) with the MAP-I
predictor, and the TLM family (static/oracle steady state, dynamic
swap-on-touch migration, frequency counting with its epoch rebalance).
Anything else — the research extensions ``cameo-freq-hint`` and
``cameo-assoc`` among them — returns ``None`` and
:func:`repro.sim.engine.run_trace` falls back to the reference Python
loop. The two backends are *byte-identical* (the golden corpus and a
seeded differential test enforce it): the kernel shares the Python
objects' own columnar buffers (zero-copy via ctypes), performs the
identical sequence of float operations, and *bails back* to Python
for everything it does not model — the warmup barrier's stat reset,
progress heartbeats, a full posted heap or swap log, and two kinds
of page fault.

Page faults: with the L3 off and no free frame left — every fault after
pretouch has filled an over-committed memory — the kernel serves the
fault itself: the clock reclaim with its random probes (drawn from a
bit-exact mirror of the replacer's ``random.Random``), the SSD charge,
the remap, and the org's page drain and fill streams. A fault still
bails while a free frame remains (popping the free lists is Python's
job) or with the L3 on (a shootdown drain's writebacks may migrate pages
beyond the kernel's per-access headroom). Whether faults stay in C is
decided on every kernel entry; the RNG state crosses, through
``getstate``/``setstate``, only when the kernel took or used it.
Pretouch runs as one kernel call too (:func:`pretouch_vector`).

Stats discipline: counters are synced as *running values*, not deltas —
the kernel continues Python's accumulation in place (seeded on entry,
copied back on exit), so float accumulation order is exactly the
reference interpreter's. Timing state (bank/bus horizons, LLT, LLP and
MAP-I tables, L3 metadata, page reference/dirty bits, TLM placement
counters) needs no syncing at all: the kernel mutates the same memory
the objects wrap.

Traces: a replay source's :class:`~repro.workloads.replay.TraceColumns`
go to the kernel as they are — for cache-served sources, the trace
cache entry's own arrays, shared by every cell replaying that key, so a
warm cell copies no trace data. Only a live synthetic generator (trace
cache off) is materialized into columns here, once per run, by the
kernel's own generator (``SyntheticTraceGenerator.columns``). A trace
with a negative line or pc falls back: the kernel would index its
translation map and predictor tables with it.

Translation: the kernel translates through the page table itself.
:class:`~repro.vm.page_table.PageTable` keeps its mapping in the
kernel's layout (``fwd[asid * stride + vpage]`` = frame + 1, ``inv[frame]``
= key + 1), and a run reserves its whole footprint in it before handing
the kernel both columns, so neither is reallocated while the kernel
holds them. Swaps and fault mappings the kernel makes, and the ones a
fault bail makes on the Python side, land in the same two columns: there
is nothing to copy back or re-point. What the kernel cannot keep are the
Python-owned free lists. It logs the swaps that moved a page into a free
frame, replayed on exit by :meth:`MemoryManager.reconcile_external_log`,
and a fault it served (only ever in full memory) leaves both pools
empty (:meth:`MemoryManager.drain_free_pools`). In full memory neither
happens more than once, so a kernel exit costs Python O(1).
"""

from __future__ import annotations

import ctypes
import struct
from array import array
from typing import List, Optional, Sequence

from ..core.lead import LEAD_BYTES
from ..core.llp import LastLocationPredictor, PerfectPredictor, SamPredictor
from ..core.llt_designs import (
    CoLocatedLltCameo,
    EmbeddedLltCameo,
    IdealLltCameo,
    SramLltCameo,
)
from ..errors import SimulationError
from ..orgs.alloy import ALLOY_TAD_BYTES, AlloyCacheOrg, MapIPredictor
from ..orgs.baseline import NoStackedBaseline
from ..orgs.doubleuse import DoubleUse
from ..orgs.tlm import TlmStatic
from ..orgs.tlm_dynamic import TlmDynamic
from ..orgs.tlm_freq import TlmFreq
from ..orgs.tlm_oracle import TlmOracle
from ..request import MemoryRequest
from ..workloads.replay import ReplayTraceSource, TraceColumns
from ..workloads.synthetic import SyntheticTraceGenerator
from ._kernel_build import load_kernel

# -- Kernel ABI mirrors (must match _vector_kernel.c) ---------------------------

(
    RK_DONE,
    RK_FAULT,
    RK_BARRIER,
    RK_PROGRESS,
    RK_POSTED_FULL,
    RK_ERROR,
    RK_MAP_LOG,
) = range(7)

II_NUM_CONTEXTS = 0
II_N_ACCESSES = 1
II_WARMUP = 2
II_LINES_PER_PAGE = 3
II_VSTRIDE = 4
II_ORG_KIND = 5
II_SWAP_ON_WRITE = 6
II_PREDICTOR_KIND = 7
II_LLP_ENTRIES = 8
II_GROUP_BITS = 9
II_GROUP_MASK = 10
II_TOTAL_LINES = 11
II_GROUP_SIZE = 12
II_HAS_L3 = 13
II_L3_SETS = 14
II_L3_WAYS = 15
II_N_DEVICES = 16
II_DEMAND_DEV = 17
II_POSTED_CAP = 18
II_PROGRESS_EVERY = 19
II_SIZE0_BYTES = 20
II_SIZE1_BYTES = 21
II_SIZE2_BYTES = 22
II_DEV_GEOM = 23
II_NUM_SETS = 31
II_MAPI_ENTRIES = 32
II_MAPI_THRESHOLD = 33
II_MAPI_MAX = 34
II_STACKED_LINES = 35
II_STACKED_PAGES = 36
II_MIG_THRESHOLD = 37
II_EPOCH_ACCESSES = 38
II_MAP_LOG_CAP = 39
II_PHASE = 40
II_PENDING_CTX = 41
II_CONTEXTS_WARM = 42
II_WARMUP_DONE = 43
II_POSTED_LEN = 44
II_POST_SEQ = 45
II_PROGRESS_COUNT = 46
II_ERROR_CODE = 47
II_CLOCK_HAND = 48
II_EPOCH_COUNT = 49
II_MAP_LOG_LEN = 50
II_MAX_MIGRATIONS = 51
II_STAT_ORG = 52
II_STAT_CASE = 61
II_STAT_L3 = 66
II_STAT_VM = 69
II_STAT_ALLOY = 70
II_STAT_MAPI = 74
II_STAT_DEV = 76
II_LLT_DESIGN = 90
II_LLT_ENTRIES_PER_LINE = 91
II_FAULT_MODE = 92
II_N_FRAMES = 93
II_RANDOM_PROBES = 94
II_PAGE_BYTES = 95
II_VM_HAND = 96
II_RNG_USED = 97
II_STAT_FAULT = 98
II_STAT_SSD = 101
II_MIN_PROMOTE = 105
II_N_COUNTS = 106
II_CTX_BASE = 107

FF_L3_LATENCY = 0
FF_MLP = 1
FF_PENDING_NOW = 2
FF_HYSTERESIS = 3
FF_CYC = 4
FF_WBUF = 28
FF_DSTAT = 30
FF_LLT_LOOKUP = 34
FF_FAULT_LATENCY = 35
FF_CTX_BASE = 36

P_FWD = 0
P_INV = 1
P_PAGE_REF = 2
P_PAGE_DIRTY = 3
P_LLT_TABLE = 4
P_LLT_RESIDENT = 5
P_L3_VALID = 6
P_L3_DIRTY = 7
P_L3_TAGS = 8
P_L3_LRU = 9
P_POSTED = 10
P_MAP_LOG = 11
P_ORG_A = 12
P_ORG_B = 13
P_DEV = 14
P_RNG = 22
P_TRACE = 23

# rk_pretouch's own layout.
PT_N_CONTEXTS = 0
PT_VSTRIDE = 1
PT_N_FRAMES = 2
PT_RANDOM_PROBES = 3
PT_HAND = 4
PT_POOL_LEN = 5
PT_RNG_USED = 7
PT_FOOTPRINT = 8
PTP_FWD = 0
PTP_INV = 1
PTP_REF = 2
PTP_DIRTY = 3
PTP_RNG = 4
PTP_POOL = 5
PTP_FREE = 7
PTP_PREF = 8

#: One posted heap entry: time(f64), seq, n_ops, ops[4] — 56 bytes.
_ENTRY = struct.Struct("=dqqqqqq")
ENTRY_BYTES = _ENTRY.size

#: Swap-log capacity in entries (swaps into a free frame); the kernel
#: bails for a replay when it approaches this, so the value only tunes
#: bail frequency.
MAP_LOG_CAP = 4096

#: The kernel's MT19937 mirror draws ``randrange(n)`` for n < 2**32 only.
MAX_KERNEL_FRAMES = 2**32 - 1

#: Running-value stat field names, in kernel slot order.
_ORG_FIELDS = (
    "accesses", "reads", "writes", "stacked_services", "offchip_services",
    "line_swaps", "writeback_accesses", "writeback_stacked_services",
    "page_migrations",
)
_CASE_FIELDS = (
    "case1_stacked_correct", "case2_stacked_predicted_offchip",
    "case3_offchip_predicted_stacked", "case4_offchip_correct",
    "case5_offchip_wrong_slot",
)
_L3_FIELDS = ("accesses", "misses", "writebacks")
_ALLOY_FIELDS = ("hits", "misses", "fills", "dirty_victim_writebacks")
_DEV_INT_FIELDS = (
    "reads", "writes", "bytes_read", "bytes_written",
    "row_hits", "row_closed", "row_conflicts",
)
_FAULT_FIELDS = ("faults", "evictions", "dirty_evictions")
_SSD_FIELDS = ("page_reads", "page_writes", "bytes_read", "bytes_written")

#: Backend observability (tests assert engagement; ``run_job`` stamps
#: each cell's delta on its result; ops can see why a run fell back).
#: ``by_org`` maps the organization name to its own kernel_runs/
#: fallbacks tally so per-org engagement survives mixing.
backend_stats = {
    "kernel_runs": 0,
    "fallbacks": 0,
    "kernel_calls": 0,
    "bails": {
        "fault": 0, "barrier": 0, "progress": 0, "posted_full": 0,
        "map_log": 0,
    },
    "by_org": {},
    "last_fallback_reason": None,
}


def reset_backend_stats() -> None:
    backend_stats["kernel_runs"] = 0
    backend_stats["fallbacks"] = 0
    backend_stats["kernel_calls"] = 0
    backend_stats["bails"] = {
        "fault": 0, "barrier": 0, "progress": 0, "posted_full": 0,
        "map_log": 0,
    }
    backend_stats["by_org"] = {}
    backend_stats["last_fallback_reason"] = None


def _org_tally(org_name: str) -> dict:
    return backend_stats["by_org"].setdefault(
        org_name, {"kernel_runs": 0, "fallbacks": 0, "last_fallback_reason": None}
    )


def _fallback(reason: str, org_name: Optional[str] = None):
    backend_stats["fallbacks"] += 1
    backend_stats["last_fallback_reason"] = reason
    if org_name is not None:
        tally = _org_tally(org_name)
        tally["fallbacks"] += 1
        tally["last_fallback_reason"] = reason
    return None


#: The paper grid's organizations, every one with a kernel-side service
#: path. The engagement tests in ``test_engine_backends.py`` fail when
#: any paper-grid cell records a fallback, and assert that this roster
#: is exactly the grid's orgs — so ``cameo-sram-llt``, which lowers
#: through the Ideal-LLT design but is not a paper-grid org, is absent.
#: ``cameo-sam`` and ``cameo-perfect`` are the co-located design with
#: stock predictors. The research extensions ``cameo-freq-hint`` and
#: ``cameo-assoc`` are types the exact-type gate has never audited, and
#: fall back.
LOWERED_ORG_NAMES = (
    "baseline", "cameo", "cameo-sam", "cameo-perfect", "cameo-ideal-llt",
    "cameo-embedded-llt", "cache", "doubleuse",
    "tlm-static", "tlm-oracle", "tlm-dynamic", "tlm-freq",
)

#: The CAMEO LLT storage designs the kernel's CAMEO arm models, by exact
#: type (Figure 9): 0 co-located LEADs, 1 ideal (the SRAM strawman is
#: the ideal design plus a fixed lookup), 2 embedded in stacked DRAM.
_LLT_DESIGNS = {
    CoLocatedLltCameo: 0,
    IdealLltCameo: 1,
    SramLltCameo: 1,
    EmbeddedLltCameo: 2,
}


def snapshot_backend_stats() -> dict:
    """A deep copy of :data:`backend_stats`, for later delta-taking."""
    return {
        "kernel_runs": backend_stats["kernel_runs"],
        "fallbacks": backend_stats["fallbacks"],
        "kernel_calls": backend_stats["kernel_calls"],
        "bails": dict(backend_stats["bails"]),
        "by_org": {org: dict(t) for org, t in backend_stats["by_org"].items()},
    }


def backend_stats_since(before: dict) -> dict:
    """What :data:`backend_stats` accumulated since ``before``.

    The counters are process-local, so a subprocess worker's engagement
    is invisible to its parent. :func:`repro.sim.parallel.run_job`
    stamps this delta on the outgoing :class:`RunResult` envelope and
    the pool folds it back in with :func:`merge_backend_stats` — the
    fix for parallel grids silently reporting zero kernel runs.
    """
    fallbacks = backend_stats["fallbacks"] - before.get("fallbacks", 0)
    by_org = {}
    for org, tally in backend_stats["by_org"].items():
        prior = before.get("by_org", {}).get(org, {})
        delta = {
            "kernel_runs": tally["kernel_runs"] - prior.get("kernel_runs", 0),
            "fallbacks": tally["fallbacks"] - prior.get("fallbacks", 0),
            "last_fallback_reason": (
                tally["last_fallback_reason"]
                if tally["fallbacks"] > prior.get("fallbacks", 0)
                else None
            ),
        }
        if delta["kernel_runs"] or delta["fallbacks"]:
            by_org[org] = delta
    before_bails = before.get("bails", {})
    return {
        "kernel_runs": backend_stats["kernel_runs"] - before.get("kernel_runs", 0),
        "fallbacks": fallbacks,
        "kernel_calls": backend_stats["kernel_calls"] - before.get("kernel_calls", 0),
        "bails": {
            key: value - before_bails.get(key, 0)
            for key, value in backend_stats["bails"].items()
        },
        "by_org": by_org,
        "last_fallback_reason": (
            backend_stats["last_fallback_reason"] if fallbacks else None
        ),
    }


def merge_backend_stats(delta: dict) -> None:
    """Fold a worker's :func:`backend_stats_since` delta into this process."""
    backend_stats["kernel_runs"] += delta.get("kernel_runs", 0)
    backend_stats["fallbacks"] += delta.get("fallbacks", 0)
    backend_stats["kernel_calls"] += delta.get("kernel_calls", 0)
    bails = backend_stats["bails"]
    for key, value in delta.get("bails", {}).items():
        bails[key] = bails.get(key, 0) + value
    for org, per_org in delta.get("by_org", {}).items():
        tally = _org_tally(org)
        tally["kernel_runs"] += per_org.get("kernel_runs", 0)
        tally["fallbacks"] += per_org.get("fallbacks", 0)
        if per_org.get("last_fallback_reason") is not None:
            tally["last_fallback_reason"] = per_org["last_fallback_reason"]
    if delta.get("last_fallback_reason") is not None:
        backend_stats["last_fallback_reason"] = delta["last_fallback_reason"]


# -- Trace columns ----------------------------------------------------------------

def _columnar_trace(gen, n_accesses: int) -> TraceColumns:
    """The kernel's view of one source's trace.

    A replay source's columns are returned as they are — the trace
    cache's own arrays, shared by every cell replaying that key (the
    kernel wraps modulo their length, as ``generate`` does). Only a live
    synthetic generator, the trace-cache-off path, is materialized here,
    for exactly ``n_accesses`` records: ``generate`` seeds a fresh PRNG
    per call, so materializing is observationally pure.
    """
    if type(gen) is ReplayTraceSource:
        return gen.columns
    return gen.columns(n_accesses)


# -- Zero-copy buffer export ----------------------------------------------------

def _addr_of_bytes(buf: bytearray, keepalive: list) -> int:
    view = (ctypes.c_char * len(buf)).from_buffer(buf)
    keepalive.append(view)
    return ctypes.addressof(view)


def _addr_of_array(arr: array, keepalive: list) -> int:
    keepalive.append(arr)
    return arr.buffer_info()[0]


# -- Stats sync (running values, both directions) -------------------------------

def _sync_stats_in(I, F, org, l3, mm, devices, org_kind: int) -> None:
    s = org.stats
    for i, name in enumerate(_ORG_FIELDS):
        I[II_STAT_ORG + i] = getattr(s, name)
    if org_kind == 1:
        cs = org.case_stats
        for i, name in enumerate(_CASE_FIELDS):
            I[II_STAT_CASE + i] = getattr(cs, name)
    elif org_kind == 2:
        als = org.alloy_stats
        for i, name in enumerate(_ALLOY_FIELDS):
            I[II_STAT_ALLOY + i] = getattr(als, name)
        I[II_STAT_MAPI] = org.predictor.predictions
        I[II_STAT_MAPI + 1] = org.predictor.correct
    if l3 is not None:
        ls = l3.stats
        for i, name in enumerate(_L3_FIELDS):
            I[II_STAT_L3 + i] = getattr(ls, name)
    vs = mm.stats
    I[II_STAT_VM] = vs.translations
    for i, name in enumerate(_FAULT_FIELDS):
        I[II_STAT_FAULT + i] = getattr(vs, name)
    ss = mm.ssd.stats
    for i, name in enumerate(_SSD_FIELDS):
        I[II_STAT_SSD + i] = getattr(ss, name)
    for d, dev in enumerate(devices):
        ds = dev.stats
        base = II_STAT_DEV + d * 7
        for i, name in enumerate(_DEV_INT_FIELDS):
            I[base + i] = getattr(ds, name)
        F[FF_DSTAT + d * 2] = ds.queue_wait_cycles
        F[FF_DSTAT + d * 2 + 1] = ds.service_cycles


def _sync_stats_out(I, F, org, l3, mm, devices, org_kind: int) -> None:
    s = org.stats
    for i, name in enumerate(_ORG_FIELDS):
        setattr(s, name, I[II_STAT_ORG + i])
    if org_kind == 1:
        cs = org.case_stats
        for i, name in enumerate(_CASE_FIELDS):
            setattr(cs, name, I[II_STAT_CASE + i])
    elif org_kind == 2:
        als = org.alloy_stats
        for i, name in enumerate(_ALLOY_FIELDS):
            setattr(als, name, I[II_STAT_ALLOY + i])
        org.predictor.predictions = I[II_STAT_MAPI]
        org.predictor.correct = I[II_STAT_MAPI + 1]
    if l3 is not None:
        ls = l3.stats
        for i, name in enumerate(_L3_FIELDS):
            setattr(ls, name, I[II_STAT_L3 + i])
    vs = mm.stats
    vs.translations = I[II_STAT_VM]
    for i, name in enumerate(_FAULT_FIELDS):
        setattr(vs, name, I[II_STAT_FAULT + i])
    ss = mm.ssd.stats
    for i, name in enumerate(_SSD_FIELDS):
        setattr(ss, name, I[II_STAT_SSD + i])
    for d, dev in enumerate(devices):
        ds = dev.stats
        base = II_STAT_DEV + d * 7
        for i, name in enumerate(_DEV_INT_FIELDS):
            setattr(ds, name, I[base + i])
        ds.queue_wait_cycles = F[FF_DSTAT + d * 2]
        ds.service_cycles = F[FF_DSTAT + d * 2 + 1]


# -- Posted heap sync -----------------------------------------------------------
#
# Python's heapq array and the kernel's binary min-heap maintain the same
# invariant (parent <= children under the (time, seq) total order, seqs
# unique), so entries copy verbatim in array order in both directions —
# no re-heapification, and the pop order is the identical total order.
#
# Op encoding: line<<8 | stream<<4 | write<<3 | slot<<1 | dev. Three
# burst-size slots (line, LEAD, TAD); stream ops move lines_per_page
# whole lines (a page migration's four bulk transfers).

_SLOT_SIZES = (None, LEAD_BYTES, ALLOY_TAD_BYTES)  # slot 0 = line_bytes


def _encodable_posted(
    posted: list, dev_ids: dict, line_bytes: int, lines_per_page: int
) -> bool:
    for _, _, op in posted:
        if callable(op):
            return False
        if len(op) > 4:
            return False
        for entry in op:
            if len(entry) == 5:
                device, _, n_bytes, _, n_lines = entry
                if n_lines != lines_per_page or n_bytes != line_bytes:
                    return False
            else:
                device, _, n_bytes, _ = entry
                if n_bytes != line_bytes and n_bytes not in (
                    LEAD_BYTES, ALLOY_TAD_BYTES
                ):
                    return False
            if id(device) not in dev_ids:
                return False
    return True


def _encode_posted(posted: list, buf: bytearray, dev_ids: dict, line_bytes: int) -> None:
    for i, (time, seq, op) in enumerate(posted):
        packed = [0, 0, 0, 0]
        for k, entry in enumerate(op):
            if len(entry) == 5:
                device, line, _, is_write, _ = entry
                stream, slot = 1, 0
            else:
                device, line, n_bytes, is_write = entry
                stream = 0
                if n_bytes == line_bytes:
                    slot = 0
                elif n_bytes == LEAD_BYTES:
                    slot = 1
                else:
                    slot = 2
            packed[k] = (
                (line << 8)
                | (stream << 4)
                | (8 if is_write else 0)
                | (slot << 1)
                | dev_ids[id(device)]
            )
        _ENTRY.pack_into(buf, i * ENTRY_BYTES, float(time), seq, len(op), *packed)


def _decode_posted(
    buf: bytearray, n: int, devices, line_bytes: int, lines_per_page: int
) -> list:
    entries = []
    for i in range(n):
        time, seq, n_ops, o0, o1, o2, o3 = _ENTRY.unpack_from(buf, i * ENTRY_BYTES)
        ops = []
        for raw in (o0, o1, o2, o3)[:n_ops]:
            device = devices[raw & 1]
            line = raw >> 8
            is_write = bool(raw & 8)
            if raw & 16:
                ops.append((device, line, line_bytes, is_write, lines_per_page))
            else:
                slot = (raw >> 1) & 3
                n_bytes = line_bytes if slot == 0 else _SLOT_SIZES[slot]
                ops.append((device, line, n_bytes, is_write))
        entries.append((time, seq, tuple(ops)))
    return entries


# -- Pretouch ---------------------------------------------------------------------

def _preference_column(mm, org, n_contexts: int, vstride: int):
    """Per-key placement preferences for rk_pretouch, or False if unknown.

    None when there is no placement hook. TLM-Oracle's hook prefers
    stacked frames for its hot set and off-chip frames for the rest; any
    other hook is opaque to the kernel.
    """
    if mm.frame_preference is None:
        return None
    if type(org) is not TlmOracle or mm.frame_preference != org._prefer:
        return False
    column = bytearray(b"\x02") * (n_contexts * vstride)
    for asid, vpage in org.hot_vpages:
        if asid < n_contexts and 0 <= vpage < vstride:
            column[asid * vstride + vpage] = 1
    return column


def pretouch_vector(machine, footprints: Sequence[int]) -> bool:
    """Run :meth:`Machine.pretouch`'s translations in one kernel call.

    The kernel maps pages straight into the page table, after reserving
    every footprint page a slot in it. On return the page table, free
    lists, clock hand and RNG state are exactly what the python loop
    leaves. The VM and SSD counters are the caller's to reset, as
    pretouch always does. False, with no page mapped, when the kernel
    cannot mirror the pretouch.
    """
    lib = load_kernel()
    config = machine.config
    mm = machine.memory_manager
    table = mm.page_table
    n_contexts = config.num_contexts
    if lib is None or len(footprints) != n_contexts:
        return False
    if mm.num_frames > MAX_KERNEL_FRAMES or table.vbase:
        return False
    table.reserve(n_contexts, max(footprints))
    vstride = table.stride
    preference = _preference_column(mm, machine.org, n_contexts, vstride)
    if preference is False:
        return False

    keepalive: List = []
    replacer = mm.replacer
    free_set = mm._free_set
    n_frames = mm.num_frames
    # Each miss claims a free frame while one is left, so a footprint
    # that fits the free frames never reclaims, and the RNG stays put.
    rng_state = mt = None
    if sum(footprints) > len(free_set):
        rng_state = replacer._rng.getstate()
        mt = array("q", rng_state[1])
    pools = (mm._free_stacked, mm._free_offchip)
    pool_columns = [array("q", pool) for pool in pools]
    if len(free_set) == n_frames:
        free_flags = bytearray(b"\x01") * n_frames
    else:
        free_flags = bytearray(n_frames)
        for frame in free_set:
            free_flags[frame] = 1
    I = array("q", [
        n_contexts, vstride, n_frames, replacer.random_probes, replacer._hand,
        len(pools[0]), len(pools[1]), 0, *footprints,
    ])
    P = (ctypes.c_void_p * (PTP_PREF + 1))()
    P[PTP_FWD] = _addr_of_array(table.fwd, keepalive)
    P[PTP_INV] = _addr_of_array(table.inv, keepalive)
    P[PTP_REF] = _addr_of_bytes(table.referenced, keepalive)
    P[PTP_DIRTY] = _addr_of_bytes(table.dirty, keepalive)
    if mt is not None:
        P[PTP_RNG] = _addr_of_array(mt, keepalive)
    P[PTP_POOL] = _addr_of_array(pool_columns[0], keepalive)
    P[PTP_POOL + 1] = _addr_of_array(pool_columns[1], keepalive)
    P[PTP_FREE] = _addr_of_bytes(free_flags, keepalive)
    if preference is not None:
        P[PTP_PREF] = _addr_of_bytes(preference, keepalive)
    rc = lib.rk_pretouch(
        ctypes.cast(I.buffer_info()[0], ctypes.POINTER(ctypes.c_longlong)),
        ctypes.cast(P, ctypes.POINTER(ctypes.c_void_p)),
    )
    del keepalive
    if rc != RK_DONE:
        raise SimulationError(f"vector kernel pretouch failed (rc={rc})")

    replacer._hand = I[PT_HAND]
    if I[PT_RNG_USED]:
        replacer._rng.setstate((rng_state[0], tuple(mt), rng_state[2]))
    # Popping only shortens a pool. Every free frame sits in some pool,
    # so reclaim ran only once both were empty: the frames popped are
    # exactly the ones that left the free set.
    for pool, new_len in zip(pools, (I[PT_POOL_LEN], I[PT_POOL_LEN + 1])):
        free_set.difference_update(pool[new_len:])
        del pool[new_len:]
    return True


# -- The backend ----------------------------------------------------------------

def run_trace_vector(
    machine,
    generators: Sequence,
    spec,
    accesses_per_context: Optional[int] = None,
    instructions_per_event: Optional[float] = None,
    warmup_fraction: float = 0.25,
    pretouch: bool = True,
):
    """Run on the compiled kernel; None when the run is not lowerable.

    Mirrors :func:`repro.sim.engine._run_trace_python` exactly — see the
    module docstring for the equivalence contract. All lowerability
    checks happen *before* any machine state is touched, so a ``None``
    return leaves the caller free to run the python loop from scratch.
    """
    from . import engine as _engine  # runtime import; engine imports us lazily

    config = machine.config
    org = machine.org
    org_name = getattr(org, "name", type(org).__name__)
    workload_name, n_accesses, instr_per_event, warmup_accesses = (
        _engine._resolve_run_plan(
            machine, generators, spec, accesses_per_context,
            instructions_per_event, warmup_fraction,
        )
    )
    if n_accesses <= 0:
        return _fallback("non-positive accesses_per_context", org_name)

    lib = load_kernel()
    if lib is None:
        from ._kernel_build import load_error

        return _fallback(f"kernel unavailable: {load_error()}", org_name)

    # -- Lowerability ----------------------------------------------------------
    predictor_kind, llp_entries = 0, 1
    llt_design = _LLT_DESIGNS.get(type(org))
    if llt_design is not None:
        org_kind = 1
        if org.decommissioned or org.auditor is not None:
            return _fallback("cameo fault-recovery state active", org_name)
        if org.llt._suspect_groups:
            return _fallback("LLT has suspect groups", org_name)
        if org.space.group_size > 255:
            return _fallback("group size exceeds byte-wide LLT entries", org_name)
        if llt_design == 0:  # Only the co-located design consults a predictor.
            predictor = org.predictor
            if type(predictor) is SamPredictor:
                predictor_kind, llp_entries = 0, 1
            elif type(predictor) is LastLocationPredictor:
                predictor_kind, llp_entries = 1, predictor.entries
            elif type(predictor) is PerfectPredictor:
                predictor_kind, llp_entries = 2, 1
            else:
                return _fallback(
                    f"predictor {type(predictor).__name__} not lowerable", org_name
                )
        devices = [org.stacked, org.offchip]
        demand_dev = 0
    elif type(org) is NoStackedBaseline:
        org_kind = 0
        devices = [org.offchip]
        demand_dev = 0
    elif type(org) in (AlloyCacheOrg, DoubleUse):
        org_kind = 2
        if type(org.predictor) is not MapIPredictor:
            return _fallback(
                f"predictor {type(org.predictor).__name__} not lowerable", org_name
            )
        devices = [org.stacked, org.offchip]
        demand_dev = 1
    elif type(org) in (TlmStatic, TlmOracle):
        # Oracle placement only acts at fault time, which always bails, so
        # its steady state lowers exactly like static TLM.
        org_kind = 3
        devices = [org.stacked, org.offchip]
        demand_dev = 0
    elif type(org) is TlmDynamic:
        org_kind = 4
        devices = [org.stacked, org.offchip]
        demand_dev = 0
    elif type(org) is TlmFreq:
        org_kind = 5
        devices = [org.stacked, org.offchip]
        demand_dev = 0
    else:
        return _fallback(
            f"organization {type(org).__name__} not lowerable", org_name
        )
    if getattr(org, "fault_injector", None) is not None:
        return _fallback("fault injection active", org_name)

    for dev in devices:
        if dev.fault_injector is not None:
            return _fallback("device fault injection active", org_name)
        if dev._refresh_enabled:
            return _fallback("device refresh modelling active", org_name)
        if dev.line_bytes != config.line_bytes:
            return _fallback("device line size differs from system line size", org_name)

    l3 = machine.l3
    if l3 is not None and not l3._cache._flat_lru:
        return _fallback("L3 replacement policy not flat-LRU", org_name)

    trace_columns = []
    for gen in generators:
        if type(gen) is ReplayTraceSource:
            if not gen.allow_wrap and n_accesses > len(gen):
                return _fallback("replay trace exhausted (wrap disabled)", org_name)
        elif type(gen) is not SyntheticTraceGenerator:
            return _fallback(
                f"trace source {type(gen).__name__} not lowerable", org_name
            )
        columns = _columnar_trace(gen, n_accesses)
        if columns.min_line < 0 or columns.min_pc < 0:
            # The kernel indexes its translation map by page and its
            # predictor tables by pc; a negative one would read and write
            # outside them (caller-built replay records are not checked).
            return _fallback("trace holds a negative line or pc", org_name)
        trace_columns.append(columns)

    N = config.num_contexts
    lines_per_page = config.lines_per_page
    footprints = [gen.footprint_pages for gen in generators]
    mm = machine.memory_manager
    page_table = mm.page_table
    if page_table.vbase:
        # The kernel keys pages from 0; a python run mapped a negative one.
        return _fallback("page table holds a negative page", org_name)

    dev_ids = {id(dev): i for i, dev in enumerate(devices)}
    posted_list = _engine._acquire_posted_queue(org)
    if not _encodable_posted(posted_list, dev_ids, config.line_bytes, lines_per_page):
        return _fallback("pre-existing posted operations not encodable", org_name)

    backend_stats["kernel_runs"] += 1
    _org_tally(org_name)["kernel_runs"] += 1

    # Every page the run can translate — its footprint and its trace —
    # gets a slot now, so no mapping re-lays the table out (and moves
    # fwd) while the kernel holds it.
    page_table.reserve(N, max(
        max(columns.max_line for columns in trace_columns) // lines_per_page + 1,
        max(footprints),
    ))
    if pretouch:
        if pretouch_vector(machine, footprints):
            machine.reset_paging_stats()
        else:
            machine.pretouch(footprints, engine="python")

    # -- Columnar assembly -----------------------------------------------------
    keepalive: List = []
    I = array("q", bytes(8 * (II_CTX_BASE + 5 * N)))
    F = array("d", bytes(8 * (FF_CTX_BASE + 3 * N)))
    P = (ctypes.c_void_p * (P_TRACE + 4 * N))()

    I[II_NUM_CONTEXTS] = N
    I[II_N_ACCESSES] = n_accesses
    I[II_WARMUP] = warmup_accesses
    I[II_LINES_PER_PAGE] = lines_per_page
    I[II_VSTRIDE] = page_table.stride
    I[II_ORG_KIND] = org_kind
    I[II_SWAP_ON_WRITE] = 1 if getattr(org, "swap_on_write", False) else 0
    I[II_PREDICTOR_KIND] = predictor_kind
    I[II_LLP_ENTRIES] = llp_entries
    I[II_HAS_L3] = 0 if l3 is None else 1
    I[II_N_DEVICES] = len(devices)
    I[II_DEMAND_DEV] = demand_dev
    I[II_SIZE0_BYTES] = config.line_bytes
    I[II_SIZE1_BYTES] = LEAD_BYTES
    I[II_SIZE2_BYTES] = ALLOY_TAD_BYTES
    I[II_CONTEXTS_WARM] = 0 if warmup_accesses else N

    epoch_room = 0  # heap and log entries kept free for TLM-Freq epochs
    if org_kind == 1:
        I[II_GROUP_BITS] = org._group_bits
        I[II_GROUP_MASK] = org._group_mask
        I[II_TOTAL_LINES] = org._total_lines
        I[II_GROUP_SIZE] = org.space.group_size
        I[II_LLT_DESIGN] = llt_design
        if llt_design == 1:
            F[FF_LLT_LOOKUP] = org.LOOKUP_CYCLES
        elif llt_design == 2:
            I[II_STACKED_LINES] = config.stacked_lines
            I[II_LLT_ENTRIES_PER_LINE] = org.ENTRIES_PER_LINE
        P[P_LLT_TABLE] = _addr_of_bytes(org.llt._table, keepalive)
        P[P_LLT_RESIDENT] = _addr_of_bytes(org.llt._resident, keepalive)
        if predictor_kind == 1:
            for ctx, table in enumerate(predictor.columnar_tables(N)):
                P[P_TRACE + 3 * N + ctx] = _addr_of_bytes(table, keepalive)
    elif org_kind == 2:
        I[II_NUM_SETS] = org.num_sets
        I[II_MAPI_ENTRIES] = org.predictor.entries
        I[II_MAPI_THRESHOLD] = org.predictor.threshold
        I[II_MAPI_MAX] = org.predictor.max_value
        tags, dirty = org.columnar_state()
        P[P_ORG_A] = _addr_of_array(tags, keepalive)
        P[P_ORG_B] = _addr_of_bytes(dirty, keepalive)
        for ctx, table in enumerate(org.predictor.columnar_tables(N)):
            P[P_TRACE + 3 * N + ctx] = _addr_of_bytes(table, keepalive)
    elif org_kind >= 3:
        I[II_STACKED_LINES] = config.stacked_lines
        I[II_STACKED_PAGES] = config.stacked_pages
        if org_kind == 4:
            I[II_MIG_THRESHOLD] = org.migration_threshold
            referenced, touch_counts = org.columnar_state()
            P[P_ORG_A] = _addr_of_bytes(referenced, keepalive)
            P[P_ORG_B] = _addr_of_array(touch_counts, keepalive)
        elif org_kind == 5:
            I[II_EPOCH_ACCESSES] = org.epoch_accesses
            I[II_MAX_MIGRATIONS] = org.max_migrations_per_epoch
            I[II_MIN_PROMOTE] = org.min_promote_count
            F[FF_HYSTERESIS] = org.hysteresis
            (counts,) = org.columnar_state()
            I[II_N_COUNTS] = len(counts)
            P[P_ORG_A] = _addr_of_array(counts, keepalive)
            # The kernel's freq_candidates: pages one epoch may migrate.
            # Its hot and cold lists take twice that, and one access can
            # cross two epochs, each posting and logging that many.
            candidates = min(
                org.max_migrations_per_epoch, len(counts) - config.stacked_pages
            )
            scratch = array("q", bytes(16 * candidates))
            P[P_ORG_B] = _addr_of_array(scratch, keepalive)
            epoch_room = 2 * candidates

    if l3 is not None:
        cache = l3._cache
        I[II_L3_SETS] = cache.num_sets
        I[II_L3_WAYS] = cache.ways
        valid, dirty, tags, lru = cache.columnar_state()
        P[P_L3_VALID] = _addr_of_bytes(valid, keepalive)
        P[P_L3_DIRTY] = _addr_of_bytes(dirty, keepalive)
        P[P_L3_TAGS] = _addr_of_array(tags, keepalive)
        P[P_L3_LRU] = _addr_of_bytes(lru, keepalive)
        l3_latency = float(l3.latency_cycles)
    else:
        l3_latency = float(config.l3.latency_cycles)
    F[FF_L3_LATENCY] = l3_latency
    mlp = config.memory_level_parallelism
    F[FF_MLP] = mlp

    for d, dev in enumerate(devices):
        I[II_DEV_GEOM + d * 4] = dev._n_channels
        I[II_DEV_GEOM + d * 4 + 1] = dev._n_banks
        I[II_DEV_GEOM + d * 4 + 2] = dev.lines_per_row
        I[II_DEV_GEOM + d * 4 + 3] = dev._capacity_lines
        bank_open, bank_busy, bus_busy, write_debt = dev.columnar_state()
        P[P_DEV + d * 4] = _addr_of_array(bank_open, keepalive)
        P[P_DEV + d * 4 + 1] = _addr_of_array(bank_busy, keepalive)
        P[P_DEV + d * 4 + 2] = _addr_of_array(bus_busy, keepalive)
        P[P_DEV + d * 4 + 3] = _addr_of_array(write_debt, keepalive)
        for slot, n_bytes in enumerate(
            (config.line_bytes, LEAD_BYTES, ALLOY_TAD_BYTES)
        ):
            cyc = dev._cycles(n_bytes)
            for k in range(4):
                F[FF_CYC + d * 12 + slot * 4 + k] = cyc[k]
        F[FF_WBUF + d] = dev.write_buffer_cycles

    P[P_FWD] = _addr_of_array(page_table.fwd, keepalive)
    P[P_INV] = _addr_of_array(page_table.inv, keepalive)
    P[P_PAGE_REF] = _addr_of_bytes(page_table.referenced, keepalive)
    P[P_PAGE_DIRTY] = _addr_of_bytes(page_table.dirty, keepalive)

    map_log = array("q", bytes(16 * (MAP_LOG_CAP + epoch_room)))
    P[P_MAP_LOG] = _addr_of_array(map_log, keepalive)
    I[II_MAP_LOG_CAP] = MAP_LOG_CAP + epoch_room

    # In-kernel faults: the replacer's hand and RNG, and the SSD charge.
    replacer = mm.replacer
    rng = replacer._rng
    rng_state = None  # (getstate(), its words as P_RNG) while the kernel owns it
    can_fault = l3 is None and mm.num_frames <= MAX_KERNEL_FRAMES
    I[II_N_FRAMES] = mm.num_frames
    I[II_RANDOM_PROBES] = replacer.random_probes
    I[II_PAGE_BYTES] = mm.ssd.page_bytes
    F[FF_FAULT_LATENCY] = float(mm.ssd.fault_latency_cycles)

    for ctx, columns in enumerate(trace_columns):
        P[P_TRACE + ctx * 3] = _addr_of_array(columns.lines, keepalive)
        P[P_TRACE + ctx * 3 + 1] = _addr_of_array(columns.pcs, keepalive)
        P[P_TRACE + ctx * 3 + 2] = _addr_of_bytes(columns.writes, keepalive)
        I[II_CTX_BASE + 4 * N + ctx] = len(columns.lines)  # trace length
    for ctx in range(N):
        I[II_CTX_BASE + N + ctx] = 1  # active
        F[FF_CTX_BASE + 2 * N + ctx] = instr_per_event[ctx] * config.cpi_base

    posted_cap = max(256, 2 * len(posted_list) + 64) + epoch_room
    posted_buf = bytearray(posted_cap * ENTRY_BYTES)
    P[P_POSTED] = _addr_of_bytes(posted_buf, keepalive)
    I[II_POSTED_CAP] = posted_cap

    progress_hook = _engine._progress_hook
    I[II_PROGRESS_EVERY] = _engine._progress_every if progress_hook is not None else 0

    I_ptr = ctypes.cast(I.buffer_info()[0], ctypes.POINTER(ctypes.c_longlong))
    F_ptr = ctypes.cast(F.buffer_info()[0], ctypes.POINTER(ctypes.c_double))
    P_ptr = ctypes.cast(P, ctypes.POINTER(ctypes.c_void_p))
    keepalive.extend((I, F, P))

    measure_start = [0.0] * N
    work_per_event = [instr_per_event[c] * config.cpi_base for c in range(N)]

    def sync_in():
        nonlocal posted_cap, posted_buf, rng_state
        _sync_stats_in(I, F, org, l3, mm, devices, org_kind)
        # Faults stay in the kernel only in full memory (no free frame
        # left to pop).
        fault_mode = can_fault and not mm._free_set
        I[II_FAULT_MODE] = fault_mode
        I[II_VM_HAND] = replacer._hand
        if fault_mode and rng_state is None:
            state = rng.getstate()
            words = array("q", state[1])
            P[P_RNG] = _addr_of_array(words, keepalive)
            rng_state = (state, words)
        if org_kind == 4:
            I[II_CLOCK_HAND] = org._clock_hand
        elif org_kind == 5:
            I[II_EPOCH_COUNT] = org._accesses_in_epoch
        if len(posted_list) > posted_cap:
            while posted_cap < len(posted_list) + 8:
                posted_cap *= 2
            posted_buf = bytearray(posted_cap * ENTRY_BYTES)
            P[P_POSTED] = _addr_of_bytes(posted_buf, keepalive)
            I[II_POSTED_CAP] = posted_cap
        _encode_posted(posted_list, posted_buf, dev_ids, config.line_bytes)
        I[II_POSTED_LEN] = len(posted_list)
        I[II_POST_SEQ] = org._post_seq

    def sync_out():
        # Running values: the fault count moved iff the kernel served one.
        kernel_faulted = I[II_STAT_FAULT] != mm.stats.faults
        _sync_stats_out(I, F, org, l3, mm, devices, org_kind)
        posted_list[:] = _decode_posted(
            posted_buf, I[II_POSTED_LEN], devices, config.line_bytes, lines_per_page
        )
        org._post_seq = I[II_POST_SEQ]
        if org_kind == 4:
            org._clock_hand = I[II_CLOCK_HAND]
        elif org_kind == 5:
            org._accesses_in_epoch = I[II_EPOCH_COUNT]
        replacer._hand = I[II_VM_HAND]
        if I[II_RNG_USED]:
            state, words = rng_state
            rng.setstate((state[0], tuple(words), state[2]))
            I[II_RNG_USED] = 0
        # The kernel changed the shared page table in place; only the
        # free lists are Python's to bring up to date.
        n_logged = I[II_MAP_LOG_LEN]
        if n_logged:
            mm.reconcile_external_log(map_log, n_logged)
            I[II_MAP_LOG_LEN] = 0
        if kernel_faulted:
            mm.drain_free_pools()

    def run_faulted_access():
        """One access through the object API, from translation onward.

        The kernel has already selected the context, counted the access,
        fetched its record, and flushed due posted traffic; it bailed at
        the translation miss. This mirrors the python loop's body from
        ``mm.translate`` to the re-schedule; its mapping changes land in
        the page table the kernel translates through.
        """
        nonlocal rng_state
        rng_state = None  # A reclaim here draws from the Python RNG.
        ctx = I[II_PENDING_CTX]
        now = F[FF_PENDING_NOW]
        columns = trace_columns[ctx]
        idx = (I[II_CTX_BASE + ctx] - 1) % len(columns.lines)
        virtual_line = columns.lines[idx]
        pc = columns.pcs[idx]
        is_write = bool(columns.writes[idx])

        vpage, offset = divmod(virtual_line, lines_per_page)
        translation = mm.translate((ctx, vpage), is_write)
        stall = 0.0
        if translation.faulted:
            evicted = translation.evicted
            evicted_frame = translation.evicted_frame
            if l3 is not None and evicted_frame is not None:
                _engine._drain_evicted_frame(
                    l3, org, now, ctx, evicted_frame, lines_per_page
                )
            if evicted is not None and evicted[1]:
                org.page_drain(now, evicted_frame)
            org.page_fill(now, translation.frame)
            stall += translation.fault_latency

        line_addr = translation.frame * lines_per_page + offset
        go_to_memory = True
        if l3 is not None:
            l3_result = l3.access(line_addr, is_write)
            stall += l3_latency
            if l3_result.hit:
                go_to_memory = False
            elif l3_result.writeback_line is not None:
                org.access(
                    now,
                    MemoryRequest(
                        ctx, pc, l3_result.writeback_line, True, is_writeback=True
                    ),
                )
        else:
            stall += l3_latency
        if go_to_memory:
            result = org.access(
                now, MemoryRequest(ctx, pc, line_addr, is_write)
            )
            if not is_write:
                stall += result.latency / mlp
        F[FF_CTX_BASE + ctx] = now + work_per_event[ctx] + stall

    # -- Drive the kernel, handling bails --------------------------------------
    while True:
        sync_in()
        backend_stats["kernel_calls"] += 1
        rc = lib.rk_run(I_ptr, F_ptr, P_ptr)
        sync_out()
        if rc == RK_DONE:
            break
        if rc == RK_FAULT:
            backend_stats["bails"]["fault"] += 1
            run_faulted_access()
        elif rc == RK_BARRIER:
            backend_stats["bails"]["barrier"] += 1
            machine.reset_measurement_stats()
            measure_start = [F[FF_PENDING_NOW]] * N
        elif rc == RK_PROGRESS:
            backend_stats["bails"]["progress"] += 1
            if progress_hook is not None:
                progress_hook(I[II_PROGRESS_COUNT])
        elif rc == RK_POSTED_FULL:
            backend_stats["bails"]["posted_full"] += 1
            posted_cap *= 2
            posted_buf = bytearray(posted_cap * ENTRY_BYTES)
            P[P_POSTED] = _addr_of_bytes(posted_buf, keepalive)
            I[II_POSTED_CAP] = posted_cap
        elif rc == RK_MAP_LOG:
            # Swap-log headroom: sync_out already replayed and reset it.
            backend_stats["bails"]["map_log"] += 1
        else:
            raise SimulationError(
                f"vector kernel internal error (rc={rc}, "
                f"code={I[II_ERROR_CODE]})"
            )

    finish_times = [F[FF_CTX_BASE + N + c] for c in range(N)]
    del keepalive  # Release buffer exports before handing back the objects.
    return _engine.build_run_result(
        machine, workload_name, finish_times, measure_start,
        n_accesses, warmup_accesses, instr_per_event,
    )
