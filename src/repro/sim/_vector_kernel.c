/* The compiled columnar engine kernel (repro.sim.engine_vector).
 *
 * This file is compiled on demand by repro/sim/_kernel_build.py (plain
 * `cc -O2 -fPIC -shared -fno-fast-math -ffp-contract=off`) and driven
 * through ctypes.  It advances the trace-driven run loop of
 * repro/sim/engine.py over the *same* columnar state buffers the Python
 * object model wraps (DRAM bank/bus horizons, L3 metadata, LLT, LLP and
 * MAP-I tables, page reference/dirty bits, TLM placement counters),
 * executing the identical sequence of floating-point operations in the
 * identical order — the contract is byte-for-byte equivalence with the
 * pure-Python interpreter, enforced by the golden fixture corpus.
 *
 * Anything the kernel cannot reproduce exactly (the warmup barrier's
 * stat reset, the progress heartbeat, a full posted heap or swap
 * log, and the page faults it leaves to Python — see below) makes it
 * *bail*: it returns a reason code with resume state in the I/F scalar
 * buffers, engine_vector.py handles the event through the ordinary
 * object API, and re-enters.  The kernel therefore never approximates —
 * it only fast-forwards the regions of the run that are pure columnar
 * arithmetic.
 *
 * Page faults (II_FAULT_MODE): with the L3 off and no free frame left,
 * the kernel serves a fault itself — MemoryManager.translate's reclaim
 * (five random probes drawn from a bit-exact mirror of CPython's
 * MT19937, then the clock sweep), the SSD charge, the remap, and the
 * organization's page_drain/page_fill streams — in the page table's own
 * fwd/inv columns, which vm/page_table.py keeps in this layout for the
 * kernel to share.  Otherwise a fault bails: an L3 shootdown drain may
 * migrate pages beyond the per-access headroom below, and popping the
 * free lists is Python's.
 * rk_pretouch runs Machine.pretouch's translations in one call.
 *
 * Entry points:
 *   rk_abi_version   — the layout version, checked at load
 *   rk_run           — the run loop, until it finishes or bails
 *   rk_pretouch      — Machine.pretouch's translations
 *   rk_gen_synthetic — SyntheticTraceGenerator.generate, draw for draw
 *                      on the same MT19937 mirror, written straight
 *                      into TraceColumns arrays (the Python generator
 *                      stays the reference and the no-kernel path)
 *   rk_mt_randbelow  — test access to the MT19937 mirror
 *
 * Organization dispatch (II_ORG_KIND):
 *   0 NoStackedBaseline   — one off-chip line access
 *   1 CAMEO               — LLT lookup/swap; II_LLT_DESIGN picks where
 *                           the LLT lives (Figure 9, core/llt_designs.py):
 *                           0 CoLocatedLltCameo — LEAD probe + location
 *                             predictor;
 *                           1 IdealLltCameo/SramLltCameo — location known
 *                             after FF_LLT_LOOKUP cycles (reads only);
 *                           2 EmbeddedLltCameo — serial read of the
 *                             group's LLT line, posted LLT write per swap
 *   2 AlloyCacheOrg       — direct-mapped TAD probe + MAP-I predictor
 *                           (DoubleUse is this arm with a larger dev 1)
 *   3 TlmStatic/TlmOracle — region-split addressing, no migration
 *                           (oracle placement only picks among free
 *                           frames, and a fault with one free bails)
 *   4 TlmDynamic          — in-kernel swap-on-touch migration (a swap
 *                           into a free frame is logged for the free
 *                           lists Python keeps)
 *   5 TlmFreq             — in-kernel counting and epoch rebalance
 *                           (a mirror of TlmFreq.service_epoch)
 *
 * ABI: rk_abi_version() must match RK_ABI in _kernel_build.py; the
 * buffer layouts below must match the II_/FF_/P_ constants in
 * engine_vector.py.  Bump the ABI on any layout change.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef long long i64;
typedef unsigned char u8;

#define RK_ABI 6LL

/* Return codes (mirrored in engine_vector.py). */
#define RK_DONE 0
#define RK_FAULT 1
#define RK_BARRIER 2
#define RK_PROGRESS 3
#define RK_POSTED_FULL 4
#define RK_ERROR 5
#define RK_MAP_LOG 6  /* swap log near capacity: Python replays it */

/* Resume phases. */
#define PH_SELECT 0
#define PH_BEFORE 1      /* pending ctx chosen, access not yet counted */
#define PH_AFTER_FETCH 2 /* access counted + fetched, not yet processed */

/* I (int64) scalar layout. */
#define II_NUM_CONTEXTS 0
#define II_N_ACCESSES 1
#define II_WARMUP 2
#define II_LINES_PER_PAGE 3
#define II_VSTRIDE 4
#define II_ORG_KIND 5
#define II_SWAP_ON_WRITE 6
#define II_PREDICTOR_KIND 7 /* 0 sam, 1 last-location, 2 perfect */
#define II_LLP_ENTRIES 8
#define II_GROUP_BITS 9
#define II_GROUP_MASK 10
#define II_TOTAL_LINES 11
#define II_GROUP_SIZE 12
#define II_HAS_L3 13
#define II_L3_SETS 14
#define II_L3_WAYS 15
#define II_N_DEVICES 16
#define II_DEMAND_DEV 17
#define II_POSTED_CAP 18
#define II_PROGRESS_EVERY 19
#define II_SIZE0_BYTES 20
#define II_SIZE1_BYTES 21
#define II_SIZE2_BYTES 22
#define II_DEV_GEOM 23 /* +d*4: channels, banks, lines_per_row, capacity */
#define II_NUM_SETS 31       /* alloy: direct-mapped TAD sets */
#define II_MAPI_ENTRIES 32   /* MAP-I counter table entries */
#define II_MAPI_THRESHOLD 33 /* counter >= threshold predicts hit */
#define II_MAPI_MAX 34       /* saturating counter ceiling */
#define II_STACKED_LINES 35  /* tlm: region split; embedded LLT: table top */
#define II_STACKED_PAGES 36  /* tlm: stacked frame count */
#define II_MIG_THRESHOLD 37  /* tlm-dynamic: touches before migration */
#define II_EPOCH_ACCESSES 38 /* tlm-freq: epoch length */
#define II_MAP_LOG_CAP 39
#define II_PHASE 40
#define II_PENDING_CTX 41
#define II_CONTEXTS_WARM 42
#define II_WARMUP_DONE 43
#define II_POSTED_LEN 44
#define II_POST_SEQ 45
#define II_PROGRESS_COUNT 46
#define II_ERROR_CODE 47
#define II_CLOCK_HAND 48   /* tlm-dynamic sweep hand (running value) */
#define II_EPOCH_COUNT 49  /* tlm-freq accesses in epoch (running value) */
#define II_MAP_LOG_LEN 50  /* logged free-frame swaps awaiting replay */
#define II_MAX_MIGRATIONS 51 /* tlm-freq: migrations per epoch, at most */
#define II_STAT_ORG 52  /* acc, rd, wr, stacked, offchip, swaps, wb, wb_st, migr */
#define II_STAT_CASE 61 /* cases 1..5 */
#define II_STAT_L3 66   /* accesses, misses, writebacks */
#define II_STAT_VM 69   /* translations */
#define II_STAT_ALLOY 70 /* hits, misses, fills, dirty_victim_writebacks */
#define II_STAT_MAPI 74  /* predictions, correct */
#define II_STAT_DEV 76   /* +d*7: rd, wr, bytes_rd, bytes_wr, hit, closed, conf */
#define II_LLT_DESIGN 90  /* cameo: 0 co-located, 1 ideal/sram, 2 embedded */
#define II_LLT_ENTRIES_PER_LINE 91 /* embedded LLT: group entries per line */
#define II_FAULT_MODE 92 /* 1: serve faults here (L3 off, no free frame) */
#define II_N_FRAMES 93
#define II_RANDOM_PROBES 94
#define II_PAGE_BYTES 95
#define II_VM_HAND 96    /* ClockReplacer hand (running value) */
#define II_RNG_USED 97   /* set once the kernel draws from P_RNG */
#define II_STAT_FAULT 98 /* faults, evictions, dirty_evictions */
#define II_STAT_SSD 101  /* page_reads, page_writes, bytes_read, bytes_written */
#define II_MIN_PROMOTE 105 /* tlm-freq: count an off-chip frame needs to move */
#define II_N_COUNTS 106    /* tlm-freq: length of the counts column */
#define II_CTX_BASE 107  /* counts | active | parked | warmed | tr_len, each N */

/* F (double) scalar layout. */
#define FF_L3_LATENCY 0
#define FF_MLP 1
#define FF_PENDING_NOW 2
#define FF_HYSTERESIS 3 /* tlm-freq: hot must exceed hysteresis * cold */
#define FF_CYC 4 /* +d*12+slot*4: hit, closed, conflict, transfer */
#define FF_WBUF 28
#define FF_DSTAT 30 /* +d*2: queue_wait, service */
#define FF_LLT_LOOKUP 34 /* ideal/sram LLT: cycles before a read's access */
#define FF_FAULT_LATENCY 35 /* SSD cycles a fault stalls its context */
#define FF_CTX_BASE 36 /* next_time | finish | work_per_event, each N */

/* P (pointer) layout. */
#define P_FWD 0 /* PageTable.fwd: key -> frame + 1 (0: not resident) */
#define P_INV 1 /* PageTable.inv: frame -> key + 1 (0: a free frame) */
#define P_PAGE_REF 2
#define P_PAGE_DIRTY 3
#define P_LLT_TABLE 4
#define P_LLT_RESIDENT 5
#define P_L3_VALID 6
#define P_L3_DIRTY 7
#define P_L3_TAGS 8
#define P_L3_LRU 9
#define P_POSTED 10
#define P_MAP_LOG 11 /* i64 pairs (frame_a, frame_b): the swaps that moved
                      * a page into a free frame, in order */
#define P_ORG_A 12 /* alloy tags (i64) | tlm-dyn referenced (u8) | tlm-freq counts (i64) */
#define P_ORG_B 13 /* alloy dirty (u8) | tlm-dyn touch counts (i64) |
                    * tlm-freq epoch scratch (i64, 2 * freq_candidates) */
#define P_DEV 14   /* +d*4: bank_open(i64), bank_busy(f64), bus(f64), debt(f64) */
#define P_RNG 22   /* i64[625]: MT19937 words + index (random.getstate) */
#define P_TRACE 23 /* +c*3: vline(i64), pc(i64), is_write(u8) */
/* after traces: +c: per-context predictor table (u8) — LLP for cameo,
 * MAP-I for alloy — may be NULL */

/* One posted heap entry; ops pack
 * line<<8 | stream<<4 | write<<3 | slot<<1 | dev.
 * Stream ops move II_LINES_PER_PAGE whole lines starting at line. */
typedef struct {
    double time;
    i64 seq;
    i64 n_ops;
    i64 ops[4];
} PostedEntry;

/* A divisor the hot path uses, prepared once per kernel entry: a shift
 * and a mask when it is a power of two, / and % otherwise.  The shift
 * and mask agree with / and % only for a non-negative dividend, and
 * every dividend here is one: lowering refuses a trace with a negative
 * line or pc, so the virtual lines, pcs, frames and physical lines the
 * kernel divides are never negative, and dev_access and
 * dev_speculative bounds-check a device line before they divide it. */
typedef struct {
    i64 v;
    i64 mask; /* v - 1 for a power of two, else -1 */
    int shift;
} Div;

static Div div_of(i64 v) {
    Div d = {v, -1, 0};
    if (v > 0 && (v & (v - 1)) == 0) {
        d.mask = v - 1;
        while (((i64)1 << d.shift) != v) d.shift++;
    }
    return d;
}

static inline i64 div_q(const Div *d, i64 x) {
    return d->mask >= 0 ? x >> d->shift : x / d->v;
}

static inline i64 div_r(const Div *d, i64 x) {
    return d->mask >= 0 ? x & d->mask : x % d->v;
}

typedef struct {
    Div channels;
    Div banks;
    Div row_lines; /* lines per row */
    i64 capacity_lines;
    i64 *bank_open;
    double *bank_busy;
    double *bus;
    double *debt;
    double cyc[3][4]; /* [size slot][hit, closed, conflict, transfer] */
    double wbuf_cycles;
    i64 size_bytes[3];
    i64 *si;    /* rd, wr, bytes_rd, bytes_wr, hit, closed, conf */
    double *qw; /* queue_wait_cycles (running value) */
    double *sv; /* service_cycles (running value) */
} Dev;

/* The page-table side of MemoryManager: the page table's fwd/inv
 * columns and the frames' referenced/dirty columns, and ClockReplacer's
 * hand and RNG. */
typedef struct {
    i64 *fwd;
    i64 *inv;
    u8 *ref;
    u8 *dirty;
    i64 *mt; /* MT19937 words [0, 624) + next index at [624] */
    i64 n_frames;
    i64 probes;
    i64 *hand;
    i64 *rng_used;
} Vm;

typedef struct {
    i64 *I;
    double *F;
    void **P;
    i64 N;
    Vm vm;
    Dev dev[2];
    i64 n_dev;
    PostedEntry *heap;
    i64 posted_cap;
    u8 *llt_table;
    u8 *llt_resident;
    i64 *fwd;
    i64 *inv;
    u8 *page_ref;
    u8 *page_dirty;
    u8 *l3_valid;
    u8 *l3_dirty;
    i64 *l3_tags;
    u8 *l3_lru;
    i64 *map_log;
    i64 *alloy_tags;  /* P_ORG_A when kind == 2 */
    u8 *alloy_dirty;  /* P_ORG_B when kind == 2 */
    u8 *dyn_ref;      /* P_ORG_A when kind == 4 */
    i64 *dyn_touch;   /* P_ORG_B when kind == 4 */
    i64 *freq_counts; /* P_ORG_A when kind == 5 */
    i64 *freq_scratch; /* P_ORG_B when kind == 5 */
    Div page_lines;   /* lines per page */
    Div l3_sets;
    Div llp_entries;
    Div mapi_entries;
    Div alloy_sets;
    Div llt_per_line; /* embedded LLT: group entries per line */
    int error;
} St;

i64 rk_abi_version(void) { return RK_ABI; }

/* -- random.Random mirror (CPython's _randommodule.c genrand_uint32) ------ */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

static uint32_t mt_twist(uint32_t a, uint32_t b, uint32_t m) {
    uint32_t y = (a & MT_UPPER) | (b & MT_LOWER);
    return m ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
}

static uint32_t mt_genrand(i64 *mt) {
    i64 idx = mt[MT_N];
    if (idx >= MT_N) { /* generate N words at one time */
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++)
            mt[kk] = mt_twist((uint32_t)mt[kk], (uint32_t)mt[kk + 1],
                              (uint32_t)mt[kk + MT_M]);
        for (; kk < MT_N - 1; kk++)
            mt[kk] = mt_twist((uint32_t)mt[kk], (uint32_t)mt[kk + 1],
                              (uint32_t)mt[kk + (MT_M - MT_N)]);
        mt[MT_N - 1] = mt_twist((uint32_t)mt[MT_N - 1], (uint32_t)mt[0],
                                (uint32_t)mt[MT_M - 1]);
        idx = 0;
    }
    uint32_t y = (uint32_t)mt[idx];
    mt[MT_N] = idx + 1;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* The widest range mt_randbelow draws from: wider ones draw more words. */
#define RANGE_MAX 0xffffffffLL

/* random.randrange(n), 1 <= n < 2**32: _randbelow_with_getrandbits, with
 * getrandbits(k) for k <= 32 being genrand_uint32() >> (32 - k). */
static i64 mt_randbelow(i64 *mt, i64 n) {
    int k = 0;
    for (i64 v = n; v; v >>= 1) k++;
    uint32_t r = mt_genrand(mt) >> (32 - k);
    while ((i64)r >= n) r = mt_genrand(mt) >> (32 - k);
    return (i64)r;
}

/* random.random(): 53 bits from two words, the first one high. */
static double mt_random(i64 *mt) {
    uint32_t a = mt_genrand(mt) >> 5, b = mt_genrand(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Test entry: ``count`` draws of randrange(n) into out, advancing mt. */
i64 rk_mt_randbelow(i64 *mt, i64 n, i64 count, i64 *out) {
    if (n < 1 || n > RANGE_MAX) return RK_ERROR;
    for (i64 i = 0; i < count; i++) out[i] = mt_randbelow(mt, n);
    return RK_DONE;
}

/* -- Frame reclaim and mapping (mirror of MemoryManager/ClockReplacer) ---- */

/* ClockReplacer.select_victim: a frame is free iff inv holds no key. */
static i64 vm_select_victim(Vm *vm) {
    i64 n = vm->n_frames;
    if (vm->probes > 0) *vm->rng_used = 1;
    for (i64 p = 0; p < vm->probes; p++) {
        i64 probe = mt_randbelow(vm->mt, n);
        if (!vm->inv[probe]) return probe;
    }
    /* The hand stays in [0, n): each step is a compare-and-wrap. */
    i64 hand = *vm->hand;
    for (i64 k = 0; k < 2 * n; k++) {
        i64 frame = hand;
        hand = hand + 1 == n ? 0 : hand + 1;
        if (!vm->inv[frame] || !vm->ref[frame]) {
            *vm->hand = hand;
            return frame;
        }
        vm->ref[frame] = 0;
    }
    *vm->hand = hand + 1 == n ? 0 : hand + 1;
    return hand;
}

/* Evict frame's page (if any) and map key there: the inlined unmap of
 * MemoryManager.translate, then PageTable.map + touch.  Returns the
 * evicted page's key + 1, or 0 when the frame was free. */
static i64 vm_remap(Vm *vm, i64 frame, i64 key, i64 is_write) {
    i64 victim = vm->inv[frame];
    if (victim) vm->fwd[victim - 1] = 0;
    vm->fwd[key] = frame + 1;
    vm->inv[frame] = key + 1;
    vm->ref[frame] = 1;
    vm->dirty[frame] = is_write ? 1 : 0;
    return victim;
}

/* MemoryManager._pop_free's inner loop over one pool: pop until a frame
 * still in the free set turns up (entries a swap made stale are skipped). */
static i64 pool_pop(i64 *pool, i64 *len, u8 *free_flags) {
    while (*len > 0) {
        i64 frame = pool[--(*len)];
        if (free_flags[frame]) {
            free_flags[frame] = 0;
            return frame;
        }
    }
    return -1;
}

/* rk_pretouch I layout. */
#define PT_N_CONTEXTS 0
#define PT_VSTRIDE 1
#define PT_N_FRAMES 2
#define PT_RANDOM_PROBES 3
#define PT_HAND 4     /* ClockReplacer hand, in and out */
#define PT_POOL_LEN 5 /* +0 stacked, +1 off-chip pool length, in and out */
#define PT_RNG_USED 7 /* out: the reclaim drew from the RNG */
#define PT_FOOTPRINT 8 /* +ctx: footprint pages */

/* rk_pretouch P layout. */
#define PTP_FWD 0
#define PTP_INV 1
#define PTP_REF 2
#define PTP_DIRTY 3
#define PTP_RNG 4  /* NULL when the footprint fits the free frames */
#define PTP_POOL 5 /* +0 stacked, +1 off-chip: i64 frame lists */
#define PTP_FREE 7 /* u8 per frame: 1 while in the free set */
#define PTP_PREF 8 /* u8 per key: 0 none, 1 stacked, 2 off-chip; may be NULL */

/* Machine.pretouch: translate every footprint page, high pages first,
 * contexts interleaved.  Misses pop the free lists (_pop_free: the
 * preferred pool first, else the fuller one, stacked on a tie) and
 * reclaim once both are empty.  Counters are not kept: pretouch resets
 * them.  Returns RK_DONE, or RK_ERROR for a reclaim without an RNG. */
i64 rk_pretouch(i64 *I, void **P) {
    Vm vm;
    vm.fwd = (i64 *)P[PTP_FWD];
    vm.inv = (i64 *)P[PTP_INV];
    vm.ref = (u8 *)P[PTP_REF];
    vm.dirty = (u8 *)P[PTP_DIRTY];
    vm.mt = (i64 *)P[PTP_RNG];
    vm.n_frames = I[PT_N_FRAMES];
    vm.probes = I[PT_RANDOM_PROBES];
    vm.hand = &I[PT_HAND];
    vm.rng_used = &I[PT_RNG_USED];
    i64 *pools[2] = {(i64 *)P[PTP_POOL], (i64 *)P[PTP_POOL + 1]};
    i64 *lens = &I[PT_POOL_LEN];
    u8 *free_flags = (u8 *)P[PTP_FREE];
    const u8 *pref = (const u8 *)P[PTP_PREF];
    const i64 N = I[PT_N_CONTEXTS];
    const i64 vstride = I[PT_VSTRIDE];
    const i64 *footprint = &I[PT_FOOTPRINT];

    i64 top = 0;
    for (i64 c = 0; c < N; c++)
        if (footprint[c] > top) top = footprint[c];
    for (i64 vpage = top - 1; vpage >= 0; vpage--) {
        for (i64 c = 0; c < N; c++) {
            if (vpage >= footprint[c]) continue;
            i64 key = c * vstride + vpage;
            i64 f = vm.fwd[key];
            if (f) {
                vm.ref[f - 1] = 1;
                continue;
            }
            i64 p = pref ? pref[key] : 0;
            i64 first = (p == 2 || (p == 0 && lens[1] > lens[0])) ? 1 : 0;
            i64 frame = pool_pop(pools[first], &lens[first], free_flags);
            if (frame < 0)
                frame = pool_pop(pools[1 - first], &lens[1 - first], free_flags);
            if (frame < 0) {
                if (!vm.mt) return RK_ERROR;
                frame = vm_select_victim(&vm);
                free_flags[frame] = 0;
            }
            vm_remap(&vm, frame, key, 0);
        }
    }
    return RK_DONE;
}

/* -- Synthetic traces (mirror of SyntheticTraceGenerator.generate) ------- */

/* rk_gen_synthetic G (int64) layout. */
#define G_N 0
#define G_LINES_PER_PAGE 1
#define G_STRIDE 2 /* used offsets are 0, stride, 2 * stride, ... */
#define G_N_USED 3
#define G_HOT_PAGES 4
#define G_FOOTPRINT_PAGES 5
#define G_BURST 6
#define G_PC_BASE 7
#define G_POOL_HOT 8 /* +0 hot, +1 stream, +2 random: PC pools, back to back */
#define G_MAX_LINE 11 /* out: max line, min line, min pc */

/* rk_gen_synthetic GF (double) layout. */
#define GF_P_HOT 0
#define GF_P_STREAM_CUM 1 /* p_hot + stream_prob, summed by Python */
#define GF_WRITE_FRACTION 2
#define GF_HOT_SKEW 3

/* One component's page burst: generate's [page, pc, remaining, offset_idx]. */
typedef struct {
    i64 page;
    i64 pc;
    i64 remaining;
    i64 idx;
} Burst;

/* The burst's next line offset, walking its page's used lines in order. */
static i64 burst_step(Burst *b, i64 stride, i64 n_used) {
    b->remaining--;
    i64 offset = b->idx * stride;
    b->idx = (b->idx + 1) % n_used;
    return offset;
}

/* generate(G_N) into lines/pcs/writes, drawing from mt (random.getstate
 * words of Random(seed)) in generate's order.  Returns RK_ERROR, writing
 * nothing, for knobs generate would raise on or a range mt_randbelow does
 * not mirror; the caller then runs generate itself. */
i64 rk_gen_synthetic(i64 *G, const double *GF, i64 *mt, i64 *lines, i64 *pcs,
                     u8 *writes) {
    const i64 n = G[G_N], per_page = G[G_LINES_PER_PAGE];
    const i64 stride = G[G_STRIDE], n_used = G[G_N_USED];
    const i64 hot_pages = G[G_HOT_PAGES], footprint = G[G_FOOTPRINT_PAGES];
    const i64 burst = G[G_BURST];
    const i64 n_hot = G[G_POOL_HOT], n_stream = G[G_POOL_HOT + 1];
    const i64 n_random = G[G_POOL_HOT + 2];
    const double p_hot = GF[GF_P_HOT], p_stream_cum = GF[GF_P_STREAM_CUM];
    const double write_fraction = GF[GF_WRITE_FRACTION];
    const double skew = GF[GF_HOT_SKEW];
    /* A finite skew > 0 keeps u**skew in [0, 1], so the page cast is
     * defined; the bounds keep every line and pc below 2**63. */
    if (n < 1 || per_page < 1 || per_page > 0x7fffffffLL || stride < 1 ||
        stride > per_page || n_used < 1 || n_used > per_page || hot_pages < 1 ||
        hot_pages > footprint || footprint > RANGE_MAX || burst < 1 ||
        burst > RANGE_MAX / 2 || n_hot < 1 || n_hot > RANGE_MAX ||
        n_stream < 1 || n_stream > RANGE_MAX || n_random < 1 ||
        n_random > RANGE_MAX || !(skew > 0.0 && skew <= DBL_MAX))
        return RK_ERROR;
    const i64 pc_hot = G[G_PC_BASE];
    const i64 pc_stream = pc_hot + 4 * n_hot;
    const i64 pc_random = pc_stream + 4 * n_stream;
    Burst hot = {0, pc_hot, 0, 0}, rnd = {0, pc_random, 0, 0};
    i64 stream_page = 0, stream_idx = 0;
    i64 max_line = INT64_MIN, min_line = INT64_MAX, min_pc = INT64_MAX;

    for (i64 i = 0; i < n; i++) {
        double draw = mt_random(mt);
        i64 page, pc, offset;
        if (draw < p_hot) {
            if (hot.remaining <= 0) {
                /* int(hot_pages * rng.random() ** hot_skew): float ** is
                 * libm pow for a base in [0, 1) and a finite exponent. */
                hot.page = (i64)((double)hot_pages * pow(mt_random(mt), skew));
                hot.pc = pc_hot + 4 * (hot.page % n_hot);
                hot.remaining = 1 + mt_randbelow(mt, 2 * burst - 1);
                hot.idx = mt_randbelow(mt, n_used);
            }
            offset = burst_step(&hot, stride, n_used);
            page = hot.page;
            pc = hot.pc;
        } else if (draw < p_stream_cum) {
            offset = stream_idx * stride;
            page = stream_page;
            pc = pc_stream + 4 * mt_randbelow(mt, n_stream);
            if (++stream_idx >= n_used) {
                stream_idx = 0;
                if (++stream_page >= footprint) stream_page = 0;
            }
        } else {
            if (rnd.remaining <= 0) {
                if (footprint > hot_pages)
                    rnd.page = hot_pages + mt_randbelow(mt, footprint - hot_pages);
                else
                    rnd.page = mt_randbelow(mt, footprint);
                rnd.pc = pc_random + 4 * (rnd.page % n_random);
                rnd.remaining = 1 + mt_randbelow(mt, 2 * burst - 1);
                rnd.idx = mt_randbelow(mt, n_used);
            }
            offset = burst_step(&rnd, stride, n_used);
            page = rnd.page;
            pc = rnd.pc;
        }
        i64 line = page * per_page + offset;
        lines[i] = line;
        pcs[i] = pc;
        writes[i] = mt_random(mt) < write_fraction;
        if (line > max_line) max_line = line;
        if (line < min_line) min_line = line;
        if (pc < min_pc) min_pc = pc;
    }
    G[G_MAX_LINE] = max_line;
    G[G_MAX_LINE + 1] = min_line;
    G[G_MAX_LINE + 2] = min_pc;
    return RK_DONE;
}

/* -- DRAM device timing (mirror of DramDevice._timed_access) ------------- */

static double dev_access(St *st, i64 d, double now, i64 line, i64 slot,
                         i64 is_write) {
    Dev *dv = &st->dev[d];
    if (line < 0 || line >= dv->capacity_lines) {
        st->error = 1;
        return 0.0;
    }
    i64 ch = div_r(&dv->channels, line);
    i64 row = div_q(&dv->row_lines, div_q(&dv->channels, line));
    i64 flat = ch * dv->banks.v + div_r(&dv->banks, row);

    /* The row-buffer outcome as an index, not a branch: 0 hit, 1 closed
     * (no open row, -1), 2 conflict, the order of cyc[slot] and of the
     * row_hits, row_closed, row_conflicts counters.  row is never -1
     * (line was bounds-checked non-negative), so a closed bank is never
     * a hit. */
    i64 open_row = dv->bank_open[flat];
    i64 kind = (open_row != row) * (2 - (open_row == -1));
    double core = dv->cyc[slot][kind];
    double transfer = dv->cyc[slot][3];
    dv->si[4 + kind] += 1;

    if (is_write) {
        double busy = dv->bus[ch];
        double debt = dv->debt[ch];
        if (debt > 0.0 && now > busy) {
            double gap = now - busy;
            double drained = debt <= gap ? debt : gap;
            busy += drained;
            debt -= drained;
        }
        debt += transfer;
        double overflow = debt - dv->wbuf_cycles;
        if (overflow > 0.0) {
            busy = (busy >= now ? busy : now) + overflow;
            debt = dv->wbuf_cycles;
        }
        dv->bus[ch] = busy;
        dv->debt[ch] = debt;
        dv->bank_open[flat] = row;
        dv->si[1] += 1;                    /* writes */
        dv->si[3] += dv->size_bytes[slot]; /* bytes_written */
        *dv->sv += core;
        return core;
    }

    double bank_free = dv->bank_busy[flat];
    double start = now > bank_free ? now : bank_free;
    double data_ready = start + (core - transfer);
    double busy = dv->bus[ch];
    double debt = dv->debt[ch];
    if (debt > 0.0 && data_ready > busy) {
        double gap = data_ready - busy;
        double drained = debt <= gap ? debt : gap;
        busy += drained;
        dv->debt[ch] = debt - drained;
    }
    double bus_start = data_ready >= busy ? data_ready : busy;
    dv->bus[ch] = bus_start + transfer;
    double finish = bus_start + transfer;
    dv->bank_open[flat] = row;
    if (finish > dv->bank_busy[flat]) dv->bank_busy[flat] = finish;
    dv->si[0] += 1;                    /* reads */
    dv->si[2] += dv->size_bytes[slot]; /* bytes_read */
    *dv->qw += start - now;
    *dv->sv += finish - start;
    return finish - now;
}

/* Mirror of DramDevice.speculative_access (bus transfer only). */
static void dev_speculative(St *st, i64 d, double now, i64 line, i64 slot) {
    Dev *dv = &st->dev[d];
    if (line < 0 || line >= dv->capacity_lines) {
        st->error = 1;
        return;
    }
    double transfer = dv->cyc[slot][3];
    i64 ch = div_r(&dv->channels, line);
    double busy = dv->bus[ch];
    double debt = dv->debt[ch];
    if (debt > 0.0 && now > busy) {
        double gap = now - busy;
        double drained = debt <= gap ? debt : gap;
        busy += drained;
        dv->debt[ch] = debt - drained;
    }
    double start = now >= busy ? now : busy;
    dv->bus[ch] = start + transfer;
    dv->si[0] += 1;
    dv->si[2] += dv->size_bytes[slot];
    *dv->sv += transfer;
}

/* Mirror of DramDevice.stream: bulk-transfer n_lines consecutive lines,
 * spread round-robin over the channels; each channel's bus is
 * hard-reserved for its share.  Per-line bank state is not updated. */
static double dev_stream(St *st, i64 d, double now, i64 first_line,
                         i64 n_lines, i64 is_write) {
    Dev *dv = &st->dev[d];
    i64 n_channels = dv->channels.v;
    i64 base_share = div_q(&dv->channels, n_lines);
    i64 extra = div_r(&dv->channels, n_lines);
    double transfer = dv->cyc[0][3];
    double activation = dv->cyc[0][1] - transfer;
    double finish_max = now;
    i64 total_rows = 0;
    /* n_lines >= 1, so every offset below the bound gets a share of at
     * least one line; the channel steps round-robin from first_line's. */
    i64 bound = n_channels <= n_lines ? n_channels : n_lines;
    i64 ch = div_r(&dv->channels, first_line);
    for (i64 offset = 0; offset < bound; offset++) {
        i64 share = base_share + (offset < extra ? 1 : 0);
        i64 rows = div_q(&dv->row_lines, share + dv->row_lines.v - 1);
        total_rows += rows;
        double duration = (double)share * transfer + (double)rows * activation;
        /* Channel.reserve_bus: drain write debt into the idle gap, then
         * hard-reserve the bus horizon. */
        double busy = dv->bus[ch];
        double debt = dv->debt[ch];
        if (debt > 0.0 && now > busy) {
            double gap = now - busy;
            double drained = debt <= gap ? debt : gap;
            busy += drained;
            dv->debt[ch] = debt - drained;
        }
        double start = now >= busy ? now : busy;
        dv->bus[ch] = start + duration;
        double fin = start + duration;
        if (fin > finish_max) finish_max = fin;
        ch = ch + 1 == n_channels ? 0 : ch + 1;
    }
    i64 n_bytes = n_lines * dv->size_bytes[0];
    if (is_write) {
        dv->si[1] += n_lines;
        dv->si[3] += n_bytes;
    } else {
        dv->si[0] += n_lines;
        dv->si[2] += n_bytes;
    }
    dv->si[5] += total_rows;           /* row_closed */
    dv->si[4] += n_lines - total_rows; /* row_hits */
    *dv->sv += finish_max - now;
    return finish_max - now;
}

/* -- Posted heap: binary min-heap on (time, seq), == heapq ---------------- */

static int posted_less(const PostedEntry *a, const PostedEntry *b) {
    if (a->time != b->time) return a->time < b->time;
    return a->seq < b->seq;
}

static void posted_push(St *st, double time, i64 n_ops, const i64 *ops) {
    i64 *len = &st->I[II_POSTED_LEN];
    PostedEntry *h = st->heap;
    i64 i = (*len)++;
    PostedEntry e;
    e.time = time;
    e.seq = ++st->I[II_POST_SEQ];
    e.n_ops = n_ops;
    memset(e.ops, 0, sizeof(e.ops));
    for (i64 k = 0; k < n_ops; k++) e.ops[k] = ops[k];
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (!posted_less(&e, &h[parent])) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
}

static void posted_pop(St *st, PostedEntry *out) {
    i64 *len = &st->I[II_POSTED_LEN];
    PostedEntry *h = st->heap;
    *out = h[0];
    PostedEntry last = h[--(*len)];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1, r = l + 1, small = i;
        PostedEntry *cand = &last;
        if (l < *len && posted_less(&h[l], cand)) {
            small = l;
            cand = &h[l];
        }
        if (r < *len && posted_less(&h[r], cand)) {
            small = r;
        }
        if (small == i) break;
        h[i] = h[small];
        i = small;
    }
    h[i] = last;
}

static i64 pack_op(i64 dev, i64 slot, i64 is_write, i64 stream, i64 line) {
    return (line << 8) | (stream << 4) | (is_write << 3) | (slot << 1) | dev;
}

static void flush_posted(St *st, double now) {
    PostedEntry e;
    while (st->I[II_POSTED_LEN] > 0 && st->heap[0].time <= now) {
        posted_pop(st, &e);
        for (i64 k = 0; k < e.n_ops; k++) {
            i64 op = e.ops[k];
            i64 d = op & 1;
            i64 line = op >> 8;
            i64 w = (op >> 3) & 1;
            if (op & 16)
                dev_stream(st, d, e.time, line, st->I[II_LINES_PER_PAGE], w);
            else
                dev_access(st, d, e.time, line, (op >> 1) & 3, w);
            if (st->error) return;
        }
    }
}

/* -- L3 (mirror of SetAssociativeCache flat-LRU path + L3Cache stats) ----- */

static void l3_touch_lru(St *st, i64 base, i64 ways, i64 way) {
    (void)ways;
    u8 *order = st->l3_lru;
    i64 pos = base;
    while (order[pos] != (u8)way) pos++;
    if (pos != base) {
        memmove(order + base + 1, order + base, (size_t)(pos - base));
        order[base] = (u8)way;
    }
}

/* Returns 1 on hit; on miss *wb_line is the dirty victim line or -1. */
static i64 l3_access(St *st, i64 line, i64 is_write, i64 *wb_line) {
    i64 num_sets = st->l3_sets.v;
    i64 ways = st->I[II_L3_WAYS];
    i64 set_idx = div_r(&st->l3_sets, line);
    i64 tag = div_q(&st->l3_sets, line);
    i64 base = set_idx * ways;
    u8 *valid = st->l3_valid;
    i64 *tags = st->l3_tags;
    *wb_line = -1;

    for (i64 idx = base; idx < base + ways; idx++) {
        if (valid[idx] && tags[idx] == tag) {
            if (is_write) st->l3_dirty[idx] = 1;
            l3_touch_lru(st, base, ways, idx - base);
            st->I[II_STAT_L3] += 1; /* accesses */
            return 1;
        }
    }
    i64 victim_way = -1;
    for (i64 idx = base; idx < base + ways; idx++) {
        if (!valid[idx]) {
            victim_way = idx - base;
            break;
        }
    }
    if (victim_way < 0) {
        victim_way = st->l3_lru[base + ways - 1];
        i64 idx = base + victim_way;
        i64 evicted = tags[idx] * num_sets + set_idx;
        if (st->l3_dirty[idx]) *wb_line = evicted;
    }
    i64 idx = base + victim_way;
    valid[idx] = 1;
    tags[idx] = tag;
    st->l3_dirty[idx] = is_write ? 1 : 0;
    l3_touch_lru(st, base, ways, victim_way);
    st->I[II_STAT_L3] += 1;     /* accesses */
    st->I[II_STAT_L3 + 1] += 1; /* misses */
    if (*wb_line >= 0) st->I[II_STAT_L3 + 2] += 1; /* writebacks */
    return 0;
}

/* -- Shared org bookkeeping ----------------------------------------------- */

static void org_note(St *st, i64 is_write, i64 is_wb, i64 stacked) {
    i64 *o = &st->I[II_STAT_ORG];
    if (is_wb) {
        o[6] += 1;
        if (stacked) o[7] += 1;
        return;
    }
    o[0] += 1;
    if (is_write)
        o[2] += 1;
    else
        o[1] += 1;
    if (stacked)
        o[3] += 1;
    else
        o[4] += 1;
}

/* Per-context predictor counter table (LLP for cameo, MAP-I for alloy). */
static u8 *ctx_table(St *st, i64 ctx) {
    return (u8 *)st->P[P_TRACE + 3 * st->N + ctx];
}

static i64 llp_index(St *st, i64 pc) {
    return div_r(&st->llp_entries, pc >> 2);
}

static void llt_swap_to_stacked(St *st, i64 group, i64 rslot) {
    i64 k = st->I[II_GROUP_SIZE];
    i64 base = group * k;
    i64 old_slot = st->llt_table[base + rslot];
    if (old_slot == 0) return;
    i64 victim = st->llt_resident[group];
    st->llt_table[base + rslot] = 0;
    st->llt_table[base + victim] = (u8)old_slot;
    st->llt_resident[group] = (u8)rslot;
}

/* -- CAMEO LLT designs without a LEAD (stacked is dev 0, off-chip dev 1) --- */

/* CameoController._perform_swap with victim_prefetched=False (and the
 * write swap, which posts the same three ops): read the victim out of
 * its stacked slot, write the requested line in, write the victim out. */
static void swap_victim_unread(St *st, double time, i64 group, i64 rslot,
                               i64 off_line) {
    i64 ops[3];
    ops[0] = pack_op(0, 0, 0, 0, group);
    ops[1] = pack_op(0, 0, 1, 0, group);
    ops[2] = pack_op(1, 0, 1, 0, off_line);
    posted_push(st, time, 3, ops);
    llt_swap_to_stacked(st, group, rslot);
    st->I[II_STAT_ORG + 5] += 1; /* line_swaps */
}

/* IdealLltCameo / SramLltCameo: the location is known after a fixed
 * lookup that only reads pay; line-sized stacked bursts. */
static double ideal_llt_access(St *st, double now, i64 group, i64 rslot,
                               i64 aslot, i64 is_write, i64 is_wb) {
    double latency;
    if (aslot == 0) {
        /* Reads after the lookup; writes (in place or swap) in place. */
        if (is_write) {
            latency = dev_access(st, 0, now, group, 0, 1);
        } else {
            double lookup = st->F[FF_LLT_LOOKUP];
            double res = dev_access(st, 0, now + lookup, group, 0, 0);
            latency = lookup + res;
        }
        org_note(st, is_write, is_wb, 1);
        return latency;
    }
    i64 off_line = ((aslot - 1) << st->I[II_GROUP_BITS]) | group;
    if (!is_write) {
        double lookup = st->F[FF_LLT_LOOKUP];
        double res = dev_access(st, 1, now + lookup, off_line, 0, 0);
        latency = lookup + res;
        swap_victim_unread(st, now + latency, group, rslot, off_line);
    } else if (st->I[II_SWAP_ON_WRITE]) {
        swap_victim_unread(st, now, group, rslot, off_line);
        latency = 0.0;
    } else {
        latency = dev_access(st, 1, now, off_line, 0, 1);
    }
    org_note(st, is_write, is_wb, 0);
    return latency;
}

/* EmbeddedLltCameo: every access first reads the group's LLT line from
 * the top of stacked DRAM; a swap also posts that line's rewrite. */
static double embedded_llt_access(St *st, double now, i64 group, i64 rslot,
                                  i64 aslot, i64 is_write, i64 is_wb) {
    i64 llt_line =
        st->I[II_STACKED_LINES] - 1 - div_q(&st->llt_per_line, group);
    double probe = dev_access(st, 0, now, llt_line, 0, 0);
    double data_start = now + probe;
    i64 ops[4];
    if (aslot == 0) {
        if (is_write) {
            ops[0] = pack_op(0, 0, 1, 0, group);
            posted_push(st, data_start, 1, ops);
            org_note(st, is_write, is_wb, 1);
            return data_start - now;
        }
        double res = dev_access(st, 0, data_start, group, 0, 0);
        org_note(st, is_write, is_wb, 1);
        return (data_start - now) + res;
    }
    i64 off_line = ((aslot - 1) << st->I[II_GROUP_BITS]) | group;
    double latency;
    if (!is_write) {
        double res = dev_access(st, 1, data_start, off_line, 0, 0);
        double finish = data_start + res;
        swap_victim_unread(st, finish, group, rslot, off_line);
        ops[0] = pack_op(0, 0, 1, 0, llt_line);
        posted_push(st, finish, 1, ops);
        latency = finish - now;
    } else if (st->I[II_SWAP_ON_WRITE]) {
        ops[0] = pack_op(0, 0, 0, 0, group);
        ops[1] = pack_op(0, 0, 1, 0, group);
        ops[2] = pack_op(1, 0, 1, 0, off_line);
        ops[3] = pack_op(0, 0, 1, 0, llt_line);
        posted_push(st, data_start, 4, ops);
        llt_swap_to_stacked(st, group, rslot);
        st->I[II_STAT_ORG + 5] += 1; /* line_swaps */
        latency = data_start - now;
    } else {
        ops[0] = pack_op(1, 0, 1, 0, off_line);
        posted_push(st, data_start, 1, ops);
        latency = data_start - now;
    }
    org_note(st, is_write, is_wb, 0);
    return latency;
}

/* -- CAMEO (stacked is dev 0, off-chip dev 1) ----------------------------- */

static double cameo_access(St *st, double now, i64 line, i64 is_write,
                           i64 is_wb, i64 ctx, i64 pc) {
    if (line < 0 || line >= st->I[II_TOTAL_LINES]) {
        st->error = 1;
        return 0.0;
    }
    i64 group = line & st->I[II_GROUP_MASK];
    i64 gb = st->I[II_GROUP_BITS];
    i64 rslot = line >> gb;
    i64 aslot = st->llt_table[group * st->I[II_GROUP_SIZE] + rslot];
    i64 design = st->I[II_LLT_DESIGN];
    if (design == 1)
        return ideal_llt_access(st, now, group, rslot, aslot, is_write, is_wb);
    if (design == 2)
        return embedded_llt_access(st, now, group, rslot, aslot, is_write,
                                   is_wb);

    /* CoLocatedLltCameo. */
    i64 pk = st->I[II_PREDICTOR_KIND];
    double latency;
    i64 stacked;

    if (is_write) {
        if (st->I[II_SWAP_ON_WRITE]) {
            /* _service_write_swap: train the predictor first. */
            if (pk == 1) ctx_table(st, ctx)[llp_index(st, pc)] = (u8)aslot;
            double probe = dev_access(st, 0, now, group, 1, 0);
            double t_located = now + probe;
            i64 ops[2];
            if (aslot == 0) {
                ops[0] = pack_op(0, 1, 1, 0, group);
                posted_push(st, t_located, 1, ops);
                latency = probe;
                stacked = 1;
            } else {
                i64 off_line = ((aslot - 1) << gb) | group;
                ops[0] = pack_op(0, 1, 1, 0, group);
                ops[1] = pack_op(1, 0, 1, 0, off_line);
                posted_push(st, t_located, 2, ops);
                llt_swap_to_stacked(st, group, rslot);
                st->I[II_STAT_ORG + 5] += 1; /* line_swaps */
                latency = probe;
                stacked = 0;
            }
        } else {
            /* _service_write_in_place */
            double probe = dev_access(st, 0, now, group, 1, 0);
            double t_located = now + probe;
            i64 ops[1];
            if (aslot == 0) {
                ops[0] = pack_op(0, 1, 1, 0, group);
                posted_push(st, t_located, 1, ops);
                latency = probe;
                stacked = 1;
            } else {
                ops[0] = pack_op(1, 0, 1, 0, ((aslot - 1) << gb) | group);
                posted_push(st, t_located, 1, ops);
                latency = probe;
                stacked = 0;
            }
        }
    } else {
        /* _service_read */
        i64 pred;
        if (pk == 0)
            pred = 0;
        else if (pk == 2)
            pred = aslot;
        else
            pred = ctx_table(st, ctx)[llp_index(st, pc)];
        i64 *cs = &st->I[II_STAT_CASE];
        if (aslot == 0) {
            if (pred == 0)
                cs[0] += 1;
            else
                cs[1] += 1;
        } else if (pred == 0)
            cs[2] += 1;
        else if (pred == aslot)
            cs[3] += 1;
        else
            cs[4] += 1;

        double probe = dev_access(st, 0, now, group, 1, 0);
        if (aslot == 0) {
            if (pred != 0)
                dev_speculative(st, 1, now, ((pred - 1) << gb) | group, 0);
            if (pk == 1) ctx_table(st, ctx)[llp_index(st, pc)] = 0;
            org_note(st, 0, is_wb, 1);
            return probe;
        }
        i64 actual_line = ((aslot - 1) << gb) | group;
        if (pred == aslot) {
            double res = dev_access(st, 1, now, actual_line, 0, 0);
            latency = probe >= res ? probe : res;
        } else {
            if (pred != 0)
                dev_speculative(st, 1, now, ((pred - 1) << gb) | group, 0);
            double res = dev_access(st, 1, now + probe, actual_line, 0, 0);
            latency = probe + res;
        }
        /* _perform_swap with victim_prefetched=True. */
        i64 ops[2];
        ops[0] = pack_op(0, 1, 1, 0, group);
        ops[1] = pack_op(1, 0, 1, 0, actual_line);
        posted_push(st, now + latency, 2, ops);
        llt_swap_to_stacked(st, group, rslot);
        st->I[II_STAT_ORG + 5] += 1; /* line_swaps */
        if (pk == 1) ctx_table(st, ctx)[llp_index(st, pc)] = (u8)aslot;
        stacked = 0;
    }
    org_note(st, is_write, is_wb, stacked);
    return latency;
}

/* -- Alloy Cache (AlloyCacheOrg; stacked is dev 0, off-chip dev 1) -------- */

/* Mirror of AlloyCacheOrg._fill: post the victim writeback (its data
 * already streamed out with the probe) and the TAD install burst; tag
 * metadata updates immediately. */
static void alloy_fill(St *st, double time, i64 line, i64 dirty) {
    i64 set_idx = div_r(&st->alloy_sets, line);
    i64 victim = st->alloy_tags[set_idx];
    i64 victim_dirty = st->alloy_dirty[set_idx];
    i64 writeback = victim != -1 && victim != line && victim_dirty;
    i64 ops[2];
    i64 n = 0;
    if (writeback) ops[n++] = pack_op(1, 0, 1, 0, victim);
    ops[n++] = pack_op(0, 2, 1, 0, set_idx);
    posted_push(st, time, n, ops);
    if (writeback) st->I[II_STAT_ALLOY + 3] += 1; /* dirty_victim_wbs */
    if (victim != line) st->alloy_dirty[set_idx] = 0;
    st->alloy_tags[set_idx] = line;
    if (dirty) st->alloy_dirty[set_idx] = 1;
    st->I[II_STAT_ALLOY + 2] += 1; /* fills */
}

static double alloy_access(St *st, double now, i64 line, i64 is_write,
                           i64 is_wb, i64 ctx, i64 pc) {
    i64 set_idx = div_r(&st->alloy_sets, line);
    i64 hit = st->alloy_tags[set_idx] == line;
    double latency;

    if (is_write) {
        /* _service_write: the TAD probe (read) detects a dirty victim,
         * the install write is posted. */
        double probe = dev_access(st, 0, now, set_idx, 2, 0);
        if (hit)
            st->I[II_STAT_ALLOY] += 1;
        else
            st->I[II_STAT_ALLOY + 1] += 1;
        alloy_fill(st, now + probe, line, 1);
        latency = probe;
    } else {
        /* _service_read: MAP-I predicts before the probe launches. */
        u8 *table = ctx_table(st, ctx);
        i64 mi = div_r(&st->mapi_entries, pc >> 2);
        i64 counter = table[mi];
        i64 pred = counter >= st->I[II_MAPI_THRESHOLD];
        double probe = dev_access(st, 0, now, set_idx, 2, 0);
        if (hit) {
            st->I[II_STAT_ALLOY] += 1;
            if (!pred)
                /* MAP-I guessed miss: the parallel fetch is squashed
                 * when the TAD's tag matches (bandwidth-only waste). */
                dev_speculative(st, 1, now, line, 0);
            latency = probe;
        } else {
            st->I[II_STAT_ALLOY + 1] += 1;
            if (pred) {
                /* Serial: memory access waits for the failed probe. */
                double mem = dev_access(st, 1, now + probe, line, 0, 0);
                latency = probe + mem;
            } else {
                double mem = dev_access(st, 1, now, line, 0, 0);
                latency = probe >= mem ? probe : mem;
            }
            alloy_fill(st, now + latency, line, 0);
        }
        /* predictor.update(ctx, pc, hit) */
        st->I[II_STAT_MAPI] += 1;
        if (pred == hit) st->I[II_STAT_MAPI + 1] += 1;
        if (hit) {
            if (counter < st->I[II_MAPI_MAX]) table[mi] = (u8)(counter + 1);
        } else {
            if (counter > 0) table[mi] = (u8)(counter - 1);
        }
    }
    org_note(st, is_write, is_wb, hit);
    return latency;
}

/* -- TLM family (stacked is dev 0, off-chip dev 1) ------------------------ */

/* Append one swap to the log Python replays, in order, into the free
 * lists it keeps.  The headroom check before each access keeps it in
 * bounds. */
static void map_log(St *st, i64 a, i64 b) {
    i64 len = st->I[II_MAP_LOG_LEN];
    st->map_log[2 * len] = a;
    st->map_log[2 * len + 1] = b;
    st->I[II_MAP_LOG_LEN] = len + 1;
}

/* Mirror of TlmBase.migrate_swap + MemoryManager.swap_frames: post the
 * four page streams and swap the page table's fwd/inv and reference/dirty
 * columns.  A swap into a free frame moves the free status, so it is
 * logged for the free lists; a swap of two full frames is not. */
static void tlm_migrate(St *st, double time, i64 offchip_frame,
                        i64 stacked_frame) {
    i64 per_page = st->I[II_LINES_PER_PAGE];
    i64 stacked_local = stacked_frame * per_page;
    i64 offchip_local = offchip_frame * per_page - st->I[II_STACKED_LINES];
    i64 ops[4];
    ops[0] = pack_op(0, 0, 0, 1, stacked_local);
    ops[1] = pack_op(1, 0, 0, 1, offchip_local);
    ops[2] = pack_op(0, 0, 1, 1, stacked_local);
    ops[3] = pack_op(1, 0, 1, 1, offchip_local);
    posted_push(st, time, 4, ops);

    i64 key_off = st->inv[offchip_frame];
    i64 key_st = st->inv[stacked_frame];
    if (key_off) st->fwd[key_off - 1] = stacked_frame + 1;
    if (key_st) st->fwd[key_st - 1] = offchip_frame + 1;
    st->inv[offchip_frame] = key_st;
    st->inv[stacked_frame] = key_off;
    u8 tmp = st->page_ref[offchip_frame];
    st->page_ref[offchip_frame] = st->page_ref[stacked_frame];
    st->page_ref[stacked_frame] = tmp;
    tmp = st->page_dirty[offchip_frame];
    st->page_dirty[offchip_frame] = st->page_dirty[stacked_frame];
    st->page_dirty[stacked_frame] = tmp;

    if (!key_off != !key_st) map_log(st, offchip_frame, stacked_frame);
    st->I[II_STAT_ORG + 8] += 1; /* page_migrations */
}

/* Mirror of TlmDynamic._after_access + _select_stacked_victim. */
static void tlm_dyn_after(St *st, double time, i64 line) {
    i64 frame = div_q(&st->page_lines, line);
    if (frame < st->I[II_STACKED_PAGES]) {
        st->dyn_ref[frame] = 1;
        return;
    }
    i64 touches = st->dyn_touch[frame] + 1;
    if (touches < st->I[II_MIG_THRESHOLD]) {
        st->dyn_touch[frame] = touches;
        return;
    }
    st->dyn_touch[frame] = 0;
    /* Second-chance sweep over stacked frames; the hand stays in [0, n). */
    i64 n = st->I[II_STACKED_PAGES];
    i64 hand = st->I[II_CLOCK_HAND];
    i64 victim = -1;
    for (i64 k = 0; k < 2 * n; k++) {
        i64 fr = hand;
        hand = hand + 1 == n ? 0 : hand + 1;
        if (st->dyn_ref[fr])
            st->dyn_ref[fr] = 0;
        else {
            victim = fr;
            break;
        }
    }
    st->I[II_CLOCK_HAND] = hand;
    if (victim < 0) victim = hand;
    tlm_migrate(st, time, frame, victim);
    st->dyn_ref[victim] = 1;
}

/* How many pages one TLM-Freq epoch may migrate: the migration budget
 * (at least one), capped by the off-chip frames, so it is zero only when
 * there are none to scan.  The epoch's scratch holds twice this many
 * frames, and each epoch posts and logs at most this many entries
 * (engine_vector.py sizes the scratch, the heap and the log from it). */
static i64 freq_candidates(const i64 *I) {
    i64 n_off = I[II_N_COUNTS] - I[II_STACKED_PAGES];
    i64 cap = I[II_MAX_MIGRATIONS];
    return cap < n_off ? cap : n_off;
}

/* TlmFreq._rebalance's hot list: off-chip frames with count >=
 * min_promote_count by count descending, then frame ascending (the
 * stable sorted(..., reverse=True)), the first cap of them.  An
 * insertion into the kept prefix: frames arrive ascending, so a tie
 * goes after the frames already kept. */
static i64 freq_hot(St *st, i64 *out, i64 cap) {
    const i64 *counts = st->freq_counts;
    const i64 min_count = st->I[II_MIN_PROMOTE];
    i64 n = 0;
    for (i64 f = st->I[II_STACKED_PAGES]; f < st->I[II_N_COUNTS]; f++) {
        i64 c = counts[f];
        if (c < min_count || (n == cap && c <= counts[out[n - 1]])) continue;
        i64 i = n < cap ? n++ : n - 1;
        while (i > 0 && counts[out[i - 1]] < c) {
            out[i] = out[i - 1];
            i--;
        }
        out[i] = f;
    }
    return n;
}

/* TlmFreq._rebalance's cold list, the first cap of it: stacked frames
 * with count 0 in frame order, then the rest by count ascending, then
 * frame ascending. */
static i64 freq_cold(St *st, i64 *out, i64 cap) {
    const i64 *counts = st->freq_counts;
    const i64 boundary = st->I[II_STACKED_PAGES];
    i64 n = 0;
    for (i64 f = 0; f < boundary && n < cap; f++)
        if (!counts[f]) out[n++] = f;
    const i64 zeros = n;
    for (i64 f = 0; f < boundary && zeros < cap; f++) {
        i64 c = counts[f];
        if (!c || (n == cap && c >= counts[out[n - 1]])) continue;
        i64 i = n < cap ? n++ : n - 1;
        while (i > zeros && counts[out[i - 1]] > c) {
            out[i] = out[i - 1];
            i--;
        }
        out[i] = f;
    }
    return n;
}

/* Mirror of TlmFreq.service_epoch: _rebalance, then the decay. */
static void tlm_freq_epoch(St *st, double time) {
    i64 *counts = st->freq_counts;
    i64 cap = freq_candidates(st->I);
    i64 *hot = st->freq_scratch, *cold = hot + cap;
    i64 n_hot = freq_hot(st, hot, cap);
    if (n_hot) {
        i64 n_pairs = freq_cold(st, cold, n_hot);
        const double hysteresis = st->F[FF_HYSTERESIS];
        for (i64 i = 0; i < n_pairs; i++) {
            i64 hot_count = counts[hot[i]];
            i64 cold_count = counts[cold[i]];
            /* Python compares the int with the float product exactly;
             * a count stays far below 2**53, so a double compare does. */
            if ((double)hot_count <= hysteresis * (double)cold_count) break;
            tlm_migrate(st, time, hot[i], cold[i]);
            counts[hot[i]] = cold_count;
            counts[cold[i]] = hot_count;
        }
    }
    st->I[II_EPOCH_COUNT] = 0;
    /* count >> 1 for every count; a zero stays zero. */
    for (i64 f = 0; f < st->I[II_N_COUNTS]; f++) counts[f] >>= 1;
}

/* Mirror of TlmFreq._after_access: count the access, and at the epoch
 * boundary rebalance right here, inside TlmBase.access, as Python does. */
static void tlm_freq_after(St *st, double time, i64 line) {
    st->freq_counts[div_q(&st->page_lines, line)] += 1;
    if (++st->I[II_EPOCH_COUNT] >= st->I[II_EPOCH_ACCESSES])
        tlm_freq_epoch(st, time);
}

static double tlm_access(St *st, double now, i64 line, i64 is_write,
                         i64 is_wb) {
    i64 stacked_lines = st->I[II_STACKED_LINES];
    i64 d, local;
    if (line < stacked_lines) {
        d = 0;
        local = line;
    } else {
        d = 1;
        local = line - stacked_lines;
    }
    double lat = dev_access(st, d, now, local, 0, is_write);
    if (st->error) return 0.0;
    org_note(st, is_write, is_wb, d == 0);
    i64 kind = st->I[II_ORG_KIND];
    if (kind == 4)
        tlm_dyn_after(st, now + lat, line);
    else if (kind == 5)
        tlm_freq_after(st, now + lat, line);
    return lat;
}

/* One demand/writeback access through the organization; returns latency. */
static double org_access(St *st, double now, i64 line, i64 is_write,
                         i64 is_wb, i64 ctx, i64 pc) {
    i64 kind = st->I[II_ORG_KIND];
    if (kind == 0) {
        /* NoStackedBaseline: one off-chip line access. */
        double lat =
            dev_access(st, st->I[II_DEMAND_DEV], now, line, 0, is_write);
        org_note(st, is_write, is_wb, 0);
        return lat;
    }
    if (kind == 1) return cameo_access(st, now, line, is_write, is_wb, ctx, pc);
    if (kind == 2) return alloy_access(st, now, line, is_write, is_wb, ctx, pc);
    return tlm_access(st, now, line, is_write, is_wb);
}

/* -- Paging traffic (each org's page_drain / page_fill) ------------------- */

/* CameoController._split_frame_lines: a page's lines are consecutive
 * congruence groups sharing one requested slot, so their LLT entries are
 * one strided slice of the table; count those still in stacked DRAM. */
static i64 cameo_stacked_lines(St *st, i64 first) {
    i64 k = st->I[II_GROUP_SIZE];
    i64 start = (first & st->I[II_GROUP_MASK]) * k + (first >> st->I[II_GROUP_BITS]);
    i64 end = st->I[II_TOTAL_LINES];
    i64 n = 0;
    for (i64 i = 0; i < st->I[II_LINES_PER_PAGE]; i++) {
        i64 idx = start + i * k;
        if (idx >= end) break;
        if (st->llt_table[idx] == 0) n++;
    }
    return n;
}

/* AlloyCacheOrg.page_drain's first half: drop the departing frame's
 * cached lines, writing the dirty ones back off-chip. */
static void alloy_flush_frame(St *st, double now, i64 first) {
    for (i64 line = first; line < first + st->I[II_LINES_PER_PAGE]; line++) {
        i64 set_idx = div_r(&st->alloy_sets, line);
        if (st->alloy_tags[set_idx] == line) {
            if (st->alloy_dirty[set_idx]) dev_access(st, 1, now, line, 0, 1);
            st->alloy_tags[set_idx] = -1;
            st->alloy_dirty[set_idx] = 0;
        }
    }
}

/* org.page_fill (is_write) or org.page_drain of one frame. */
static void page_stream(St *st, double now, i64 frame, i64 is_write) {
    i64 per_page = st->I[II_LINES_PER_PAGE];
    i64 first = frame * per_page;
    i64 kind = st->I[II_ORG_KIND];
    if (kind == 0) {
        dev_stream(st, 0, now, first, per_page, is_write);
    } else if (kind == 1) {
        if (first < 0 || first >= st->I[II_TOTAL_LINES]) {
            st->error = 1;
            return;
        }
        i64 n_stacked = cameo_stacked_lines(st, first);
        if (n_stacked) dev_stream(st, 0, now, first, n_stacked, is_write);
        if (per_page - n_stacked)
            dev_stream(st, 1, now, first, per_page - n_stacked, is_write);
    } else if (kind == 2) {
        if (!is_write) alloy_flush_frame(st, now, first);
        dev_stream(st, 1, now, first, per_page, is_write);
    } else {
        /* TlmBase._stream_frame: _route the frame's first line. */
        i64 stacked_lines = st->I[II_STACKED_LINES];
        if (first < stacked_lines)
            dev_stream(st, 0, now, first, per_page, is_write);
        else
            dev_stream(st, 1, now, first - stacked_lines, per_page, is_write);
    }
}

/* A translation miss in full memory, served here: MemoryManager.translate
 * (reclaim, unmap, the SSD's page write for a dirty victim and page read,
 * map) and then the python loop's paging traffic — page_drain for a dirty
 * victim, always page_fill.  No L3 shootdown: faults are served here only
 * with the L3 off.  Returns the frame now holding key. */
static i64 serve_fault(St *st, double now, i64 key, i64 is_write) {
    i64 *I = st->I;
    Vm *vm = &st->vm;
    I[II_STAT_FAULT] += 1; /* faults */
    i64 frame = vm_select_victim(vm);
    i64 drain = 0;
    if (vm->inv[frame]) {
        I[II_STAT_FAULT + 1] += 1; /* evictions */
        if (vm->dirty[frame]) {
            drain = 1;
            I[II_STAT_FAULT + 2] += 1;               /* dirty_evictions */
            I[II_STAT_SSD + 1] += 1;                 /* page_writes */
            I[II_STAT_SSD + 3] += I[II_PAGE_BYTES];  /* bytes_written */
        }
    }
    I[II_STAT_SSD] += 1;                    /* page_reads */
    I[II_STAT_SSD + 2] += I[II_PAGE_BYTES]; /* bytes_read */
    vm_remap(vm, frame, key, is_write);
    if (drain) page_stream(st, now, frame, 0);
    page_stream(st, now, frame, 1);
    return frame;
}

/* -- The run loop (mirror of engine._run_trace_python) -------------------- */

static i64 bail(St *st, i64 code, i64 phase, i64 ctx, double now) {
    st->I[II_PHASE] = phase;
    st->I[II_PENDING_CTX] = ctx;
    st->F[FF_PENDING_NOW] = now;
    return code;
}

i64 rk_run(i64 *I, double *F, void **P) {
    St st;
    memset(&st, 0, sizeof(st));
    st.I = I;
    st.F = F;
    st.P = P;
    st.N = I[II_NUM_CONTEXTS];
    st.n_dev = I[II_N_DEVICES];
    st.heap = (PostedEntry *)P[P_POSTED];
    st.posted_cap = I[II_POSTED_CAP];
    st.fwd = (i64 *)P[P_FWD];
    st.inv = (i64 *)P[P_INV];
    st.page_ref = (u8 *)P[P_PAGE_REF];
    st.page_dirty = (u8 *)P[P_PAGE_DIRTY];
    st.vm.fwd = st.fwd;
    st.vm.inv = st.inv;
    st.vm.ref = st.page_ref;
    st.vm.dirty = st.page_dirty;
    st.vm.mt = (i64 *)P[P_RNG];
    st.vm.n_frames = I[II_N_FRAMES];
    st.vm.probes = I[II_RANDOM_PROBES];
    st.vm.hand = &I[II_VM_HAND];
    st.vm.rng_used = &I[II_RNG_USED];
    st.llt_table = (u8 *)P[P_LLT_TABLE];
    st.llt_resident = (u8 *)P[P_LLT_RESIDENT];
    st.l3_valid = (u8 *)P[P_L3_VALID];
    st.l3_dirty = (u8 *)P[P_L3_DIRTY];
    st.l3_tags = (i64 *)P[P_L3_TAGS];
    st.l3_lru = (u8 *)P[P_L3_LRU];
    st.map_log = (i64 *)P[P_MAP_LOG];
    st.alloy_tags = (i64 *)P[P_ORG_A];
    st.alloy_dirty = (u8 *)P[P_ORG_B];
    st.dyn_ref = (u8 *)P[P_ORG_A];
    st.dyn_touch = (i64 *)P[P_ORG_B];
    st.freq_counts = (i64 *)P[P_ORG_A];
    st.freq_scratch = (i64 *)P[P_ORG_B];
    st.page_lines = div_of(I[II_LINES_PER_PAGE]);
    st.l3_sets = div_of(I[II_L3_SETS]);
    st.llp_entries = div_of(I[II_LLP_ENTRIES]);
    st.mapi_entries = div_of(I[II_MAPI_ENTRIES]);
    st.alloy_sets = div_of(I[II_NUM_SETS]);
    st.llt_per_line = div_of(I[II_LLT_ENTRIES_PER_LINE]);
    for (i64 d = 0; d < st.n_dev; d++) {
        Dev *dv = &st.dev[d];
        dv->channels = div_of(I[II_DEV_GEOM + d * 4]);
        dv->banks = div_of(I[II_DEV_GEOM + d * 4 + 1]);
        dv->row_lines = div_of(I[II_DEV_GEOM + d * 4 + 2]);
        dv->capacity_lines = I[II_DEV_GEOM + d * 4 + 3];
        dv->bank_open = (i64 *)P[P_DEV + d * 4];
        dv->bank_busy = (double *)P[P_DEV + d * 4 + 1];
        dv->bus = (double *)P[P_DEV + d * 4 + 2];
        dv->debt = (double *)P[P_DEV + d * 4 + 3];
        for (i64 s = 0; s < 3; s++)
            for (i64 k = 0; k < 4; k++)
                dv->cyc[s][k] = F[FF_CYC + d * 12 + s * 4 + k];
        dv->wbuf_cycles = F[FF_WBUF + d];
        dv->size_bytes[0] = I[II_SIZE0_BYTES];
        dv->size_bytes[1] = I[II_SIZE1_BYTES];
        dv->size_bytes[2] = I[II_SIZE2_BYTES];
        dv->si = &I[II_STAT_DEV + d * 7];
        dv->qw = &F[FF_DSTAT + d * 2];
        dv->sv = &F[FF_DSTAT + d * 2 + 1];
    }

    const i64 N = st.N;
    i64 *counts = &I[II_CTX_BASE];
    i64 *active = &I[II_CTX_BASE + N];
    i64 *parked = &I[II_CTX_BASE + 2 * N];
    i64 *warmed = &I[II_CTX_BASE + 3 * N];
    i64 *tr_len = &I[II_CTX_BASE + 4 * N];
    double *next_time = &F[FF_CTX_BASE];
    double *finish_time = &F[FF_CTX_BASE + N];
    double *work = &F[FF_CTX_BASE + 2 * N];
    const i64 n_accesses = I[II_N_ACCESSES];
    const i64 warmup = I[II_WARMUP];
    const i64 lines_per_page = I[II_LINES_PER_PAGE];
    const i64 vstride = I[II_VSTRIDE];
    const i64 has_l3 = I[II_HAS_L3];
    const double l3_latency = F[FF_L3_LATENCY];
    const double mlp = F[FF_MLP];
    const i64 progress_every = I[II_PROGRESS_EVERY];
    const i64 fault_mode = I[II_FAULT_MODE];
    const double fault_latency = F[FF_FAULT_LATENCY];
    /* The heartbeat fires when the running count reaches a multiple of
     * progress_every: the first one above the count at entry. */
    const i64 next_beat =
        progress_every
            ? (I[II_PROGRESS_COUNT] / progress_every + 1) * progress_every
            : 0;
    /* Headroom, reserved before each access so that it never finds the
     * heap or the swap log full mid-flight.  One access posts at most
     * three entries (an embedded-LLT read swap plus an L3 writeback) and
     * logs at most two (TLM-Dynamic migrations for writeback + demand);
     * a TLM-Freq access can also cross two epochs (its writeback's and
     * its own), each posting and logging up to freq_candidates entries. */
    const i64 epoch_room = I[II_ORG_KIND] == 5 ? 2 * freq_candidates(I) : 0;
    const i64 posted_limit = st.posted_cap - 8 - epoch_room;
    const i64 log_limit = I[II_MAP_LOG_CAP] - 4 - epoch_room;

    i64 ctx;
    double now = 0.0;
    i64 phase = I[II_PHASE];
    I[II_PHASE] = PH_SELECT;
    if (phase == PH_BEFORE) {
        ctx = I[II_PENDING_CTX];
        now = F[FF_PENDING_NOW];
        goto before;
    }
    if (phase == PH_AFTER_FETCH) {
        ctx = I[II_PENDING_CTX];
        now = F[FF_PENDING_NOW];
        goto after_fetch;
    }

    for (;;) {
        /* Select: argmin over active, unparked contexts on next_time with
         * lowest-context tie-break — exactly heapq's (time, ctx) order. */
        ctx = -1;
        for (i64 c = 0; c < N; c++) {
            if (!active[c] || parked[c]) continue;
            if (ctx < 0 || next_time[c] < now) {
                ctx = c;
                now = next_time[c];
            }
        }
        if (ctx < 0) return RK_DONE;

        if (warmup && !I[II_WARMUP_DONE] && !warmed[ctx] &&
            counts[ctx] == warmup) {
            warmed[ctx] = 1;
            I[II_CONTEXTS_WARM] += 1;
            if (I[II_CONTEXTS_WARM] < N) {
                parked[ctx] = 1;
                continue;
            }
            /* Global barrier: release the parked contexts at this time,
             * then hand control to Python for the measurement reset. */
            I[II_WARMUP_DONE] = 1;
            for (i64 c = 0; c < N; c++) {
                if (parked[c]) {
                    parked[c] = 0;
                    next_time[c] = now;
                }
            }
            return bail(&st, RK_BARRIER, PH_BEFORE, ctx, now);
        }

    before:
        if (I[II_POSTED_LEN] > posted_limit)
            return bail(&st, RK_POSTED_FULL, PH_BEFORE, ctx, now);
        if (I[II_MAP_LOG_LEN] > log_limit)
            return bail(&st, RK_MAP_LOG, PH_BEFORE, ctx, now);
        if (counts[ctx] == n_accesses) {
            finish_time[ctx] = now;
            active[ctx] = 0;
            continue;
        }
        counts[ctx] += 1;
        if (progress_every && ++I[II_PROGRESS_COUNT] == next_beat)
            return bail(&st, RK_PROGRESS, PH_AFTER_FETCH, ctx, now);

    after_fetch : {
        /* A trace at least as long as the run never wraps. */
        i64 idx = counts[ctx] - 1;
        if (idx >= tr_len[ctx]) idx %= tr_len[ctx];
        i64 vline = ((i64 *)st.P[P_TRACE + ctx * 3])[idx];
        i64 pc = ((i64 *)st.P[P_TRACE + ctx * 3 + 1])[idx];
        i64 is_write = ((u8 *)st.P[P_TRACE + ctx * 3 + 2])[idx];

        if (I[II_POSTED_LEN] > 0) {
            flush_posted(&st, now);
            if (st.error) {
                I[II_ERROR_CODE] = 1;
                return bail(&st, RK_ERROR, PH_SELECT, ctx, now);
            }
        }

        i64 key = ctx * vstride + div_q(&st.page_lines, vline);
        i64 f = st.fwd[key];
        i64 frame;
        double stall = 0.0;
        if (f) {
            frame = f - 1;
            I[II_STAT_VM] += 1; /* translations */
            st.page_ref[frame] = 1;
            if (is_write) st.page_dirty[frame] = 1;
        } else if (fault_mode) {
            I[II_STAT_VM] += 1; /* translations */
            frame = serve_fault(&st, now, key, is_write);
            if (st.error) {
                I[II_ERROR_CODE] = 3;
                return bail(&st, RK_ERROR, PH_SELECT, ctx, now);
            }
            stall += fault_latency;
        } else {
            /* Page fault Python serves: it runs this access via the
             * object API. */
            return bail(&st, RK_FAULT, PH_SELECT, ctx, now);
        }

        /* The demand line is fixed here: a TLM-Freq epoch in the
         * writeback below may migrate its page, and the python loop
         * still accesses the line it translated. */
        i64 line = frame * lines_per_page + div_r(&st.page_lines, vline);
        i64 go_to_memory = 1;
        stall += l3_latency;
        if (has_l3) {
            i64 wb_line;
            if (l3_access(&st, line, is_write, &wb_line))
                go_to_memory = 0;
            else if (wb_line >= 0)
                org_access(&st, now, wb_line, 1, 1, ctx, pc);
        }
        if (go_to_memory && !st.error) {
            double lat = org_access(&st, now, line, is_write, 0, ctx, pc);
            if (!is_write) stall += lat / mlp;
        }
        if (st.error) {
            I[II_ERROR_CODE] = 2;
            return bail(&st, RK_ERROR, PH_SELECT, ctx, now);
        }
        next_time[ctx] = now + work[ctx] + stall;
    }
    }
}
