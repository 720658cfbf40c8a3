/*
 * Native event drain of the simulator (see repro/sim/kernel.py).
 *
 * One function, drain(), runs a *covered* system from its pristine
 * state to an empty event heap: core issue and MLP stalls, the
 * BLISS / FR-FCFS pick, bank timing with tFAW and the shared data bus,
 * auto-refresh, the single-distance RowHammer model, RAA counting and
 * RFM issue with the Mithril+ MRR gate, and the per-bank schemes
 * `none`, Mithril (CbS update, greedy RFM, adaptive skip), BlockHammer
 * (dual counting Bloom filter, blacklist, ACT throttling in the pick,
 * retry and serve paths), Graphene (CbS with periodic reset,
 * threshold-triggered ARR), PARA (probabilistic neighbour ARR), PARFM
 * (reservoir-sampled RFM victim), TWiCe (pruned per-row counters,
 * threshold ARR) and CBT (split counter tree, range ARR).  PARA and
 * PARFM draw from an exact port of python's MT19937 random(): each
 * scheme's seed goes through a port of random.Random(seed)'s
 * init_by_array once per distinct seed, and a bank that drew hands its
 * advanced state back as getstate()'s 625 ints.
 *
 * It is a line-for-line port of SimulatedSystem's event loop on those
 * paths, and every ordering the python objects expose is kept: events
 * pop in (cycle, seq) order, CbS buckets are FIFO, the CbS maximum
 * breaks ties toward the smallest row, and every dict the write-back
 * rebuilds (CbS counts and buckets, hammer disturbance, BLISS
 * blacklist, BlockHammer releases, Graphene triggers, TWiCe entries)
 * is returned in python's insertion order.
 *
 * The kernel knows no python classes.  It reads the trace columns
 * through the buffer protocol and plain int tuples for configuration,
 * and returns plain ints, tuples, lists and dicts (each dict a python
 * object holds, built in its insertion order); kernel.py alone maps
 * them onto the simulator objects.  Per-row state lives in hash maps sized
 * by the rows actually touched, never in dense per-row arrays.  The
 * one exception is BlockHammer's counters: the kernel writes straight
 * into each filter's own array('q') through a writable buffer, so the
 * filters end the run in place with no copy in either direction.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <setjmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Heap-key layout of repro/sim/system.py: seq above kind + ident. */
#define SEQ_BITS 40
#define SEQ_LIMIT ((int64_t)1 << SEQ_BITS)
#define LOW_BITS 22
#define IDENT_BITS 20
#define IDENT_MASK (((int64_t)1 << IDENT_BITS) - 1)

enum { EV_ISSUE = 0, EV_BANK = 1, EV_COMPLETE = 2 };
enum { POLICY_OPEN = 0, POLICY_CLOSED = 1, POLICY_MINIMALIST = 2 };
enum {
    SCHEME_NONE = 0, SCHEME_MITHRIL = 1, SCHEME_BLOCKHAMMER = 2,
    SCHEME_GRAPHENE = 3, SCHEME_PARA = 4, SCHEME_PARFM = 5,
    SCHEME_TWICE = 6, SCHEME_CBT = 7
};

/* Per-run scalars, in the order kernel.pack builds them. */
enum {
    CF_NUM_BANKS, CF_SEQ, CF_TRP, CF_TRCD, CF_TCL, CF_TBL, CF_TRC,
    CF_TRAS, CF_POLICY, CF_BURST, CF_COUNT
};

/* Per-bank configuration, in the order kernel._bank_fields builds it:
 * the bank's own fields, then the scheme's (kernel's _SCHEME_FIELDS),
 * whose meaning depends on the scheme (unused ones are 0):
 *   capacity   Mithril / Graphene CbS entries, CBT counter budget
 *   threshold  Graphene and TWiCe ARR threshold, CBT refresh
 *              threshold, BlockHammer blacklist threshold
 *   interval   Graphene reset interval, TWiCe tREFI, BlockHammer
 *              half epoch
 *   next       Graphene's next reset, TWiCe's next checkpoint */
enum {
    BF_CHANNEL, BF_FAW, BF_SCHEDULER, BF_TRP, BF_TRAS, BF_TRFC, BF_TRFM,
    BF_TRC_ARR, BF_NEXT_TICK, BF_TREFI, BF_ROWS_PER_GROUP, BF_NUM_GROUPS,
    BF_HAMMER, BF_FLIP_TH, BF_HAMMER_ROWS, BF_RFM, BF_RAA_TH, BF_MRR_GATED,
    BF_SCHEME, BF_SCHEME_ROWS, BF_CAPACITY, BF_THRESHOLD, BF_INTERVAL,
    BF_NEXT, BF_SPLIT, BF_DELAY, BF_BLAST_RADIUS, BF_WRAP_WINDOW,
    BF_COUNTER_BITS, BF_ADAPTIVE_TH, BF_PLUS,
    BF_COUNT
};

/* EnergyCounts fields, in dataclass order. */
enum {
    EN_ACTS, EN_PRES, EN_READS, EN_WRITES, EN_AUTO_REFRESHES,
    EN_RFM_COMMANDS, EN_PREVENTIVE_ROWS, EN_MRR_COMMANDS, EN_COUNT
};

/* SchemeStats fields, in dataclass order. */
enum {
    ST_ACTS_OBSERVED, ST_RFMS_RECEIVED, ST_RFMS_SKIPPED, ST_ARR_REQUESTS,
    ST_PREVENTIVE_ROWS, ST_MRR_READS, ST_THROTTLE_EVENTS, ST_COUNT
};

/* Failure exit: every allocation hangs off the context, so a failure
 * anywhere sets the python error and jumps back to drain(), which
 * frees the context and returns NULL. */
typedef struct Ctx Ctx;
static void fail_nomem(Ctx *ctx);

/* ------------------------------------------------------------------ */
/* int64 -> (value, order) hash map: linear probing, backward-shift     */
/* deletion, grown by doubling.  `order` records first insertion, so   */
/* the write-back can replay python's dict order.                      */
/* ------------------------------------------------------------------ */

#define EMPTY_KEY INT64_MIN

typedef struct {
    int64_t key;
    int64_t value;
    uint64_t order;
} Slot;

typedef struct {
    Slot *slots;
    size_t mask;
    size_t size;
} Map;

static size_t map_home(const Map *map, int64_t key)
{
    uint64_t h = (uint64_t)key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return (size_t)h & map->mask;
}

static void map_alloc(Ctx *ctx, Map *map, size_t capacity)
{
    Slot *slots = malloc(capacity * sizeof(Slot));
    if (slots == NULL) {
        fail_nomem(ctx);
    }
    for (size_t i = 0; i < capacity; i++) {
        slots[i].key = EMPTY_KEY;
    }
    map->slots = slots;
    map->mask = capacity - 1;
    map->size = 0;
}

static Slot *map_find(const Map *map, int64_t key)
{
    size_t i = map_home(map, key);
    for (;;) {
        Slot *slot = &map->slots[i];
        if (slot->key == key) {
            return slot;
        }
        if (slot->key == EMPTY_KEY) {
            return NULL;
        }
        i = (i + 1) & map->mask;
    }
}

static void map_grow(Ctx *ctx, Map *map)
{
    Slot *old = map->slots;
    size_t old_capacity = map->mask + 1;
    map->slots = NULL;
    map_alloc(ctx, map, old_capacity * 2);
    for (size_t i = 0; i < old_capacity; i++) {
        if (old[i].key == EMPTY_KEY) {
            continue;
        }
        size_t j = map_home(map, old[i].key);
        while (map->slots[j].key != EMPTY_KEY) {
            j = (j + 1) & map->mask;
        }
        map->slots[j] = old[i];
        map->size++;
    }
    free(old);
}

/* Insert an absent key; the caller fills value and order. */
static Slot *map_insert(Ctx *ctx, Map *map, int64_t key)
{
    if ((map->size + 1) * 4 > (map->mask + 1) * 3) {
        map_grow(ctx, map);
    }
    size_t i = map_home(map, key);
    while (map->slots[i].key != EMPTY_KEY) {
        i = (i + 1) & map->mask;
    }
    map->slots[i].key = key;
    map->size++;
    return &map->slots[i];
}

static void map_delete(Map *map, Slot *slot)
{
    size_t hole = (size_t)(slot - map->slots);
    size_t j = hole;
    for (;;) {
        j = (j + 1) & map->mask;
        if (map->slots[j].key == EMPTY_KEY) {
            break;
        }
        size_t home = map_home(map, map->slots[j].key);
        /* Move j into the hole unless its home lies cyclically in
         * (hole, j]: then probing from home still reaches it. */
        int stays = (hole <= j) ? (hole < home && home <= j)
                                : (hole < home || home <= j);
        if (!stays) {
            map->slots[hole] = map->slots[j];
            hole = j;
        }
    }
    map->slots[hole].key = EMPTY_KEY;
    map->size--;
}

/* dict.clear(): drop every key, keep the table's capacity. */
static void map_clear(Map *map)
{
    for (size_t i = 0; i <= map->mask; i++) {
        map->slots[i].key = EMPTY_KEY;
    }
    map->size = 0;
}

/* The live slots sorted by insertion order (caller frees). */
static int order_cmp(const void *a, const void *b)
{
    uint64_t x = (*(const Slot *const *)a)->order;
    uint64_t y = (*(const Slot *const *)b)->order;
    return (x > y) - (x < y);
}

static Slot **map_ordered(const Map *map)
{
    Slot **out = malloc((map->size + 1) * sizeof(Slot *));
    if (out == NULL) {
        return NULL;
    }
    size_t n = 0;
    for (size_t i = 0; i <= map->mask; i++) {
        if (map->slots[i].key != EMPTY_KEY) {
            out[n++] = &map->slots[i];
        }
    }
    qsort(out, n, sizeof(Slot *), order_cmp);
    return out;
}

/* ------------------------------------------------------------------ */
/* RowHammer model (HammerModel, single-distance weight 1.0).  Levels   */
/* are whole numbers of ACTs, exact as python's float sums.            */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t cycle, row, level, aggressor;
} Flip;

typedef struct {
    int64_t flip_th, rows;
    Map levels;              /* victim row -> disturbance */
    uint64_t next_order;
    Flip *flips;
    size_t num_flips, flip_capacity;
    int64_t max_level;
    int has_max_row;
    int64_t max_row;
} Hammer;

static void hammer_flip(Ctx *ctx, Hammer *h, int64_t cycle, int64_t row,
                        int64_t level, int64_t aggressor)
{
    if (h->num_flips == h->flip_capacity) {
        size_t capacity = h->flip_capacity ? h->flip_capacity * 2 : 16;
        Flip *grown = realloc(h->flips, capacity * sizeof(Flip));
        if (grown == NULL) {
            fail_nomem(ctx);
        }
        h->flips = grown;
        h->flip_capacity = capacity;
    }
    Flip *flip = &h->flips[h->num_flips++];
    flip->cycle = cycle;
    flip->row = row;
    flip->level = level;
    flip->aggressor = aggressor;
}

static void hammer_activate(Ctx *ctx, Hammer *h, int64_t row, int64_t cycle)
{
    for (int side = 0; side < 2; side++) {
        int64_t victim = side ? row + 1 : row - 1;
        if (victim < 0 || victim >= h->rows) {
            continue;
        }
        Slot *slot = map_find(&h->levels, victim);
        if (slot == NULL) {
            slot = map_insert(ctx, &h->levels, victim);
            slot->value = 0;
            slot->order = h->next_order++;
        }
        int64_t level = slot->value + 1;
        slot->value = level;
        if (level > h->max_level) {
            h->max_level = level;
            h->has_max_row = 1;
            h->max_row = victim;
        }
        if (level >= h->flip_th) {
            hammer_flip(ctx, h, cycle, victim, level, row);
            slot->value = 0;   /* reset, not deleted: keeps dict order */
        }
    }
}

static void hammer_refresh_row(Hammer *h, int64_t row)
{
    Slot *slot = map_find(&h->levels, row);
    if (slot != NULL) {
        map_delete(&h->levels, slot);
    }
}

static void hammer_refresh_range(Ctx *ctx, Hammer *h, int64_t first,
                                 int64_t last)
{
    if (last < first) {
        return;
    }
    if ((uint64_t)(last - first) <= h->levels.mask) {
        for (int64_t row = first; row <= last; row++) {
            hammer_refresh_row(h, row);
        }
        return;
    }
    /* Wider than the table: collect the doomed keys, then delete (a
     * backward shift during the scan could skip a slot). */
    size_t n = 0;
    int64_t *doomed = malloc((h->levels.size + 1) * sizeof(int64_t));
    if (doomed == NULL) {
        fail_nomem(ctx);
    }
    for (size_t i = 0; i <= h->levels.mask; i++) {
        int64_t key = h->levels.slots[i].key;
        if (key != EMPTY_KEY && first <= key && key <= last) {
            doomed[n++] = key;
        }
    }
    for (size_t i = 0; i < n; i++) {
        hammer_refresh_row(h, doomed[i]);
    }
    free(doomed);
}

/* ------------------------------------------------------------------ */
/* Counter-based Summary (streaming/cbs.py CounterSummary): entries in  */
/* count buckets, each bucket a FIFO list (head = oldest).              */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t row, count;
    int32_t prev, next;      /* bucket list links; -1 ends */
} Entry;

typedef struct {
    int32_t head, tail;
} Bucket;

typedef struct {
    int64_t capacity;
    Entry *entries;
    int32_t num_entries, entry_capacity, free_entry;
    Bucket *buckets;
    int32_t num_buckets, bucket_capacity, free_bucket;
    Map rows;                /* row -> entry index (order: dict order) */
    Map counts;              /* count -> bucket index (order: dict order) */
    uint64_t row_order, count_order;
    int64_t size, min_count, max_count;
    int64_t total_observed, evictions;
} Cbs;

static int32_t cbs_new_entry(Ctx *ctx, Cbs *s)
{
    if (s->free_entry >= 0) {
        int32_t e = s->free_entry;
        s->free_entry = s->entries[e].next;
        return e;
    }
    if (s->num_entries == s->entry_capacity) {
        int32_t capacity = s->entry_capacity ? s->entry_capacity * 2 : 16;
        Entry *grown = realloc(s->entries, capacity * sizeof(Entry));
        if (grown == NULL) {
            fail_nomem(ctx);
        }
        s->entries = grown;
        s->entry_capacity = capacity;
    }
    return s->num_entries++;
}

static int32_t cbs_new_bucket(Ctx *ctx, Cbs *s)
{
    if (s->free_bucket >= 0) {
        int32_t b = s->free_bucket;
        s->free_bucket = s->buckets[b].head;
        return b;
    }
    if (s->num_buckets == s->bucket_capacity) {
        int32_t capacity = s->bucket_capacity ? s->bucket_capacity * 2 : 16;
        Bucket *grown = realloc(s->buckets, capacity * sizeof(Bucket));
        if (grown == NULL) {
            fail_nomem(ctx);
        }
        s->buckets = grown;
        s->bucket_capacity = capacity;
    }
    return s->num_buckets++;
}

/* Append entry e at the tail of bucket `count`, creating it. */
static void cbs_link(Ctx *ctx, Cbs *s, int32_t e, int64_t count)
{
    Slot *slot = map_find(&s->counts, count);
    int32_t b;
    if (slot == NULL) {
        b = cbs_new_bucket(ctx, s);
        slot = map_insert(ctx, &s->counts, count);
        slot->value = b;
        slot->order = s->count_order++;
        s->buckets[b].head = -1;
        s->buckets[b].tail = -1;
    } else {
        b = (int32_t)slot->value;
    }
    Bucket *bucket = &s->buckets[b];
    Entry *entry = &s->entries[e];
    entry->count = count;
    entry->next = -1;
    entry->prev = bucket->tail;
    if (bucket->tail >= 0) {
        s->entries[bucket->tail].next = e;
    } else {
        bucket->head = e;
    }
    bucket->tail = e;
}

/* Unlink entry e from bucket `count`; 1 when the bucket emptied (and
 * was deleted). */
static int cbs_unlink(Cbs *s, int32_t e, int64_t count)
{
    Slot *slot = map_find(&s->counts, count);
    int32_t b = (int32_t)slot->value;
    Bucket *bucket = &s->buckets[b];
    Entry *entry = &s->entries[e];
    if (entry->prev >= 0) {
        s->entries[entry->prev].next = entry->next;
    } else {
        bucket->head = entry->next;
    }
    if (entry->next >= 0) {
        s->entries[entry->next].prev = entry->prev;
    } else {
        bucket->tail = entry->prev;
    }
    if (bucket->head >= 0) {
        return 0;
    }
    map_delete(&s->counts, slot);
    bucket->head = s->free_bucket;
    s->free_bucket = b;
    return 1;
}

static int cbs_has_bucket(const Cbs *s, int64_t count)
{
    return map_find(&s->counts, count) != NULL;
}

static void cbs_advance_min(Cbs *s)
{
    if (s->counts.size == 0) {
        s->min_count = 0;
        return;
    }
    int64_t probe = s->min_count;
    while (!cbs_has_bucket(s, probe)) {
        probe++;
    }
    s->min_count = probe;
}

static int32_t cbs_insert(Ctx *ctx, Cbs *s, int64_t row, int64_t count)
{
    int32_t e = cbs_new_entry(ctx, s);
    s->entries[e].row = row;
    Slot *slot = map_insert(ctx, &s->rows, row);
    slot->value = e;
    slot->order = s->row_order++;
    cbs_link(ctx, s, e, count);
    s->size++;
    if (count > s->max_count || s->size == 1) {
        s->max_count = count;
    }
    return e;
}

/* Evict entry e (always followed by an insert above its count, which
 * restores max_count). */
static void cbs_remove(Cbs *s, int32_t e, int64_t count)
{
    map_delete(&s->rows, map_find(&s->rows, s->entries[e].row));
    cbs_unlink(s, e, count);
    s->entries[e].next = s->free_entry;
    s->free_entry = e;
    s->size--;
}

static void cbs_move(Ctx *ctx, Cbs *s, int32_t e, int64_t old, int64_t new)
{
    int old_emptied = cbs_unlink(s, e, old);
    cbs_link(ctx, s, e, new);
    if (new > s->max_count) {
        s->max_count = new;
    } else if (old_emptied && old == s->max_count) {
        /* the maximum was demoted: the next bucket down holds it (the
         * target bucket exists, so the scan stops by `new`) */
        int64_t probe = old - 1;
        while (!cbs_has_bucket(s, probe)) {
            probe--;
        }
        s->max_count = probe;
    }
    if (old_emptied && old == s->min_count) {
        if (new < old) {
            s->min_count = new;
        } else {
            cbs_advance_min(s);
        }
    } else if (new < s->min_count) {
        s->min_count = new;
    }
}

/* CounterSummary._observe_one; returns the row's entry */
static int32_t cbs_observe(Ctx *ctx, Cbs *s, int64_t row)
{
    s->total_observed++;
    Slot *slot = map_find(&s->rows, row);
    if (slot != NULL) {
        int32_t e = (int32_t)slot->value;
        int64_t count = s->entries[e].count;
        cbs_move(ctx, s, e, count, count + 1);
        return e;
    }
    if (s->size < s->capacity) {
        int32_t e = cbs_insert(ctx, s, row, 1);
        if (s->size == s->capacity) {
            /* min(self._buckets) */
            int first = 1;
            for (size_t i = 0; i <= s->counts.mask; i++) {
                int64_t key = s->counts.slots[i].key;
                if (key != EMPTY_KEY && (first || key < s->min_count)) {
                    s->min_count = key;
                    first = 0;
                }
            }
        }
        return e;
    }
    s->evictions++;
    Slot *low = map_find(&s->counts, s->min_count);
    int32_t victim = s->buckets[low->value].head;
    cbs_remove(s, victim, s->min_count);
    int32_t e = cbs_insert(ctx, s, row, s->min_count + 1);
    if (!cbs_has_bucket(s, s->min_count)) {
        cbs_advance_min(s);
    }
    return e;
}

/* CounterSummary.reset: an empty table; total_observed and evictions
 * count the whole run and survive. */
static void cbs_reset(Cbs *s)
{
    map_clear(&s->rows);
    map_clear(&s->counts);
    s->num_entries = 0;
    s->free_entry = -1;
    s->num_buckets = 0;
    s->free_bucket = -1;
    s->size = 0;
    s->min_count = 0;
    s->max_count = 0;
}

/* The min_count property: 0 while the table is not full. */
static int64_t cbs_min(const Cbs *s)
{
    return s->size < s->capacity ? 0 : s->min_count;
}

static int64_t cbs_spread(const Cbs *s)
{
    return (s->size ? s->max_count : 0) - cbs_min(s);
}

/* max_entry(): the largest count, smallest row on ties; -1 if empty. */
static int32_t cbs_max_entry(const Cbs *s)
{
    if (s->size == 0) {
        return -1;
    }
    const Slot *slot = map_find(&s->counts, s->max_count);
    int32_t best = -1;
    for (int32_t e = s->buckets[slot->value].head; e >= 0;
         e = s->entries[e].next) {
        if (best < 0 || s->entries[e].row < s->entries[best].row) {
            best = e;
        }
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* MT19937 as python's random.Random (Modules/_randommodule.c): the     */
/* 624 state words and the index of getstate()'s 625-int tuple.        */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int index;
    int drawn;               /* any draw this run: the state changed */
} Mt;

/* genrand_uint32 */
static uint32_t mt_uint32(Mt *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *s = mt->state;
    uint32_t y;
    if (mt->index >= MT_N) {
        int k;
        for (k = 0; k < MT_N - MT_M; k++) {
            y = (s[k] & 0x80000000U) | (s[k + 1] & 0x7fffffffU);
            s[k] = s[k + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; k < MT_N - 1; k++) {
            y = (s[k] & 0x80000000U) | (s[k + 1] & 0x7fffffffU);
            s[k] = s[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (s[MT_N - 1] & 0x80000000U) | (s[0] & 0x7fffffffU);
        s[MT_N - 1] = s[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt->index = 0;
    }
    y = s[mt->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* init_genrand + init_by_array: random.Random(seed) for an int seed,
 * whose key is abs(seed)'s 32-bit words, least significant first (one
 * word for 0).  The kernel takes abs(seed) < 2**64: at most two words. */
static void mt_seed(Mt *mt, uint64_t magnitude)
{
    uint32_t key[2] = {(uint32_t)magnitude, (uint32_t)(magnitude >> 32)};
    size_t key_length = magnitude >> 32 ? 2 : 1;
    uint32_t *s = mt->state;
    size_t i, j, k;
    s[0] = 19650218U;
    for (i = 1; i < MT_N; i++) {
        s[i] = 1812433253U * (s[i - 1] ^ (s[i - 1] >> 30)) + (uint32_t)i;
    }
    i = 1;
    j = 0;
    for (k = MT_N > key_length ? MT_N : key_length; k; k--) {
        s[i] = (s[i] ^ ((s[i - 1] ^ (s[i - 1] >> 30)) * 1664525U))
               + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
        if (j >= key_length) {
            j = 0;
        }
    }
    for (k = MT_N - 1; k; k--) {
        s[i] = (s[i] ^ ((s[i - 1] ^ (s[i - 1] >> 30)) * 1566083941U))
               - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
    }
    s[0] = 0x80000000U;
    mt->index = MT_N;
    mt->drawn = 0;
}

/* random.random(): a 53-bit float in [0, 1) from two draws */
static double mt_random(Mt *mt)
{
    uint32_t a = mt_uint32(mt) >> 5;
    uint32_t b = mt_uint32(mt) >> 6;
    mt->drawn = 1;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* simulator state                                                      */
/* ------------------------------------------------------------------ */

/* One TWiCe entry; `born` is the checkpoint count at insertion, so its
 * life is checkpoints - born.  Free entries chain through `count`. */
typedef struct {
    int64_t count, born;
} TwEntry;

/* One CBT tree node; left/right are node indices, -1 for a leaf. */
typedef struct {
    int64_t lo, hi, count, left, right;
} Node;

typedef struct {
    int64_t arrival, row;
    int32_t core;
    int32_t is_write;
} Request;

/* One CountingBloomFilter of BlockHammer's pair. */
typedef struct {
    int64_t *counters;       /* the filter's own array('q'), in place */
    int64_t size, total;
    uint64_t *seeds;         /* premixed probe seeds (_probe_seeds) */
    int64_t num_seeds;
    int64_t *cells;          /* this ACT's probe indices */
} Cbf;

typedef struct {
    /* wiring */
    int64_t channel, faw, scheduler;
    /* BankTimingModel + controller */
    int has_open;
    int64_t open_row, ready, last_act;
    int64_t act_count, pre_count, access_count, refresh_blocks;
    int64_t consecutive_hits, rfm_stall, refresh_stall;
    int64_t trp, tras, trfc, trfm;
    /* AutoRefreshEngine */
    int64_t next_tick, trefi, rows_per_group, num_groups, cursor, ticks;
    /* queue + per-core occupancy */
    Request *queue;
    size_t qlen, qcap;
    int64_t *occupancy;
    int scheduled;
    int64_t energy[EN_COUNT];
    /* scheme: the BF_SCHEME.. fields (see the enum) */
    int scheme;
    int64_t stats[ST_COUNT];
    int64_t scheme_rows, capacity, threshold, interval, next_at, split;
    int64_t delay, blast_radius, wrap_window, counter_bits, adaptive_th;
    int64_t plus;
    /* Mithril and Graphene: the CbS table */
    Cbs cbs;
    int64_t max_spread_seen;
    /* BlockHammer: the filter pair, its rotation and the blacklist */
    Cbf cbf[2];
    Py_buffer cbf_views[2];
    int num_cbf_views;
    int64_t active, since_swap;
    Map release;             /* row -> release cycle (dict order) */
    uint64_t release_order;
    int64_t blacklisted_seen;
    /* Graphene: resets done and ARR triggers */
    int64_t resets;
    Map trigger;             /* row -> next trigger (dict order) */
    uint64_t trigger_order;
    /* PARA and PARFM: the scheme's random.Random; PARFM's sample */
    Mt *mt;
    double probability;
    int has_sample;
    int64_t sample, interval_acts;
    /* TWiCe: row -> entry index (dict order), entries, pruning */
    Map twice;
    uint64_t twice_order;
    TwEntry *entries;
    int64_t num_entries, entry_capacity, free_entry;
    int64_t checkpoints, max_entries_seen, pruned;
    double prune_rate;
    int64_t *doomed;
    /* CBT: the tree (node 0 is the root) and its refresh histogram */
    Node *nodes;
    int64_t num_nodes, node_capacity, counters_used;
    int64_t *histogram;
    int64_t histogram_len, histogram_capacity;
    /* BankController._apply_arr */
    int64_t trc_arr, arr_stall;
    /* RfmIssueLogic */
    int has_rfm, mrr_gated;
    int64_t raa_th, raa, rfm_issued, rfm_elided, mrr_reads;
    /* HammerModel */
    int has_hammer;
    Hammer hammer;
} Bank;

typedef struct {
    const int64_t *gap, *bank, *row;
    const uint8_t *write;
    Py_buffer views[4];
    int num_views;
    int64_t total, mlp;
    int64_t index, outstanding, next_issue, reads, writes;
    int64_t last_completion, served;
    int stalled;
} Core;

typedef struct {
    int64_t window, tfaw;
    int64_t *recent;         /* ring buffer, oldest at head */
    int64_t head, count;
} Faw;

typedef struct {
    int is_bliss;
    int64_t threshold, cycles;
    int has_last;
    int64_t last_core, streak;
    int64_t *until;          /* per core; -1 = absent */
    uint8_t *listed;         /* per core: has a blacklist entry */
    int64_t *order;          /* cores in blacklist insertion order */
    int64_t num_listed;
} Scheduler;

typedef struct {
    int64_t cycle, low;      /* low = seq << LOW_BITS | kind | ident */
} Event;

/* One distinct PARA/PARFM seed of the run, seeded once. */
typedef struct {
    uint64_t magnitude;
    Mt mt;
} Seeded;

struct Ctx {
    jmp_buf fail;
    int64_t num_banks, num_cores, num_channels, num_faws, num_schedulers;
    Seeded *seeded;
    int64_t num_seeded;
    int64_t cfg[CF_COUNT];
    int64_t seq, row_hits, row_misses;
    Bank *banks;
    Core *cores;
    int64_t *bus_free;
    Faw *faws;
    Scheduler *schedulers;
    Event *heap;
    size_t heap_len, heap_cap;
};

static void fail_nomem(Ctx *ctx)
{
    PyErr_NoMemory();
    longjmp(ctx->fail, 1);
}

static void *ctx_calloc(Ctx *ctx, size_t n, size_t size)
{
    void *block = calloc(n ? n : 1, size);
    if (block == NULL) {
        fail_nomem(ctx);
    }
    return block;
}

static void ctx_free(Ctx *ctx)
{
    if (ctx->banks != NULL) {
        for (int64_t i = 0; i < ctx->num_banks; i++) {
            Bank *b = &ctx->banks[i];
            free(b->queue);
            free(b->occupancy);
            free(b->cbs.entries);
            free(b->cbs.buckets);
            free(b->cbs.rows.slots);
            free(b->cbs.counts.slots);
            free(b->hammer.levels.slots);
            free(b->hammer.flips);
            for (int f = 0; f < 2; f++) {
                free(b->cbf[f].seeds);
                free(b->cbf[f].cells);
            }
            for (int v = 0; v < b->num_cbf_views; v++) {
                PyBuffer_Release(&b->cbf_views[v]);
            }
            free(b->release.slots);
            free(b->trigger.slots);
            free(b->mt);
            free(b->twice.slots);
            free(b->entries);
            free(b->doomed);
            free(b->nodes);
            free(b->histogram);
        }
    }
    if (ctx->cores != NULL) {
        for (int64_t i = 0; i < ctx->num_cores; i++) {
            for (int v = 0; v < ctx->cores[i].num_views; v++) {
                PyBuffer_Release(&ctx->cores[i].views[v]);
            }
        }
    }
    if (ctx->faws != NULL) {
        for (int64_t i = 0; i < ctx->num_faws; i++) {
            free(ctx->faws[i].recent);
        }
    }
    if (ctx->schedulers != NULL) {
        for (int64_t i = 0; i < ctx->num_schedulers; i++) {
            free(ctx->schedulers[i].until);
            free(ctx->schedulers[i].listed);
            free(ctx->schedulers[i].order);
        }
    }
    free(ctx->seeded);
    free(ctx->banks);
    free(ctx->cores);
    free(ctx->bus_free);
    free(ctx->faws);
    free(ctx->schedulers);
    free(ctx->heap);
    free(ctx);
}

/* ------------------------------------------------------------------ */
/* event heap: binary min-heap on (cycle, low)                          */
/* ------------------------------------------------------------------ */

static int event_less(const Event *a, const Event *b)
{
    return a->cycle < b->cycle || (a->cycle == b->cycle && a->low < b->low);
}

static void push(Ctx *ctx, int64_t cycle, int kind, int64_t ident)
{
    int64_t seq = ++ctx->seq;
    if (seq >= SEQ_LIMIT) {
        PyErr_Format(PyExc_OverflowError,
                     "event sequence exceeded %lld (heap-key seq field)",
                     (long long)SEQ_LIMIT);
        longjmp(ctx->fail, 1);
    }
    if (ctx->heap_len == ctx->heap_cap) {
        size_t capacity = ctx->heap_cap ? ctx->heap_cap * 2 : 256;
        Event *grown = realloc(ctx->heap, capacity * sizeof(Event));
        if (grown == NULL) {
            fail_nomem(ctx);
        }
        ctx->heap = grown;
        ctx->heap_cap = capacity;
    }
    Event event;
    event.cycle = cycle;
    event.low = (seq << LOW_BITS) | ((int64_t)kind << IDENT_BITS) | ident;
    size_t i = ctx->heap_len++;
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!event_less(&event, &ctx->heap[parent])) {
            break;
        }
        ctx->heap[i] = ctx->heap[parent];
        i = parent;
    }
    ctx->heap[i] = event;
}

static Event pop(Ctx *ctx)
{
    Event top = ctx->heap[0];
    Event last = ctx->heap[--ctx->heap_len];
    size_t n = ctx->heap_len;
    size_t i = 0;
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && event_less(&ctx->heap[child + 1],
                                        &ctx->heap[child])) {
            child++;
        }
        if (!event_less(&ctx->heap[child], &last)) {
            break;
        }
        ctx->heap[i] = ctx->heap[child];
        i = child;
    }
    if (n) {
        ctx->heap[i] = last;
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* controller pieces                                                    */
/* ------------------------------------------------------------------ */

/* BankTimingModel.block_for */
static void block_for(Bank *b, int64_t cycle, int64_t duration)
{
    int64_t start = cycle > b->ready ? cycle : b->ready;
    if (b->has_open) {
        int64_t earliest = b->last_act + b->tras;
        start = (start > earliest ? start : earliest) + b->trp;
        b->has_open = 0;
        b->pre_count++;
    }
    b->ready = start + duration;
    b->refresh_blocks++;
}

/* BankController.advance_refresh (caller checked a tick is due) */
static void advance_refresh(Ctx *ctx, Bank *b, int64_t cycle)
{
    while (cycle >= b->next_tick) {
        int64_t tick = b->next_tick;
        int64_t first = b->cursor * b->rows_per_group;
        int64_t last = first + b->rows_per_group - 1;
        b->cursor = (b->cursor + 1) % b->num_groups;
        b->next_tick += b->trefi;
        b->ticks++;
        int64_t before = b->ready;
        block_for(b, tick, b->trfc);
        b->refresh_stall += b->ready - (before > tick ? before : tick);
        if (b->has_hammer) {
            hammer_refresh_range(ctx, &b->hammer, first, last);
        }
        b->energy[EN_AUTO_REFRESHES]++;
    }
}

/* MithrilScheme.on_activate (+ MithrilTable.record_activation) */
static void mithril_activate(Ctx *ctx, Bank *b, int64_t row)
{
    b->stats[ST_ACTS_OBSERVED]++;
    cbs_observe(ctx, &b->cbs, row);
    int64_t spread = cbs_spread(&b->cbs);
    if (spread > b->max_spread_seen) {
        b->max_spread_seen = spread;
    }
    if (b->wrap_window >= 0 && spread >= b->wrap_window) {
        PyErr_Format(PyExc_OverflowError,
                     "counter spread %lld exceeds wrapping window %lld; "
                     "counter_bits=%lld too small",
                     (long long)spread, (long long)b->wrap_window,
                     (long long)b->counter_bits);
        longjmp(ctx->fail, 1);
    }
}

/* scheme.rfm_needed_flag(): the Mithril+ MRR flag */
static int rfm_needed_flag(Bank *b)
{
    if (b->scheme != SCHEME_MITHRIL) {
        return 1;
    }
    b->stats[ST_MRR_READS]++;
    if (!b->plus) {
        return 1;
    }
    return cbs_spread(&b->cbs) > b->adaptive_th;
}

/* The in-bank neighbours of `aggressor` up to `radius` rows away,
 * nearest first, the lower one first: the victim lists of Mithril,
 * PARFM, Graphene and TWiCe. */
static int64_t neighbours(int64_t *victims, int64_t aggressor,
                          int64_t radius, int64_t rows)
{
    int64_t n = 0;
    for (int64_t offset = 1; offset <= radius; offset++) {
        for (int sign = -1; sign <= 1; sign += 2) {
            int64_t victim = aggressor + sign * offset;
            if (0 <= victim && victim < rows) {
                victims[n++] = victim;
            }
        }
    }
    return n;
}

/* BankController._apply_rfm with MithrilScheme.on_rfm and
 * ParfmScheme.on_rfm inline */
static void apply_rfm(Ctx *ctx, Bank *b)
{
    b->energy[EN_RFM_COMMANDS]++;
    int64_t victims[2 * 64];
    int64_t num_victims = 0;
    if (b->scheme == SCHEME_PARFM) {
        b->stats[ST_RFMS_RECEIVED]++;
        if (b->has_sample) {
            num_victims = neighbours(victims, b->sample, b->blast_radius,
                                     b->scheme_rows);
            b->stats[ST_PREVENTIVE_ROWS] += num_victims;
        }
        b->has_sample = 0;
        b->interval_acts = 0;
    } else if (b->scheme == SCHEME_MITHRIL) {
        Cbs *s = &b->cbs;
        b->stats[ST_RFMS_RECEIVED]++;
        if (b->adaptive_th && cbs_spread(s) <= b->adaptive_th) {
            b->stats[ST_RFMS_SKIPPED]++;
        } else {
            int32_t top = cbs_max_entry(s);
            if (top >= 0) {
                int64_t aggressor = s->entries[top].row;
                int64_t current = s->entries[top].count;
                int64_t target = cbs_min(s);
                if (target < current) {   /* demote_to_min */
                    cbs_move(ctx, s, top, current, target);
                }
                num_victims = neighbours(victims, aggressor,
                                         b->blast_radius, b->scheme_rows);
                b->stats[ST_PREVENTIVE_ROWS] += num_victims;
            }
        }
    }
    int64_t before = b->ready;
    block_for(b, b->ready, b->trfm);
    b->rfm_stall += b->ready - before;
    b->energy[EN_PREVENTIVE_ROWS] += num_victims;
    if (b->has_hammer) {
        for (int64_t i = 0; i < num_victims; i++) {
            hammer_refresh_row(&b->hammer, victims[i]);
        }
    }
}

/* BankController._apply_arr's stall and accounting for n victims */
static void arr_stall(Bank *b, int64_t n)
{
    b->stats[ST_ARR_REQUESTS]++;
    int64_t before = b->ready;
    block_for(b, b->ready, b->trc_arr * n);
    b->arr_stall += b->ready - before;
    b->energy[EN_PREVENTIVE_ROWS] += n;
}

/* BankController._apply_arr */
static void apply_arr(Bank *b, const int64_t *victims, int64_t n)
{
    arr_stall(b, n);
    if (b->has_hammer) {
        for (int64_t i = 0; i < n; i++) {
            hammer_refresh_row(&b->hammer, victims[i]);
        }
    }
}

/* BankController._apply_arr for the victims first..last */
static void apply_arr_range(Ctx *ctx, Bank *b, int64_t first, int64_t last)
{
    arr_stall(b, last - first + 1);
    if (b->has_hammer) {
        hammer_refresh_range(ctx, &b->hammer, first, last);
    }
}

/* GrapheneScheme.on_activate (+ _maybe_reset), its ARR applied */
static void graphene_activate(Ctx *ctx, Bank *b, int64_t row, int64_t cycle)
{
    b->stats[ST_ACTS_OBSERVED]++;
    if (cycle >= b->next_at) {
        cbs_reset(&b->cbs);
        map_clear(&b->trigger);
        b->resets++;
        /* while next_reset <= cycle: next_reset += interval */
        b->next_at += ((cycle - b->next_at) / b->interval + 1) * b->interval;
    }
    int32_t e = cbs_observe(ctx, &b->cbs, row);
    int64_t estimate = b->cbs.entries[e].count;
    Slot *slot = map_find(&b->trigger, row);
    int64_t trigger = slot != NULL ? slot->value : b->threshold;
    if (estimate < trigger) {
        return;
    }
    if (slot == NULL) {
        slot = map_insert(ctx, &b->trigger, row);
        slot->order = b->trigger_order++;
    }
    slot->value = trigger + b->threshold;
    int64_t victims[2];
    int64_t n = neighbours(victims, row, 1, b->scheme_rows);
    b->stats[ST_PREVENTIVE_ROWS] += n;
    if (n) {
        apply_arr(b, victims, n);
    }
}

/* ParaScheme.on_activate, its ARR applied */
static void para_activate(Bank *b, int64_t row)
{
    b->stats[ST_ACTS_OBSERVED]++;
    if (mt_random(b->mt) >= b->probability) {
        return;
    }
    int64_t side = mt_random(b->mt) < 0.5 ? -1 : 1;
    int64_t victim = row + side;
    if (victim < 0 || victim >= b->scheme_rows) {
        victim = row - side;
    }
    b->stats[ST_PREVENTIVE_ROWS]++;
    apply_arr(b, &victim, 1);
}

/* ParfmScheme.on_activate: reservoir-sample one row per RFM interval */
static void parfm_activate(Bank *b, int64_t row)
{
    b->stats[ST_ACTS_OBSERVED]++;
    b->interval_acts++;
    if (mt_random(b->mt) < 1.0 / (double)b->interval_acts) {
        b->has_sample = 1;
        b->sample = row;
    }
}

static int64_t twice_new_entry(Ctx *ctx, Bank *b)
{
    if (b->free_entry >= 0) {
        int64_t e = b->free_entry;
        b->free_entry = b->entries[e].count;
        return e;
    }
    if (b->num_entries == b->entry_capacity) {
        int64_t capacity = b->entry_capacity ? b->entry_capacity * 2 : 16;
        TwEntry *grown = realloc(b->entries, capacity * sizeof(TwEntry));
        int64_t *doomed = realloc(b->doomed, capacity * sizeof(int64_t));
        if (grown != NULL) {
            b->entries = grown;
        }
        if (doomed != NULL) {
            b->doomed = doomed;
        }
        if (grown == NULL || doomed == NULL) {
            fail_nomem(ctx);
        }
        b->entry_capacity = capacity;
    }
    return b->num_entries++;
}

/* Drop the entry in `slot` (free-listed). */
static void twice_remove(Bank *b, Slot *slot)
{
    b->entries[slot->value].count = b->free_entry;
    b->free_entry = slot->value;
    map_delete(&b->twice, slot);
}

/* TwiceScheme._checkpoint: at each tREFI passed every entry ages one
 * interval, and those below the pruning rate are dropped. */
static void twice_checkpoint(Bank *b, int64_t cycle)
{
    while (cycle >= b->next_at) {
        b->next_at += b->interval;
        b->checkpoints++;
        if (b->twice.size == 0) {
            continue;
        }
        /* collect, then delete: a backward shift during the scan
         * could skip a slot */
        int64_t n = 0;
        for (size_t i = 0; i <= b->twice.mask; i++) {
            const Slot *slot = &b->twice.slots[i];
            if (slot->key == EMPTY_KEY) {
                continue;
            }
            const TwEntry *entry = &b->entries[slot->value];
            if ((double)entry->count
                < b->prune_rate * (double)(b->checkpoints - entry->born)) {
                b->doomed[n++] = slot->key;
            }
        }
        for (int64_t i = 0; i < n; i++) {
            twice_remove(b, map_find(&b->twice, b->doomed[i]));
        }
        b->pruned += n;
    }
}

/* TwiceScheme.on_activate, its ARR applied */
static void twice_activate(Ctx *ctx, Bank *b, int64_t row, int64_t cycle)
{
    b->stats[ST_ACTS_OBSERVED]++;
    twice_checkpoint(b, cycle);
    Slot *slot = map_find(&b->twice, row);
    if (slot == NULL) {
        int64_t e = twice_new_entry(ctx, b);
        b->entries[e].count = 0;
        b->entries[e].born = b->checkpoints;
        slot = map_insert(ctx, &b->twice, row);
        slot->value = e;
        slot->order = b->twice_order++;
        if ((int64_t)b->twice.size > b->max_entries_seen) {
            b->max_entries_seen = (int64_t)b->twice.size;
        }
    }
    if (++b->entries[slot->value].count < b->threshold) {
        return;
    }
    /* ARR: refresh the victims and retire the entry */
    twice_remove(b, slot);
    int64_t victims[2];
    int64_t n = neighbours(victims, row, 1, b->scheme_rows);
    b->stats[ST_PREVENTIVE_ROWS] += n;
    if (n) {
        apply_arr(b, victims, n);
    }
}

static int64_t cbt_new_node(Ctx *ctx, Bank *b, int64_t lo, int64_t hi,
                            int64_t count)
{
    if (b->num_nodes == b->node_capacity) {
        int64_t capacity = b->node_capacity ? b->node_capacity * 2 : 16;
        Node *grown = realloc(b->nodes, capacity * sizeof(Node));
        if (grown == NULL) {
            fail_nomem(ctx);
        }
        b->nodes = grown;
        b->node_capacity = capacity;
    }
    Node *node = &b->nodes[b->num_nodes];
    node->lo = lo;
    node->hi = hi;
    node->count = count;
    node->left = -1;
    node->right = -1;
    return b->num_nodes++;
}

/* CbtScheme._find_leaf */
static int64_t cbt_leaf(const Bank *b, int64_t row)
{
    int64_t node = 0;
    while (b->nodes[node].left >= 0) {
        int64_t left = b->nodes[node].left;
        node = row <= b->nodes[left].hi ? left : b->nodes[node].right;
    }
    return node;
}

/* CbtScheme.on_activate (+ _maybe_split), its range ARR applied */
static void cbt_activate(Ctx *ctx, Bank *b, int64_t row)
{
    b->stats[ST_ACTS_OBSERVED]++;
    int64_t leaf = cbt_leaf(b, row);
    int64_t count = ++b->nodes[leaf].count;
    int64_t lo = b->nodes[leaf].lo, hi = b->nodes[leaf].hi;
    if (hi > lo && count >= b->split && b->counters_used < b->capacity) {
        /* both children inherit the count */
        int64_t mid = (lo + hi) / 2;
        int64_t left = cbt_new_node(ctx, b, lo, mid, count);
        int64_t right = cbt_new_node(ctx, b, mid + 1, hi, count);
        b->nodes[leaf].left = left;
        b->nodes[leaf].right = right;
        b->counters_used++;
        leaf = row <= mid ? left : right;
        lo = b->nodes[leaf].lo;
        hi = b->nodes[leaf].hi;
    }
    if (count < b->threshold) {
        return;
    }
    b->nodes[leaf].count = 0;
    /* every row the leaf covers plus the two boundary neighbours */
    int64_t first = lo > 0 ? lo - 1 : 0;
    int64_t last = hi + 1 < b->scheme_rows ? hi + 1 : b->scheme_rows - 1;
    if (b->histogram_len == b->histogram_capacity) {
        int64_t capacity = b->histogram_capacity
                           ? b->histogram_capacity * 2 : 16;
        int64_t *grown = realloc(b->histogram, capacity * sizeof(int64_t));
        if (grown == NULL) {
            fail_nomem(ctx);
        }
        b->histogram = grown;
        b->histogram_capacity = capacity;
    }
    b->histogram[b->histogram_len++] = last - first + 1;
    b->stats[ST_PREVENTIVE_ROWS] += last - first + 1;
    apply_arr_range(ctx, b, first, last);
}

/* CountingBloomFilter._indices: splitmix64 probes of hash(row), which
 * is row itself for the rows kernel.pack admits. */
static void cbf_probe(Cbf *f, int64_t row)
{
    for (int64_t i = 0; i < f->num_seeds; i++) {
        uint64_t x = (uint64_t)row ^ f->seeds[i];
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        x ^= x >> 31;
        f->cells[i] = (int64_t)(x % (uint64_t)f->size);
    }
}

/* BlockHammerScheme.on_activate with
 * DualCountingBloomFilter.observe_and_estimate (+ _rotate) inline */
static void blockhammer_activate(Ctx *ctx, Bank *b, int64_t row,
                                 int64_t cycle)
{
    b->stats[ST_ACTS_OBSERVED]++;
    for (int f = 0; f < 2; f++) {
        Cbf *filter = &b->cbf[f];
        cbf_probe(filter, row);
        for (int64_t i = 0; i < filter->num_seeds; i++) {
            filter->counters[filter->cells[i]]++;
        }
        filter->total++;
    }
    if (++b->since_swap >= b->interval) {
        /* _rotate: the retired filter restarts empty, in place */
        Cbf *retired = &b->cbf[b->active];
        b->since_swap = 0;
        memset(retired->counters, 0, (size_t)retired->size * sizeof(int64_t));
        retired->total = 0;
        b->active = 1 - b->active;
    }
    const Cbf *filter = &b->cbf[b->active];
    int64_t estimate = filter->counters[filter->cells[0]];
    for (int64_t i = 1; i < filter->num_seeds; i++) {
        int64_t value = filter->counters[filter->cells[i]];
        if (value < estimate) {
            estimate = value;
        }
    }
    if (estimate >= b->threshold) {
        Slot *slot = map_find(&b->release, row);
        if (slot == NULL) {
            slot = map_insert(ctx, &b->release, row);
            slot->order = b->release_order++;
            b->blacklisted_seen++;
        }
        slot->value = cycle + b->delay;
        b->stats[ST_THROTTLE_EVENTS]++;
    }
}

/* BlockHammerScheme.throttle_release: the earliest ACT cycle for row */
static int64_t blacklist_release(const Bank *b, int64_t row, int64_t cycle)
{
    const Slot *slot = map_find(&b->release, row);
    return (slot == NULL || slot->value <= cycle) ? cycle : slot->value;
}

/* BankController.throttle_release: row hits involve no ACT */
static int64_t request_release(const Bank *b, const Request *request,
                               int64_t cycle)
{
    if (b->has_open && request->row == b->open_row) {
        return cycle;
    }
    return blacklist_release(b, request->row, cycle);
}

/* A candidate not yet released: schedulers skip it, and `earliest`
 * keeps the soonest release seen. */
static int throttled(const Bank *b, const Request *request, int64_t cycle,
                     int64_t *earliest)
{
    int64_t release = request_release(b, request, cycle);
    if (release <= cycle) {
        return 0;
    }
    if (release < *earliest) {
        *earliest = release;
    }
    return 1;
}

/* Schedule the bank's next serve at `at`, but no earlier than the
 * next cycle. */
static void wake_bank(Ctx *ctx, Bank *b, int64_t flat, int64_t at,
                      int64_t cycle)
{
    b->scheduled = 1;
    push(ctx, at > cycle + 1 ? at : cycle + 1, EV_BANK, flat);
}

/* ------------------------------------------------------------------ */
/* event handlers                                                       */
/* ------------------------------------------------------------------ */

static void try_issue(Ctx *ctx, int64_t core_id, int64_t cycle)
{
    Core *core = &ctx->cores[core_id];
    int64_t num_banks = ctx->cfg[CF_NUM_BANKS];
    while (core->index < core->total) {
        if (cycle < core->next_issue) {
            push(ctx, core->next_issue, EV_ISSUE, core_id);
            break;
        }
        int64_t index = core->index;
        int is_write = core->write[index] != 0;
        if (!is_write && core->outstanding >= core->mlp) {
            core->stalled = 1;
            break;
        }
        int64_t flat = core->bank[index] % num_banks;
        if (flat < 0) {
            flat += num_banks;   /* python floor-mod */
        }
        if (is_write) {
            core->writes++;
        } else {
            core->reads++;
            core->outstanding++;
        }
        int64_t step = 1;
        if (index + 1 < core->total && core->gap[index + 1] > 1) {
            step = core->gap[index + 1];
        }
        core->next_issue = cycle + step;
        core->index = index + 1;
        Bank *b = &ctx->banks[flat];
        if (b->qlen == b->qcap) {
            size_t capacity = b->qcap ? b->qcap * 2 : 16;
            Request *grown = realloc(b->queue, capacity * sizeof(Request));
            if (grown == NULL) {
                fail_nomem(ctx);
            }
            b->queue = grown;
            b->qcap = capacity;
        }
        Request *request = &b->queue[b->qlen++];
        request->arrival = cycle;
        request->row = core->row[index];
        request->core = (int32_t)core_id;
        request->is_write = is_write;
        b->occupancy[core_id]++;
        if (!b->scheduled) {
            b->scheduled = 1;
            push(ctx, b->ready > cycle ? b->ready : cycle, EV_BANK, flat);
        }
    }
}

static void complete(Ctx *ctx, int64_t core_id, int64_t cycle)
{
    Core *core = &ctx->cores[core_id];
    if (--core->outstanding < 0) {
        PyErr_Format(PyExc_RuntimeError,
                     "core %lld: read completion without outstanding read",
                     (long long)core_id);
        longjmp(ctx->fail, 1);
    }
    if (core->stalled) {
        core->stalled = 0;
        try_issue(ctx, core_id, cycle);
    }
}

static void bank_event(Ctx *ctx, int64_t flat, int64_t cycle)
{
    const int64_t *cfg = ctx->cfg;
    Bank *b = &ctx->banks[flat];
    b->scheduled = 0;
    size_t qlen = b->qlen;
    if (qlen == 0) {
        return;
    }
    Scheduler *sched = &ctx->schedulers[b->scheduler];
    int throttles = b->scheme == SCHEME_BLOCKHAMMER;
    size_t index = 0;
    int contended = 0;
    if (qlen == 1) {
        if (throttles) {
            int64_t release = request_release(b, &b->queue[0], cycle);
            if (release > cycle) {
                wake_bank(ctx, b, flat, release, cycle);
                return;
            }
        }
    } else {
        /* Throttled candidates never beat a released one; with none
         * released, both schedulers abstain and the bank retries at
         * the earliest release (the scalar min((release, arrival))). */
        int found = 0;
        int64_t earliest = INT64_MAX;
        if (sched->is_bliss) {
            /* BlissScheduler.pick: (blacklisted, row miss) tiers, then
             * oldest, first index on ties */
            int best_tier = 4;
            int64_t best_arrival = 0;
            for (size_t i = 0; i < qlen; i++) {
                const Request *queued = &b->queue[i];
                if (throttles && throttled(b, queued, cycle, &earliest)) {
                    continue;
                }
                int tier = sched->until[queued->core] > cycle ? 2 : 0;
                if (!(b->has_open && queued->row == b->open_row)) {
                    tier++;
                }
                if (tier < best_tier
                    || (tier == best_tier && queued->arrival < best_arrival)) {
                    index = i;
                    best_tier = tier;
                    best_arrival = queued->arrival;
                }
            }
            found = best_tier < 4;
        } else {
            /* FrFcfsScheduler.pick: oldest row hit, else oldest miss */
            int64_t best_hit = -1, best_miss = -1;
            int64_t hit_arrival = 0, miss_arrival = 0;
            for (size_t i = 0; i < qlen; i++) {
                const Request *queued = &b->queue[i];
                if (throttles && throttled(b, queued, cycle, &earliest)) {
                    continue;
                }
                if (b->has_open && queued->row == b->open_row) {
                    if (best_hit < 0 || queued->arrival < hit_arrival) {
                        best_hit = (int64_t)i;
                        hit_arrival = queued->arrival;
                    }
                } else if (best_miss < 0 || queued->arrival < miss_arrival) {
                    best_miss = (int64_t)i;
                    miss_arrival = queued->arrival;
                }
            }
            found = best_hit >= 0 || best_miss >= 0;
            index = (size_t)(best_hit >= 0 ? best_hit : best_miss);
        }
        if (!found) {
            wake_bank(ctx, b, flat, earliest, cycle);
            return;
        }
        contended = (int64_t)qlen > b->occupancy[b->queue[index].core];
    }
    Request request = b->queue[index];
    memmove(&b->queue[index], &b->queue[index + 1],
            (qlen - index - 1) * sizeof(Request));
    b->qlen = qlen - 1;
    int64_t core_id = request.core;
    b->occupancy[core_id]--;

    /* ---- BankController.serve ---- */
    if (cycle >= b->next_tick) {
        advance_refresh(ctx, b, cycle);
    }
    int64_t row = request.row;
    int close_after;
    if (cfg[CF_POLICY] == POLICY_OPEN) {
        close_after = 0;
    } else if (cfg[CF_POLICY] == POLICY_CLOSED) {
        close_after = 1;
    } else {
        int64_t hits = (b->has_open && b->open_row == row)
                       ? b->consecutive_hits : 0;
        close_after = 1;
        if (hits < cfg[CF_BURST]) {
            for (size_t i = 0; i < b->qlen; i++) {
                if (b->queue[i].row == row) {
                    close_after = 0;
                    break;
                }
            }
        }
    }
    /* ---- BankTimingModel.serve_access ---- */
    int64_t start = cycle > b->ready ? cycle : b->ready;
    int activated = 0, precharged = 0, row_hit;
    int64_t column_issue;
    if (b->has_open && b->open_row == row) {
        row_hit = 1;
        column_issue = start;
    } else {
        row_hit = 0;
        if (b->has_open) {
            int64_t earliest_pre = b->last_act + cfg[CF_TRAS];
            if (earliest_pre > start) {
                start = earliest_pre;
            }
            start += cfg[CF_TRP];
            precharged = 1;
            b->pre_count++;
        }
        int64_t act_cycle = start;
        if (throttles) {
            /* serve's act_not_before: no row-hit exemption here */
            int64_t act_not_before = blacklist_release(b, row, cycle);
            if (act_not_before > act_cycle) {
                act_cycle = act_not_before;
            }
        }
        if (b->last_act + cfg[CF_TRC] > act_cycle) {
            act_cycle = b->last_act + cfg[CF_TRC];
        }
        if (b->faw >= 0) {
            Faw *faw = &ctx->faws[b->faw];
            if (faw->count >= faw->window) {
                int64_t faw_ready = faw->recent[faw->head] + faw->tfaw;
                if (faw_ready > act_cycle) {
                    act_cycle = faw_ready;
                }
                faw->recent[faw->head] = act_cycle;
                faw->head = (faw->head + 1) % faw->window;
            } else {
                faw->recent[(faw->head + faw->count) % faw->window] =
                    act_cycle;
                faw->count++;
            }
        }
        b->last_act = act_cycle;
        b->act_count++;
        activated = 1;
        b->has_open = 1;
        b->open_row = row;
        column_issue = act_cycle + cfg[CF_TRCD];
    }
    int64_t data_start = column_issue + cfg[CF_TCL];
    int64_t *bus_free = &ctx->bus_free[b->channel];
    if (*bus_free > data_start) {
        data_start = *bus_free;
    }
    int64_t data_cycle = data_start + cfg[CF_TBL];
    b->access_count++;
    if (close_after) {
        int64_t pre_at = b->last_act + cfg[CF_TRAS];
        if (column_issue > pre_at) {
            pre_at = column_issue;
        }
        b->ready = pre_at + cfg[CF_TRP];
        b->has_open = 0;
        b->pre_count++;
        precharged = 1;
    } else {
        b->ready = column_issue + cfg[CF_TBL];
    }
    *bus_free = data_cycle;
    if (row_hit) {
        b->consecutive_hits++;
        ctx->row_hits++;
    } else {
        b->consecutive_hits = 1;
        ctx->row_misses++;
    }
    b->energy[request.is_write ? EN_WRITES : EN_READS]++;
    if (activated) {
        /* ---- BankController._on_activated ---- */
        b->energy[EN_ACTS]++;
        if (precharged) {
            b->energy[EN_PRES]++;
        }
        if (b->has_hammer) {
            hammer_activate(ctx, &b->hammer, row, start);
        }
        if (b->scheme == SCHEME_MITHRIL) {
            mithril_activate(ctx, b, row);
        } else if (b->scheme == SCHEME_BLOCKHAMMER) {
            blockhammer_activate(ctx, b, row, start);
        } else if (b->scheme == SCHEME_GRAPHENE) {
            graphene_activate(ctx, b, row, start);
        } else if (b->scheme == SCHEME_PARA) {
            para_activate(b, row);
        } else if (b->scheme == SCHEME_PARFM) {
            parfm_activate(b, row);
        } else if (b->scheme == SCHEME_TWICE) {
            twice_activate(ctx, b, row, start);
        } else if (b->scheme == SCHEME_CBT) {
            cbt_activate(ctx, b, row);
        } else {
            b->stats[ST_ACTS_OBSERVED]++;
        }
        if (b->has_rfm) {
            if (b->raa_th > 0 && ++b->raa >= b->raa_th) {
                b->raa = 0;
                int issue = 1;
                if (b->mrr_gated) {
                    b->mrr_reads++;
                    if (!rfm_needed_flag(b)) {
                        b->rfm_elided++;
                        issue = 0;
                    }
                }
                if (issue) {
                    b->rfm_issued++;
                    apply_rfm(ctx, b);
                }
            }
            if (b->mrr_reads && b->mrr_reads > b->energy[EN_MRR_COMMANDS]) {
                b->energy[EN_MRR_COMMANDS] = b->mrr_reads;
            }
        }
    }
    /* ---- BlissScheduler.on_served ---- */
    if (contended && sched->is_bliss) {
        if (sched->has_last && core_id == sched->last_core) {
            sched->streak++;
        } else {
            sched->has_last = 1;
            sched->last_core = core_id;
            sched->streak = 1;
        }
        if (sched->streak >= sched->threshold) {
            if (!sched->listed[core_id]) {
                sched->listed[core_id] = 1;
                sched->order[sched->num_listed++] = core_id;
            }
            sched->until[core_id] = cycle + sched->cycles;
            sched->streak = 0;
        }
    }
    /* ---- completion + rescheduling ---- */
    if (!request.is_write) {
        push(ctx, data_cycle, EV_COMPLETE, core_id);
    }
    Core *core = &ctx->cores[core_id];
    core->served++;
    if (data_cycle > core->last_completion) {
        core->last_completion = data_cycle;
    }
    if (qlen > 1) {
        wake_bank(ctx, b, flat, b->ready, cycle);
    }
}

/* ------------------------------------------------------------------ */
/* input                                                                */
/* ------------------------------------------------------------------ */

static int read_ints(PyObject *seq, int64_t *out, Py_ssize_t n,
                     const char *what)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL) {
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd ints", what, n);
        Py_DECREF(fast);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

/* One C-contiguous column of `itemsize`-byte items and `length`. */
static const void *column(Core *core, PyObject *array, Py_ssize_t itemsize,
                          Py_ssize_t length)
{
    Py_buffer *view = &core->views[core->num_views];
    if (PyObject_GetBuffer(array, view, PyBUF_C_CONTIGUOUS) < 0) {
        return NULL;
    }
    core->num_views++;
    if (view->itemsize != itemsize || view->len != itemsize * length) {
        PyErr_SetString(PyExc_ValueError, "trace column has the wrong "
                        "item size or length");
        return NULL;
    }
    return view->buf;
}

/* cores: [(gap_cycles, bank_index, row, is_write, length, mlp), ...] */
static int read_cores(Ctx *ctx, PyObject *cores)
{
    for (int64_t i = 0; i < ctx->num_cores; i++) {
        Core *core = &ctx->cores[i];
        PyObject *gap, *bank, *row, *write;
        long long length, mlp;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(cores, i), "OOOOLL", &gap,
                              &bank, &row, &write, &length, &mlp)) {
            return -1;
        }
        core->total = length;
        core->mlp = mlp;
        if ((core->gap = column(core, gap, 8, length)) == NULL
            || (core->bank = column(core, bank, 8, length)) == NULL
            || (core->row = column(core, row, 8, length)) == NULL
            || (core->write = column(core, write, 1, length)) == NULL) {
            return -1;
        }
    }
    return 0;
}

/* filter: (counters array('q'), premixed seeds); the counters are
 * borrowed writable for the run, never copied. */
static int read_cbf(Ctx *ctx, Bank *b, int f, PyObject *spec)
{
    Cbf *filter = &b->cbf[f];
    PyObject *counters, *seeds;
    if (!PyArg_ParseTuple(spec, "OO", &counters, &seeds)) {
        return -1;
    }
    Py_buffer *view = &b->cbf_views[b->num_cbf_views];
    if (PyObject_GetBuffer(counters, view,
                           PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0) {
        return -1;
    }
    b->num_cbf_views++;
    if (view->itemsize != 8 || view->len < 8) {
        PyErr_SetString(PyExc_ValueError, "filter counters must be a "
                        "non-empty int64 buffer");
        return -1;
    }
    filter->counters = view->buf;
    filter->size = view->len / 8;
    PyObject *fast = PySequence_Fast(seeds, "filter seeds");
    if (fast == NULL) {
        return -1;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    filter->num_seeds = n;
    filter->seeds = calloc(n ? n : 1, sizeof(uint64_t));
    filter->cells = calloc(n ? n : 1, sizeof(int64_t));
    if (filter->seeds == NULL || filter->cells == NULL) {
        Py_DECREF(fast);
        fail_nomem(ctx);
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        filter->seeds[i] = PyLong_AsUnsignedLongLong(
            PySequence_Fast_GET_ITEM(fast, i));
        if (filter->seeds[i] == (uint64_t)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "a filter needs probe seeds");
        return -1;
    }
    return 0;
}

/* The bank's generator as random.Random(seed) for seed = +-magnitude:
 * seeded once per distinct seed of the run, then copied. */
static void seed_mt(Ctx *ctx, Bank *b, uint64_t magnitude)
{
    int64_t k = 0;
    while (k < ctx->num_seeded && ctx->seeded[k].magnitude != magnitude) {
        k++;
    }
    if (k == ctx->num_seeded) {
        if (ctx->seeded == NULL) {
            ctx->seeded = ctx_calloc(ctx, (size_t)ctx->num_banks,
                                     sizeof(Seeded));
        }
        ctx->seeded[k].magnitude = magnitude;
        mt_seed(&ctx->seeded[k].mt, magnitude);
        ctx->num_seeded++;
    }
    b->mt = ctx_calloc(ctx, 1, sizeof(Mt));
    *b->mt = ctx->seeded[k].mt;
}

/* A bank's scheme input beyond its int fields, by scheme:
 *   BlockHammer  (filter, filter)
 *   PARA         (abs(seed), probability)
 *   PARFM        (abs(seed),)
 *   TWiCe        (prune_rate,)
 * and None for the others. */
static int read_extra(Ctx *ctx, Bank *b, PyObject *extra)
{
    PyObject *first, *second;
    unsigned long long magnitude;
    switch (b->scheme) {
    case SCHEME_BLOCKHAMMER:
        if (!PyArg_ParseTuple(extra, "OO", &first, &second)
            || read_cbf(ctx, b, 0, first) < 0
            || read_cbf(ctx, b, 1, second) < 0) {
            return -1;
        }
        map_alloc(ctx, &b->release, 16);
        return 0;
    case SCHEME_PARA:
        if (!PyArg_ParseTuple(extra, "Kd", &magnitude, &b->probability)) {
            return -1;
        }
        seed_mt(ctx, b, magnitude);
        return 0;
    case SCHEME_PARFM:
        if (!PyArg_ParseTuple(extra, "K", &magnitude)) {
            return -1;
        }
        seed_mt(ctx, b, magnitude);
        return 0;
    case SCHEME_TWICE:
        if (!PyArg_ParseTuple(extra, "d", &b->prune_rate)) {
            return -1;
        }
        map_alloc(ctx, &b->twice, 64);
        b->free_entry = -1;
        return 0;
    default:
        return 0;
    }
}

static int read_banks(Ctx *ctx, PyObject *banks, PyObject *extras)
{
    int64_t field[BF_COUNT];
    for (int64_t i = 0; i < ctx->num_banks; i++) {
        Bank *b = &ctx->banks[i];
        if (read_ints(PyList_GET_ITEM(banks, i), field, BF_COUNT,
                      "bank fields") < 0) {
            return -1;
        }
        int64_t scheme = field[BF_SCHEME];
        if (field[BF_CHANNEL] < 0 || field[BF_CHANNEL] >= ctx->num_channels
            || field[BF_FAW] >= ctx->num_faws
            || field[BF_SCHEDULER] < 0
            || field[BF_SCHEDULER] >= ctx->num_schedulers
            || field[BF_NUM_GROUPS] <= 0 || field[BF_TREFI] <= 0
            || scheme < SCHEME_NONE || scheme > SCHEME_CBT
            || field[BF_BLAST_RADIUS] > 64
            || ((scheme == SCHEME_GRAPHENE || scheme == SCHEME_TWICE)
                && field[BF_INTERVAL] <= 0)
            || (scheme == SCHEME_CBT && field[BF_SCHEME_ROWS] <= 0)) {
            PyErr_SetString(PyExc_ValueError, "bank fields out of range");
            return -1;
        }
        b->channel = field[BF_CHANNEL];
        b->faw = field[BF_FAW];
        b->scheduler = field[BF_SCHEDULER];
        b->trp = field[BF_TRP];
        b->tras = field[BF_TRAS];
        b->trfc = field[BF_TRFC];
        b->trfm = field[BF_TRFM];
        b->trc_arr = field[BF_TRC_ARR];
        b->next_tick = field[BF_NEXT_TICK];
        b->trefi = field[BF_TREFI];
        b->rows_per_group = field[BF_ROWS_PER_GROUP];
        b->num_groups = field[BF_NUM_GROUPS];
        b->last_act = -((int64_t)1 << 30);
        b->occupancy = ctx_calloc(ctx, ctx->num_cores, sizeof(int64_t));
        b->has_hammer = field[BF_HAMMER] != 0;
        if (b->has_hammer) {
            b->hammer.flip_th = field[BF_FLIP_TH];
            b->hammer.rows = field[BF_HAMMER_ROWS];
            map_alloc(ctx, &b->hammer.levels, 64);
        }
        b->has_rfm = field[BF_RFM] != 0;
        b->raa_th = field[BF_RAA_TH];
        b->mrr_gated = field[BF_MRR_GATED] != 0;
        b->scheme = (int)scheme;
        b->scheme_rows = field[BF_SCHEME_ROWS];
        b->capacity = field[BF_CAPACITY];
        b->threshold = field[BF_THRESHOLD];
        b->interval = field[BF_INTERVAL];
        b->next_at = field[BF_NEXT];
        b->split = field[BF_SPLIT];
        b->delay = field[BF_DELAY];
        b->blast_radius = field[BF_BLAST_RADIUS];
        b->wrap_window = field[BF_WRAP_WINDOW];
        b->counter_bits = field[BF_COUNTER_BITS];
        b->adaptive_th = field[BF_ADAPTIVE_TH];
        b->plus = field[BF_PLUS];
        if (b->scheme == SCHEME_MITHRIL || b->scheme == SCHEME_GRAPHENE) {
            Cbs *s = &b->cbs;
            s->capacity = b->capacity;
            s->free_entry = -1;
            s->free_bucket = -1;
            map_alloc(ctx, &s->rows, 64);
            map_alloc(ctx, &s->counts, 16);
        }
        if (b->scheme == SCHEME_GRAPHENE) {
            map_alloc(ctx, &b->trigger, 16);
        } else if (b->scheme == SCHEME_CBT) {
            b->counters_used = 1;
            cbt_new_node(ctx, b, 0, b->scheme_rows - 1, 0);
        }
        if (read_extra(ctx, b, PyList_GET_ITEM(extras, i)) < 0) {
            return -1;
        }
    }
    return 0;
}

/* faws: [(window, tfaw_cycles), ...]; schedulers: [(is_bliss,
 * blacklist_threshold, blacklist_cycles), ...] */
static int read_shared(Ctx *ctx, PyObject *faws, PyObject *schedulers)
{
    int64_t field[3];
    for (int64_t i = 0; i < ctx->num_faws; i++) {
        Faw *faw = &ctx->faws[i];
        if (read_ints(PyList_GET_ITEM(faws, i), field, 2, "faw") < 0) {
            return -1;
        }
        if (field[0] <= 0) {
            PyErr_SetString(PyExc_ValueError, "faw window must be >= 1");
            return -1;
        }
        faw->window = field[0];
        faw->tfaw = field[1];
        faw->recent = ctx_calloc(ctx, (size_t)faw->window, sizeof(int64_t));
    }
    for (int64_t i = 0; i < ctx->num_schedulers; i++) {
        Scheduler *sched = &ctx->schedulers[i];
        if (read_ints(PyList_GET_ITEM(schedulers, i), field, 3,
                      "scheduler") < 0) {
            return -1;
        }
        sched->is_bliss = field[0] != 0;
        sched->threshold = field[1];
        sched->cycles = field[2];
        sched->until = ctx_calloc(ctx, ctx->num_cores, sizeof(int64_t));
        sched->listed = ctx_calloc(ctx, ctx->num_cores, sizeof(uint8_t));
        sched->order = ctx_calloc(ctx, ctx->num_cores, sizeof(int64_t));
        for (int64_t c = 0; c < ctx->num_cores; c++) {
            sched->until[c] = -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* output                                                               */
/* ------------------------------------------------------------------ */

static PyObject *ints_tuple(const int64_t *values, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    if (tuple == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyLong_FromLongLong(values[i]);
        if (item == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, i, item);
    }
    return tuple;
}

static PyObject *optional_int(int present, int64_t value)
{
    if (!present) {
        Py_RETURN_NONE;
    }
    return PyLong_FromLongLong(value);
}

/* A python list of n ints (or floats) from values[0..n). */
static PyObject *number_list(const int64_t *values, size_t n, int as_float)
{
    PyObject *list = PyList_New((Py_ssize_t)n);
    if (list == NULL) {
        return NULL;
    }
    for (size_t i = 0; i < n; i++) {
        PyObject *item = as_float ? PyFloat_FromDouble((double)values[i])
                                  : PyLong_FromLongLong(values[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* A python dict {keys[i]: values[i]} (values ints, or floats) in
 * order; with values NULL, dict.fromkeys(keys). */
static PyObject *number_dict(const int64_t *keys, const int64_t *values,
                             size_t n, int as_float)
{
    PyObject *dict = PyDict_New();
    for (size_t i = 0; dict != NULL && i < n; i++) {
        PyObject *key = PyLong_FromLongLong(keys[i]);
        PyObject *value;
        if (values == NULL) {
            value = Py_None;
            Py_INCREF(value);
        } else {
            value = as_float ? PyFloat_FromDouble((double)values[i])
                             : PyLong_FromLongLong(values[i]);
        }
        if (key == NULL || value == NULL
            || PyDict_SetItem(dict, key, value) < 0) {
            Py_CLEAR(dict);
        }
        Py_XDECREF(key);
        Py_XDECREF(value);
    }
    return dict;
}

/* Keys and values of `map` in dict order, as two C arrays; with
 * `entries`, values are the entries' counts (caller frees both). */
static int ordered_items(const Map *map, const Entry *entries,
                         int64_t **keys, int64_t **values)
{
    Slot **ordered = map_ordered(map);
    *keys = malloc((map->size + 1) * sizeof(int64_t));
    *values = malloc((map->size + 1) * sizeof(int64_t));
    if (ordered == NULL || *keys == NULL || *values == NULL) {
        free(ordered);
        PyErr_NoMemory();
        return -1;
    }
    for (size_t i = 0; i < map->size; i++) {
        (*keys)[i] = ordered[i]->key;
        (*values)[i] = entries ? entries[ordered[i]->value].count
                               : ordered[i]->value;
    }
    free(ordered);
    return 0;
}

/* (disturbance {row: level} | None, flips [(cycle, row, level,
 *  aggressor)], max_level, max_row | None); the disturbance dict only
 *  with `full` */
static PyObject *hammer_out(const Hammer *h, int full)
{
    int64_t *rows = NULL, *levels = NULL;
    PyObject *out = NULL;
    PyObject *flips = PyList_New((Py_ssize_t)h->num_flips);
    if (flips == NULL
        || (full && ordered_items(&h->levels, NULL, &rows, &levels))) {
        goto done;
    }
    for (size_t i = 0; i < h->num_flips; i++) {
        const Flip *f = &h->flips[i];
        PyObject *item = Py_BuildValue("(LLdL)", (long long)f->cycle,
                                       (long long)f->row, (double)f->level,
                                       (long long)f->aggressor);
        if (item == NULL) {
            goto done;
        }
        PyList_SET_ITEM(flips, i, item);
    }
    out = Py_BuildValue(
        "(NOdN)",
        full ? number_dict(rows, levels, h->levels.size, 1)
             : Py_NewRef(Py_None),
        flips, (double)h->max_level,
        optional_int(h->has_max_row, h->max_row));
done:
    free(rows);
    free(levels);
    Py_XDECREF(flips);
    return out;
}

/* Heap order of the lazy max-heap: largest count, then smallest row. */
static int heap_cmp(const void *a, const void *b)
{
    const Entry *x = *(const Entry *const *)a;
    const Entry *y = *(const Entry *const *)b;
    if (x->count != y->count) {
        return x->count > y->count ? -1 : 1;
    }
    return (x->row > y->row) - (x->row < y->row);
}

/* [(-count, row)] for every entry, sorted: a valid heapq heap. */
static PyObject *cbs_heap(const Cbs *s)
{
    const Entry **sorted = malloc((s->size + 1) * sizeof(Entry *));
    if (sorted == NULL) {
        return PyErr_NoMemory();
    }
    size_t n = 0;
    for (size_t i = 0; i <= s->rows.mask; i++) {
        if (s->rows.slots[i].key != EMPTY_KEY) {
            sorted[n++] = &s->entries[s->rows.slots[i].value];
        }
    }
    qsort(sorted, n, sizeof(Entry *), heap_cmp);
    PyObject *heap = PyList_New((Py_ssize_t)n);
    for (size_t i = 0; heap != NULL && i < n; i++) {
        PyObject *item = Py_BuildValue("(LL)", -(long long)sorted[i]->count,
                                       (long long)sorted[i]->row);
        if (item == NULL) {
            Py_CLEAR(heap);
            break;
        }
        PyList_SET_ITEM(heap, i, item);
    }
    free(sorted);
    return heap;
}

/* (counts {row: count}, buckets {count: {row: None} oldest first},
 *  heap, min_count, total_observed, evictions): the CounterSummary's
 *  dicts in insertion order */
static PyObject *cbs_out(const Cbs *s)
{
    int64_t *rows = NULL, *counts = NULL, *bucket_keys = NULL;
    int64_t *bucket_index = NULL, *members = NULL;
    PyObject *out = NULL;
    PyObject *buckets = PyDict_New();
    if (buckets == NULL
        || ordered_items(&s->rows, s->entries, &rows, &counts)
        || ordered_items(&s->counts, NULL, &bucket_keys, &bucket_index)) {
        goto done;
    }
    members = malloc((s->size + 1) * sizeof(int64_t));
    if (members == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (size_t i = 0; i < s->counts.size; i++) {
        size_t n = 0;
        for (int32_t e = s->buckets[bucket_index[i]].head; e >= 0;
             e = s->entries[e].next) {
            members[n++] = s->entries[e].row;
        }
        PyObject *key = PyLong_FromLongLong(bucket_keys[i]);
        PyObject *bucket = number_dict(members, NULL, n, 0);
        int failed = key == NULL || bucket == NULL
                     || PyDict_SetItem(buckets, key, bucket) < 0;
        Py_XDECREF(key);
        Py_XDECREF(bucket);
        if (failed) {
            goto done;
        }
    }
    out = Py_BuildValue(
        "(NONLLL)", number_dict(rows, counts, s->rows.size, 0), buckets,
        cbs_heap(s),
        (long long)s->min_count, (long long)s->total_observed,
        (long long)s->evictions);
done:
    free(rows);
    free(counts);
    free(bucket_keys);
    free(bucket_index);
    free(members);
    Py_XDECREF(buckets);
    return out;
}

/* `map` as a python dict, in insertion order */
static PyObject *map_out(const Map *map)
{
    int64_t *keys = NULL, *values = NULL;
    PyObject *out = NULL;
    if (ordered_items(map, NULL, &keys, &values) == 0) {
        out = number_dict(keys, values, map->size, 0);
    }
    free(keys);
    free(values);
    return out;
}

/* random.Random's getstate()[1], or None when nothing was drawn */
static PyObject *mt_out(const Mt *mt)
{
    if (!mt->drawn) {
        Py_RETURN_NONE;
    }
    int64_t words[MT_N + 1];
    for (int k = 0; k < MT_N; k++) {
        words[k] = mt->state[k];
    }
    words[MT_N] = mt->index;
    return ints_tuple(words, MT_N + 1);
}

/* [(row, act_count, life)] of TWiCe's table, in dict order */
static PyObject *twice_out(const Bank *b)
{
    Slot **ordered = map_ordered(&b->twice);
    if (ordered == NULL) {
        return PyErr_NoMemory();
    }
    PyObject *list = PyList_New((Py_ssize_t)b->twice.size);
    for (size_t i = 0; list != NULL && i < b->twice.size; i++) {
        const TwEntry *entry = &b->entries[ordered[i]->value];
        PyObject *item = Py_BuildValue(
            "(LLL)", (long long)ordered[i]->key, (long long)entry->count,
            (long long)(b->checkpoints - entry->born));
        if (item == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, item);
    }
    free(ordered);
    return list;
}

/* [(lo, hi, count, left, right)] of CBT's nodes, the root first */
static PyObject *cbt_out(const Bank *b)
{
    PyObject *list = PyList_New((Py_ssize_t)b->num_nodes);
    for (int64_t i = 0; list != NULL && i < b->num_nodes; i++) {
        const Node *node = &b->nodes[i];
        PyObject *item = Py_BuildValue(
            "(LLLLL)", (long long)node->lo, (long long)node->hi,
            (long long)node->count, (long long)node->left,
            (long long)node->right);
        if (item == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* The scheme's tracker state, by scheme (None for `none`):
 *   Mithril      (cbs, max_spread_seen)
 *   BlockHammer  ((total, total), active, since_swap, release,
 *                 blacklisted_rows_seen); counters are already in place
 *   Graphene     (cbs, trigger, next_reset, resets)
 *   PARA         (random state | None,)
 *   PARFM        (random state | None, sample | None, interval_acts)
 *   TWiCe        (entries, next_checkpoint, max_entries_seen, pruned)
 *   CBT          (nodes, counters_used, refreshed rows histogram) */
static PyObject *tracker_out(const Bank *b)
{
    switch (b->scheme) {
    case SCHEME_MITHRIL:
        return Py_BuildValue("(NL)", cbs_out(&b->cbs),
                             (long long)b->max_spread_seen);
    case SCHEME_BLOCKHAMMER:
        return Py_BuildValue(
            "((LL)LLNL)", (long long)b->cbf[0].total,
            (long long)b->cbf[1].total, (long long)b->active,
            (long long)b->since_swap, map_out(&b->release),
            (long long)b->blacklisted_seen);
    case SCHEME_GRAPHENE:
        return Py_BuildValue("(NNLL)", cbs_out(&b->cbs),
                             map_out(&b->trigger), (long long)b->next_at,
                             (long long)b->resets);
    case SCHEME_PARA:
        return Py_BuildValue("(N)", mt_out(b->mt));
    case SCHEME_PARFM:
        return Py_BuildValue("(NNL)", mt_out(b->mt),
                             optional_int(b->has_sample, b->sample),
                             (long long)b->interval_acts);
    case SCHEME_TWICE:
        return Py_BuildValue("(NLLL)", twice_out(b), (long long)b->next_at,
                             (long long)b->max_entries_seen,
                             (long long)b->pruned);
    case SCHEME_CBT:
        return Py_BuildValue("(NLN)", cbt_out(b),
                             (long long)b->counters_used,
                             number_list(b->histogram,
                                         (size_t)b->histogram_len, 0));
    default:
        Py_RETURN_NONE;
    }
}

/* One bank: (open_row | None, timing, refresh, energy, stats, rfm,
 * hammer | None, tracker | None); see kernel.py's write-back.  Without
 * `full` the tracker is None and so is the hammer's disturbance dict. */
static PyObject *bank_out(const Bank *b, int full)
{
    int64_t timing[] = {
        b->ready, b->last_act, b->act_count, b->pre_count,
        b->access_count, b->refresh_blocks, b->consecutive_hits,
        b->rfm_stall, b->refresh_stall, b->arr_stall,
    };
    int64_t refresh[] = {b->next_tick, b->cursor, b->ticks};
    int64_t rfm[] = {b->raa, b->rfm_issued, b->rfm_elided, b->mrr_reads};
    PyObject *hammer;
    if (b->has_hammer) {
        hammer = hammer_out(&b->hammer, full);
    } else {
        Py_INCREF(Py_None);
        hammer = Py_None;
    }
    return Py_BuildValue(
        "(NNNNNNNN)",
        optional_int(b->has_open, b->open_row),
        ints_tuple(timing, sizeof timing / sizeof *timing),
        ints_tuple(refresh, 3),
        ints_tuple(b->energy, EN_COUNT),
        ints_tuple(b->stats, ST_COUNT),
        ints_tuple(rfm, 4),
        hammer,
        full ? tracker_out(b) : Py_NewRef(Py_None));
}

static PyObject *faw_out(const Faw *faw)
{
    PyObject *recent = PyTuple_New(faw->count);
    if (recent == NULL) {
        return NULL;
    }
    for (int64_t k = 0; k < faw->count; k++) {
        PyObject *item = PyLong_FromLongLong(
            faw->recent[(faw->head + k) % faw->window]);
        if (item == NULL) {
            Py_DECREF(recent);
            return NULL;
        }
        PyTuple_SET_ITEM(recent, k, item);
    }
    return recent;
}

/* (last_core | None, streak, [(core, until)] in dict order) */
static PyObject *scheduler_out(const Scheduler *s)
{
    PyObject *listed = PyList_New(s->num_listed);
    if (listed == NULL) {
        return NULL;
    }
    for (int64_t k = 0; k < s->num_listed; k++) {
        int64_t core = s->order[k];
        PyObject *pair = Py_BuildValue("(LL)", (long long)core,
                                       (long long)s->until[core]);
        if (pair == NULL) {
            Py_DECREF(listed);
            return NULL;
        }
        PyList_SET_ITEM(listed, k, pair);
    }
    return Py_BuildValue("(NLN)", optional_int(s->has_last, s->last_core),
                         (long long)s->streak, listed);
}

/* (seq, row_hits, row_misses, cores, banks, bus_free, faws, schedulers);
 * see bank_out for `full` */
static PyObject *build_output(Ctx *ctx, int full)
{
    PyObject *cores = PyList_New(ctx->num_cores);
    PyObject *banks = PyList_New(ctx->num_banks);
    PyObject *faws = PyList_New(ctx->num_faws);
    PyObject *schedulers = PyList_New(ctx->num_schedulers);
    PyObject *out = NULL;
    if (!cores || !banks || !faws || !schedulers) {
        goto done;
    }
    for (int64_t i = 0; i < ctx->num_cores; i++) {
        const Core *c = &ctx->cores[i];
        int64_t state[] = {
            c->index, c->outstanding, c->next_issue, c->stalled,
            c->reads, c->writes, c->last_completion, c->served,
        };
        PyObject *item = ints_tuple(state, 8);
        if (item == NULL) {
            goto done;
        }
        PyList_SET_ITEM(cores, i, item);
    }
    for (int64_t i = 0; i < ctx->num_banks; i++) {
        PyObject *item = bank_out(&ctx->banks[i], full);
        if (item == NULL) {
            goto done;
        }
        PyList_SET_ITEM(banks, i, item);
    }
    for (int64_t i = 0; i < ctx->num_faws; i++) {
        PyObject *item = faw_out(&ctx->faws[i]);
        if (item == NULL) {
            goto done;
        }
        PyList_SET_ITEM(faws, i, item);
    }
    for (int64_t i = 0; i < ctx->num_schedulers; i++) {
        PyObject *item = scheduler_out(&ctx->schedulers[i]);
        if (item == NULL) {
            goto done;
        }
        PyList_SET_ITEM(schedulers, i, item);
    }
    out = Py_BuildValue(
        "(LLLOONOO)", (long long)ctx->seq, (long long)ctx->row_hits,
        (long long)ctx->row_misses, cores, banks,
        ints_tuple(ctx->bus_free, ctx->num_channels), faws, schedulers);
done:
    Py_XDECREF(cores);
    Py_XDECREF(banks);
    Py_XDECREF(faws);
    Py_XDECREF(schedulers);
    return out;
}

/* ------------------------------------------------------------------ */
/* entry point                                                          */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(drain_doc,
"drain(config, cores, banks, num_channels, faws, schedulers, extras,\n"
"      full)\n"
"\n"
"Run a pristine covered system until its event heap is empty and\n"
"return its final state as plain ints, tuples and lists.  With full\n"
"false, each bank's tracker state and hammer disturbance dict come\n"
"back as None (nothing a SimulationResult reads).");

static PyObject *drain(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *config, *cores, *banks, *faws, *schedulers, *extras;
    Py_ssize_t num_channels;
    int full;
    if (!PyArg_ParseTuple(args, "OO!O!nO!O!O!p", &config, &PyList_Type,
                          &cores, &PyList_Type, &banks, &num_channels,
                          &PyList_Type, &faws, &PyList_Type, &schedulers,
                          &PyList_Type, &extras, &full)) {
        return NULL;
    }
    Ctx *ctx = calloc(1, sizeof(Ctx));
    if (ctx == NULL) {
        return PyErr_NoMemory();
    }
    if (setjmp(ctx->fail)) {
        ctx_free(ctx);
        return NULL;
    }
    if (read_ints(config, ctx->cfg, CF_COUNT, "config") < 0) {
        ctx_free(ctx);
        return NULL;
    }
    ctx->num_banks = ctx->cfg[CF_NUM_BANKS];
    ctx->num_cores = PyList_GET_SIZE(cores);
    ctx->num_channels = num_channels;
    ctx->num_faws = PyList_GET_SIZE(faws);
    ctx->num_schedulers = PyList_GET_SIZE(schedulers);
    ctx->seq = ctx->cfg[CF_SEQ];
    if (ctx->num_banks != PyList_GET_SIZE(banks)
        || ctx->num_banks != PyList_GET_SIZE(extras) || ctx->num_banks <= 0
        || ctx->num_banks > IDENT_MASK || ctx->num_cores > IDENT_MASK) {
        PyErr_SetString(PyExc_ValueError, "bad bank or core count");
        ctx_free(ctx);
        return NULL;
    }
    ctx->banks = ctx_calloc(ctx, ctx->num_banks, sizeof(Bank));
    ctx->cores = ctx_calloc(ctx, ctx->num_cores, sizeof(Core));
    ctx->bus_free = ctx_calloc(ctx, num_channels, sizeof(int64_t));
    ctx->faws = ctx_calloc(ctx, ctx->num_faws, sizeof(Faw));
    ctx->schedulers = ctx_calloc(ctx, ctx->num_schedulers, sizeof(Scheduler));
    if (read_cores(ctx, cores) < 0 || read_banks(ctx, banks, extras) < 0
        || read_shared(ctx, faws, schedulers) < 0) {
        ctx_free(ctx);
        return NULL;
    }
    /* run(): one issue event per core at cycle 0 */
    for (int64_t i = 0; i < ctx->num_cores; i++) {
        push(ctx, 0, EV_ISSUE, i);
    }
    while (ctx->heap_len) {
        Event event = pop(ctx);
        int kind = (int)((event.low >> IDENT_BITS) & 3);
        int64_t ident = event.low & IDENT_MASK;
        if (kind == EV_BANK) {
            bank_event(ctx, ident, event.cycle);
        } else if (kind == EV_ISSUE) {
            try_issue(ctx, ident, event.cycle);
        } else {
            complete(ctx, ident, event.cycle);
        }
    }
    PyObject *out = build_output(ctx, full);
    ctx_free(ctx);
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"drain", drain, METH_VARARGS, drain_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Native event drain for covered simulated systems.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
