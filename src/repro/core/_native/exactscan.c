/* exactscan.c — native exact-expansion subset scan (single translation unit).
 *
 * The kernel finds the lexicographic-best (h, mask) over every subset U of
 * an n-vertex graph (n <= 64, so every adjacency row is one packed uint64
 * word) with 1 <= |U| <= limit, by a depth-first branch-and-bound.  The
 * search decides vertices n-1 down to w one at a time (in or out); below w
 * it sweeps all 2^w low subsets at once.
 *
 * Node state.  I is the decided-in set (k = |I|), O the decided-out set and
 * F = {0..t-1} the free vertices.  The node carries cut(I, O) and, for each
 * free v, a_v = |N(v) ∩ I| and o_v = |N(v) ∩ O|; a decision updates only
 * the free neighbours of the decided vertex.
 *
 * Bound.  For U = I ∪ S with S ⊆ F and |S| = s,
 *     bnd(U) = cut(I, O) + Σ_{v∈F} a_v + Σ_{v∈S} (o_v - a_v) + e(S, F∖S),
 * and e(S, F∖S) >= 0, so bnd(U) >= LB(s) = cut + Σ_F a_v + (the s smallest
 * o_v - a_v).  The node is pruned when no s in [0, min(|F|, limit - k)]
 * meets the integer threshold thr[k+s] = floor(h_cap * d * (k+s)) + 1
 * (thr[0] = -1: the empty set is never a cut).  The deltas lie in [-d, d]
 * and are sorted by counting.  A pruned subset has bnd > floor(h_cap*d*s)+1,
 * so its ratio exceeds h_cap >= the final h: pruning changes no candidate
 * that can win, and the +1 keeps exact ties so the smallest minimizing mask
 * survives.
 *
 * Leaf.  With every vertex >= w decided,
 *     bnd(I ∪ J) = (cut + Σ_{v<w} a_v) + low_cut[J] - 2 Σ_{v∈J} a_v
 * for each J ⊆ {0..w-1}.  Σ_{v∈J} a_v is built by the binary-reflected
 * doubling recurrence (each level flips one vertex into every subset
 * enumerated so far), and a block-min of (low_cut - 2*S - thr) per level
 * keeps the no-candidate case branch-free; only levels that hold a
 * candidate are rescanned scalar.  Candidate ratios are IEEE double
 * divisions identical to the numpy backend's, and the (h, mask) reduction
 * is a lexicographic minimum, so the visiting order never changes it.
 *
 * Spans.  Prefixes number the high vertices >= b (bit j of a prefix is
 * vertex b + j), exactly as in the numpy kernel (`_scan_span`).  A call
 * covers prefixes [p_lo, p_hi): the search enters a high vertex's branch
 * only when that branch's prefix range meets the span.  Parallel runs call
 * repro_exact_scan once per span from separate worker processes;
 * `shared_min` points at one double in shared memory used purely to tighten
 * pruning — nonnegative IEEE doubles order like their uint64 bit patterns,
 * so the cross-process running minimum is a relaxed compare-and-swap on the
 * punned bits.  The shared minimum never decides which candidate wins; the
 * final reduction in Python is by (h, mask), so results are identical for
 * every jobs value.
 *
 * On a 2-core x86-64 host one call takes 0.9-1.6 ms for the 28-32 vertex
 * circulant graphs and 1.0-1.4 ms for classical122 Dec_2.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* Bumped whenever the exported signatures change; the Python loader
 * refuses a stale cached .so whose ABI does not match. */
#define REPRO_NATIVE_ABI 2

/* Thresholds are clipped here instead of INT32_MAX so the leaf's int32
 * subtraction `low_cut - 2*S - thr` can never overflow: boundaries are
 * bounded by n*d <= 64*63, far below 2^28.  A clipped threshold >= every
 * possible boundary behaves as "accept all", exactly like numpy's clip —
 * thresholds only gate *filtering*, never the final (h, mask). */
#define THR_CLIP ((int32_t)1 << 28)

static inline double load_shared_min(const volatile uint64_t *addr) {
    uint64_t bits = __atomic_load_n(addr, __ATOMIC_RELAXED);
    double value;
    memcpy(&value, &bits, sizeof value);
    return value;
}

static void store_shared_min(volatile uint64_t *addr, double val) {
    uint64_t newbits;
    memcpy(&newbits, &val, sizeof newbits);
    uint64_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
    for (;;) {
        double oldd;
        memcpy(&oldd, &old, sizeof oldd);
        if (!(val < oldd))
            return; /* somebody else already holds a tighter minimum */
        if (__atomic_compare_exchange_n(addr, &old, newbits, 0,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED))
            return;
    }
}

API int32_t repro_native_abi(void) { return REPRO_NATIVE_ABI; }

typedef struct {
    int32_t n, b, w, limit;
    int64_t d;
    const uint64_t *adj;
    const int32_t *low_cut;   /* 2^w: vol(J) - 2*e(J) */
    const uint8_t *low_sizes; /* 2^w: |J| */
    uint64_t p_lo, p_hi;
    volatile uint64_t *shared_min;
    double best_r;
    uint64_t best_m;
    double h_cap;         /* min(best_r, shared minimum) behind thr */
    int32_t thr[65];      /* threshold by total subset size, n <= 64 */
    int32_t a[64], o[64]; /* |N(v) ∩ I| and |N(v) ∩ O| per free vertex */
    int32_t *S;           /* 2^w: Σ_{v∈J} a_v */
    int32_t *leaf_thr;    /* (limit+1) x 2^w: thr[k + |J|] per k */
    double *leaf_cap;     /* limit+1: the h_cap each leaf_thr row holds */
} Search;

static void offer(Search *st, double r, uint64_t m) {
    if (r < st->best_r) {
        st->best_r = r;
        st->best_m = m;
        if (st->shared_min != NULL)
            store_shared_min(st->shared_min, r);
    } else if (r == st->best_r && m < st->best_m) {
        st->best_m = m;
    }
}

/* Pick up a tighter running minimum (ours or another process's). */
static void refresh_cap(Search *st) {
    double h_cap = st->best_r;
    if (st->shared_min != NULL) {
        const double shared = load_shared_min(st->shared_min);
        if (shared < h_cap)
            h_cap = shared;
    }
    if (h_cap == st->h_cap)
        return;
    st->h_cap = h_cap;
    st->thr[0] = -1; /* the empty set is never a cut */
    for (int32_t s = 1; s <= st->n; s++) {
        if (s > st->limit) {
            st->thr[s] = -1;
            continue;
        }
        double t = floor(h_cap * (double)st->d * (double)s) + 1.0;
        if (!(t < (double)THR_CLIP))
            t = (double)THR_CLIP;
        st->thr[s] = (int32_t)t;
    }
}

/* The size-aware bound (see the header): does some s in
 * [0, min(t, limit - k)] have LB(s) <= thr[k + s]?  `base` is
 * cut(I, O) + Σ_{v<t} a_v. */
static int survives(const Search *st, int32_t t, int32_t k, int64_t base) {
    int32_t smax = st->limit - k;
    if (smax < 0)
        return 0;
    if (base <= (int64_t)st->thr[k])
        return 1;
    if (smax > t)
        smax = t;
    const int32_t d = (int32_t)st->d;
    int32_t count[2 * 64 + 1];
    memset(count, 0, (size_t)(2 * d + 1) * sizeof *count);
    for (int32_t v = 0; v < t; v++)
        count[st->o[v] - st->a[v] + d]++;
    int64_t lb = base;
    int32_t s = 0;
    for (int32_t x = 0; x <= 2 * d && s < smax; x++) {
        for (int32_t c = count[x]; c > 0 && s < smax; c--) {
            lb += x - d;
            s++;
            if (lb <= (int64_t)st->thr[k + s])
                return 1;
        }
    }
    return 0;
}

/* Sweep the 2^w low subsets J under the decided-in set `in` (|in| = k);
 * `base` is cut(I, O) + Σ_{v<w} a_v. */
static void leaf(Search *st, uint64_t in, int32_t k, int64_t base) {
    const uint64_t nleaf = (uint64_t)1 << st->w;
    int32_t *restrict T = st->leaf_thr + (size_t)k * nleaf;
    if (st->leaf_cap[k] != st->h_cap) {
        for (uint64_t i = 0; i < nleaf; i++)
            T[i] = st->thr[k + (int32_t)st->low_sizes[i]];
        st->leaf_cap[k] = st->h_cap;
    }

    /* Candidate U = I alone (J empty). */
    if (k >= 1 && base <= (int64_t)T[0])
        offer(st, (double)base / (double)(st->d * (int64_t)k), in);

    /* Doubling sweep with fused threshold checks: level v writes S for
     * every subset whose top leaf bit is v, and the block-min of
     * (low_cut - 2*S - thr) says whether any candidate exists in the level
     * without branching per element. */
    int32_t *restrict S = st->S;
    S[0] = 0;
    const int32_t base32 = (int32_t)base;
    for (int32_t v = 0; v < st->w; v++) {
        const uint64_t half = (uint64_t)1 << v;
        const int32_t av = st->a[v];
        const int32_t *restrict lc = st->low_cut + half;
        const int32_t *restrict Th = T + half;
        const int32_t *restrict Sl = S;
        int32_t *restrict Sh = S + half;
        int32_t level_min = INT32_MAX;
        for (uint64_t i = 0; i < half; i++) {
            const int32_t s2 = Sl[i] + av;
            Sh[i] = s2;
            const int32_t t = lc[i] - 2 * s2 - Th[i];
            level_min = (t < level_min) ? t : level_min;
        }
        if (level_min + base32 > 0)
            continue;
        /* Rare: at least one candidate in this level — rescan it. */
        for (uint64_t i = 0; i < half; i++) {
            const int64_t bnd = (int64_t)lc[i] - 2 * (int64_t)Sh[i] + base;
            if (bnd > (int64_t)Th[i])
                continue;
            const uint64_t idx = half + i;
            const int64_t tot = k + (int64_t)st->low_sizes[idx];
            offer(st, (double)bnd / (double)(st->d * tot), in | idx);
        }
    }
}

/* The node with free vertices {0..t-1}: decide vertex t-1, out then in. */
static void search(Search *st, int32_t t, uint64_t in, int32_t k, int64_t cut,
                   int64_t free_a) {
    if (t == st->w) {
        leaf(st, in, k, cut + free_a);
        return;
    }
    const int32_t v = t - 1;
    const uint64_t bit = (uint64_t)1 << v;
    const uint64_t nbr = st->adj[v] & (bit - 1); /* v's free neighbours */
    const int32_t av = st->a[v], ov = st->o[v];

    for (int32_t take = 0; take <= 1; take++) {
        const uint64_t child = take ? (in | bit) : in;
        if (v >= st->b) {
            /* The child's prefixes: [q, q + 2^(v-b)) with q its high bits. */
            const uint64_t q = child >> st->b;
            if (q >= st->p_hi || q + ((uint64_t)1 << (v - st->b)) <= st->p_lo)
                continue;
        }
        int32_t *restrict count = take ? st->a : st->o;
        uint64_t rest = nbr;
        while (rest) {
            count[__builtin_ctzll(rest)]++;
            rest &= rest - 1;
        }
        const int32_t k2 = k + take;
        const int64_t cut2 = cut + (take ? ov : av);
        const int64_t free2 =
            free_a - av + (take ? __builtin_popcountll(nbr) : 0);
        refresh_cap(st);
        if (survives(st, v, k2, cut2 + free2))
            search(st, v, child, k2, cut2, free2);
        rest = nbr;
        while (rest) {
            count[__builtin_ctzll(rest)]--;
            rest &= rest - 1;
        }
    }
}

/* Scan prefixes [p_lo, p_hi) of the subset space; lexicographic-best
 * (h, mask) including the incoming (best_r_in, best_m_in) seed.
 *
 *   n, b       graph size and prefix offset (prefixes number vertices >= b)
 *   w          leaf width, 1 <= w <= b: vertices below w are swept
 *   limit      largest subset size considered (|U| <= limit)
 *   d          regularized degree (max degree; ratios divide by d*|U|)
 *   adj        n packed uint64 adjacency rows (undirected, no loops)
 *   low_cut    2^w table: vol(J) - 2*e(J) per leaf subset J
 *   low_sizes  2^w table: |J| per leaf subset
 *   shared_min optional cross-process running minimum (double bits), or NULL
 *
 * Returns 0 on success, -1 on allocation failure.
 */
API int32_t repro_exact_scan(
    int32_t n, int32_t b, int32_t w, int32_t limit, int64_t d,
    const uint64_t *adj,
    const int32_t *low_cut, const uint8_t *low_sizes,
    uint64_t p_lo, uint64_t p_hi,
    double best_r_in, uint64_t best_m_in,
    volatile uint64_t *shared_min,
    double *out_r, uint64_t *out_m)
{
    const uint64_t nleaf = (uint64_t)1 << w;
    Search st = {
        .n = n, .b = b, .w = w, .limit = limit, .d = d, .adj = adj,
        .low_cut = low_cut, .low_sizes = low_sizes,
        .p_lo = p_lo, .p_hi = p_hi, .shared_min = shared_min,
        .best_r = best_r_in, .best_m = best_m_in,
        .h_cap = -1.0, /* impossible cap: refresh_cap fills thr */
    };
    st.S = malloc(nleaf * sizeof *st.S);
    st.leaf_thr = malloc((size_t)(limit + 1) * nleaf * sizeof *st.leaf_thr);
    st.leaf_cap = malloc((size_t)(limit + 1) * sizeof *st.leaf_cap);
    if (st.S == NULL || st.leaf_thr == NULL || st.leaf_cap == NULL) {
        free(st.S);
        free(st.leaf_thr);
        free(st.leaf_cap);
        return -1;
    }
    for (int32_t k = 0; k <= limit; k++)
        st.leaf_cap[k] = -1.0; /* every row starts stale */

    /* The root's prefixes are [0, 2^(n-b)); it passes the bound trivially
     * (every a_v = o_v = 0). */
    if (p_lo < p_hi && p_lo < ((uint64_t)1 << (n - b))) {
        refresh_cap(&st);
        search(&st, n, 0, 0, 0, 0);
    }

    free(st.S);
    free(st.leaf_thr);
    free(st.leaf_cap);
    *out_r = st.best_r;
    *out_m = st.best_m;
    return 0;
}
