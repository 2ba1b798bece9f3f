/* exactscan.c — native exact-expansion subset scan (single translation unit).
 *
 * The kernel mirrors the vectorized numpy scan in repro/core/exact.py
 * (`_scan_span`): the subset space of an n-vertex graph (n <= 64, so every
 * adjacency row is one packed uint64 word) splits into prefix-fixed spans —
 * the high n-b vertex bits are fixed per prefix, the low b bits are
 * enumerated by a binary-reflected doubling recurrence that flips exactly
 * one vertex into every previously enumerated subset (the batched Gray-code
 * walk, O(1) amortized words per subset).  Per doubling level the freshly
 * written cross-sum entries are compared against precomputed integer
 * branch-and-bound thresholds (`boundary <= floor(h_cap * d * |U|) + 1`;
 * the +1 keeps exact ties so the smallest minimizing mask survives), with a
 * block-min reduction so the common no-candidate case stays branch-free and
 * auto-vectorizable; only blocks that contain a candidate are rescanned
 * scalar.  Candidate ratios are IEEE double divisions identical to the
 * numpy backend's, and the lexicographic (h, mask) reduction matches it
 * bit-for-bit.
 *
 * Before any of that, a prefix-level bound skips whole prefixes.  The edges
 * of U = P ∪ L split into three disjoint classes: high–high, low–high and
 * low–low.  Every U under prefix P cuts all high–high edges between P and
 * the high vertices outside P; each low vertex v cuts either its edges into
 * P (v ∉ L) or its edges into the rest of the high block (v ∈ L), so at
 * least min(|N(v) ∩ P|, |N(v) ∩ H∖P|); low–low edges add >= 0.  That sum,
 * fixed(P), bounds bnd(U) from below for every L, and |U| <= cap =
 * min(limit, |P| + b).  The integer threshold floor(h_cap * d * s) + 1 is
 * nondecreasing in s, so fixed(P) > thr_total[cap] means the per-subset
 * filter would reject every subset of the prefix: skipping it changes no
 * candidate, and (h, mask) stays bit-identical.  The bound costs O(b)
 * popcounts per prefix.
 *
 * Parallel runs call repro_exact_scan once per span from separate worker
 * processes; `shared_min` points at one double in shared memory (a
 * multiprocessing.Value) used purely to tighten pruning — nonnegative IEEE
 * doubles order like their uint64 bit patterns, so the cross-process
 * running minimum is a relaxed compare-and-swap on the punned bits.  The
 * shared minimum never decides which candidate wins; the final reduction in
 * Python is by (h, mask), so results are identical for every jobs value.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* Bumped whenever the exported signatures change; the Python loader
 * refuses a stale cached .so whose ABI does not match. */
#define REPRO_NATIVE_ABI 1

/* Thresholds are clipped here instead of INT32_MAX so the hot-loop int32
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

/* Scan prefixes [p_lo, p_hi) of the subset space; lexicographic-best
 * (h, mask) including the incoming (best_r_in, best_m_in) seed.
 *
 *   n, b       graph size and low-block width (b = min(n, 16))
 *   limit      largest subset size considered (|U| <= limit)
 *   d          regularized degree (max degree; ratios divide by d*|U|)
 *   adj        n packed uint64 adjacency rows (undirected, no loops)
 *   deg        n vertex degrees
 *   low_cut    2^b table: vol(L) - 2*e(L) per low subset L
 *   low_sizes  2^b table: |L| per low subset
 *   shared_min optional cross-process running minimum (double bits), or NULL
 *
 * Returns 0 on success, -1 on allocation failure.
 */
API int32_t repro_exact_scan(
    int32_t n, int32_t b, int32_t limit, int64_t d,
    const uint64_t *adj, const int64_t *deg,
    const int32_t *restrict low_cut, const uint8_t *restrict low_sizes,
    uint64_t p_lo, uint64_t p_hi,
    double best_r_in, uint64_t best_m_in,
    volatile uint64_t *shared_min,
    double *out_r, uint64_t *out_m)
{
    const uint64_t nlow = (uint64_t)1 << b;
    const int32_t max_size_p = (n > b) ? (n - b) : 0;
    const int32_t n_tables = ((max_size_p < limit) ? max_size_p : limit) + 1;

    int32_t *restrict S = malloc(nlow * sizeof *S);
    int32_t *thr_tables = malloc((size_t)n_tables * nlow * sizeof *thr_tables);
    double *thr_cap = malloc((size_t)n_tables * sizeof *thr_cap);
    if (S == NULL || thr_tables == NULL || thr_cap == NULL) {
        free(S);
        free(thr_tables);
        free(thr_cap);
        return -1;
    }
    for (int32_t i = 0; i < n_tables; i++)
        thr_cap[i] = -1.0; /* impossible cap: every table starts stale */

    double best_r = best_r_in;
    uint64_t best_m = best_m_in;
    double cap_for_totals = -1.0;
    int32_t thr_total[65]; /* threshold by total subset size, n <= 64 */
    int32_t wv[64];        /* |N(v) ∩ P| per low vertex, for the prefix P */
    int32_t hdeg[64];      /* |N(v) ∩ H| per low vertex (H: the high block) */
    for (int32_t v = 0; v < b; v++)
        hdeg[v] = (int32_t)__builtin_popcountll(adj[v] >> b);

    for (uint64_t p = p_lo; p < p_hi; p++) {
        const int32_t size_p = (int32_t)__builtin_popcountll(p);
        if (size_p > limit)
            continue;

        double h_cap = best_r;
        if (shared_min != NULL) {
            const double shared = load_shared_min(shared_min);
            if (shared < h_cap)
                h_cap = shared;
        }
        if (h_cap != cap_for_totals) {
            cap_for_totals = h_cap;
            thr_total[0] = -1; /* the empty set is never a cut */
            for (int32_t s = 1; s <= n; s++) {
                if (s > limit) {
                    thr_total[s] = -1;
                    continue;
                }
                double t = floor(h_cap * (double)d * (double)s) + 1.0;
                if (!(t < (double)THR_CLIP))
                    t = (double)THR_CLIP;
                thr_total[s] = (int32_t)t;
            }
        }

        /* Boundary of the prefix alone and the per-low-vertex cross
         * counts |N(v) ∩ P| — O(n) word-popcounts per prefix — and the
         * prefix bound fixed(P) (see the header). */
        int64_t base_p = 0;
        uint64_t pp = p;
        while (pp) {
            const int32_t j = __builtin_ctzll(pp);
            pp &= pp - 1;
            base_p += deg[b + j];
            base_p -= 2 * (int64_t)__builtin_popcountll(
                (adj[b + j] >> b) & (p & (((uint64_t)1 << j) - 1)));
        }
        int64_t fixed = base_p;
        for (int32_t v = 0; v < b; v++) {
            const int32_t w = (int32_t)__builtin_popcountll((adj[v] >> b) & p);
            const int32_t rest = hdeg[v] - w;
            wv[v] = w;
            fixed -= w - ((w < rest) ? w : rest);
        }
        const int32_t cap = (size_p + b < limit) ? size_p + b : limit;
        if (fixed > (int64_t)thr_total[cap])
            continue;

        if (thr_cap[size_p] != h_cap) {
            int32_t *restrict T = thr_tables + (size_t)size_p * nlow;
            for (uint64_t i = 0; i < nlow; i++)
                T[i] = thr_total[size_p + (int32_t)low_sizes[i]];
            thr_cap[size_p] = h_cap;
        }
        const int32_t *restrict T = thr_tables + (size_t)size_p * nlow;

        /* Candidate U = P alone (low block empty). */
        if (size_p >= 1 && base_p <= (int64_t)T[0]) {
            const double r = (double)base_p / (double)(d * (int64_t)size_p);
            const uint64_t m = p << b;
            if (r < best_r) {
                best_r = r;
                best_m = m;
                if (shared_min != NULL)
                    store_shared_min(shared_min, r);
            } else if (r == best_r && m < best_m) {
                best_m = m;
            }
        }

        /* Doubling sweep over the low block with fused threshold checks:
         * level v writes S for every subset whose top low bit is v, and the
         * block-min of (low_cut - 2*S - thr) says whether any candidate
         * exists in the level without branching per element. */
        S[0] = 0;
        const int32_t base32 = (int32_t)base_p;
        for (int32_t v = 0; v < b; v++) {
            const uint64_t half = (uint64_t)1 << v;
            const int32_t w = wv[v];
            const int32_t *restrict lc = low_cut + half;
            const int32_t *restrict Th = T + half;
            const int32_t *restrict Sl = S;
            int32_t *restrict Sh = S + half;
            int32_t level_min = INT32_MAX;
            for (uint64_t i = 0; i < half; i++) {
                const int32_t s2 = Sl[i] + w;
                Sh[i] = s2;
                const int32_t t = lc[i] - 2 * s2 - Th[i];
                level_min = (t < level_min) ? t : level_min;
            }
            if (level_min + base32 > 0)
                continue;
            /* Rare: at least one candidate in this level — rescan it. */
            for (uint64_t i = 0; i < half; i++) {
                const int64_t bnd = (int64_t)lc[i] - 2 * (int64_t)Sh[i] + base_p;
                if (bnd > (int64_t)Th[i])
                    continue;
                const uint64_t idx = half + i;
                const int64_t tot = size_p + (int64_t)low_sizes[idx];
                const double r = (double)bnd / (double)(d * tot);
                const uint64_t m = (p << b) | idx;
                if (r < best_r) {
                    best_r = r;
                    best_m = m;
                    if (shared_min != NULL)
                        store_shared_min(shared_min, r);
                } else if (r == best_r && m < best_m) {
                    best_m = m;
                }
            }
        }
    }

    free(S);
    free(thr_tables);
    free(thr_cap);
    *out_r = best_r;
    *out_m = best_m;
    return 0;
}
