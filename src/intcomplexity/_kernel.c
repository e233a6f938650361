/* Block kernel of the table builder (dp.py) and of the analyses' block
 * passes (analysis.py), loaded through ctypes.
 *
 * Every column is a uint8 array indexed by n, passed whole; every block
 * is one of core.blocks, [lo, hi) with hi <= 2*lo, so a builder block's
 * factors and addends j <= (hi - 1) / 2 lie below lo and are final.  The
 * kernel allocates nothing and cannot fail: its callers own every buffer,
 * the scratch ones included, and size them.  Sums of two values wrap as
 * uint8, as the reference passes' numpy sums do; table values stay at or
 * below 127, so no sum used here wraps.  dp.py's docstring says what each
 * pass computes and why the result is exact.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NONE 127 /* rank estimate for "no such form yet"; NONE + 1 fits a uint8 */

static inline unsigned min_u(unsigned a, unsigned b) { return a < b ? a : b; }
static inline unsigned max_u(unsigned a, unsigned b) { return a > b ? a : b; }

/* Least c[d] + c[n/d] over the splits n = d*e, 2 <= d <= e, of each n in
 * [lo, hi) into out[n - lo], and 255 where n has none.  Cofactors are read
 * from c as out is written, so out may be c + lo when hi <= 2*lo. */
void ic_products(const uint8_t *c, int64_t lo, int64_t hi, uint8_t *out)
{
    memset(out, 255, (size_t)(hi - lo));
    for (int64_t d = 2; d * d <= hi - 1; d++) {
        int64_t e = (lo + d - 1) / d, last = (hi - 1) / d;
        if (e < d)
            e = d;
        uint8_t cd = c[d], *o = out + (e * d - lo);
        for (; e <= last; e++, o += d) {
            uint8_t s = (uint8_t)(cd + c[e]);
            if (s < *o)
                *o = s;
        }
    }
}

/* The ranked product pass: the least key (f(d) + f(e)) << 8 |
 * max(gp[d], gp[e]) over the splits of each n in [lo, hi) into key[n - lo],
 * 0xFFFF where n has none, and the key's high byte into f[n]. */
void ic_keys(uint8_t *f, const uint8_t *gp, int64_t lo, int64_t hi, uint16_t *key)
{
    int64_t w = hi - lo;
    for (int64_t i = 0; i < w; i++)
        key[i] = 0xFFFF;
    for (int64_t d = 2; d * d <= hi - 1; d++) {
        int64_t e = (lo + d - 1) / d, last = (hi - 1) / d;
        if (e < d)
            e = d;
        uint8_t fd = f[d], gd = gp[d];
        uint16_t *k = key + (e * d - lo);
        for (; e <= last; e++, k += d) {
            uint16_t v = (uint16_t)((uint8_t)(fd + f[e]) << 8 | max_u(gd, gp[e]));
            if (v < *k)
                *k = v;
        }
    }
    for (int64_t i = 0; i < w; i++)
        f[lo + i] = (uint8_t)(key[i] >> 8);
}

/* Close the +1 chain over [lo, hi), f[n] = min(f[n], f[n-1] + 1) in
 * increasing n from the final f[lo - 1], and return the block's largest
 * value, from which dp.build takes the sum scan's cap. */
int ic_chain(uint8_t *f, int64_t lo, int64_t hi)
{
    unsigned prev = f[lo - 1], top = 0;
    for (int64_t n = lo; n < hi; n++) {
        prev = min_u(f[n], prev + 1);
        f[n] = (uint8_t)prev;
        top = max_u(top, prev);
    }
    return (int)top;
}

/* One round of the sum scan: f[n] = min(f[n], f[j] + f[n-j]) for every n
 * in [lo, hi) and 6 <= j <= top, reading f[n-j] from snap, a copy of
 * f[lo-top, hi) taken as the round starts (top + hi - lo bytes), so that
 * each j is one pass the compiler vectorizes.  Returns whether the round
 * lowered an entry. */
int ic_sums(uint8_t *f, int64_t lo, int64_t hi, int64_t top, uint8_t *snap)
{
    int64_t w = hi - lo;
    memcpy(snap, f + lo - top, (size_t)(top + w));
    uint8_t *restrict blk = f + lo;
    for (int64_t j = 6; j <= top; j++) {
        const uint8_t *restrict part = snap + top - j;
        uint8_t fj = f[j];
        for (int64_t i = 0; i < w; i++) {
            uint8_t s = (uint8_t)(part[i] + fj);
            blk[i] = s < blk[i] ? s : blk[i];
        }
    }
    return memcmp(blk, snap + top, (size_t)w) != 0;
}

/* GS and GP of [lo, hi) from the final f, the block's product keys and the
 * sum scan's last cap top, in one pass of increasing n: every part of n is
 * smaller than n, so its GS is final when n is reached.  A first pass, one
 * j at a time, sets flag[n - lo] (hi - lo bytes) for the n with a tight sum
 * split of addend j >= 6. */
void ic_ranks(const uint8_t *f, uint8_t *gs, uint8_t *gp, const uint16_t *key,
              int64_t lo, int64_t hi, int64_t top, uint8_t *flag)
{
    int64_t w = hi - lo;
    memset(flag, 0, (size_t)w);
    const uint8_t *restrict blk = f + lo;
    for (int64_t j = 6; j <= top; j++) {
        const uint8_t *restrict part = f + lo - j;
        uint8_t fj = f[j];
        for (int64_t i = 0; i < w; i++)
            flag[i] |= (uint8_t)(part[i] + fj) == blk[i];
    }
    for (int64_t i = 0; i < w; i++) {
        int64_t n = lo + i;
        unsigned c = blk[i];
        unsigned rp = (unsigned)(key[i] >> 8) == c ? key[i] & 0xFF : NONE;
        unsigned rs = (uint8_t)(f[n - 1] + 1) == c ? max_u(gs[n - 1], gs[1]) : NONE;
        if (flag[i])
            for (int64_t j = 6; j <= top; j++)
                if ((uint8_t)(f[n - j] + f[j]) == c)
                    rs = min_u(rs, max_u(gs[n - j], gs[j]));
        gs[n] = (uint8_t)min_u(rp + 1, rs);
        gp[n] = (uint8_t)min_u(rs + 1, rp);
    }
}

/* a[i] = min(a[i], b[i]) for 0 <= i < n: the rank column from GS and GP. */
void ic_minimum(uint8_t *restrict a, const uint8_t *restrict b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        a[i] = a[i] < b[i] ? a[i] : b[i];
}

/* The analyses' passes over a finished table's block [lo, hi), lo >= 1,
 * each of which sets flag[n - lo] (hi - lo bytes) to whether n fails its
 * test; analysis.py says what each test is. */

/* Flag each prime n in [lo, hi), lo >= 2, whose complexity is not
 * c[n-1] + 1, and return the number of primes there.  The block is sieved
 * with base (nbase ascending primes, every one up to sqrt(hi - 1)). */
int64_t ic_prime_steps(const uint8_t *c, const int64_t *base, int64_t nbase,
                       int64_t lo, int64_t hi, uint8_t *flag)
{
    int64_t w = hi - lo, primes = 0;
    memset(flag, 1, (size_t)w);
    for (int64_t k = 0; k < nbase && base[k] * base[k] < hi; k++) {
        int64_t p = base[k], m = (lo + p - 1) / p * p;
        for (m = m > p * p ? m : p * p; m < hi; m += p)
            flag[m - lo] = 0;
    }
    for (int64_t i = 0; i < w; i++) {
        uint8_t prime = flag[i];
        primes += prime;
        flag[i] = prime & (c[lo + i] != (uint8_t)(c[lo + i - 1] + 1));
    }
    return primes;
}

/* Flag each n in [lo, hi) whose defect c[n] - 3*log3(n), plus tol, lies
 * below the bound ((r[n] + 1) / 2 - 1) * coef, with the float operations
 * of the whole-column pass in its order, and return how many.  log runs
 * only where c[n] < lim[r[n]]: lim[r] = ceil(bound + top - tol), where top
 * is the block's largest 3*log3(n) with 1e-9 to spare for rounding, so a
 * complexity at or above it keeps the defect above the bound anywhere in
 * the block. */
int64_t ic_defects(const uint8_t *c, const uint8_t *r, double coef, double tol,
                   double ln3, int64_t lo, int64_t hi, uint8_t *flag)
{
    double top = log((double)(hi - 1)) * 3.0 / ln3 + 1e-9, bound[256];
    int lim[256];
    for (int k = 0; k < 256; k++) {
        bound[k] = (double)((k >> 1) + (k & 1) - 1) * coef;
        double least = ceil(bound[k] + top - tol);
        lim[k] = least < 0 ? 0 : least > 256 ? 256 : (int)least;
    }
    int64_t count = 0;
    for (int64_t n = lo; n < hi; n++) {
        uint8_t bad = 0;
        if (c[n] < lim[r[n]]) {
            double x = log((double)n);
            x *= 3.0;
            x /= ln3;
            x = (double)c[n] - x;
            x += tol;
            bad = x < bound[r[n]];
        }
        flag[n - lo] = bad;
        count += bad;
    }
    return count;
}

/* Flag each n in [lo, hi), lo >= 2, that neither a +1 split (c[n] =
 * c[n-1] + 1) nor a product split (its least c[d] + c[n/d] equals c[n])
 * settles: the first-operation scan's survivors. */
void ic_survivors(const uint8_t *c, int64_t lo, int64_t hi, uint8_t *flag)
{
    ic_products(c, lo, hi, flag);
    for (int64_t i = 0; i < hi - lo; i++)
        flag[i] = (c[lo + i] != (uint8_t)(c[lo + i - 1] + 1)) & (flag[i] != c[lo + i]);
}
