/* Block kernel of the table builder (dp.py), loaded through ctypes.
 *
 * Every column is a uint8 array indexed by n, passed whole; a block is
 * [lo, hi) with hi <= 2*lo, so every product part and every sum part
 * n - j with j >= 6 below lo is final when the block starts.  Sums of two
 * values wrap as uint8, as the reference passes' numpy sums do; table
 * values stay at or below 127, so no sum used here wraps.  dp.py's
 * docstring says what each pass computes and why the result is exact.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NONE 127 /* rank estimate for "no such form yet" (dp._NONE) */

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
 * increasing n from the final f[lo - 1].  Writes the offsets n - lo where
 * the block's running maximum rises, 0 first, into rises (at most 256: the
 * values are bytes) and returns how many there are. */
int64_t ic_chain(uint8_t *f, int64_t lo, int64_t hi, int64_t *rises)
{
    unsigned prev = f[lo - 1], top = 0;
    int64_t k = 0;
    for (int64_t n = lo; n < hi; n++) {
        unsigned v = min_u(f[n], prev + 1);
        f[n] = (uint8_t)v;
        prev = v;
        if (n == lo || v > top) {
            rises[k++] = n - lo;
            top = v;
        }
    }
    return k;
}

/* One round of the sum scan: f[n] = min(f[n], f[j] + f[n-j]) for every n
 * in [lo, hi) and 6 <= j <= top, reading f[n-j] from a copy of f[lo-top, hi)
 * taken as the round starts, so that each j is one pass the compiler
 * vectorizes.  Returns 1 if the round lowered an entry, 0 if not, and -1
 * if the copy could not be allocated. */
int ic_sums(uint8_t *f, int64_t lo, int64_t hi, int64_t top)
{
    int64_t w = hi - lo;
    uint8_t *snap = malloc((size_t)(top + w));
    if (!snap)
        return -1;
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
    int lowered = memcmp(blk, snap + top, (size_t)w) != 0;
    free(snap);
    return lowered;
}

/* GS and GP of [lo, hi) from the final f, the block's product keys and the
 * sum scan's last cap top, in one pass of increasing n: every part of n is
 * smaller than n, so its GS is final when n is reached.  A first pass, one
 * j at a time, flags the n with a tight sum split of addend j >= 6.
 * Returns 0, or -1 if the flags could not be allocated. */
int ic_ranks(const uint8_t *f, uint8_t *gs, uint8_t *gp, const uint16_t *key,
             int64_t lo, int64_t hi, int64_t top)
{
    int64_t w = hi - lo;
    uint8_t *flag = calloc((size_t)w, 1);
    if (!flag)
        return -1;
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
    free(flag);
    return 0;
}

/* a[i] = min(a[i], b[i]) for 0 <= i < n: the rank column from GS and GP. */
void ic_minimum(uint8_t *restrict a, const uint8_t *restrict b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        a[i] = a[i] < b[i] ? a[i] : b[i];
}
