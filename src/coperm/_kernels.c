/* Compiled kernels of coperm: graph-polynomial coefficients computed
 * directly (Ryser for per(xI - A), Berkowitz for det(xI - A)), the
 * minimum-lex canonical-order search, and scalar Ryser permanents and
 * Bareiss determinants of integer matrices. Plain C entry points over
 * arrays of long long (matrix entries, coefficients) and unsigned int
 * (adjacency bitmask rows), the item types of Python's array typecodes
 * "q" and "I". Built on first use and called through ctypes by _core.py,
 * which checks every size against MAXK first.
 *
 * The polynomial kernels need no bound check: they work modulo 2**64,
 * and every coefficient they return fits (see coperm_graph_poly). The
 * scalar kernels accumulate in 128 bits, and their caller must keep them
 * in range: for coperm_permanent, the product over rows of each row's
 * sum of absolute entries (a zero row counting 1) below 2**126; for
 * coperm_determinant, the product over rows of each row's sum of squared
 * entries below 2**120, so that by Hadamard's inequality every minor,
 * and each product of two that Bareiss forms, fits. The Ryser sum alone
 * may pass 2**127 between terms, so it accumulates modulo 2**128, which
 * is exact whenever the final permanent fits. A 128-bit result v is
 * stored as two long longs, its int64 residue lo and
 * hi = (v - lo) / 2**64, so hi is 0 whenever v fits in 64 bits. */

#include <string.h>

#define MAXK 16

typedef __int128 i128;
typedef unsigned __int128 u128;
typedef unsigned long long u64;

static void store(long long *lo, long long *hi, i128 v)
{
    *lo = (long long)v;
    *hi = (long long)((v - *lo) >> 64);
}

static void load(const long long *entries, int k, i128 *a)
{
    for (int i = 0; i < k * k; i++)
        a[i] = entries[i];
}

static i128 ryser(const i128 *a, int k)
{
    i128 sums[MAXK], prod;
    u128 total = 0;
    unsigned int gray_prev = 0, gray, diff, full = 1u << k;
    int bits = 0;

    if (k == 0)
        return 1;
    for (int i = 0; i < k; i++)
        sums[i] = 0;
    for (unsigned int s = 1; s < full; s++) {
        gray = s ^ (s >> 1);
        diff = gray ^ gray_prev;
        int j = __builtin_ctz(diff);
        if (gray & diff) {
            bits++;
            for (int i = 0; i < k; i++)
                sums[i] += a[i * k + j];
        } else {
            bits--;
            for (int i = 0; i < k; i++)
                sums[i] -= a[i * k + j];
        }
        prod = 1;
        for (int i = 0; i < k; i++) {
            prod *= sums[i];
            if (prod == 0)
                break;
        }
        if ((k - bits) & 1)
            total -= (u128)prod;
        else
            total += (u128)prod;
        gray_prev = gray;
    }
    return (i128)total;
}

/* fraction-free elimination in place; every division is exact */
static i128 bareiss(i128 *a, int k)
{
    int sign = 1;
    i128 prev = 1, p, f, tmp;

    if (k == 0)
        return 1;
    for (int col = 0; col < k - 1; col++) {
        int piv = -1;
        for (int i = col; i < k; i++)
            if (a[i * k + col] != 0) {
                piv = i;
                break;
            }
        if (piv < 0)
            return 0;
        if (piv != col) {
            for (int j = 0; j < k; j++) {
                tmp = a[col * k + j];
                a[col * k + j] = a[piv * k + j];
                a[piv * k + j] = tmp;
            }
            sign = -sign;
        }
        p = a[col * k + col];
        for (int i = col + 1; i < k; i++) {
            f = a[i * k + col];
            for (int j = col + 1; j < k; j++)
                a[i * k + j] = (a[i * k + j] * p - f * a[col * k + j]) / prev;
            a[i * k + col] = 0;
        }
        prev = p;
    }
    return sign * a[k * k - 1];
}

void coperm_permanent(const long long *entries, int k, long long *out)
{
    i128 a[MAXK * MAXK];
    load(entries, k, a);
    store(out, out + 1, ryser(a, k));
}

void coperm_determinant(const long long *entries, int k, long long *out)
{
    i128 a[MAXK * MAXK];
    load(entries, k, a);
    store(out, out + 1, bareiss(a, k));
}

/* per(xI - A) by one Gray-code Ryser sweep over the column sets S:
 * per(M) = sum_S (-1)^(n-|S|) prod_i sum_(j in S) M_ij, and row i's sum is
 * x - r_i when i is in S and -r_i otherwise, r_i = |N(i) & S|. The signs
 * of the -r_i cancel the sweep's sign, so every S adds
 * prod_(i not in S) r_i * prod_(i in S) (x - r_i), which vanishes when a
 * row outside S has r_i = 0. */
static void perm_poly(const unsigned int *rows, int n, u64 *acc)
{
    u64 p[MAXK + 1], c;
    unsigned int r[MAXK] = {0}, s = 0, all = (1u << n) - 1, m;
    int deg;

    for (int d = 0; d <= n; d++)
        acc[d] = 0;
    acc[0] = n == 0; /* S empty: the empty product when n = 0, else 0 */
    for (unsigned int t = 1; t <= all; t++) {
        int j = __builtin_ctz(t);
        s ^= 1u << j;
        if (s >> j & 1)
            for (m = rows[j]; m; m &= m - 1)
                r[__builtin_ctz(m)]++;
        else
            for (m = rows[j]; m; m &= m - 1)
                r[__builtin_ctz(m)]--;
        /* at most 15 factors below 16 each, so c never wraps to 0 */
        c = 1;
        for (m = all & ~s; m; m &= m - 1)
            c *= r[__builtin_ctz(m)];
        if (c == 0)
            continue;
        p[0] = c;
        deg = 0;
        for (m = s; m; m &= m - 1) {
            u64 ri = r[__builtin_ctz(m)];
            deg++;
            p[deg] = p[deg - 1];
            for (int d = deg - 1; d > 0; d--)
                p[d] = p[d - 1] - ri * p[d];
            p[0] *= -ri;
        }
        for (int d = 0; d <= deg; d++)
            acc[d] += p[d];
    }
}

/* det(xI - A) by Berkowitz's division-free recurrence over the leading
 * principal submatrices: adding vertex k multiplies the coefficients
 * (highest first) of A_k's polynomial by the lower-triangular Toeplitz
 * matrix with first column 1, -a_kk, -R C, -R A_k C, ..., -R A_k^(k-1) C,
 * where A_k is the graph on vertices 0..k-1 and R, C are vertex k's row
 * and column into it. Here a_kk = 0 and R = C^T. */
static void char_poly(const unsigned int *rows, int n, u64 *acc)
{
    u64 p[MAXK + 1], t[MAXK + 1], v[MAXK], w[MAXK], sum;
    unsigned int m;

    p[0] = 1;
    for (int k = 0; k < n; k++) {
        unsigned int mask = (1u << k) - 1, col = rows[k] & mask;
        for (int i = 0; i < k; i++)
            v[i] = col >> i & 1;
        t[0] = 1;
        t[1] = 0;
        for (int e = 2; e <= k + 1; e++) {
            if (e > 2) { /* v = A_k v */
                for (int i = 0; i < k; i++) {
                    sum = 0;
                    for (m = rows[i] & mask; m; m &= m - 1)
                        sum += v[__builtin_ctz(m)];
                    w[i] = sum;
                }
                memcpy(v, w, k * sizeof *v);
            }
            sum = 0;
            for (m = col; m; m &= m - 1)
                sum += v[__builtin_ctz(m)];
            t[e] = -sum;
        }
        /* in place from the top: entry i reads p[0..i] only */
        for (int i = k + 1; i >= 0; i--) {
            sum = 0;
            for (int j = 0; j <= i && j <= k; j++)
                sum += t[i - j] * p[j];
            p[i] = sum;
        }
    }
    for (int d = 0; d <= n; d++)
        acc[d] = p[n - d];
}

/* Coefficients, constant first, of per(xI - A) (perm != 0) or det(xI - A)
 * into out[0..n]. Both methods use ring operations only, so computing
 * modulo 2**64 gives every coefficient's residue; each coefficient is at
 * most n! <= 16! < 2**45 in magnitude, so the signed residue is its
 * value. */
void coperm_graph_poly(const unsigned int *rows, int n, int perm, long long *out)
{
    u64 acc[MAXK + 1];

    if (perm)
        perm_poly(rows, n, acc);
    else
        char_poly(rows, n, acc);
    for (int d = 0; d <= n; d++)
        out[d] = (long long)acc[d];
}

/* column of vertex `row` under the partial relabeling perm[0..depth) */
static unsigned int colval(unsigned int row, const int *perm, int depth)
{
    unsigned int c = 0;
    for (int i = 0; i < depth; i++)
        c = (c << 1) | ((row >> perm[i]) & 1);
    return c;
}

/* column j of the identity labeling: bits (j,0)..(j,j-1), (j,0) most
 * significant, matching the graph6 triangle order */
static void targets_of(const unsigned int *rows, int n, unsigned int *targets)
{
    for (int j = 0; j < n; j++) {
        unsigned int c = 0;
        for (int i = 0; i < j; i++)
            c = (c << 1) | ((rows[j] >> i) & 1);
        targets[j] = c;
    }
}

static int smaller_exists(const unsigned int *rows, int n, const unsigned int *targets,
                          int *perm, unsigned int used, int depth)
{
    int eq[MAXK], neq = 0;
    unsigned int t, c;

    if (depth == n)
        return 0;
    t = targets[depth];
    for (int u = 0; u < n; u++) {
        if (used & (1u << u))
            continue;
        c = colval(rows[u], perm, depth);
        if (c < t)
            return 1;
        if (c == t)
            eq[neq++] = u;
    }
    for (int i = 0; i < neq; i++) {
        perm[depth] = eq[i];
        if (smaller_exists(rows, n, targets, perm, used | (1u << eq[i]), depth + 1))
            return 1;
    }
    return 0;
}

/* Depth-first search for the smallest column sequence; returns whether
 * best was replaced below this prefix. eq: the prefix equals best's. */
static int canon_dfs(const unsigned int *rows, int n, unsigned int *best, unsigned int *cur,
                     int *perm, unsigned int used, int depth, int eq)
{
    unsigned int cols[MAXK], c;
    int cand[MAXK], ncand = 0, updated = 0;

    if (depth == n) {
        if (!eq)
            memcpy(best, cur, n * sizeof *best);
        return !eq;
    }
    for (int u = 0; u < n; u++) {
        if (used & (1u << u))
            continue;
        c = colval(rows[u], perm, depth);
        int i = ncand++;
        for (; i > 0 && cols[i - 1] > c; i--) {
            cols[i] = cols[i - 1];
            cand[i] = cand[i - 1];
        }
        cols[i] = c;
        cand[i] = u;
    }
    for (int i = 0; i < ncand; i++) {
        c = cols[i];
        if (eq && c > best[depth])
            break;
        perm[depth] = cand[i];
        cur[depth] = c;
        if (canon_dfs(rows, n, best, cur, perm, used | (1u << cand[i]), depth + 1,
                      eq && c == best[depth])) {
            updated = 1;
            eq = 1; /* the new best runs through this prefix */
        }
    }
    return updated;
}

void coperm_canonical_form(const unsigned int *rows, int n, unsigned int *out)
{
    unsigned int best[MAXK], cur[MAXK];
    int perm[MAXK];

    targets_of(rows, n, best);
    canon_dfs(rows, n, best, cur, perm, 0, 0, 1);
    for (int j = 0; j < n; j++)
        out[j] = 0;
    for (int j = 0; j < n; j++)
        for (int i = 0; i < j; i++)
            if ((best[j] >> (j - 1 - i)) & 1) {
                out[i] |= 1u << j;
                out[j] |= 1u << i;
            }
}

/* Neighbor subsets S of the new vertex k, lo <= |S| <= hi, whose extension
 * of rows[0..k) is canonical, in increasing order into out; returns how
 * many. */
int coperm_canonical_children(const unsigned int *rows, int k, int lo, int hi, unsigned int *out)
{
    unsigned int child[MAXK];
    unsigned int targets[MAXK];
    int perm[MAXK], count = 0;

    for (unsigned int s = 0; s < 1u << k; s++) {
        int pc = __builtin_popcount(s);
        if (pc < lo || pc > hi)
            continue;
        for (int i = 0; i < k; i++)
            child[i] = rows[i] | (((s >> i) & 1u) << k);
        child[k] = s;
        targets_of(child, k + 1, targets);
        if (!smaller_exists(child, k + 1, targets, perm, 0, 0))
            out[count++] = s;
    }
    return count;
}
