/* Compiled kernels of coperm: Gray-code Ryser permanents, Bareiss
 * determinants, exact graph-polynomial coefficients, and the minimum-lex
 * canonical-order search. Plain C entry points over arrays of long long
 * (matrix entries) and unsigned int (adjacency bitmask rows), the item
 * types of Python's array typecodes "q" and "I". Built on first use and
 * called through ctypes by _core.py, which checks every size against
 * MAXK first. A 128-bit result v is stored as two long longs, its int64
 * residue lo and hi = (v - lo) / 2**64, so hi is 0 whenever v fits in 64
 * bits.
 *
 * Accumulators are 128-bit; the bounds in permanent.py and charpoly.py
 * keep every product and quotient below 2**126. The Ryser sum alone may
 * pass 2**127 between terms, so it accumulates modulo 2**128, which is
 * exact whenever the final permanent fits. */

#include <string.h>

#define MAXK 16

typedef __int128 i128;
typedef unsigned __int128 u128;

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

/* Coefficients, constant first, of per(xI - A) (perm != 0) or det(xI - A),
 * from the values at t = 0..n: low words into out[0..n], high words into
 * out[n+1..2n+1]. Returns -1 when the values are not those of an integer
 * polynomial, which the bounds rule out. */
int coperm_graph_poly(const unsigned int *rows, int n, int perm, long long *out)
{
    i128 mat[MAXK * MAXK], vals[MAXK + 1], e[MAXK + 1], ff[MAXK + 2];
    i128 res[MAXK + 1], fact = 1, s;
    int flen = 1;

    for (int t = 0; t <= n; t++) {
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                mat[i * n + j] = i == j ? t : -(i128)((rows[i] >> j) & 1);
        vals[t] = perm ? ryser(mat, n) : bareiss(mat, n);
    }

    /* forward differences -> falling-factorial coefficients Delta^k v0 / k! */
    for (int kk = 0; kk <= n; kk++) {
        if (kk) {
            fact *= kk;
            for (int i = 0; i <= n - kk; i++)
                vals[i] = vals[i + 1] - vals[i];
        }
        if (vals[0] % fact != 0)
            return -1;
        e[kk] = vals[0] / fact;
    }

    /* expand sum_k e[k] x(x-1)...(x-k+1) in the monomial basis */
    for (int j = 0; j <= n; j++)
        res[j] = 0;
    ff[0] = 1;
    for (int kk = 0; kk <= n; kk++) {
        if (kk) {
            s = kk - 1;
            ff[flen] = 0;
            for (int j = flen; j > 0; j--)
                ff[j] = ff[j - 1] - s * ff[j];
            ff[0] = -s * ff[0];
            flen++;
        }
        for (int j = 0; j < flen; j++)
            res[j] += e[kk] * ff[j];
    }
    for (int j = 0; j <= n; j++)
        store(out + j, out + n + 1 + j, res[j]);
    return 0;
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

int coperm_is_canonical(const unsigned int *rows, int n)
{
    unsigned int targets[MAXK];
    int perm[MAXK];

    targets_of(rows, n, targets);
    return !smaller_exists(rows, n, targets, perm, 0, 0);
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
