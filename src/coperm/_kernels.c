/* Compiled kernels of coperm, as the CPython extension module behind
 * coperm._core: graph-polynomial coefficients computed directly (Ryser
 * for per(xI - A), Berkowitz for det(xI - A)), the minimum-lex
 * canonical-order search and the canonical children it yields, the
 * per-graph codecs: decode_graph6 and encode_graph6, the graph6 word of
 * a graph's rows and back, and fingerprint, the canonical bytes of a
 * graph polynomial; and the compiled steps of a run-file merge, whose
 * k-way merge is heapq.merge and whose grouper and row writer are
 * group_sorted and family_rows, all in collide.py: scan_records, which
 * cuts and checks the records a buffer holds, and render, which writes a
 * fingerprint as report text. _core.py builds this file on first use
 * against the running interpreter's headers and loads it as an extension
 * module, of functions and constants only. A graph is its rows tuple, a
 * tuple of n ints (see rows_tuple): canonical_form and decode_graph6
 * return one, and canonical_children a list of them. Each of the eight
 * entry points converts its arguments itself: a size past MAXK raises
 * TooLarge, a negative size or too few items ValueError, an item outside
 * its C type OverflowError, and a non-integer TypeError; scan_records
 * and render raise ValueError for an n, m, offset or count out of range
 * or a fingerprint of the wrong length, and TypeError for a buffer or
 * fingerprint that is not bytes, so malformed bytes are never read past
 * their end. A fingerprint coefficient is a C long long, so its magnitude
 * takes at most 8 bytes: the coefficients of a graph polynomial on
 * n <= MAXK vertices are signed sums over permutations, at most
 * n! < 2**63 in magnitude. fingerprint raises OverflowError for any other
 * int, scan_records stops at a longer magnitude as not canonical, and
 * render rejects one with ValueError. The codecs check what their
 * pure-Python twins check, in the same order, and raise the same errors
 * with the same messages: decode_graph6 reads any str, of any kind, only
 * up to its length and raises InvalidChar, TruncatedBody, TrailingGarbage
 * or TooLarge; encode_graph6 raises TooLarge past MAX_VERTICES vertices;
 * fingerprint compares the leading coefficients as Python objects and
 * raises DegreeMismatch.
 *
 * The polynomial kernels need no bound check: they work modulo 2**64,
 * and every coefficient they return fits (see py_graph_poly). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#define MAXK 16

typedef unsigned long long u64;

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
        /* bits past n - 1 are no vertex: counting them would write past r */
        if (s >> j & 1)
            for (m = rows[j] & all; m; m &= m - 1)
                r[__builtin_ctz(m)]++;
        else
            for (m = rows[j] & all; m; m &= m - 1)
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

/* ------------------------------------------------------- Python entry points */

static PyObject *too_large; /* coperm.errors.TooLarge */

/* A size argument plus extra as a C int in 0..MAXK: TooLarge past MAXK,
 * ValueError below 0. */
static int size_arg(PyObject *obj, int extra, int *out)
{
    int overflow;
    long long v;
    PyObject *index = PyNumber_Index(obj);

    if (index == NULL)
        return -1;
    /* sets no error on an exact int, which PyNumber_Index returns */
    v = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (overflow > 0 || v > MAXK - extra) {
        PyErr_Format(too_large, "compiled kernels support sizes <= %d, got %S%s",
                     MAXK, obj, extra ? " + 1" : "");
        return -1;
    }
    if (overflow < 0 || v < 0) {
        PyErr_Format(PyExc_ValueError, "negative size %S", obj);
        return -1;
    }
    *out = (int)v + extra;
    return 0;
}

/* A plain int argument as a C int: OverflowError outside its range. */
static int int_arg(PyObject *obj, int *out)
{
    long v = PyLong_AsLong(obj); /* uses __index__; TypeError without it */

    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < INT_MIN || v > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "argument out of the range of a C int");
        return -1;
    }
    *out = (int)v;
    return 0;
}

/* Every item of values as a C unsigned int, as array("I") converts them;
 * the first need items go to out. ValueError when fewer than need. */
static int items_arg(PyObject *values, Py_ssize_t need, unsigned int *out)
{
    /* a tuple, which no item's __index__ can resize under the loop; a
     * tuple argument is taken as it is */
    PyObject *seq = PySequence_Tuple(values);
    Py_ssize_t len;

    if (seq == NULL)
        return -1;
    len = PyTuple_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *index = PyNumber_Index(PyTuple_GET_ITEM(seq, i));
        unsigned long u;

        if (index == NULL)
            goto fail;
        u = PyLong_AsUnsignedLong(index);
        Py_DECREF(index);
        if (PyErr_Occurred())
            goto fail;
        if (u > UINT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "unsigned int is greater than maximum");
            goto fail;
        }
        if (i < need)
            out[i] = (unsigned int)u;
    }
    Py_DECREF(seq);
    if (len < need) {
        PyErr_Format(PyExc_ValueError, "%zd values needed, got %zd", need, len);
        return -1;
    }
    return 0;
fail:
    Py_DECREF(seq);
    return -1;
}

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments, got %zd",
                 name, want, nargs);
    return 0;
}

/* A new list of the n ints v[0..n), read as signed 64-bit residues. */
static PyObject *int_list(const u64 *v, int n)
{
    PyObject *out = PyList_New(n), *x;

    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        if ((x = PyLong_FromLongLong((long long)v[i])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, x);
    }
    return out;
}

/* The rows tuple of a graph: a new tuple of the n ints rows[0..n). */
static PyObject *rows_tuple(const unsigned int *rows, int n)
{
    PyObject *out = PyTuple_New(n), *x;

    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        if ((x = PyLong_FromUnsignedLong(rows[i])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, x);
    }
    return out;
}

/* graph_poly(rows, n, kind): coefficients, constant first, of
 * per(xI - A) when kind is "perm" and of det(xI - A) otherwise. Both
 * methods use ring operations only, so computing modulo 2**64 gives every
 * coefficient's residue; each coefficient is at most n! <= 16! < 2**45 in
 * magnitude, so the signed residue is its value. */
static PyObject *py_graph_poly(PyObject *Py_UNUSED(module), PyObject *const *args,
                               Py_ssize_t nargs)
{
    unsigned int rows[MAXK];
    u64 acc[MAXK + 1];
    int n;

    if (!nargs_ok("graph_poly", nargs, 3) || size_arg(args[1], 0, &n) < 0
        || items_arg(args[0], n, rows) < 0)
        return NULL;
    if (PyUnicode_Check(args[2]) && PyUnicode_CompareWithASCIIString(args[2], "perm") == 0)
        perm_poly(rows, n, acc);
    else
        char_poly(rows, n, acc);
    return int_list(acc, n + 1);
}

/* canonical_form(rows, n): the rows tuple of the minimum-lex relabeling */
static PyObject *py_canonical_form(PyObject *Py_UNUSED(module), PyObject *const *args,
                                   Py_ssize_t nargs)
{
    unsigned int rows[MAXK], best[MAXK], cur[MAXK], out[MAXK] = {0};
    int perm[MAXK], n;

    if (!nargs_ok("canonical_form", nargs, 2) || size_arg(args[1], 0, &n) < 0
        || items_arg(args[0], n, rows) < 0)
        return NULL;
    targets_of(rows, n, best);
    canon_dfs(rows, n, best, cur, perm, 0, 0, 1);
    for (int j = 0; j < n; j++)
        for (int i = 0; i < j; i++)
            if ((best[j] >> (j - 1 - i)) & 1) {
                out[i] |= 1u << j;
                out[j] |= 1u << i;
            }
    return rows_tuple(out, n);
}

/* canonical_children(rows, k, lo, hi): the rows of every canonical
 * extension of rows[0..k) by a vertex k with neighbour set S,
 * lo <= |S| <= hi, one tuple per child, in decreasing order of S. */
static PyObject *py_canonical_children(PyObject *Py_UNUSED(module), PyObject *const *args,
                                       Py_ssize_t nargs)
{
    unsigned int rows[MAXK], child[MAXK], targets[MAXK];
    int perm[MAXK], size, k, lo, hi;
    PyObject *out, *tuple;

    if (!nargs_ok("canonical_children", nargs, 4) || size_arg(args[1], 1, &size) < 0
        || int_arg(args[2], &lo) < 0 || int_arg(args[3], &hi) < 0)
        return NULL;
    k = size - 1; /* the children have k + 1 vertices */
    if (items_arg(args[0], k, rows) < 0 || (out = PyList_New(0)) == NULL)
        return NULL;
    for (unsigned int s = 1u << k; s-- > 0;) {
        int pc = __builtin_popcount(s);
        if (pc < lo || pc > hi)
            continue;
        for (int i = 0; i < k; i++)
            child[i] = rows[i] | (((s >> i) & 1u) << k);
        child[k] = s;
        targets_of(child, k + 1, targets);
        if (smaller_exists(child, k + 1, targets, perm, 0, 0))
            continue;
        if ((tuple = rows_tuple(child, k + 1)) == NULL)
            goto fail;
        if (PyList_Append(out, tuple) < 0) {
            Py_DECREF(tuple);
            goto fail;
        }
        Py_DECREF(tuple);
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

/* ----------------------------------------------------------- run files */

#define MAX_VERTICES 32 /* graphs.MAX_VERTICES, the largest n of a run */

/* An int argument as a C long long in lo..hi: ValueError outside, where
 * a value past the range of long long is past hi too, and TypeError for
 * a non-integer. */
static int bounded_arg(PyObject *obj, long long lo, long long hi, const char *name,
                       long long *out)
{
    int overflow;
    long long v;
    PyObject *index = PyNumber_Index(obj);

    if (index == NULL)
        return -1;
    v = PyLong_AsLongLongAndOverflow(index, &overflow); /* sets no error: see size_arg */
    Py_DECREF(index);
    if (overflow || v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "%s must lie in %lld..%lld, got %S", name, lo, hi, obj);
        return -1;
    }
    *out = v;
    return 0;
}

/* the sign of a - b for the bytes a[0..alen) and b[0..blen) */
static int bytes_cmp(const void *a, Py_ssize_t alen, const void *b, Py_ssize_t blen)
{
    int c = memcmp(a, b, alen < blen ? alen : blen);

    return c ? (c > 0) - (c < 0) : (alen > blen) - (alen < blen);
}

/* scan_records(buf, pos, count, n, m, prev): the records of a run
 * of shard (n, m) that start at buf[pos], checked and cut as far as the
 * buffer holds whole ones, at most count of them. Each record is the
 * fingerprint (c_(n-2) first, which must be +-m, encoded; then n - 2
 * canonical coefficients of at most 8 magnitude bytes), a length byte
 * and a graph6 word for n vertices; the fingerprints must not decrease,
 * the first not below prev (bytes, or None). Returns (records, pos,
 * stop): the (fingerprint bytes, graph6 str) pairs, the offset after the
 * last of them (on a "graph6" stop, where the rejected word starts), and
 * why the scan stopped: None when it read count records; "more" when the
 * next record runs past buf; when that record fails a check, "lead",
 * "canonical", "graph6" or "unsorted", checked in the order of the
 * record's bytes.
 * Consecutive records of one fingerprint share one bytes object. */
static PyObject *py_scan_records(PyObject *Py_UNUSED(module), PyObject *const *args,
                                 Py_ssize_t nargs)
{
    PyObject *buf, *prev, *last, *records, *fp, *g6, *rec, *out;
    const unsigned char *b, *member;
    unsigned char lead[4];
    long long pos, count, n, m, read = 0;
    Py_ssize_t size, start, end, stop = 0, nbits, width, lead_len = 0;
    int padding, bad, c;
    const char *why = NULL;

    if (!nargs_ok("scan_records", nargs, 6))
        return NULL;
    buf = args[0];
    prev = args[5];
    if (!PyBytes_Check(buf) || (prev != Py_None && !PyBytes_Check(prev))) {
        PyErr_SetString(PyExc_TypeError, "scan_records() takes a bytes buffer, "
                                         "and bytes or None as prev");
        return NULL;
    }
    size = PyBytes_GET_SIZE(buf);
    if (bounded_arg(args[1], 0, size, "pos", &pos) < 0
        || bounded_arg(args[2], 0, LLONG_MAX, "count", &count) < 0
        || bounded_arg(args[3], 0, MAX_VERTICES, "n", &n) < 0
        || bounded_arg(args[4], 0, 0xffff, "m", &m) < 0)
        return NULL;
    b = (const unsigned char *)PyBytes_AS_STRING(buf);
    /* c_(n-2) as its sign byte, which may be 1 only when m > 0, then m's
     * length and little-endian bytes; n < 2 has no coefficient */
    if (n >= 2) {
        lead[1] = (unsigned char)((m > 0) + (m > 0xff));
        lead[2] = (unsigned char)(m & 0xff);
        lead[3] = (unsigned char)(m >> 8);
        lead_len = 2 + lead[1];
    }
    /* a graph6 word for n vertices: its length, first byte, range and
     * zero padding bits */
    nbits = n * (n - 1) / 2;
    width = 1 + (nbits + 5) / 6;
    padding = (1 << (6 - nbits % 6) % 6) - 1;
    last = prev == Py_None ? NULL : prev;
    if ((records = PyList_New(0)) == NULL)
        return NULL;
    for (start = (Py_ssize_t)pos; read < count; start = stop, read++) {
        if (size - start < lead_len)
            goto cut;
        if (n >= 2 && (b[start] > (m > 0) || memcmp(b + start + 1, lead + 1, lead_len - 1))) {
            why = "lead";
            break;
        }
        end = start + lead_len;
        for (long long j = 0; j < n - 2 && !why; j++) {
            unsigned int sign, blen;

            if (size - end < 2)
                goto cut;
            sign = b[end];
            blen = b[end + 1];
            end += 2 + blen;
            /* canonical: a sign of 0 or 1, at most 8 magnitude bytes, the
             * top one nonzero, or else L = 0 (b[end - 1] is then L) and
             * sign 0 */
            if (sign > 1 || blen > 8)
                why = "canonical";
            else if (end > size)
                goto cut;
            else if (b[end - 1] == 0 && (sign || blen))
                why = "canonical";
        }
        if (why)
            break;
        /* the graph6 length byte, then a word of the one valid length */
        stop = end + 1 + width;
        if (stop > size)
            goto cut;
        member = b + end + 1;
        bad = b[end] != width || member[0] != n + 63 || ((member[width - 1] - 63) & padding);
        for (Py_ssize_t i = 0; i < width && !bad; i++)
            bad = member[i] < 63 || member[i] > 126;
        if (bad) {
            why = "graph6";
            start = end + 1;
            break;
        }
        c = last == NULL ? 1 : bytes_cmp(b + start, end - start, PyBytes_AS_STRING(last),
                                         PyBytes_GET_SIZE(last));
        if (c < 0) {
            why = "unsorted";
            break;
        }
        if (c == 0) {
            fp = last;
            Py_INCREF(fp);
        } else if ((fp = PyBytes_FromStringAndSize((const char *)b + start, end - start)) == NULL)
            goto fail;
        if ((g6 = PyUnicode_DecodeASCII((const char *)member, width, NULL)) == NULL) {
            Py_DECREF(fp);
            goto fail;
        }
        if ((rec = PyTuple_New(2)) == NULL) {
            Py_DECREF(fp);
            Py_DECREF(g6);
            goto fail;
        }
        PyTuple_SET_ITEM(rec, 0, fp);
        PyTuple_SET_ITEM(rec, 1, g6);
        last = fp; /* the list holds it from here on */
        if (PyList_Append(records, rec) < 0) {
            Py_DECREF(rec);
            goto fail;
        }
        Py_DECREF(rec);
    }
    goto done;
cut:
    why = "more";
done:
    out = why ? Py_BuildValue("(Ons)", records, start, why)
              : Py_BuildValue("(OnO)", records, start, Py_None);
    Py_DECREF(records);
    return out;
fail:
    Py_DECREF(records);
    return NULL;
}

/* the decimal digits of the little-endian magnitude mag[0..len), len
 * <= 8, written at out; returns how many */
static Py_ssize_t write_decimal(const unsigned char *mag, int len, char *out)
{
    char tmp[20];
    Py_ssize_t k = 0, t = 0;
    u64 v = 0;

    for (int i = len; i-- > 0;)
        v = v << 8 | mag[i];
    do
        tmp[t++] = (char)('0' + v % 10);
    while (v /= 10);
    while (t)
        out[k++] = tmp[--t];
    return k;
}

/* the name of x^j, j <= MAX_VERTICES, written at out ("" for j = 0);
 * returns its length */
static Py_ssize_t write_power(int j, char *out)
{
    Py_ssize_t k = 0;

    if (j == 0)
        return 0;
    out[k++] = 'x';
    if (j == 1)
        return k;
    out[k++] = '^';
    if (j >= 10)
        out[k++] = (char)('0' + j / 10);
    out[k++] = (char)('0' + j % 10);
    return k;
}

/* whether the little-endian magnitude mag[0..len), len >= 1, is 1 */
static int is_one(const unsigned char *mag, int len)
{
    for (int i = 1; i < len; i++)
        if (mag[i])
            return 0;
    return mag[0] == 1;
}

/* ValueError unless b[0..size) is exactly n - 1 coefficients, each a
 * sign byte, a length L <= 8 and L magnitude bytes */
static int fingerprint_check(const unsigned char *b, Py_ssize_t size, long long n)
{
    Py_ssize_t pos = 0;
    long long j;

    for (j = n - 2; j >= 0 && size - pos >= 2 && b[pos + 1] <= 8 && size - pos - 2 >= b[pos + 1];
         j--)
        pos += 2 + b[pos + 1];
    if (j >= 0 || pos != size) {
        PyErr_Format(PyExc_ValueError, "not the fingerprint of a degree-%lld polynomial", n);
        return -1;
    }
    return 0;
}

/* the text of the checked fingerprint b, written at text; returns its
 * length */
static Py_ssize_t render_into(const unsigned char *b, long long n, char *text)
{
    Py_ssize_t pos = 0, k = 0;

    if (n == 0)
        text[k++] = '1';
    k += write_power((int)n, text + k);
    for (long long j = n - 2; j >= 0; j--) {
        int sign = b[pos], blen = b[pos + 1];
        const unsigned char *mag = b + pos + 2;

        pos += 2 + blen;
        if (!blen)
            continue;
        memcpy(text + k, sign ? " - " : " + ", 3);
        k += 3;
        if (!j || !is_one(mag, blen))
            k += write_decimal(mag, blen, text + k);
        k += write_power((int)j, text + k);
    }
    return k;
}

/* render(fp, n): the text of the monic degree-n polynomial whose
 * fingerprint is fp, highest power first, e.g. "x^3 + 3x - 2": a
 * coefficient of magnitude 1 shows no digits unless it is the constant,
 * and a zero one no term. ValueError unless fp is exactly n - 1
 * coefficients, each a sign byte, a length L <= 8 and L magnitude bytes. */
static PyObject *py_render(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    /* room for any checked fingerprint of n <= MAX_VERTICES: "x^n", then
     * per coefficient " - ", the 20 digits of 2**64 - 1 and "x^j" */
    char text[4 + 27 * MAX_VERTICES];
    const unsigned char *b;
    Py_ssize_t size;
    long long n;

    if (!nargs_ok("render", nargs, 2) || bounded_arg(args[1], 0, MAX_VERTICES, "n", &n) < 0)
        return NULL;
    if (!PyBytes_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "render() takes fingerprint bytes");
        return NULL;
    }
    b = (const unsigned char *)PyBytes_AS_STRING(args[0]);
    size = PyBytes_GET_SIZE(args[0]);
    if (fingerprint_check(b, size, n) < 0)
        return NULL;
    return PyUnicode_DecodeASCII(text, render_into(b, n, text), NULL);
}

/* ---------------------------------------------- graph6 and fingerprints */

/* coperm.errors */
static PyObject *invalid_char, *truncated_body, *trailing_garbage, *degree_mismatch;
static PyObject *zero, *one; /* the ints the leading coefficients must equal */

/* decode_graph6(text): the adjacency rows, one int per vertex, of one
 * short-form graph6 word (n <= MAX_VERTICES, no header), trailing
 * newlines dropped. The checks and messages of the twin, in its order:
 * a ">>graph6<<" header or nonzero padding bits raise TrailingGarbage, as
 * does a body past the n(n-1)/2 bits; an empty word or a short body
 * TruncatedBody; a character outside 63..126 InvalidChar, naming the
 * first; n = 63 or n > MAX_VERTICES TooLarge. TypeError unless text is
 * a str. */
static PyObject *py_decode_graph6(PyObject *Py_UNUSED(module), PyObject *const *args,
                                  Py_ssize_t nargs)
{
    static const char header[] = ">>graph6<<";
    unsigned int rows[MAX_VERTICES] = {0};
    PyObject *text;
    Py_ssize_t len, i, nbits, need;
    const void *data;
    int kind, n, j, u;

    if (!nargs_ok("decode_graph6", nargs, 1))
        return NULL;
    text = args[0];
    if (!PyUnicode_Check(text)) {
        PyErr_SetString(PyExc_TypeError, "decode_graph6() takes a str");
        return NULL;
    }
    kind = PyUnicode_KIND(text);
    data = PyUnicode_DATA(text);
    len = PyUnicode_GET_LENGTH(text);
    for (i = 0; i < len && header[i] && PyUnicode_READ(kind, data, i) == (Py_UCS4)header[i];)
        i++;
    if (!header[i]) {
        PyErr_SetString(trailing_garbage, "graph6 format headers are not supported");
        return NULL;
    }
    while (len && PyUnicode_READ(kind, data, len - 1) == '\n')
        len--;
    if (!len) {
        PyErr_SetString(truncated_body, "empty graph6 word");
        return NULL;
    }
    for (i = 0; i < len; i++) {
        Py_UCS4 o = PyUnicode_READ(kind, data, i);

        if (o < 63 || o > 126) {
            PyErr_Format(invalid_char, "byte %u outside the graph6 range 63..126", (unsigned)o);
            return NULL;
        }
    }
    n = (int)PyUnicode_READ(kind, data, 0) - 63;
    if (n == 63) {
        PyErr_SetString(too_large, "multi-byte vertex counts (n > 62) are not supported");
        return NULL;
    }
    if (n > MAX_VERTICES) {
        PyErr_Format(too_large, "n=%d exceeds the %d-vertex cap", n, MAX_VERTICES);
        return NULL;
    }
    nbits = n * (n - 1) / 2;
    need = (nbits + 5) / 6;
    if (len - 1 < need) {
        PyErr_Format(truncated_body, "need %zd bit characters for n=%d, got %zd", need, n,
                     len - 1);
        return NULL;
    }
    if (len - 1 > need) {
        PyErr_Format(trailing_garbage, "%zd extra characters after the adjacency bits",
                     len - 1 - need);
        return NULL;
    }
    if (need && (PyUnicode_READ(kind, data, need) - 63) & ((1u << (6 * need - nbits)) - 1)) {
        PyErr_SetString(trailing_garbage, "nonzero padding bits");
        return NULL;
    }
    /* bit k of the body, most significant first in each character, is the
     * pair (u, j), u < j, of column-order index k = j(j-1)/2 + u */
    u = 0;
    j = 1;
    for (i = 0; i < nbits; i++) {
        if ((PyUnicode_READ(kind, data, 1 + i / 6) - 63) >> (5 - i % 6) & 1) {
            rows[u] |= 1u << j;
            rows[j] |= 1u << u;
        }
        if (++u == j) {
            u = 0;
            j++;
        }
    }
    return rows_tuple(rows, n);
}

/* encode_graph6(rows, n): the short-form graph6 word of the graph with
 * adjacency rows rows[0..n), canonical zero padding bits included; bit i
 * of rows[j], i < j, is the pair (i, j). TooLarge for n > MAX_VERTICES,
 * as the twin raises it; ValueError for a negative n or fewer than n
 * rows, OverflowError for a row outside a C unsigned int. */
static PyObject *py_encode_graph6(PyObject *Py_UNUSED(module), PyObject *const *args,
                                  Py_ssize_t nargs)
{
    unsigned int rows[MAX_VERTICES];
    char word[1 + (MAX_VERTICES * (MAX_VERTICES - 1) / 2 + 5) / 6];
    int overflow, n, k = 0, bits = 0, acc = 0;
    long long v;
    PyObject *index;

    if (!nargs_ok("encode_graph6", nargs, 2) || (index = PyNumber_Index(args[1])) == NULL)
        return NULL;
    v = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (overflow > 0 || v > MAX_VERTICES) {
        PyErr_Format(too_large, "n=%S exceeds the %d-vertex cap", args[1], MAX_VERTICES);
        return NULL;
    }
    if (overflow < 0 || v < 0) {
        PyErr_Format(PyExc_ValueError, "negative size %S", args[1]);
        return NULL;
    }
    n = (int)v;
    if (items_arg(args[0], n, rows) < 0)
        return NULL;
    word[k++] = (char)(n + 63);
    for (int j = 1; j < n; j++)
        for (int i = 0; i < j; i++) {
            acc = acc << 1 | (rows[j] >> i & 1);
            if (++bits == 6) {
                word[k++] = (char)(acc + 63);
                acc = bits = 0;
            }
        }
    if (bits)
        word[k++] = (char)((acc << (6 - bits)) + 63);
    return PyUnicode_DecodeASCII(word, k, NULL);
}

/* the sign and length bytes, then the least little-endian bytes, of the
 * magnitude of v, at out; returns how many */
static Py_ssize_t put_coefficient(long long v, unsigned char *out)
{
    u64 mag = v < 0 ? 0 - (u64)v : (u64)v;
    int blen = 0;

    for (u64 rest = mag; rest; rest >>= 8)
        out[2 + blen++] = (unsigned char)rest;
    out[0] = v < 0;
    out[1] = (unsigned char)blen;
    return 2 + blen;
}

/* fingerprint(p, n, m, kind): the canonical bytes of the monic degree-n
 * graph polynomial p (coefficients constant first), as the twin makes
 * them: per coefficient c_(n-2) down to c_0, a sign byte, a length L and
 * L little-endian magnitude bytes, the least L, which is at most 8. Its
 * checks and messages, in its order: DegreeMismatch unless p has n + 1
 * coefficients and p[n] == 1, unless p[n-1] == 0, and unless p[n-2] is m
 * for kind "perm" and -m otherwise. ValueError for a negative n;
 * TypeError for p not a sequence, or a coefficient c_(n-2)..c_0 that is
 * not an int, and OverflowError for one outside a C long long, which no
 * graph polynomial of at most MAXK vertices needs: its coefficients are
 * at most n! < 2**63 in magnitude. */
static PyObject *py_fingerprint(PyObject *Py_UNUSED(module), PyObject *const *args,
                                Py_ssize_t nargs)
{
    PyObject *seq, **p, *want, *out = NULL;
    Py_ssize_t len, size = 0;
    long long n, v;
    unsigned char *b;
    int overflow, differs = 1;

    if (!nargs_ok("fingerprint", nargs, 4)
        || bounded_arg(args[1], 0, LLONG_MAX, "n", &n) < 0
        || (seq = PySequence_Tuple(args[0])) == NULL) /* no comparison can resize it */
        return NULL;
    p = &PyTuple_GET_ITEM(seq, 0);
    len = PyTuple_GET_SIZE(seq);
    if (len - 1 == n && (differs = PyObject_RichCompareBool(p[n], one, Py_NE)) < 0)
        goto fail;
    if (differs) {
        PyErr_Format(degree_mismatch, "expected a monic polynomial of degree %lld", n);
        goto fail;
    }
    if (n >= 1 && (differs = PyObject_RichCompareBool(p[n - 1], zero, Py_NE))) {
        if (differs > 0)
            PyErr_SetString(degree_mismatch,
                            "x^(n-1) coefficient must vanish for a graph polynomial");
        goto fail;
    }
    if (n >= 2) {
        if (PyUnicode_Check(args[3]) && PyUnicode_CompareWithASCIIString(args[3], "perm") == 0)
            want = Py_NewRef(args[2]);
        else if ((want = PyNumber_Negative(args[2])) == NULL)
            goto fail;
        differs = PyObject_RichCompareBool(p[n - 2], want, Py_NE);
        Py_DECREF(want);
        if (differs) {
            if (differs > 0)
                PyErr_Format(degree_mismatch, "x^(n-2) coefficient %S disagrees with m=%S (%S)",
                             p[n - 2], args[2], args[3]);
            goto fail;
        }
    }
    /* room for the n - 1 coefficients at their longest, cut to what they
     * take once written */
    if ((out = PyBytes_FromStringAndSize(NULL, n >= 2 ? 10 * (n - 1) : 0)) == NULL)
        goto fail;
    b = (unsigned char *)PyBytes_AS_STRING(out);
    for (long long j = n - 2; j >= 0; j--) {
        if (!PyLong_Check(p[j])) {
            PyErr_SetString(PyExc_TypeError, "fingerprint() takes a sequence of ints");
            goto fail;
        }
        /* on an int, it reports a value out of range through overflow only */
        v = PyLong_AsLongLongAndOverflow(p[j], &overflow);
        if (overflow) {
            PyErr_SetString(PyExc_OverflowError,
                            "fingerprint coefficient outside the signed 64-bit range");
            goto fail;
        }
        size += put_coefficient(v, b + size);
    }
    Py_DECREF(seq);
    if (_PyBytes_Resize(&out, size) < 0)
        return NULL;
    return out;
fail:
    Py_XDECREF(out);
    Py_DECREF(seq);
    return NULL;
}

#define ENTRY(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(graph_poly, "Coefficients (constant first) of per/det(xI - A) for adjacency rows."),
    ENTRY(canonical_form, "The rows tuple of the minimum-lex relabeling of the graph."),
    ENTRY(canonical_children,
          "Rows of each canonical extension by a new vertex k with neighbour set S,\n"
          "lo <= |S| <= hi: one tuple per child, in decreasing order of S."),
    ENTRY(scan_records,
          "The checked (fingerprint, graph6) records of a run of shard (n, m) that buf\n"
          "holds whole from pos, at most count: (records, pos, stop)."),
    ENTRY(render, "The text of the monic degree-n polynomial whose fingerprint is fp."),
    ENTRY(decode_graph6, "The adjacency rows of one short-form graph6 word, as a tuple."),
    ENTRY(encode_graph6, "The short-form graph6 word of adjacency rows of n vertices."),
    ENTRY(fingerprint, "Canonical bytes for a monic degree-n graph polynomial."),
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    PyObject *errors = PyImport_ImportModule("coperm.errors");

    if (errors == NULL)
        return -1;
    Py_XSETREF(too_large, PyObject_GetAttrString(errors, "TooLarge"));
    Py_XSETREF(invalid_char, PyObject_GetAttrString(errors, "InvalidChar"));
    Py_XSETREF(truncated_body, PyObject_GetAttrString(errors, "TruncatedBody"));
    Py_XSETREF(trailing_garbage, PyObject_GetAttrString(errors, "TrailingGarbage"));
    Py_XSETREF(degree_mismatch, PyObject_GetAttrString(errors, "DegreeMismatch"));
    Py_DECREF(errors);
    if (too_large == NULL || invalid_char == NULL || truncated_body == NULL
        || trailing_garbage == NULL || degree_mismatch == NULL)
        return -1;
    Py_XSETREF(zero, PyLong_FromLong(0));
    Py_XSETREF(one, PyLong_FromLong(1));
    if (zero == NULL || one == NULL)
        return -1;
    if (PyModule_AddIntConstant(module, "MAXK", MAXK) < 0)
        return -1;
    return PyModule_AddIntConstant(module, "MAX_VERTICES", MAX_VERTICES);
}

static PyModuleDef_Slot slots[] = {
    /* an object pointer in the slot's type, by way of an integer, as ISO C
     * allows no direct cast from a function pointer */
    {Py_mod_exec, (void *)(uintptr_t)exec_module},
#if PY_VERSION_HEX >= 0x030C0000
    /* the exceptions and ints it holds are statics of the whole process */
    {Py_mod_multiple_interpreters, Py_MOD_MULTIPLE_INTERPRETERS_NOT_SUPPORTED},
#endif
    {0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "coperm._core", NULL, 0, methods, slots, NULL, NULL, NULL,
};

/* loaded under the name coperm._core, so the kernels belong to that module */
PyMODINIT_FUNC PyInit__core(void)
{
    return PyModuleDef_Init(&module_def);
}
