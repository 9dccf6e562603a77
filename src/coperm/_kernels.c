/* Compiled kernels of coperm, as the CPython extension module behind
 * coperm._core: graph-polynomial coefficients computed directly (Ryser
 * for per(xI - A), Berkowitz for det(xI - A)), the minimum-lex
 * canonical-order search and the canonical children it yields, and
 * scalar Ryser permanents and Bareiss determinants of integer matrices.
 * _core.py builds this file on first use against the running
 * interpreter's headers and loads it as an extension module. Each entry
 * point converts its arguments itself: a size past MAXK raises TooLarge,
 * a negative size or too few items ValueError, an item outside its C
 * type OverflowError, and a non-integer TypeError.
 *
 * The polynomial kernels need no bound check: they work modulo 2**64,
 * and every coefficient they return fits (see py_graph_poly). The
 * scalar kernels accumulate in 128 bits, and their caller must keep them
 * in range: for permanent, the product over rows of each row's sum of
 * absolute entries (a zero row counting 1) below 2**126; for
 * determinant, the product over rows of each row's sum of squared
 * entries below 2**120, so that by Hadamard's inequality every minor,
 * and each product of two that Bareiss forms, fits. The Ryser sum alone
 * may pass 2**127 between terms, so it accumulates modulo 2**128, which
 * is exact whenever the final permanent fits. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

#define MAXK 16

typedef __int128 i128;
typedef unsigned __int128 u128;
typedef unsigned long long u64;

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
    v = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (v == -1 && PyErr_Occurred())
        return -1;
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

/* Every item of values as a C unsigned int (wide = 0) or long long
 * (wide = 1), as array("I") and array("q") convert them; the first need
 * items go to out. ValueError when fewer than need. */
static int items_arg(PyObject *values, Py_ssize_t need, int wide, void *out)
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
        long long v = 0;
        unsigned long u = 0;

        if (index == NULL)
            goto fail;
        if (wide)
            v = PyLong_AsLongLong(index);
        else
            u = PyLong_AsUnsignedLong(index);
        Py_DECREF(index);
        if (PyErr_Occurred())
            goto fail;
        if (!wide && u > UINT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "unsigned int is greater than maximum");
            goto fail;
        }
        if (i < need) {
            if (wide)
                ((long long *)out)[i] = v;
            else
                ((unsigned int *)out)[i] = (unsigned int)u;
        }
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

static PyObject *from_i128(i128 v)
{
    PyObject *hi, *shift, *lo, *up = NULL, *sum = NULL;

    if (v == (long long)v)
        return PyLong_FromLongLong((long long)v);
    hi = PyLong_FromLongLong((long long)(v >> 64));
    shift = PyLong_FromLong(64);
    lo = PyLong_FromUnsignedLongLong((u64)v);
    if (hi && shift && lo && (up = PyNumber_Lshift(hi, shift)))
        sum = PyNumber_Add(up, lo);
    Py_XDECREF(hi);
    Py_XDECREF(shift);
    Py_XDECREF(lo);
    Py_XDECREF(up);
    return sum;
}

static PyObject *matrix_kernel(const char *name, PyObject *const *args, Py_ssize_t nargs,
                               int perm)
{
    long long entries[MAXK * MAXK];
    i128 a[MAXK * MAXK];
    int k;

    if (!nargs_ok(name, nargs, 2) || size_arg(args[1], 0, &k) < 0
        || items_arg(args[0], k * k, 1, entries) < 0)
        return NULL;
    for (int i = 0; i < k * k; i++)
        a[i] = entries[i];
    return from_i128(perm ? ryser(a, k) : bareiss(a, k));
}

static PyObject *py_permanent(PyObject *Py_UNUSED(module), PyObject *const *args,
                              Py_ssize_t nargs)
{
    return matrix_kernel("permanent", args, nargs, 1);
}

static PyObject *py_determinant(PyObject *Py_UNUSED(module), PyObject *const *args,
                                Py_ssize_t nargs)
{
    return matrix_kernel("determinant", args, nargs, 0);
}

/* A new list of the n ints v[0..n), read as C unsigned ints (wide = 0) or
 * as signed 64-bit residues (wide = 1). */
static PyObject *int_list(const void *v, int n, int wide)
{
    PyObject *out = PyList_New(n), *x;

    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        x = wide ? PyLong_FromLongLong((long long)((const u64 *)v)[i])
                 : PyLong_FromUnsignedLong(((const unsigned int *)v)[i]);
        if (x == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, x);
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
        || items_arg(args[0], n, 0, rows) < 0)
        return NULL;
    if (PyUnicode_Check(args[2]) && PyUnicode_CompareWithASCIIString(args[2], "perm") == 0)
        perm_poly(rows, n, acc);
    else
        char_poly(rows, n, acc);
    return int_list(acc, n + 1, 1);
}

/* canonical_form(rows, n): adjacency rows of the minimum-lex relabeling */
static PyObject *py_canonical_form(PyObject *Py_UNUSED(module), PyObject *const *args,
                                   Py_ssize_t nargs)
{
    unsigned int rows[MAXK], best[MAXK], cur[MAXK], out[MAXK] = {0};
    int perm[MAXK], n;

    if (!nargs_ok("canonical_form", nargs, 2) || size_arg(args[1], 0, &n) < 0
        || items_arg(args[0], n, 0, rows) < 0)
        return NULL;
    targets_of(rows, n, best);
    canon_dfs(rows, n, best, cur, perm, 0, 0, 1);
    for (int j = 0; j < n; j++)
        for (int i = 0; i < j; i++)
            if ((best[j] >> (j - 1 - i)) & 1) {
                out[i] |= 1u << j;
                out[j] |= 1u << i;
            }
    return int_list(out, n, 0);
}

/* canonical_children(rows, k, lo, hi): the rows of every canonical
 * extension of rows[0..k) by a vertex k with neighbour set S,
 * lo <= |S| <= hi, one tuple per child, in decreasing order of S. */
static PyObject *py_canonical_children(PyObject *Py_UNUSED(module), PyObject *const *args,
                                       Py_ssize_t nargs)
{
    unsigned int rows[MAXK], child[MAXK], targets[MAXK];
    int perm[MAXK], size, k, lo, hi;
    PyObject *out, *tuple, *x;

    if (!nargs_ok("canonical_children", nargs, 4) || size_arg(args[1], 1, &size) < 0
        || int_arg(args[2], &lo) < 0 || int_arg(args[3], &hi) < 0)
        return NULL;
    k = size - 1; /* the children have k + 1 vertices */
    if (items_arg(args[0], k, 0, rows) < 0 || (out = PyList_New(0)) == NULL)
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
        if ((tuple = PyTuple_New(k + 1)) == NULL)
            goto fail;
        for (int i = 0; i <= k; i++) {
            if ((x = PyLong_FromUnsignedLong(child[i])) == NULL) {
                Py_DECREF(tuple);
                goto fail;
            }
            PyTuple_SET_ITEM(tuple, i, x);
        }
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

#define ENTRY(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(permanent, "Permanent of a k x k matrix given as a flat row-major list."),
    ENTRY(determinant, "Determinant by fraction-free elimination; every division is exact."),
    ENTRY(graph_poly, "Coefficients (constant first) of per/det(xI - A) for adjacency rows."),
    ENTRY(canonical_form, "Adjacency rows of the minimum-lex relabeling of the graph."),
    ENTRY(canonical_children,
          "Rows of each canonical extension by a new vertex k with neighbour set S,\n"
          "lo <= |S| <= hi: one tuple per child, in decreasing order of S."),
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    PyObject *errors = PyImport_ImportModule("coperm.errors");

    if (errors == NULL)
        return -1;
    Py_XSETREF(too_large, PyObject_GetAttrString(errors, "TooLarge"));
    Py_DECREF(errors);
    if (too_large == NULL)
        return -1;
    return PyModule_AddIntConstant(module, "MAXK", MAXK);
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
#if PY_VERSION_HEX >= 0x030C0000
    /* too_large is one static for the whole process */
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
