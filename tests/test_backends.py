"""The compiled kernels and the pure-Python twin must be interchangeable,
the compiled ones must guard their fixed-size arrays, and backend
selection must say why it chose what it did."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import coperm
from coperm import backend
from coperm.backend import available_backends
from coperm.enumerate import enumerate_graphs
from coperm.errors import TooLarge
from coperm.graphs import Graph

from oracles import char_matrix, from_values, mul, perm_poly_symbolic, random_graph

BACKENDS = available_backends()
needs_both = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason=f"compiled kernels unavailable: {backend.REASON}")


@needs_both
def test_permanent_and_determinant_agree():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    rng = random.Random(12)
    for _ in range(400):
        k = rng.randint(0, 8)
        flat = [rng.randint(-5, 5) for _ in range(k * k)]
        assert a.permanent(flat, k) == b.permanent(flat, k)
        assert a.determinant(flat, k) == b.determinant(flat, k)


@needs_both
def test_graph_poly_agrees():
    rng = random.Random(13)
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    for _ in range(200):
        n = rng.randint(0, 9)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        for kind in ("perm", "char"):
            assert a.graph_poly(rows, n, kind) == b.graph_poly(rows, n, kind)


@needs_both
def test_canonical_machinery_agrees():
    rng = random.Random(14)
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        assert a.canonical_form(rows, n) == b.canonical_form(rows, n)
        if n:
            k = n - 1
            assert a.canonical_children(rows[:k], k, 0, k) == \
                b.canonical_children(rows[:k], k, 0, k)


@needs_both
def test_canonical_form_fixed_point_means_canonical():
    # canonical_children returns a subset exactly when its child graph is
    # its own canonical_form
    rng = random.Random(15)
    core = BACKENDS["compiled"]
    for _ in range(200):
        k = rng.randint(0, 6)
        rows = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.4:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        rows = core.canonical_form(rows, k)
        kept = set(core.canonical_children(rows, k, 0, k))
        for s in range(1 << k):
            child = [r | ((s >> i & 1) << k) for i, r in enumerate(rows)] + [s]
            assert (s in kept) == (core.canonical_form(child, k + 1) == child)


@needs_both
def test_enumeration_identical_across_backends():
    a = BACKENDS["compiled"]
    b = BACKENDS["pure-python"]

    def levels(impl, n):
        out = [[()]]
        for k in range(n):
            nxt = []
            for rows in out[-1]:
                for s in impl.canonical_children(list(rows), k, 0, k):
                    nxt.append(tuple(r | (((s >> i) & 1) << k)
                                     for i, r in enumerate(rows)) + (s,))
            out.append(nxt)
        return out[-1]

    for n in range(6):
        assert sorted(levels(a, n)) == sorted(levels(b, n))


@needs_both
@pytest.mark.parametrize("name, args", [
    ("permanent", ([0] * 17 * 17, 17)),
    ("determinant", ([0] * 17 * 17, 17)),
    ("graph_poly", ([0] * 17, 17, "perm")),
    ("canonical_form", ([0] * 17, 17)),
    ("canonical_children", ([0] * 16, 16, 0, 16)),  # children have 17 vertices
])
def test_compiled_entry_points_reject_size_17(name, args):
    with pytest.raises(TooLarge):
        getattr(BACKENDS["compiled"], name)(*args)


@needs_both
def test_compiled_entry_points_reject_short_and_out_of_range_input():
    core = BACKENDS["compiled"]
    with pytest.raises(ValueError):
        core.permanent([1, 2, 3], 2)  # the kernel would read a fourth entry
    with pytest.raises(ValueError):
        core.canonical_form([0, 0], 3)
    with pytest.raises(OverflowError):
        core.determinant([1 << 64], 1)
    with pytest.raises(OverflowError):
        core.canonical_form([-1], 1)


# ------------------------------------- exactness of the polynomial kernels

def complete(n):
    return Graph(n, tuple(((1 << n) - 1) ^ (1 << i) for i in range(n)))


def interpolated(g, kind):
    """Oracle: per/det(tI - A) at t = 0..n with the scalar kernels of the
    backend in use, then exact interpolation."""
    impl = BACKENDS[backend.BACKEND]
    fn = impl.permanent if kind == "perm" else impl.determinant
    values = []
    for t in range(g.n + 1):
        mat = char_matrix(g, t)
        # a row's sum of squared entries bounds its sum of absolute entries,
        # so this keeps both 128-bit kernels within their caller contracts
        assert math.prod(max(1, sum(e * e for e in row)) for row in mat) < 1 << 120
        values.append(fn([e for row in mat for e in row], g.n))
    return list(from_values(values))


def assert_exact(g, kind, want):
    for impl in BACKENDS.values():
        assert impl.graph_poly(list(g.rows), g.n, kind) == want, (impl.BACKEND_NAME, g, kind)


@needs_both
def test_coefficient_bound_fits_64_bits():
    # Expanded over permutations, each permutation adds +-x^k or 0 to
    # per/det(xI - A), so no coefficient exceeds n! in magnitude; the
    # compiled kernels compute modulo 2**64 and read the residue signed,
    # which is exact for every size they accept
    maxk = BACKENDS["compiled"].MAXK
    for n in range(maxk + 1):
        assert math.factorial(n) < 2 ** 63


def test_graph_polys_exact_on_every_graph_up_to_7(graphs_by_n):
    graphs = [g for n in range(7) for g in graphs_by_n[n]] + list(enumerate_graphs(7))
    assert len(graphs) == 1253
    for g in graphs:
        assert_exact(g, "perm", list(perm_poly_symbolic(g)))
        assert_exact(g, "char", interpolated(g, "char"))


def derangements(k):
    d = [1, 0]
    for i in range(2, k + 1):
        d.append((i - 1) * (d[-1] + d[-2]))
    return d[k]


def complete_and_empty_cases(n):
    """(graph, kind, polynomial) for K_n and the empty graph on n vertices."""
    # per(xI - A(K_n)): sum over permutations with k fixed points of
    # (-1)^(n-k) x^k; det(xI - A(K_n)) = (x - n + 1)(x + 1)^(n - 1)
    perm = [math.comb(n, k) * derangements(n - k) * (-1) ** (n - k) for k in range(n + 1)]
    char = [1]
    for root in [n - 1] + [-1] * (n - 1) if n else []:
        char = list(mul(char, (-root, 1)))
    assert max(map(abs, perm + char)) <= math.factorial(n)
    x_to_n = [0] * n + [1]
    empty = Graph(n, (0,) * n)
    return [(complete(n), "perm", perm), (complete(n), "char", char),
            (empty, "perm", x_to_n), (empty, "char", x_to_n)]


def test_complete_and_empty_graphs_exact_up_to_12():
    for n in range(13):
        for g, kind, want in complete_and_empty_cases(n):
            assert_exact(g, kind, want)


@needs_both
def test_complete_and_empty_graphs_exact_13_to_maxk_compiled():
    # up to the largest size the compiled kernels accept, MAXK
    core = BACKENDS["compiled"]
    assert core.MAXK == 16
    for n in range(13, core.MAXK + 1):
        for g, kind, want in complete_and_empty_cases(n):
            assert core.graph_poly(list(g.rows), n, kind) == want, (n, kind)


def test_random_graphs_exact_8_to_12():
    rng = random.Random(16)
    for _ in range(30):
        g = random_graph(rng, rng.randint(8, 12))
        for kind in ("perm", "char"):
            want = interpolated(g, kind)
            assert max(map(abs, want)) <= math.factorial(g.n)
            assert_exact(g, kind, want)


@needs_both
def test_128_bit_results_cross_exactly():
    # the caller contract of the 128-bit Ryser kernel: the rows' sums of
    # absolute entries multiply to less than 2**126
    big = [[120] * 12 for _ in range(12)]
    assert (12 * 120) ** 12 < 1 << 126
    want = math.factorial(12) * 120 ** 12  # about 2**111
    assert want > 1 << 110
    neg = [[-120] * 11 for _ in range(11)]
    assert (11 * 120) ** 11 < 1 << 126
    neg_want = -math.factorial(11) * 120 ** 11  # about -2**101
    for impl in BACKENDS.values():
        assert impl.permanent([e for row in big for e in row], 12) == want
        assert impl.permanent([e for row in neg for e in row], 11) == neg_want


def paley_hadamard_12():
    """Order-12 Hadamard matrix I + S from the quadratic residues mod 11."""
    squares = {x * x % 11 for x in range(1, 11)}

    def chi(a):
        return 0 if a % 11 == 0 else (1 if a % 11 in squares else -1)

    s = [[0] + [1] * 11] + [[-1] + [chi(j - i) for j in range(11)] for i in range(11)]
    return [[s[i][j] + (i == j) for j in range(12)] for i in range(12)]


@needs_both
def test_negative_determinant_at_the_hadamard_bound():
    h = paley_hadamard_12()
    assert all(sum(x * y for x, y in zip(h[i], h[j])) == 12 * (i == j)
               for i in range(12) for j in range(12))
    m = [[9 * e for e in row] for row in h]
    m[0], m[1] = m[1], m[0]
    # the caller contract of the 128-bit Bareiss kernel: the rows' sums of
    # squared entries multiply to less than 2**120. Hadamard's inequality
    # caps |det| at the square root of that product; 9H attains it
    bound = math.prod(sum(e * e for e in row) for row in m)
    assert bound == (81 * 12) ** 12 < 1 << 120
    want = -(9 ** 12 * 12 ** 6)
    assert want * want == bound
    for impl in BACKENDS.values():
        assert impl.determinant([e for row in m for e in row], 12) == want


# ------------------------------------------------------- backend selection

def select_backend(env_changes, pythonpath=None):
    """BACKEND and REASON of a fresh import, and its stderr lines."""
    env = dict(os.environ)
    env.pop("COPERM_PURE_PYTHON", None)
    env.update(env_changes)
    env["PYTHONPATH"] = str(pythonpath or Path(coperm.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from coperm import backend; "
         "print(json.dumps([backend.BACKEND, backend.REASON]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    name, reason = json.loads(proc.stdout)
    return name, reason, proc.stderr.splitlines()


@pytest.mark.parametrize("pure", [False, True], ids=["default", "COPERM_PURE_PYTHON"])
def test_import_coperm_loads_only_the_backend(pure):
    """A bare `import coperm` selects the kernels and names them in BACKEND,
    and loads none of the census modules."""
    env = dict(os.environ, PYTHONPATH=str(Path(coperm.__file__).parents[1]))
    env.pop("COPERM_PURE_PYTHON", None)
    if pure:
        env["COPERM_PURE_PYTHON"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, coperm; print(json.dumps([coperm.BACKEND, "
         "coperm.backend.graph_poly.__module__, sorted(sys.modules)]))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    name, kernels, loaded = json.loads(proc.stdout)
    assert not {"coperm.pipeline", "coperm.collide", "coperm.cli", "coperm.enumerate"} \
        & set(loaded)
    want = "pure-python" if pure or "compiled" not in BACKENDS else "compiled"
    assert name == want
    assert kernels == {"compiled": "coperm._core", "pure-python": "coperm._purepy"}[want]


def test_pure_python_switch_is_quiet():
    name, reason, err = select_backend({"COPERM_PURE_PYTHON": "1"})
    assert (name, reason, err) == ("pure-python", "COPERM_PURE_PYTHON set", [])


def copy_package(tmp_path, kernels_c: bytes) -> Path:
    """A copy of the package with the given _kernels.c; returns the
    directory to put on PYTHONPATH."""
    package = Path(coperm.__file__).parent
    copy = tmp_path / "src" / "coperm"
    copy.mkdir(parents=True)
    for f in package.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    (copy / "_kernels.c").write_bytes(kernels_c)
    return copy.parent


@needs_both
def test_compiles_once_then_loads_quietly(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    cache = tmp_path / "cache" / "coperm"
    first = select_backend(env)
    [place] = cache.iterdir()  # one directory per package location
    libs = list(place.iterdir())
    assert len(libs) == 1  # the library, and no temporary file left
    assert first == ("compiled", f"compiled {libs[0]}", [])
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])
    # a copy with another source shares the cache: after the first build of
    # each, both load without rebuilding, whichever ran last
    source = (Path(coperm.__file__).parent / "_kernels.c").read_bytes()
    copy = copy_package(tmp_path, source + b"/* edited */\n")
    edited = select_backend(env, copy)
    [copy_place] = set(cache.iterdir()) - {place}
    copy_libs = list(copy_place.iterdir())
    assert edited == ("compiled", f"compiled {copy_libs[0]}", [])
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])
    assert select_backend(env, copy) == ("compiled", f"loaded {copy_libs[0]}", [])
    # a source edited in place builds afresh, and the build removes the old
    # library of that place only
    (copy / "coperm" / "_kernels.c").write_bytes(source + b"/* edited again */\n")
    again = select_backend(env, copy)
    new_libs = list(copy_place.iterdir())
    assert len(new_libs) == 1 and new_libs != copy_libs
    assert again == ("compiled", f"compiled {new_libs[0]}", [])
    assert select_backend(env) == ("compiled", f"loaded {libs[0]}", [])


@pytest.mark.parametrize("setup, reason_start", [
    pytest.param("cache-is-file", "cache directory unusable: ", marks=needs_both),
    ("no-cc", "cc not found"),
    pytest.param("bad-source", "build failed: ", marks=needs_both),
])
def test_unwanted_fallback_says_why_on_stderr(tmp_path, setup, reason_start):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    pythonpath = None
    if setup == "cache-is-file":
        (tmp_path / "cache").write_text("not a directory\n")
    elif setup == "no-cc":
        env["PATH"] = str(tmp_path)
    else:
        pythonpath = copy_package(tmp_path, b"this is not C\n")
    name, reason, err = select_backend(env, pythonpath)
    assert name == "pure-python"
    assert reason.startswith(reason_start)
    assert len(err) == 1 and reason in err[0]
