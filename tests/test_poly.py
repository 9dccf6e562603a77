import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coperm.collide import fingerprint, render
from oracles import evaluate, from_values, mul, text


def test_from_values_known():
    assert from_values([1, 2, 5]) == (1, 0, 1)        # x^2 + 1
    assert from_values([0, 1, 8, 27]) == (0, 0, 0, 1)  # x^3
    assert from_values([7]) == (7,)


def test_from_values_round_trip_random():
    rng = random.Random(4242)
    for _ in range(300):
        deg = rng.randint(0, 11)
        coeffs = tuple(rng.randint(-50, 50) for _ in range(deg)) + (1,)
        values = [evaluate(coeffs, t) for t in range(deg + 1)]
        assert from_values(values) == coeffs


def test_from_values_rejects_non_integer_polynomials():
    # x(x-1)/2 takes integer values 0, 0, 1 but is not in Z[x]
    with pytest.raises(ValueError):
        from_values([0, 0, 1])


def test_mul():
    assert mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert mul((2,), (0, 0, 3)) == (0, 0, 6)


def rendered(p, m, kind="perm"):
    n = len(p) - 1
    return render(fingerprint(p, n, m, kind), n)


def test_text():
    assert rendered((1, 0, 1), 1) == "x^2 + 1"
    assert rendered((-1, 0, 1), 1, "char") == "x^2 - 1"
    assert rendered((0, 2, 0, 1), 2) == "x^3 + 2x"
    assert rendered((-2, 3, 0, 1), 3) == "x^3 + 3x - 2"
    assert rendered((0, 1), 0) == "x"
    assert rendered((1,), 0) == "1"
    assert rendered((0, 0, 1), 0) == "x^2"
    # the oracle alone: neither is a graph polynomial (not monic, and a
    # nonzero x^(n-1) coefficient), so neither has a fingerprint
    assert text((0,)) == "0"
    assert text((0, -1, -7, 1)) == "x^3 - 7x^2 - x"


# one magnitude byte (the memoized case) at its edges, then two bytes, then
# up to the 8 bytes of a C long long, the most a fingerprint holds
EDGE_MAGNITUDES = (0, 1, 2, 255, 256, 2**32, 2**63 - 1)
EDGE_COEFFICIENTS = (*EDGE_MAGNITUDES, *(-a for a in EDGE_MAGNITUDES), -2**63)


def graph_shaped(n: int, m: int, kind: str, body) -> tuple:
    """The monic degree-n polynomial with x^(n-1) = 0, x^(n-2) = +-m and
    c_(n-3) down to c_0 taken from body."""
    p = [0] * (n + 1)
    p[n] = 1
    if n >= 2:
        p[n - 2] = m if kind == "perm" else -m
    for j, c in zip(range(n - 3, -1, -1), body):
        p[j] = c
    return tuple(p)


coefficients = st.one_of(
    st.sampled_from(EDGE_COEFFICIENTS),
    st.integers(-300, 300),
    st.integers(-2**63, 2**63 - 1))


@st.composite
def graph_polynomials(draw):
    n = draw(st.integers(0, 32))
    m = draw(st.integers(0, n * (n - 1) // 2))
    kind = draw(st.sampled_from(("perm", "char")))
    body = draw(st.lists(coefficients, min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return n, m, kind, graph_shaped(n, m, kind, body)


@settings(max_examples=300, deadline=None)
@given(graph_polynomials())
def test_render_equals_text_oracle(case):
    n, m, kind, p = case
    assert render(fingerprint(p, n, m, kind), n) == text(p)


def test_render_memo_is_per_degree():
    # every edge coefficient at every degree, in one process, so a term
    # memoized at one degree is looked up again at all the others
    for c in EDGE_COEFFICIENTS:
        for n in (32, 3, 17, 2, 32):
            p = graph_shaped(n, 1, "perm", [c] * n)
            assert render(fingerprint(p, n, 1), n) == text(p)
