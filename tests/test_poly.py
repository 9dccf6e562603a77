import random

import pytest

from coperm import poly
from oracles import evaluate, from_values, mul


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


def test_text():
    assert poly.text((1, 0, 1)) == "x^2 + 1"
    assert poly.text((-1, 0, 1)) == "x^2 - 1"
    assert poly.text((0, 2, 0, 1)) == "x^3 + 2x"
    assert poly.text((-2, 3, 0, 1)) == "x^3 + 3x - 2"
    assert poly.text((0, 1)) == "x"
    assert poly.text((1,)) == "1"
    assert poly.text((0,)) == "0"
    assert poly.text((0, -1, -7, 1)) == "x^3 - 7x^2 - x"
