import random

import pytest

from splitstat.errors import ResourceLimitError
from splitstat.fppoly import (
    FieldPolynomial,
    _mul,
    enumerate_class_counts,
    full_factor_mod_p,
    is_squarefree_mod_p,
    splitting_type_mod_p,
)


def P(coeffs, p):
    return FieldPolynomial.from_list(coeffs, p)


def test_field_polynomial_validation():
    with pytest.raises(ValueError):
        FieldPolynomial(p=5, coeffs=(1, 0))  # leading zero
    with pytest.raises(ValueError):
        FieldPolynomial(p=5, coeffs=(7,))  # unreduced
    with pytest.raises(ValueError):
        FieldPolynomial(p=1, coeffs=(1,))


def test_reduce_mod_p():
    # A monic integer row (a_0, ..., a_{n-1}) reduces with its implicit leading 1.
    f = (-1, -1, 0)  # X^3 - X - 1
    assert P(list(f) + [1], 2).coeffs == (1, 1, 0, 1)  # X^3 + X + 1
    g = (6, 4)  # X^2 + 4X + 6
    assert P(list(g) + [1], 2).coeffs == (0, 0, 1)  # X^2
    h = (100, 100, 0)  # X^3 + 100X + 100
    assert P(list(h) + [1], 5).coeffs == (0, 0, 0, 1)  # X^3


def test_is_squarefree():
    assert is_squarefree_mod_p(P([1, 1, 1], 2))  # X^2+X+1
    assert not is_squarefree_mod_p(P([0, 0, 1], 2))  # X^2
    # X^3 - X mod 3 = X(X-1)(X+1), distinct roots
    assert is_squarefree_mod_p(P([0, -1, 0, 1], 3))


def test_splitting_type_examples():
    f = (-1, -1, 0)  # X^3 - X - 1 = X^3 + X + 1 mod 2, irreducible
    assert splitting_type_mod_p(f, 2) == (0, 0, 1)
    assert splitting_type_mod_p(f, 5) == (1, 1, 0)
    g = (6, 4)  # X^2 + 4X + 6 = X^2 mod 2
    assert splitting_type_mod_p(g, 2) is None
    h = (100, 100, 0)  # X^3 + 100X + 100 = X^3 mod 5
    assert splitting_type_mod_p(h, 5) is None


def test_splitting_type_degree_sum():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 6)
        p = rng.choice([2, 3, 5, 7, 101])
        f = tuple(rng.randrange(-50, 51) for _ in range(n))
        r = splitting_type_mod_p(f, p)
        if r is not None:
            assert sum((i + 1) * m for i, m in enumerate(r)) == n


def test_full_factor_examples():
    assert [(g.coeffs, m) for g, m in full_factor_mod_p(P([-1, 0, 1], 5), 0)] == [
        ((1, 1), 1),
        ((4, 1), 1),
    ]
    assert [(g.coeffs, m) for g, m in full_factor_mod_p(P([0, 0, 0, 0, 1], 3), 0)] == [
        ((0, 1), 4)
    ]
    assert [(g.coeffs, m) for g, m in full_factor_mod_p(P([1, 0, 1, 0, 1], 2), 0)] == [
        ((1, 1, 1), 2)
    ]


def test_full_factor_reconstructs_product():
    rng = random.Random(42)
    for _ in range(10**4 // 25):
        for p in (2, 3, 5, 7, 101):
            for _inner in range(5):
                n = rng.randrange(1, 7)
                coeffs = [rng.randrange(p) for _ in range(n)] + [1]
                g = P(coeffs, p)
                prod = [1]
                for irr, mult in full_factor_mod_p(g, 11):
                    assert irr.is_monic
                    for _ in range(mult):
                        prod = _mul(prod, list(irr.coeffs), p)
                assert tuple(prod) == g.coeffs


def test_full_factor_irreducibility_of_factors():
    # every emitted factor must itself have no further splitting
    g = P([3, 1, 4, 1, 5, 9, 1], 7)
    for irr, _m in full_factor_mod_p(g, 0):
        assert len(full_factor_mod_p(irr, 0)) == 1


def test_full_factor_deterministic():
    g = P([2, 3, 0, 1, 1, 1], 101)
    a = full_factor_mod_p(g, 123)
    b = full_factor_mod_p(g, 123)
    assert a == b


def test_enumerate_class_counts_examples():
    assert enumerate_class_counts(2, 3) == {(1, 1, 0): 2, (0, 0, 1): 2, None: 4}
    assert enumerate_class_counts(2, 1) == {(1,): 2}
    assert enumerate_class_counts(3, 2) == {(2, 0): 3, (0, 1): 3, None: 3}


def test_enumerate_class_counts_totals():
    for p, n in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        counts = enumerate_class_counts(p, n)
        assert sum(counts.values()) == p**n


def test_enumerate_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_class_counts(101, 5, budget=10**6)
