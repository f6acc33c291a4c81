import random

import pytest

from splitstat.errors import ResourceLimitError
from splitstat.fppoly import (
    _deriv,
    _divmod,
    _gcd,
    _mul,
    _radical,
    _reduced_type,
    enumerate_class_counts,
    splitting_type_mod_p,
)


def test_reduce_mod_p():
    # A monic integer row (a_0, ..., a_{n-1}) reduces with its implicit leading 1.
    f = (-1, -1, 0)  # X^3 - X - 1
    assert splitting_type_mod_p(f, 2) == _reduced_type([1, 1, 0, 1], 2)  # X^3 + X + 1
    g = (6, 4)  # X^2 + 4X + 6
    assert splitting_type_mod_p(g, 2) == _reduced_type([0, 0, 1], 2)  # X^2
    h = (100, 100, 0)  # X^3 + 100X + 100
    assert splitting_type_mod_p(h, 5) == _reduced_type([0, 0, 0, 1], 5)  # X^3
    p = 2**31 - 1  # p = 1 mod 3: X^3 + 1 has three roots
    assert splitting_type_mod_p((1 - p, p, -p), p) == _reduced_type([1, 0, 0, 1], p) == (3, 0, 0)


def test_is_squarefree():
    # The type is None exactly when gcd(f, f') mod p is not 1.
    cases = [((1, 1), 2, True), ((0, 0), 2, False), ((0, -1, 0), 3, True)]
    for f, p, squarefree in cases:
        a = [c % p for c in f] + [1]
        assert (len(_gcd(a, _deriv(a, p), p)) == 1) is squarefree
        assert (splitting_type_mod_p(f, p) is not None) is squarefree
    assert splitting_type_mod_p((1, 1), 2) == (0, 1)  # X^2 + X + 1, irreducible
    assert splitting_type_mod_p((0, -1, 0), 3) == (3, 0, 0)  # X(X - 1)(X + 1)


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


# Primes straddling batch.MAX_KERNEL_PRIME = 2^20 and reaching 2^31 - 1.
PINNED_PRIMES = (2, 3, 1048573, 1048583, 2147483629, 2147483647)


def _pinned_cases():
    """For n = 4..8 and each pinned prime: two rows of height up to 10^20,
    then a lift of (X + a)^2 g, which is never squarefree mod p."""
    rng = random.Random(2024)
    for n in range(4, 9):
        for p in PINNED_PRIMES:
            for _ in range(2):
                yield tuple(rng.randrange(-10**20, 10**20 + 1) for _ in range(n)), p
            root = [rng.randrange(p), 1]
            rest = [rng.randrange(p) for _ in range(n - 2)] + [1]
            square = _mul(_mul(root, root, p), rest, p)
            lift = [rng.randrange(-10**20 // p, 10**20 // p + 1) for _ in range(n)]
            yield tuple(c + p * k for c, k in zip(square, lift)), p


# Types from an independent distinct-degree factorization, which raised
# X^(p^d) to the p-th power modulo the shrinking factor; one line per (n, p).
PINNED_TYPES = [
    # n = 4
    None, None, None,
    None, (2, 1, 0, 0), None,
    (2, 1, 0, 0), (4, 0, 0, 0), None,
    (0, 0, 0, 1), (0, 2, 0, 0), None,
    (0, 0, 0, 1), (0, 0, 0, 1), None,
    (0, 0, 0, 1), (0, 2, 0, 0), None,
    # n = 5
    None, (0, 0, 0, 0, 1), None,
    (0, 0, 0, 0, 1), (1, 0, 0, 1, 0), None,
    (0, 0, 0, 0, 1), (0, 1, 1, 0, 0), None,
    (1, 0, 0, 1, 0), (1, 2, 0, 0, 0), None,
    (2, 0, 1, 0, 0), (1, 2, 0, 0, 0), None,
    (0, 0, 0, 0, 1), (0, 1, 1, 0, 0), None,
    # n = 6
    None, None, None,
    None, (0, 0, 0, 0, 0, 1), None,
    (1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0), None,
    (0, 0, 0, 0, 0, 1), (0, 0, 2, 0, 0, 0), None,
    (1, 0, 0, 0, 1, 0), (2, 0, 0, 1, 0, 0), None,
    (1, 0, 0, 0, 1, 0), (2, 0, 0, 1, 0, 0), None,
    # n = 7
    (1, 1, 0, 1, 0, 0, 0), (2, 0, 0, 0, 1, 0, 0), None,
    None, (0, 0, 0, 0, 0, 0, 1), None,
    (2, 0, 0, 0, 1, 0, 0), (1, 0, 2, 0, 0, 0, 0), None,
    (0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1, 0), None,
    (1, 0, 0, 0, 0, 1, 0), (5, 1, 0, 0, 0, 0, 0), None,
    (0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0, 0), None,
    # n = 8
    None, None, None,
    (1, 0, 0, 0, 0, 0, 1, 0), None, None,
    (0, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1, 0), None,
    (1, 0, 0, 0, 0, 0, 1, 0), (4, 0, 0, 1, 0, 0, 0, 0), None,
    (1, 0, 1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 1, 0), None,
    (1, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1), None,
]


def test_splitting_type_pinned_at_large_primes():
    cases = list(_pinned_cases())
    assert len(cases) == len(PINNED_TYPES)
    for (f, p), r in zip(cases, PINNED_TYPES):
        assert splitting_type_mod_p(f, p) == r, (f, p)


def test_radical_property():
    # Dedekind's criterion reads it; p = 2, 3 reach the p-th root step.
    rng = random.Random(42)
    for p in (2, 3, 5, 7, 101):
        for _ in range(400):
            n = rng.randrange(1, 7)
            f = [rng.randrange(p) for _ in range(n)] + [1]
            g = _radical(f, p)
            assert g[-1] == 1 and splitting_type_mod_p(g[:-1], p) is not None
            assert _divmod(f, g, p)[1] == []
            power = [1]
            for _ in range(n):
                power = _mul(power, g, p)
            assert _divmod(power, f, p)[1] == []


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
