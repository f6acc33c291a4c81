from fractions import Fraction
from itertools import permutations, product
from math import factorial

import mpmath
import pytest

from splitstat.fppoly import _divmod, enumerate_class_counts
from splitstat.splittypes import (
    class_count,
    delta,
    empirical_second_order,
    enumerate_types,
    irreducible_count,
    moment_constant,
    paper_second_order,
    parity,
    splits_in_alternating,
    validate_type,
)


def test_enumerate_types():
    assert enumerate_types(1) == [(1,)]
    assert set(enumerate_types(3)) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}
    assert len(enumerate_types(5)) == 7
    assert enumerate_types(4) == sorted(enumerate_types(4))


def test_validate_type():
    assert validate_type((1, 1, 0)) == 3
    with pytest.raises(ValueError):
        validate_type((2, 1, 0))
    with pytest.raises(ValueError):
        validate_type((-1, 2))


def test_delta_values():
    assert delta((4, 0, 0, 0)) == Fraction(1, 24)
    assert delta((0, 0, 0, 1)) == Fraction(1, 4)
    assert delta((1, 1, 0)) == Fraction(1, 2)


def test_delta_partition_of_unity():
    for n in range(1, 13):
        assert sum(delta(r) for r in enumerate_types(n)) == 1


def test_class_size():
    # n! delta(r) permutations of S_n have cycle type r.
    for r, size in [((1, 1, 0), 3), ((0, 0, 1), 2), ((0, 2, 0, 0), 3), ((1, 0, 1, 0), 8)]:
        n = len(r)
        assert factorial(n) * delta(r) == size
        assert sum(1 for perm in permutations(range(n)) if _cycle_type(perm) == r) == size


def _brute_irreducible_count(p, k):
    """Monic degree-k polynomials mod p with no monic divisor of degree 1..k/2."""
    divisors = [list(tail) + [1] for d in range(1, k // 2 + 1)
                for tail in product(range(p), repeat=d)]
    return sum(
        all(_divmod(list(tail) + [1], g, p)[1] for g in divisors)
        for tail in product(range(p), repeat=k)
    )


def test_irreducible_count():
    assert irreducible_count(7, 1) == 7
    assert irreducible_count(2, 3) == 2
    assert irreducible_count(3, 2) == 3
    for p in (2, 3, 5):
        for k in range(1, 6):
            if p**k <= 3**5:
                assert irreducible_count(p, k) == _brute_irreducible_count(p, k)


def test_class_count_examples():
    assert class_count(3, (3, 0, 0), 2) == 0
    assert class_count(3, (1, 1, 0), 5) == 50
    assert class_count(2, (0, 1), 3) == 3


def test_class_count_matches_enumeration():
    # n = 4, 5 reach the distinct-degree step d = 2, n = 6 d = 3 and n = 8 d = 4.
    grid = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2),
            (3, 5), (2, 6), (3, 6), (2, 8), (7, 4), (13, 3)]
    for p, n in grid:
        census = enumerate_class_counts(p, n)
        for r in enumerate_types(n):
            assert class_count(n, r, p) == census.get(r, 0), (p, n, r)


def test_class_count_approaches_delta():
    for p in (101, 1009, 9973):
        for r in enumerate_types(4):
            gap = abs(Fraction(class_count(4, r, p), p**4) - delta(r))
            assert gap <= Fraction(4, p)


def test_paper_second_order():
    assert paper_second_order((0, 1)) == 0
    assert paper_second_order((1, 1, 0)) == 0
    r = (1, 2, 0, 0, 0)
    assert paper_second_order(r) == delta(r) * Fraction(12, 16)
    r = (0, 2, 0, 0)
    assert paper_second_order(r) == delta(r) / 4


def test_empirical_second_order():
    assert empirical_second_order((0, 1), 101, 199) == Fraction(-1, 2)
    assert empirical_second_order((1, 1, 0), 101, 199) == Fraction(-1, 2)
    assert empirical_second_order((0, 0, 1), 101, 199) == 0


def test_empirical_second_order_needs_enough_primes():
    # n primes are needed: [101, 104] holds two, [101, 108] three
    with pytest.raises(ValueError):
        empirical_second_order((1, 1, 0), 101, 104)
    with pytest.raises(ValueError):
        empirical_second_order((0, 2, 0, 0), 101, 108)
    assert empirical_second_order((0, 1), 101, 104) == Fraction(-1, 2)
    assert empirical_second_order((0, 2, 0, 0), 101, 109) == Fraction(-1, 4)


def test_empirical_second_order_exact_beyond_degree_3():
    # c(p) has degree n - 1 in 1/p; two-point extrapolation gave
    # -9801/39203, -19601/78406 and -1280566787/15368752090 here.
    assert empirical_second_order((0, 2, 0, 0), 101, 199) == Fraction(-1, 4)
    assert empirical_second_order((4, 0, 0, 0), 101, 199) == Fraction(-1, 4)
    assert empirical_second_order((5, 0, 0, 0, 0), 101, 199) == Fraction(-1, 12)
    # the value does not depend on which n primes are used
    for r in enumerate_types(6):
        assert empirical_second_order(r, 2, 13) == empirical_second_order(r, 101, 199)


def test_moment_constant():
    d = Fraction(5, 36)
    assert moment_constant(2, (3, 0, 0)) == d
    assert moment_constant(4, (3, 0, 0)) == 3 * d * d
    assert moment_constant(1, (3, 0, 0)) == 1
    assert moment_constant(3, (0, 0, 1)) == 3 * Fraction(1, 3)


def _normalized_moment(k, r):
    """The k-th moment of the normalized count that the references imply:
    moment_constant(k, r) / (delta - delta^2)^(k/2) for even k, and 0 for
    odd k, as stats.family_centered_moment takes it."""
    if k % 2:
        return Fraction(0)
    d = delta(r)
    return moment_constant(k, r) / (d - d * d) ** (k // 2)


def test_gaussian_moment_values():
    for r in [(3, 0, 0), (0, 0, 1), (1, 0, 1, 0)]:
        assert [_normalized_moment(k, r) for k in (2, 3, 4, 6)] == [1, 0, 3, 15]


def test_gaussian_moment_against_quadrature():
    for k in range(1, 9):
        integral = mpmath.quad(
            lambda t, k=k: t**k * mpmath.npdf(t), [-mpmath.inf, mpmath.inf]
        )
        assert abs(float(_normalized_moment(k, (1, 1, 0))) - float(integral)) < 1e-8


def test_parity():
    assert parity((4, 0, 0, 0)) == "even"
    assert parity((1, 1, 0)) == "odd"
    assert parity((0, 2, 0, 0)) == "even"


def _cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    r = [0] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        r[length - 1] += 1
    return tuple(r)


def _perm_sign(perm):
    r = _cycle_type(perm)
    return 1 if sum(i * m for i, m in enumerate(r)) % 2 == 0 else -1


def _splits_oracle(r):
    """Class splits in A_n iff no odd permutation commutes with a representative."""
    n = len(r)
    rep = None
    for perm in permutations(range(n)):
        if _cycle_type(perm) == tuple(r):
            rep = perm
            break
    for perm in permutations(range(n)):
        if _perm_sign(perm) == 1:
            continue
        conj = tuple(perm[rep[_inv(perm)[i]]] for i in range(n))
        if conj == rep:
            return False
    return True


def _inv(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return out


def test_splits_in_alternating_examples():
    assert splits_in_alternating((0, 0, 1)) is True
    assert splits_in_alternating((0, 2, 0, 0)) is False
    assert splits_in_alternating((3, 0, 0)) is False
    with pytest.raises(ValueError):
        splits_in_alternating((1, 1, 0))


def test_splits_in_alternating_against_commutation_oracle():
    for n in range(2, 7):
        for r in enumerate_types(n):
            if parity(r) != "even":
                continue
            assert splits_in_alternating(r) == _splits_oracle(r), r
