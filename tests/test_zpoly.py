import random
from fractions import Fraction

import pytest

from splitstat.errors import ReduciblePolynomialError
from splitstat.fppoly import FieldPolynomial, is_squarefree_mod_p
from splitstat.zpoly import (
    dedekind_is_p_maximal,
    discriminant,
    is_perfect_square,
    resultant,
)


def _fraction_det(m):
    """Independent determinant oracle: Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def _sylvester_resultant_oracle(a, b):
    da, db = len(a) - 1, len(b) - 1
    rows = []
    for i in range(db):
        rows.append([0] * i + list(reversed(a)) + [0] * (db - 1 - i))
    for i in range(da):
        rows.append([0] * i + list(reversed(b)) + [0] * (da - 1 - i))
    return _fraction_det(rows)


def _discriminant_oracle(f):
    n = len(f)
    coeffs = list(f) + [1]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _sylvester_resultant_oracle(coeffs, deriv)


def test_discriminant_examples():
    assert discriminant((-5, 0)) == 20
    assert discriminant((-1, -1, 0)) == -23
    assert discriminant((-1, -3, 0)) == 81
    assert discriminant((7,)) == 1


def test_discriminant_against_determinant_oracle():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 7)
        f = tuple(rng.randrange(-30, 31) for _ in range(n))
        assert discriminant(f) == _discriminant_oracle(f)


def test_resultant_degenerate_cases():
    assert resultant([3], [1, 2, 1]) == 9
    assert resultant([1, 2, 1], [5]) == 25


def test_discriminant_zero_iff_nonsquarefree_mod_p():
    # cross-module consistency on a grid of small polynomials
    rng = random.Random(9)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(400):
        n = rng.randrange(2, 5)
        f = tuple(rng.randrange(-20, 21) for _ in range(n))
        d = discriminant(f)
        for p in primes:
            fbar = FieldPolynomial.from_list(list(f) + [1], p)
            assert (d % p == 0) == (not is_squarefree_mod_p(fbar))


def test_hadamard_style_bound():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(2, 6)
        f = tuple(rng.randrange(-20, 21) for _ in range(n))
        h = max(1, *map(abs, f))
        bound = (2 * n - 1) ** (2 * n - 1) * h ** (2 * n - 2) * n**n
        assert abs(discriminant(f)) <= bound


def _squarefree_core(n):
    assert n != 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    core = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            core *= d
        d += 1
    return sign * core * n


def _quadratic_field_index_oracle(a, b, p):
    """True iff p is maximal for X^2+aX+b via the field-discriminant rule."""
    d = a * a - 4 * b
    m = _squarefree_core(d)
    field_disc = m if m % 4 == 1 else 4 * m
    index_sq = d // field_disc
    root = 1
    while root * root < index_sq:
        root += 1
    assert root * root == index_sq
    return root % p != 0


def test_dedekind_examples():
    assert dedekind_is_p_maximal((3, 0), 2) is False
    assert dedekind_is_p_maximal((3, 0), 3) is True
    assert dedekind_is_p_maximal((-1, -1, 0), 23) is True


def test_dedekind_quadratic_field_rule():
    for a in range(-20, 21):
        for b in range(-20, 21):
            d = a * a - 4 * b
            if d == 0 or is_perfect_square(d):
                continue  # reducible or degenerate quadratic
            f = (b, a)
            for p in (2, 3, 5):
                assert dedekind_is_p_maximal(f, p) == _quadratic_field_index_oracle(
                    a, b, p
                ), (a, b, p)


def test_dedekind_not_maximal_implies_p_squared_divides_disc():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(2, 5)
        f = tuple(rng.randrange(-15, 16) for _ in range(n))
        d = discriminant(f)
        if d == 0:
            continue
        for p in (2, 3, 5):
            try:
                if not dedekind_is_p_maximal(f, p):
                    assert d % (p * p) == 0
            except ReduciblePolynomialError:
                pass


def test_dedekind_reducible_detection():
    # X^2+2X+1 = (X+1)^2: the radical X+1 lifts to an exact proper factor
    with pytest.raises(ReduciblePolynomialError):
        dedekind_is_p_maximal((1, 2), 3)


def test_is_perfect_square():
    assert is_perfect_square(0) and is_perfect_square(81)
    assert not is_perfect_square(-4) and not is_perfect_square(20)
