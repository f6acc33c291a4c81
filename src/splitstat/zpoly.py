"""Exact invariants of monic integer polynomials.

A polynomial X^n + a_{n-1}X^{n-1} + ... + a_0 is its coefficient row
(a_0, ..., a_{n-1}) of Python ints, with the leading 1 implicit: a row of
a batch.pack array after .tolist().  Every routine here takes that row.
Discriminants via fraction-free elimination of the Sylvester matrix,
and the Dedekind p-maximality test.
"""

from math import isqrt

from . import fppoly
from .errors import ReduciblePolynomialError


def _bareiss_det(m):
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [row[:] for row in m]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(a, b):
    """Res(a, b) for integer coefficient lists in ascending degree order."""
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        raise ValueError("resultant of zero polynomial")
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    size = da + db
    rows = []
    for i in range(db):
        rows.append([0] * i + list(reversed(a)) + [0] * (db - 1 - i))
    for i in range(da):
        rows.append([0] * i + list(reversed(b)) + [0] * (da - 1 - i))
    return _bareiss_det(rows)


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f'), exact.

    Degree 1 is defined as 1 (empty-product convention).  Degrees 2 and 3
    use the classical closed forms; higher degrees go through the Sylvester
    matrix with Bareiss elimination.
    """
    n = len(f)
    if n == 1:
        return 1
    if n == 2:
        a0, a1 = f
        return a1 * a1 - 4 * a0
    if n == 3:
        c, b, a = f
        return (
            18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
        )
    coeffs = list(f) + [1]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(coeffs, deriv)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def dedekind_is_p_maximal(f, p):
    """Dedekind criterion: True iff p does not divide the index of Z[alpha].

    Takes the radical g of f mod p as the product of its squarefree parts
    and the cofactor h = f/g mod p, lifts both with coefficients in [0, p),
    forms M = (g*h - f)/p and tests gcd(M, g, h) = 1 mod p.
    Raises ReduciblePolynomialError when the lift exposes a proper integer
    factorization of f.
    """
    n = len(f)
    fz = list(f) + [1]
    fbar = [c % p for c in fz]
    radical = [1]
    for part, _mult in fppoly._squarefree_decomposition(fbar, p):
        radical = fppoly._mul(radical, part, p)
    hbar = fppoly._divmod(fbar, radical, p)[0]

    # Lifts with representatives in [0, p); both monic by construction.
    g_lift = list(radical)
    h_lift = list(hbar)
    gh = _int_poly_mul(g_lift, h_lift)
    diff = [x - y for x, y in zip(gh, fz + [0] * (len(gh) - len(fz)))]
    if any(c % p for c in diff):
        raise ArithmeticError("Dedekind lift not divisible by p; factorization bug")
    m = [c // p for c in diff]
    if all(c == 0 for c in m) and 0 < len(g_lift) - 1 < n:
        raise ReduciblePolynomialError(
            "f factors over the integers as the lifted g*h"
        )
    mbar = [c % p for c in m]
    g1 = fppoly._gcd(mbar, radical, p)
    g2 = fppoly._gcd(g1, hbar, p)
    return len(g2) == 1


def is_perfect_square(n):
    if n < 0:
        return False
    root = isqrt(n)
    return root * root == n
