"""Exact invariants of monic integer polynomials.

A polynomial X^n + a_{n-1}X^{n-1} + ... + a_0 is its coefficient row
(a_0, ..., a_{n-1}) of Python ints, with the leading 1 implicit: a row of
a batch.pack array after .tolist().  Every routine here takes that row.
Discriminants as the determinant of the n x n matrix of multiplication
by f' modulo f, and the Dedekind p-maximality test.
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


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f'), exact.

    Degrees 2 and 3 use the classical closed forms.  Otherwise, f being
    monic, Res(f, f') is the determinant of multiplication by f' on
    Z[X]/(f) in the basis 1, X, ..., X^(n-1).  Its column j is X^j f' mod f,
    each the previous one times X minus its top coefficient times f, and
    Bareiss elimination takes the n x n determinant; degree 1 gives 1.
    """
    n = len(f)
    if n == 2:
        a0, a1 = f
        return a1 * a1 - 4 * a0
    if n == 3:
        c, b, a = f
        return (
            18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
        )
    col = [i * c for i, c in enumerate(f)][1:] + [n]
    cols = [col]
    for _ in range(n - 1):
        top = col[-1]
        col = [-top * f[0]] + [c - top * a for c, a in zip(col, f[1:])]
        cols.append(col)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _bareiss_det(cols)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def dedekind_is_p_maximal(f, p):
    """Dedekind criterion: True iff p does not divide the index of Z[alpha].

    Takes the radical g of f mod p and the cofactor h = f/g mod p, lifts
    both with coefficients in [0, p), forms M = (g*h - f)/p and tests
    gcd(M, g, h) = 1 mod p.
    Raises ReduciblePolynomialError when the lift exposes a proper integer
    factorization of f.
    """
    n = len(f)
    fz = list(f) + [1]
    fbar = [c % p for c in fz]
    g = fppoly._radical(fbar, p)
    h = fppoly._divmod(fbar, g, p)[0]
    # g*h and f are both monic of degree n.
    diff = [x - y for x, y in zip(_int_poly_mul(g, h), fz)]
    if any(c % p for c in diff):
        raise ArithmeticError("Dedekind lift not divisible by p; factorization bug")
    m = [c // p for c in diff]
    if all(c == 0 for c in m) and 0 < len(g) - 1 < n:
        raise ReduciblePolynomialError(
            "f factors over the integers as the lifted g*h"
        )
    mbar = [c % p for c in m]
    return len(fppoly._gcd(fppoly._gcd(mbar, g, p), h, p)) == 1


def is_perfect_square(n):
    if n < 0:
        return False
    root = isqrt(n)
    return root * root == n
