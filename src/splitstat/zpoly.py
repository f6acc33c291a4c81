"""Exact invariants of monic integer polynomials.

A polynomial X^n + a_{n-1}X^{n-1} + ... + a_0 is its coefficient row
(a_0, ..., a_{n-1}) of Python ints, with the leading 1 implicit: a row of
a batch.pack array after .tolist().  The Dedekind p-maximality test takes
that row; discriminants, the determinant of the n x n matrix of
multiplication by f' modulo f, take it or the coefficient columns of many
polynomials at once.
"""

from math import isqrt

import numpy as np

from . import fppoly
from .errors import ReduciblePolynomialError


def _bareiss_det(m):
    """Fraction-free (Bareiss) determinants of an (n, n, rows) object stack
    of integer matrices, one per index of the last axis; modifies m.

    At a zero pivot the first row below with a nonzero entry in the pivot
    column is added to the pivot row, chosen per matrix by mask: Bareiss
    updates every row below the pivot linearly in that row, so adding
    active rows adds the original ones, which keeps the determinant and
    every division exact.  Where the whole column is zero, every later
    entry becomes 0 and the zero pivot divides as 1.
    """
    prev = 1
    for k in range(len(m) - 1):
        zero = np.flatnonzero(m[k, k] == 0)
        below = k + 1 + (m[k + 1:, k, zero] != 0).argmax(axis=0)
        m[k, k:, zero] += m[below, k:, zero]
        pivot, rest = m[k, k], m[k + 1:, k + 1:]
        rest[...] = (rest * pivot - m[k + 1:, k:k + 1] * m[k:k + 1, k + 1:]) // prev
        prev = np.where(pivot == 0, 1, pivot)
    return m[-1, -1]


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f'), exact.

    f is a row of ints or a tuple of n coefficient columns (arrays of one
    shape); a row gives a Python int and columns an array of that shape.
    Degrees 2 and 3 use the classical closed forms, in the columns' dtype.
    Otherwise, f being monic, Res(f, f') is the determinant of
    multiplication by f' on Z[X]/(f) in the basis 1, X, ..., X^(n-1).  Its
    column j is X^j f' mod f, each the previous one times X minus its top
    coefficient times f, built for every row as Python ints (object dtype)
    into a stack whose n x n determinants Bareiss elimination takes;
    degree 1 gives 1.
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
    coeffs = np.array(f, dtype=object).reshape(n, -1)
    m = np.empty((n, n, coeffs.shape[1]), dtype=object)
    m[0, :-1] = np.arange(1, n, dtype=object)[:, None] * coeffs[1:]
    m[0, -1] = n
    for j in range(1, n):
        m[j] = -m[j - 1, -1] * coeffs
        m[j, 1:] += m[j - 1, :-1]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return (sign * _bareiss_det(m)).reshape(np.shape(f[0]))[()]


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
