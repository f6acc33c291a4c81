"""Splitting types of whole families, one prime at a time.

types_mod_p is the single entry point.  Quadratic and cubic families run
through vectorized numpy kernels while coefficients fit in 64-bit words
(|c| < 2^62) and p < 2^20, so that double-width products never overflow;
every other family calls fppoly.splitting_type_mod_p row by row, and the
kernels are tested against that oracle.
"""

import numpy as np

from . import fppoly
from .splittypes import enumerate_types
from .zpoly import IntPolynomial

MAX_KERNEL_PRIME = 2**20
MAX_KERNEL_HEIGHT = 2**62

# Cubic codes, in enumerate_types(3) order; ABSENT is the not-squarefree code.
INERT, TRANSPOSITION, SPLIT, ABSENT = 0, 1, 2, 3


def pack(rows):
    """The (m, n) coefficient array of rows (a_0, ..., a_{n-1}) of one degree.

    int64 when every |coefficient| < 2^62, object dtype otherwise; numpy
    raises ValueError on rows of different lengths.
    """
    try:
        coeffs = np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)
    if ((coeffs >= MAX_KERNEL_HEIGHT) | (coeffs <= -MAX_KERNEL_HEIGHT)).any():
        return np.array(rows, dtype=object)
    return coeffs


def types_mod_p(coeffs, p):
    """Splitting-type code of every row of an (m, n) coefficient array mod p.

    Row (a_0, ..., a_{n-1}) stands for X^n + a_{n-1} X^{n-1} + ... + a_0.
    A code indexes enumerate_types(n); the code len(enumerate_types(n))
    marks a reduction that is not squarefree.
    """
    n = coeffs.shape[1]
    if coeffs.dtype == np.int64 and p < MAX_KERNEL_PRIME:
        if n == 3:
            return _cubic_codes(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], p)
        if n == 2:
            return _quadratic_codes(coeffs[:, 0], coeffs[:, 1], p)
    types = enumerate_types(n)
    index = {r: code for code, r in enumerate(types)}
    index[None] = len(types)
    return np.array(
        [
            index[fppoly.splitting_type_mod_p(IntPolynomial(coeffs=tuple(row)), p)]
            for row in coeffs.tolist()
        ],
        dtype=np.int16,
    )


def _quadratic_codes(a0, a1, p):
    """Codes for X^2 + a1 X + a0 mod p: 0 inert, 1 split, 2 not squarefree."""
    a0 = np.remainder(a0, p)
    a1 = np.remainder(a1, p)
    if p == 2:
        # Squarefree iff the derivative a1 is nonzero; then X^2 + X + 1 is
        # the only irreducible one.
        codes = np.where(a0 == 1, 0, 1).astype(np.int8)
        codes[a1 == 0] = 2
        return codes
    disc = (a1 * a1 - 4 * a0) % p
    # Euler's criterion: disc^((p-1)/2) is 1 exactly on nonzero squares.
    power = np.ones_like(disc)
    base = disc
    e = (p - 1) // 2
    while e:
        if e & 1:
            power = (power * base) % p
        base = (base * base) % p
        e >>= 1
    codes = (power == 1).astype(np.int8)
    codes[disc == 0] = 2
    return codes


def _square_mod_f(c0, c1, c2, a, b, c, p):
    """(c0 + c1 X + c2 X^2)^2 reduced modulo X^3 + aX^2 + bX + c, mod p."""
    s0 = (c0 * c0) % p
    s1 = (2 * c0 * c1) % p
    s2 = (c1 * c1 + 2 * c0 * c2) % p
    s3 = (2 * c1 * c2) % p
    s4 = (c2 * c2) % p
    # X^4 -> eliminate via X^3 = -aX^2 - bX - c
    s3 = (s3 - a * s4) % p
    s2 = (s2 - b * s4) % p
    s1 = (s1 - c * s4) % p
    s2 = (s2 - a * s3) % p
    s1 = (s1 - b * s3) % p
    s0 = (s0 - c * s3) % p
    return s0, s1, s2


def _times_x_mod_f(c0, c1, c2, a, b, c, p):
    t = c2
    return (-c * t) % p, (c0 - b * t) % p, (c1 - a * t) % p


def _frobenius_mod_f(a, b, c, p):
    """X^p modulo X^3 + aX^2 + bX + c, coefficient arrays mod p."""
    zeros = np.zeros_like(a)
    c0, c1, c2 = zeros, np.ones_like(a), zeros  # the polynomial X
    for bit in bin(p)[3:]:
        c0, c1, c2 = _square_mod_f(c0, c1, c2, a, b, c, p)
        if bit == "1":
            c0, c1, c2 = _times_x_mod_f(c0, c1, c2, a, b, c, p)
    return c0, c1, c2


def _cubic_codes(a0, a1, a2, p):
    """Splitting-type codes for cubics X^3 + a2 X^2 + a1 X + a0 mod p.

    Input arrays are arbitrary int64 coefficients; output is an int8 array
    with INERT / TRANSPOSITION / SPLIT / ABSENT per polynomial.
    """
    a = np.remainder(a2, p)
    b = np.remainder(a1, p)
    c = np.remainder(a0, p)
    disc = (
        (18 * ((a * b) % p)) % p * c
        - (4 * ((a * a) % p)) % p * ((a * c) % p)
        + ((a * a) % p) * ((b * b) % p)
        - (4 * ((b * b) % p)) % p * b
        - (27 * c) % p * c
    ) % p
    codes = np.full(a.shape, ABSENT, dtype=np.int8)
    sf = disc != 0
    if not sf.any():
        return codes

    u0, u1, u2 = _frobenius_mod_f(a, b, c, p)
    u1 = (u1 - 1) % p  # u = X^p - X mod f

    zero_u = (u0 == 0) & (u1 == 0) & (u2 == 0)
    deg0 = (~zero_u) & (u1 == 0) & (u2 == 0)
    deg1 = (u1 != 0) & (u2 == 0)
    deg2 = u2 != 0

    codes[sf & zero_u] = SPLIT
    codes[sf & deg0] = INERT

    # deg(u) = 1: one candidate root -u0/u1; homogeneous evaluation of f.
    w1 = (
        -((((u0 * u0) % p) * u0) % p)
        + a * ((u0 * u0) % p) % p * u1
        - b * u0 % p * ((u1 * u1) % p)
        + c * ((((u1 * u1) % p) * u1) % p)
    ) % p
    codes[sf & deg1 & (w1 == 0)] = TRANSPOSITION
    codes[sf & deg1 & (w1 != 0)] = INERT

    # deg(u) = 2: fraction-free Euclid, f mod u then u mod that.
    r0 = (u2 * c) % p
    r1 = (u2 * b - u0) % p
    r2 = (u2 * a - u1) % p
    v1 = (u2 * r1 - r2 * u1) % p
    v0 = (u2 * r0 - r2 * u0) % p
    both_zero = sf & deg2 & (v0 == 0) & (v1 == 0)
    if both_zero.any():
        raise AssertionError("degree-2 gcd for a squarefree cubic")
    w2 = (u2 * ((v0 * v0) % p) - u1 * ((v0 * v1) % p) + u0 * ((v1 * v1) % p)) % p
    codes[sf & deg2 & (v1 != 0) & (w2 == 0)] = TRANSPOSITION
    codes[sf & deg2 & (v1 != 0) & (w2 != 0)] = INERT
    codes[sf & deg2 & (v1 == 0)] = INERT
    return codes


def cubic_count_matrix(coeffs, primes):
    """Per-row counts of each cubic code over the primes.

    coeffs is an (m, 3) int64 array within the kernel bounds and every
    prime is below MAX_KERNEL_PRIME.  Returns an int64 array of shape
    (m, 4) whose columns are the codes INERT, TRANSPOSITION, SPLIT, ABSENT.
    """
    a0, a1, a2 = (np.ascontiguousarray(column) for column in coeffs.T)
    m = len(coeffs)
    counts = np.zeros((m, 4), dtype=np.int64)
    rows = np.arange(m)
    for p in primes:
        codes = _cubic_codes(a0, a1, a2, int(p))
        counts[rows, codes] += 1
    return counts
