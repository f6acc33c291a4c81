"""Splitting types of whole families, one prime at a time.

types_mod_p is the single entry point.  Quadratic and cubic families run
through vectorized numpy kernels while coefficients fit in 64-bit words
(|c| < 2^62) and p < 2^20.  The kernels compute in float64: residues stay
below 2^20 in absolute value, so every product is below 2^40 and every sum
reduced at once stays below 2^44, far inside the 2^53 range where float64
integers are exact.  Every other family calls fppoly.splitting_type_mod_p
row by row, and the kernels are tested against that oracle.
"""

import numpy as np

from . import fppoly
from .splittypes import enumerate_types

MAX_KERNEL_PRIME = 2**20
MAX_KERNEL_HEIGHT = 2**62

# Cubic codes, in enumerate_types(3) order; ABSENT is the not-squarefree code.
INERT, TRANSPOSITION, SPLIT, ABSENT = 0, 1, 2, 3

# Codes mod 2, indexed by the coefficient parities a_0 + 2 a_1 (+ 4 a_2).
_QUADRATIC_MOD_2 = np.array([2, 2, 1, 0], dtype=np.int8)
_CUBIC_MOD_2 = np.array(
    [ABSENT, TRANSPOSITION, ABSENT, INERT, ABSENT, INERT, TRANSPOSITION, ABSENT],
    dtype=np.int8,
)


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
        [index[fppoly.splitting_type_mod_p(row, p)] for row in coeffs.tolist()],
        dtype=np.int16,
    )


def _residues(x, p):
    """int64 coefficients as float64 residues in [0, p), exactly."""
    return (x - x // p * p).astype(np.float64)


def _reduce(x, p):
    """Replace x by its residue mod p nearest 0, in place, and return it.

    For odd p and integral |x| < 2^44 the quotient estimate is off by less
    than 2^-8 / p, so the result is exact and |result| <= (p - 1) / 2: each
    residue class has one representative, and residues compare with ==.
    """
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _is_square(d, p):
    """Euler's criterion: d^((p-1)/2) is 1 exactly on the nonzero squares."""
    power = d
    for bit in bin((p - 1) // 2)[3:]:
        power = _reduce(power * power, p)
        if bit == "1":
            power = _reduce(power * d, p)
    return power == 1


def _quadratic_codes(a0, a1, p):
    """Codes for X^2 + a1 X + a0 mod p: 0 inert, 1 split, 2 not squarefree."""
    if p == 2:
        return _QUADRATIC_MOD_2[(a0 & 1) + 2 * (a1 & 1)]
    b = _residues(a1, p)
    disc = _reduce(b * b - 4 * _residues(a0, p), p)
    codes = _is_square(disc, p).astype(np.int8)
    codes[disc == 0] = 2
    return codes


def _cubic_discriminant(a, b, c, p):
    """a^2 b^2 - 4 b^3 - 4 a^3 c - 27 c^2 + 18 abc, the discriminant of
    X^3 + aX^2 + bX + c, reduced mod p; its temporaries die on return."""
    aa = _reduce(a * a, p)
    bb = _reduce(b * b, p)
    inner = _reduce(18 * _reduce(a * b, p) - 4 * _reduce(a * aa, p) - 27 * c, p)
    return _reduce(aa * bb - 4 * b * bb + c * inner, p)


def _cubic_codes(a0, a1, a2, p):
    """Splitting-type codes for cubics X^3 + a2 X^2 + a1 X + a0 mod p.

    Input arrays are arbitrary int64 coefficients; output is an int8 array
    with INERT / TRANSPOSITION / SPLIT / ABSENT per polynomial.  For odd p,
    Stickelberger's parity theorem makes a squarefree cubic a TRANSPOSITION
    exactly when its discriminant is a nonsquare; the other squarefree
    cubics are SPLIT when X^p = X mod f and INERT otherwise.
    """
    if p == 2:
        return _CUBIC_MOD_2[(a0 & 1) + 2 * (a1 & 1) + 4 * (a2 & 1)]
    a, b, c = _residues(a2, p), _residues(a1, p), _residues(a0, p)
    disc = _cubic_discriminant(a, b, c, p)
    codes = np.where(disc == 0, ABSENT, TRANSPOSITION).astype(np.int8)

    # X^p mod f on the square-discriminant rows, by square-and-multiply
    # from X^2 or X^3 = -c - bX - aX^2, as the top two bits of p say.
    # Each step reduces X^5 (after a multiply by X), X^4 and X^3 once and
    # then the three remaining coefficients once.
    rows = np.flatnonzero(_is_square(disc, p))
    a, b, c = a[rows], b[rows], c[rows]
    if bin(p)[3] == "0":
        u0, u1, u2 = np.zeros_like(a), np.zeros_like(a), np.ones_like(a)
    else:
        u0, u1, u2 = _reduce(-c, p), _reduce(-b, p), _reduce(-a, p)
    for bit in bin(p)[4:]:
        twice = u0 + u0
        s = [u0 * u0, twice * u1, u1 * u1 + twice * u2, 2 * u1 * u2, u2 * u2]
        if bit == "1":
            s.insert(0, 0)
        for k in range(len(s) - 1, 2, -1):
            top = _reduce(s[k], p)
            s[k - 1] -= a * top
            s[k - 2] -= b * top
            s[k - 3] -= c * top
        u0, u1, u2 = (_reduce(s_k, p) for s_k in s[:3])
    fixed = (u0 == 0) & (u1 == 1) & (u2 == 0)
    codes[rows] = np.where(fixed, SPLIT, INERT)
    return codes


def cubic_count_matrix(coeffs, primes):
    """Per-row counts of each cubic code over the primes.

    coeffs is an (m, 3) int64 array within the kernel bounds and every
    prime is below MAX_KERNEL_PRIME.  Returns an int64 array of shape
    (m, 4) whose columns are the codes INERT, TRANSPOSITION, SPLIT, ABSENT.
    Each prime costs one _cubic_codes call: Euler's criterion on every
    row's discriminant and X^p mod f on the square-discriminant rows.
    """
    a0, a1, a2 = (np.ascontiguousarray(column) for column in coeffs.T)
    m = len(coeffs)
    counts = np.zeros(4 * m, dtype=np.int64)
    first = 4 * np.arange(m)  # flat index of each row's INERT count
    for p in primes:
        counts[first + _cubic_codes(a0, a1, a2, int(p))] += 1
    return counts.reshape(m, 4)
