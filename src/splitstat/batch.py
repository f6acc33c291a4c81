"""Splitting types of whole families, one prime at a time.

types_mod_p is the single entry point.  A type mod p reads only residues,
so an object-dtype family (pack's, beyond 2^62) is reduced mod p to int64
first, and the path depends on the degree and p alone.  At p < 2^20,
vectorized numpy kernels take degrees 2 and 3 at every p, and degrees 4
to 8 at p > n from the traces of Berlekamp's matrix Q.  They compute in
float64: residues stay below 2^20 in absolute value (below 2^19 in the
trace kernel, whose sums hold at most n <= 8 products and a residue), so
every product is below 2^40 and every sum reduced at once below 2^44, far
inside the 2^53 range where float64 integers are exact.  The rest (p >=
2^20, degree 1, degrees above 8, p <= n from degree 4 on) calls the oracle
fppoly.splitting_type_mod_p once per distinct residue row; the kernels
are tested against it.

A family of more than p^n rows is typed by a residue census: every row
gets its index sum (a_i mod p) p^i, a p^n-entry table marks the residue
rows that occur, the kernel or the oracle types each of those once, and
every row reads its code from the table.  Smaller families go to the
kernel directly, or to the oracle after np.unique of their residue rows.
"""

import functools

import numpy as np

from . import fppoly
from .splittypes import enumerate_types

MAX_KERNEL_PRIME = 2**20
MAX_TRACE_DEGREE = 8
MAX_INT64_HEIGHT = 2**62  # pack's bound on |coefficient| for int64

# Rows per block of _trace_codes, so that one (n, n, rows) array holds at
# most 2^18 float64 entries (2 MB) whatever the family's size.
_TRACE_BLOCK_ENTRIES = 2**18

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
    if ((coeffs >= MAX_INT64_HEIGHT) | (coeffs <= -MAX_INT64_HEIGHT)).any():
        return np.array(rows, dtype=object)
    return coeffs


def types_mod_p(coeffs, p):
    """Splitting-type code of every row of an (m, n) coefficient array mod p.

    Row (a_0, ..., a_{n-1}) stands for X^n + a_{n-1} X^{n-1} + ... + a_0.
    A code indexes enumerate_types(n); the code len(enumerate_types(n))
    marks a reduction that is not squarefree.  p is below 2^63.
    """
    n = coeffs.shape[1]
    if coeffs.dtype == object:
        coeffs = (coeffs % p).astype(np.int64)
    if p**n < len(coeffs):
        # A residue census; its p^n-entry table is smaller than the family.
        index = _residue_index(coeffs, p)
        seen = np.flatnonzero(np.bincount(index, minlength=p**n))
        residues = seen[:, None] // p ** np.arange(n, dtype=np.int64) % p
        typed = _row_codes(residues, p)
        codes = np.zeros(p**n, dtype=typed.dtype)
        codes[seen] = typed
        return codes[index]
    if _kernel_serves(n, p):
        return _row_codes(coeffs, p)
    residues, inverse = np.unique(coeffs % p, axis=0, return_inverse=True)
    return _row_codes(residues, p)[inverse]


def _kernel_serves(n, p):
    return p < MAX_KERNEL_PRIME and (n in (2, 3) or 4 <= n <= MAX_TRACE_DEGREE and p > n)


def _row_codes(coeffs, p):
    """types_mod_p of every row, by a kernel where one serves (n, p) and
    otherwise by one oracle call per row."""
    n = coeffs.shape[1]
    if _kernel_serves(n, p):
        if n == 3:
            return _cubic_codes(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], p)
        if n == 2:
            return _quadratic_codes(coeffs[:, 0], coeffs[:, 1], p)
        return _trace_codes(coeffs, p)
    types = enumerate_types(n)
    index = {r: code for code, r in enumerate(types)}
    index[None] = len(types)
    return np.array(
        [index[fppoly.splitting_type_mod_p(row, p)] for row in coeffs.tolist()],
        dtype=np.int16,
    )


def _residue_index(coeffs, p):
    """sum (a_i mod p) p^i of every row of an (m, n) int64 array.

    Column by column, so the temporaries are m-sized: an (m, n) array of
    residues raised the peak RSS of the N=50 cubic box's certify by 11 MB.
    """
    index = np.zeros(len(coeffs), dtype=np.int64)
    for column in coeffs.T[::-1]:
        index *= p
        index += column
        index -= column // p * p
    return index


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


def _trace_codes(coeffs, p):
    """Splitting-type codes of the rows of an (m, n) int64 array, 4 <= n <= 8,
    at a prime n < p < 2^20, from the traces of Berlekamp's matrix Q.

    Q's row i is (X^p)^i mod f, so Q is the matrix of the Frobenius
    x -> x^p of A = F_p[X]/(f).  A is the product of the F_p[X]/(g^k) over
    the prime powers g^k exactly dividing f, and each is F_(p^e)[t]/(t^k)
    with e = deg g.  Frob^d maps c t^i to c^(p^d) t^(i p^d), deeper in the
    t-adic filtration when i > 0, so only the field F_(p^e) adds to the
    trace of Frob^d: e when e | d and 0 otherwise (a normal basis is
    permuted cyclically).  So trace(Q^d) = sum over e | d of e N_e mod p,
    with N_e the number of distinct degree-e factors of f.  That sum is at
    most n < p, so the residue is the integer, and N_d = (trace(Q^d) - sum
    over e | d, e < d of e N_e) / d.  The N_d are the type of the radical
    of f: f is squarefree exactly when sum d N_d = n, and every other row
    maps to the not-squarefree code.  The rows run in blocks of bounded
    size.
    """
    m, n = coeffs.shape
    step = _TRACE_BLOCK_ENTRIES // n**2
    codes = np.empty(m, dtype=np.int8)
    for start in range(0, m, step):
        counts = _radical_type(coeffs[start:start + step], p)
        codes[start:start + step] = _trace_table(n)[_type_key(counts, n)]
    return codes


def _type_key(counts, n):
    """Mixed-radix index of the counts (N_1, ..., N_n), N_d <= n // d."""
    key = 0
    for d, count in enumerate(counts, 1):
        key = key * (n // d + 1) + count
    return key


@functools.cache
def _trace_table(n):
    """Code of each _type_key: its type's, or the not-squarefree code."""
    types = enumerate_types(n)
    table = np.full(_type_key([n // d for d in range(1, n + 1)], n) + 1,
                    len(types), dtype=np.int8)
    for code, r in enumerate(types):
        table[_type_key(r, n)] = code
    table.flags.writeable = False  # shared by every call through the cache
    return table


def _radical_type(coeffs, p):
    """The int64 counts N_1, ..., N_n of the distinct irreducible factors of
    each row's f mod p, by degree, as _trace_codes derives them.

    Arrays are coefficient-major, with the rows on the last axis: a
    polynomial mod f is an (n, m) array and a matrix an (n, n, m) one.
    """
    n = coeffs.shape[1]
    a = _reduce(_residues(np.ascontiguousarray(coeffs.T), p), p)
    # high[k] = X^(n+k) mod f: X^n = -a, and each next one is X times the
    # last, with its top coefficient folded back in.
    high = np.empty((n,) + a.shape)
    high[0] = -a
    for k in range(1, n):
        high[k, 0] = 0
        high[k, 1:] = high[k - 1, :-1]
        high[k] += high[k - 1, -1] * high[0]
        _reduce(high[k], p)

    # X^p mod f by square-and-multiply; a 1 bit shifts the square by X.
    xp = np.zeros_like(a)
    xp[1] = 1
    for bit in bin(p)[3:]:
        xp = _mulmod(xp, xp, high, p, shift=int(bit))
    frobenius = np.zeros_like(high)
    frobenius[0, 0] = 1
    frobenius[1] = xp
    for i in range(2, n):
        frobenius[i] = _mulmod(frobenius[i - 1], xp, high, p)

    # powers[k] = Q^(k+1) up to Q^h with 2h >= n; a larger power's trace is
    # that of Q^h times a smaller one, sum_ij (Q^h)_ij (Q^(d-h))_ji.
    powers = [frobenius]
    while 2 * len(powers) < n:
        powers.append(_matmul(powers[-1], frobenius, p))
    h = len(powers)
    counts = []
    for d in range(1, n + 1):
        if d <= h:
            trace = np.trace(powers[d - 1])
        else:
            rows = (powers[-1] * powers[d - h - 1].transpose(1, 0, 2)).sum(axis=1)
            trace = _reduce(rows, p).sum(axis=0)
        trace = _reduce(trace, p).astype(np.int64) % p
        for e in range(1, d):
            if d % e == 0:
                trace -= e * counts[e - 1]
        counts.append(trace // d)
    return counts


def _mulmod(u, v, high, p, shift=0):
    """u v X^shift mod f for (n, m) residue arrays u and v, shift <= 1.

    Each coefficient of the product sums at most n products, and each
    coefficient of the fold a residue and n products: below 2^42.
    """
    n = len(u)
    full = np.zeros((2 * n,) + u.shape[1:])
    for i in range(n):
        full[shift + i:shift + i + n] += u[i] * v
    _reduce(full, p)
    out = full[:n]
    for k in range(n):
        out += full[n + k] * high[k]
    return _reduce(out, p)


def _matmul(a, b, p):
    """a b mod p for (n, n, m) stacks of residue matrices, by broadcast
    multiply-adds: each entry sums n products, below 2^41."""
    out = a[:, 0, None] * b[0]
    for j in range(1, len(a)):
        out += a[:, j, None] * b[j]
    return _reduce(out, p)
