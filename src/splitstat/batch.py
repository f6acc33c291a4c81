"""Splitting types of whole families, one prime at a time.

types_mod_p is the entry point, and count_code, which counts the primes at
which each row takes one code, is the one count loop of every count
profile; cubic_count_matrix is that loop under the name perfbench's
batch.count_pairs counter wraps on cubic profiles.  A type mod p reads
only residues, so an object-dtype family (pack's, beyond 2^62) is reduced
mod p to int64 first, and the path depends on the degree and p alone.  At
p < 2^20, vectorized numpy kernels take degrees 2 and 3 at every p, and
degrees 4 to 20 at p > n from the traces of Berlekamp's matrix Q.  Cubics
at 3 < p <= CUBIC_TABLE_FACTOR * rows read their codes from a table of the
p classes of depressed cubics, built per call from discrete logs, in int64
below 2^41.  The other kernels compute in float64: residues stay below 2^20
in absolute value, so every product is below 2^40 and every sum reduced at
once below 2^44 (2^42.4 in the trace kernel, whose residues are below 2^19
and whose sums hold at most n <= 20 products and a residue), far inside the
2^53 range where float64 integers are exact.  Degree 1 is of one type at
every p.  The rest (p >= 2^20, p <= n from degree 4 on) calls the oracle
fppoly.splitting_type_mod_p once per distinct residue row; the kernels are
tested against it.

A family is typed in one of two ways.  One of more than p^n rows is typed
by a residue census: every row gets its index sum (a_i mod p) p^i, a
p^n-entry table marks the residue rows that occur, the kernel or the
oracle types each of those once, and every row reads its code from the
table.  A smaller family is typed row by row, by the kernel or the oracle.
"""

import functools
import math

import numpy as np

from . import fppoly
from .splittypes import enumerate_types

MAX_KERNEL_PRIME = 2**20
MAX_INT64_HEIGHT = 2**62  # pack's bound on |coefficient| for int64

# Rows per block of _trace_codes, so that one (n, n, rows) array holds at
# most 2^18 float64 entries (2 MB); with ceil(n/2) powers of Q, a two-block
# call peaked at 11, 14, 19 and 25 MB of numpy arrays at n = 4, 8, 13, 20.
_TRACE_BLOCK_ENTRIES = 2**18

# Cubics mod p are typed from _cubic_table(p) where 3 < p <= CUBIC_TABLE_FACTOR
# times the number of rows, and by X^p mod f at the other odd p.  The table
# costs about 0.1 ms at p = 101, 0.5 ms at 10^4 and 100 ms at 10^6, whatever
# the rows; the X^p path 0.35 ms on 10 rows and 35 ms on 10^5 at p ~ 10^5.
# Medians of 7 calls at p ~ k rows, table / X^p in ms (2-CPU Xeon): 1,000
# rows 0.41/0.78 at k = 10 and 1.89/0.73 at 30; 5,000 rows 1.02/2.26 at 3,
# 1.65/2.46 at 6 and 5.90/2.70 at 12; 20,000 rows 2.92/6.60 at 2, 8.52/10.24
# at 3 and 10.16/9.14 at 4; 10^5 rows 22.8/37.4 at 2, 34.8/42.7 at 3 and
# 45.1/35.6 at 4; 2^18 rows 131.5/192.8 at 4 (p = 1,048,573).  The crossover
# falls from k ~ 20 at 10^3 rows to ~3.5 from 2*10^4 rows on, where the
# table's cost past it grows fastest, so k = 3.
CUBIC_TABLE_FACTOR = 3

# Rows per block of _cubic_table_codes, whose int64 temporaries take 8
# bytes a row.  Unblocked, 10^4 rows (80 KB temporaries) made glibc give
# heap pages back and fault them in again at every prime.  A fresh
# process's count matrix of 10^4 cubics at the 615 primes[0::2] below 10^4,
# medians of 5 (2-CPU Xeon): blocks of 2^10 rows 0.61 s, 2^11 0.38 s, 2^12
# 0.30 s (212 minor faults), 2^13 0.31 s (269), 2^14 0.39 s (53,815; 128 KB
# temporaries are mmapped), unblocked 0.43 s (56,504).
_CUBIC_BLOCK_ROWS = 2**12

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
    return _row_codes(coeffs, p)


def _row_codes(coeffs, p):
    """types_mod_p of every row: by a kernel at p < 2^20, for n <= 3 and
    for n > 3 at p > n, and otherwise by one oracle call per distinct
    residue row."""
    n = coeffs.shape[1]
    if n == 1:  # X + a_0 is of type (1,) at every p
        return np.zeros(len(coeffs), dtype=np.int8)
    if p < MAX_KERNEL_PRIME and (n <= 3 or p > n):
        if n > 3:
            return _trace_codes(coeffs, p)
        # Strided views of the rows made a loop over 10^4 cubics 1.7x as slow
        # and one over 10^4 quadratics 1.5x (one CPU of a 2-CPU Xeon).
        columns = np.ascontiguousarray(coeffs.T)
        return (_cubic_codes if n == 3 else _quadratic_codes)(*columns, p)
    types = enumerate_types(n)
    index = {r: code for code, r in enumerate(types)}
    index[None] = len(types)
    # A sample drawn with replacement repeats rows: 10^4 draws from the N = 5
    # cubic box have 1,330 distinct rows, and typing them at 20 primes above
    # 2^20 took 32.5 s by one oracle call a row and 4.0-5.1 s by one call a
    # distinct row (one CPU of a 2-CPU Xeon).
    residues, inverse = np.unique(coeffs % p, axis=0, return_inverse=True)
    codes = [index[fppoly.splitting_type_mod_p(row, p)] for row in residues.tolist()]
    return np.array(codes, dtype=np.int16)[inverse]


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


def _mod(x, m):
    """The residues in [0, m) of an integer array x: // and * by a scalar,
    several times faster in numpy than %, into one new array."""
    q = x // m
    q *= -m
    q += x
    return q


def _residues(x, p):
    """int64 coefficients as float64 residues in [0, p), exactly."""
    return _mod(x, p).astype(np.float64)


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
    with INERT / TRANSPOSITION / SPLIT / ABSENT per polynomial.  At
    3 < p <= CUBIC_TABLE_FACTOR * rows the rows read their codes from
    _cubic_table(p); the other odd primes take the Frobenius path.
    """
    if p == 2:
        return _CUBIC_MOD_2[(a0 & 1) + 2 * (a1 & 1) + 4 * (a2 & 1)]
    if 3 < p <= CUBIC_TABLE_FACTOR * len(a0):
        return _cubic_table_codes(a0, a1, a2, p)
    return _cubic_frobenius_codes(a0, a1, a2, p)


def _cubic_frobenius_codes(a0, a1, a2, p):
    """_cubic_codes at an odd prime p, from the discriminant and X^p mod f.

    Stickelberger's parity theorem makes a squarefree cubic a TRANSPOSITION
    exactly when its discriminant is a nonsquare; the other squarefree
    cubics are SPLIT when X^p = X mod f and INERT otherwise.
    """
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


def _cubic_table_codes(a0, a1, a2, p):
    """_cubic_codes at a prime 3 < p < 2^20, from _cubic_table(p).

    Z = 3X + a2 turns 27 f(X) into Z^3 + P Z + Q with P = 9 a1 - 3 a2^2
    and Q = 2 a2^3 - 9 a2 a1 + 27 a0, of the same type since 3 is a unit.
    Each row's code is the table's entry at log(Q^2) + log(R^-3), R = -P:
    three residues, three reductions and three gathers, all int64 below
    2^41.  The table is built once and the rows run in blocks of
    _CUBIC_BLOCK_ROWS.
    """
    log_square, log_inverse_cube, table = _cubic_table(p)
    codes = np.empty(len(a0), dtype=np.int8)
    for start in range(0, len(a0), _CUBIC_BLOCK_ROWS):
        block = slice(start, start + _CUBIC_BLOCK_ROWS)
        a, b = _mod(a2[block], p), _mod(a1[block], p)
        aa = a * a
        b *= -9
        b += 2 * aa
        u = _mod(b, p)  # 2 a^2 - 9 b
        aa += u
        r = _mod(aa, p)  # 3 a^2 - 9 b = -P
        a *= u
        a += 27 * _mod(a0[block], p)
        q = _mod(a, p)  # a (2 a^2 - 9 b) + 27 c = Q
        index = log_square[q]
        index += log_inverse_cube[r]
        codes[block] = table[index]
    return codes


def _cubic_table(p):
    """(log_square, log_inverse_cube, codes): the cubic types mod a prime
    3 < p < 2^20 as p-entry tables of discrete logs to a primitive root g.

    Z^3 + P Z + Q with P, Q != 0 scales by l = Q / P^2 to l^3 f(Z / l) =
    Z^3 + t Z + t^2, t = Q^2 / P^3 = -Q^2 / R^3, so its type depends on t
    alone.  A root x of that is nonzero and t^2 + x t + x^3 = 0, so
    t = x (-1 + s) / 2 with s^2 = 1 - 4x for one s != +-1; then -8t =
    w^2 (2 - w) with w = 1 - s, w != 0, 2.  So the roots of each t are
    counted by one bincount over w = g^j of log(-8t) = 2j + log(2 - w).
    0 roots is INERT, 1 TRANSPOSITION and 3 SPLIT; the one t with a
    repeated root, -4/27, where the discriminant -t^3 (4 + 27t) vanishes,
    has 2 and is ABSENT.  codes[k] for k < 2(p - 1) is the code of
    log(-t) = k mod (p - 1), since log_square[Q] + log_inverse_cube[R] =
    log(Q^2 / R^3) in [0, 2(p - 2)].  The rest of codes holds the rows
    with P or Q zero, sent there by log_square[0] = 2(p - 1) and
    log_inverse_cube[0] = 3(p - 1):
      Q = 0: Z (Z^2 + P) is SPLIT when R = -P is a square, that is when
        log(R^-3) is even, and a TRANSPOSITION otherwise;
      P = 0: Z^3 + Q is a TRANSPOSITION when p = 2 mod 3, where cubing is
        a bijection of F_p; otherwise 3 | p - 1, and it is SPLIT when Q is
        a cube, that is when log(Q^2) = 0 mod 3, and INERT otherwise;
      P = Q = 0: Z^3 is ABSENT, at codes[5(p - 1)].
    """
    # power[k] = g^k for k < p - 1, as g^(i width) g^j with i, j < width.
    g = _primitive_root(p)
    width = math.isqrt(p) + 1
    low, high = [1], [1]
    for _ in range(width - 1):
        low.append(low[-1] * g % p)
    for _ in range(width - 1):
        high.append(high[-1] * low[-1] * g % p)
    power = _mod(np.multiply.outer(high, low).ravel()[:p - 1], p).astype(np.int32)
    log = np.empty(p, dtype=np.int32)
    log[power] = np.arange(p - 1, dtype=np.int32)
    log[0] = 0

    # With w = power[j], 2 - w lies in (-p, 2) and a negative index reads
    # log[p + 2 - w]; w = 2 reads log[0] = 0 at j = log 2, a key taken back
    # out.  Each p-entry temporary is dropped once read: at p = 1,048,573
    # the peak is 28 MB, 38 MB when they live to the return.
    keys = log[2 - power]
    del power
    keys += np.arange(0, 2 * (p - 1), 2, dtype=np.int32)
    roots = np.bincount(_mod(keys, p - 1), minlength=p - 1)
    del keys
    roots[2 * int(log[2]) % (p - 1)] -= 1
    # The keys are log(-8t); by_log[k] is the code of the t with log(-t) = k.
    by_roots = np.array([INERT, TRANSPOSITION, ABSENT, SPLIT], dtype=np.int8)
    by_log = np.roll(by_roots[roots], -int(log[8 % p]))
    del roots
    codes = np.full(5 * (p - 1) + 1, ABSENT, dtype=np.int8)
    codes[:p - 1] = codes[p - 1:2 * (p - 1)] = by_log
    zero_q = codes[2 * (p - 1):3 * (p - 1)]
    zero_q[0::2], zero_q[1::2] = SPLIT, TRANSPOSITION
    zero_p = codes[3 * (p - 1):4 * (p - 1)]
    zero_p[:] = TRANSPOSITION if p % 3 == 2 else INERT
    if p % 3 == 1:
        zero_p[0::3] = SPLIT

    log_square = _mod(2 * log, p - 1)
    log_inverse_cube = _mod(-3 * log, p - 1)
    log_square[0], log_inverse_cube[0] = 2 * (p - 1), 3 * (p - 1)
    return log_square, log_inverse_cube, codes


def _primitive_root(p):
    """The least generator of the multiplicative group mod a prime p."""
    n, factors = p - 1, []
    for q in range(2, math.isqrt(p) + 1):  # each q that divides n is prime
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
    if n > 1:
        factors.append(n)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def count_code(coeffs, primes, code):
    """Per-row int64 count of the primes at which types_mod_p is code."""
    counts = np.zeros(len(coeffs), dtype=np.int64)
    for p in primes:
        counts += types_mod_p(coeffs, p) == code
    return counts


def cubic_count_matrix(coeffs, primes, code):
    """count_code of a cubic family.  The name remains because perfbench
    counts batch.count_pairs, rows x primes, on it and its self-test wants
    those pairs on the cubic workload alone, so stats._count_profile enters
    the one loop through it for cubics."""
    return count_code(coeffs, primes, code)


def _trace_codes(coeffs, p):
    """Splitting-type codes of the rows of an (m, n) int64 array, 4 <= n <= 20,
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
    maps to the not-squarefree code: a row's code is the place of its
    _type_key among _type_keys(n), if it is there.  Codes are int16, since
    p(14) = 135 overflows int8.  The rows run in blocks of bounded size.
    """
    m, n = coeffs.shape
    keys = _type_keys(n)
    step = _TRACE_BLOCK_ENTRIES // n**2
    codes = np.empty(m, dtype=np.int16)
    for start in range(0, m, step):
        key = _type_key(_radical_type(coeffs[start:start + step], p), n)
        code = np.searchsorted(keys, key)
        codes[start:start + step] = np.where(keys.take(code, mode="clip") == key, code, len(keys))
    return codes


def _type_key(counts, n):
    """Mixed-radix index of (N_1, ..., N_n), N_d <= n // d, in enumerate_types order."""
    key = 0
    for d, count in enumerate(counts, 1):
        key = key * (n // d + 1) + count
    return key


@functools.cache
def _type_keys(n):
    """The ascending _type_key of each type of enumerate_types(n)."""
    keys = _type_key(np.array(enumerate_types(n), dtype=np.int64).T, n)
    keys.flags.writeable = False  # shared by every call through the cache
    return keys


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

    Each coefficient of the product sums at most n <= 20 products, and
    each coefficient of the fold a residue and n products: below 2^42.4.
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
    multiply-adds: each entry sums n <= 20 products, below 2^42.4."""
    out = a[:, 0, None] * b[0]
    for j in range(1, len(a)):
        out += a[:, j, None] * b[j]
    return _reduce(out, p)
