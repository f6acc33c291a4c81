"""Exact combinatorics of splitting types.

A splitting type for degree n is a tuple r = (r_1, ..., r_n) of
multiplicities with sum i*r_i = n, i.e. an integer partition of n.
All constants are exact rationals (fractions.Fraction); callers take a
floating view on demand.
"""

from fractions import Fraction
from math import comb, factorial

from .primes import sieve_primes

MAX_ENUM_DEGREE = 20


def type_degree(r):
    return sum((i + 1) * m for i, m in enumerate(r))


def validate_type(r):
    """Check r is a well-formed splitting type; returns its degree n."""
    if not r or any(m < 0 for m in r):
        raise ValueError("splitting type entries must be nonnegative")
    n = len(r)
    if type_degree(r) != n:
        raise ValueError("sum of i*r_i = %d does not match n = %d" % (type_degree(r), n))
    return n


def enumerate_types(n):
    """All splitting types of degree n (partition multiplicity vectors).

    Deterministic lexicographic order on the multiplicity vectors,
    largest-part-first generation; the count is the partition number p(n).
    """
    if not 1 <= n <= MAX_ENUM_DEGREE:
        raise ValueError("degree must be between 1 and %d" % MAX_ENUM_DEGREE)
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            k = 1
            while k * part <= remaining:
                acc[part - 1] = k
                rec(remaining - k * part, part - 1, acc)
                k += 1
            acc[part - 1] = 0

    rec(n, n, [0] * n)
    return sorted(out)


def delta(r):
    """Density of the conjugacy class with cycle type r in S_n."""
    validate_type(r)
    d = Fraction(1)
    for i, m in enumerate(r, start=1):
        d /= Fraction(i) ** m * factorial(m)
    return d


def _mobius(d):
    m = 1
    q = 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            m = -m
        q += 1
    if d > 1:
        m = -m
    return m


def irreducible_count(p, k):
    """Number of monic irreducible degree-k polynomials over GF(p)."""
    if k < 1:
        raise ValueError("k must be positive")
    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += _mobius(d) * p ** (k // d)
    assert total % k == 0
    return total // k


def class_count(n, r, p):
    """Number of squarefree monic degree-n polynomials mod p of type r."""
    if len(r) != n:
        raise ValueError("type length does not match n")
    validate_type(r)
    out = 1
    for k, m in enumerate(r, start=1):
        if m:
            out *= comb(irreducible_count(p, k), m)
    return out


def paper_second_order(r):
    """Published closed form for the p^(n-1) coefficient of the class count.

    Kept verbatim for side-by-side comparison with the empirically
    extracted coefficient; the two disagree on some types.
    """
    validate_type(r)
    r1 = r[0]
    r2 = r[1] if len(r) >= 2 else 0
    num = Fraction(r2 * (r2 - 1) * (r1 + 1) * (r1 + 2))
    den = Fraction(2 ** (r2 + 1) * factorial(r1) * factorial(r2))
    return delta(r) * num / den


def empirical_second_order(r, p_min, p_max):
    """Second-order coefficient of class_count(n,r,p)/p^n about delta(r).

    class_count(n, r, .) is an integer-valued polynomial of degree n, so
    c(p) = p*(class_count/p^n - delta(r)) is a polynomial of degree < n in
    1/p.  Richardson extrapolation from the exact c(p) at the n largest
    primes in [p_min, p_max] (Neville's scheme at 1/p = 0) gives its
    constant term exactly; fewer than n primes raise ValueError.
    """
    n = validate_type(r)
    primes = [p for p in sieve_primes(p_max) if p >= p_min][-n:]
    if len(primes) < n:
        raise ValueError(
            "need %d primes in [%d, %d], found %d" % (n, p_min, p_max, len(primes))
        )
    d = delta(r)
    t = [Fraction(1, p) for p in primes]
    c = [p * (Fraction(class_count(n, r, p), p**n) - d) for p in primes]
    # After step k, c[i] is the value at 0 of the interpolant through t[i..i+k].
    for k in range(1, n):
        for i in range(n - k):
            c[i] = (t[i + k] * c[i] - t[i] * c[i + 1]) / (t[i + k] - t[i])
    return c[0]


def moment_constant(k, r):
    """Leading constant of the k-th centered moment of the splitting count."""
    if k < 1:
        raise ValueError("k must be positive")
    d = delta(r)
    if k % 2 == 0:
        half = k // 2
        return (d - d * d) ** half * Fraction(factorial(k), 2**half * factorial(half))
    half = (k - 1) // 2
    return d**half * Fraction(factorial(k), 2**half * factorial(half))


def parity(r):
    """'even' or 'odd': the sign of any permutation with cycle type r."""
    validate_type(r)
    transpositions = sum(i * m for i, m in enumerate(r))  # sum (i-1)*r_i
    return "even" if transpositions % 2 == 0 else "odd"


def splits_in_alternating(r):
    """Whether the S_n class of type r splits into two A_n classes.

    Only defined for even classes; splits iff all cycle lengths are odd
    and pairwise distinct.
    """
    if parity(r) != "even":
        raise ValueError("class of type %s does not lie in A_n" % (r,))
    for i, m in enumerate(r, start=1):
        if m == 0:
            continue
        if i % 2 == 0 or m > 1:
            return False
    return True
