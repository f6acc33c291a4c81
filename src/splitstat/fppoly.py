"""Arithmetic over prime fields, and the splitting type of f mod p.

A polynomial over GF(p) is one list of coefficients in ascending degree
order, all entries reduced into [0, p); the empty list is the zero
polynomial.  A monic integer polynomial is its coefficient row
(a_0, ..., a_{n-1}) with an implicit leading 1, as in zpoly;
splitting_type_mod_p reduces that row itself.  The routines work on
Python integers, so they take any prime, including those above the
float64 kernels of batch.
"""

from itertools import product, zip_longest
from operator import mul

from .errors import ResourceLimitError

ENUMERATION_BUDGET = 10**7


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim([c % p for c in out])


def _divmod(a, b, p):
    """Quotient and remainder of a by nonzero b; a monic b needs no inverse."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, low = len(b) - 1, b[:-1]
    inv = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for d in range(len(q) - 1, -1, -1):
        coef = a[d + db] * inv % p  # reduce only what is eliminated; a[:db] at the end
        if coef:
            q[d] = coef
            j = d
            for y in low:
                a[j] -= coef * y
                j += 1
    return _trim(q), _trim([c % p for c in a[:db]])


def _mod(a, b, p):
    return _divmod(a, b, p)[1]


def _gcd(a, b, p):
    """Monic gcd of a and b; a nonzero constant remainder ends it at 1."""
    while len(b) > 1:
        a, b = b, _mod(a, b, p)
    if b:
        return [1]
    inv = 1 if not a or a[-1] == 1 else pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _deriv(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _pth_root(a, p):
    """p-th root of a polynomial in GF(p)[X] whose exponents are multiples of p."""
    return _trim([a[i] for i in range(0, len(a), p)])


def _radical(f, p):
    """Product of the distinct monic irreducible factors of the monic f.

    With c = gcd(f, f'), w = f/c holds the factors whose multiplicity p does
    not divide.  Stripping them from c leaves a p-th power, whose radical is
    that of its p-th root.
    """
    c = _gcd(f, _deriv(f, p), p)
    w = _divmod(f, c, p)[0]
    y = _gcd(c, w, p)
    while len(y) > 1:
        c = _divmod(c, y, p)[0]
        y = _gcd(c, y, p)
    if len(c) == 1:
        return w
    return _mul(w, _radical(_pth_root(c, p), p), p)


def _frobenius(f, p):
    """X^p modulo the monic f of degree n >= 2, by squaring and shifting."""
    n = len(f) - 1
    low = f[:n]
    h = [0, 1] + [0] * (n - 2)
    for bit in bin(p)[3:]:
        sq = [0] * (2 * n - 1)  # n(n+1)/2 products, by symmetry
        for i, hi in enumerate(h):
            if hi:
                sq[2 * i] += hi * hi
                twice = 2 * hi
                for j in range(i + 1, n):
                    sq[i + j] += twice * h[j]
        if bit == "1":
            sq.insert(0, 0)  # times X
        for k in range(len(sq) - 1, n - 1, -1):  # fold by f, as in _divmod
            t = sq[k] % p
            if t:
                j = k - n
                for c in low:
                    sq[j] -= t * c
                    j += 1
        h = [x % p for x in sq[:n]]
    return h


def _distinct_degree(f, p):
    """Split a monic squarefree f into (product of irreducibles of degree d, d).

    h = X^(p^d) is kept modulo f itself, since gcd(g, h - X) is the same for
    any g | f.  The next power of h = sum c_i X^i is sum c_i (X^p)^i: the
    vector h times Berlekamp's matrix Q, whose rows are (X^p)^i mod f.
    """
    out = []
    g = list(f)
    columns = None
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        if d == 1:
            h = xp = _frobenius(f, p)
        else:
            if columns is None:
                rows = [[1], xp]
                while len(rows) < len(f) - 1:
                    rows.append(_mod(_mul(rows[-1], xp, p), f, p))
                columns = list(zip_longest(*rows, fillvalue=0))
            h = [sum(map(mul, h, col)) % p for col in columns]
        gd = _gcd(g, _sub(h, [0, 1], p), p)
        if len(gd) > 1:
            out.append((gd, d))
            g = _divmod(g, gd, p)[0]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def splitting_type_mod_p(f, p):
    """Splitting type of f mod p, or None when the reduction is not squarefree.

    Uses distinct-degree factorization only: the degree multiplicities are
    read off the degree-d parts without any equal-degree splitting.  A
    quartic call takes ~80 us near p = 1000, ~150 us near 2^20 and
    ~300 us near 2^31, and an octic one ~280 us near p = 1000 (CPython
    3.11, shared 2-CPU Xeon).  batch.types_mod_p calls it once per distinct
    residue row outside its kernels, whatever the height: from degree 2 on
    for p >= 2^20, and from degree 4 on at the primes p <= n, where the
    traces of Berlekamp's matrix no longer give the type.
    """
    return _reduced_type([c % p for c in f] + [1], p)


def _reduced_type(a, p):
    """splitting_type_mod_p for a monic coefficient list already reduced mod p."""
    if len(_gcd(a, _deriv(a, p), p)) != 1:
        return None
    r = [0] * (len(a) - 1)
    for part, d in _distinct_degree(a, p):
        r[d - 1] = (len(part) - 1) // d
    return tuple(r)


def enumerate_class_counts(p, n, budget=ENUMERATION_BUDGET):
    """Exhaustive splitting-type census of all p^n monic degree-n polys mod p.

    Non-squarefree polynomials are tallied under the key None; the counts
    always total p^n.
    """
    if p**n > budget:
        raise ResourceLimitError("p^n = %d exceeds enumeration budget %d" % (p**n, budget))
    counts = {}
    for tail in product(range(p), repeat=n):
        key = _reduced_type(list(tail) + [1], p)
        counts[key] = counts.get(key, 0) + 1
    return counts
