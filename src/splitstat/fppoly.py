"""Arithmetic and factorization of monic polynomials over prime fields.

Polynomials over GF(p) are coefficient lists in ascending degree order,
all entries reduced into [0, p).  The empty list is the zero polynomial.
The public API wraps these lists in the immutable FieldPolynomial type;
the list-based helpers are kept module-private for speed.
"""

import random
from dataclasses import dataclass
from itertools import product

from .errors import ResourceLimitError

# Moduli of the scalar routines here, which use Python integers, stay below
# this bound.  The float64 kernels of batch stop at batch.MAX_KERNEL_PRIME =
# 2^20, which keeps their reduced sums below 2^44 of the 2^53 that float64
# holds exactly, and call these routines above it.
MAX_MODULUS = 2**31

ENUMERATION_BUDGET = 10**7


@dataclass(frozen=True)
class FieldPolynomial:
    """Polynomial over GF(p); coefficients ascending, trailing zeros trimmed."""

    p: int
    coeffs: tuple

    def __post_init__(self):
        if self.p < 2 or self.p >= MAX_MODULUS:
            raise ValueError("modulus out of supported range")
        if self.coeffs and self.coeffs[-1] % self.p == 0:
            raise ValueError("leading coefficient must be nonzero")
        if any(not 0 <= c < self.p for c in self.coeffs):
            raise ValueError("coefficients must be reduced into [0, p)")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @classmethod
    def from_list(cls, coeffs, p):
        return cls(p=p, coeffs=tuple(_trim([c % p for c in coeffs])))


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


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


def _scale(a, k, p):
    k %= p
    return _trim([(c * k) % p for c in a])


def _divmod(a, b, p):
    """Quotient and remainder of a by nonzero b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        d = len(a) - 1 - db
        coef = (a[-1] * inv) % p
        q[d] = coef
        for i, cb in enumerate(b):
            a[d + i] = (a[d + i] - coef * cb) % p
        _trim(a)
    return _trim(q), a


def _mod(a, b, p):
    return _divmod(a, b, p)[1]


def _monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    return _scale(a, pow(a[-1], p - 2, p), p)


def _gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _mod(a, b, p)
    return _monic(a, p)


def _deriv(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _pow_mod(base, e, mod, p):
    """base^e modulo the polynomial mod, over GF(p)."""
    result = [1]
    base = _mod(base, mod, p)
    while e:
        if e & 1:
            result = _mod(_mul(result, base, p), mod, p)
        base = _mod(_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _pth_root(a, p):
    """p-th root of a polynomial in GF(p)[X] whose exponents are multiples of p."""
    return _trim([a[i] for i in range(0, len(a), p)])


def _squarefree_decomposition(f, p):
    """Yield (monic squarefree factor, multiplicity) pairs with product f.

    f must be monic and nonzero.  Characteristic-p wrinkles (vanishing
    derivative) are handled by p-th root extraction.
    """
    out = []
    df = _deriv(f, p)
    if not df:
        if len(f) == 1:
            return out
        for g, m in _squarefree_decomposition(_pth_root(f, p), p):
            out.append((g, m * p))
        return out
    c = _gcd(f, df, p)
    w = _divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        c = _divmod(c, y, p)[0]
    if len(c) > 1:
        # leftover c is itself a p-th power; its recursion supplies the *p
        out.extend(_squarefree_decomposition(c, p))
    return out


def _distinct_degree(f, p):
    """Split a monic squarefree f into (product of irreducibles of degree d, d)."""
    out = []
    g = list(f)
    h = [0, 1]  # X
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, g, p)
        gd = _gcd(g, _sub(h, [0, 1], p), p)
        if len(gd) > 1:
            out.append((gd, d))
            g = _divmod(g, gd, p)[0]
            h = _mod(h, g, p)
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus splitting of f, a product of irreducibles of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        t = [rng.randrange(p) for _ in range(n)]
        t.append(1)  # monic of degree n, always nonconstant
        if p == 2:
            trace = list(t)
            sq = list(t)
            for _ in range(d - 1):
                sq = _mod(_mul(sq, sq, p), f, p)
                trace = _add(trace, sq, p)
            g = _gcd(f, trace, p)
        else:
            e = (p**d - 1) // 2
            g = _gcd(f, _sub(_pow_mod(t, e, f, p), [1], p), p)
        if 1 <= len(g) - 1 < n:
            left = _equal_degree(g, d, p, rng)
            right = _equal_degree(_divmod(f, g, p)[0], d, p, rng)
            return left + right


def reduce_mod_p(f, p):
    """Coefficientwise reduction of a monic IntPolynomial modulo p."""
    coeffs = [c % p for c in f.coeffs]
    coeffs.append(1)
    return FieldPolynomial(p=p, coeffs=tuple(coeffs))


def is_squarefree_mod_p(g):
    """True iff gcd(g, g') = 1 over GF(p)."""
    if not g.coeffs:
        raise ValueError("zero polynomial")
    a = list(g.coeffs)
    return len(_gcd(a, _deriv(a, g.p), g.p)) == 1


def splitting_type_mod_p(f, p):
    """Splitting type of f mod p, or None when the reduction is not squarefree.

    Uses distinct-degree factorization only: the degree multiplicities are
    read off the degree-d parts without any equal-degree splitting.
    """
    return _reduced_type(list(reduce_mod_p(f, p).coeffs), p)


def _reduced_type(a, p):
    """splitting_type_mod_p for a monic coefficient list already reduced mod p."""
    if len(_gcd(a, _deriv(a, p), p)) != 1:
        return None
    r = [0] * (len(a) - 1)
    for part, d in _distinct_degree(a, p):
        r[d - 1] = (len(part) - 1) // d
    return tuple(r)


def full_factor_mod_p(g, rng_seed):
    """Complete factorization of a monic nonzero g into irreducibles.

    Returns a list of (FieldPolynomial, multiplicity) pairs in canonical
    order (degree, then coefficient tuple); deterministic for a fixed seed.
    """
    if not g.coeffs:
        raise ValueError("zero polynomial")
    if not g.is_monic:
        raise ValueError("polynomial must be monic")
    p = g.p
    rng = random.Random(rng_seed)
    factors = []
    for sqf, mult in _squarefree_decomposition(list(g.coeffs), p):
        for part, d in _distinct_degree(sqf, p):
            for irr in _equal_degree(part, d, p, rng):
                factors.append((FieldPolynomial(p=p, coeffs=tuple(irr)), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return factors


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
