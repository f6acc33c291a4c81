"""Polynomial family generation and cycle-type Galois certification.

A family of monic degree-n polynomials is one (m, n) coefficient array in
batch.pack format, from generation to the statistics: either the full
box [-N, N]^n in lexicographic order or reproducible uniform samples.
Certification is sound but not complete: a polynomial is declared S_n
only when reduction witnesses prove it, and everything the witness scan
cannot settle is reported as excluded.
"""

import hashlib
import random
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import batch
from .errors import RegimeError, ResourceLimitError
from .primes import sieve_primes
from .splittypes import MAX_ENUM_DEGREE, enumerate_types
from .zpoly import discriminant, is_perfect_square

# Largest exhaustive box, in polynomials; an exhaustive run holds all of
# them at once.  Peak RSS grows by about 169, 258, 318 and 337 bytes per
# polynomial at n = 2, 3, 4, 6 (slope of peak RSS of the ramified
# subcommand between boxes of 90,601/811,801, 68,921/531,441,
# 14,641/83,521 and 729/15,625 polynomials; CPython 3.11, numpy 2.4).
# Taking n = 6's slope for n = 5 and allowing 50 more per degree above 6,
# the largest admitted box of every degree needs at most 1.1 GB on top of
# the interpreter's ~35 MB: 1731^2 (0.51 GB), 143^3 (0.75 GB), 41^4
# (0.90 GB), 19^5 (0.83 GB), 5^9 (0.95 GB) and 3^13 (1.10 GB); 3^14 is
# refused.  Memory would admit more, but time would not: the 41^4
# quartic box already takes about an hour in the scalar certifier.
EXHAUSTIVE_BUDGET = 3 * 10**6

# The certifier scans the primes up to this limit, sieved once, spending
# at most the budget's number of primes at which f is squarefree.
CERTIFIER_TABLE_LIMIT = 1000
CERTIFIER_PRIMES = sieve_primes(CERTIFIER_TABLE_LIMIT).primes
CERTIFIER_PRIME_BUDGET = 25

SN_CERTIFIED = "SnCertified"
AN_CANDIDATE = "AnCandidate"
REDUCIBLE = "Reducible"
UNDETERMINED = "Undetermined"

# Integer-root search for reducibility proofs trial-divides the constant
# term only up to this bound; larger constant terms stay Undetermined.
ROOT_DIVISOR_BOUND = 10**4


@dataclass(frozen=True)
class FamilySpec:
    n: int
    height_bound: int
    mode: str = "exhaustive"
    sample_size: int = 0
    seed: int = 0
    certifier_prime_budget: int = CERTIFIER_PRIME_BUDGET

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ENUM_DEGREE:
            raise ValueError("degree must be between 1 and %d" % MAX_ENUM_DEGREE)
        if self.height_bound < 0:
            raise ValueError("height bound must be nonnegative")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError("mode must be 'exhaustive' or 'sampled'")
        if self.mode == "sampled" and self.sample_size < 1:
            raise ValueError("sampled mode requires sample_size >= 1")
        if self.mode == "exhaustive":
            if (2 * self.height_bound + 1) ** self.n > EXHAUSTIVE_BUDGET:
                raise ResourceLimitError(
                    "exhaustive family of size (2N+1)^n exceeds budget %d"
                    % EXHAUSTIVE_BUDGET
                )

    @property
    def size(self):
        if self.mode == "exhaustive":
            return (2 * self.height_bound + 1) ** self.n
        return self.sample_size


def _subseed(seed, index):
    """Stable sub-seed of draw `index`: each draw depends on (seed, index) only."""
    digest = hashlib.sha256(b"%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:16], "big")


def generate(spec):
    """The family as one (m, n) array in batch.pack format.

    Exhaustive: all of the box, in the lexicographic order of
    itertools.product.  Sampled: draw i is n coefficients from
    random.Random(_subseed(seed, i)).
    """
    n, big_n = spec.n, spec.height_bound
    if spec.mode == "sampled":
        rows = []
        for index in range(spec.sample_size):
            rng = random.Random(_subseed(spec.seed, index))
            rows.append(tuple(rng.randrange(-big_n, big_n + 1) for _ in range(n)))
        return batch.pack(rows)
    # The budget keeps big_n far below the kernels' 2^62 height bound.
    side = np.arange(-big_n, big_n + 1, dtype=np.int64)
    return np.stack(np.meshgrid(*[side] * n, indexing="ij"), axis=-1).reshape(-1, n)


@dataclass(frozen=True, slots=True)
class GaloisCertificate:
    status: str
    witnesses: tuple
    discriminant: int


def _is_transposition_type(r):
    """Exactly one degree-2 factor and every other factor degree odd."""
    if len(r) < 2 or r[1] != 1:
        return False
    return all(m == 0 for i, m in enumerate(r, start=1) if i % 2 == 0 and i != 2)


def _integer_root(f):
    """An integer root of f, or None; searches divisors of the constant term.

    Divisors are recovered by trial division up to ROOT_DIVISOR_BOUND, so a
    huge constant term with only large divisors can miss roots; callers fall
    back to Undetermined in that case.
    """
    a0 = f[0]
    if a0 == 0:
        return 0
    target = abs(a0)
    small = []
    d = 1
    while d * d <= target and d <= ROOT_DIVISOR_BOUND:
        if target % d == 0:
            small.append(d)
            small.append(target // d)
        d += 1
    for t in small:
        for root in (t, -t):
            value = 1
            for c in reversed(f):
                value = value * root + c
            if value == 0:
                return root
    return None


def _witness_kinds(n):
    """Boolean tables over the degree-n codes, one per kind of witness.

    Codes index enumerate_types(n); the last code (not squarefree)
    witnesses nothing.  The kinds are an n-cycle (irreducible reduction)
    and a transposition-generating type, plus an (n-1)-cycle when n is
    composite.
    """
    types = enumerate_types(n)

    def table(is_kind):
        return np.array([is_kind(r) for r in types] + [False])

    kinds = [table(lambda r: r[n - 1] == 1), table(_is_transposition_type)]
    if any(n % q == 0 for q in range(2, n)):
        kinds.append(table(lambda r: r[0] == 1 and r[n - 2] == 1))
    return kinds


def certify_stream(coeffs, budget):
    """Cycle-type certification of G_f = S_n for an (m, n) packed family.

    Scans CERTIFIER_PRIMES in order, spending at most `budget` primes
    at which f is squarefree.  The reduction type at such a prime is a
    witness when it shows a kind of cycle not yet seen for f: an n-cycle,
    a transposition, or (for composite n) an (n-1)-cycle.  The n-cycle
    makes G_f transitive; a transitive group with a transposition is S_n
    when n is prime, and with an (n-1)-cycle as well for any n.  Without
    the full set: square discriminant and an n-cycle give AnCandidate,
    zero discriminant or an integer root gives Reducible, and everything
    else is Undetermined.  Certificates come back in input order.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    m, n = coeffs.shape
    types = enumerate_types(n)
    kinds = _witness_kinds(n)
    witness_codes = np.flatnonzero(np.logical_or.reduce(kinds)).tolist()
    disc = [discriminant(row.tolist()) for row in coeffs]
    # A zero discriminant means gcd(f, f') is a proper factor over Q.
    done = np.array([d == 0 for d in disc], dtype=bool)
    seen = [np.zeros(m, dtype=bool) for _ in kinds]
    used = np.zeros(m, dtype=np.int64)
    witnesses = [()] * m
    for p in CERTIFIER_PRIMES:
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        codes = batch.types_mod_p(coeffs[active], p)
        used[active] += codes != len(types)
        new = np.zeros(active.size, dtype=bool)
        complete = np.ones(active.size, dtype=bool)
        for kind, flag in zip(kinds, seen):
            hit = kind[codes] & ~flag[active]
            flag[active[hit]] = True
            new |= hit
            complete &= flag[active]
        for code in witness_codes:
            witness = ((p, types[code]),)  # one tuple shared by its rows
            for i in active[new & (codes == code)].tolist():
                witnesses[i] += witness
        done[active] = complete | (used[active] >= budget)

    certified = np.logical_and.reduce(seen).tolist()
    irreducible = seen[0].tolist()
    certs = []
    for row, d, found, full, irr in zip(coeffs, disc, witnesses, certified, irreducible):
        if d == 0 or (not irr and _integer_root(row.tolist()) is not None):
            status = REDUCIBLE
        elif full:
            status = SN_CERTIFIED
        elif irr and is_perfect_square(d):
            status = AN_CANDIDATE
        else:
            status = UNDETERMINED
        certs.append(GaloisCertificate(status=status, witnesses=found, discriminant=d))
    return certs


def certified_rows(coeffs, budget):
    """Certify a packed family; its S_n-certified rows, their discriminants, the rest.

    Returns (rows, disc, excluded): the certified rows of coeffs (shape
    (0, n) when none is certified), their discriminants in the same order,
    and the excluded count.
    """
    certs = certify_stream(coeffs, budget)
    keep = np.array([c.status == SN_CERTIFIED for c in certs], dtype=bool)
    disc = tuple(c.discriminant for c in compress(certs, keep))
    return coeffs[keep], disc, len(certs) - len(disc)


def fiber_probability(spec, targets):
    """Empirical probability that a certified f hits all congruence fibers.

    targets is a list of (p, FieldPolynomial) pairs with distinct primes;
    returns (empirical, reference) where reference = 1 / prod(p_i^n).
    Enforces prod(p_i^n) < 2N, the regime in which the fibers are near
    uniform.
    """
    n, big_n = spec.n, spec.height_bound
    primes = [p for p, _g in targets]
    if len(set(primes)) != len(primes):
        raise ValueError("target primes must be distinct")
    for p, g in targets:
        if g.p != p or g.degree != n or not g.is_monic:
            raise ValueError("each target must be monic of degree n over its prime")
    modulus_power = 1
    for p in primes:
        modulus_power *= p**n
    if modulus_power >= 2 * big_n:
        raise RegimeError(
            "prod p_i^n = %d is not below 2N = %d" % (modulus_power, 2 * big_n)
        )

    coeffs, _disc, _excluded = certified_rows(generate(spec), spec.certifier_prime_budget)
    if len(coeffs) == 0:
        raise RegimeError("no certified polynomials in family")
    hit = np.ones(len(coeffs), dtype=bool)
    for p, g in targets:
        hit &= (coeffs % p == np.array(g.coeffs[:-1])).all(axis=1)
    return int(np.count_nonzero(hit)) / len(coeffs), 1.0 / modulus_power
