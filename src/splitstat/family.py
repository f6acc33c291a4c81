"""Polynomial family generation and cycle-type Galois certification.

A family of monic degree-n polynomials is one (m, n) coefficient array in
batch.pack format, from generation to the statistics: either the full
box [-N, N]^n in lexicographic order or reproducible uniform samples.
Either is held whole, so FAMILY_BUDGET bounds the rows of both.
Certification gives every row a status code and its discriminant, as two
arrays.  It is sound but not complete: a polynomial is declared S_n only
when reduction witnesses prove it, and every other row is excluded.
stats.certify_family keeps the certified rows, and every statistic,
congruence fibers included, is computed from them in stats.
"""

import hashlib
import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import batch
from .errors import ResourceLimitError
from .primes import sieve_primes
from .splittypes import MAX_ENUM_DEGREE, enumerate_types
from .zpoly import discriminant, is_perfect_square

# Largest family, in polynomials; a run holds all of them at once.  Boxes:
# peak RSS grows by about 68, 113, 246 and 314 bytes per polynomial at
# n = 2, 3, 4, 6 (slope of peak RSS of the ramified
# subcommand between boxes of 90,601/811,801, 68,921/531,441,
# 14,641/83,521 and 729/15,625 polynomials; CPython 3.11, numpy 2.4).
# Taking n = 6's slope for n = 5 and allowing 50 more per degree above 6,
# the largest admitted box of every degree needs at most 1.1 GB on top of
# the interpreter's ~35 MB: 1731^2 (0.20 GB), 143^3 (0.33 GB), 41^4
# (0.70 GB), 19^5 (0.78 GB), 5^9 (0.91 GB) and 3^13 (1.06 GB); 3^14 is
# refused.  Memory would admit more, but time would not: ramified over the
# 17^4 and 25^4 quartic boxes takes 4.2 s and 14.9 s (2-CPU Xeon), ~35 us
# per row between them, half of it the discriminants, so 41^4 would take
# ~100 s.
# Samples: generate plus stats.certify_family grow peak RSS by about 274
# bytes per cubic at N = 10^12, and at N = 2^64 (object rows) by 336, 445,
# 788 and 1,214 bytes per row at n = 3, 4, 8, 13, about 63 + 91n (slopes
# between 10^5/4*10^5, 5,000/25,000, 2,000/10,000 and 2,000/24,000 draws).
# So a sample of degree n > 3 is held to FAMILY_BUDGET * 3/n draws, which
# need at most 1.01 GB at every degree.  That bounds memory, not time:
# draws of degree <= 8 take the kernels at any height, but above degree 8
# every prime goes to the scalar oracle (~18 ms per degree-13 draw).
# A count profile splits the rows over forked workers (stats.SHARD_PAIRS),
# each with kernel temporaries for its own rows.  Measured on 2 CPUs:
# 3*10^6 cubics at N = 10^12, x = 100, peaked at 0.68 GB of parent RSS plus
# worker private memory (0.69 GB in one process), under the 0.85 GB of
# certification; RUSAGE_SELF + RUSAGE_CHILDREN sum to 0.85 + 0.47 GB, as the
# worker's RSS counts the family pages it shares.  10^5 cubics at N = 10^30
# (object rows), x = 1000: 0.10 GB (0.08 in one process), sum 78 + 65 MB.
FAMILY_BUDGET = 3 * 10**6

# The certifier scans the primes up to this limit, sieved once, spending
# at most the budget's number of primes at which f is squarefree.
CERTIFIER_TABLE_LIMIT = 1000
CERTIFIER_PRIMES = sieve_primes(CERTIFIER_TABLE_LIMIT)
CERTIFIER_PRIME_BUDGET = 25

# Certification statuses; certify gives each row the index of its status.
STATUSES = (SN_CERTIFIED, AN_CANDIDATE, REDUCIBLE, UNDETERMINED) = (
    "SnCertified", "AnCandidate", "Reducible", "Undetermined")
_SN, _AN, _REDUCIBLE, _UNDETERMINED = range(len(STATUSES))

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
        sampled = self.mode == "sampled"
        if sampled and self.sample_size < 1:
            raise ValueError("sampled mode requires sample_size >= 1")
        if not sampled and (self.sample_size or self.seed):
            raise ValueError("exhaustive mode takes no sample_size or seed")
        budget = FAMILY_BUDGET * 3 // max(self.n, 3) if sampled else FAMILY_BUDGET
        if self.size > budget:
            raise ResourceLimitError("%s family of %d polynomials exceeds budget %d"
                                     % (self.mode, self.size, budget))

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
    # The budget keeps big_n far below pack's 2^62 int64 bound.
    side = np.arange(-big_n, big_n + 1, dtype=np.int64)
    return np.stack(np.meshgrid(*[side] * n, indexing="ij"), axis=-1).reshape(-1, n)


def _is_transposition_type(r):
    """Exactly one degree-2 factor and every other factor degree odd."""
    if len(r) < 2 or r[1] != 1:
        return False
    return all(m == 0 for i, m in enumerate(r, start=1) if i % 2 == 0 and i != 2)


def _has_integer_root(f):
    """Whether f has an integer root; searches divisors of the constant term.

    Divisors are recovered by trial division up to ROOT_DIVISOR_BOUND, so a
    huge constant term with only large divisors can miss roots; such rows
    stay Undetermined.
    """
    target = abs(f[0])
    if target == 0:
        return True
    for d in range(1, min(isqrt(target), ROOT_DIVISOR_BOUND) + 1):
        if target % d == 0:
            for root in (d, -d, target // d, -target // d):
                if sum(c * root**i for i, c in enumerate(f)) + root ** len(f) == 0:
                    return True
    return False


def _witness_kinds(n):
    """Boolean tables over the degree-n codes, one per kind of witness.

    Codes index enumerate_types(n), the types of squarefree reductions.
    The kinds are an n-cycle (irreducible reduction) and a
    transposition-generating type, plus an (n-1)-cycle when n is composite.
    """
    types = enumerate_types(n)

    def table(is_kind):
        return np.array([is_kind(r) for r in types])

    kinds = [table(lambda r: r[n - 1] == 1), table(_is_transposition_type)]
    if any(n % q == 0 for q in range(2, n)):
        kinds.append(table(lambda r: r[0] == 1 and r[n - 2] == 1))
    return kinds


def _discriminants(coeffs):
    """disc(f) of every row of an (m, n) packed family, in row order.

    For n <= 3 the closed forms run over the coefficient columns, in int64
    when every |c| <= 2^15: then each term of the cubic's is at most 2^62
    in absolute value and their sum stays below 2^63.  Otherwise, and for
    n >= 4, row by row as Python ints (object dtype).
    """
    m, n = coeffs.shape
    if n <= 3 and coeffs.dtype == np.int64 and np.abs(coeffs).max(initial=0) <= 2**15:
        disc = discriminant(list(coeffs.T))
        return np.full(m, disc) if n == 1 else disc
    return np.array([discriminant(row) for row in coeffs.tolist()], dtype=object)


def certify(coeffs, budget):
    """Cycle-type certification of G_f = S_n for an (m, n) packed family.

    Returns (status, disc) in row order: status indexes STATUSES (int8)
    and disc holds the discriminants.  Scans CERTIFIER_PRIMES in order,
    spending at most `budget` primes at which f is squarefree, which for
    monic f are the primes not dividing disc(f).  The reduction type at
    such a prime is a witness when it shows a kind of cycle not yet seen
    for f: an n-cycle, a transposition, or (for composite n) an
    (n-1)-cycle.  The n-cycle makes G_f transitive; a transitive group
    with a transposition is S_n when n is prime, and with an (n-1)-cycle
    as well for any n.  Without the full set: square discriminant and an
    n-cycle give AnCandidate, zero discriminant or an integer root gives
    Reducible, and everything else is Undetermined.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    m = len(coeffs)
    kinds = _witness_kinds(coeffs.shape[1])
    disc = _discriminants(coeffs)
    # A zero discriminant means gcd(f, f') is a proper factor over Q.
    done = disc == 0
    seen = [np.zeros(m, dtype=bool) for _ in kinds]
    used = np.zeros(m, dtype=np.int64)
    for p in CERTIFIER_PRIMES:
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        active = active[disc[active] % p != 0]
        codes = batch.types_mod_p(coeffs[active], p)
        used[active] += 1
        complete = np.ones(active.size, dtype=bool)
        for kind, flag in zip(kinds, seen):
            flag[active[kind[codes]]] = True
            complete &= flag[active]
        done[active] = complete | (used[active] >= budget)

    status = np.full(m, _UNDETERMINED, dtype=np.int8)
    status[np.logical_and.reduce(seen)] = _SN
    irreducible = seen[0]
    square = np.flatnonzero(irreducible & (status != _SN))
    status[square[[is_perfect_square(d) for d in disc[square].tolist()]]] = _AN
    # Only a row without an n-cycle witness can have an integer root.
    rootless = np.flatnonzero(~irreducible & (disc != 0))
    rooted = [_has_integer_root(f) for f in coeffs[rootless].tolist()]
    status[rootless[rooted]] = _REDUCIBLE
    status[disc == 0] = _REDUCIBLE
    return status, disc
