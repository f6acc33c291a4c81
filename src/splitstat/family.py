"""Polynomial family generation and cycle-type Galois certification.

A family of monic degree-n polynomials is either the full box [-N, N]^n
in lexicographic order or reproducible uniform samples.  generate gives
any range of its rows as an (m, n) coefficient array in batch.pack format,
and a FamilySpec is sliced the same way, so stats certifies it slab by slab
and never holds it whole; FAMILY_BUDGET bounds its rows.  Certification
gives every row a status code and its discriminant, as two arrays.  It is
sound but not complete: a polynomial is declared S_n only
when reduction witnesses prove it, and every other row is excluded.  stats
sums the ramified and index averages and the fiber share over each slab's
certified rows, and stats.certify_family gathers them for count profiles.
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

# Largest family, in polynomials.  Every subcommand certifies one slab of
# stats.SLAB_ROWS = 2^16 rows at a time per process (stats._forked_map), and
# ramified, index and fibers keep nothing more: over 143^3 and 41^4 on 2
# CPUs, ramified peaked at 40 and 56 MB here and 32 and 48 MB in the worker.
# chebotarev, moments and clt gather the certified rows here
# (stats.certify_family), so beyond one slab their peak RSS grows by about
# 35, 39, 45 and 46 bytes per polynomial in boxes at n = 2, 3, 4, 6 (slope of
# the peak RSS of chebotarev --mode exhaustive at x = 100 for the n-cycle
# between boxes of 90,601/811,801, 68,921/531,441, 83,521/390,625 and
# 117,649/531,441 polynomials, the larger of one process, 31/39/39/39, and 2
# CPUs, 35/34/45/46, whose worker grew by 17/26/36/41; CPython 3.11, numpy 2.4).
# Taking n = 6's slope for n = 5 and allowing 50 more per degree above 6, the
# largest admitted box of every degree needs at most 0.65 GB on top of the
# interpreter's ~35 MB and one slab (at most ~80 MB, for 2^16 degree-13
# draws): 1731^2 (0.10 GB), 143^3 (0.11 GB), 41^4 (0.13 GB), 19^5 (0.11 GB),
# 5^9 (0.38 GB) and 3^13 (0.63 GB); 3^14 is refused.  chebotarev on 2 CPUs
# peaked at 149 / 100 MB over 143^3 and 168 / 123 MB over 41^4 (here /
# worker).  Memory would admit more, but time would not, which is what holds
# the budget at 3*10^6: ramified over the 17^4 and 25^4 quartic boxes takes
# 1.4 s and 5.3 s (medians of three runs, 1.35-1.61 s and 4.4-5.5 s; 2-CPU
# Xeon), ~13 us per row between them, about a sixth of it the discriminants
# (0.79 s of the 25^4 box), and 21 s over 41^4 (one run; 12.5 s on 2 CPUs).
# Samples, measured while the certified rows kept their discriminants (an
# overstatement now): peak RSS grows by about 112 bytes per cubic at
# N = 10^12 (slope between 10^5/4*10^5 draws), and at N = 2^64, where the
# certified rows keep their Python ints, by 255,
# 368, 596 and ~1,100 bytes per draw at n = 3, 4, 8, 13 (slopes between
# 10^5/4*10^5 and 10^5/2*10^5 draws, and, with slabs of 2^10 rows,
# 2,000/10,000 and 1,000/3,000 draws).  A sample of degree n > 3 is held to
# FAMILY_BUDGET * 3/n draws, which need at most 0.83 GB at every
# degree.  That bounds memory, not time: the scalar oracle still types the
# primes p <= n from degree 4 on, most of the 3.5-5.6 s that 1,000 degree-13
# draws at N = 2^64 take to draw and certify on one CPU (692,307: ~1 hour).
# A count profile holds one slab's kernel temporaries per process and keeps
# one int64 count per certified row, for the one type a statistic reads.
# Peak RSS of family_chebotarev_mean at x = 10^4 over rows drawn at
# N = 10^12, slope between two sizes in fresh processes, one process / 2
# CPUs: cubics (10^5, 3*10^5 rows, past one slab) 133 / 126 bytes per row,
# the rows' 24 and their discriminants, then kept, included (151 / 147 with a
# matrix of every type's counts); quartics (2,000, 10^4) 0.8 / 0.9 KB and n = 8
# (1,000, 2,000) 4.2 / 3.4 KB, kernel temporaries growing below a slab.  3*10^6
# cubics at x = 100 on 2 CPUs: 325 MB in the calling process and 272 MB in
# a worker (389 and 271 MB with the matrix).  The profile alone, with the
# typing replaced by a constant, at x = 5 on 2 CPUs: 10^5 rows at n = 13
# peaked at 46 MB in the calling process and 34 MB in the worker, at n = 20
# at 52 and 39 MB (228 / 85 and 1,174 / 353 MB with the matrix).  692,307
# degree-13 draws keep a 5.5 MB profile.
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

# Remainders per block of the int64 root search: 2^18 int64 entries (2 MB)
# whatever the family's size.
_DIVISOR_BLOCK_ENTRIES = 2**18

# Matrix entries per block of _discriminants, whatever the family's size:
# the (n, n, rows) object stack of 2^14 / n^2 polynomials.  Bareiss on
# 2,000 degree-13 draws at N = 2^64 peaked at 6.0 MB (tracemalloc) in such
# blocks and at 116 MB in one stack, so a 2^16-row slab in one stack would
# need ~3.8 GB.  Blocks of 2^12 and 2^13 entries took 1.7x and 1.2x as long
# on the N=8 quartic box (2-CPU Xeon).
_DISC_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True)
class FamilySpec:
    n: int
    height_bound: int
    mode: str = "exhaustive"
    sample_size: int = 0
    seed: int = 0

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

    def __len__(self):
        return self.size

    def __getitem__(self, rows):
        """The rows of a slice of step 1, generated on demand: a FamilySpec
        is a family that stats._certified_slabs reads slab by slab."""
        start, stop, step = rows.indices(self.size)
        if step != 1:
            raise ValueError("a family is sliced in steps of 1")
        return generate(self, start, stop)


def _subseed(seed, index):
    """Stable sub-seed of draw `index`: each draw depends on (seed, index) only."""
    digest = hashlib.sha256(b"%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:16], "big")


def generate(spec, start=0, stop=None):
    """Rows [start, stop) of the family, by default all of it, as one
    (stop - start, n) array in batch.pack format.

    Exhaustive: the box in the lexicographic order of itertools.product.
    Sampled: draw i is the n values of n randrange(-N, N + 1) calls, in
    order, on random.Random(_subseed(seed, i)).  One generator is reseeded
    per draw, and each call is inlined as the code randrange runs:
    getrandbits((2N + 1).bit_length()) until the value is below 2N + 1,
    minus N.  That takes 0.080 s per 10^4 cubic draws at N = 10^12,
    against 0.098 s for a new generator and randrange per draw (medians of
    7 processes, 2-CPU Xeon); seeding is ~0.065 s of it.
    """
    n, big_n = spec.n, spec.height_bound
    stop = spec.size if stop is None else stop
    if spec.mode == "sampled":
        width = 2 * big_n + 1
        bits = width.bit_length()
        rng = random.Random()
        getrandbits = rng.getrandbits
        rows = []
        for index in range(start, stop):
            rng.seed(_subseed(spec.seed, index))
            row = []
            for _ in range(n):
                value = getrandbits(bits)
                while value >= width:
                    value = getrandbits(bits)
                row.append(value - big_n)
            rows.append(row)
        return batch.pack(rows).reshape(-1, n)
    # The budget keeps big_n far below pack's 2^62 int64 bound.
    digits = np.unravel_index(np.arange(start, stop, dtype=np.int64), (2 * big_n + 1,) * n)
    return np.stack(digits, axis=-1) - big_n


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


def _has_integer_roots(coeffs):
    """_has_integer_root of every row of an (m, n) packed family.

    int64 rows with n max |a_i| < 2^63 take _divisor_roots; object rows
    and the rest keep the per-row loop.
    """
    m, n = coeffs.shape
    rooted = np.zeros(m, dtype=bool)
    fast = np.zeros(m, dtype=bool)
    if coeffs.dtype == np.int64:
        fast = np.abs(coeffs).max(axis=1, initial=0) <= (2**63 - 1) // n
        rooted[fast] = _divisor_roots(coeffs[fast])
    slow = np.flatnonzero(~fast)
    rooted[slow] = [_has_integer_root(f) for f in coeffs[slow].tolist()]
    return rooted


def _divisor_roots(coeffs):
    """_has_integer_root of every row of an (m, n) int64 array whose
    |coefficients| stay below 2^63 / n, over whole blocks of rows.

    Rows are taken from the largest |a_0| down.  A block trial-divides by
    every d up to min(isqrt(|a_0|), ROOT_DIVISOR_BOUND) of its largest
    row; a smaller row of the block then meets divisors beyond its square
    root too, but those and their cofactors are divisors of a_0 that its
    own search reaches, so every row tests the candidates of
    _has_integer_root and no others.
    """
    target = np.abs(coeffs[:, 0])
    rooted = target == 0
    rows = np.flatnonzero(~rooted)
    rows = rows[np.argsort(target[rows], kind="stable")]
    end = len(rows)
    while end:
        top = min(isqrt(int(target[rows[end - 1]])), ROOT_DIVISOR_BOUND)
        start = max(0, end - max(1, _DIVISOR_BLOCK_ENTRIES // top))
        block = rows[start:end]
        divisors = np.arange(1, top + 1, dtype=np.int64)
        row, column = np.nonzero(target[block, None] % divisors == 0)
        row, d = block[row], divisors[column]
        cofactor = target[row] // d
        row = np.tile(row, 4)
        rooted[row[_are_roots(coeffs[row], np.concatenate([d, -d, cofactor, -cofactor]))]] = True
        end = start
    return rooted


def _are_roots(coeffs, r):
    """Whether r_k, a nonzero divisor of a_0, is a root of row k of an
    (m, n) int64 array whose |coefficients| stay below 2^63 / n.

    With T_n = 1 and T_i = a_i + r T_(i+1), f(r) = T_0, so f(r) = 0 exactly
    when T_1 = -a_0 / r and dividing down, T_(i+1) = (T_i - a_i) / r, is
    exact at every step and ends at T_n = 1.  Each value the division
    passes through, exact or not, is at most n max |a_i| < 2^63.
    """
    value = -coeffs[:, 0] // r
    exact = np.ones(len(r), dtype=bool)
    for column in coeffs.T[1:]:
        value -= column
        exact &= value % r == 0
        value //= r
    return exact & (value == 1)


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

    zpoly.discriminant runs over the coefficient columns of blocks of
    _DISC_BLOCK_ENTRIES // n^2 rows.  For n <= 3 the closed forms run in
    int64 when every |c| <= 2^15: then each term of the cubic's is at most
    2^62 in absolute value and their sum stays below 2^63.  Otherwise, and
    for n >= 4, the discriminants are Python ints (object dtype).
    """
    m, n = coeffs.shape
    small = n <= 3 and coeffs.dtype == np.int64 and np.abs(coeffs).max(initial=0) <= 2**15
    dtype = np.int64 if small else object
    step = _DISC_BLOCK_ENTRIES // n**2
    # Filled in place: a list of block results joined by np.concatenate
    # raised cubic-box-ramified's peak RSS by 1.3 MB.
    disc = np.empty(m, dtype=dtype)
    for start in range(0, m, step):
        disc[start:start + step] = discriminant(tuple(coeffs[start:start + step].T.astype(dtype)))
    return disc


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
    if not 1 <= budget <= len(CERTIFIER_PRIMES):
        raise ValueError("budget must lie in [1, %d]" % len(CERTIFIER_PRIMES))
    m = len(coeffs)
    kinds = _witness_kinds(coeffs.shape[1])
    disc = _discriminants(coeffs)
    # A zero discriminant means gcd(f, f') is a proper factor over Q.
    done = disc == 0
    seen = [np.zeros(m, dtype=bool) for _ in kinds]
    used = np.zeros(m, dtype=np.int64)
    # batch._mod halves the time of % on int64 but more than doubles it on
    # Python ints; take gathers rows in a third of the time of indexing.
    mod = batch._mod if disc.dtype == np.int64 else np.remainder
    for p in CERTIFIER_PRIMES:
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        # Rows with p | disc(f) give no witness and spend no budget.  Dropping
        # them before typing also halves the cubic rows typed at p = 2: typing
        # them too raised the N=50 cubic box's perfbench peak RSS from 75.2 to
        # 78.3 MB (2-CPU Xeon).
        active = active[mod(disc.take(active), p) != 0]
        codes = batch.types_mod_p(coeffs.take(active, axis=0), p)
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
    status[rootless[_has_integer_roots(coeffs[rootless])]] = _REDUCIBLE
    status[disc == 0] = _REDUCIBLE
    return status, disc
