"""Family-level statistics: counts, moments, CLT, prime averages, fibers.

Every statistic over the primes up to x takes x alone, any real x >= 0,
and sieves the primes <= floor(x) it needs; pi(x) is their number.
Every aggregate is a function of one CertifiedFamily, made by
certify_family, and reports how many polynomials were excluded; it
returns plain numbers, lists and dicts, which the CLI writes as they are.
certify_family walks the family in slabs of at most SLAB_ROWS rows, so
only the certified subfamily is held: its packed rows and their
discriminants, both kept from certification.  Count profiles read the rows
alone (one int64 matrix per floor(x), a row per f and a column per type),
the ramified and index averages the discriminants.  Work that
splits into items, the slabs of certification (a family smaller than one
SLAB_ROWS slab per CPU is dealt into one slab per CPU, of no fewer than
MIN_SLAB_ROWS rows) and the (slab, class of primes) pairs of a large
count profile, runs on every CPU through _forked_map: forked workers
compute a share of the items and this process takes the results in item
order, so every result is the same as in one process.  Exact per-prime
references come from the splitting-type combinatorics; asymptotic
constants are never substituted where an exact count is available.
"""

import csv
import io
import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from . import batch, family as family_mod, splittypes
from .errors import EmptyFamilyError, SplitstatError
from .primes import sieve_primes
from .zpoly import dedekind_is_p_maximal

DEFAULT_K_MAX = 6

# Highest centered moment.  |pi_{f,r}(x) - center| <= pi(10^8) = 5,761,455
# (primes.MAX_SIEVE_LIMIT) and a family has at most family.FAMILY_BUDGET =
# 3 * 10^6 rows, so the fsum of the k-th powers stays below
# 3 * 10^6 * (5.77 * 10^6)^k < 1.8 * 10^308, the float range, for k <= 44.
# The reference (k-1)!! (delta - delta^2)^(k/2) pi(x)^(k/2) is smaller still.
MAX_MOMENT = 40

# Count profiles of more (rows x primes) pairs than this deal their primes
# over forked workers, one class primes[c::k] per CPU.  Time of that split
# on 2 CPUs over one process, medians of 5 (2-CPU Xeon), sampled at
# N = 10^12.  Quartics: 0.90-0.99x at 50,000 to 129,000 pairs (300 rows
# at x = 10^3 and 3*10^3, 1,000 at 300; 0.07-0.27 s), 0.81x at 167,000
# (1,000 rows, x = 10^3), 0.66x at 367,000 and 0.62x at 1.2*10^6 (300
# and 1,000 rows, x = 10^4).
# Cubics: 0.99x at 50,400 and 0.84x at 168,000 pairs (x = 10^3, ~20 ms);
# at x = 10^4, 0.62-0.79x from 1.2*10^6 to 1.2*10^7 pairs (0.42 s against
# 0.54 s on 10^4 rows); 0.61x at 9.6*10^6 (1,000 rows, x = 10^5).  Each
# process builds the cubic tables (batch._cubic_table) of its own primes
# only; split by rows, each built every table, and cubics at 1.2-6.1*10^6
# pairs ran 1.4-1.6x slower than in one process.
# Every degree gains above 10^6; quartics would from ~1.7*10^5 as well.
SHARD_PAIRS = 10**6

# Most rows that certify_family certifies at a time; its peak is one slab's
# certification plus the certified rows.  ramified over the N=50 cubic box
# (1,030,301 rows), three runs per size in one process each (2-CPU Xeon):
# one slab of the whole box 0.88-1.02 s and 124 MB; slabs of 20,000 rows
# 1.10-1.60 s and 76-77 MB, 2^15 0.93-1.49 s and 76-77 MB, 2^16 0.72-0.91 s
# and 77 MB, 2^17 0.82-1.13 s and 80 MB, 2^18 0.81-1.14 s and 94 MB; the
# unslabbed certifier took 0.80-0.99 s and 113 MB.  Small slabs pay the
# kernels' fixed cost per prime more often and lose the residue census
# (batch.types_mod_p, p^n < rows) at more primes.
# A family of fewer than SLAB_ROWS rows per CPU is dealt into one slab per
# CPU, each drawn and certified in its own process, but no slab is cut
# below MIN_SLAB_ROWS rows: a first fork costs ~11 ms (importing
# multiprocessing and starting the worker).  Drawing and certifying m draws
# at N = 10^12 in two equal slabs on 2 CPUs, over one process, medians of
# 11 fresh processes (2-CPU Xeon): cubics 1.82x at 1,000 draws (14 ms in
# one process), 1.31x at 2,000, 0.94x at 4,000 and 0.73x at 8,000;
# quartics 2.31x at 300, 1.43x at 1,000, 1.01x at 2,000 and 0.84x at
# 4,000; degree 8 0.82x at 300 (0.17 s).  After a first fork, cubics
# 1.05x at 2,000 and 0.84x at 4,000, quartics 1.01x at 1,000.  So a slab
# pays for its process from ~2^11 cubic and ~2^10 quartic rows.
SLAB_ROWS = 2**16
MIN_SLAB_ROWS = 2**11


@dataclass(frozen=True, eq=False)
class CertifiedFamily:
    """The certified subfamily of a packed family, plus its status counts.

    coeffs is the (k, n) array of the certified rows in batch.pack format
    and disc the array of their discriminants, in the same order.
    statuses counts the whole family's rows by certification status,
    keyed by family.STATUSES in order.
    """

    coeffs: np.ndarray
    disc: np.ndarray
    statuses: dict
    description: str = ""
    # Count profiles by floor(x), int64 matrices filled by _count_profile.
    _profiles: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.coeffs)

    @property
    def excluded(self):
        return sum(self.statuses.values()) - len(self)


def certify_family(family, budget=family_mod.CERTIFIER_PRIME_BUDGET, description=""):
    """Certify a family and keep only its S_n-certified rows.

    family is a packed (m, n) array or a family.FamilySpec: anything whose
    len is m and whose slices are packed arrays.  Each slab is sliced (a
    FamilySpec's slice draws it) and certified in one process.  A slab is
    SLAB_ROWS rows, or ceil(m / k) on k CPUs when that is fewer, but never
    fewer than MIN_SLAB_ROWS; _forked_map spreads the slabs over every CPU
    and they are kept in slab order.  Certification decides each row
    alone, so the result is that of one array of the whole family, dtypes
    included.
    """
    m = len(family)
    slab_rows = min(SLAB_ROWS, max(-(-m // _cpus()), MIN_SLAB_ROWS))
    coeffs = disc = None
    kept = 0
    counts = np.zeros(len(family_mod.STATUSES), dtype=np.int64)

    def certify_slab(start):
        slab = family[start:start + slab_rows]
        status, slab_disc = family_mod.certify(slab, budget)
        keep = status == family_mod.STATUSES.index(family_mod.SN_CERTIFIED)
        return np.bincount(status, minlength=len(counts)), slab[keep], slab_disc[keep]

    # An empty family is certified once, which gives its arrays their shapes.
    for slab_counts, rows, rows_disc in _forked_map(certify_slab, range(0, max(m, 1), slab_rows)):
        coeffs = _keep(coeffs, m, kept, rows)
        disc = _keep(disc, m, kept, rows_disc)
        kept += len(rows)
        counts += slab_counts
    statuses = dict(zip(family_mod.STATUSES, counts.tolist()))
    return CertifiedFamily(coeffs[:kept], disc[:kept], statuses, description)


def _keep(buffer, m, start, rows):
    """The buffer of m rows, made on first use, with rows written from
    row start on; its pages past the rows written are never touched.

    Object rows (beyond int64) turn an int64 buffer into an object one, as
    they would turn one array of the whole family.
    """
    if buffer is None or (rows.dtype == object and buffer.dtype != object):
        wider = np.empty((m,) + rows.shape[1:], dtype=rows.dtype)
        if buffer is not None:
            wider[:start] = buffer[:start]
        buffer = wider
    buffer[start:start + len(rows)] = rows
    return buffer


def _cpus():
    """The CPUs this process may run on; one where the platform cannot say."""
    # Linux: it can fork and says which CPUs this process may use.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _forked_map(fn, items):
    """fn(item) for each of a sequence of items, yielded in item order,
    computed on every CPU this process may use.

    With k = min(CPUs, items) processes, item i is computed in process
    i mod k: this one computes items 0, k, 2k, ... and each of k - 1 forked
    workers, which share this process's pages (the family among them),
    pickles the results of its items, in order, into a pipe that this
    process reads as it reaches them.  A worker that dies or raises
    raises SplitstatError here; every worker is killed and reaped once the
    map ends, is closed or fails.  With one CPU or one item nothing forks.
    """
    k = min(_cpus(), len(items))
    if k < 2:
        yield from map(fn, items)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for first in range(1, k):
            read, write = os.pipe()
            worker = context.Process(target=_send_each, daemon=True,
                                     args=(write, fn, items[first::k]))
            worker.start()
            os.close(write)
            workers.append((worker, open(read, "rb")))
        for i, item in enumerate(items):
            if i % k == 0:
                yield fn(item)
                continue
            worker, receive = workers[i % k - 1]
            try:
                result = pickle.load(receive)
            except (EOFError, pickle.UnpicklingError):
                worker.join()
                raise SplitstatError("worker exited with code %s" % worker.exitcode) from None
            yield result
    finally:
        for worker, receive in workers:
            receive.close()
            worker.kill()  # it has sent its results or failed
            worker.join()


def _send_each(write, fn, items):
    """Pickle fn(item) for each item to the pipe's write end, in order."""
    # pickle.load reads protocol 5's array bytes straight into each array;
    # Connection.recv gathered them in a growing buffer first, which raised
    # cubic-box-ramified's peak RSS from 74.0 to 77.0 MB (2-CPU Xeon).
    with open(write, "wb") as send:
        for item in items:
            pickle.dump(fn(item), send, protocol=5)
            send.flush()


def _require_nonempty(cf):
    if len(cf) == 0:
        raise EmptyFamilyError("no certified polynomials in family")


def _type_counts(cf, r):
    """counts, where counts(x) lists pi_{f,r}(x) of every certified f in row
    order, as Python ints: the column of r in _count_profile(cf, x).

    Refuses an empty family, then a type r not of the family's degree.  A
    statistic makes its own checks before counts(x), so a refused one
    counts nothing."""
    _require_nonempty(cf)
    n = cf.coeffs.shape[1]
    if splittypes.validate_type(r) != n:
        raise ValueError("type degree %d does not match the degree %d" % (len(r), n))
    code = splittypes.enumerate_types(n).index(tuple(r))
    return lambda x: _count_profile(cf, x)[:, code].tolist()


# ---------------------------------------------------------------------------
# Count profiles (cached per certified family)

def _count_profile(cf, x):
    """Per-polynomial pi_{f,r}(x) for every type r, from the rows alone.

    Returns _count_matrix's int64 matrix at the primes <= floor(x): row i
    counts f_i's primes of each type in enumerate_types(n) order, then
    those dividing disc(f_i).  Cached on the CertifiedFamily instance under
    floor(x), so the primes are sieved only on a miss.  The rows are
    counted SLAB_ROWS at a time.  Above SHARD_PAIRS (rows x primes), the
    primes are dealt into one class per CPU, primes[c::k], and each (slab,
    class) item is counted through _forked_map, so process c counts every
    row at its own primes and builds the cubic tables (batch._cubic_table)
    of those alone.  The integer counts of each slab's classes are added up.
    """
    key = math.floor(x)
    if key in cf._profiles:
        return cf._profiles[key]
    primes = sieve_primes(x)
    m, n = cf.coeffs.shape
    k = _cpus() if m * len(primes) > SHARD_PAIRS else 1
    items = [(start, c) for start in range(0, m, SLAB_ROWS) for c in range(k)]
    # With one class, map keeps every slab in this process.
    counted = (_forked_map if k > 1 else map)(
        lambda item: _count_matrix(cf.coeffs[item[0]:item[0] + SLAB_ROWS], primes[item[1]::k]),
        items)
    matrix = np.zeros((m, len(splittypes.enumerate_types(n)) + 1), dtype=np.int64)
    for (start, _c), slab_counts in zip(items, counted):
        matrix[start:start + len(slab_counts)] += slab_counts
    cf._profiles[key] = matrix
    return matrix


def _count_matrix(coeffs, primes):
    """(rows, types + 1) counts per type code; the last is not squarefree."""
    m, n = coeffs.shape
    # The same counts: perfbench's self-test needs batch.count_pairs, counted only here.
    if (n == 3 and primes and coeffs.dtype == np.int64
            and primes[-1] < batch.MAX_KERNEL_PRIME):
        return batch.cubic_count_matrix(coeffs, primes)
    matrix = np.zeros((m, len(splittypes.enumerate_types(n)) + 1), dtype=np.int64)
    rows = np.arange(m)
    for p in primes:
        matrix[rows, batch.types_mod_p(coeffs, p)] += 1
    return matrix


# ---------------------------------------------------------------------------
# Family aggregates

def exact_chebotarev_reference(n, r, x):
    """Sum over p <= x of class_count(n,r,p)/p^n, in ascending prime order."""
    total = 0.0
    for p in sieve_primes(x):
        total += splittypes.class_count(n, tuple(r), p) / p**n
    return total


def family_chebotarev_mean(cf, r, x):
    """Empirical mean of pi_{f,r}(x) and its exact finite-p reference.

    Both sums run over the primes <= floor(x).
    """
    mean = math.fsum(_type_counts(cf, r)(x)) / len(cf)
    return mean, exact_chebotarev_reference(len(r), r, x)


def family_centered_moment(cf, r, x, k, center="asymptotic"):
    """Empirical k-th moment of the centered count pi_{f,r}(x), with reference.

    center selects the subtracted term: "asymptotic" uses delta(r) pi(x);
    "exact" uses the finite-p mean sum of class_count/p^n, which removes a
    deterministic O(log log x) bias that dominates the odd moments.
    Reference is C_{k,r} pi(x)^{k/2} for even k and 0 for odd k, with
    pi(x) = len(sieve_primes(x)).
    """
    if not 1 <= k <= MAX_MOMENT:
        raise ValueError("k must lie in [1, %d]" % MAX_MOMENT)
    if center not in ("asymptotic", "exact"):
        raise ValueError("center must be 'asymptotic' or 'exact'")
    values = _type_counts(cf, r)(x)
    pix = len(sieve_primes(x))
    if center == "asymptotic":
        center = float(splittypes.delta(r)) * pix
    else:
        center = exact_chebotarev_reference(len(r), r, x)
    moment = math.fsum((c - center) ** k for c in values) / len(values)
    if k % 2 == 0:
        reference = float(splittypes.moment_constant(k, r)) * pix ** (k / 2)
    else:
        reference = 0.0
    return moment, reference


def normal_cdf(b):
    """Standard normal CDF, absolute error well below 1e-10."""
    return 0.5 * math.erfc(-b / math.sqrt(2.0))


def ks_distance(sample):
    """Exact sup distance between the sample's empirical CDF and Phi."""
    ordered = sorted(sample)
    n = len(ordered)
    worst = 0.0
    for i, v in enumerate(ordered, start=1):
        phi = normal_cdf(v)
        worst = max(worst, abs(i / n - phi), abs((i - 1) / n - phi))
    return worst


def sample_csv(sample):
    """CSV of a CLT sample: one normalized value per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "normalized_count"])
    writer.writerows((i, repr(v)) for i, v in enumerate(sample))
    return buf.getvalue()


def clt_report(cf, r, x, k_max=DEFAULT_K_MAX):
    """Normalized splitting counts for every certified f, with KS distance.

    v(f) = (pi_{f,r}(x) - delta pi(x)) / sqrt((delta - delta^2) pi(x)).
    The counts and moments 1..k_max share one cached count profile at x.
    Returns (results, sample): the report's results, a dict, and the
    tuple of the v(f) in row order.
    """
    counts = _type_counts(cf, r)
    pix = len(sieve_primes(x))
    if pix < 30:
        raise ValueError("pi(x) must be at least 30 for a meaningful normalization")
    if len(cf) < 100:
        raise ValueError("family must contain at least 100 certified polynomials")
    values = counts(x)
    d = float(splittypes.delta(r))
    scale = math.sqrt((d - d * d) * pix)
    sample = tuple((c - d * pix) / scale for c in values)
    mean = math.fsum(values) / len(values)
    variance = math.fsum((c - mean) ** 2 for c in values) / len(values)
    moments = {str(k): list(family_centered_moment(cf, r, x, k))
               for k in range(1, k_max + 1)}
    results = {
        "description": cf.description,
        "n": len(r),
        "r": list(r),
        "x": float(x),
        "family_size": len(cf),
        "excluded": cf.excluded,
        "empirical_mean": mean,
        "empirical_variance": variance,
        "reference_mean": exact_chebotarev_reference(len(r), r, x),
        "reference_variance": (d - d * d) * pix,
        "moments": moments,
        "ks_distance": ks_distance(sample),
        "clt_sample_size": len(sample),
    }
    return results, sample


def ramified_average(cf, bound):
    """Average number of primes p <= bound dividing disc(f); ref sum 1/p.

    The discriminants are read SLAB_ROWS at a time, so their residues are
    held for one slab.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    _require_nonempty(cf)
    primes = sieve_primes(bound)
    total = 0
    for start in range(0, len(cf), SLAB_ROWS):
        disc = cf.disc[start:start + SLAB_ROWS]
        total += sum(int(np.count_nonzero(disc % p == 0)) for p in primes)
    reference = math.fsum(1.0 / p for p in primes)
    return total / len(cf), reference


def index_prime_average(cf, bound):
    """Average number of primes p <= bound dividing the index a_f.

    Only primes with p^2 | disc(f) are submitted to the Dedekind test,
    since the index appears squared in the discriminant; the reference is
    the leading term sum of 1/p^2.  The rows are read SLAB_ROWS at a time,
    so the residues of disc(f) and the rows as Python ints are held for
    one slab.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    _require_nonempty(cf)
    primes = sieve_primes(bound)
    total = 0
    for start in range(0, len(cf), SLAB_ROWS):
        coeffs = cf.coeffs[start:start + SLAB_ROWS]
        disc = cf.disc[start:start + SLAB_ROWS]
        for p in primes:
            for row in coeffs[disc % (p * p) == 0].tolist():
                total += not dedekind_is_p_maximal(row, p)
    reference = math.fsum(1.0 / (p * p) for p in primes)
    return total / len(cf), reference


def fiber_reference(spec, targets):
    """1 / prod p_i^n, the uniform probability of the fibers of targets.

    targets is a list of (p, residues) pairs: f = (a_0, ..., a_{n-1}) hits
    the fiber when a_i = residues[i] mod p for every i.  Holds every rule
    of a fibers run and raises ValueError on a broken one: the moduli are
    at least 2 and pairwise coprime, so the fibers meet as the Chinese
    remainder theorem says; each target is n residues in [0, p); and
    prod p_i^n < 2N, the regime in which the fibers of the box
    [-N, N]^n are near uniform.
    """
    moduli = [p for p, _row in targets]
    for i, p in enumerate(moduli):
        if p < 2 or any(math.gcd(p, q) > 1 for q in moduli[:i]):
            raise ValueError("moduli must be at least 2 and pairwise coprime")
    for p, row in targets:
        if len(row) != spec.n or not all(0 <= c < p for c in row):
            raise ValueError("each needs n residues in [0, p)")
    power = math.prod(p**spec.n for p in moduli)
    if power >= 2 * spec.height_bound:
        raise ValueError(
            "prod p_i^n = %d is not below 2N = %d" % (power, 2 * spec.height_bound))
    return 1.0 / power


def fiber_probability(cf, targets):
    """Share of the certified family in every fiber of targets.

    targets as fiber_reference takes them; it checks them.  The rows are
    read SLAB_ROWS at a time, so their residues are held for one slab.
    """
    _require_nonempty(cf)
    hits = 0
    for start in range(0, len(cf), SLAB_ROWS):
        coeffs = cf.coeffs[start:start + SLAB_ROWS]
        hit = np.ones(len(coeffs), dtype=bool)
        for p, row in targets:
            hit &= (coeffs % p == np.array(row)).all(axis=1)
        hits += int(np.count_nonzero(hit))
    return hits / len(cf)


def split_lower_bound_fraction(cf, x):
    """Fraction of certified f with at least delta*pi(x)/2 totally split primes."""
    n = cf.coeffs.shape[1]
    split_type = (n,) + (0,) * (n - 1)
    counts = _type_counts(cf, split_type)
    pix = len(sieve_primes(x))
    if pix < 30:
        raise ValueError("pi(x) must be at least 30")
    floor_value = float(splittypes.delta(split_type)) * pix / 2.0
    return sum(1 for c in counts(x) if c >= floor_value) / len(cf)
