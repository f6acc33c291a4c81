"""Family-level statistics: counts, moments, CLT, prime averages, fibers.

Every statistic over the primes up to x takes x alone, any real x >= 0,
and sieves the primes <= floor(x) it needs; pi(x) is their number.  Every
statistic runs over the S_n-certified rows of a family and reports how
many were excluded; it returns plain numbers, lists and dicts, which the
CLI writes as they are.  A family is certified in slabs of at most
SLAB_ROWS rows (_certified_slabs), never whole.  The ramified and index
averages and the fiber share sum over the certified rows: each slab is
certified and reduced to an integer in the process that certified it.
Count profiles split primes, not rows, so chebotarev, moments and clt read
one CertifiedFamily whose rows certify_family gathers: one int64 count
pi_{f,r}(x) per certified f, of the one type r a statistic reads.  Work
that splits into items, the slabs of certification (a family smaller than one
SLAB_ROWS slab per CPU is dealt into one slab per CPU, of no fewer than
MIN_SLAB_ROWS rows) and the (slab, class of primes) pairs of every
count profile, runs on every CPU through _forked_map: forked workers
compute a share of the items and this process takes the results in item
order, so every result is the same as in one process.  Exact per-prime
references come from the splitting-type combinatorics; asymptotic
constants are never substituted where an exact count is available.
"""

import csv
import functools
import io
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass

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

# Most rows certified at a time (_certified_slabs), by one process; certify_family
# holds the certified rows besides.  ramified over the N=50 cubic box (1,030,301
# rows), gathered then, three runs per size in one process each (2-CPU Xeon):
# one slab of the whole box 0.88-1.02 s and 124 MB; slabs of 20,000 rows
# 1.10-1.60 s and 76-77 MB, 2^15 0.93-1.49 s and 76-77 MB, 2^16 0.72-0.91 s
# and 77 MB, 2^17 0.82-1.13 s and 80 MB, 2^18 0.81-1.14 s and 94 MB; the
# unslabbed certifier took 0.80-0.99 s and 113 MB.  Small slabs pay the
# kernels' fixed cost per prime more often and lose the residue census
# (batch.types_mod_p, p^n < rows) at more primes.
# A family of fewer than SLAB_ROWS rows per CPU is dealt into one slab per
# CPU, each drawn and certified in its own process, but no slab is cut
# below MIN_SLAB_ROWS rows.  A first _forked_map over two items costs 3.4 ms
# in a fresh process and a later one 2.1 ms (medians of 11, 2-CPU Xeon).
# Drawing and certifying m draws at N = 10^12 in two equal slabs on 2 CPUs,
# over one process, medians of 11 fresh processes: cubics 0.96x at 1,000
# draws (14 ms in one process), 0.77x at 2,000 and 0.66x at 4,000;
# quartics 1.49x at 300, 1.04x at 1,000 and 0.92x at 2,000; degree 8 0.66x
# at 300 (0.17 s).  So a slab pays for its process from ~2^9 cubic and
# ~2^10 quartic rows.  The floor was set when a first fork cost 11-16 ms,
# and now sits above both.
SLAB_ROWS = 2**16
MIN_SLAB_ROWS = 2**11


@dataclass(frozen=True, eq=False)
class CertifiedFamily:
    """The certified subfamily of a packed family, plus its status counts.

    coeffs is the (k, n) array of the certified rows in batch.pack format.
    statuses counts the whole family's rows by certification status,
    keyed by family.STATUSES in order.
    """

    coeffs: np.ndarray
    statuses: dict

    def __len__(self):
        return len(self.coeffs)

    @property
    def excluded(self):
        return sum(self.statuses.values()) - len(self)


def _certified_slabs(family, budget, reduce):
    """(status counts, reduce(rows, disc)) of each slab of a family, in slab
    order: rows are the slab's S_n-certified rows and disc their
    discriminants.  family is a packed (m, n) array or a family.FamilySpec,
    anything whose len is m and whose slices are packed arrays.  Each slab
    is sliced (a FamilySpec's slice draws it), certified and reduced in one
    process, so only what reduce returns is sent back.  A slab is SLAB_ROWS
    rows, or ceil(m / k) on k CPUs when that is fewer, but never fewer than
    MIN_SLAB_ROWS; _forked_map spreads the slabs over every CPU.
    Certification decides each row alone, so the slabs' rows are those of
    one array of the whole family, dtypes included.
    """
    m = len(family)
    slab_rows = min(SLAB_ROWS, max(-(-m // _cpus()), MIN_SLAB_ROWS))

    def certify_slab(start):
        slab = family[start:start + slab_rows]
        status, disc = family_mod.certify(slab, budget)
        keep = status == family_mod.STATUSES.index(family_mod.SN_CERTIFIED)
        counts = np.bincount(status, minlength=len(family_mod.STATUSES))
        return counts, reduce(slab[keep], disc[keep])

    # An empty family is certified once, which gives its arrays their shapes.
    return _forked_map(certify_slab, range(0, max(m, 1), slab_rows))


def certify_family(family, budget=family_mod.CERTIFIER_PRIME_BUDGET):
    """Certify a family, as _certified_slabs takes it, and keep its
    S_n-certified rows, written in slab order into one array."""
    m = len(family)
    coeffs = None
    kept = counts = 0
    for slab_counts, rows in _certified_slabs(family, budget, lambda rows, disc: rows):
        coeffs = _keep(coeffs, m, kept, rows)
        kept += len(rows)
        counts += slab_counts
    return CertifiedFamily(coeffs[:kept], dict(zip(family_mod.STATUSES, counts.tolist())))


def _certified_mean(family, budget, term):
    """(total / k, statuses) over the k certified rows of a family, where the
    int total sums term(rows, disc) over the slabs of _certified_slabs."""
    counts, total = map(sum, zip(*_certified_slabs(family, budget, term)))
    statuses = dict(zip(family_mod.STATUSES, counts.tolist()))
    _require_nonempty(statuses[family_mod.SN_CERTIFIED])
    return total / statuses[family_mod.SN_CERTIFIED], statuses


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
    process reads as it reaches them.  A worker that dies or raises (its
    traceback goes to stderr) raises SplitstatError here with its exit
    code, -N for signal N; every worker is killed and reaped once the map
    ends, is closed or fails.  With one CPU or one item nothing forks.
    """
    k = min(_cpus(), len(items))
    if k < 2:
        yield from map(fn, items)
        return
    workers = []
    try:
        for first in range(1, k):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker, which never returns into its caller's frames
                try:
                    _send_each(write, fn, items[first::k])
                    os._exit(0)
                finally:  # reached only when _send_each raises
                    traceback.print_exc()
                    os._exit(1)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        for i, item in enumerate(items):
            if i % k == 0:
                yield fn(item)
                continue
            pid, receive = workers[i % k - 1]
            try:
                result = pickle.load(receive)
            except (EOFError, pickle.UnpicklingError):
                workers.remove((pid, receive))  # reaped here, not below
                receive.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise SplitstatError("worker exited with code %d" % code) from None
            yield result
    finally:
        for pid, receive in workers:
            receive.close()
            os.kill(pid, signal.SIGKILL)  # it has sent its results or failed
            os.waitpid(pid, 0)


def _send_each(write, fn, items):
    """Pickle fn(item) for each item to the pipe's write end, in order."""
    # pickle.load reads protocol 5's array bytes straight into each array;
    # Connection.recv gathered them in a growing buffer first, which raised
    # cubic-box-ramified's peak RSS from 74.0 to 77.0 MB (2-CPU Xeon).
    with open(write, "wb") as send:
        for item in items:
            pickle.dump(fn(item), send, protocol=5)
            send.flush()


def _require_nonempty(certified):
    if certified == 0:
        raise EmptyFamilyError("no certified polynomials in family")


def normalizable_pi(x):
    """pi(x), refused below 30, too few primes for a normalized count; a
    caller may check it before anything is certified or counted."""
    pix = len(sieve_primes(x))
    if pix < 30:
        raise ValueError("pi(x) must be at least 30 for a meaningful normalization")
    return pix


def _type_counts(cf, r):
    """counts, where counts(x) lists pi_{f,r}(x) of every certified f in row
    order, as Python ints: _count_profile(cf, floor(x), code of r).

    Refuses an empty family, then a type r not of the family's degree.  A
    statistic makes its own checks before counts(x), so a refused one
    counts nothing."""
    _require_nonempty(len(cf))
    n = cf.coeffs.shape[1]
    if splittypes.validate_type(r) != n:
        raise ValueError("type degree %d does not match the degree %d" % (len(r), n))
    code = splittypes.enumerate_types(n).index(tuple(r))

    def counts(x):
        sieve_primes(x)  # refuses an x beyond the sieve before anything is counted
        return _count_profile(cf, math.floor(x), code).tolist()

    return counts


# ---------------------------------------------------------------------------
# Count profiles

@functools.lru_cache(maxsize=1)  # a report counts each (family, x, type) once
def _count_profile(cf, x, code):
    """Per-polynomial pi_{f,r}(x) of the type r of one code, from the rows alone.

    x is an integer and code indexes enumerate_types(n); the code
    len(enumerate_types(n)) counts the primes dividing disc(f).  Returns a
    read-only int64 array of one count per certified row, 8 bytes a row at
    every degree.  The rows are counted SLAB_ROWS at a time, and the primes
    <= x are dealt into k = min(CPUs, pi(x)) classes primes[c::k].  Each
    (slab, class) item is counted through _forked_map, so process c counts
    every row at its own primes and builds the cubic tables
    (batch._cubic_table) of those alone; at one CPU every slab is counted
    here at every prime.  The integer counts of each slab's classes are
    added up.  There is one count loop for every degree and dtype,
    batch.count_code, which types each row by batch.types_mod_p at each
    prime; cubics enter it as batch.cubic_count_matrix, the name perfbench
    counts batch.count_pairs on, which its self-test wants on cubic profiles
    alone.
    """
    primes = sieve_primes(x)
    k = min(_cpus(), len(primes))
    count = batch.cubic_count_matrix if cf.coeffs.shape[1] == 3 else batch.count_code
    items = [(start, c) for start in range(0, len(cf), SLAB_ROWS) for c in range(k)]
    counted = _forked_map(lambda item: count(
        cf.coeffs[item[0]:item[0] + SLAB_ROWS], primes[item[1]::k], code), items)
    column = np.zeros(len(cf), dtype=np.int64)
    for (start, _c), slab_counts in zip(items, counted):
        column[start:start + len(slab_counts)] += slab_counts
    column.flags.writeable = False
    return column


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
    Returns (results, sample): the report's results, a dict to which the
    CLI adds the family's description, and the tuple of the v(f) in row
    order.
    """
    counts = _type_counts(cf, r)
    pix = normalizable_pi(x)
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


def ramified_average(family, bound, budget=family_mod.CERTIFIER_PRIME_BUDGET):
    """(average, reference, statuses): the average number of primes p <= bound
    dividing disc(f) over the certified rows of a family, as _certified_slabs
    takes it, certified at the budget; reference sum 1/p.  Refuses bound < 2
    before anything is certified; each slab is counted where it is certified.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    primes = sieve_primes(bound)
    average, statuses = _certified_mean(family, budget, lambda rows, disc: sum(
        int(np.count_nonzero(disc % p == 0)) for p in primes))
    return average, math.fsum(1.0 / p for p in primes), statuses


def index_prime_average(family, bound, budget=family_mod.CERTIFIER_PRIME_BUDGET):
    """(average, reference, statuses): the average number of primes p <= bound
    dividing the index a_f, as ramified_average takes and refuses its arguments.

    Only primes with p^2 | disc(f) are submitted to the Dedekind test,
    since the index appears squared in the discriminant; the reference is
    the leading term sum of 1/p^2.  The rows as Python ints are held for
    one slab.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    primes = sieve_primes(bound)

    def non_maximal(rows, disc):
        return sum(not dedekind_is_p_maximal(row, p)
                   for p in primes for row in rows[disc % (p * p) == 0].tolist())

    average, statuses = _certified_mean(family, budget, non_maximal)
    return average, math.fsum(1.0 / (p * p) for p in primes), statuses


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


def fiber_probability(spec, targets, budget=family_mod.CERTIFIER_PRIME_BUDGET):
    """(share, reference, statuses): the share of the certified rows of the
    family of a family.FamilySpec, certified at the budget, in every fiber
    of targets, and fiber_reference(spec, targets), which checks the targets
    before anything is certified."""
    reference = fiber_reference(spec, targets)

    def hits(rows, disc):
        hit = np.ones(len(rows), dtype=bool)
        for p, row in targets:
            hit &= (rows % p == np.array(row)).all(axis=1)
        return int(np.count_nonzero(hit))

    share, statuses = _certified_mean(spec, budget, hits)
    return share, reference, statuses


def split_lower_bound_fraction(cf, x):
    """Fraction of certified f with at least delta*pi(x)/2 totally split primes."""
    n = cf.coeffs.shape[1]
    split_type = (n,) + (0,) * (n - 1)
    counts = _type_counts(cf, split_type)
    pix = normalizable_pi(x)
    floor_value = float(splittypes.delta(split_type)) * pix / 2.0
    return sum(1 for c in counts(x) if c >= floor_value) / len(cf)
