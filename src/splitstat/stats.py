"""Family-level statistics: counts, moments, CLT, prime averages, fibers.

Every statistic over the primes up to x takes x alone, any real x >= 0,
and sieves the primes <= floor(x) it needs; pi(x) is their number.
Every aggregate is a function of one CertifiedFamily, made by
certify_family, and reports how many polynomials were excluded; it
returns plain numbers, lists and dicts, which the CLI writes as they are.
The certified subfamily is its packed coefficient rows and the array of
their discriminants, both kept from certification: no statistic re-packs
a row or recomputes a discriminant.  A large count profile splits its
rows over forked workers, one per CPU, and stacks their integer counts,
so the result is the same as in one process.  Exact per-prime references
come from the splitting-type combinatorics; asymptotic constants are never
substituted where an exact count is available.
"""

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import batch, family as family_mod, fppoly, splittypes
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

# Count profiles of more (rows x primes) pairs than this split their rows
# over forked workers.  Time of two row blocks over one process (2-CPU
# Xeon), cubics: 0.97-1.9x at 6,200-201,600 pairs, 0.86-1.02x at 3.4*10^5
# to 3.7*10^6 and 0.64x at 1.2*10^7 (10^4 rows, x = 10^4); quartics: 0.96x
# at 50,400 and 0.59-0.79x at 1.7-5*10^5.  Splitting the primes instead was
# faster on few rows, but held 1.09 GB, not 0.68, on 3*10^6 rows.
SHARD_PAIRS = 10**6


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
    # Count profiles by floor(x), filled by _count_profile.
    _profiles: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.coeffs)

    @property
    def excluded(self):
        return sum(self.statuses.values()) - len(self)


def certify_family(coeffs, budget=family_mod.CERTIFIER_PRIME_BUDGET, description=""):
    """Certify a packed family and keep only its S_n-certified rows."""
    status, disc = family_mod.certify(coeffs, budget)
    keep = status == family_mod.STATUSES.index(family_mod.SN_CERTIFIED)
    counts = np.bincount(status, minlength=len(family_mod.STATUSES)).tolist()
    statuses = dict(zip(family_mod.STATUSES, counts))
    return CertifiedFamily(coeffs[keep], disc[keep], statuses, description)


def _require_nonempty(cf):
    if len(cf) == 0:
        raise EmptyFamilyError("no certified polynomials in family")


def _type_of_degree(r, n):
    """r as a tuple, once checked to be a splitting type of degree n."""
    if splittypes.validate_type(r) != n:
        raise ValueError("type degree %d does not match the degree %d" % (len(r), n))
    return tuple(r)


# ---------------------------------------------------------------------------
# Per-polynomial counting

def splitting_indicator(f, r, p):
    """1 iff f has splitting type r mod p; 0 otherwise (incl. non-squarefree)."""
    r = _type_of_degree(r, len(f))
    return 1 if fppoly.splitting_type_mod_p(f, p) == r else 0


def prime_splitting_count(f, r, x):
    """pi_{f,r}(x): number of primes p <= x at which f has type r."""
    r = _type_of_degree(r, len(f))
    return sum(1 for p in sieve_primes(x) if fppoly.splitting_type_mod_p(f, p) == r)


# ---------------------------------------------------------------------------
# Count profiles (cached per certified family)

def _count_profile(cf, x):
    """Per-polynomial pi_{f,r}(x) for every type r.

    Returns a dict mapping each splitting type to a list of per-polynomial
    counts.  Cached on the CertifiedFamily instance under floor(x), so the
    primes are sieved only on a miss.  Above SHARD_PAIRS (rows x primes),
    set above the crossover measured in its comment, the rows are split
    over every CPU the process may run on; the counts are the same.
    """
    key = math.floor(x)
    if key in cf._profiles:
        return cf._profiles[key]

    primes = sieve_primes(x)
    # Linux: it can fork and says which CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shards = min(cpus, len(cf))
    if shards > 1 and len(cf) * len(primes) > SHARD_PAIRS:
        matrix = _sharded_count_matrix(cf.coeffs, cf.disc, primes, shards)
    else:
        matrix = _count_matrix(cf.coeffs, cf.disc, primes)
    types = splittypes.enumerate_types(cf.coeffs.shape[1])
    counts = {r: matrix[:, code].tolist() for code, r in enumerate(types)}
    cf._profiles[key] = counts
    return counts


def _count_matrix(coeffs, disc, primes):
    """(rows, types + 1) counts of each type code; the last is never read."""
    n = coeffs.shape[1]
    if (n == 3 and primes and coeffs.dtype == np.int64
            and primes[-1] < batch.MAX_KERNEL_PRIME):
        return batch.cubic_count_matrix(coeffs, primes)
    matrix = np.zeros((len(coeffs), len(splittypes.enumerate_types(n)) + 1), dtype=np.int64)
    for p in primes:
        # Rows with p | disc(f) are not squarefree mod p.
        rows = np.flatnonzero(disc % p != 0)
        matrix[rows, batch.types_mod_p(coeffs[rows], p)] += 1
    return matrix


def _sharded_count_matrix(coeffs, disc, primes, shards):
    """_count_matrix of `shards` consecutive row blocks, stacked: block 0
    here, each other in a forked worker that shares the family's pages and
    sends its rows back.  Each process holds temporaries for its rows only.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    bounds = [len(coeffs) * i // shards for i in range(shards + 1)]
    workers = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_send_count_matrix, daemon=True,
                                     args=(send, coeffs[lo:hi], disc[lo:hi], primes))
            worker.start()
            send.close()
            workers.append((worker, receive))
        blocks = [_count_matrix(coeffs[:bounds[1]], disc[:bounds[1]], primes)]
        for worker, receive in workers:
            try:
                block = np.frombuffer(receive.recv_bytes(), dtype=np.int64)
            except (EOFError, OSError):
                worker.join()
                raise SplitstatError("count worker exited with code %s" % worker.exitcode) from None
            blocks.append(block.reshape(-1, blocks[0].shape[1]))
    finally:
        for worker, receive in workers:
            receive.close()
            worker.kill()  # it has sent its rows or failed
            worker.join()
    return np.concatenate(blocks)


def _send_count_matrix(send, coeffs, disc, primes):
    send.send_bytes(_count_matrix(coeffs, disc, primes))


# ---------------------------------------------------------------------------
# Family aggregates

def family_indicator_moments(cf, r, p):
    """Mean and variance of the type-r indicator at p over the certified family.

    The exact reference is class_count(n,r,p)/p^n; the reference variance
    is q(1-q) for that q.
    """
    _require_nonempty(cf)
    n = cf.coeffs.shape[1]
    r = _type_of_degree(r, n)
    code = splittypes.enumerate_types(n).index(r)
    hits = int(np.count_nonzero(batch.types_mod_p(cf.coeffs, p) == code))
    mean = hits / len(cf)
    variance = mean - mean * mean
    reference = splittypes.class_count(n, r, p) / p**n
    return mean, variance, reference


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
    _require_nonempty(cf)
    n = cf.coeffs.shape[1]
    r = _type_of_degree(r, n)
    values = _count_profile(cf, x)[r]
    mean = math.fsum(values) / len(values)
    return mean, exact_chebotarev_reference(n, r, x)


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
    _require_nonempty(cf)
    n = cf.coeffs.shape[1]
    r = _type_of_degree(r, n)
    values = _count_profile(cf, x)[r]
    pix = len(sieve_primes(x))
    if center == "asymptotic":
        center = float(splittypes.delta(r)) * pix
    else:
        center = exact_chebotarev_reference(n, r, x)
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
    _require_nonempty(cf)
    n = cf.coeffs.shape[1]
    r = _type_of_degree(r, n)
    pix = len(sieve_primes(x))
    if pix < 30:
        raise ValueError("pi(x) must be at least 30 for a meaningful normalization")
    if len(cf) < 100:
        raise ValueError("family must contain at least 100 certified polynomials")
    values = _count_profile(cf, x)[r]
    d = float(splittypes.delta(r))
    scale = math.sqrt((d - d * d) * pix)
    sample = tuple((c - d * pix) / scale for c in values)
    mean = math.fsum(values) / len(values)
    variance = math.fsum((c - mean) ** 2 for c in values) / len(values)
    moments = {str(k): list(family_centered_moment(cf, r, x, k))
               for k in range(1, k_max + 1)}
    results = {
        "description": cf.description,
        "n": n,
        "r": list(r),
        "x": float(x),
        "family_size": len(cf),
        "excluded": cf.excluded,
        "empirical_mean": mean,
        "empirical_variance": variance,
        "reference_mean": exact_chebotarev_reference(n, r, x),
        "reference_variance": (d - d * d) * pix,
        "moments": moments,
        "ks_distance": ks_distance(sample),
        "clt_sample_size": len(sample),
    }
    return results, sample


def ramified_average(cf, bound):
    """Average number of primes p <= bound dividing disc(f); ref sum 1/p."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    _require_nonempty(cf)
    primes = sieve_primes(bound)
    total = sum(np.count_nonzero(cf.disc % p == 0) for p in primes)
    reference = math.fsum(1.0 / p for p in primes)
    return total / len(cf), reference


def index_prime_average(cf, bound):
    """Average number of primes p <= bound dividing the index a_f.

    Only primes with p^2 | disc(f) are submitted to the Dedekind test,
    since the index appears squared in the discriminant; the reference is
    the leading term sum of 1/p^2.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    _require_nonempty(cf)
    primes = sieve_primes(bound)
    total = 0
    for p in primes:
        for row in cf.coeffs[cf.disc % (p * p) == 0].tolist():
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

    targets as fiber_reference takes them; it checks them.
    """
    _require_nonempty(cf)
    hit = np.ones(len(cf), dtype=bool)
    for p, row in targets:
        hit &= (cf.coeffs % p == np.array(row)).all(axis=1)
    return int(np.count_nonzero(hit)) / len(cf)


def split_lower_bound_fraction(cf, x):
    """Fraction of certified f with at least delta*pi(x)/2 totally split primes."""
    _require_nonempty(cf)
    pix = len(sieve_primes(x))
    if pix < 30:
        raise ValueError("pi(x) must be at least 30")
    n = cf.coeffs.shape[1]
    split_type = tuple([n] + [0] * (n - 1))
    counts = _count_profile(cf, x)
    floor_value = float(splittypes.delta(split_type)) * pix / 2.0
    values = counts[split_type]
    return sum(1 for c in values if c >= floor_value) / len(values)
