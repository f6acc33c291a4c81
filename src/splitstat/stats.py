"""Family-level statistics: indicators, counting functions, moments, CLT.

Every aggregate runs over the certified subfamily only and reports how
many polynomials were excluded.  The certified subfamily is its packed
coefficient rows and their discriminants, both kept from certification,
so no statistic re-packs a row or recomputes a discriminant.  Exact
per-prime references come from the splitting-type combinatorics;
asymptotic constants are never substituted where an exact count is
available.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import batch, family as family_mod, fppoly, splittypes
from .errors import EmptyFamilyError, OutOfRangeError
from .primes import prime_count, sieve_primes
from .zpoly import dedekind_is_p_maximal

DEFAULT_K_MAX = 6


@dataclass(frozen=True, eq=False)
class CertifiedFamily:
    """The certified subfamily of a packed family, plus exclusion count.

    coeffs is the (k, n) array of the certified rows in batch.pack format
    and disc their discriminants, in the same order.
    """

    coeffs: np.ndarray
    disc: tuple
    excluded: int
    description: str = ""
    # Count profiles by (x, table limit), filled by _count_profile.
    _profiles: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.coeffs)


def certify_family(coeffs, budget=family_mod.CERTIFIER_PRIME_BUDGET, description=""):
    """Certify a packed family and keep only its S_n-certified rows."""
    rows, disc, excluded = family_mod.certified_rows(coeffs, budget)
    return CertifiedFamily(rows, disc, excluded, description)


def _require_nonempty(cf):
    if len(cf) == 0:
        raise EmptyFamilyError("no certified polynomials in family")


# ---------------------------------------------------------------------------
# Per-polynomial counting

def splitting_indicator(f, r, p):
    """1 iff f has splitting type r mod p; 0 otherwise (incl. non-squarefree)."""
    splittypes.validate_type(r)
    return 1 if fppoly.splitting_type_mod_p(f, p) == tuple(r) else 0


def prime_splitting_count(f, r, x, table):
    """pi_{f,r}(x): number of primes p <= x at which f has type r."""
    splittypes.validate_type(r)
    if x > table.limit:
        raise OutOfRangeError("x exceeds prime table limit")
    r = tuple(r)
    count = 0
    for p in table.primes:
        if p > x:
            break
        if fppoly.splitting_type_mod_p(f, p) == r:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Count profiles (cached per certified family)

def _count_profile(cf, x, table):
    """Per-polynomial pi_{f,r}(x) for every type r.

    Returns a dict mapping each splitting type to a list of per-polynomial
    counts.  Cached on the CertifiedFamily instance.
    """
    if x > table.limit:
        raise OutOfRangeError("x exceeds prime table limit")
    key = (float(x), table.limit)
    if key in cf._profiles:
        return cf._profiles[key]

    primes = [p for p in table.primes if p <= x]
    coeffs = cf.coeffs
    n = coeffs.shape[1]
    types = splittypes.enumerate_types(n)
    if (n == 3 and primes and coeffs.dtype == np.int64
            and primes[-1] < batch.MAX_KERNEL_PRIME):
        matrix = batch.cubic_count_matrix(coeffs, primes)
    else:
        matrix = np.zeros((len(coeffs), len(types) + 1), dtype=np.int64)
        rows = np.arange(len(coeffs))
        for p in primes:
            matrix[rows, batch.types_mod_p(coeffs, p)] += 1
    counts = {r: matrix[:, code].tolist() for code, r in enumerate(types)}
    cf._profiles[key] = counts
    return counts


# ---------------------------------------------------------------------------
# Family aggregates

def family_indicator_moments(cf, r, p):
    """Mean and variance of the type-r indicator at p over the certified family.

    The exact reference is class_count(n,r,p)/p^n; the reference variance
    is q(1-q) for that q.
    """
    _require_nonempty(cf)
    n = splittypes.validate_type(r)
    if cf.coeffs.shape[1] != n:
        raise ValueError("type degree %d does not match the family degree" % n)
    code = splittypes.enumerate_types(n).index(tuple(r))
    hits = int(np.count_nonzero(batch.types_mod_p(cf.coeffs, p) == code))
    mean = hits / len(cf)
    variance = mean - mean * mean
    reference = splittypes.class_count(n, tuple(r), p) / p**n
    return mean, variance, reference


def exact_chebotarev_reference(n, r, x, table):
    """Sum over p <= x of class_count(n,r,p)/p^n, in ascending prime order."""
    total = 0.0
    for p in table.primes:
        if p > x:
            break
        total += splittypes.class_count(n, tuple(r), p) / p**n
    return total


def family_chebotarev_mean(cf, r, x, table):
    """Empirical mean of pi_{f,r}(x) and its exact finite-p reference."""
    _require_nonempty(cf)
    n = splittypes.validate_type(r)
    counts = _count_profile(cf, x, table)
    values = counts[tuple(r)]
    mean = math.fsum(values) / len(values)
    return mean, exact_chebotarev_reference(n, r, x, table)


def family_centered_moment(cf, r, x, k, table, center="asymptotic"):
    """Empirical k-th moment of the centered count pi_{f,r}(x), with reference.

    center selects the subtracted term: "asymptotic" uses delta(r) pi(x);
    "exact" uses the finite-p mean sum of class_count/p^n, which removes a
    deterministic O(log log x) bias that dominates the odd moments.
    Reference is C_{k,r} pi(x)^{k/2} for even k and 0 for odd k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if center not in ("asymptotic", "exact"):
        raise ValueError("center must be 'asymptotic' or 'exact'")
    _require_nonempty(cf)
    n = splittypes.validate_type(r)
    counts = _count_profile(cf, x, table)
    values = counts[tuple(r)]
    if center == "asymptotic":
        center = float(splittypes.delta(r)) * prime_count(x, table)
    else:
        center = exact_chebotarev_reference(n, tuple(r), x, table)
    moment = math.fsum((c - center) ** k for c in values) / len(values)
    if k % 2 == 0:
        reference = float(splittypes.moment_constant(k, r)) * prime_count(
            x, table
        ) ** (k / 2)
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


@dataclass(frozen=True)
class StatReport:
    """Aggregated family statistics for one splitting type."""

    description: str
    n: int
    r: tuple
    x: float
    family_size: int
    excluded: int
    empirical_mean: float
    empirical_variance: float
    reference_mean: float
    reference_variance: float
    moments: dict = field(hash=False)
    clt_sample: tuple = ()
    ks_distance: float = 0.0

    def to_json_dict(self):
        return {
            "description": self.description,
            "n": self.n,
            "r": list(self.r),
            "x": self.x,
            "family_size": self.family_size,
            "excluded": self.excluded,
            "empirical_mean": self.empirical_mean,
            "empirical_variance": self.empirical_variance,
            "reference_mean": self.reference_mean,
            "reference_variance": self.reference_variance,
            "moments": {str(k): list(v) for k, v in sorted(self.moments.items())},
            "ks_distance": self.ks_distance,
            "clt_sample_size": len(self.clt_sample),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

    def sample_csv(self):
        """CSV of the CLT sample: one normalized value per row."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "normalized_count"])
        for i, v in enumerate(self.clt_sample):
            writer.writerow([i, repr(v)])
        return buf.getvalue()


def clt_report(cf, r, x, table, k_max=DEFAULT_K_MAX):
    """Normalized splitting counts for every certified f, with KS distance.

    v(f) = (pi_{f,r}(x) - delta pi(x)) / sqrt((delta - delta^2) pi(x)).
    """
    _require_nonempty(cf)
    n = splittypes.validate_type(r)
    pix = prime_count(x, table)
    if pix < 30:
        raise ValueError("pi(x) must be at least 30 for a meaningful normalization")
    if len(cf) < 100:
        raise ValueError("family must contain at least 100 certified polynomials")
    counts = _count_profile(cf, x, table)
    values = counts[tuple(r)]
    d = float(splittypes.delta(r))
    scale = math.sqrt((d - d * d) * pix)
    sample = tuple((c - d * pix) / scale for c in values)
    mean = math.fsum(values) / len(values)
    variance = math.fsum((c - mean) ** 2 for c in values) / len(values)
    moments = {}
    for k in range(1, k_max + 1):
        moments[k] = family_centered_moment(cf, r, x, k, table)
    return StatReport(
        description=cf.description,
        n=n,
        r=tuple(r),
        x=float(x),
        family_size=len(cf),
        excluded=cf.excluded,
        empirical_mean=mean,
        empirical_variance=variance,
        reference_mean=exact_chebotarev_reference(n, r, x, table),
        reference_variance=(d - d * d) * pix,
        moments=moments,
        clt_sample=sample,
        ks_distance=ks_distance(sample),
    )


def ramified_average(cf, bound):
    """Average number of primes p <= bound dividing disc(f); ref sum 1/p."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    _require_nonempty(cf)
    primes = sieve_primes(bound).primes
    total = sum(1 for d in cf.disc for p in primes if d % p == 0)
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
    primes = sieve_primes(bound).primes
    total = 0
    for row, d in zip(cf.coeffs, cf.disc):
        for p in primes:
            if d % (p * p) == 0 and not dedekind_is_p_maximal(row.tolist(), p):
                total += 1
    reference = math.fsum(1.0 / (p * p) for p in primes)
    return total / len(cf), reference


def split_lower_bound_fraction(cf, x, table):
    """Fraction of certified f with at least delta*pi(x)/2 totally split primes."""
    _require_nonempty(cf)
    pix = prime_count(x, table)
    if pix < 30:
        raise ValueError("pi(x) must be at least 30")
    n = cf.coeffs.shape[1]
    split_type = tuple([n] + [0] * (n - 1))
    counts = _count_profile(cf, x, table)
    floor_value = float(splittypes.delta(split_type)) * pix / 2.0
    values = counts[split_type]
    return sum(1 for c in values if c >= floor_value) / len(values)
