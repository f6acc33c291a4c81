import math
import multiprocessing
import os
import random

import mpmath
import numpy as np
import pytest

from splitstat import batch, fppoly, stats
from splitstat.errors import EmptyFamilyError
from splitstat.family import SN_CERTIFIED, STATUSES, FamilySpec, certify, generate
from splitstat.primes import sieve_primes
from splitstat.splittypes import delta, enumerate_types, gaussian_moment
from splitstat.stats import (
    certify_family,
    clt_report,
    exact_chebotarev_reference,
    family_centered_moment,
    family_chebotarev_mean,
    family_indicator_moments,
    index_prime_average,
    ks_distance,
    normal_cdf,
    prime_splitting_count,
    ramified_average,
    split_lower_bound_fraction,
    splitting_indicator,
)
from splitstat.zpoly import discriminant


def test_splitting_indicator():
    f = (-1, -1, 0)
    assert splitting_indicator(f, (0, 0, 1), 2) == 1
    assert splitting_indicator(f, (3, 0, 0), 2) == 0
    g = (6, 4)
    for r in enumerate_types(2):
        assert splitting_indicator(g, r, 2) == 0


def test_prime_splitting_count():
    f = (1, 0)  # X^2 + 1
    assert prime_splitting_count(f, (2, 0), 1.5) == 0
    assert prime_splitting_count(f, (2, 0), 13) == 2  # p in {5, 13}
    assert prime_splitting_count(f, (0, 1), 13) == 3  # p in {3, 7, 11}
    with pytest.raises(ValueError):
        prime_splitting_count(f, (2, 0), -1)


def test_partition_identity():
    from splitstat.fppoly import splitting_type_mod_p

    rng = random.Random(31)
    x = 200
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        f = tuple(rng.randrange(-40, 41) for _ in range(n))
        total = sum(prime_splitting_count(f, r, x) for r in enumerate_types(n))
        nonsq = sum(1 for p in sieve_primes(x) if splitting_type_mod_p(f, p) is None)
        assert total + nonsq == len(sieve_primes(x))


def test_certify_family_counts_exclusions():
    spec = FamilySpec(n=3, height_bound=5)
    coeffs = generate(spec)
    cf = certify_family(coeffs, budget=25)
    assert len(cf) + cf.excluded == len(coeffs)
    assert len(cf) > 0
    # The family keeps the certified rows, in stream order, and their
    # discriminants from certification.
    status, _disc = certify(coeffs, 25)
    kept = [
        tuple(row)
        for row, code in zip(coeffs.tolist(), status.tolist())
        if STATUSES[code] == SN_CERTIFIED
    ]
    assert cf.coeffs.shape == (len(cf), 3)
    assert [tuple(row) for row in cf.coeffs.tolist()] == kept
    assert cf.disc.tolist() == [discriminant(row) for row in kept]
    assert sum(cf.statuses.values()) == len(coeffs)
    assert cf.statuses[SN_CERTIFIED] == len(cf)
    none = certify_family(batch.pack([(-1, 0)]))
    assert none.coeffs.shape == (0, 2) and none.disc.size == 0 and none.excluded == 1


def test_empty_family_error():
    cf = certify_family(batch.pack([(-1, 0)]))  # reducible
    with pytest.raises(EmptyFamilyError):
        family_chebotarev_mean(cf, (2, 0), 100)


def test_family_indicator_moments(cubic_box):
    single = certify_family(batch.pack([(-1, -1, 0)]))
    mean, variance, reference = family_indicator_moments(single, (0, 0, 1), 2)
    assert mean == 1 and variance == 0
    cf = cubic_box
    mean, variance, reference = family_indicator_moments(cf, (1, 1, 0), 5)
    assert reference == pytest.approx(50 / 125)
    assert abs(mean - 0.4) <= 0.02
    mean, _, reference = family_indicator_moments(cf, (3, 0, 0), 2)
    assert mean == 0 and reference == 0


_TYPE_TAKERS = {
    "splitting_indicator": lambda cf, r: splitting_indicator(cf.coeffs[0].tolist(), r, 5),
    "prime_splitting_count": lambda cf, r: prime_splitting_count(cf.coeffs[0].tolist(), r, 127),
    "family_indicator_moments": lambda cf, r: family_indicator_moments(cf, r, 5),
    "family_chebotarev_mean": lambda cf, r: family_chebotarev_mean(cf, r, 127),
    "family_centered_moment": lambda cf, r: family_centered_moment(cf, r, 127, 2),
    "clt_report": lambda cf, r: clt_report(cf, r, 127),
}


@pytest.mark.parametrize("name", sorted(_TYPE_TAKERS))
def test_type_of_another_degree_refused(name):
    # Well-formed types of degree 2 and 4 on cubics: a ValueError, not a
    # silent 0 or a KeyError.  pi(127) = 31 and 216 certified rows pass
    # clt_report's own checks.
    cf = certify_family(generate(FamilySpec(n=3, height_bound=3)))
    assert len(cf) == 216
    for r in [(0, 1), (0, 0, 0, 1)]:
        with pytest.raises(ValueError, match="does not match"):
            _TYPE_TAKERS[name](cf, r)


def test_indicator_mean_matches_single_prime_chebotarev():
    cf = certify_family(generate(FamilySpec(n=3, height_bound=8)))
    for r in enumerate_types(3):
        mean, _, _ = family_indicator_moments(cf, r, 5)
        # x = 5 counts primes {2,3,5}; subtract the p=2 and p=3 contributions
        m5, _ = family_chebotarev_mean(cf, r, 5.5)
        m3, _ = family_chebotarev_mean(cf, r, 4.9)
        assert mean == pytest.approx(m5 - m3)


def test_chebotarev_single_polynomial():
    cf = certify_family(batch.pack([(1, 0)]))
    mean, reference = family_chebotarev_mean(cf, (2, 0), 13)
    assert mean == 2
    assert reference == pytest.approx(exact_chebotarev_reference(2, (2, 0), 13))
    mean, reference = family_chebotarev_mean(cf, (2, 0), 1.5)
    assert mean == 0 and reference == 0


def test_centered_moment_k2_identity():
    cf = certify_family(generate(FamilySpec(n=3, height_bound=4)))
    r = (3, 0, 0)
    x = 200
    m2, _ = family_centered_moment(cf, r, x, 2)
    counts = [prime_splitting_count(row, r, x) for row in cf.coeffs.tolist()]
    mean = sum(counts) / len(counts)
    variance = sum((c - mean) ** 2 for c in counts) / len(counts)
    center = float(delta(r)) * len(sieve_primes(x))
    assert m2 == pytest.approx(variance + (mean - center) ** 2, abs=1e-9)


def test_centered_moment_center_options():
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    r = (0, 0, 1)
    m_a, _ = family_centered_moment(cf, r, 100, 1)
    m_e, _ = family_centered_moment(cf, r, 100, 1, center="exact")
    shift = float(delta(r)) * len(sieve_primes(100)) - exact_chebotarev_reference(
        3, r, 100
    )
    assert m_e - m_a == pytest.approx(shift)
    with pytest.raises(ValueError):
        family_centered_moment(cf, r, 100, 1, center="median")


def test_centered_moment_k_bounds():
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    with pytest.raises(ValueError):
        family_centered_moment(cf, (3, 0, 0), 100, 0)
    assert all(map(math.isfinite, family_centered_moment(cf, (3, 0, 0), 100, stats.MAX_MOMENT)))
    with pytest.raises(ValueError):
        family_centered_moment(cf, (3, 0, 0), 100, stats.MAX_MOMENT + 1)


def test_normal_cdf():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-10)
    assert normal_cdf(-8.0) < 1e-14
    for b in (-3.0, -0.5, 0.3, 2.2):
        assert normal_cdf(b) == pytest.approx(float(mpmath.ncdf(b)), abs=1e-12)


def test_ks_distance_degenerate():
    sample = [0.0] * 100
    assert ks_distance(sample) == pytest.approx(0.5)
    sample = [1.0] * 10
    expected = max(normal_cdf(1.0), 1 - normal_cdf(1.0))
    assert ks_distance(sample) == pytest.approx(expected)


def test_ks_distance_gaussian_pipeline():
    # synthetic normal sample validates moments and KS independent of polynomials
    rng = random.Random(99)
    sample = [rng.gauss(0, 1) for _ in range(10**5)]
    assert ks_distance(sample) < 0.01
    for k in range(1, 5):
        emp = sum(v**k for v in sample) / len(sample)
        ref = float(gaussian_moment(k))
        assert abs(emp - ref) <= 0.05 * max(1.0, abs(ref))


def test_clt_report_structure_and_determinism():
    spec = FamilySpec(n=3, height_bound=10**9, mode="sampled", sample_size=300, seed=4)
    cf = certify_family(generate(spec))
    doc, sample = clt_report(cf, (0, 0, 1), 2000)
    assert clt_report(cf, (0, 0, 1), 2000) == (doc, sample)
    assert doc["family_size"] == len(cf) == doc["clt_sample_size"]
    assert 0.0 <= doc["ks_distance"] <= 1.0
    assert stats.sample_csv(sample).startswith("index,normalized_count\n")
    assert len(sample) == len(cf)
    # order invariance of the aggregate
    shuffled = stats.CertifiedFamily(
        coeffs=cf.coeffs[::-1], disc=cf.disc[::-1], statuses=cf.statuses
    )
    shuffled_doc, _sample = clt_report(shuffled, (0, 0, 1), 2000)
    assert shuffled_doc["ks_distance"] == pytest.approx(doc["ks_distance"])


def test_count_profile_cached_per_floor_x(monkeypatch):
    spec = FamilySpec(n=3, height_bound=10**9, mode="sampled", sample_size=300, seed=4)
    cf = certify_family(generate(spec))
    assert cf.coeffs.dtype == np.int64
    calls = []
    count_matrix = batch.cubic_count_matrix

    def counted(coeffs, primes):
        calls.append(len(primes))
        return count_matrix(coeffs, primes)

    monkeypatch.setattr(batch, "cubic_count_matrix", counted)
    r = (0, 0, 1)
    clt_report(cf, r, 300, k_max=6)
    assert calls == [len(sieve_primes(300))]
    family_centered_moment(cf, r, 300.5, 2)  # same floor(x): no new matrix
    assert len(calls) == 1


def test_count_profile_skips_ramified_rows(monkeypatch):
    # Degree 4 takes the generic path, and reaches the oracle only at p <= n:
    # there, too, it never sees a row with p | disc(f).
    cf = certify_family(generate(FamilySpec(n=4, height_bound=2)))
    x = 50
    primes = sieve_primes(x)
    assert any(d % p == 0 for d in cf.disc for p in primes)
    calls = []
    oracle = fppoly.splitting_type_mod_p

    def wrapped(f, p):
        calls.append((f, p))
        return oracle(f, p)

    monkeypatch.setattr(fppoly, "splitting_type_mod_p", wrapped)
    counts = stats._count_profile(cf, x)
    assert calls and all(discriminant(f) % p != 0 for f, p in calls)
    monkeypatch.undo()
    for i in range(0, len(cf), 25):
        f = tuple(cf.coeffs[i].tolist())
        for r, column in counts.items():
            assert column[i] == prime_splitting_count(f, r, x)


# (n, height, sample size, x): the kernels at n = 2, 3, 4, 5 (the oracle at
# p <= n from degree 4 on), object rows beyond 2^62, and the oracle alone at n = 9.
_SHARDED_FAMILIES = [
    (2, 10**6, 60, 200),
    (3, 10**12, 60, 200),
    (3, 2**70, 60, 200),
    (4, 10**6, 60, 200),
    (5, 10**6, 60, 200),
    (9, 10**3, 20, 40),
]


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("n, height, size, x", _SHARDED_FAMILIES)
def test_count_profile_sharded_equals_in_process(monkeypatch, n, height, size, x, shards):
    spec = FamilySpec(n=n, height_bound=height, mode="sampled", sample_size=size, seed=3)
    cf = certify_family(generate(spec))
    assert len(cf) and (cf.coeffs.dtype == object) == (height > 2**62)
    expected = stats._count_profile(cf, x)
    cf._profiles.clear()
    counted = []
    count_matrix = stats._count_matrix

    def recorded(coeffs, disc, primes):
        counted.append(len(coeffs))  # seen in this process only
        return count_matrix(coeffs, disc, primes)

    monkeypatch.setattr(stats, "SHARD_PAIRS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shards)), raising=False)
    monkeypatch.setattr(stats, "_count_matrix", recorded)
    assert stats._count_profile(cf, x) == expected
    assert counted == [len(cf) // shards]
    assert multiprocessing.active_children() == []


def test_clt_report_preconditions():
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    with pytest.raises(ValueError):
        clt_report(cf, (0, 0, 1), 50)  # pi(x) < 30
    with pytest.raises(ValueError):
        clt_report(cf, (0, 0, 1), 500)  # family too small


def test_ramified_average_examples():
    cf = certify_family(batch.pack([(-5, 0)]))
    average, reference = ramified_average(cf, 10)
    assert average == 2
    assert reference == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    assert ramified_average(cf, 10)[0] == 0


def test_index_prime_average_examples():
    cf = certify_family(batch.pack([(3, 0)]))
    average, reference = index_prime_average(cf, 10)
    assert average == 1
    assert reference == pytest.approx(sum(1 / (p * p) for p in (2, 3, 5, 7)))
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    assert index_prime_average(cf, 100)[0] == 0


def test_split_lower_bound_fraction_single():
    cf = certify_family(batch.pack([(1, 0)]))
    # pi(127)=31; X^2+1 splits at the 14 primes = 1 mod 4 up to 127,
    # well above the floor (1/2)(31)/2 = 7.75
    assert prime_splitting_count((1, 0), (2, 0), 127) == 14
    assert split_lower_bound_fraction(cf, 127) == 1.0


def test_split_lower_bound_fraction_precondition():
    cf = certify_family(batch.pack([(1, 0)]))
    with pytest.raises(ValueError):
        split_lower_bound_fraction(cf, 20)
