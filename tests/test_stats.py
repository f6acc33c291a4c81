import json
import math
import random

import mpmath
import pytest

from splitstat import batch, stats
from splitstat.errors import EmptyFamilyError, OutOfRangeError
from splitstat.family import SN_CERTIFIED, FamilySpec, certify_stream, generate
from splitstat.primes import prime_count, sieve_primes
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

TABLE = sieve_primes(1000)


def test_splitting_indicator():
    f = (-1, -1, 0)
    assert splitting_indicator(f, (0, 0, 1), 2) == 1
    assert splitting_indicator(f, (3, 0, 0), 2) == 0
    g = (6, 4)
    for r in enumerate_types(2):
        assert splitting_indicator(g, r, 2) == 0


def test_prime_splitting_count():
    f = (1, 0)  # X^2 + 1
    assert prime_splitting_count(f, (2, 0), 1.5, TABLE) == 0
    assert prime_splitting_count(f, (2, 0), 13, TABLE) == 2  # p in {5, 13}
    assert prime_splitting_count(f, (0, 1), 13, TABLE) == 3  # p in {3, 7, 11}
    with pytest.raises(OutOfRangeError):
        prime_splitting_count(f, (2, 0), 2000, TABLE)


def test_partition_identity():
    from splitstat.fppoly import splitting_type_mod_p

    rng = random.Random(31)
    x = 200
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        f = tuple(rng.randrange(-40, 41) for _ in range(n))
        total = sum(
            prime_splitting_count(f, r, x, TABLE) for r in enumerate_types(n)
        )
        nonsq = sum(
            1 for p in TABLE.primes if p <= x and splitting_type_mod_p(f, p) is None
        )
        assert total + nonsq == prime_count(x, TABLE)


def test_certify_family_counts_exclusions():
    spec = FamilySpec(n=3, height_bound=5)
    coeffs = generate(spec)
    cf = certify_family(coeffs, budget=25)
    assert len(cf) + cf.excluded == len(coeffs)
    assert len(cf) > 0
    # The family keeps the certified rows, in stream order, and their
    # discriminants from certification.
    kept = [
        tuple(row)
        for row, c in zip(coeffs.tolist(), certify_stream(coeffs, 25))
        if c.status == SN_CERTIFIED
    ]
    assert cf.coeffs.shape == (len(cf), 3)
    assert [tuple(row) for row in cf.coeffs.tolist()] == kept
    assert cf.disc == tuple(discriminant(row) for row in kept)
    none = certify_family(batch.pack([(-1, 0)]))
    assert none.coeffs.shape == (0, 2) and none.disc == () and none.excluded == 1


def test_empty_family_error():
    cf = certify_family(batch.pack([(-1, 0)]))  # reducible
    with pytest.raises(EmptyFamilyError):
        family_chebotarev_mean(cf, (2, 0), 100, TABLE)


def test_family_indicator_moments():
    single = certify_family(batch.pack([(-1, -1, 0)]))
    mean, variance, reference = family_indicator_moments(single, (0, 0, 1), 2)
    assert mean == 1 and variance == 0
    cf = certify_family(generate(FamilySpec(n=3, height_bound=50)))
    mean, variance, reference = family_indicator_moments(cf, (1, 1, 0), 5)
    assert reference == pytest.approx(50 / 125)
    assert abs(mean - 0.4) <= 0.02
    mean, _, reference = family_indicator_moments(cf, (3, 0, 0), 2)
    assert mean == 0 and reference == 0


def test_indicator_mean_matches_single_prime_chebotarev():
    cf = certify_family(generate(FamilySpec(n=3, height_bound=8)))
    for r in enumerate_types(3):
        mean, _, _ = family_indicator_moments(cf, r, 5)
        # x = 5 counts primes {2,3,5}; subtract the p=2 and p=3 contributions
        m5, _ = family_chebotarev_mean(cf, r, 5.5, TABLE)
        m3, _ = family_chebotarev_mean(cf, r, 4.9, TABLE)
        assert mean == pytest.approx(m5 - m3)


def test_chebotarev_single_polynomial():
    cf = certify_family(batch.pack([(1, 0)]))
    mean, reference = family_chebotarev_mean(cf, (2, 0), 13, TABLE)
    assert mean == 2
    assert reference == pytest.approx(exact_chebotarev_reference(2, (2, 0), 13, TABLE))
    mean, reference = family_chebotarev_mean(cf, (2, 0), 1.5, TABLE)
    assert mean == 0 and reference == 0


def test_centered_moment_k2_identity():
    cf = certify_family(generate(FamilySpec(n=3, height_bound=4)))
    r = (3, 0, 0)
    x = 200
    m2, _ = family_centered_moment(cf, r, x, 2, TABLE)
    counts = [
        prime_splitting_count(row, r, x, TABLE)
        for row in cf.coeffs.tolist()
    ]
    mean = sum(counts) / len(counts)
    variance = sum((c - mean) ** 2 for c in counts) / len(counts)
    center = float(delta(r)) * prime_count(x, TABLE)
    assert m2 == pytest.approx(variance + (mean - center) ** 2, abs=1e-9)


def test_centered_moment_center_options():
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    r = (0, 0, 1)
    m_a, _ = family_centered_moment(cf, r, 100, 1, TABLE)
    m_e, _ = family_centered_moment(cf, r, 100, 1, TABLE, center="exact")
    shift = float(delta(r)) * prime_count(100, TABLE) - exact_chebotarev_reference(
        3, r, 100, TABLE
    )
    assert m_e - m_a == pytest.approx(shift)
    with pytest.raises(ValueError):
        family_centered_moment(cf, r, 100, 1, TABLE, center="median")


def test_centered_moment_k_bounds():
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    with pytest.raises(ValueError):
        family_centered_moment(cf, (3, 0, 0), 100, 0, TABLE)


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
    table = sieve_primes(2000)
    rep1 = clt_report(cf, (0, 0, 1), 2000, table)
    rep2 = clt_report(cf, (0, 0, 1), 2000, table)
    assert rep1.to_json() == rep2.to_json()
    doc = json.loads(rep1.to_json())
    assert doc["family_size"] == len(cf)
    assert 0.0 <= doc["ks_distance"] <= 1.0
    assert rep1.sample_csv().startswith("index,normalized_count\n")
    assert len(rep1.clt_sample) == len(cf)
    # order invariance of the aggregate
    shuffled = stats.CertifiedFamily(
        coeffs=cf.coeffs[::-1], disc=cf.disc[::-1], excluded=cf.excluded
    )
    rep3 = clt_report(shuffled, (0, 0, 1), 2000, table)
    assert rep3.ks_distance == pytest.approx(rep1.ks_distance)


def test_clt_report_preconditions():
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    with pytest.raises(ValueError):
        clt_report(cf, (0, 0, 1), 50, TABLE)  # pi(x) < 30
    with pytest.raises(ValueError):
        clt_report(cf, (0, 0, 1), 500, TABLE)  # family too small


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
    table = sieve_primes(127)
    assert prime_splitting_count((1, 0), (2, 0), 127, table) == 14
    assert split_lower_bound_fraction(cf, 127, table) == 1.0


def test_split_lower_bound_fraction_precondition():
    cf = certify_family(batch.pack([(1, 0)]))
    with pytest.raises(ValueError):
        split_lower_bound_fraction(cf, 20, sieve_primes(20))
