"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line with the measured values at the stated tolerance."""

import math
import time
from itertools import permutations

import pytest

from splitstat import stats
from splitstat.family import FamilySpec, fiber_probability, generate
from splitstat.fppoly import FieldPolynomial, enumerate_class_counts
from splitstat.primes import prime_count, sieve_primes
from splitstat.splittypes import (
    class_count,
    delta,
    empirical_second_order,
    enumerate_types,
    moment_constant,
    paper_second_order,
    parity,
    splits_in_alternating,
)
from splitstat.zpoly import dedekind_is_p_maximal, is_perfect_square

SEED = 42
SAMPLE_SIZE = 10**4
HEIGHT = 10**12


def _report(log, number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = "acceptance %02d %-4s %s (%s)" % (number, status, name, detail)
    log.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table_1e5():
    return sieve_primes(10**5)


@pytest.fixture(scope="module")
def sampled_cubics(table_1e5):
    spec = FamilySpec(
        n=3, height_bound=HEIGHT, mode="sampled", sample_size=SAMPLE_SIZE, seed=SEED
    )
    return stats.certify_family(generate(spec), budget=25)


def test_01_exact_class_counts_match_census(acceptance_log):
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            census = enumerate_class_counts(p, n)
            for r in enumerate_types(n):
                assert class_count(n, r, p) == census.get(r, 0), (n, p, r)
                checked += 1
    elapsed = time.monotonic() - start
    _report(
        acceptance_log,
        1,
        "exact class counts equal exhaustive census",
        elapsed < 60,
        "%d (n,p,r) cells, %.1fs" % (checked, elapsed),
    )


def test_02_density_partition_of_unity(acceptance_log):
    ok = all(sum(delta(r) for r in enumerate_types(n)) == 1 for n in range(1, 13))
    _report(
        acceptance_log,
        2,
        "sum of class densities is exactly 1 for n <= 12",
        ok,
        "exact rationals",
    )


def test_03_second_order_coefficient(acceptance_log):
    cases = [
        ((0, 1), "-1/2"),
        ((1, 1, 0), "-1/2"),
        ((0, 0, 1), "0"),
    ]
    results = []
    ok = True
    for r, expected in cases:
        got = empirical_second_order(r, 101, 199)
        side = paper_second_order(r)
        ok = ok and str(got) == expected
        results.append("r=%s empirical=%s published=%s" % (r, got, side))
    _report(
        acceptance_log,
        3,
        "second-order count coefficients over [101,199]",
        ok,
        "; ".join(results),
    )


def test_04_congruence_fibers(acceptance_log):
    spec = FamilySpec(n=2, height_bound=200)
    g3 = FieldPolynomial.from_list([1, 0, 1], 3)
    one, ref_one = fiber_probability(spec, [(3, g3)])
    g5 = FieldPolynomial.from_list([2, 0, 1], 5)
    two, ref_two = fiber_probability(spec, [(3, g3), (5, g5)])
    ok = abs(one - ref_one) <= 3 / 200 and abs(two - ref_two) <= 10 / 200
    _report(
        acceptance_log,
        4,
        "fiber probabilities near uniform at N=200",
        ok,
        "single |%.5f-1/9|=%.5f <= %.5f; double |%.6f-1/225|=%.6f <= 0.05"
        % (one, abs(one - ref_one), 3 / 200, two, abs(two - ref_two)),
    )


def test_05_average_splitting_counts(acceptance_log, sampled_cubics, table_1e5):
    x = 10**4
    tolerance = 0.01 * prime_count(x, table_1e5)
    details = []
    ok = True
    for r in enumerate_types(3):
        mean, reference = stats.family_chebotarev_mean(sampled_cubics, r, x, table_1e5)
        gap = abs(mean - reference)
        ok = ok and gap <= tolerance
        details.append("r=%s gap=%.2f" % (r, gap))
    _report(
        acceptance_log,
        5,
        "family-average splitting counts at x=1e4",
        ok,
        "tolerance %.2f; %s" % (tolerance, "; ".join(details)),
    )


def test_06_centered_moments(acceptance_log, sampled_cubics, table_1e5):
    x = 10**4
    r = (3, 0, 0)
    pix = prime_count(x, table_1e5)
    # exact-reference centering: the asymptotic center delta*pi(x) carries a
    # deterministic O(log log x) offset that swamps the odd moments
    m2, ref2 = stats.family_centered_moment(
        sampled_cubics, r, x, 2, table_1e5, center="exact"
    )
    m4, ref4 = stats.family_centered_moment(
        sampled_cubics, r, x, 4, table_1e5, center="exact"
    )
    m3, _ = stats.family_centered_moment(
        sampled_cubics, r, x, 3, table_1e5, center="exact"
    )
    norm3 = abs(m3) / (float(moment_constant(2, r)) ** 1.5 * pix**1.5)
    ok2 = abs(m2 - ref2) <= 0.10 * ref2
    ok4 = abs(m4 - ref4) <= 0.20 * ref4
    ok3 = norm3 <= 0.1
    _report(
        acceptance_log,
        6,
        "centered moments k=2,3,4 at x=1e4",
        ok2 and ok4 and ok3,
        "k2 rel %.3f<=0.10; k4 rel %.3f<=0.20; k3 norm %.3f<=0.1"
        % (abs(m2 - ref2) / ref2, abs(m4 - ref4) / ref4, norm3),
    )


def test_07_normal_limit_ks(acceptance_log, sampled_cubics, table_1e5):
    x = 10**5
    details = []
    ok = True
    for r in ((3, 0, 0), (0, 0, 1)):
        report = stats.clt_report(sampled_cubics, r, x, table_1e5)
        ok = ok and report.ks_distance <= 0.05
        details.append("r=%s KS=%.4f" % (r, report.ks_distance))
    _report(
        acceptance_log,
        7,
        "normalized counts near Gaussian at x=1e5",
        ok,
        "; ".join(details),
    )


def _squarefree_core(n):
    sign = -1 if n < 0 else 1
    n = abs(n)
    core = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            core *= d
        d += 1
    return sign * core * n


def test_08_dedekind_vs_quadratic_field_rule(acceptance_log):
    checked = 0
    ok = True
    for a in range(-20, 21):
        for b in range(-20, 21):
            d = a * a - 4 * b
            if d == 0 or is_perfect_square(d):
                continue
            m = _squarefree_core(d)
            field_disc = m if m % 4 == 1 else 4 * m
            index = math.isqrt(d // field_disc)
            f = (b, a)
            for p in (2, 3, 5):
                ok = ok and dedekind_is_p_maximal(f, p) == (index % p != 0)
                checked += 1
    _report(
        acceptance_log,
        8,
        "index test matches quadratic-field rule",
        ok,
        "%d cases" % checked,
    )


@pytest.fixture(scope="module")
def exhaustive_cubics():
    spec = FamilySpec(n=3, height_bound=50)
    return stats.certify_family(generate(spec), budget=25)


def test_09_ramified_prime_average(acceptance_log, exhaustive_cubics):
    average, reference = stats.ramified_average(exhaustive_cubics, 7)
    ok = abs(average - reference) <= 0.15 * reference
    _report(
        acceptance_log,
        9,
        "average count of primes <= 7 dividing the discriminant",
        ok,
        "avg %.4f vs %.4f, rel %.3f <= 0.15"
        % (average, reference, abs(average - reference) / reference),
    )


def test_10_index_prime_average(acceptance_log):
    spec = FamilySpec(n=2, height_bound=100)
    family = stats.certify_family(generate(spec), budget=25)
    average, _ = stats.index_prime_average(family, 5)
    reference = 1 / 4 + 1 / 9
    ok = abs(average - reference) <= 0.25 * reference
    _report(
        acceptance_log,
        10,
        "average count of primes <= 5 dividing the index",
        ok,
        "avg %.4f vs %.4f, rel %.3f <= 0.25"
        % (average, reference, abs(average - reference) / reference),
    )


def _cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    r = [0] * n
    for start in range(n):
        if not seen[start]:
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            r[length - 1] += 1
    return tuple(r)


def _class_splits_oracle(r):
    n = len(r)
    rep = next(s for s in permutations(range(n)) if _cycle_type(s) == tuple(r))
    inv = [0] * n
    for i, v in enumerate(rep):
        inv[v] = i
    for sigma in permutations(range(n)):
        sign = sum(i * m for i, m in enumerate(_cycle_type(sigma))) % 2
        if sign == 0:
            continue
        sig_inv = [0] * n
        for i, v in enumerate(sigma):
            sig_inv[v] = i
        if tuple(sigma[rep[sig_inv[i]]] for i in range(n)) == rep:
            return False
    return True


def test_11_alternating_class_splitting(acceptance_log):
    checked = 0
    ok = True
    for n in range(2, 7):
        for r in enumerate_types(n):
            if parity(r) != "even":
                continue
            ok = ok and splits_in_alternating(r) == _class_splits_oracle(r)
            checked += 1
    _report(
        acceptance_log, 11, "alternating-group class splitting vs brute force", ok, "%d classes" % checked)


def test_12_split_prime_floor(acceptance_log, sampled_cubics, table_1e5):
    fraction = stats.split_lower_bound_fraction(sampled_cubics, 10**5, table_1e5)
    _report(
        acceptance_log,
        12,
        "fraction with at least pi(x)/12 totally split primes",
        fraction >= 0.99,
        "fraction %.4f >= 0.99" % fraction,
    )
