import math
import os
import random

import mpmath
import numpy as np
import pytest

from splitstat import batch, family as family_mod, stats
from splitstat.errors import EmptyFamilyError, ResourceLimitError
from splitstat.family import SN_CERTIFIED, STATUSES, FamilySpec, certify, generate
from splitstat.fppoly import splitting_type_mod_p
from splitstat.primes import sieve_primes
from splitstat.splittypes import class_count, delta, enumerate_types
from splitstat.stats import (
    certify_family,
    clt_report,
    exact_chebotarev_reference,
    family_centered_moment,
    family_chebotarev_mean,
    fiber_probability,
    index_prime_average,
    ks_distance,
    normal_cdf,
    ramified_average,
    split_lower_bound_fraction,
)
from splitstat.zpoly import discriminant

from conftest import assert_no_children


def prime_splitting_count(f, r, x):
    """pi_{f,r}(x) by the scalar oracle: the primes p <= x at which f has type r."""
    return sum(1 for p in sieve_primes(x) if splitting_type_mod_p(f, p) == tuple(r))


def indicator_mean(cf, r, p):
    """Share of the certified rows of type r mod p, by the kernels, and its
    exact reference class_count(n, r, p) / p^n."""
    n = cf.coeffs.shape[1]
    code = enumerate_types(n).index(tuple(r))
    hits = np.count_nonzero(batch.types_mod_p(cf.coeffs, p) == code)
    return hits / len(cf), class_count(n, tuple(r), p) / p**n


def test_splitting_indicator():
    f = (-1, -1, 0)
    assert splitting_type_mod_p(f, 2) == (0, 0, 1)
    g = (6, 4)
    assert splitting_type_mod_p(g, 2) is None  # X^2 mod 2: not squarefree, no type


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


def test_certify_family_counts_exclusions(monkeypatch):
    spec = FamilySpec(n=3, height_bound=5)
    coeffs = generate(spec)
    cf = certify_family(coeffs, budget=25)
    assert len(cf) + cf.excluded == len(coeffs)
    assert len(cf) > 0
    # The family keeps the certified rows, in stream order, and a slab's
    # reducer is handed their discriminants from certification.
    status, _disc = certify(coeffs, 25)
    kept = [
        tuple(row)
        for row, code in zip(coeffs.tolist(), status.tolist())
        if STATUSES[code] == SN_CERTIFIED
    ]
    assert cf.coeffs.shape == (len(cf), 3)
    assert [tuple(row) for row in cf.coeffs.tolist()] == kept
    assert _slab_discriminants(coeffs) == [discriminant(row) for row in kept]
    assert sum(cf.statuses.values()) == len(coeffs)
    assert cf.statuses[SN_CERTIFIED] == len(cf)
    none = certify_family(batch.pack([(-1, 0)]))
    assert none.coeffs.shape == (0, 2) and none.excluded == 1
    assert _slab_discriminants(batch.pack([(-1, 0)])) == []
    # With slabs of 7 rows, slab boundaries fall inside every family below.
    # certify_family over the family and over it as one packed array in one
    # process, and over the family with its slabs spread over 2 and 3
    # processes, gives what certify gives on that array: rows, dtypes,
    # order and status counts, and the reducers' discriminants.
    monkeypatch.setattr(stats, "SLAB_ROWS", 7)
    for family, whole in _slabbed_families():
        status, disc = certify(whole, 25)
        keep = status == STATUSES.index(SN_CERTIFIED)
        counts = dict(zip(STATUSES, np.bincount(status, minlength=len(STATUSES)).tolist()))
        for cpus, source in [(1, family), (1, whole), (2, family), (3, family)]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            cf = certify_family(source, budget=25)
            assert cf.coeffs.dtype == whole.dtype
            assert cf.coeffs.shape == (keep.sum(), whole.shape[1])
            assert cf.coeffs.tolist() == whole[keep].tolist()
            assert _slab_discriminants(source) == disc[keep].tolist()
            assert cf.statuses == counts
    assert_no_children()


def test_small_sampled_families_are_dealt_over_the_cpus(tmp_path, monkeypatch):
    # A family of fewer than SLAB_ROWS rows per CPU is drawn and certified
    # in one slab per CPU, none below MIN_SLAB_ROWS rows: at the floor it
    # stays in this process, one row above it spreads, and either way the
    # result is certify's on the whole array.  Near 2^62, draw 3295 of
    # seed 22 alone has a coefficient beyond int64, so slabs differ in the
    # dtype of their rows.  Every process records its draws in a file.
    floor = stats.MIN_SLAB_ROWS
    specs = [FamilySpec(n=3, height_bound=10**12, mode="sampled", sample_size=size, seed=3)
             for size in (floor, floor + 1)]
    specs.append(FamilySpec(n=3, height_bound=2**62 + 2**48, mode="sampled",
                            sample_size=4500, seed=22))
    wholes = [generate(spec) for spec in specs]
    assert wholes[2].dtype == object and generate(specs[2], 0, 3000).dtype == np.int64
    log = tmp_path / "draws.log"
    draw = family_mod.generate

    def recorded(spec, start=0, stop=None):
        with open(log, "a") as out:
            out.write("%d %d %d\n" % (os.getpid(), start, stop))
        return draw(spec, start, stop)

    monkeypatch.setattr(family_mod, "generate", recorded)
    for spec, whole in zip(specs, wholes):
        m = spec.size
        status, disc = certify(whole, 25)
        keep = status == STATUSES.index(SN_CERTIFIED)
        counts = dict(zip(STATUSES, np.bincount(status, minlength=len(STATUSES)).tolist()))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            cf = certify_family(spec, budget=25)
            assert cf.coeffs.dtype == whole.dtype
            assert cf.coeffs.tolist() == whole[keep].tolist()
            # The same slabs again, with their discriminants: their draws are checked below.
            log.unlink()
            assert _slab_discriminants(spec) == disc[keep].tolist()
            assert cf.statuses == counts
            by_process = {}
            for line in log.read_text().splitlines():
                pid, start, stop = map(int, line.split())
                by_process.setdefault(pid, []).append((start, stop))
            log.unlink()
            ranges = sorted(sum(by_process.values(), []))
            cuts = [start for start, _stop in ranges] + [m]
            assert ranges == list(zip(cuts, cuts[1:])) and cuts[0] == 0
            if cpus == 1 or m <= floor:
                assert by_process == {os.getpid(): [(0, m)]}
            else:
                assert len(by_process) == min(cpus, len(ranges)) > 1
                assert all(stop - start >= min(floor, m - start) for start, stop in ranges)
    assert_no_children()


def _slab_discriminants(family):
    """The discriminants that _certified_slabs hands the reducer of each
    slab of a family, with its certified rows, as Python ints in slab order."""
    slabs = stats._certified_slabs(family, 25, lambda rows, disc: disc.tolist())
    return [d for _counts, disc in slabs for d in disc]


class _PackedSlices:
    """A family of rows packed a slice at a time, so that its slices can
    differ in dtype from each other and from the whole family."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, rows):
        return batch.pack(self.rows[rows])


def _slabbed_families():
    """(family, the family as one packed array) pairs: boxes, samples below,
    at and beyond pack's 2^62 bound, families whose slabs differ in the
    dtype of their rows or discriminants, and the empty family."""
    specs = [FamilySpec(n=n, height_bound=h) for n, h in [(1, 3), (2, 4), (3, 3), (4, 1), (6, 1)]]
    specs += [FamilySpec(n=n, height_bound=h, mode="sampled", sample_size=40, seed=5)
              for n, h in [(3, 10**12), (3, 2**62), (3, 2**64), (5, 2**64)]]
    families = [(spec, generate(spec)) for spec in specs]
    box = generate(FamilySpec(n=3, height_bound=2)).tolist()
    for height in (10**12, 2**64):
        draws = generate(FamilySpec(n=3, height_bound=height, mode="sampled",
                                    sample_size=8)).tolist()
        # 134 rows: small discriminants, then large ones (and at 2^64 object
        # rows) from slab 17 on, and a last slab of X^3 - X - 1 alone.
        rows = box + draws + [[-1, -1, 0]]
        families.append((_PackedSlices(rows), batch.pack(rows)))
    empty = np.zeros((0, 3), dtype=np.int64)
    families.append((empty, empty))
    return families


def test_empty_family_error():
    cf = certify_family(batch.pack([(-1, 0)]))  # reducible
    with pytest.raises(EmptyFamilyError):
        family_chebotarev_mean(cf, (2, 0), 100)


def test_family_indicator_moments(cubic_box):
    single = certify_family(batch.pack([(-1, -1, 0)]))
    assert indicator_mean(single, (0, 0, 1), 2)[0] == 1
    mean, reference = indicator_mean(cubic_box, (1, 1, 0), 5)
    assert reference == pytest.approx(50 / 125)
    assert abs(mean - 0.4) <= 0.02
    assert indicator_mean(cubic_box, (3, 0, 0), 2) == (0, 0)


_TYPE_TAKERS = {
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
        mean, _ = indicator_mean(cf, r, 5)
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
        ref = 0 if k % 2 else math.prod(range(k - 1, 0, -2))  # (k - 1)!!
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
    shuffled = stats.CertifiedFamily(coeffs=cf.coeffs[::-1], statuses=cf.statuses)
    shuffled_doc, _sample = clt_report(shuffled, (0, 0, 1), 2000)
    assert shuffled_doc["ks_distance"] == pytest.approx(doc["ks_distance"])


def test_count_profile_cached_per_floor_x(monkeypatch):
    # At one CPU every count is made in this process, where calls are seen.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    spec = FamilySpec(n=3, height_bound=10**9, mode="sampled", sample_size=300, seed=4)
    cf = certify_family(generate(spec))
    assert cf.coeffs.dtype == np.int64
    calls = []
    count_matrix = batch.cubic_count_matrix

    def counted(coeffs, primes):
        calls.append(len(primes))
        return count_matrix(coeffs, primes)

    monkeypatch.setattr(batch, "cubic_count_matrix", counted)
    stats._count_profile.cache_clear()
    r = (0, 0, 1)
    clt_report(cf, r, 300, k_max=6)
    assert calls == [len(sieve_primes(300))]
    family_centered_moment(cf, r, 300.5, 2)  # same floor(x): no new count
    assert len(calls) == 1
    assert stats._count_profile.cache_info()[:2] == (7, 1)  # (hits, misses)
    # The cache holds the last (family, floor(x), type): one read-only int64 column.
    family_chebotarev_mean(cf, r, 100.9)
    family_chebotarev_mean(cf, (1, 1, 0), 100)
    assert calls == [len(sieve_primes(300))] + [len(sieve_primes(100))] * 2
    code = enumerate_types(3).index((1, 1, 0))
    profile = stats._count_profile(cf, 100, code)
    assert stats._count_profile.cache_info()[:2] == (8, 3)
    assert type(profile) is np.ndarray and profile.dtype == np.int64
    assert profile.shape == (len(cf),) and not profile.flags.writeable


# (spec, x, every how many rows to check against the oracle): boxes on the
# generic path, cubics on both sides of 2^62 and the oracle alone at n = 9.
_PROFILE_FAMILIES = [
    (FamilySpec(n=2, height_bound=20), 60, 97),
    (FamilySpec(n=4, height_bound=2), 50, 23),
    (FamilySpec(n=3, height_bound=10**12, mode="sampled", sample_size=40, seed=5), 60, 7),
    (FamilySpec(n=3, height_bound=10**30, mode="sampled", sample_size=40, seed=5), 60, 7),
    (FamilySpec(n=9, height_bound=10**3, mode="sampled", sample_size=12, seed=5), 30, 4),
]


@pytest.mark.parametrize("spec, x, step", _PROFILE_FAMILIES,
                         ids=["box2", "box4", "cubic", "cubic-object", "sample9"])
def test_count_profile_matches_prime_splitting_count(spec, x, step):
    cf = certify_family(spec)
    primes = sieve_primes(x)
    types = enumerate_types(spec.n)
    profile = [stats._count_profile(cf, x, code) for code in range(len(types) + 1)]
    for column in profile:
        assert column.dtype == np.int64 and column.shape == (len(cf),)
    for i in range(0, len(cf), step):
        f = tuple(cf.coeffs[i].tolist())
        for code, r in enumerate(types):
            assert profile[code][i] == prime_splitting_count(f, r, x)
    # Each row counts for one type at every prime but those dividing
    # disc(f), which the last code counts, so every row sums to pi(x).
    disc = family_mod._discriminants(cf.coeffs)
    ramified = sum((disc % p == 0).astype(np.int64) for p in primes)
    assert ramified.any()
    assert (sum(profile[:-1]) == len(primes) - ramified).all()
    assert np.array_equal(profile[-1], ramified)
    assert (sum(profile) == len(primes)).all()


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


def _profile_on(monkeypatch, cf, x, cpus):
    """_count_profile of cf at x on cpus CPUs for every code, stacked in code
    order, and the (rows, primes) of every _count_column call made in this
    process, for each code in turn.  Each column is counted afresh and is
    the only cached one, a read-only int64 column."""
    counted = []
    count_column = stats._count_column

    def recorded(coeffs, primes, code):
        counted.append((len(coeffs), primes))  # seen in this process only
        return count_column(coeffs, primes, code)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(stats, "_count_column", recorded)
    columns = []
    for code in range(len(enumerate_types(cf.coeffs.shape[1])) + 1):
        stats._count_profile.cache_clear()
        column = stats._count_profile(cf, x, code)
        assert_no_children()
        assert stats._count_profile(cf, x, code) is column
        assert stats._count_profile.cache_info()[1:4] == (1, 1, 1)  # (misses, maxsize, currsize)
        assert column.dtype == np.int64 and column.shape == (len(cf),)
        assert not column.flags.writeable
        columns.append(column)
    codes = len(columns)
    assert len(counted) % codes == 0 and counted == counted[:len(counted) // codes] * codes
    return np.stack(columns), counted[:len(counted) // codes]


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("n, height, size, x", _SHARDED_FAMILIES)
def test_count_profile_sharded_equals_in_process(monkeypatch, n, height, size, x, shards):
    # Process c counts every row at primes[c::shards]; this one takes c = 0.
    spec = FamilySpec(n=n, height_bound=height, mode="sampled", sample_size=size, seed=3)
    cf = certify_family(generate(spec))
    assert len(cf) and (cf.coeffs.dtype == object) == (height > 2**62)
    expected, counted = _profile_on(monkeypatch, cf, x, 1)
    assert counted == [(len(cf), sieve_primes(x))]
    profile, counted = _profile_on(monkeypatch, cf, x, shards)
    assert np.array_equal(profile, expected)
    assert counted == [(len(cf), sieve_primes(x)[0::shards])]


@pytest.mark.parametrize("n, height, size, x", [(3, 10**12, 300, 500), (8, 10**6, 40, 100)])
def test_forked_count_profile_is_one_read_only_column(monkeypatch, n, height, size, x):
    # On 2 CPUs a worker counts half the primes and sends back its counts of one type.
    spec = FamilySpec(n=n, height_bound=height, mode="sampled", sample_size=size, seed=3)
    cf = certify_family(generate(spec))
    code = enumerate_types(n).index((0,) * (n - 1) + (1,))
    columns = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        stats._count_profile.cache_clear()
        columns.append(stats._count_profile(cf, x, code))
        assert_no_children()
    one, forked = columns
    assert forked is not one and np.array_equal(forked, one) and forked.any()
    assert type(forked) is np.ndarray and forked.dtype == np.int64
    assert forked.shape == (len(cf),) and not forked.flags.writeable


def test_count_profile_slabs_and_empty_class(monkeypatch):
    spec = FamilySpec(n=3, height_bound=10**12, mode="sampled", sample_size=60, seed=3)
    cf = certify_family(generate(spec))
    expected = {x: _profile_on(monkeypatch, cf, x, 1)[0] for x in (200, 3)}
    # Slabs of 7 rows, the last one partial: this process counts each slab
    # at its own class of primes, and the slabs' counts go back in order.
    assert len(cf) % 7
    monkeypatch.setattr(stats, "SLAB_ROWS", 7)
    slabs = [7] * (len(cf) // 7) + [len(cf) % 7]
    profile, counted = _profile_on(monkeypatch, cf, 200, 2)
    assert np.array_equal(profile, expected[200])
    assert counted == [(rows, sieve_primes(200)[0::2]) for rows in slabs]
    # At one CPU every slab is counted here at every prime.
    profile, counted = _profile_on(monkeypatch, cf, 200, 1)
    assert np.array_equal(profile, expected[200])
    assert counted == [(rows, sieve_primes(200)) for rows in slabs]
    # Three CPUs, two primes: two classes, one here and one in a worker.
    monkeypatch.setattr(stats, "SLAB_ROWS", 2**16)
    profile, counted = _profile_on(monkeypatch, cf, 3, 3)
    assert np.array_equal(profile, expected[3])
    assert counted == [(len(cf), (2,))]


def test_clt_report_preconditions(monkeypatch):
    # Refused before anything is counted.
    monkeypatch.setattr(stats, "_count_column", lambda coeffs, primes, code: pytest.fail("counted"))
    stats._count_profile.cache_clear()
    cf = certify_family(batch.pack([(-1, -1, 0)]))
    with pytest.raises(ValueError):
        clt_report(cf, (0, 0, 1), 50)  # pi(x) < 30
    with pytest.raises(ValueError):
        clt_report(cf, (0, 0, 1), 500)  # family too small
    with pytest.raises(ResourceLimitError):
        family_chebotarev_mean(cf, (0, 0, 1), 10**8 + 0.5)  # floor(x) is within the sieve
    assert stats._count_profile.cache_info().currsize == 0


def test_ramified_average_examples():
    average, reference, statuses = ramified_average(batch.pack([(-5, 0)]), 10)
    assert average == 2 and statuses[SN_CERTIFIED] == 1
    assert reference == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)
    assert ramified_average(batch.pack([(-1, -1, 0)]), 10)[0] == 0
    # Certified at the budget given: one prime leaves X^3 - X - 1 Undetermined.
    with pytest.raises(EmptyFamilyError):
        ramified_average(batch.pack([(-1, -1, 0)]), 10, budget=1)


def test_index_prime_average_examples():
    average, reference, statuses = index_prime_average(batch.pack([(3, 0)]), 10)
    assert average == 1 and statuses[SN_CERTIFIED] == 1
    assert reference == pytest.approx(sum(1 / (p * p) for p in (2, 3, 5, 7)))
    assert index_prime_average(batch.pack([(-1, -1, 0)]), 100)[0] == 0


@pytest.mark.parametrize("statistic", [ramified_average, index_prime_average])
def test_averages_refuse_before_certifying(monkeypatch, statistic):
    # bound < 2 is refused before anything is certified, and a family with
    # no certified row raises EmptyFamilyError once it is certified.
    monkeypatch.setattr(family_mod, "certify", lambda coeffs, budget: pytest.fail("certified"))
    with pytest.raises(ValueError, match="bound must be at least 2"):
        statistic(batch.pack([(-5, 0)]), 1)
    monkeypatch.undo()
    with pytest.raises(EmptyFamilyError, match="no certified polynomials in family"):
        statistic(batch.pack([(-1, 0)]), 10)


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


def _numbers(value):
    """Every number in a statistic's result, through its dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [number for item in value for number in _numbers(item)]
    return [] if isinstance(value, str) else [value]


@pytest.mark.parametrize("height", [10**12, 10**30], ids=["int64", "object"])
def test_statistics_return_plain_numbers(height):
    # Python ints and floats, never numpy scalars, on rows of either dtype.
    spec = FamilySpec(n=3, height_bound=height, mode="sampled", sample_size=120, seed=2)
    cf = certify_family(spec)
    assert len(cf) >= 100 and (cf.coeffs.dtype == object) == (height > 2**62)
    r = (0, 0, 1)
    results = [
        exact_chebotarev_reference(3, r, 200),
        family_chebotarev_mean(cf, r, 200),
        family_centered_moment(cf, r, 200, 3),
        family_centered_moment(cf, r, 200, 2, center="exact"),
        clt_report(cf, r, 200),
        ramified_average(spec, 50),
        index_prime_average(spec, 50),
        fiber_probability(spec, [(2, (1, 1, 1))]),
        split_lower_bound_fraction(cf, 200),
    ]
    numbers = _numbers(results)
    assert len(numbers) > len(cf)  # the sample among them
    assert {type(number) for number in numbers} == {int, float}
