import math

import pytest

from splitstat.errors import OutOfRangeError, ResourceLimitError
from splitstat.primes import prime_count, sieve_primes


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _trial_division_primes(limit):
    return [n for n in range(2, limit + 1) if _is_prime(n)]


def test_sieve_small_tables():
    assert sieve_primes(1).primes == ()
    assert sieve_primes(10).primes == (2, 3, 5, 7)
    assert len(sieve_primes(100)) == 25


def test_sieve_matches_trial_division():
    table = sieve_primes(10**4)
    assert list(table.primes) == _trial_division_primes(10**4)


def test_sieve_segmented_consistent():
    # Force the segmented path and compare against the plain sieve.
    import splitstat.primes as primes_mod

    limit = 2 * primes_mod.SEGMENT_THRESHOLD + 12345
    seg = primes_mod._segmented_sieve(limit)
    assert seg[:25] == _trial_division_primes(97)
    assert all(p <= limit for p in seg)
    # spot-check the tail by trial division
    assert all(_is_prime(p) for p in seg[-50:])
    assert not any(_is_prime(n) for n in range(seg[-1] + 1, limit + 1))


def test_sieve_rejects_negative_and_huge():
    with pytest.raises(ValueError):
        sieve_primes(-1)
    import splitstat.primes as primes_mod

    with pytest.raises(ResourceLimitError):
        sieve_primes(primes_mod.MAX_SIEVE_LIMIT + 1)


def test_prime_count_values():
    table = sieve_primes(100)
    assert prime_count(1, table) == 0
    assert prime_count(10, table) == 4
    assert prime_count(100, table) == 25
    assert prime_count(10.5, table) == 4


def test_prime_count_monotone_and_total():
    table = sieve_primes(200)
    values = [prime_count(x, table) for x in range(201)]
    assert values == sorted(values)
    assert prime_count(table.limit, table) == len(table)


def test_prime_count_out_of_range():
    table = sieve_primes(100)
    with pytest.raises(OutOfRangeError):
        prime_count(101, table)
