import math

import pytest

from splitstat.errors import ResourceLimitError
from splitstat.primes import MAX_SIEVE_LIMIT, sieve_primes


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _trial_division_primes(limit):
    return [n for n in range(2, limit + 1) if _is_prime(n)]


def test_sieve_small_tables():
    assert sieve_primes(1) == ()
    assert sieve_primes(10) == (2, 3, 5, 7)
    assert len(sieve_primes(100)) == 25


def test_sieve_matches_trial_division():
    assert list(sieve_primes(10**4)) == _trial_division_primes(10**4)


def test_sieve_head_and_tail_at_large_limit():
    limit = 20_012_345
    primes = sieve_primes(limit)
    assert primes[:25] == tuple(_trial_division_primes(97))
    assert all(p <= limit for p in primes)
    # spot-check the tail by trial division
    assert all(_is_prime(p) for p in primes[-50:])
    assert not any(_is_prime(n) for n in range(primes[-1] + 1, limit + 1))


def test_sieve_rejects_negative_and_huge():
    with pytest.raises(ValueError):
        sieve_primes(-1)
    with pytest.raises(ResourceLimitError):
        sieve_primes(MAX_SIEVE_LIMIT + 1)


def test_pi_values():
    assert len(sieve_primes(1)) == 0
    assert len(sieve_primes(10)) == 4
    assert len(sieve_primes(100)) == 25
    assert len(sieve_primes(10.5)) == 4
    assert sieve_primes(10.5) == sieve_primes(10)


def test_pi_monotone_and_total():
    values = [len(sieve_primes(x)) for x in range(201)]
    assert values == sorted(values)
    assert values[-1] == len(_trial_division_primes(200))
