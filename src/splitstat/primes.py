"""Prime sieving and the prime-counting function pi(x)."""

from bisect import bisect_right
from dataclasses import dataclass
from math import floor, isqrt

from .errors import OutOfRangeError, ResourceLimitError

# Hard guard on sieve allocations (bytes of the odd-only bit array).
MAX_SIEVE_LIMIT = 2_000_000_000

# Above this limit we sieve in fixed-size segments instead of one array.
SEGMENT_THRESHOLD = 10_000_000
SEGMENT_SIZE = 1_000_000


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly increasing."""

    limit: int
    primes: tuple

    def __len__(self):
        return len(self.primes)


def _simple_sieve(limit):
    """Plain Eratosthenes, returns list of primes <= limit."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, limit + 1, q)))
    return [i for i in range(2, limit + 1) if flags[i]]


def _segmented_sieve(limit):
    base = _simple_sieve(isqrt(limit))
    primes = list(base)
    lo = isqrt(limit) + 1
    while lo <= limit:
        hi = min(lo + SEGMENT_SIZE - 1, limit)
        flags = bytearray([1]) * (hi - lo + 1)
        for q in base:
            start = max(q * q, ((lo + q - 1) // q) * q)
            if start > hi:
                continue
            flags[start - lo :: q] = bytearray(len(range(start, hi + 1, q)))
        primes.extend(lo + i for i, ok in enumerate(flags) if ok)
        lo = hi + 1
    return primes


def sieve_primes(limit):
    """Return a PrimeTable holding exactly the primes <= limit."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            "sieve limit %d exceeds configured maximum %d" % (limit, MAX_SIEVE_LIMIT)
        )
    if limit > SEGMENT_THRESHOLD:
        primes = _segmented_sieve(limit)
    else:
        primes = _simple_sieve(limit)
    return PrimeTable(limit=limit, primes=tuple(primes))


def prime_count(x, table):
    """pi(x) for x <= table.limit."""
    if x > table.limit:
        raise OutOfRangeError("x=%r exceeds table limit %d" % (x, table.limit))
    if x < 2:
        return 0
    return bisect_right(table.primes, floor(x))
