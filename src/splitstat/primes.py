"""Prime sieving: one sieve of Eratosthenes over [0, floor(x)].

sieve_primes(x) is the tuple of primes <= x for any real x in
[0, MAX_SIEVE_LIMIT], and pi(x) is its length.
"""

from functools import lru_cache
from itertools import compress
from math import floor, isqrt

from .errors import ResourceLimitError

# Largest x the sieve accepts.  The sieve holds one bytearray of x + 1 flags,
# then the tuple of primes, kept until the next x: at 10^8 it takes 5.7-6.4 s
# and 367 MB peak RSS, at 3*10^7 1.6 s and 116 MB, at 10^6 45 ms (CPython
# 3.11, 2-CPU Xeon).  A segmented sieve saved only the flags (279 MB at
# 10^8), since the ~5.8M prime ints dominate; the primes up to 2*10^9 alone
# would take several GB.  Statistics that far out are out of reach anyway: at
# primes above batch.MAX_KERNEL_PRIME every degree goes to the scalar oracle,
# which takes ~150 us per quartic near 2^20 and ~300 us near 2^31.  Below it
# the kernels take every degree at any height (an object-dtype family is
# reduced mod p first), except at p <= n from degree 4 on.
MAX_SIEVE_LIMIT = 10**8


def sieve_primes(x):
    """Return the tuple of primes <= floor(x), for any real x >= 0."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            "x=%r exceeds the sieve limit %d" % (x, MAX_SIEVE_LIMIT)
        )
    return _sieve(floor(x))


@lru_cache(maxsize=1)  # a report sieves each x once, however often it asks
def _sieve(limit):
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, limit + 1, q)))
    return tuple(compress(range(limit + 1), flags))
