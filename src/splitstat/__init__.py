"""splitstat: exact splitting-type combinatorics for monic integer
polynomials and desk-scale statistics of their Frobenius cycle types."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    EmptyFamilyError,
    ReduciblePolynomialError,
    ResourceLimitError,
    SplitstatError,
)
from .primes import sieve_primes  # noqa: F401
