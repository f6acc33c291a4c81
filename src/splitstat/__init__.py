"""splitstat: exact splitting-type combinatorics for monic integer
polynomials and desk-scale statistics of their Frobenius cycle types."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    EmptyFamilyError,
    OutOfRangeError,
    ReduciblePolynomialError,
    RegimeError,
    ResourceLimitError,
    SplitstatError,
)
from .fppoly import FieldPolynomial  # noqa: F401
from .primes import PrimeTable, sieve_primes  # noqa: F401
from .zpoly import IntPolynomial  # noqa: F401
