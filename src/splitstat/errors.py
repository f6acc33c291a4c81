"""Exception hierarchy shared by all splitstat modules."""


class SplitstatError(Exception):
    """Base class for all errors raised by this package."""


class ResourceLimitError(SplitstatError):
    """A configured memory or enumeration budget would be exceeded."""


class EmptyFamilyError(SplitstatError):
    """A family-level statistic was requested for an empty (sub)family."""


class ReduciblePolynomialError(SplitstatError):
    """An operation that assumes irreducibility found an explicit factorization."""
