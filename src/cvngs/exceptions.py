"""Exception types shared across the package."""


class CvngsError(Exception):
    """Base class for all package errors."""


class DomainError(CvngsError):
    """An argument lies outside the physically or mathematically allowed range."""


class ContractError(CvngsError):
    """An operation was invoked on an object that violates its preconditions."""


class NumericalDomainError(CvngsError):
    """A numerically computed quantity left its valid domain beyond tolerance."""


class TruncationError(CvngsError):
    """Fock-space truncation too small for the requested state."""


class ZeroWeightError(CvngsError):
    """A conditional branch has vanishing weight (e.g. subtracting from vacuum)."""
