"""Exception types shared across the package."""


class NsplabError(Exception):
    """Base class for all package errors."""


class DomainError(NsplabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class BudgetExceededError(NsplabError):
    """A combinatorial guard was hit; the caller asked for too large an enumeration."""


class NspRequiredError(NsplabError):
    """An experiment requires the base dictionary to satisfy the null space property."""


class LpSolveError(NsplabError):
    """A support problem of certify_nsp's LP route ended without a certified optimum."""
