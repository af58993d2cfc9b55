"""Exception hierarchy, and the check that an argument is a real number.
The CLI maps the exceptions onto exit codes:

    DomainError     -> 1 (validation)
    PrecisionError  -> 2 (numerical tolerance not met)
    CeilingError    -> 3 (resource ceiling)
"""

import numbers


class ZetalabError(Exception):
    """Base class for all package errors."""


class DomainError(ZetalabError):
    """An argument lies outside the documented domain of an operation."""


class PrecisionError(ZetalabError):
    """A numerical tolerance could not be met.

    Raised instead of silently degrading; the message names the inputs,
    the tolerance and how far the result missed it.
    """


class CeilingError(ZetalabError):
    """A configured resource ceiling (memory, panel count, table size) was hit."""


def real_arg(name: str, x) -> float:
    """float(x); DomainError naming the argument unless x is a real number
    (numbers.Real: int, float, Fraction, numpy and mpmath reals, no str)."""
    if not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    return float(x)
