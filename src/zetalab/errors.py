"""Exception hierarchy. The CLI maps these onto exit codes:

    DomainError     -> 1 (validation)
    PrecisionError  -> 2 (numerical tolerance not met)
    CeilingError    -> 3 (resource ceiling)
"""


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
