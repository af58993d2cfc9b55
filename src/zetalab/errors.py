"""Exception hierarchy, and the one place that decides an argument's kind.
The CLI maps the exceptions onto exit codes:

    DomainError     -> 1 (validation)
    PrecisionError  -> 2 (numerical tolerance not met)
    CeilingError    -> 3 (resource ceiling)

Each public entry point passes an argument through one rule, uses the
value it returns and checks only the range itself. A rule refuses with a
DomainError naming the argument:

    int_arg       ell, N, k, j, q: numbers.Integral, numpy's too; no bool
    real_arg      a, sigma, t, X: numbers.Real; no str
    reals_arg     Xs, rel_tols: a sequence or numpy array of reals; no str
    complex_arg   s: a finite numbers.Complex; no str
    rational_arg  bounds, pairs: a finite Fraction(x); "0.6" is exact
"""

import math
import numbers
from fractions import Fraction


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


def reals_arg(name: str, xs, item: str):
    """xs as floats: a numpy int or float array in one astype, any other
    iterable but a str or a 0-d array by real_arg(item, x); else DomainError."""
    if getattr(xs, "ndim", 0) and xs.dtype.kind in "iuf":
        return xs.astype(float)
    if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__") or getattr(xs, "ndim", 1) == 0:
        raise DomainError(f"{name} must be a sequence of numbers, got {xs!r}")
    return [real_arg(item, x) for x in xs]


def int_arg(name: str, x, lo: int = 1) -> int:
    """int(x); DomainError naming the argument unless x is an integer
    (numbers.Integral: int and numpy integers, no bool) of at least lo."""
    # int first: the ABC check costs ten type checks, once a pair in rank_pairs
    if isinstance(x, (int, numbers.Integral)) and not isinstance(x, bool) and x >= lo:
        return int(x)
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
    raise DomainError(f"{name} must be {kind}, got {x!r}")


def complex_arg(name: str, x):
    """x as a value mpmath takes without losing digits: an int or an mpmath
    number (which carries _mpf_ or _mpc_) as it is, anything else (Fraction
    and numpy numbers included) as complex(x). DomainError naming the
    argument unless x is a finite complex number (numbers.Complex, no str).
    mpmath is not imported here, so `import zetalab` does not load it."""
    if not isinstance(x, numbers.Complex):
        raise DomainError(f"{name} must be a complex number, got {x!r}")
    value = x if isinstance(x, int) or hasattr(x, "_mpf_") or hasattr(x, "_mpc_") else complex(x)
    if not (abs(value.real) < math.inf and abs(value.imag) < math.inf):  # NaN fails too
        raise DomainError(f"{name} must be finite, got {x!r}")
    return value


def rational_arg(name: str, x) -> Fraction:
    """Fraction(x), exact; DomainError naming the argument unless x is a
    finite numbers.Real (numpy's too) or a decimal string. A real that is
    not rational converts at the exact binary value of float(x), so "0.6"
    or Fraction(3, 5), not 0.6, passes the decimal exactly."""
    try:
        return Fraction(float(x) if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational) else x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {x!r}") from None
