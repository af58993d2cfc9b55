"""Exact piecewise bound tables and the constants derived from them.

Everything in this module is exact rational arithmetic (fractions.Fraction)
end to end: the two piecewise tables, the anchors of the pointwise growth
curve, linear interpolation between anchors, the threshold formula, and the
threshold recursion. The only decimal input is the leading curve anchor,
which is a truncated literature value; it is stored as the exact rational
7077534/10^8 together with the bracket [ANCHOR_LOW, ANCHOR_HIGH) so that
downstream constants can report their inherited uncertainty.

Two opt-in variants replace part of a table by a published improvement.
The improved high-sigma rows of the bounded-order table (variant
"ivic-ouellet") are rational too, and their irrational crossing is decided
exactly, so that variant stays exact. The explicit pointwise bound with
exponent 4.45*(1-sigma)^1.5 (variant "ford") has an irrational power and
returns a float, rounded once from the exact 1-sigma. Defaults reproduce
the published rational tables exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .errors import DomainError, int_arg, rational_arg

Rationalish = Union[int, float, Fraction, str]

HALF = Fraction(1, 2)

# Leading anchor of the pointwise growth curve: abscissa 5/7, exponent known
# only as the truncated decimal 0.07077534... so the true exponent lies in
# [ANCHOR_LOW, ANCHOR_HIGH). Constants derived through the curve inherit an
# uncertainty of order 1e-8 from this bracket.
ANCHOR_ABSCISSA = Fraction(5, 7)
ANCHOR_LOW = Fraction(7077534, 10**8)
ANCHOR_HIGH = Fraction(7077535, 10**8)

_VARIANTS_ORDER = (None, "ivic-ouellet")
_VARIANTS_CURVE = (None, "ford")


@dataclass(frozen=True)
class PiecewiseBound:
    """Increasing breakpoints and one rule per interval between them.

    Rule k covers the closed interval [breaks[k], breaks[k+1]], the last one
    [breaks[-1], inf), so interior breakpoints belong to both neighbours.
    Where the table is continuous the two rules agree exactly; at a jump the
    larger branch is taken. That is the order table's rule at 7/8 (184/5,
    not 98/3); for an upper-bound table the larger branch is still a valid
    bound, only a weaker one.
    """

    label: str
    breaks: tuple[Fraction, ...]
    rules: tuple[Callable[[Fraction], Fraction], ...]

    def __post_init__(self) -> None:
        if len(self.rules) != len(self.breaks):
            raise ValueError(
                f"{self.label}: {len(self.breaks)} intervals need as many rules, "
                f"got {len(self.rules)}"
            )
        if any(b <= a for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError(f"{self.label}: breakpoints must increase, got {self.breaks}")

    def __call__(self, x: Rationalish) -> Fraction:
        xf = rational_arg(self.label + " argument", x)
        k = bisect_right(self.breaks, xf) - 1
        if k < 0:
            raise DomainError(
                f"{self.label} argument {x} outside domain [{self.breaks[0]}, inf]"
            )
        if k > 0 and xf == self.breaks[k]:
            return max(self.rules[k - 1](xf), self.rules[k](xf))
        return self.rules[k](xf)


# ---------------------------------------------------------------------------
# Table 1: excess exponent of the critical-line moment of a given order.
# The order-A moment grows like T^(1 + excess + eps); five branches, A >= 4.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def moment_excess_table() -> PiecewiseBound:
    F = Fraction
    return PiecewiseBound(
        label="critical-line moment excess",
        breaks=(F(4), F(12), F(178, 13), F(20028, 1313), F(1836, 101)),
        rules=(
            lambda A: (A - 4) / F(8),
            lambda A: (3 * A - 14) / F(22),
            lambda A: (416 * A - 2416) / F(2665),
            lambda A: (7 * A - 36) / F(48),
            lambda A: 32 * (A - 6) / F(205),
        ),
    )


def moment_excess(order: Rationalish) -> Fraction:
    """Excess exponent of the critical-line moment of the given order (>= 4).

    Exact when the order is rational. Continuous and nondecreasing; 0 at
    order 4 (the classical fourth-moment point).
    """
    A = rational_arg("order", order)
    if A < 4:
        raise DomainError(f"moment order must be >= 4, got {order}")
    return moment_excess_table()(A)


# ---------------------------------------------------------------------------
# Table 2: the largest moment order that still has T^(1+eps) growth on the
# vertical line at a given sigma in (1/2, 1). Eight branches; the last
# breakpoint is the irrational crossing of the final two rules, taken to 20
# decimals with an integer square root (see _order_table_root).
# ---------------------------------------------------------------------------


def _order_table_root() -> Fraction:
    """Crossing of the last two branch rules, 98/(31-32s) and
    (24s-9)/((4s-1)(1-s)): the root (542 + sqrt(21540))/752 of
    376 s^2 - 542 s + 181 near 0.915911.

    The square root is rounded down at scale 10^20 by math.isqrt, so the
    rational returned lies below the true root by less than 1e-22; no
    truncated decimal is trusted.
    """
    scale = 10**20
    return Fraction(542 * scale + math.isqrt(21540 * scale**2), 752 * scale)


@lru_cache(maxsize=1)
def bounded_order_table() -> PiecewiseBound:
    F = Fraction
    return PiecewiseBound(
        label="bounded moment order",
        breaks=(
            F(1, 2), F(5, 8), F(35, 54), F(41, 60), F(3, 4), F(5, 6), F(7, 8),
            _order_table_root(),
        ),
        rules=(
            lambda s: 4 / (3 - 4 * s),
            lambda s: 10 / (5 - 6 * s),
            lambda s: 19 / (6 - 6 * s),
            lambda s: 2112 / (859 - 948 * s),
            lambda s: 12408 / (4537 - 4890 * s),
            lambda s: 4324 / (1031 - 1044 * s),
            lambda s: 98 / (31 - 32 * s),
            lambda s: (24 * s - 9) / ((4 * s - 1) * (1 - s)),
        ),
    )


def max_bounded_order(sigma: Rationalish, variant: Optional[str] = None) -> Fraction:
    """Largest moment order with T^(1+eps) growth on the line at sigma.

    sigma must lie strictly between 1/2 and 1; the value is exact rational
    for either table. variant="ivic-ouellet" switches to the improved rules
    258/(63-64s) on [14/15, c0] and (30s-12)/((4s-1)(1-s)) beyond, where c0
    = (171+sqrt(1602))/222; those values are never smaller than the default
    table (both are lower bounds for the same supremum). The irrational c0
    is never formed: for s >= 14/15, 222s - 171 is positive, so s <= c0
    exactly when (222s - 171)^2 <= 1602.
    """
    if variant not in _VARIANTS_ORDER:
        raise DomainError(f"unknown variant {variant!r}; expected one of {_VARIANTS_ORDER}")
    s = rational_arg("sigma", sigma)
    if not (HALF < s < 1):
        raise DomainError(f"sigma must lie in (1/2, 1), got {sigma}")
    base = bounded_order_table()(s)
    if variant != "ivic-ouellet" or s < Fraction(14, 15):
        return base
    if (222 * s - 171) ** 2 <= 1602:
        improved = 258 / (63 - 64 * s)
    else:
        improved = (30 * s - 12) / ((4 * s - 1) * (1 - s))
    return max(base, improved)


# ---------------------------------------------------------------------------
# Pointwise growth curve: piecewise-linear in sigma through the anchor at
# 5/7 and the lattice anchors (a_q, b_q), q >= 3. Successive anchors only.
# ---------------------------------------------------------------------------


def interpolation_anchor(q: int) -> tuple[Fraction, Fraction]:
    """Anchor point (abscissa, exponent) = (1 - (q+2)/(2^(q+2)-2), 1/(2^(q+2)-2)).

    Defined for q >= 3; the q = 2 lattice point is superseded by the sharper
    leading anchor at 5/7.
    """
    q = int_arg("anchor index", q, 3)
    d = 2 ** (q + 2) - 2
    return 1 - Fraction(q + 2, d), Fraction(1, d)


def convex_interpolate(
    sigma1: Rationalish,
    c1: Rationalish,
    sigma2: Rationalish,
    c2: Rationalish,
    sigma: Rationalish,
) -> Fraction:
    """Linear interpolation of growth exponents between two vertical lines.

    Returns c1*(s2-s)/(s2-s1) + c2*(s-s1)/(s2-s1); exact for rational input.
    """
    s1, s2, s = (rational_arg(n, v) for n, v in (("sigma1", sigma1), ("sigma2", sigma2), ("sigma", sigma)))
    v1, v2 = rational_arg("c1", c1), rational_arg("c2", c2)
    if not s1 < s2:
        raise DomainError(f"need sigma1 < sigma2, got {sigma1}, {sigma2}")
    if not (s1 <= s <= s2):
        raise DomainError(f"sigma {sigma} outside [{sigma1}, {sigma2}]")
    t = (s - s1) / (s2 - s1)
    return v1 * (1 - t) + v2 * t


def pointwise_exponent(
    sigma: Rationalish,
    variant: Optional[str] = None,
    anchor_exponent: Fraction = ANCHOR_LOW,
) -> Union[Fraction, float]:
    """Growth exponent of zeta on the vertical line at sigma in [5/7, 1).

    Piecewise-linear between successive anchors (no chord skipping); exact
    rational for rational sigma. variant="ford" takes the minimum with the
    explicit bound exponent 4.45*(1-sigma)^1.5 and returns a float; 1-sigma
    is formed exactly and rounded once before the power.
    anchor_exponent overrides the truncated leading anchor, which is how the
    sensitivity of derived constants is measured (pass ANCHOR_HIGH).
    """
    if variant not in _VARIANTS_CURVE:
        raise DomainError(f"unknown variant {variant!r}; expected one of {_VARIANTS_CURVE}")
    s = rational_arg("sigma", sigma)
    if not (ANCHOR_ABSCISSA <= s < 1):
        raise DomainError(f"sigma must lie in [5/7, 1), got {sigma}")
    # walk successive anchors until the bracket [lo, hi] contains s
    lo, q = (ANCHOR_ABSCISSA, anchor_exponent), 3
    hi = interpolation_anchor(q)
    while s > hi[0]:
        lo, q = hi, q + 1
        hi = interpolation_anchor(q)
    value = convex_interpolate(*lo, *hi, s)
    if variant == "ford":
        # 1 - sigma is formed exactly: rounding sigma first loses its digits
        return min(float(value), 4.45 * float(1 - s) ** 1.5)
    return value


# ---------------------------------------------------------------------------
# Threshold formula and the recursion that tightens it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    """One derived admissibility threshold.

    provenance is "table-threshold" for the closed-form route through the
    two piecewise tables and "recursion" for curve-driven recursion steps.
    sensitivity, when present, brackets the value under the truncation
    uncertainty of the leading curve anchor.
    """

    j: int
    sigma0: Fraction
    p: Optional[Fraction]
    threshold: Fraction
    provenance: str
    sensitivity: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self) -> None:
        if not (HALF < self.threshold < 1):
            raise ValueError(f"threshold {self.threshold} outside (1/2, 1)")
        if self.p is not None and not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")


def moment_threshold(sigma0: Rationalish, j: int) -> ThresholdReport:
    """Admissibility threshold from the two tables at auxiliary line sigma0.

    Requires max_bounded_order(sigma0) > 2j. With p = order/(order - 2j) and
    x = moment_excess(4p)/p the threshold is (3x + sigma0)/(2x + 1); exact.
    Raises DomainError when that threshold falls outside (1/2, 1), as it does
    where the order only just exceeds 2j (sigma0 = 5001/8000, j = 4).
    """
    j = int_arg("j", j)
    s0 = rational_arg("sigma0", sigma0)
    if not (HALF <= s0 < 1):
        raise DomainError(f"sigma0 must lie in [1/2, 1), got {sigma0}")
    order = bounded_order_table()(s0)
    if not order > 2 * j:
        raise DomainError(
            f"need bounded order > 2j at sigma0: order({s0}) = {order} "
            f"= {float(order):.6f} <= {2 * j}"
        )
    p = order / (order - 2 * j)
    x = moment_excess(4 * p) / p
    threshold = (3 * x + s0) / (2 * x + 1)
    if not (HALF < threshold < 1):
        raise DomainError(
            f"threshold {threshold} at sigma0 = {s0}, j = {j} lies outside (1/2, 1)"
        )
    return ThresholdReport(
        j=j, sigma0=s0, p=p, threshold=threshold, provenance="table-threshold"
    )


@lru_cache(maxsize=None)
def _sequence_values(j_max: int, anchor_exponent: Fraction) -> tuple[Fraction, ...]:
    values = [moment_threshold(Fraction(5, 8), 1).threshold]
    while len(values) < j_max:
        c = values[-1]
        curve = pointwise_exponent(c, anchor_exponent=anchor_exponent)
        values.append((6 * curve + c) / (4 * curve + 1))
    return tuple(values)


def threshold_sequence(j_max: int) -> list[ThresholdReport]:
    """Thresholds c_1..c_j_max: c_1 = 4/5, the table threshold at sigma0 =
    5/8 and j = 1, then the curve-driven recursion c_j = (6 C + c)/(4 C + 1)
    with C the pointwise exponent at c = c_{j-1}.

    Exact rationals throughout; each report carries the sensitivity bracket
    obtained by re-running with the high end of the anchor truncation.
    """
    j_max = int_arg("j_max", j_max)
    low = _sequence_values(j_max, ANCHOR_LOW)
    high = _sequence_values(j_max, ANCHOR_HIGH)
    base = moment_threshold(Fraction(5, 8), 1)
    reports = [replace(base, sensitivity=(base.threshold, base.threshold))]
    for j in range(2, j_max + 1):
        lo, hi = sorted((low[j - 1], high[j - 1]))
        reports.append(
            ThresholdReport(
                j=j,
                sigma0=low[j - 2],
                p=None,
                threshold=low[j - 1],
                provenance="recursion",
                sensitivity=(lo, hi),
            )
        )
    return reports


def admissible_shift_range(ell: int) -> tuple[Fraction, Fraction]:
    """Admissible shift interval (a_low, 1/2) for the weighted divisor error
    bound at weight-dimension ell.

    a_low = max(c_{j0} - 1/2, 1/2 - 1/ell) with j0 = ell/2 rounded up to an
    integer (ell even: ell/2; ell odd: (ell+1)/2). Supported for ell <= 12,
    the range covered by the computed threshold sequence.
    """
    ell = int_arg("ell", ell)
    if ell > 12:
        raise DomainError(
            f"ell = {ell} unavailable: threshold sequence computed through j = 6 "
            "covers ell <= 12 only"
        )
    j0 = ell // 2 if ell % 2 == 0 else (ell + 1) // 2
    c = threshold_sequence(j0)[-1].threshold
    a_low = max(c - HALF, HALF - Fraction(1, ell))
    return a_low, HALF
