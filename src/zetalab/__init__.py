"""zetalab: exact bound tables, exponent-pair search, zeta numerics, and
weighted divisor experiments for hybrid moment estimates.

Layout:
    bounds    exact piecewise tables, convexity curve, threshold recursion
    pairs     van der Corput A/B process calculus and pair search
    zetanum   high-precision zeta on Re s > 0
    moments   adaptive quadrature of hybrid moments
    divisors  weighted divisor sieves, Perron residue main terms, error terms
    cli       command-line surface
"""

from .bounds import (
    ANCHOR_ABSCISSA,
    ANCHOR_HIGH,
    ANCHOR_LOW,
    PiecewiseBound,
    ThresholdReport,
    admissible_shift_range,
    bounded_order_table,
    convex_interpolate,
    interpolation_anchor,
    max_bounded_order,
    moment_excess,
    moment_excess_table,
    moment_threshold,
    pointwise_exponent,
    threshold_sequence,
)
from .errors import (
    CeilingError,
    DomainError,
    PrecisionError,
    ZetalabError,
)
from .pairs import (
    ExponentPair,
    hybrid_sigma_bound,
    pointwise_bound_from_pair,
    process_A,
    process_B,
    search_best_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ANCHOR_ABSCISSA",
    "ANCHOR_HIGH",
    "ANCHOR_LOW",
    "CeilingError",
    "DomainError",
    "ExponentPair",
    "PiecewiseBound",
    "PrecisionError",
    "ThresholdReport",
    "ZetalabError",
    "admissible_shift_range",
    "bounded_order_table",
    "convex_interpolate",
    "hybrid_sigma_bound",
    "interpolation_anchor",
    "max_bounded_order",
    "moment_excess",
    "moment_excess_table",
    "moment_threshold",
    "pointwise_bound_from_pair",
    "pointwise_exponent",
    "process_A",
    "process_B",
    "search_best_pair",
    "threshold_sequence",
]
