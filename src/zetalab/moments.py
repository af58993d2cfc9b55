"""Adaptive quadrature of hybrid moment integrals.

The integrand |zeta(1/2+it)|^4 * |zeta(sigma+it)|^(2j) is smooth but
oscillates on the scale of the local zero spacing, so initial panels are
sized to keep the dominant phase advance under pi/4 per node and an
adaptive worst-panel bisection does the rest. Each panel takes the
Gauss-Kronrod 10-21 rule: its value is K21, and its error estimate
h * |K21 - G10| is the error of the embedded 10-point Gauss rule. That is
an estimate, not a proven bound, of the error of the K21 value returned: it
could understate it where G10 and K21 agree by chance on an oscillating
panel, but on the windows tested it exceeded the measured error by 2.7 to 8
orders of magnitude. Panel results are reduced in
ascending interval order, so a run's totals do not depend on the order in
which its panels were bisected and are reproducible bit for bit for a given
configuration.

Node values come from the float64 line-batch kernel, one call per panel
for both vertical lines: Euler-Maclaurin for a panel with a node below
_kernels.RS_T_MIN = 3000, Riemann-Siegel for one whose nodes all lie at or
above it. Both keep the abs error below 1e-12 + 1e-14 * t up to T_CEILING
(measured against mpmath.zeta: at most 2.7e-15 * t and 1.3e-15 * t), far
below any quadrature tolerance accepted here; a panel is about 0.4 ms at
any t on the second route, so [0, T_CEILING] takes about 31 s. The
25-digit path in zetanum is used by the test suite to validate that
kernel, not per node.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import CeilingError, DomainError, PrecisionError

T_CEILING = 1.0e5
REL_TOL_FLOOR = 1.0e-6
PANEL_CEILING_DEFAULT = 200_000

# Gauss-Kronrod 10-21 on [-1, 1], as in QUADPACK's dqk21 (Piessens et
# al., 1983): the Kronrod abscissae from the largest down to 0 and their
# weights, then the weights of the embedded 10-point Gauss rule, whose
# abscissae are every second Kronrod abscissa from the second on.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# ascending nodes; the Gauss rule reads the odd-indexed ones
_K21_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_K21_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_G10_WEIGHTS = np.array(_WG + _WG[::-1])


@dataclass(frozen=True)
class MomentSample:
    """One quadrature result for the hybrid moment over [t_lo, t_hi]."""

    t_lo: float
    t_hi: float
    sigma: float
    j: int
    value: float
    error_estimate: float
    step_stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.value < 0 or self.error_estimate < 0:
            raise ValueError("value and error_estimate must be nonnegative")

    @property
    def converged(self) -> bool:
        return bool(self.step_stats.get("converged", True))


def _integrand(ts: np.ndarray, sigma: float, j: int) -> np.ndarray:
    # one kernel call for both vertical lines; only the half line when
    # j = 0, so an unused sigma = 1 line is never evaluated at the pole
    if j == 0:
        return np.abs(_kernels.line_zeta([0.5], ts)[0]) ** (4 + 2 * j)
    half, line = np.abs(_kernels.line_zeta([0.5, sigma], ts))
    return half**4 * line ** (2 * j)


def _panel_width(t: float) -> float:
    # phase advance < pi/4 per node: ~log(t/2pi)/2pi zeros per unit t
    return 4.0 * math.pi / max(1.2, math.log(max(t, 20.0) / (2.0 * math.pi)))


def _eval_panel(a: float, b: float, sigma: float, j: int) -> tuple[float, float, int]:
    """K21 value, error estimate h * |K21 - G10| and node count for [a, b].

    A power that overflows float64 gives inf, and inf - inf in a weighted
    sum NaN; either raises PrecisionError here, without a numpy warning.
    """
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _integrand(mid + h * _K21_NODES, sigma, j)
        kronrod = h * float(_K21_WEIGHTS @ vals)
        gauss = h * float(_G10_WEIGHTS @ vals[1::2])
    if not (math.isfinite(kronrod) and math.isfinite(gauss)):
        raise PrecisionError(
            f"panel [{a:g}, {b:g}] at sigma = {sigma:g}, j = {j} is not finite in "
            "float64; lower j or move t_lo away from 0"
        )
    return kronrod, abs(kronrod - gauss), vals.size


def _validate(t_lo: float, t_hi: float, sigma: float, j: int, rel_tols: list[float]) -> None:
    if not (isinstance(j, int) and j >= 0):
        raise DomainError(f"j must be a nonnegative integer, got {j!r}")
    if not (0.5 <= sigma <= 1.0):
        raise DomainError(f"sigma must lie in [1/2, 1], got {sigma}")
    if not (0.0 <= t_lo <= t_hi):
        raise DomainError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    if sigma == 1.0 and j >= 1 and t_lo == 0.0:
        raise DomainError(
            "at sigma = 1 the integrand grows like t^(-2j) at t = 0 and is not "
            "integrable there; start at t_lo > 0"
        )
    if t_hi > T_CEILING:
        raise CeilingError(f"t_hi = {t_hi:g} exceeds the desk-scale ceiling {T_CEILING:g}")
    for rel_tol in rel_tols:
        # written so that NaN fails
        if not rel_tol >= REL_TOL_FLOOR:
            raise DomainError(f"rel_tol must be >= {REL_TOL_FLOOR:g}, got {rel_tol:g}")


def hybrid_moment_trace(
    t_lo: float,
    t_hi: float,
    sigma: float,
    j: int,
    rel_tols: Sequence[float],
    panel_ceiling: int = PANEL_CEILING_DEFAULT,
) -> list[MomentSample]:
    """Snapshots of one nested adaptive refinement at each tolerance.

    rel_tols must be strictly decreasing and each at least REL_TOL_FLOOR;
    the k-th snapshot is the state of the same refinement the moment
    tolerance k was first satisfied, so later snapshots strictly refine
    earlier ones. A panel whose value is not finite in float64 raises
    PrecisionError at once. Refinement stops at panel_ceiling panels, and
    a window whose initial panels alone exceed it raises CeilingError
    before any node is evaluated ([0, T_CEILING] needs 69,035).

    Each snapshot's value sums the panels' K21 values and its
    error_estimate sums their |K21 - G10|, the error of the embedded Gauss
    rule, used as an estimate (not a proven bound) of the error of the value
    returned. Over [0, 5000] (sigma = 3/4, j = 1, tol 1e-3) it was 8.1e-5
    of the value, while the value was within 3.2e-10 of a sum of two
    16-point Gauss-Legendre halves on each of the same panels.
    """
    tols = [float(x) for x in rel_tols]
    _validate(t_lo, t_hi, sigma, j, tols)
    if not tols or any(b >= a for a, b in zip(tols, tols[1:])):
        raise DomainError(f"rel_tols must be strictly decreasing, got {rel_tols}")

    # initial panels by the phase rule; none when t_lo == t_hi
    edges = [t_lo]
    while edges[-1] < t_hi:
        edges.append(min(t_hi, edges[-1] + _panel_width(edges[-1])))
    if len(edges) - 1 > panel_ceiling:
        raise CeilingError(
            f"[{t_lo:g}, {t_hi:g}] needs {len(edges) - 1} initial panels, "
            f"above the panel ceiling {panel_ceiling}"
        )
    heap: list = []
    evals = 0
    refinements = 0
    running_val = 0.0
    running_err = 0.0

    def add_panel(a: float, b: float) -> None:
        nonlocal evals, running_val, running_err
        value, err, n = _eval_panel(a, b, sigma, j)
        evals += n
        heapq.heappush(heap, (-err, a, b, value))
        running_val += value
        running_err += err

    for a, b in zip(edges, edges[1:]):
        add_panel(a, b)

    snapshots: list[MomentSample] = []
    for tol in tols:
        while not (running_err <= tol * abs(running_val) or len(heap) >= panel_ceiling):
            neg, a, b, old_value = heapq.heappop(heap)
            running_val -= old_value
            running_err -= -neg
            mid = 0.5 * (a + b)
            add_panel(a, mid)
            add_panel(mid, b)
            refinements += 1
        # reduction in ascending interval order: reproducible bit for bit
        value = 0.0
        err = 0.0
        for neg, _a, _b, panel_value in sorted(heap, key=lambda e: e[1]):
            value += panel_value
            err += -neg
        snapshots.append(
            MomentSample(
                t_lo,
                t_hi,
                sigma,
                j,
                max(value, 0.0),
                err,
                {
                    "panels": len(heap),
                    "initial_panels": len(edges) - 1,
                    "refinements": refinements,
                    "node_evals": evals,
                    "converged": err <= tol * abs(value),
                    "rel_tol": tol,
                },
            )
        )
    return snapshots


def hybrid_moment(
    t_lo: float,
    t_hi: float,
    sigma: float,
    j: int,
    rel_tol: float = 1.0e-4,
    panel_ceiling: int = PANEL_CEILING_DEFAULT,
) -> MomentSample:
    """Hybrid moment over [t_lo, t_hi] by adaptive worst-panel bisection.

    Each panel's error estimate is |K21 - G10| (see hybrid_moment_trace);
    refinement continues until the summed estimate is below rel_tol times
    the value or the panel ceiling is reached, in which case the sample
    comes back flagged unconverged rather than as an exception (initial
    panels above the ceiling raise CeilingError). The value
    is the K21 sum; the estimate is the G10 error, which exceeded the
    measured error of the value by 2.7 to 8 orders of magnitude on the
    windows tested, but is not a proven bound.
    """
    return hybrid_moment_trace(t_lo, t_hi, sigma, j, [rel_tol], panel_ceiling)[0]
