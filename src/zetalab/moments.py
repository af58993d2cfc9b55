"""Adaptive quadrature of hybrid moment integrals.

The integrand |zeta(1/2+it)|^4 * |zeta(sigma+it)|^(2j) is smooth but
oscillates on the scale of the local zero spacing, so initial panels are
sized to keep the dominant phase advance under pi/4 per node and an
adaptive worst-panel bisection does the rest, up to a fixed budget of
PANEL_CEILING panels. Each panel takes the Gauss-Kronrod 10-21 rule:
its value is K21, and its error estimate
h * |K21 - G10| is the error of the embedded 10-point Gauss rule. That is
an estimate, not a proven bound, of the error of the K21 value returned: it
could understate it where G10 and K21 agree by chance on an oscillating
panel, but on the windows tested it exceeded the measured error by 2.7 to 8
orders of magnitude. Panel results are reduced in
ascending interval order, so a run's totals do not depend on the order in
which its panels were bisected and are reproducible bit for bit for a given
configuration.

Node values come from the float64 line-batch kernel, for both vertical
lines in one call: Euler-Maclaurin for a panel with a node below
_kernels.RS_T_MIN = 3000, one call per panel, and Riemann-Siegel for
panels whose nodes all lie at or above it, several consecutive panels per
call up to _RS_CHUNK_CELLS phase-matrix cells. Both keep the abs error
below 1e-12 + 1e-14 * t up to T_CEILING (measured against mpmath.zeta: at
most 2.7e-15 * t and 1.3e-15 * t), far below any quadrature tolerance
accepted here. A single Riemann-Siegel panel costs about 0.3 ms at any t;
in shared calls a panel costs 0.06 ms at t = 1e4 and 0.15 ms at T_CEILING,
so [0, T_CEILING] takes 11 to 16 s (30 to 44 s with one call per panel). The
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
# Refinement stops at this many panels. The phase rule gives no valid
# window more initial panels than T_CEILING / _panel_width(T_CEILING) + 1,
# about 77,000 ([0, T_CEILING] takes 69,035), so every window starts
# below the budget.
PANEL_CEILING = 200_000
# Riemann-Siegel panels share one line_zeta call up to this many cells of
# its phase matrix (nodes times floor(sqrt(t / 2 pi))): 6 panels at
# T_CEILING, 19 at t = 1e4. Measured in process on one core of a 2-core
# x86_64 host over the moment-high-t benchmark windows, median job time
# against the budget: 9.3 ms at 2,646 (one panel at T_CEILING), 4.5 ms at
# 8,000, 3.9 ms at 16,000 and 3.7 ms at 42,336, while peak RSS rose by
# 0.1, 0.8 and 2.1 MB over single-panel calls.
_RS_CHUNK_CELLS = 16_000

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
    # one kernel call for both vertical lines, over every node of ts; only
    # the half line when j = 0, so an unused sigma = 1 line is never
    # evaluated at the pole
    flat = ts.ravel()
    if j == 0:
        out = np.abs(_kernels.line_zeta([0.5], flat)[0]) ** (4 + 2 * j)
    else:
        half, line = np.abs(_kernels.line_zeta([0.5, sigma], flat))
        out = half**4 * line ** (2 * j)
    return out.reshape(ts.shape)


def _panel_width(t: float) -> float:
    # phase advance < pi/4 per node: ~log(t/2pi)/2pi zeros per unit t
    return 4.0 * math.pi / max(1.2, math.log(max(t, 20.0) / (2.0 * math.pi)))


def _chunks(panels):
    """Split panels [a, b], in order, into lists that share one kernel call.

    A run of consecutive panels whose smallest node is at or above RS_T_MIN
    shares a call while its phase matrix, nodes times
    floor(sqrt(b_max / 2 pi)), stays within _RS_CHUNK_CELLS. Any other panel
    is a chunk of its own: its Euler-Maclaurin cutoff follows its own
    largest node.
    """
    chunk: list = []
    top = 0.0
    for a, b in panels:
        mid, h = 0.5 * (a + b), 0.5 * (b - a)
        if mid + h * _K21_NODES[0] < _kernels.RS_T_MIN:
            if chunk:
                yield chunk
                chunk = []
            yield [(a, b)]
            continue
        top = max(top, b) if chunk else b
        cells = (len(chunk) + 1) * _K21_NODES.size * math.floor(math.sqrt(top / (2.0 * math.pi)))
        if chunk and cells > _RS_CHUNK_CELLS:
            yield chunk
            chunk, top = [], b
        chunk.append((a, b))
    if chunk:
        yield chunk


def _eval_panels(panels, sigma: float, j: int):
    """(a, b, K21 value, error estimate h * |K21 - G10|, node count) for
    each panel [a, b], yielded in order, one kernel call per chunk (_chunks).

    A chunk is evaluated only when its first result is asked for, so the
    caller holds one chunk's results at a time. A power that overflows
    float64 gives inf, and inf - inf in a weighted sum NaN; either raises
    PrecisionError for the first such panel, without a numpy warning.
    """
    for chunk in _chunks(panels):
        ends = np.array(chunk)
        mid = 0.5 * (ends[:, 0] + ends[:, 1])
        h = 0.5 * (ends[:, 1] - ends[:, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _integrand(mid[:, None] + h[:, None] * _K21_NODES, sigma, j)
            # yielded after the errstate block, which would otherwise stay
            # in force in the caller while this generator waits
            results = []
            for (a, b), hk, v in zip(chunk, h.tolist(), vals):
                kronrod = hk * float(_K21_WEIGHTS @ v)
                gauss = hk * float(_G10_WEIGHTS @ v[1::2])
                if not (math.isfinite(kronrod) and math.isfinite(gauss)):
                    raise PrecisionError(_overflow_message(a, b, sigma, j))
                results.append((a, b, kronrod, abs(kronrod - gauss), v.size))
        yield from results


def _overflow_message(a: float, b: float, sigma: float, j: int) -> str:
    """Why the integrand overflowed float64 on panel [a, b], and what helps.

    (s - 1) zeta(s) is about 1 near the pole s = 1, so within distance 1 of
    it |zeta(sigma + it)| is about 1 / |s - 1| and moving t_lo away from 0
    shrinks it. Farther out |zeta| grows only slowly with t, and the power
    2j is what overflows.
    """
    where = f"panel [{a:g}, {b:g}] at sigma = {sigma:g}, j = {j} is not finite in float64"
    if math.hypot(1.0 - sigma, a) < 1.0:
        return (
            f"{where}: near the pole s = 1, |zeta(sigma + it)|^(2j) grows like "
            "|s - 1|^(-2j); lower j or move t_lo away from 0"
        )
    return f"{where}: |zeta(sigma + it)|^(2j) exceeds float64 at this j; lower j"


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
) -> list[MomentSample]:
    """Snapshots of one nested adaptive refinement at each tolerance.

    rel_tols must be strictly decreasing and each at least REL_TOL_FLOOR;
    the k-th snapshot is the state of the same refinement the moment
    tolerance k was first satisfied, so later snapshots strictly refine
    earlier ones. A panel whose value is not finite in float64 raises
    PrecisionError at once. Refinement stops at PANEL_CEILING panels; a
    snapshot whose tolerance was not met by then is flagged unconverged.

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
    heap: list = []
    evals = 0
    refinements = 0
    running_val = 0.0
    running_err = 0.0

    def add_panels(panels) -> None:
        # each result goes onto the heap as it comes, so the initial panels
        # are never all held as results
        nonlocal evals, running_val, running_err
        for a, b, value, err, n in _eval_panels(panels, sigma, j):
            evals += n
            heapq.heappush(heap, (-err, a, b, value))
            running_val += value
            running_err += err

    add_panels(zip(edges, edges[1:]))

    snapshots: list[MomentSample] = []
    for tol in tols:
        while not (running_err <= tol * abs(running_val) or len(heap) >= PANEL_CEILING):
            neg, a, b, old_value = heapq.heappop(heap)
            running_val -= old_value
            running_err -= -neg
            mid = 0.5 * (a + b)
            add_panels([(a, mid), (mid, b)])
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
) -> MomentSample:
    """Hybrid moment over [t_lo, t_hi] by adaptive worst-panel bisection.

    Each panel's error estimate is |K21 - G10| (see hybrid_moment_trace);
    refinement continues until the summed estimate is below rel_tol times
    the value or PANEL_CEILING panels are reached, in which case the sample
    comes back flagged unconverged rather than as an exception. The value
    is the K21 sum; the estimate is the G10 error, which exceeded the
    measured error of the value by 2.7 to 8 orders of magnitude on the
    windows tested, but is not a proven bound.
    """
    return hybrid_moment_trace(t_lo, t_hi, sigma, j, [rel_tol])[0]
