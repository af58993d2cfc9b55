"""Adaptive quadrature of hybrid moment integrals.

The integrand |zeta(1/2+it)|^4 * |zeta(sigma+it)|^(2j) is smooth but
oscillates on the scale of the local zero spacing, so initial panels are
sized to keep the dominant phase advance under pi/4 per node and an
adaptive worst-panel bisection does the rest. Panel results are reduced in
ascending interval order, so a run's totals do not depend on the order in
which its panels were bisected and are reproducible bit for bit for a given
configuration.

Node values come from the float64 line-batch kernel (abs error below
1e-12 + 1e-14 * t up to T_CEILING, far below any quadrature tolerance
accepted here); the 25-digit path in zetanum is used by the test suite to
validate that kernel, not per node.
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    # one batched line evaluation per vertical line; a power that overflows
    # float64 gives inf, which _eval_panel reports as a PrecisionError
    with np.errstate(over="ignore"):
        v = np.abs(_kernels.line_zeta(0.5, ts)) ** 4
        if j > 0:
            v = v * np.abs(_kernels.line_zeta(sigma, ts)) ** (2 * j)
    return v


def _panel_width(t: float) -> float:
    # phase advance < pi/4 per node: ~log(t/2pi)/2pi zeros per unit t
    return 4.0 * math.pi / max(1.2, math.log(max(t, 20.0) / (2.0 * math.pi)))


def _eval_panel(a: float, b: float, sigma: float, j: int) -> tuple[float, float, int]:
    """Coarse GL16 value, refined two-half value, and node count for [a, b]."""
    mid = 0.5 * (a + b)
    half1 = 0.5 * (b - a)
    nodes = np.concatenate(
        [
            mid + half1 * _GL_NODES,
            0.5 * (a + mid) + 0.5 * (mid - a) * _GL_NODES,
            0.5 * (mid + b) + 0.5 * (b - mid) * _GL_NODES,
        ]
    )
    vals = _integrand(nodes, sigma, j)
    coarse = half1 * float(_GL_WEIGHTS @ vals[:16])
    fine = 0.5 * (mid - a) * float(_GL_WEIGHTS @ vals[16:32]) + 0.5 * (
        b - mid
    ) * float(_GL_WEIGHTS @ vals[32:])
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise PrecisionError(
            f"panel [{a:g}, {b:g}] at sigma = {sigma:g}, j = {j} is not finite in "
            "float64; lower j or move t_lo away from 0"
        )
    return coarse, fine, nodes.size


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
    PrecisionError at once.
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

    def add_panel(a: float, b: float) -> None:
        nonlocal evals, running_val, running_err
        coarse, fine, n = _eval_panel(a, b, sigma, j)
        evals += n
        heapq.heappush(heap, (-abs(coarse - fine), a, b, fine))
        running_val += fine
        running_err += abs(coarse - fine)

    for a, b in zip(edges, edges[1:]):
        add_panel(a, b)

    snapshots: list[MomentSample] = []
    for tol in tols:
        while not (running_err <= tol * abs(running_val) or len(heap) >= panel_ceiling):
            neg, a, b, old_fine = heapq.heappop(heap)
            running_val -= old_fine
            running_err -= -neg
            mid = 0.5 * (a + b)
            add_panel(a, mid)
            add_panel(mid, b)
            refinements += 1
        # reduction in ascending interval order: reproducible bit for bit
        value = 0.0
        err = 0.0
        for neg, _a, _b, fine in sorted(heap, key=lambda e: e[1]):
            value += fine
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

    The error estimate compares each panel's single-interval rule against
    its two-half refinement; refinement continues until the summed estimate
    is below rel_tol times the value or the panel ceiling is reached, in
    which case the sample comes back flagged unconverged rather than as an
    exception.
    """
    return hybrid_moment_trace(t_lo, t_hi, sigma, j, [rel_tol], panel_ceiling)[0]
