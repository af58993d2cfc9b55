"""Adaptive quadrature of the hybrid moment: validation surface, additivity
and refinement behaviour."""

import math

import numpy as np
import pytest

from zetalab import moments
from zetalab.errors import CeilingError, DomainError


def test_zero_width_interval():
    s = moments.hybrid_moment(7.0, 7.0, 0.5, 0)
    assert s.value == 0.0 and s.error_estimate == 0.0
    assert s.converged
    # an empty interval reports the same statistics as any other snapshot
    trace = moments.hybrid_moment_trace(7.0, 7.0, 0.5, 1, [1e-2, 1e-3])
    wide = moments.hybrid_moment_trace(7.0, 8.0, 0.5, 1, [1e-2, 1e-3])
    for snap, other, tol in zip(trace, wide, (1e-2, 1e-3)):
        assert snap.step_stats.keys() == other.step_stats.keys()
        assert snap.step_stats == {"panels": 0, "initial_panels": 0, "refinements": 0,
                                   "node_evals": 0, "converged": True, "rel_tol": tol}


def test_validation_errors():
    with pytest.raises(DomainError):
        moments.hybrid_moment(0, 10, 0.4, 0)  # sigma below the strip
    with pytest.raises(DomainError):
        moments.hybrid_moment(0, 10, 0.5, -1)
    with pytest.raises(DomainError):
        moments.hybrid_moment(0, 10, 0.5, 1.5)
    with pytest.raises(DomainError):
        moments.hybrid_moment(10, 5, 0.5, 0)
    with pytest.raises(DomainError):
        moments.hybrid_moment(0, 10, 0.5, 0, rel_tol=1e-8)  # below floor
    with pytest.raises(CeilingError):
        moments.hybrid_moment(0, 2.0e5, 0.5, 0)


def test_additivity_over_splits():
    rng = np.random.default_rng(17)
    whole = moments.hybrid_moment(0, 300, 0.5, 0, rel_tol=1e-4)
    for _ in range(3):
        mid = float(rng.uniform(20, 280))
        left = moments.hybrid_moment(0, mid, 0.5, 0, rel_tol=1e-4)
        right = moments.hybrid_moment(mid, 300, 0.5, 0, rel_tol=1e-4)
        gap = abs(whole.value - left.value - right.value)
        budget = whole.error_estimate + left.error_estimate + right.error_estimate
        assert gap <= budget


def test_trace_refines_monotonically():
    trace = moments.hybrid_moment_trace(0, 400, 0.75, 1, rel_tols=[1e-2, 1e-4, 1e-6])
    errs = [t.error_estimate for t in trace]
    assert errs[0] >= errs[1] >= errs[2]
    vals = [t.value for t in trace]
    # successive refinements agree within the coarser error estimate
    assert abs(vals[0] - vals[2]) <= max(errs[0], 1e-12) * 4
    stats = trace[-1].step_stats
    assert stats["panels"] >= stats["initial_panels"]
    assert stats["node_evals"] == 48 * (stats["initial_panels"] + 2 * stats["refinements"])


def test_trace_requires_decreasing_tols():
    with pytest.raises(DomainError):
        moments.hybrid_moment_trace(0, 50, 0.5, 0, rel_tols=[1e-3, 1e-3])
    with pytest.raises(DomainError):
        moments.hybrid_moment_trace(0, 50, 0.5, 0, rel_tols=[])


def test_panel_ceiling_reported_not_raised():
    # the sixth-power integrand hugging the pole keeps the estimate coarse,
    # so a ceiling of 8 panels must end the run unconverged but cleanly
    s = moments.hybrid_moment(0.1, 50.0, 1.0, 3, rel_tol=1e-6, panel_ceiling=8)
    assert not s.converged
    assert s.step_stats["panels"] >= 8
    assert s.step_stats["refinements"] > 0
    assert s.value > 0


def test_moment_positive_and_scales():
    a = moments.hybrid_moment(0, 100, 0.5, 0, rel_tol=1e-3)
    b = moments.hybrid_moment(0, 200, 0.5, 0, rel_tol=1e-3)
    assert 0 < a.value < b.value


def test_sigma_one_needs_positive_start():
    # j >= 1 at sigma = 1 diverges logarithmically at t = 0; from t = 1 the
    # integral is finite and the quadrature must handle it
    s = moments.hybrid_moment(1, 60, 1.0, 1, rel_tol=1e-3)
    assert math.isfinite(s.value) and s.value > 0


def test_sample_invariants():
    with pytest.raises(ValueError):
        moments.MomentSample(0.0, 10.0, 0.5, 0, -1.0, 0.0)
    with pytest.raises(ValueError):
        moments.MomentSample(0.0, 10.0, 0.5, 0, 1.0, -0.5)
