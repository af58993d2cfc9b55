"""Adaptive quadrature of the hybrid moment: validation surface, additivity
and refinement behaviour."""

import math

import mpmath
import numpy as np
import pytest

from zetalab import _kernels, moments
from zetalab.errors import CeilingError, DomainError, PrecisionError


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
    assert stats["node_evals"] == 21 * (stats["initial_panels"] + 2 * stats["refinements"])


def _reference_moments(t_lo, t_hi, lines):
    """Integrals of |zeta(1/2+it)|^4 |zeta(sigma+it)|^(2j) over [t_lo, t_hi]
    for each (sigma, j) in lines, without line_zeta: a 20-point
    Gauss-Legendre sum of mpmath.fp.zeta values on panels at most 2 wide
    (and at most the phase-rule width). Against 40-point sums on panels at
    most 1 wide these agree to 1e-11 relative or better on every window
    below."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = [t_lo]
    while edges[-1] < t_hi:
        edges.append(min(t_hi, edges[-1] + min(2.0, moments._panel_width(edges[-1]))))
    ts, hw = [], []
    for a, b in zip(edges, edges[1:]):
        mid, h = 0.5 * (a + b), 0.5 * (b - a)
        ts.extend(mid + h * x)
        hw.extend(h * w)
    absz = {
        sigma: np.array([abs(mpmath.fp.zeta(complex(sigma, t))) for t in ts])
        for sigma in {0.5} | {sigma for sigma, _j in lines}
    }
    return [
        math.fsum(hw * absz[0.5] ** 4 * absz[sigma] ** (2 * j)) for sigma, j in lines
    ]


@pytest.mark.parametrize(
    "t_lo, t_hi, lines",
    [
        (0.0, 300.0, [(0.75, 1)]),
        (1.0, 60.0, [(1.0, 1)]),  # near the pole at sigma = 1
        (1.0e4, 1.0e4 + 15.0, [(0.5, 0), (1.0, 2)]),
        (moments.T_CEILING - 10.0, moments.T_CEILING, [(0.75, 2), (0.5, 1)]),
        # straddles the switch from Euler-Maclaurin to Riemann-Siegel nodes
        (_kernels.RS_T_MIN - 10.0, _kernels.RS_T_MIN + 10.0, [(0.75, 1), (0.5, 0)]),
    ],
)
def test_error_estimate_covers_true_error(t_lo, t_hi, lines):
    # each snapshot's estimate covers its actual error, and meets its tolerance
    refs = _reference_moments(t_lo, t_hi, lines)
    for (sigma, j), ref in zip(lines, refs):
        trace = moments.hybrid_moment_trace(t_lo, t_hi, sigma, j, [1e-4, 1e-6])
        for tol, snap in zip((1e-4, 1e-6), trace):
            assert abs(snap.value - ref) <= snap.error_estimate <= tol * snap.value, (
                sigma, j, tol, snap.value, ref, snap.error_estimate)


def test_trace_requires_decreasing_tols():
    with pytest.raises(DomainError):
        moments.hybrid_moment_trace(0, 50, 0.5, 0, rel_tols=[1e-3, 1e-3])
    with pytest.raises(DomainError):
        moments.hybrid_moment_trace(0, 50, 0.5, 0, rel_tols=[])


def test_panel_ceiling_reported_not_raised(monkeypatch):
    # the sixth-power integrand hugging the pole keeps the estimate coarse,
    # so a ceiling of 8 panels must end the run unconverged but cleanly
    monkeypatch.setattr(moments, "PANEL_CEILING", 8)
    s = moments.hybrid_moment(0.1, 50.0, 1.0, 3, rel_tol=1e-6)
    assert not s.converged
    assert s.step_stats["panels"] >= 8
    assert s.step_stats["refinements"] > 0
    assert s.value > 0


def test_initial_panels_stay_below_ceiling():
    # _panel_width decreases in t and _validate caps t_hi at T_CEILING, so
    # no window starts with more initial panels than this, and refinement
    # never begins at or above the budget
    widest = moments.T_CEILING / moments._panel_width(moments.T_CEILING) + 1
    assert widest < moments.PANEL_CEILING


def test_moment_positive_and_scales():
    a = moments.hybrid_moment(0, 100, 0.5, 0, rel_tol=1e-3)
    b = moments.hybrid_moment(0, 200, 0.5, 0, rel_tol=1e-3)
    assert 0 < a.value < b.value


def test_sigma_one_needs_positive_start():
    # j >= 1 at sigma = 1: |zeta(1+it)|^(2j) grows like t^(-2j) at t = 0, a
    # pole that is not integrable; from t = 1 the integral is finite and the
    # quadrature must handle it
    s = moments.hybrid_moment(1, 60, 1.0, 1, rel_tol=1e-3)
    assert math.isfinite(s.value) and s.value > 0


def test_sigma_one_from_zero_is_rejected():
    # the divergent integral must raise, not come back as a converged inf
    for j in (1, 3):
        with pytest.raises(DomainError, match="not integrable"):
            moments.hybrid_moment(0, 10, 1.0, j)
    # j = 0 drops the sigma-line factor, so t_lo = 0 stays valid
    assert math.isfinite(moments.hybrid_moment(0, 10, 1.0, 0, rel_tol=1e-3).value)


def test_overflowing_panel_raises_at_once(monkeypatch):
    # |zeta(1+0.01i)|^400 is about 100^400, beyond float64: the first panel
    # must raise instead of refining inf and NaN up to the panel ceiling
    monkeypatch.setattr(moments, "PANEL_CEILING", 2000)
    with np.errstate(over="ignore"):
        with pytest.raises(PrecisionError, match="not finite"):
            moments.hybrid_moment(0.01, 1.0, 1.0, 200)


def _phase_rule_panels(t_lo, t_hi):
    edges = [t_lo]
    while edges[-1] < t_hi:
        edges.append(min(t_hi, edges[-1] + moments._panel_width(edges[-1])))
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("t_lo, t_hi", [(1.0e4, 1.05e4), (9.9e4, 1.0e5)])
@pytest.mark.parametrize("sigma, j", [(0.75, 1), (0.5, 0), (1.0, 2)])
def test_batched_panels_match_single_panels(t_lo, t_hi, sigma, j):
    # one kernel call per chunk changes only the BLAS shape of the main
    # sums: each panel keeps its value to rounding, and its estimate moves
    # by rounding of the value it estimates
    panels = _phase_rule_panels(t_lo, t_hi)
    batched = list(moments._eval_panels(panels, sigma, j))
    single = [next(moments._eval_panels([panel], sigma, j)) for panel in panels]
    assert len(batched) == len(single) == len(panels)
    for (a, b, value, err, n), (a1, b1, value1, err1, n1) in zip(batched, single):
        assert (a, b, n) == (a1, b1, n1) == (a, b, 21)
        assert abs(value - value1) <= 1e-14 * value1
        assert abs(err - err1) <= 1e-14 * value1
    est, est1 = sum(r[3] for r in batched), sum(r[3] for r in single)
    assert abs(est - est1) <= 1e-9 * est1


def test_panel_straddling_rs_t_min_goes_alone(monkeypatch):
    # a panel with a node below RS_T_MIN keeps its own Euler-Maclaurin call
    # (and cutoff); only panels wholly on the Riemann-Siegel side share one
    em_calls, rs_calls = [], []
    em, rs = _kernels._euler_maclaurin, _kernels._riemann_siegel

    def record_em(sig, ts):
        em_calls.append(ts.copy())
        return em(sig, ts)

    def record_rs(sig, ts):
        rs_calls.append(ts.copy())
        return rs(sig, ts)

    monkeypatch.setattr(_kernels, "_euler_maclaurin", record_em)
    monkeypatch.setattr(_kernels, "_riemann_siegel", record_rs)
    moments.hybrid_moment(2990.0, 3100.0, 0.75, 1, rel_tol=1e-4)
    straddling = [ts for ts in em_calls if ts.max() > _kernels.RS_T_MIN]
    assert len(straddling) == 1
    assert all(ts.size == 21 and ts.min() < _kernels.RS_T_MIN for ts in em_calls)
    assert all(ts.min() >= _kernels.RS_T_MIN for ts in rs_calls)
    assert max(ts.size for ts in rs_calls) > 21


@pytest.mark.parametrize(
    "t_lo, t_hi, sigma, j",
    [(1.0e4, 1.0e4 + 50.0, 0.5, 3), (5.0e4, 5.0e4 + 30.0, 1.0, 4), (9.9e4, 1.0e5, 0.5, 4)],
)
def test_kernel_calls_per_chunk(monkeypatch, t_lo, t_hi, sigma, j):
    # initial panels share calls up to the cell budget, and a bisection
    # evaluates both halves in one call
    calls = []
    line_zeta = _kernels.line_zeta

    def counted(sigmas, ts):
        calls.append((len(ts), math.floor(math.sqrt(max(ts) / (2 * math.pi)))))
        return line_zeta(sigmas, ts)

    monkeypatch.setattr(_kernels, "line_zeta", counted)
    stats = moments.hybrid_moment(t_lo, t_hi, sigma, j, rel_tol=1e-6).step_stats
    per_call = moments._RS_CHUNK_CELLS // (21 * math.floor(math.sqrt(t_hi / (2 * math.pi))))
    assert len(calls) <= math.ceil(stats["initial_panels"] / per_call) + stats["refinements"]
    assert sum(n for n, _m in calls) == stats["node_evals"]
    assert max(n * m for n, m in calls) <= moments._RS_CHUNK_CELLS
    assert stats["refinements"] > 0


def test_precision_error_names_the_same_panel():
    # at j = 150 a panel in the middle of a chunk overflows; the batched
    # run names the first such panel, as panel-by-panel evaluation does
    panels = _phase_rule_panels(1.0e4, 1.05e4)
    first = None
    for panel in panels:
        try:
            next(moments._eval_panels([panel], 0.5, 150))
        except PrecisionError as exc:
            first = str(exc)
            break
    assert first is not None and panel != panels[0]
    starts = set(np.cumsum([0] + [len(c) for c in moments._chunks(panels)]).tolist())
    assert panels.index(panel) not in starts
    with pytest.raises(PrecisionError) as raised:
        moments.hybrid_moment(1.0e4, 1.05e4, 0.5, 150)
    assert str(raised.value) == first


@pytest.mark.parametrize(
    "args, cause, advice",
    [
        ((0.01, 1.0, 1.0, 200), "near the pole s = 1", "lower j or move t_lo away from 0"),
        ((1.0e4, 1.05e4, 0.5, 150), "exceeds float64 at this j", "lower j"),
    ],
    ids=["near-pole", "large-j"],
)
def test_precision_error_names_its_cause(args, cause, advice):
    # next to the pole s = 1 moving t_lo helps; at t = 1e4 only a lower j
    # does, so that message must not send the user to t_lo
    with pytest.raises(PrecisionError) as raised:
        moments.hybrid_moment(*args)
    message = str(raised.value)
    assert cause in message and message.endswith(f"; {advice}")


def test_sample_invariants():
    with pytest.raises(ValueError):
        moments.MomentSample(0.0, 10.0, 0.5, 0, -1.0, 0.0)
    with pytest.raises(ValueError):
        moments.MomentSample(0.0, 10.0, 0.5, 0, 1.0, -0.5)
