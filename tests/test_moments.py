"""Adaptive quadrature of the hybrid moment: validation surface, additivity
and refinement behaviour."""

import math
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: moments.hybrid_moment(0, 10, 0.5, 0, rel_tol="abc"), "rel_tol must be a real number, got 'abc'"),
        (lambda: moments.hybrid_moment(0, "10", 0.5, 0), "t_hi must be a real number, got '10'"),
        (lambda: moments.hybrid_moment(None, 10, 0.5, 0), "t_lo must be a real number, got None"),
        (lambda: moments.hybrid_moment(0, 10, None, 0), "sigma must be a real number, got None"),
        (lambda: moments.hybrid_moment_trace(0, 10, 0.5, 0, None),
         "rel_tols must be a sequence of numbers, got None"),
        (lambda: moments.hybrid_moment_trace(0, 10, 0.75, 1, "1e-3"),
         "rel_tols must be a sequence of numbers, got '1e-3'"),
    ],
    ids=["rel_tol", "t_hi", "t_lo", "sigma", "rel_tols", "rel_tols-str"],
)
def test_non_numeric_argument_named(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


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
    # _panel_width decreases in t and hybrid_moment_trace caps t_hi at T_CEILING, so
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


def _phase_rule_ends(t_lo, t_hi):
    edges = [t_lo]
    while edges[-1] < t_hi:
        edges.append(min(t_hi, edges[-1] + moments._panel_width(edges[-1])))
    return np.array(edges)


@pytest.mark.parametrize("t_lo, t_hi", [(1.0e4, 1.05e4), (9.9e4, 1.0e5), (0.0, 1.0e3), (1.0, 300.0), (2900.0, 3100.0)])
@pytest.mark.parametrize("sigma, j", [(0.75, 1), (0.5, 0), (1.0, 2)])
def test_batched_panels_match_single_panels(t_lo, t_hi, sigma, j):
    # one kernel call per chunk changes only the BLAS shape of the main
    # sums, on either route and across RS_T_MIN: each panel keeps its value
    # to rounding, and its estimate moves by rounding of the value it
    # estimates
    ends = _phase_rule_ends(t_lo, t_hi)
    a, b = ends[:-1], ends[1:]
    batched = [moments._eval_panels(a[s], b[s], sigma, j) for s in moments._chunks(ends)]
    single = [moments._eval_panels(a[i : i + 1], b[i : i + 1], sigma, j) for i in range(a.size)]
    (value, err), (value1, err1) = ([np.concatenate(r) for r in zip(*rs)] for rs in (batched, single))
    assert value.shape == err.shape == value1.shape == err1.shape == a.shape
    assert np.all(np.abs(value - value1) <= 1e-14 * value1)
    assert np.all(np.abs(err - err1) <= 1e-14 * value1)
    est, est1 = sum(err.tolist()), sum(err1.tolist())
    assert abs(est - est1) <= 1e-9 * est1


# node values from elementwise ufuncs only, so the reductions of
# _eval_panels are the only place a BLAS kernel could enter
_BLAS_FREE_PANELS = """
import hashlib
import numpy as np
from zetalab import _kernels, moments
_kernels.line_zeta = lambda sigmas, ts: np.exp(np.multiply.outer(np.asarray(sigmas), np.sin(ts)) + 1j * ts)
ends = np.linspace(1.0e4, 1.1e4, 2001)
for r in moments._eval_panels(ends[:-1], ends[1:], 0.75, 1):
    print(hashlib.sha256(r.tobytes()).hexdigest())
"""


def test_panel_sums_identical_under_every_blas_kernel():
    # OpenBLAS picks its kernel, and with it the order of a dot product's
    # sum, at run time (OPENBLAS_CORETYPE on a DYNAMIC_ARCH build): each
    # panel's K21 and G10 sums must come out in the same bits under all three
    src = str(Path(moments.__file__).resolve().parents[1])
    outputs = []
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_FREE_PANELS], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 2
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "t_lo, t_hi, sigma, j",
    [(1.0e4, 1.0e4 + 50.0, 0.5, 3), (5.0e4, 5.0e4 + 30.0, 1.0, 4), (9.9e4, 1.0e5, 0.5, 4), (500.0, 560.0, 0.75, 3)],
)
def test_kernel_calls_per_chunk(monkeypatch, t_lo, t_hi, sigma, j):
    # initial panels share calls up to the cell budget, nodes times the
    # kernel's own count of terms, and a bisection evaluates both halves in
    # one call
    calls = []
    line_zeta = _kernels.line_zeta

    def counted(sigmas, ts):
        calls.append((len(ts), _kernels.line_terms(min(ts), max(ts))))
        return line_zeta(sigmas, ts)

    monkeypatch.setattr(_kernels, "line_zeta", counted)
    stats = moments.hybrid_moment(t_lo, t_hi, sigma, j, rel_tol=1e-6).step_stats
    per_call = moments._CHUNK_CELLS // (21 * _kernels.line_terms(t_lo, t_hi))
    assert per_call > 1
    assert len(calls) <= math.ceil(stats["initial_panels"] / per_call) + stats["refinements"]
    assert sum(n for n, _m in calls) == stats["node_evals"]
    assert max(n * m for n, m in calls) <= moments._CHUNK_CELLS
    assert stats["refinements"] > 0


def test_precision_error_names_the_same_panel():
    # at j = 150 a panel in the middle of a chunk overflows; the batched
    # run names the first such panel, as panel-by-panel evaluation does
    ends = _phase_rule_ends(1.0e4, 1.05e4)
    first = None
    for i in range(ends.size - 1):
        try:
            moments._eval_panels(ends[i : i + 1], ends[i + 1 : i + 2], 0.5, 150)
        except PrecisionError as exc:
            first = str(exc)
            break
    assert first is not None and i > 0
    assert i not in {s.start for s in moments._chunks(ends)}
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
