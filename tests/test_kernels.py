"""The hot kernels against independent routes: mpmath zeta, the two zeta
line routes against each other, fsum, divisor convolution; the quadrature
rule's constants against numpy's Gauss-Legendre rule and exact monomial
integrals."""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mpc, workdps

from zetalab import _kernels, moments, zetanum
from zetalab.divisors import sieve_divisor_counts
from zetalab.moments import T_CEILING


SIGMAS = [0.5, 0.75, 1.0]


def test_line_zeta_matches_reference():
    # float64 batch evaluation of three lines at once vs the
    # arbitrary-precision route
    ts = np.array([5.0, 14.134725, 50.0, 123.456, 900.0])
    got = _kernels.line_zeta(SIGMAS, ts)
    assert got.shape == (3, ts.size)
    for row, sigma in zip(got, SIGMAS):
        with workdps(30):
            for i, t in enumerate(ts):
                ref = complex(zetanum.zeta_eval(mpc(sigma, t)))
                assert abs(row[i] - ref) < 5e-12, (sigma, t)


def _assert_rows_within_bound(ts):
    # the documented bound 1e-12 + 1e-14 t for every row, against mpmath's
    # own zeta (Riemann-Siegel at large t)
    got = _kernels.line_zeta(SIGMAS, ts)
    for row, sigma in zip(got, SIGMAS):
        for i, t in enumerate(ts):
            with workdps(20):
                ref = complex(mpmath.zeta(mpc(sigma, t)))
            assert abs(row[i] - ref) < 1e-12 + 1e-14 * t, (sigma, t)


def test_line_zeta_error_bound_up_to_t_ceiling():
    # three seeded t per decade up to T_CEILING, each t alone: those below
    # RS_T_MIN check Euler-Maclaurin at its own (tightest) truncation N,
    # those from RS_T_MIN on the Riemann-Siegel route
    rng = np.random.default_rng(11)
    ts = 10.0 ** (np.repeat(np.arange(1, 5), 3) + rng.uniform(0, 1, 12))
    for t in np.append(ts, T_CEILING):
        _assert_rows_within_bound(np.array([t]))


def test_line_zeta_error_bound_mixed_batch():
    # one batch over [1e4, 1e5], so on the Riemann-Siegel route: m changes
    # from node to node and the phase matrix is masked (a batch of
    # Euler-Maclaurin at one truncation N for all t is checked against it
    # in test_riemann_siegel_matches_euler_maclaurin)
    rng = np.random.default_rng(13)
    _assert_rows_within_bound(np.concatenate([[1.0e4], 10.0 ** rng.uniform(4, 5, 4), [T_CEILING]]))


RS_SIGMAS = [0.5, 0.6, 0.75, 0.9, 1.0]


def _within_line_bound(got, ref, ts):
    return np.all(np.isfinite(got)) and np.all(np.abs(got - ref) <= 1e-12 + 1e-14 * ts)


def _rs_points():
    # three seeded t per half-decade from RS_T_MIN to T_CEILING (the last
    # one partial), and T_CEILING
    rng = np.random.default_rng(19)
    edges = np.append(np.arange(math.log10(_kernels.RS_T_MIN), 5.0, 0.5), math.log10(T_CEILING))
    ts = [10.0 ** rng.uniform(lo, hi, 3) for lo, hi in zip(edges, edges[1:])]
    return np.append(np.concatenate(ts), T_CEILING)


def test_riemann_siegel_matches_euler_maclaurin():
    # the two routes are independent algorithms; a batch at or above
    # RS_T_MIN goes to Riemann-Siegel, and Euler-Maclaurin is called alone
    ts = _rs_points()
    got = _kernels.line_zeta(RS_SIGMAS, ts)
    assert np.array_equal(got, _kernels._riemann_siegel(np.array(RS_SIGMAS), ts))
    ref = _kernels._euler_maclaurin(np.array(RS_SIGMAS), ts)
    assert _within_line_bound(got, ref, ts)


def test_riemann_siegel_chi_matches_chi_factor():
    # Stirling's series in float64 against mpmath's log-Gamma; the phase
    # t/2 log(t/2pi) is good to about one ulp of log f times t/2
    ts = _rs_points()
    for sigma in RS_SIGMAS:
        col = np.array([[sigma]])
        got = np.exp(_kernels._log_chi(col, ts, _kernels._theta0(ts)))[0]
        for value, t in zip(got, ts):
            ref = complex(zetanum.chi_factor(mpc(sigma, t)))
            assert abs(value - ref) <= (1e-15 + 1e-16 * t) * abs(ref), (sigma, t)


def _node_with_fraction(m, q):
    # a float t at which the route's own sqrt(t / 2 pi) is exactly m + q
    t = 2 * math.pi * (m + q) ** 2
    for step in range(200):
        for cand in (t + step * math.ulp(t), t - step * math.ulp(t)):
            if np.sqrt(np.float64(cand) / (2 * math.pi)) - m == q:
                return cand
    raise AssertionError(f"no float t with fraction {q} at m = {m}")


def test_riemann_siegel_corrections_at_their_edges():
    # p = a - m at 1/4 and 3/4, where the quotient form of the corrections
    # is 0/0; a within 1e-9 of an integer, where m steps and the corrections
    # must take over the term that enters or leaves the sum; and one batch
    # over several m
    m_low = math.ceil(math.sqrt(_kernels.RS_T_MIN / (2 * math.pi)))
    quarters = np.array([_node_with_fraction(m, q) for m in (m_low, 60, 125) for q in (0.25, 0.75)])
    steps = np.array([2 * math.pi * (m + d) ** 2 for m in (m_low + 1, 80, 126) for d in (-5e-10, 5e-10)])
    spread = np.linspace(_kernels.RS_T_MIN, 2 * _kernels.RS_T_MIN, 31)
    assert len(set(np.floor(np.sqrt(spread / (2 * math.pi))))) >= 5
    for ts in (quarters, steps, spread):
        assert ts.min() >= _kernels.RS_T_MIN
        got = _kernels.line_zeta(RS_SIGMAS, ts)
        assert _within_line_bound(got, _kernels._euler_maclaurin(np.array(RS_SIGMAS), ts), ts)


def test_riemann_siegel_coefficient_tables():
    # the float literals are the Taylor coefficients of F(z) rounded to
    # float64: here from mpmath's numerical Taylor expansion of its quotient
    # form at 60 digits
    from mpmath import cos, exp, mpf, pi, sqrt, taylor

    with workdps(60):
        f = taylor(lambda z: (exp(pi * 1j * (z * z / 2 + mpf(3) / 8)) - 1j * sqrt(2) * cos(pi * z / 2))
                   / (2 * cos(pi * z)), 0, 2 * _kernels._F.size - 2)
        f = np.array([complex(c) for c in f[::2]])
    assert np.allclose(_kernels._F, f, rtol=1e-15, atol=0)


def test_gauss_kronrod_constants():
    # G10 is the 10-point Gauss-Legendre rule on every second K21 node
    x, w = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(moments._K21_NODES[1::2] - x)) <= 1e-15
    assert np.max(np.abs(moments._G10_WEIGHTS - w)) <= 1e-15
    assert math.fsum(moments._K21_WEIGHTS) == pytest.approx(2.0, abs=1e-15)
    # K21 has degree 31: exact for x^k, k <= 31 (odd k by symmetry) ...
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(moments._K21_WEIGHTS * moments._K21_NODES**k)
        assert got == pytest.approx(exact, abs=1e-15), k
    # ... and not for x^32
    assert abs(math.fsum(moments._K21_WEIGHTS * moments._K21_NODES**32) - 2.0 / 33) > 1e-13


def test_running_sum_compensated():
    # compensated accumulation keeps the error far below naive cumsum drift
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200_000) * 1e8
    got = _kernels.running_sum(x)
    exact_tail = math.fsum(x)
    assert abs(got[-1] - exact_tail) <= 1e-6 * abs(exact_tail) + 1e-3


def test_running_sum_block_edges():
    # lengths around the block size; every checked prefix within one ulp of
    # its correctly rounded value, also under cancellation
    rng = np.random.default_rng(7)
    B = _kernels.RUN_BLOCK
    for n in (0, 1, B - 1, B, B + 1, 3 * B + 5):
        for x in (rng.uniform(0.0, 1.0, n), rng.standard_normal(n) * 1e8):
            got = _kernels.running_sum(x)
            assert got.shape == x.shape
            for i in {0, 1, B - 1, B, n // 2, n - 1} & set(range(n)):
                ref = math.fsum(x[: i + 1].tolist())
                assert abs(got[i] - ref) <= math.ulp(ref), (n, i)


def test_dirichlet_convolution_oracle(dirichlet_convolution):
    delta = np.zeros(13, dtype=np.int64)
    delta[1] = 1  # the unit of convolution
    ones = np.ones(13, dtype=np.int64)
    ones[0] = 0
    assert np.array_equal(dirichlet_convolution(delta, ones)[1:], ones[1:])
    d2 = dirichlet_convolution(ones, ones)
    assert d2.dtype == np.int64
    assert list(d2[1:7]) == [1, 2, 2, 3, 2, 4]  # divisor counts
    w = dirichlet_convolution(ones, ones * 0.5)
    assert w.dtype == np.float64 and list(w[1:7]) == [0.5, 1.0, 1.0, 1.5, 1.0, 2.0]


def test_sieve_equals_convolution_passes(dirichlet_convolution):
    # d_k by prime powers against k-1 convolution passes with the ones table
    N = 10**5
    ones = np.ones(N + 1, dtype=np.int64)
    ones[0] = 0
    oracle = ones
    for k in range(1, 9):
        if k > 1:
            oracle = dirichlet_convolution(oracle, ones)
        assert np.array_equal(sieve_divisor_counts(k, N), oracle), k


def test_sieve_prime_power_values():
    N = 3**12  # holds 2^19 = 524288 too
    for k in range(1, 9):
        table = sieve_divisor_counts(k, N)
        assert table[2**19] == math.comb(19 + k - 1, k - 1), k
        assert table[3**12] == math.comb(12 + k - 1, k - 1), k

