"""The hot kernels against independent routes: mpmath zeta, fsum, divisor
convolution; the quadrature rule's constants against numpy's Gauss-Legendre
rule and exact monomial integrals."""

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
    # three seeded t per decade up to T_CEILING, each t alone, so that each
    # runs at its own (tightest) truncation N
    rng = np.random.default_rng(11)
    ts = 10.0 ** (np.repeat(np.arange(1, 5), 3) + rng.uniform(0, 1, 12))
    for t in np.append(ts, T_CEILING):
        _assert_rows_within_bound(np.array([t]))


def test_line_zeta_error_bound_mixed_batch():
    # one batch over [1e4, 1e5]: T_CEILING sets the truncation N for the
    # smaller t too, so their tail terms are far from the ones a batch of
    # their own would take
    rng = np.random.default_rng(13)
    _assert_rows_within_bound(np.concatenate([[1.0e4], 10.0 ** rng.uniform(4, 5, 4), [T_CEILING]]))


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

