"""The hot kernels against independent routes: mpmath zeta, fsum, divisor
convolution."""

import math

import mpmath
import numpy as np
from mpmath import mp, mpc, workdps

from zetalab import _kernels, zetanum
from zetalab.divisors import sieve_divisor_counts
from zetalab.moments import T_CEILING


def test_line_zeta_matches_reference():
    # float64 batch evaluation vs the arbitrary-precision route
    ts = np.array([5.0, 14.134725, 50.0, 123.456, 900.0])
    for sigma in (0.5, 0.75, 1.0):
        got = _kernels.line_zeta(sigma, ts)
        with workdps(30):
            for i, t in enumerate(ts):
                ref = complex(zetanum.zeta_eval(mpc(sigma, t)))
                assert abs(got[i] - ref) < 5e-12, (sigma, t)


def test_line_zeta_error_bound_up_to_t_ceiling():
    # the documented bound 1e-12 + 1e-14 t, against mpmath's own zeta
    # (Riemann-Siegel at large t), three seeded t per decade up to T_CEILING
    rng = np.random.default_rng(11)
    ts = 10.0 ** (np.repeat(np.arange(1, 5), 3) + rng.uniform(0, 1, 12))
    ts = np.append(ts, T_CEILING)
    for sigma in (0.5, 0.75, 1.0):
        for t in ts:
            got = _kernels.line_zeta(sigma, np.array([t]))[0]
            with workdps(20):
                ref = complex(mpmath.zeta(mpc(sigma, t)))
            assert abs(got - ref) < 1e-12 + 1e-14 * t, (sigma, t)


def test_running_sum_compensated():
    # compensated accumulation keeps the error far below naive cumsum drift
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200_000) * 1e8
    got = _kernels.running_sum(x)
    import math

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


def conv_with_ones(f: np.ndarray) -> np.ndarray:
    """Oracle for the divisor tables, one divisor-convolution pass:
    out[m] = sum of f[d] over divisors d of m, exact int64 (f[0] ignored)."""
    N = f.shape[0] - 1
    out = np.zeros_like(f)
    for d in range(1, N + 1):
        fd = f[d]
        if fd:
            out[d::d] += fd
    return out


def test_conv_with_ones_is_divisor_convolution():
    f = np.zeros(13, dtype=np.int64)
    f[1] = 1  # delta at 1: convolution with ones gives the all-ones table
    out = conv_with_ones(f)
    assert np.array_equal(out[1:], np.ones(12, dtype=np.int64))
    g = np.ones(13, dtype=np.int64)
    g[0] = 0
    d2 = conv_with_ones(g)
    assert list(d2[1:7]) == [1, 2, 2, 3, 2, 4]  # divisor counts


def test_sieve_equals_convolution_passes():
    # d_k by prime powers against k-1 convolution passes over the ones table
    N = 10**5
    oracle = np.ones(N + 1, dtype=np.int64)
    oracle[0] = 0
    for k in range(1, 9):
        if k > 1:
            oracle = conv_with_ones(oracle)
        assert np.array_equal(sieve_divisor_counts(k, N), oracle), k


def test_sieve_prime_power_values():
    N = 3**12  # holds 2^19 = 524288 too
    for k in range(1, 9):
        table = sieve_divisor_counts(k, N)
        assert table[2**19] == math.comb(19 + k - 1, k - 1), k
        assert table[3**12] == math.comb(12 + k - 1, k - 1), k

