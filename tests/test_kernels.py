"""The hot kernels against independent routes: mpmath zeta, fsum, divisor counts."""

import mpmath
import numpy as np
from mpmath import mp, mpc, workdps

from zetalab import _kernels, zetanum
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


def test_conv_with_ones_is_divisor_convolution():
    f = np.zeros(13, dtype=np.int64)
    f[1] = 1  # delta at 1: convolution with ones gives the all-ones table
    out = _kernels.conv_with_ones(f)
    assert np.array_equal(out[1:], np.ones(12, dtype=np.int64))
    g = np.ones(13, dtype=np.int64)
    g[0] = 0
    d2 = _kernels.conv_with_ones(g)
    assert list(d2[1:7]) == [1, 2, 2, 3, 2, 4]  # divisor counts
