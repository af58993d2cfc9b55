"""The hot kernels against independent routes: mpmath zeta, fsum, divisor counts."""

import numpy as np
from mpmath import mp, mpc, workdps

from zetalab import _kernels, zetanum


def test_line_zeta_matches_reference():
    # float64 batch evaluation vs the arbitrary-precision route
    ts = np.array([5.0, 14.134725, 50.0, 123.456, 900.0])
    for sigma in (0.5, 0.75, 1.0):
        got = _kernels.line_zeta(sigma, ts)
        with workdps(30):
            for i, t in enumerate(ts):
                ref = complex(zetanum.zeta_eval(mpc(sigma, t)))
                assert abs(got[i] - ref) < 5e-12, (sigma, t)


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
