"""The hot kernels against independent routes: mpmath zeta, the two zeta
line routes against each other, fsum, divisor convolution; the quadrature
rule's constants against numpy's Gauss-Legendre rule and exact monomial
integrals."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath import mpc, workdps

from zetalab import _kernels, divisors, moments, zetanum
from zetalab.divisors import sieve_divisor_counts
from zetalab.moments import T_CEILING


SIGMAS = [0.5, 0.75, 1.0]


def test_line_zeta_matches_reference():
    # float64 batch evaluation of three lines at once vs the
    # arbitrary-precision route
    ts = np.array([5.0, 14.134725, 50.0, 123.456, 900.0])
    got = _kernels.line_zeta(SIGMAS, ts)
    assert got.shape == (3, ts.size) and _kernels.line_zeta(SIGMAS, []).shape == (3, 0)
    for row, sigma in zip(got, SIGMAS):
        with workdps(30):
            for i, t in enumerate(ts):
                ref = complex(zetanum.zeta_eval(mpc(sigma, t)))
                assert abs(row[i] - ref) < 5e-12, (sigma, t)


def test_point_zeta_at_contour_nodes():
    # every node of main_terms' four check circles, at offsets u from the
    # pole: radius a/4 around 0 and a, a/2 around -a and 0, so Re s goes
    # down to 1 - 3a/2 (0.265 at a = 0.49); the reference is 40-digit
    # zeta(1 + u) at the exact offset. Measured worst relative error
    # 1.0e-14 (a = 0.49), so the bound has a margin of 2; rounding 1 + u
    # before the pole term would miss it by 4.3e-4 at a = 1e-12
    n = divisors.CONTOUR_NODES
    z = np.exp(2j * np.pi * np.arange(n) / n)
    for a in (1e-12, 1e-8, 1e-4, 0.01, 0.2, 0.35, 0.49, 0.4999):
        u = np.concatenate([a / 4 * z, a + a / 4 * z, a / 2 * z - a, a / 2 * z])
        got = _kernels.point_zeta(u)
        with workdps(40):
            ref = np.array([complex(mpmath.zeta(1 + mpc(x.real, x.imag))) for x in u])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 2e-14, a


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
    # Euler-Maclaurin, each t at its own truncation N, is checked against
    # it in test_riemann_siegel_matches_euler_maclaurin)
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
    # the two routes share their phase rows (_prime_phases, checked against
    # mpmath in test_prime_phase_rows) and the product of _power_sums; the
    # rest is independent: Riemann-Siegel's sqrt(t / 2 pi) terms, chi and
    # corrections against Euler-Maclaurin's 0.3 t terms and tail. A batch at
    # or above RS_T_MIN goes to Riemann-Siegel, and Euler-Maclaurin is
    # called alone
    ts = _rs_points()
    got = _kernels.line_zeta(RS_SIGMAS, ts)
    assert np.array_equal(got, _kernels._riemann_siegel(np.array(RS_SIGMAS), ts))
    ref = _kernels._euler_maclaurin(np.array(RS_SIGMAS), ts)
    assert _within_line_bound(got, ref, ts)


def test_riemann_siegel_sweep_against_mpmath():
    # 60 seeded t, log-uniform in [RS_T_MIN, T_CEILING], as one batch on the
    # Riemann-Siegel route (m changes from node to node), each checked on one
    # of the lines 1/2, 3/4 and 1 against mpmath's zeta at the documented
    # bound 1e-12 + 1e-14 t. 15 digits give the same float64 values as 30 on
    # the first 20 of these t, and the 60 calls take about 1.5 s (2.1 s at 20)
    rng = np.random.default_rng(31)
    ts = 10.0 ** rng.uniform(math.log10(_kernels.RS_T_MIN), math.log10(T_CEILING), 60)
    got = _kernels.line_zeta(SIGMAS, ts)
    for i, t in enumerate(ts):
        with workdps(15):
            ref = complex(mpmath.zeta(mpc(SIGMAS[i % 3], t)))
        assert abs(got[i % 3, i] - ref) < 1e-12 + 1e-14 * t, (SIGMAS[i % 3], t)


def test_prime_phase_rows():
    # every row of the two largest phase arrays, built from the primes' sin
    # and cos by products, against 30-digit exp(-i t log n): n <= 126 for
    # Riemann-Siegel at one t above T_CEILING, n <= 949 for Euler-Maclaurin
    # just below RS_T_MIN. A prime's row errs by the rounding of t log p,
    # about t log p eps; each product adds its factors' errors and a few
    # ulp, so row n stays within Omega(n) t log n eps (Omega: prime factors
    # with multiplicity; measured up to 0.73 of it); 1's row is exact
    for t, rows in ((100_123.456, 126), (2999.99, 949)):
        ts = np.array([t])
        m = np.array([_kernels.line_terms(t, t)])
        assert m[0] == rows and (t > T_CEILING or t < _kernels.RS_T_MIN)
        ns = _kernels._phase_plan(rows)[0]
        lnn, phase = _kernels._prime_phases(ts, m)
        assert sorted(ns.tolist()) == list(range(1, rows + 1)) and np.array_equal(lnn, np.log(ns))
        for n, row in zip(ns.astype(int).tolist(), phase[:, 0]):
            omega, q = 0, n
            for p in range(2, n + 1):
                while q % p == 0:
                    q, omega = q // p, omega + 1
            with workdps(30):
                ref = complex(mpmath.expj(-mpmath.mpf(t) * mpmath.log(n)))
            assert abs(row - ref) <= omega * t * math.log(n) * np.finfo(float).eps, (t, n)


def test_prime_phase_dead_cells():
    # a batch whose term count m(t) varies from node to node (both routes,
    # and one constant m): a cell is zero exactly when its n exceeds m(t),
    # since every live cell has modulus 1
    rng = np.random.default_rng(7)
    batches = [np.sort(rng.uniform(lo, hi, 40)) for lo, hi in ((3e3, 1e5), (10.0, 2990.0))]
    batches.append(np.full(5, 4e4))
    for ts in batches:
        m = _kernels.line_terms(ts, ts)
        lnn, phase = _kernels._prime_phases(ts, m)
        ns = np.rint(np.exp(lnn))
        assert np.array_equal(phase == 0, ns[:, None] > m)


def test_riemann_siegel_chi_matches_chi_factor(chi_factor):
    # Stirling's series in float64 against mpmath's log-Gamma; the phase
    # t/2 log(t/2pi) is good to about one ulp of log f times t/2
    ts = _rs_points()
    for sigma in RS_SIGMAS:
        col = np.array([[sigma]])
        got = np.exp(_kernels._log_chi(col, ts, _kernels._theta0(ts)))[0]
        for value, t in zip(got, ts):
            ref = complex(chi_factor(mpc(sigma, t)))
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


def test_line_zeta_route_per_node(monkeypatch):
    # each node takes the route and the Euler-Maclaurin cutoff of its own
    # t, so a mixed, unsorted batch gives every node its value alone to the
    # rounding of the main sums' product, and Riemann-Siegel never sees a t
    # below RS_T_MIN. Relative to the node's largest value over the lines:
    # near a zero on the half line (t = 1329.05, |zeta| = 1.4e-3) the same
    # 6e-16 of rounding is 4.5e-13 of zeta itself
    seen = []
    riemann_siegel = _kernels._riemann_siegel

    def recorded(sig, ts):
        seen.append(ts.copy())
        return riemann_siegel(sig, ts)

    monkeypatch.setattr(_kernels, "_riemann_siegel", recorded)
    rng = np.random.default_rng(23)
    edges = [1.0, 2999.99, _kernels.RS_T_MIN, 3000.01, T_CEILING]
    ts = rng.permutation(np.concatenate([edges, 10.0 ** rng.uniform(0, 5, 40)]))
    got = _kernels.line_zeta(RS_SIGMAS, ts)
    alone = np.concatenate([_kernels.line_zeta(RS_SIGMAS, ts[i : i + 1]) for i in range(ts.size)], axis=1)
    assert np.all(np.abs(got - alone) <= 1e-14 * np.abs(alone).max(axis=0))
    assert len(seen) == 1 + np.count_nonzero(ts >= _kernels.RS_T_MIN)
    assert all(t.min() >= _kernels.RS_T_MIN for t in seen)


def test_line_terms():
    # phase rows of the longest node: the Euler-Maclaurin cutoff less one
    # below RS_T_MIN (49 at N = 50, 349 at t = 1000, 949 up to RS_T_MIN),
    # floor(sqrt(t / 2 pi)) from there on (21 at RS_T_MIN, 126 at T_CEILING)
    assert _kernels.line_terms(0.0, 100.0) == 49
    assert _kernels.line_terms(990.0, 1000.0) == 349
    assert _kernels.line_terms(2000.0, T_CEILING) == 949
    assert _kernels.line_terms(_kernels.RS_T_MIN, _kernels.RS_T_MIN) == 21
    assert _kernels.line_terms(_kernels.RS_T_MIN, T_CEILING) == 126
    # one array call, as moments makes for all its panels, gives the
    # scalar counts, also for a span across RS_T_MIN
    a = np.array([0.0, 990.0, 2000.0, 2999.5, _kernels.RS_T_MIN, 5.0e4])
    b = np.array([100.0, 1000.0, T_CEILING, 3000.5, T_CEILING, 5.0e4 + 7.0])
    scalar = [_kernels.line_terms(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert _kernels.line_terms(a, b).tolist() == scalar == [49, 349, 949, 949, 126, 89]


def test_euler_maclaurin_plans_bounded():
    # phase plans are cached per row count, and Euler-Maclaurin takes N - 1
    # rows with N a multiple of 50: a window over the whole route leaves at
    # most 19 plans (N = floor(0.3 t) + 2 per node would leave hundreds,
    # several MB of cache)
    _kernels._phase_plan.cache_clear()
    moments.hybrid_moment(0.0, 2990.0, 0.6, 2, 1e-3)
    assert 0 < _kernels._phase_plan.cache_info().currsize <= 19


def _traced_peak(route, sig, ts):
    route(sig, ts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        route(sig, ts)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("t_lo, t_hi, nodes", [(980.0, 1000.0, 147), (10.0, 140.0, 966)])
def test_euler_maclaurin_one_phase_array(t_lo, t_hi, nodes):
    # about one call's worth of nodes under moments' cell budget: 7 panels
    # of 21 at t = 1e3 (moments puts 6 in a call), 46 at N = 50. The main
    # sums take one complex128 phase array, zeroed past each node's cutoff,
    # and the tail one term at a time, about 20 B a live cell (22.3 B at
    # t = 1e3, where the nodes with N = 300 leave 50 dead rows of the 349);
    # all 28 tail terms held at once took 57 B at N = 50
    ts = np.linspace(t_lo, t_hi, nodes)
    peak = _traced_peak(_kernels._euler_maclaurin, np.array([0.5, 0.75]), ts)
    cells = (_kernels._em_cutoff(ts) - 1).sum()
    assert peak / cells <= 24.0, peak / cells


def test_riemann_siegel_one_phase_array():
    # the main sums take one complex128 phase array of nodes x m cells,
    # m = floor(sqrt(t / 2 pi)), and the boolean mask of its dead cells,
    # about 17 B a cell; separate float phase, cos and sin arrays, masked,
    # take about 42 B. 756 nodes are 36 panels of 21
    ts = np.linspace(T_CEILING - 100.0, T_CEILING, 756)
    peak = _traced_peak(_kernels._riemann_siegel, np.array([0.5, 0.75]), ts)
    cells = np.floor(np.sqrt(ts / (2 * math.pi))).sum()
    assert peak / cells <= 24.0, peak / cells


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


def _arias_de_reyna_matrix(sigma):
    # the correction weights at one sigma, by Arias de Reyna's recursion
    # (II, 3.17) run on numbers: row k, column r = 3k - 2l holds
    # d_k^l(sigma) / (pi^(2k-l) (2i)^l). Floats round every step; a Fraction
    # sigma runs it exactly and rounds once at the end.
    L = _kernels._RS_TERMS
    d = [[type(sigma)(1)]]
    for n in range(1, L):
        prev = d[-1]

        def at(k):
            return prev[k] if 0 <= k < len(prev) else 0

        row = []
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                row.append(-(m + 1) * at(k - 2) + at(k) / (4 * m) + (1 - 2 * sigma) / (2 * m) * at(k - 1))
            else:
                row.append(-sum((-1) ** (k - r) * row[r] * math.factorial(2 * (k - r)) / math.factorial(k - r)
                                for r in range(k)))
        d.append(row)
    out = np.zeros((L, 3 * L - 2), dtype=np.complex128)
    for k, row in enumerate(d):
        for ell, value in enumerate(row):
            out[k, 3 * k - 2 * ell] = float(value) / (math.pi ** (2 * k - ell) * (2j) ** ell)
    return out


def test_riemann_siegel_correction_table():
    # the import-time tables against the recursions they replace: the
    # weights, evaluated by Horner at x = 1 - 2 sigma and at -x, against
    # the per-sigma recursion in floats and in exact rationals, at sigma and
    # 1 - sigma for every RS_SIGMAS entry and 20 seeded sigma in [1/2, 1];
    # and the derivative series of F against numpy's polyder.
    # Each weight's error is measured against the largest weight of its
    # correction term: relative to the weight itself it is unbounded near a
    # root of d_k^l(sigma), for either float route. The l = 3k/2 weights
    # sum alternating factorials that cancel, so on this scale the float
    # recursion errs by up to 5.6e-15 from the exact weights (1.7e-13
    # relative to the weight), and the table by up to 1.1e-14 from either
    # recursion
    from fractions import Fraction

    rng = np.random.default_rng(23)
    worst = {float: 0.0, Fraction: 0.0}
    for sigma in RS_SIGMAS + rng.uniform(0.5, 1.0, 20).tolist():
        x = 1 - 2 * sigma
        for s, xs in ((sigma, x), (1 - sigma, -x)):
            got = np.polynomial.polynomial.polyval(xs, _kernels._AR_WEIGHTS, tensor=False)
            for kind in worst:
                ref = _arias_de_reyna_matrix(kind(s))
                assert np.array_equal(got != 0, ref != 0)
                scale = np.abs(ref).max(axis=1, keepdims=True)
                worst[kind] = max(worst[kind], float(np.max(np.abs(got - ref) / scale)))
    assert max(worst.values()) <= 3e-14
    series = np.zeros(2 * _kernels._F.size - 1, dtype=np.complex128)
    series[::2] = _kernels._F
    for r, row in enumerate(_kernels._F_DERIVS):
        ref = np.polynomial.polynomial.polyder(series, r)
        assert np.allclose(row[: ref.size], ref, rtol=1e-15, atol=0) and not row[ref.size :].any()


def test_euler_maclaurin_coefficient_table():
    # the float literals are B_2k/(2k)!, k = 1..28, at 30 digits, rounded
    # to float64
    from mpmath import bernoulli, factorial

    with workdps(30):
        ref = [float(bernoulli(2 * k) / factorial(2 * k)) for k in range(1, 29)]
    assert _kernels.EM_COEFFS.tolist() == ref


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

