"""Hot numeric kernels: float64 zeta line and point batches, a prime-power
sieve for multiplicative tables, and a compensated running sum.

Each kernel has one numpy implementation. The zeta line batch takes each
node by one of two routes, by the size of its t: Euler-Maclaurin below
RS_T_MIN, Riemann-Siegel from there on. The point batch takes offsets u
from the pole and returns zeta(1 + u) by Euler-Maclaurin, with the same
tail. Integer tables use exact int64 arithmetic.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np

# Tail-correction coefficients B_2k/(2k)! for the float64 zeta batch,
# k = 1..28: float64 roundings of 30-digit mpmath values
# (tests/test_kernels.py derives them again).
EM_COEFFS = np.array([
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45])


def line_zeta(sigmas, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t) for each sigma in sigmas and a batch of t >= 0.

    Returns one row per sigma, float64 throughout. Each node takes the
    route and the number of terms of its own t, so its value does not
    depend on the batch beyond rounding: Euler-Maclaurin below RS_T_MIN =
    3000, Riemann-Siegel from there on. Both take their main sums from
    _power_sums: one complex array of the phases n^(-it), laid out n by t
    and zero past each node's last term (line_terms bounds the rows), and
    one product with the powers n^x, x = -sigma_i (and, for Riemann-Siegel,
    also sigma_i - 1), for all rows at once. Both build that array by
    _prime_phases: sin and cos for 1 and the primes only, each other row a
    product of two (_phase_plan, cached per row count).

    Euler-Maclaurin: truncation N for each node, the least multiple of 50
    above 0.3 * t + 1 (_em_cutoff), and 28 tail terms (_add_em_tail).
    sigma = 1 with t = 0 hits the pole.

    Riemann-Siegel: floor(sqrt(t / 2 pi)) terms per node (at most 126 up to
    T_CEILING); chi(s) from Stirling's series, and Arias de Reyna's
    zeta(s) = R(s) + chi(s) conj(R(1 - conj s)), his corrections added to
    both R rows before the one combination. They are Taylor series in the
    fractional part of sqrt(t / 2 pi) (never the 0/0 quotient): 8 by his
    explicit remainder bound at RS_T_MIN, of which 7 survive the degree cut
    of _folded_series, one table of polynomials in that fraction and in
    sigma built at import. On one core of a 2-core x86_64 host, two lines
    of 21 nodes take 0.12 to 0.18 ms on Riemann-Siegel at any t, and 0.20,
    0.30 and 0.42 ms on Euler-Maclaurin at t = 1e2, 1e3 and 2990. In the
    two-line batches of moments a node costs 1.4, 5.0 and 14 us there (630,
    126 and 42 nodes), and 1.0, 0.92 and 1.7 us at t = 3e3, 1e4 and 1e5
    (2,163, 1,197 and 378 nodes).

    For sigma in [1/2, 1] and t up to T_CEILING = 1e5 the absolute error
    stays below 1e-12 + 1e-14 * t on both routes: the rounding of the phases
    t log n grows with t, and each composite row carries its prime factors'
    roundings. Against mpmath.zeta, at most 1.6e-15 * t for
    Euler-Maclaurin (120 seeded t in [1e2, 3e3), three lines) and
    3.1e-15 * t for Riemann-Siegel (20,000 seeded t in [3e3, 1e5] on the
    lines 1/2, 3/4 and 1), whose truncation takes a quarter of the bound.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    rs = ts >= RS_T_MIN
    if rs.all() or not rs.any():  # one route: the batch as it is
        return _riemann_siegel(sig, ts) if rs.any() else _euler_maclaurin(sig, ts)
    out = np.empty((sig.size, ts.size), dtype=np.complex128)
    out[:, rs], out[:, ~rs] = _riemann_siegel(sig, ts[rs]), _euler_maclaurin(sig, ts[~rs])
    return out


def _euler_maclaurin(sig: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t), one row per sigma; see line_zeta."""
    N = _em_cutoff(ts)
    acc = _power_sums(-sig, *_prime_phases(ts, N - 1))
    s = sig[:, None] + 1j * ts
    return _add_em_tail(acc, s, s - 1.0, N)


def _power_sums(rows: np.ndarray, lnn: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sum_n n^(x_i) n^(-it) for each x_i in rows and each t, over the n whose
    logs are lnn and phases the rows of phase, by one real product."""
    return (np.exp(np.multiply.outer(rows, lnn)) @ phase.view(np.float64)).view(np.complex128)


def point_zeta(u) -> np.ndarray:
    """zeta(1 + u) for an array of complex offsets u, float64 throughout.

    The Euler-Maclaurin route of line_zeta for arbitrary points: the sum of
    n^(-s) over n < N, N = _em_cutoff(max |Im u|), and the same tail. The
    pole term divides by u itself: rounding s = 1 + u first would cost
    about eps / |u| relative near the pole. u = 0 hits the pole.
    divisors.main_terms evaluates its check contours with it: against
    40-digit mpmath.zeta(1 + u) at every node of those circles for shifts a
    from 1e-12 to 0.4999 (Re s from 0.25 to 1.625, |Im u| <= 1/4, so
    N = 50), the relative error is at most 1.0e-14 (tests/test_kernels.py
    bounds it).
    """
    u = np.asarray(u, dtype=np.complex128)
    s = 1.0 + u
    N = int(_em_cutoff(u.imag).max(initial=50))
    acc = np.exp(-np.multiply.outer(s, np.log(np.arange(1, N)))).sum(axis=-1)
    return _add_em_tail(acc, s, u, N)


def _em_cutoff(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin truncation N for each t: the least multiple of 50
    above 0.3 * |t| + 1, so at least 50, and 19 values below RS_T_MIN, each
    one _phase_plan of N - 1 rows."""
    return 50 * ((0.3 * np.abs(ts) + 1.0) // 50).astype(np.int64) + 50


def line_terms(a, b):
    """The most terms, rows of its phase array, that line_zeta takes for a
    node t in [a, b], elementwise over arrays of ends: N - 1 below RS_T_MIN,
    floor(sqrt(t / 2 pi)) above."""
    em = np.where(a < RS_T_MIN, _em_cutoff(np.minimum(b, RS_T_MIN)) - 1, 0)
    rs = np.where(b >= RS_T_MIN, np.floor(np.sqrt(b / (2.0 * math.pi))), 0.0)
    return np.maximum(em, rs.astype(np.int64))


def _add_em_tail(acc: np.ndarray, s: np.ndarray, sm1: np.ndarray, N) -> np.ndarray:
    """Add to acc, the sums of n^(-s) over n < N, the rest of zeta(s):
    N^(1-s)/(s-1) + N^(-s)/2 and 28 tail terms, with s - 1 given as sm1
    and N one int or one per column of s. Each tail term is built from the
    one before, dividing by N^2 at every step, so no power of N overflows,
    and the terms are summed in order, with no BLAS call."""
    NmS = np.exp(-s * np.log(N))
    acc += NmS * N / sm1
    acc += NmS * 0.5
    # tail term k is term k-1 times (s + 2k - 3)(s + 2k - 2) / N^2
    term = s * NmS / N
    tail = EM_COEFFS[0] * term
    for k, c in enumerate(EM_COEFFS[1:], start=2):
        term = term * ((s + (2 * k - 3)) * (s + (2 * k - 2)) / (N * N))
        tail += c * term
    acc += tail
    return acc


# --- Riemann-Siegel route ---------------------------------------------------
#
# With a = sqrt(t / 2 pi), m = floor(a) and s = sigma + i t,
#   zeta(s) = sum_{n<=m} n^-s + chi(s) sum_{n<=m} n^(s-1) + (corrections),
# where the corrections are Arias de Reyna's (2011) series in 1/a, on and
# off the line, whose terms are functions of the fractional part a - m.

# F(z) = sum_j _F[j] z^(2j), for Arias de Reyna's
# F(z) = (exp(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z / 2)) / (2 cos(pi z)),
# which is entire: the quotient form is 0/0 at z = +-1/2 and is never used
# (Arias de Reyna 2011, I, eq. 47; mpmath's rszeta.coef). The table holds
# float64 roundings of 80-digit mpmath Taylor coefficients
# (tests/test_kernels.py derives them again), cut where the omitted tail
# stays below 1e-17 in every correction term used from RS_T_MIN on.
_F = np.array([
    0.1913417161825449 - 0.24516701493090415j, 0.21862023403876021 - 0.036933834884962956j,
    0.06618828774017176 + 0.06353439385614602j, -0.006802513023837094 + 0.027223912663570066j,
    -0.0067838109850517905 + 0.001385760877106652j, -0.0008118626615722327 - 0.001189449446101378j,
    0.00014852676866689845 - 0.00021269820192893323j, 3.971650439760735e-05 + 1.1171327401990151e-05j,
    2.3278062307252252e-07 + 5.87285839865207e-06j, -7.163625815477553e-07 + 2.498212552923518e-07j,
    -5.177423556156473e-08 - 7.308700305101552e-08j, 6.178963541930869e-09 - 7.53679144816402e-09j,
    8.940541928977453e-10 + 4.1044257973312284e-10j, -1.695707194963518e-11 + 9.106559550294084e-11j,
    -8.163316951282953e-12 + 4.3480990952496187e-13j, -1.8925546592706103e-13 - 6.52091326154013e-13j,
    4.6637116296008625e-14 - 2.574698839194822e-14j, 2.6109215079890685e-15 + 2.9783351960862874e-15j,
    -1.675336536372132e-16 + 2.241756964196517e-16j, -1.7062132614058632e-17 - 7.993661378773457e-18j,
    2.8756016707161996e-19 - 1.1768943516467545e-18j, 7.447650681605753e-20 + 3.424141569957982e-21j,
    6.282686358510708e-22 + 4.354432465678006e-21j, -2.360647625071713e-22 + 8.042677010875067e-23j,
    -6.63453468151981e-24 - 1.187404814328495e-23j, 5.526719997560709e-25 - 4.533873522499421e-25j])

# In moments' batches a panel costs 0.10 ms at t = 1e3 and 0.29 ms just
# below RS_T_MIN on Euler-Maclaurin, 0.02 to 0.04 ms on Riemann-Siegel
# (line_zeta): lowering RS_T_MIN toward 1000 would save that in [1e3, 3e3],
# where no benchmark workload runs, but take 10 correction terms, not 8.
RS_T_MIN = 3000.0
# Truncation budget: a quarter of the documented error bound at RS_T_MIN;
# rounding takes the rest. Every remainder bound below falls with t faster
# than the documented bound grows, so the term counts fixed at RS_T_MIN
# hold up to any t.
_RS_BUDGET = 0.25 * (1e-12 + 1e-14 * RS_T_MIN)
_RS_A_MIN = math.sqrt(RS_T_MIN / (2 * math.pi))


def _arias_de_reyna_bound(L: int, a: float) -> float:
    """Bound on the error of the corrections cut after L terms.

    The bound is Arias de Reyna's (2011) on the tail of R(s) after L
    terms, in the form mpmath's Rzeta_simul applies it:
    3 c Gamma(L/2) (b a)^-L a^-sigma, with b = 2 and
    c = 9^sigma / (sqrt(2) pi) for sigma > 0, and b = 2.25,
    c = 1 / (sqrt(2) pi) at sigma = 0. zeta(s) = R(s) + chi(s) R(1 - s)*
    takes it for sigma and for 1 - sigma, the latter scaled by
    |chi(s)| <= 1.01 a^(1 - 2 sigma); over sigma in [1/2, 1] both parts
    are largest at sigma = 1/2.
    """
    return 2.01 * 3 * (3 / (math.sqrt(2) * math.pi)) * math.gamma(L / 2) / (2 * a) ** L / math.sqrt(a)


_RS_TERMS = next(L for L in range(2, 40) if _arias_de_reyna_bound(L, _RS_A_MIN) <= _RS_BUDGET)


def _correction_tables(L: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of the L correction terms that no node and no sigma changes.

    derivs[r, j] is the coefficient of z^j in F^(r)(z), r < 3L - 2 (F holds
    only even powers). The k-th correction term is
    C_k(sigma, p) = sum_l d_k^l(sigma) F^(3k-2l)(p) / (pi^(2k-l) (2i)^l),
    with the d_k^l from Arias de Reyna's recursion (II, 3.17; mpmath's
    Rzeta_simul). Each d_k^l is a polynomial of degree at most k in
    x = 1 - 2 sigma, so the recursion runs once, on coefficient vectors, and
    weights[j, k, r] is the coefficient of x^j in the weight of F^(r)(p) in
    C_k. sigma -> 1 - sigma is x -> -x.
    """
    R, n = 3 * L - 2, 2 * _F.size - 1
    series = np.zeros(n + R, dtype=np.complex128)  # zero past z^(n - 1)
    series[:n:2] = _F
    # falling[r, j] = j (j - 1) ... (j - r + 1); F^(r) has z^i from z^(i + r)
    falling = np.ones((R, n + R))
    np.cumprod(np.arange(n + R) - np.arange(R - 1)[:, None], axis=0, out=falling[1:])
    r = np.arange(R)[:, None]
    derivs = (series * falling)[r, np.arange(n) + r]
    # e[k, 3 + r, j]: coefficient of x^j in d_k^l, r = 3k - 2l. Indexed by r,
    # the recursion reads entries r + 1, r - 3 and r - 1 of row k - 1, and
    # its m is r; entries with r < 0, r > 3k or r - k odd stay zero, so each
    # row runs over every r. At r = 0 it sums the row's other entries, from
    # the largest r down, times alt[r] = (-1)^(r/2) r! / (r/2)! (even r).
    e = np.zeros((L, R + 4, L))
    e[0, 3, 0] = 1.0
    alt = np.array([(-1) ** (q // 2) * math.perm(q, q // 2) * (q % 2 == 0) for q in range(R)], dtype=np.float64)
    r = np.arange(1, R)[:, None]
    for k in range(1, L):
        prev = e[k - 1]
        e[k, 4 : R + 3] = -(r + 1) * prev[5 : R + 4] + prev[1:R] / (4 * r)
        e[k, 4 : R + 3, 1:] += prev[3 : R + 2, :-1] / (2 * r)
        e[k, 3] = -(alt[:0:-1, None] * e[k, R + 2 : 3 : -1]).sum(axis=0)
    # divided by pi^(2k-l) (2i)^l, with 2k - l = (k + r)/2 and 1/(2i) = -i/2
    k, r = np.arange(L)[:, None, None], np.arange(R)[:, None]
    scaled = e[:, 3 : R + 3] / np.pi ** ((k + r) // 2) * (-0.5j) ** ((3 * k - r) // 2)
    weights = np.ascontiguousarray(scaled.transpose(2, 0, 1))
    return derivs, weights


_F_DERIVS, _AR_WEIGHTS = _correction_tables(_RS_TERMS)


def _folded_series(derivs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """series[j, k, i]: the coefficient of p^j (1 + 2x)^i in C_k, each term
    cut to the degree in p past which its tail is negligible. For |p| <= 1
    and sigma, 1 - sigma in [0, 1], the coefficients' moduli from p^j on,
    times a^-k at RS_T_MIN, bound the tail; each of the L terms takes an
    L-th of what _RS_TERMS leaves of the budget. That keeps degrees 28, 27,
    26, 25, 22, 17, 12 of 50, and no C_7."""
    L = weights.shape[1]
    series = np.einsum("ikr,rj->jki", weights, derivs)
    bound = np.abs(series).sum(axis=2) / _RS_A_MIN ** np.arange(L)
    share = (_RS_BUDGET - _arias_de_reyna_bound(L, _RS_A_MIN)) / L
    series[np.cumsum(bound[::-1], axis=0)[::-1] <= share] = 0.0
    J, K = (np.flatnonzero(series.any(axis=axes))[-1] + 1 for axes in ((1, 2), (0, 2)))
    return series[:J, :K]


_AR_SERIES = _folded_series(_F_DERIVS, _AR_WEIGHTS)


# fdlibm's splits of log 2 and pi/2 (times 4), and log 2 pi split alike:
# the high parts have 32 or 33 bits, so small multiples of them are exact.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LOG_2PI_HI, _LOG_2PI_LO = 1.8378770663402975, 6.90480230046292e-11
_TWO_PI_HI, _TWO_PI_LO = 6.28318530693650245668e00, 2.43084020260247689973e-10


def _split(x):
    # Veltkamp: the high 26 bits of x; x less them fits in 26 bits too
    c = 134217729.0 * x
    return c - (c - x)


def _theta0(ts: np.ndarray) -> np.ndarray:
    """t/2 log(t/2pi) - t/2 - pi/8 modulo 2 pi, for t > 0.

    The value is about 5e5 at t = 1e5, and in plain float64 its rounding
    (up to 1.4e-10) is a phase error of the whole chi(s) sum_n n^(s-1)
    term, scaled by that sum, which can be far above 1: on 20,000 sampled
    t in [3e3, 1e5] it moved the route by up to 2.3e-14 * t, over the
    documented bound of line_zeta. Here theta0 = h B - pi/8, h = t/2 and
    B = (e log 2 - log 2pi - 1) + log f for t = f 2^e, f in [1/sqrt 2,
    sqrt 2): the first part is exact in the high halves of the constants,
    B's high 26 bits times both halves of h (_split) are exact, the larger
    product is reduced by Cody-Waite, and h times the rest of B is below 1.
    What is left is the rounding of log f, at most about 3e-17 t.
    """
    h = 0.5 * ts
    e = np.frexp(ts * math.sqrt(0.5))[1]
    big = e * _LN2_HI - (_LOG_2PI_HI + 1.0)
    small = e * _LN2_LO - _LOG_2PI_LO + np.log(np.ldexp(ts, -e))
    Bh = _split(big + small)
    hh = _split(h)
    P = hh * Bh
    k = np.rint(P * (0.5 / math.pi))
    return (P - k * _TWO_PI_HI) + (((h - hh) * Bh + h * ((big - Bh) + small)) - (k * _TWO_PI_LO + math.pi / 8))


# Stirling's series for both log Gamma terms of log chi(sigma + it) leaves,
# past its leading terms, sum_k i^k B_(k+1)(sigma) / (k (k+1) t^k) with B_n
# the Bernoulli polynomials. Row k - 1 holds term k's coefficients of
# sigma^0, sigma^1, ...; from RS_T_MIN on, terms past 4 are below 1e-20.
_CHI_SERIES = np.array([[1j**k * math.comb(k + 1, j) * (1, -1 / 2, 1 / 6, 0, -1 / 30, 0)[k + 1 - j] / (k * k + k)
                         if j <= k + 1 else 0.0 for j in range(6)] for k in range(1, 5)])


def _log_chi(sig: np.ndarray, ts: np.ndarray, th0: np.ndarray) -> np.ndarray:
    """log chi(s), chi(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), given
    th0 = _theta0(ts) and sig as a column: (1/2 - sigma) log(t/2pi) -
    2i theta0(t) and the series _CHI_SERIES in 1/t, as one product with the
    powers of 1/t, so the large terms of Stirling's series cancel exactly
    instead of in rounding.
    """
    u = np.cumprod(np.broadcast_to(1.0 / ts, (4, ts.size)), axis=0)
    out = sig ** np.arange(6) @ _CHI_SERIES.T @ u
    out += (0.5 - sig) * np.log(ts / (2 * math.pi))
    out.imag -= 2 * th0
    return out


@lru_cache(maxsize=None)
def _phase_plan(M: int):
    """n and log n for the rows n = 1..M of a phase array of either route,
    the count of its first rows, 1 and the primes p <= M, and the steps that
    build the rest: for c = 2, 3, ..., the rows c p for the primes p from
    gpf(c), c's largest prime factor, up to M / c, each n once as n / gpf(n)
    times gpf(n). A step (first row, end, row of c, first prime row, end) is
    the product of c's row (built before it) and a run of prime rows."""
    primes = _primes_upto(M).tolist()
    ns = [1] + primes
    row, gpf, steps = {n: i for i, n in enumerate(ns)}, dict(zip(primes, primes)), []
    for c in range(2, M // 2 + 1):
        lo, hi = bisect.bisect_left(primes, gpf[c]) + 1, bisect.bisect_right(primes, M // c) + 1
        if lo < hi:
            steps.append((len(ns), len(ns) + hi - lo, row[c], lo, hi))
            for p in primes[lo - 1 : hi - 1]:
                row[c * p], gpf[c * p] = len(ns), p
                ns.append(c * p)
    ns = np.array(ns, dtype=np.float64)
    return ns, np.log(ns), len(primes) + 1, steps


def _prime_phases(ts: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log n and the phase array of n^(-it), n <= m(t), zero for n > m(t),
    with the rows in the order of _phase_plan(max m): sin and cos for 1 and
    the primes, one product for each other row."""
    top = int(m.max(initial=0))
    ns, lnn, k, steps = _phase_plan(top)
    phase = np.empty((ns.size, ts.size), dtype=np.complex128)
    # rows 1 and p: sin and cos of -t log n in place (as np.exp would)
    head = phase[:k]
    np.multiply.outer(lnn[:k], -ts, out=head.real)
    np.sin(head.real, out=head.imag)
    np.cos(head.real, out=head.real)
    for lo, hi, c, p0, p1 in steps:
        np.multiply(phase[p0:p1], phase[c], out=phase[lo:hi])
    # only the rows n > min m can hold dead cells (none when m is constant)
    rows = np.flatnonzero(ns > m.min(initial=top))
    if rows.size:
        r, c = np.nonzero(ns[rows, None] > m)
        phase[rows[r], c] = 0.0
    return lnn, phase


def _riemann_siegel(sig: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t), one row per sigma, for t >= RS_T_MIN; see line_zeta."""
    a = np.sqrt(ts / (2 * math.pi))
    m = np.floor(a)
    # Arias de Reyna: zeta(s) = R(s) + chi(s) conj(R(1 - conj s)). Row x of
    # out is R at real part -x (x = -sigma_i, then sigma_i - 1): the sum of
    # n^x n^(-it) over n <= m plus (-1)^(m-1) U a^x sum_k C_k(-x, p) a^-k,
    # with p = 1 - 2(a - m) and U = exp(-i theta0)
    x = np.concatenate([-sig, sig - 1.0])
    out = _power_sums(x, *_prime_phases(ts, m))
    # each term's polynomial in p at each x, from one real product of their
    # coefficients with the powers p^j (those below 2k from those below k,
    # k = 2, 4, ...); then the sum over k with the a^-k
    J, L, d = _AR_SERIES.shape
    coeffs = _AR_SERIES.reshape(J * L, d) @ (1 + 2 * x) ** np.arange(d)[:, None]
    powers = np.empty((J, ts.size))
    powers[0], powers[1] = 1.0, 1 - 2 * (a - m)
    for k in (2 ** i for i in range(1, (J - 1).bit_length())):
        np.multiply(powers[: min(k, J - k)], powers[k - 1] * powers[1], out=powers[k : 2 * k])
    terms = (powers.T @ coeffs.view(np.float64).reshape(J, -1)).reshape(ts.size, L, -1)
    S = np.matmul((a[:, None] ** -np.arange(L))[:, None], terms)[:, 0].view(np.complex128).T
    th0 = _theta0(ts)
    out += np.where(m % 2 == 1, 1.0, -1.0) * np.exp(-1j * th0) * a ** x[:, None] * S
    return out[: sig.size] + np.exp(_log_chi(sig[:, None], ts, th0)) * np.conj(out[sig.size :])


def _primes_upto(N: int) -> np.ndarray:
    """Primes <= N, ascending, by the sieve of Eratosthenes."""
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def multiplicative_table(N: int, local, dtype) -> np.ndarray:
    """Table of a multiplicative function f on 0..N (f[0] = 0, f[1] = 1).

    local(p, vmax) gives f(p^v) for v = 0..vmax along its first axis; p is
    one prime, or an array of primes with vmax = 1. A prime p <= sqrt(N)
    divides n = m*p to the power 1 + v_p(m): that exponent is built as int8
    over the multiples of p and looked up in local(p, vmax). A prime
    p > sqrt(N) divides each of its multiples m*p exactly once and m < p, so
    the large primes are applied together, one gather per cofactor m.
    Integer dtypes stay exact while every value fits; float tables multiply
    the prime-power factors of n in ascending p.
    """
    f = np.ones(N + 1, dtype=dtype)
    f[0] = 0
    primes = _primes_upto(N)
    split = int(np.searchsorted(primes, math.isqrt(N), side="right"))
    for p in primes[:split].tolist():
        v = np.ones(N // p, dtype=np.int8)  # exponent of p in (i+1)*p
        q = p
        while q <= N // p:
            v[q - 1 :: q] += 1
            q *= p
        lut = np.asarray(local(p, int(v.max())), dtype=dtype)
        f[p::p] *= lut[v]
    large = primes[split:]
    if large.size:
        g = np.broadcast_to(np.asarray(local(large, 1), dtype=dtype)[1], large.shape)
        for m in range(1, N // int(large[0]) + 1):
            c = int(np.searchsorted(large, N // m, side="right"))
            f[m * large[:c]] *= g[:c]
    return f


RUN_BLOCK = 1 << 12


def running_sum(x: np.ndarray) -> np.ndarray:
    """Compensated cumulative sum, by np.cumsum over blocks of RUN_BLOCK.

    Each step of a cumsum rounds s[i-1] + x[i] to s[i]; the rounding error
    (s[i-1] + x[i]) - s[i] is exact in float64 (Knuth's TwoSum), so its own
    running sum, added back, leaves one rounding per entry, as a Kahan loop
    does. Each block starts from the previous block's last sum, and the
    errors carry over.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    hi = lo = 0.0
    for start in range(0, x.shape[0], RUN_BLOCK):
        block = x[start : start + RUN_BLOCK]
        s = np.cumsum(np.concatenate(([hi], block)))
        prev, cur = s[:-1], s[1:]
        b = cur - prev
        err = (prev - (cur - b)) + (block - b)
        corr = np.cumsum(err)
        corr += lo
        np.add(cur, corr, out=out[start : start + RUN_BLOCK])
        hi, lo = float(cur[-1]), float(corr[-1])
    return out
