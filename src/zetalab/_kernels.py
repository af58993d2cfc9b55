"""Hot numeric kernels: float64 zeta line batches, a prime-power sieve for
multiplicative tables, and a compensated running sum.

Each kernel has one numpy implementation. The zeta line batch takes one of
two routes by the size of t: Euler-Maclaurin below RS_T_MIN, Riemann-Siegel
from there on. Integer tables use exact int64 arithmetic.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Tail-correction coefficients B_2k/(2k)! for the float64 zeta batch,
# k = 1..EM_TERMS; values via 30-digit evaluation, far below float64 noise.
from mpmath import bernoulli as _bernoulli, gamma as _gamma, workdps as _workdps

EM_TERMS = 28

with _workdps(30):
    EM_COEFFS = np.array(
        [float(_bernoulli(2 * k) / _gamma(2 * k + 1)) for k in range(1, EM_TERMS + 1)]
    )


def line_zeta(sigmas, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t) for each sigma in sigmas and a batch of t >= 0.

    Returns one row per sigma, float64 throughout. A batch whose smallest t
    is at least RS_T_MIN = 3000 takes the Riemann-Siegel route, any other
    batch Euler-Maclaurin. Both build one phase matrix theta = log n * t,
    laid out n by t, for all rows: the main sums are W @ cos(theta) and
    W @ sin(theta), with rows of W the powers n^(-sigma_i) (and, for
    Riemann-Siegel, n^(sigma_i - 1)).

    Euler-Maclaurin: truncation N ~ 0.3 * max t and EM_TERMS = 28 tail
    terms. Each tail term is built from the one before, dividing by N^2 at
    every step, so no power of N overflows. sigma = 1 with t = 0 in the
    batch hits the pole.

    Riemann-Siegel: floor(sqrt(t / 2 pi)) terms per node (at most 126 up to
    T_CEILING), chi(s) from Stirling's series, and Arias de Reyna's
    correction terms for every sigma, as Taylor series in the fractional
    part of sqrt(t / 2 pi) (never the 0/0 quotient). Their count, 8, comes
    from his explicit remainder bound at RS_T_MIN. Measured costs for two
    lines of 21 nodes: Riemann-Siegel 0.25 to 0.5 ms at any t,
    Euler-Maclaurin 0.43 ms at t = 1e3, 2.2 ms at 1e4 and 27 ms at 1e5, so
    the routes cross near t = 1000; RS_T_MIN sits higher (see there).

    For sigma in [1/2, 1] and t up to T_CEILING = 1e5 the absolute error
    stays below 1e-12 + 1e-14 * t on both routes: the rounding of the phases
    t log n grows with t. Against mpmath.zeta, at most 2.7e-15 * t for
    Euler-Maclaurin (25 batched t in [1e2, 1e5], three lines) and
    1.3e-15 * t for Riemann-Siegel (47 batched t in [3e3, 1e5], five lines
    from 1/2 to 1), whose truncation is bounded by a quarter of the bound.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and float(np.min(ts)) >= RS_T_MIN:
        return _riemann_siegel(sig, ts)
    return _euler_maclaurin(sig, ts)


def _euler_maclaurin(sig: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t), one row per sigma; see line_zeta."""
    tmax = float(np.max(np.abs(ts))) if ts.size else 0.0
    N = max(50, int(0.3 * tmax) + 2)
    lnn = np.log(np.arange(1, N))
    theta = np.multiply.outer(lnn, ts)
    W = np.exp(-np.multiply.outer(sig, lnn))
    acc = W @ np.cos(theta) - 1j * (W @ np.sin(theta))
    s = sig[:, None] + 1j * ts
    NmS = np.exp(-s * math.log(N))
    acc += NmS * N / (s - 1.0)
    acc += NmS * 0.5
    # tail term k is term k-1 times (s + 2k - 3)(s + 2k - 2) / N^2
    k = np.arange(2, EM_TERMS + 1)[:, None, None]
    steps = (s + (2 * k - 3)) * (s + (2 * k - 2)) / (N * N)
    terms = np.cumprod(np.concatenate([(s * NmS / N)[None], steps]), axis=0)
    acc += np.tensordot(EM_COEFFS, terms, axes=1)
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

# The routes cost the same near t = 1000 (see line_zeta). RS_T_MIN sits
# above that, so the CLI's default window (t_hi = 1000) stays on
# Euler-Maclaurin; lowering it toward 1000 would save under 0.5 ms per
# two-line call in [1e3, 3e3], where no benchmark workload runs, and would
# take 10 correction terms instead of 8.
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


def _derivatives(coeffs: np.ndarray, count: int) -> np.ndarray:
    """Power-series coefficients of the r-th derivative, rows r < count."""
    n = coeffs.size
    # falling[r, j] = j (j - 1) ... (j - r + 1)
    steps = np.arange(n) - np.arange(count - 1)[:, None]
    falling = np.cumprod(np.vstack([np.ones(n), steps]), axis=0)
    out = np.zeros((count, n), dtype=coeffs.dtype)
    for r in range(count):
        out[r, : n - r] = (coeffs * falling[r])[r:]
    return out


def _even_series(even: np.ndarray) -> np.ndarray:
    full = np.zeros(2 * even.size - 1, dtype=even.dtype)
    full[::2] = even
    return full


# row r: power series of F^(r)(z), r = 0..3(L - 1)
_F_DERIVS = _derivatives(_even_series(_F), 3 * _RS_TERMS - 2)


@functools.lru_cache(maxsize=64)
def _arias_de_reyna_matrix(sigma: float) -> np.ndarray:
    """Row k maps the F^(r)(p) to the k-th correction term.

    C_k(sigma, p) = sum_l d_k^l(sigma) F^(3k-2l)(p) / (pi^(2k-l) (2i)^l),
    with the d_k^l from Arias de Reyna's recursion (II, 3.17; mpmath's
    Rzeta_simul). Read-only, since the cache shares it.
    """
    L = _RS_TERMS
    d = [[1.0]]
    for n in range(1, L):
        prev = d[-1]

        def at(k):
            return prev[k] if 0 <= k < len(prev) else 0.0

        row: list = []
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
            out[k, 3 * k - 2 * ell] = value / (math.pi ** (2 * k - ell) * (2j) ** ell)
    out.flags.writeable = False
    return out


# fdlibm's splits of log 2 and pi/2 (times 4), and log 2 pi split alike:
# the high parts have 32 or 33 bits, so small multiples of them are exact.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LOG_2PI_HI, _LOG_2PI_LO = 1.8378770663402975, 6.90480230046292e-11
_TWO_PI_HI, _TWO_PI_LO = 6.28318530693650245668e00, 2.43084020260247689973e-10
# Bernoulli numbers B_2, B_4, B_6 for Stirling's series
_STIRLING = ((1, 1 / 6), (2, -1 / 30), (3, 1 / 42))


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    # Dekker's product: p + e == a * b exactly, by 26-bit halves
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _theta0(ts: np.ndarray) -> np.ndarray:
    """t/2 log(t/2pi) - t/2 - pi/8 modulo 2 pi, for t > 0.

    The value is about 5e5 at t = 1e5, and in plain float64 its rounding
    (up to 1.4e-10) is a phase error of the whole chi(s) sum_n n^(s-1)
    term, scaled by that sum, which can be far above 1: on 20,000 sampled
    t in [3e3, 1e5] it moved the route by up to 2.3e-14 * t, over the
    documented bound of line_zeta. Here
    log(t/2pi) = (e log 2 - log 2pi) + log f for t = f 2^e with f in
    [1/sqrt 2, sqrt 2): the first part is exact in the high halves of the
    constants, both products with t/2 are exact (Dekker) and the reduction
    is Cody-Waite, so what is left is the rounding of log f, at most about
    3e-17 t.
    """
    f, e = np.frexp(ts)
    low = f < math.sqrt(0.5)
    f, e = np.where(low, 2 * f, f), np.where(low, e - 1, e)
    h = 0.5 * ts
    big, err1 = _two_prod(h, e * _LN2_HI - _LOG_2PI_HI)
    small, err2 = _two_prod(h, e * _LN2_LO - _LOG_2PI_LO + np.log(f))
    big, err3 = _two_sum(big, small)
    big, err4 = _two_sum(big, -h)
    k = np.rint(big / _TWO_PI_HI)
    return (big - k * _TWO_PI_HI) - k * _TWO_PI_LO + ((err1 + err2 + err3 + err4) - math.pi / 8)


def _log_chi(sig: np.ndarray, ts: np.ndarray, th0: np.ndarray) -> np.ndarray:
    """log chi(s), chi(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), given
    th0 = _theta0(ts).

    With z1 = (1-s)/2 = (-it/2)(1 + i(1-sigma)/t) and
    z2 = s/2 = (it/2)(1 - i sigma/t), Stirling's series for both log Gamma
    terms gives (1/2 - sigma) log(t/2pi) - 2i theta0(t) plus small terms,
    O(1/t), summed here: the large ones cancel exactly instead of in
    rounding. Three Stirling terms: at |z| >= RS_T_MIN/2 the next is below
    1e-26.
    """
    y1, y2 = (1 - sig) / ts, sig / ts
    out = (-0.5 * sig - 0.5j * ts) * (0.5 * np.log1p(y1 * y1) + 1j * np.arctan(y1))
    out -= (0.5 * (sig - 1) + 0.5j * ts) * (0.5 * np.log1p(y2 * y2) - 1j * np.arctan(y2))
    out += sig - 0.5
    for z, sign in ((0.5 * (1 - sig - 1j * ts), 1.0), (0.5 * (sig + 1j * ts), -1.0)):
        w = 1.0 / z
        w2 = w * w
        series = 0.0
        for k, b in reversed(_STIRLING):
            series = series * w2 + b / (2 * k * (2 * k - 1))
        out += sign * w * series
    return out + (0.5 - sig) * np.log(ts / (2 * math.pi)) - 2j * th0


def _riemann_siegel(sig: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t), one row per sigma, for t >= RS_T_MIN; see line_zeta."""
    a = np.sqrt(ts / (2 * math.pi))
    m = np.floor(a)
    n = np.arange(1.0, m.max() + 1.0)
    lnn = np.log(n)
    theta = np.multiply.outer(lnn, ts)
    live = n[:, None] <= m
    cos_t = np.where(live, np.cos(theta), 0.0)
    sin_t = np.where(live, np.sin(theta), 0.0)
    # rows n^-sigma_i, then n^(sigma_i - 1)
    W = np.exp(np.multiply.outer(np.concatenate([-sig, sig - 1.0]), lnn))
    c, s = W @ cos_t, W @ sin_t
    R = sig.size
    col = sig[:, None]
    th0 = _theta0(ts)
    log_chi = _log_chi(col, ts, th0)
    chi = np.exp(log_chi)
    out = (c[:R] - 1j * s[:R]) + chi * (c[R:] + 1j * s[R:])
    # Arias de Reyna: zeta(s) = R(s) + chi(s) conj(R(1 - conj s)), each R
    # gaining (-1)^(m-1) U a^-sigma sum_k C_k(sigma, p) a^-k, with
    # p = 1 - 2(a - m) and U = exp(-i theta0)
    powers = np.vander(1 - 2 * (a - m), _F_DERIVS.shape[1], increasing=True)
    derivs = _F_DERIVS @ powers.T
    inv_a = a ** -np.arange(_RS_TERMS)[:, None]
    U = np.where(m % 2 == 1, 1.0, -1.0) * np.exp(-1j * th0)
    for i, sigma in enumerate(sig.tolist()):
        Sx = ((_arias_de_reyna_matrix(sigma) @ derivs) * inv_a).sum(axis=0)
        Sy = ((_arias_de_reyna_matrix(1.0 - sigma) @ derivs) * inv_a).sum(axis=0)
        out[i] += U * a**-sigma * Sx + chi[i] * np.conj(U * Sy) * a ** (sigma - 1)
    return out


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
