"""Weighted divisor tables, their summatory functions, Perron-style main
terms from Laurent series, and the resulting error terms.

The weighted divisor function here is the Dirichlet convolution of the
4-dimensional divisor counts with ell-dimensional counts damped by e^(-a):
its generating series is zeta(s)^4 * zeta(s+a)^ell, so it is
multiplicative, and its table, like the divisor-count tables, comes from
the prime-power sieve in _kernels; a ledger holds that one table and its
running summatory. Main terms come from
the residues of that series times X^s/s at s = 1 (pole of order 4) and
s = 1 - a (pole of order ell), read off products of truncated power series
of zeta around each pole and checked in float64 against one contour per
pole, whose zeta values come from one vectorised call. The series of zeta
come from its Laurent series at 1 alone: one cached Euler-Maclaurin pass
gives the regular part (the Stieltjes constants), and a Taylor shift of it
plus the pole gives the coefficients at 1 +- a (_zeta_series). The error
term, the exact summatory minus both main terms, is one numpy pass over all X.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from mpmath import mp, mpc, mpf, workdps, workprec

from . import _kernels
from .errors import CeilingError, DomainError, PrecisionError, complex_arg, int_arg, real_arg, reals_arg
from .zetanum import _MP_LOCK, zeta_eval

N_CEILING = 50_000_000
CONTOUR_NODES = 64
CONTOUR_REL_TOL = 1.0e-8
TREND_EXPONENT = 0.55  # error_trend's column |E|/X^(1/2+eps), at eps = 0.05

_DPS = 30  # working digits of the main terms; 60 give the same float64s up to pole order 146


# The first ten primes; their product 6469693230 exceeds N_CEILING.
_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _largest_divisor_count(k: int, N: int, i: int = 0, cap: int = 64) -> int:
    """Largest d_k(n) over n <= N built from _FIRST_PRIMES[i:] with every
    exponent at most cap (2^64 exceeds any table length).

    d_k(n) depends only on the exponents of n, and moving larger exponents
    onto smaller primes keeps n <= N, so the maximum over all n <= N is
    reached at n = 2^v1 3^v2 5^v3 ... with v1 >= v2 >= ...: a short walk.
    """
    best = 1
    if i == len(_FIRST_PRIMES):
        return best
    p = _FIRST_PRIMES[i]
    q, v = p, 1
    while q <= N and v <= cap:
        rest = _largest_divisor_count(k, N // q, i + 1, v)
        best = max(best, math.comb(v + k - 1, k - 1) * rest)
        q *= p
        v += 1
    return best


def _check_table_size(N: int, k: int, limit: float, what: str) -> int:
    """int_arg("N", N); CeilingError above N_CEILING or when some d_k(n),
    n <= N, exceeds limit (what names it)."""
    N = int_arg("N", N)
    if N > N_CEILING:
        raise CeilingError(f"N = {N} exceeds the table ceiling {N_CEILING}")
    if _largest_divisor_count(k, N) > limit:
        raise CeilingError(f"d_{k}(n) for n <= {N} exceeds {what}")
    return N


def sieve_divisor_counts(k: int, N: int) -> np.ndarray:
    """Table of k-dimensional divisor counts for n = 1..N (index 0 unused).

    d_k is multiplicative with d_k(p^v) = C(v+k-1, k-1); the prime-power
    sieve builds the table in exact int64 integers. Raises CeilingError
    when some d_k(n), n <= N, would not fit in int64.
    """
    k = int_arg("k", k)
    N = _check_table_size(N, k, np.iinfo(np.int64).max, "the int64 range of the table")
    counts = [math.comb(v + k - 1, k - 1) for v in range(N.bit_length())]
    return _kernels.multiplicative_table(
        N, lambda p, vmax: np.array(counts[: vmax + 1], dtype=np.int64), np.int64
    )


def _reals(X) -> tuple[np.ndarray, bool]:
    # X as a float64 array, and whether X was one real: a real goes in as a
    # one-element array, so it equals an array's entry bit for bit (0-d takes libm).
    # A ragged nesting has a shape as an object array, and reals_arg refuses it
    if np.ndim(X if hasattr(X, "ndim") else np.asarray(X, dtype=object)) == 0:
        return np.atleast_1d(real_arg("X", X)), True
    return np.asarray(reals_arg("Xs", X, "X"), dtype=np.float64), False


@dataclass
class DivisorLedger:
    """One table, the weighted values combined[n] for n <= N, and its
    running summatory."""

    ell: int
    a: float
    N: int
    combined: np.ndarray
    summatory: np.ndarray

    # Read only by perfbench's tracer, which sizes the ledger by them; they
    # go once that tracer reads the program's own counters (ROADMAP item 5).
    @property
    def d4_table(self) -> np.ndarray:
        """d_4(n) for n <= N, sieved on every read."""
        return sieve_divisor_counts(4, self.N)

    @property
    def dell_table(self) -> np.ndarray:
        """d_ell(n) for n <= N, sieved on every read."""
        return sieve_divisor_counts(self.ell, self.N)

    def summatory_at(self, X):
        """Sum of the weighted values over n <= X (0 below 1); an array at an array X."""
        xs, scalar = _reals(X)
        ok = (xs <= self.N) & np.isfinite(xs)
        if not ok.all():
            raise DomainError(f"X must be finite and at most the table ceiling N = {self.N}, got {xs[~ok][0]}")
        out = self.summatory[np.floor(np.maximum(xs, 0.0)).astype(np.intp)]  # [0] is the empty sum
        return float(out[0]) if scalar else out


def _ell_arg(ell, extra: Optional[int] = None) -> int:
    """int_arg("ell", ell). Given extra, ell sets a pole of order extra +
    ell, whose principal part _moments_to_coeffs divides by k! for k below
    the order; k! passes the float64 range at k = 171, so an order above
    171 raises CeilingError naming ell."""
    ell = int_arg("ell", ell)
    if extra is not None and extra + ell > 171:
        raise CeilingError(
            f"ell = {ell} gives a pole of order {extra + ell}, over 171: its "
            "coefficient of log^k X divides by k!, past the float64 range from k = 171"
        )
    return ell


def weighted_divisor_table(ell: int, a, N: int) -> DivisorLedger:
    """Ledger for the weighted convolution with shift a in [0, 1/2).

    combined[n] = sum over n = q*e of d4(q) * dell(e) * e^(-a). The
    function is multiplicative, so the prime-power sieve builds it from its
    local factor at p^v, sum over i of C(v-i+3, 3) C(i+ell-1, ell-1) p^(-a i)
    (4 + ell p^(-a) at a prime). At a = 0 every weight is 1, so the table
    holds the (4+ell)-dimensional divisor counts, exactly (integer-valued
    float64 products) while they stay at most 2^53. Every value is at most
    d_(4+ell)(n), so the call raises CeilingError when some d_(4+ell)(n),
    n <= N, passes 2^53 at a = 0, or the float64 range at a > 0.
    """
    ell = _ell_arg(ell)
    a_f = real_arg("a", a)
    if not (0.0 <= a_f < 0.5):
        raise DomainError(f"shift a must lie in [0, 1/2), got {a}")
    if a_f == 0.0:
        N = _check_table_size(N, 4 + ell, 2**53, "2^53, past which the float64 table loses exact counts")
    else:
        N = _check_table_size(N, 4 + ell, sys.float_info.max, "the float64 range of the table")
    c4 = [math.comb(v + 3, 3) for v in range(N.bit_length())]
    cl = [math.comb(i + ell - 1, ell - 1) for i in range(N.bit_length())]

    def local(p, vmax):
        # sum over i of C(v-i+3, 3) * C(i+ell-1, ell-1) * p^(-a*i), v = 0..vmax
        w = np.asarray(p, dtype=np.float64) ** -a_f
        wi = [w**i for i in range(vmax + 1)]
        return np.array(
            [sum(c4[v - i] * cl[i] * wi[i] for i in range(v + 1)) for v in range(vmax + 1)]
        )

    combined = _kernels.multiplicative_table(N, local, np.float64)
    summatory = _kernels.running_sum(combined)
    return DivisorLedger(
        ell=ell,
        a=a_f,
        N=N,
        combined=combined,
        summatory=summatory,
    )


# ---------------------------------------------------------------------------
# Principal parts by truncated power series, checked by one contour, and the
# main-term polynomials.
# ---------------------------------------------------------------------------


def _series_product(x: list, y: list) -> list:
    # product of two power series truncated to the length of x
    return [mp.fsum(x[i] * y[k - i] for i in range(k + 1)) for k in range(len(x))]


# Guard bits of the fixed-point series: its sums lose at most a few bits to
# the roundings of each product, and its N-term sums cancel at most about
# N^2 times the size of the result, with N below 2^10.
_SERIES_GUARD_BITS = 30


@lru_cache(maxsize=None)
def _em_plan(K: int, prec: int) -> tuple[int, int]:
    """Euler-Maclaurin cut (N, M) for _regular_part: N - 1 terms of the sum
    and M tail terms, so that each of the K coefficients errs by at most
    2^(-prec).

    The remainder after M tail terms obeys |R_M(s)| <= |B_2M| / (2M)! *
    |(s)_2M| * N^(1-sigma-2M) / (sigma+2M-1), and |B_2M| / (2M)! <=
    (pi^2/3) / (2 pi)^2M. Bounded on the disc |u| <= r around s = 1 by
    |s| <= 3/2 + r and sigma >= 1/2 - r (looser than that disc needs), it
    bounds coefficient k of R_M(1 + u) by Cauchy's estimate, divided by
    r^k. Over r in {1, 1/2, 1/4} and 2M <= N, N and M take the pair that
    meets 2^(-prec) at the least modelled cost N (K + 50) + 3 M K. The
    weight 50 per term of the sum fixes the pairs, and with them the last
    bits of the coefficients; the bare count N K + 3 M K picks pairs that
    run no faster. With 2M <= N every coefficient of (1 + u)_(2j-1)
    N^(1-2j) stays below 2, so the fixed-point B_2j/(2j)! lose nothing.
    The bound falls as N grows, and as M grows while 2M <= N (each step
    scales it by about ((x + 2M) / (2 pi N))^2 < 1), so the least M for an
    N is at most the least for N - 1: the search walks M down as N goes up.
    """
    target = -prec * math.log(2.0)
    best = None
    for r in (1.0, 0.5, 0.25):
        x, sigma = 1.5 + r, 0.5 - r
        per_k = -(K - 1) * math.log(r) if r < 1 else 0.0

        def meets(N, M):
            return (math.log(math.pi**2 / 3) - 2 * M * math.log(2 * math.pi) + math.lgamma(x + 2 * M) - math.lgamma(x)
                    + (1 - sigma - 2 * M) * math.log(N) - math.log(sigma + 2 * M - 1) + per_k) <= target

        least = 1024
        for N in range(2, 1024):
            M = min(least, N // 2)
            if meets(N, M):
                while M > 1 and meets(N, M - 1):
                    M -= 1
                least = M
                cost = N * (K + 50) + 3 * M * K
                if best is None or cost < best[0]:
                    best = (cost, N, M)
            if best is not None and N * (K + 50) > best[0]:
                break
    return best[1], best[2]


@lru_cache(maxsize=None)
def _em_tables(N: int, M: int, W: int) -> tuple[list, list]:
    """log n, n <= N, and B_2j / (2j)!, j <= M, times 2^W, as integers."""
    with workprec(W + 10):
        logs = [int(mp.ldexp(mp.log(n), W)) for n in range(1, N + 1)]
        bern = [int(mp.ldexp(mp.bernoulli(2 * j) / mp.factorial(2 * j), W)) for j in range(1, M + 1)]
        return logs, bern


@lru_cache(maxsize=None)
def _regular_part(K: int, prec: int) -> tuple:
    """Coefficients k < K of the regular part zeta(1 + u) - 1/u, that is
    (-1)^k gamma_k / k! with gamma_k the Stieltjes constants, each within
    2^(-prec). Euler-Maclaurin in power-series arithmetic (Johansson,
    Numer. Algorithms 69, 2015): with s = 1 + u and E(u) = N^(-u),
      zeta(s) = sum over n < N of exp(-u log n) / n + E(u)/u + E(u) T(u) / N,
      T(u) = 1/2 + sum over j <= M of B_2j/(2j)! (s)_(2j-1) N^(1-2j),
    up to the remainder R_M, at the (N, M) of _em_plan. All of it runs in
    fixed point, as integers scaled by 2^W with W = prec +
    _SERIES_GUARD_BITS, each product rounded by at most 2^(-W).
    """
    N, M = _em_plan(K, prec)
    W = prec + _SERIES_GUARD_BITS
    lfix, bfix = _em_tables(N, M, W)
    one = 1 << W
    # sum over n < N of (-log n)^k / n
    acc = [one] + [0] * (K - 1)
    for n in range(2, N):
        t = one // n
        for k in range(K):
            acc[k] += t
            t = (-t * lfix[n - 1]) >> W
    # E(u), coefficient k (-log N)^k / k!; E(u)/u - 1/u has coefficient k E[k+1]
    E = [one]
    for k in range(1, K + 1):
        E.append(((-E[-1] * lfix[N - 1]) >> W) // k)
    # rising holds (1 + u)_(2j-1) N^(1-2j), below 2 since 2M <= N
    T = [one >> 1] + [0] * (K - 1)
    rising = ([one // N] * 2 + [0] * (K - 2))[:K]
    for j, b in enumerate(bfix, start=1):
        for k in range(K):
            T[k] += (b * rising[k]) >> W
        for alpha in (2 * j * one, (2 * j + 1) * one):
            rising = [((alpha * x) >> W) + y for x, y in zip(rising, [0] + rising)]
        rising = [x // (N * N) for x in rising]
    ET = [sum(E[i] * T[k - i] for i in range(k + 1)) >> W for k in range(K)]
    with workprec(W):
        out = [mp.ldexp(acc[k] // math.factorial(k) + ET[k] // N + E[k + 1], -W) for k in range(K)]
    return tuple(+x for x in out)


def _shift_length(K: int, prec: int) -> int:
    """Least n such that the regular part's coefficients r_k, k >= n, move
    none of the first K Taylor coefficients of zeta(1 + d + v), |d| <= 1/2,
    by 2^(-prec): coefficient j takes r_k C(k, j) d^(k-j), at most
    |r_k| 2^K. By Matsuoka's |gamma_k| <= 10^(-4) e^(k log log k), k >= 10
    (Proc. Japan Acad. 61, 1985), and k! >= (k/e)^k, |r_k| <= 10^(-4) q^k
    for k >= n with q = e log n / n, as e log k / k falls; so the terms sum
    to at most 2^K 10^(-4) q^n / (1 - q).
    """
    n = max(10, K)
    while True:
        q = math.e * math.log(n) / n
        if (K + prec) * math.log(2) + n * math.log(q) - math.log(1 - q) <= math.log(1e4):
            return n
        n += 1


def _zeta_series(c, K: int) -> list[mpf]:
    """Taylor coefficients k < K of zeta(c + u) in u, for real c in
    [1/2, 3/2] at the working precision; at c = 1 those of the regular part
    (_regular_part). At c = 1 + d, coefficient j is the pole's
    (-1)^j / d^(j+1), in mpf at W = prec + _SERIES_GUARD_BITS bits, plus
    the regular part re-centred at d: its first _shift_length(K, prec)
    coefficients, each within 2^(-prec), and K rounds of synthetic division
    by v - d in W-bit fixed point. Their errors move coefficient j by at
    most 2^(j+1) 2^(-prec), against a pole coefficient of at least 2^(j+1).
    """
    if K < 1:
        return []
    prec = mp.prec
    d = mpf(c) - 1
    if d == 0:
        return list(_regular_part(K, prec))
    W = prec + _SERIES_GUARD_BITS
    r = [int(mp.ldexp(x, W)) for x in _regular_part(_shift_length(K, prec), prec)]
    df = int(mp.ldexp(d, W))
    for j in range(K):
        for k in range(len(r) - 2, j - 1, -1):
            r[k] += (df * r[k + 1]) >> W
    with workprec(W):
        out = [(-1) ** j / d ** (j + 1) + mp.ldexp(x, -W) for j, x in enumerate(r[:K])]
    return [+x for x in out]


def _principal_part(b, order: int, d, power: int) -> list[mpf]:
    """Principal-part coefficients f_{-1}..f_{-order} of
    zeta(s+b)^order * zeta(s+b+d)^power / s at its pole s = 1-b.

    In u = s - (1-b) the function is u^(-order) G(u), where G multiplies
    the truncated series (u zeta(1+u))^order, zeta(1+d+u)^power and
    1/(1-b+u) as a geometric series; f_{-i} is the u^(order-i) coefficient
    of G. The series of zeta come from _zeta_series, which calls no mpmath
    special function beyond log and the Bernoulli numbers.
    """
    with _MP_LOCK:
        with workdps(_DPS + 10):
            pole = 1 - mpf(b)
            # u zeta(1+u) = 1 + sum over j of (-1)^j gamma_j / j! * u^(j+1)
            laurent = [mpf(1)] + _zeta_series(1, order - 1)
            g = [(-1) ** k / pole ** (k + 1) for k in range(order)]
            for _ in range(order):
                g = _series_product(g, laurent)
            if power:
                taylor = _zeta_series(1 + mpf(d), order)
                for _ in range(power):
                    g = _series_product(g, taylor)
            return [g[order - i] for i in range(1, order + 1)]


def _float_contour_moments(radii: tuple, ell: int, a: float) -> list[np.ndarray]:
    """Principal-part coefficients of zeta(s)^4 * zeta(s+a)^ell / s by
    contour in float64: f_{-1}..f_{-4} at the pole s = 1, then
    f_{-1}..f_{-ell} at the pole s = 1-a, with radii[0] and radii[1].

    f_{-i} is the mean over a circle of the function times (s - pole)^i at
    CONTOUR_NODES nodes; trapezoid on a circle converges spectrally for the
    analytic integrand. All 4 * CONTOUR_NODES zeta values come from one
    _kernels.point_zeta call, at offsets from the pole s = 1, so no node
    loses digits to rounding 1 + u. The nearest other singularity lies at
    least twice the radius from each centre, so the digits lost between the
    ring values and the moments do not grow as a -> 0. A value or moment
    that overflows comes out inf or nan, which misses the gate, and no
    warning is raised.
    """
    nodes = CONTOUR_NODES
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    w1, w2 = radii[0] * z, radii[1] * z
    with np.errstate(over="ignore", invalid="ignore"):
        values = _kernels.point_zeta(np.concatenate([w1, a + w1, w2 - a, w2]))
        z1, z1a, zp, z2 = values.reshape(4, nodes)
        circles = (
            (w1, 4, z1**4 * z1a**ell / (1 + w1)),  # at s = 1 + w1
            (w2, ell, zp**4 * z2**ell / (1 - a + w2)),  # at s = 1 - a + w2
        )
        return [w ** np.arange(1, order + 1)[:, None] @ ring / nodes for w, order, ring in circles]


def _check(series: list, rings: list) -> tuple[float, float]:
    """Largest relative discrepancy between the series coefficients and
    those of the contour moments (a NaN counts as infinite), and largest
    imaginary part of a moment relative to its magnitude: the moments are
    real in exact arithmetic."""
    worst = leak = 0.0
    for coeffs, ring in zip(series, rings):
        ring = [complex(f) for f in ring]
        leak = max([leak] + [abs(f.imag) / max(abs(f), 1e-30) for f in ring])
        for u, v in zip(coeffs, _moments_to_coeffs(ring)):
            d = abs(u - v) / max(abs(u), abs(v), 1e-30)
            worst = math.inf if math.isnan(d) else max(worst, d)
    return worst, leak


@dataclass(frozen=True)
class MainTermPolynomial:
    """Main-term coefficients: X * sum c_k log^k X over k = 0..3 plus
    X^(1-a) * sum cprime_k log^k X over k = 0..ell-1."""

    ell: int
    a: float
    c_coeffs: tuple
    cprime_coeffs: tuple
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, X):
        """Both main-term polynomials at X > 0, an array at an array X; PrecisionError past float64."""
        xs, scalar = _reals(X)
        ok = (xs > 0) & (xs < math.inf)  # NaN fails
        if not ok.all():
            raise DomainError(f"main terms need a finite X > 0, got {xs[~ok][0]}")
        L = np.log(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            lead = sum(c * L**k for k, c in enumerate(self.c_coeffs))
            sub = sum(c * L**k for k, c in enumerate(self.cprime_coeffs))
            value = xs * lead + xs ** (1.0 - self.a) * sub
        ok = np.isfinite(value)
        if not ok.all():
            raise PrecisionError(
                f"main terms at X = {xs[~ok][0]:g}, ell = {self.ell}, a = {self.a:g} are not finite in float64"
            )
        return float(value[0]) if scalar else value


def _moments_to_coeffs(moments: Sequence[mpc]) -> list[float]:
    # residue of F(s) X^s at a pole of order m: sum over i of
    # f_{-i} * log^(i-1) X / (i-1)!, i.e. coefficient of log^k is f_{-(k+1)}/k!
    out = []
    fact = 1
    for k, f in enumerate(moments):
        if k:
            fact *= k
        out.append(float(mp.re(f)) / fact)
    return out


def main_terms(ell: int, a) -> MainTermPolynomial:
    """Main-term polynomials from the principal parts at both poles.

    The coefficients come from truncated power series (_principal_part),
    worked at _DPS = 30 digits and rounded to float64. One float64 contour
    of CONTOUR_NODES nodes around each pole checks them
    (_float_contour_moments): radius a/4 around s = 1 and a/2 around the
    order-ell pole s = 1-a. With the other pole at distance a, the rounding
    of the k-th moment grows like (a/r)^k and the trapezoid's aliasing falls
    like (r/a)^CONTOUR_NODES (Bornemann, Found. Comput. Math. 11, 2011;
    Trefethen and Weideman, SIAM Rev. 56, 2014), so the order-ell pole
    takes the wider circle. Where the check misses CONTOUR_REL_TOL,
    PrecisionError names ell, a, both radii and the discrepancy. Measured,
    the check passes up to ell = 33 for every a from 1e-8 to 0.4999, and
    to ell = 40 at least for a >= 0.35. For a <= 1e-8 the ring overflows
    float64 first: from ell = 34 at a = 1e-8, 26 at 1e-10, 22 at 1e-12 and
    15 at 1e-16. The shift must satisfy 0 < a < 1/2; at a = 0 the two
    poles merge into one that this construction does not cover. An ell
    above 171 raises CeilingError before any work (_ell_arg).
    """
    ell = _ell_arg(ell, 0)
    a_f = real_arg("a", a)
    if not (0.0 < a_f < 0.5):
        raise DomainError(
            f"main_terms takes a shift 0 < a < 1/2, got {a}; at a = 0 the two "
            "poles merge into one"
        )
    radii = (a_f / 4.0, a_f / 2.0)
    # pole s = 1 of order 4, then pole s = 1 - a of order ell, as the
    # arguments (b, order, d, power) of _principal_part; the contour
    # returns its moments in this order
    poles = ((0.0, 4, a_f, ell), (a_f, ell, -a_f, 4))
    series = [_moments_to_coeffs(_principal_part(*pole)) for pole in poles]
    worst, leak = _check(series, _float_contour_moments(radii, ell, a_f))
    if worst > CONTOUR_REL_TOL:
        raise PrecisionError(
            f"main terms at ell={ell}, a={a_f:g}: series and contour coefficients "
            f"differ by {worst:.3g} relative at contour radii {radii[0]:g} "
            f"and {radii[1]:g}, over the tolerance {CONTOUR_REL_TOL:g}"
        )
    return MainTermPolynomial(
        ell=ell,
        a=a_f,
        c_coeffs=tuple(series[0]),
        cprime_coeffs=tuple(series[1]),
        diagnostics={
            "radii": radii,
            "nodes": CONTOUR_NODES,
            "max_rel_discrepancy": worst,
            "max_imag_leak": leak,
        },
    )


# ---------------------------------------------------------------------------
# Identity check against the generating series, with a computed tail bound.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    residual: float
    tail_bound: float
    lhs: complex
    rhs: complex
    s: complex
    N: int


@lru_cache(maxsize=None)
def _unweighted_main_coeffs(m: int) -> tuple:
    """Coefficients q_k with sum_{n<=x} d_m(n) ~ x * sum q_k log^k x: the
    principal part of zeta(s)^m / s at s = 1."""
    if m < 4:
        raise DomainError(f"majorant dimension must be >= 4, got {m}")
    return tuple(_moments_to_coeffs(_principal_part(0.0, m, 0.0, 0)))


def _log_power_integral(k: int, N: float, sigma: float) -> float:
    # I_k = integral over (N, inf) of log^k x * x^(-sigma) dx, sigma > 1
    lnN = math.log(N)
    I = N ** (1.0 - sigma) / (sigma - 1.0)
    for i in range(1, k + 1):
        I = N ** (1.0 - sigma) * lnN**i / (sigma - 1.0) + i * I / (sigma - 1.0)
    return I


def series_tail_bound(ell: int, s, N: int) -> float:
    """Computed bound for the tail sum beyond N of the weighted series at s.

    Majorizes the weighted values by unweighted counts of dimension 4+ell
    (the damping factor is <= 1), approximates their local density by the
    derivative of the main term, integrates it against x^(-Re s) in closed
    form, and applies a factor-3 margin for the fluctuation of the counts
    around that density. A pole order 4 + ell above 171 raises
    CeilingError (_ell_arg).
    """
    ell = _ell_arg(ell, 4)
    N = int_arg("N", N)
    sigma = float(mp.re(complex_arg("s", s)))
    if not sigma > 1.05:  # written so that NaN fails
        raise DomainError(f"tail bound needs Re s > 1.05, got {sigma}")
    m = 4 + ell
    q = _unweighted_main_coeffs(m)
    # density ~ d/dx [x * Q(log x)] = Q(log x) + Q'(log x)
    dens = list(q)
    for k in range(len(q) - 1):
        dens[k] += (k + 1) * q[k + 1]
    tail = sum(dk * _log_power_integral(k, float(N), sigma) for k, dk in enumerate(dens))
    return 3.0 * abs(tail)


def dirichlet_identity_check(
    ell: int,
    a,
    s,
    N: int,
    ledger: Optional[DivisorLedger] = None,
) -> IdentityCheck:
    """Residual of the truncated series against zeta(s)^4 zeta(s+a)^ell.

    Re s >= 1.5 (absolute convergence with headroom) and N >= 10^4. The
    returned tail_bound is the computed majorant from series_tail_bound;
    residuals sit below it, typically within a small factor. An ell above
    167, which series_tail_bound refuses, raises CeilingError before the
    table is built.
    """
    sC = mpc(complex_arg("s", s))
    if not mp.re(sC) >= 1.5:
        raise DomainError(f"need Re s >= 1.5, got {mp.re(sC)}")
    N = int_arg("N", N, 10**4)
    ell = _ell_arg(ell, 4)
    a_f = real_arg("a", a)
    if ledger is None:
        ledger = weighted_divisor_table(ell, a, N)
    elif ledger.N < N or ledger.ell != ell or ledger.a != a_f:
        raise DomainError("ledger does not match the requested configuration")
    n = np.arange(1, N + 1, dtype=np.float64)
    sc = complex(sC)
    lhs = complex(np.sum(ledger.combined[1 : N + 1] * np.exp(-sc * np.log(n))))
    with _MP_LOCK:
        with workdps(25):
            rhs_mp = zeta_eval(sC) ** 4 * zeta_eval(sC + a_f) ** ell
    rhs = complex(rhs_mp)
    residual = abs(lhs - rhs)
    return IdentityCheck(
        residual=residual,
        tail_bound=series_tail_bound(ell, sc, N),
        lhs=lhs,
        rhs=rhs,
        s=sc,
        N=N,
    )


# ---------------------------------------------------------------------------
# Error term and trend reports.
# ---------------------------------------------------------------------------


def _check_pair(ledger: DivisorLedger, poly: MainTermPolynomial) -> None:
    if (poly.ell, poly.a) != (ledger.ell, ledger.a):
        raise DomainError(f"polynomial is for (ell={poly.ell}, a={poly.a}), "
                          f"ledger holds (ell={ledger.ell}, a={ledger.a})")


def error_term(ledger: DivisorLedger, poly: MainTermPolynomial, X):
    """summatory_at(X) - evaluate(X) at a real X (a float) or at each entry of
    a sequence or array of reals (an array); poly must be for the ledger's (ell, a)."""
    _check_pair(ledger, poly)
    return ledger.summatory_at(X) - poly.evaluate(X)


def error_trend(ledger: DivisorLedger, poly: MainTermPolynomial, Xs: Sequence[float]) -> list[dict]:
    """Rows (X, summatory, main_term, E, |E|/X^TREND_EXPONENT) at each entry of
    Xs (reals_arg) from one summatory_at and one evaluate over all of them, so
    each E is error_term's at that X. poly must be for the ledger's (ell, a)."""
    _check_pair(ledger, poly)
    xs = np.asarray(reals_arg("Xs", Xs, "X"), dtype=np.float64)
    S, M = ledger.summatory_at(xs), poly.evaluate(xs)
    return [
        {"X": x, "summatory": s, "main_term": m, "E": s - m, "normalized": abs(s - m) / x**TREND_EXPONENT}
        for x, s, m in zip(xs.tolist(), S.tolist(), M.tolist())
    ]
