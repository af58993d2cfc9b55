"""Weighted divisor tables, their summatory functions, Perron-style main
terms from Laurent series, and the resulting error terms.

The weighted divisor function here is the Dirichlet convolution of the
4-dimensional divisor counts with ell-dimensional counts damped by e^(-a):
its generating series is zeta(s)^4 * zeta(s+a)^ell. Main terms come from
the residues of that series times X^s/s at s = 1 (pole of order 4) and
s = 1 - a (pole of order ell), read off products of truncated power series
of zeta around each pole and checked against one contour per pole. The
error term is the exact summatory minus both evaluated main-term
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from mpmath import mp, mpc, mpf, workdps

from . import _kernels
from .errors import CeilingError, DomainError, PrecisionError
from .zetanum import _MP_LOCK, zeta_eval

N_CEILING = 50_000_000
CONTOUR_NODES = 32
CONTOUR_REL_TOL = 1.0e-8


def sieve_divisor_counts(k: int, N: int) -> np.ndarray:
    """Table of k-dimensional divisor counts for n = 1..N (index 0 unused).

    Built by k-1 divisor-convolution passes over the all-ones table; exact
    int64 integers.
    """
    if not (isinstance(k, int) and k >= 1):
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N!r}")
    if N > N_CEILING:
        raise CeilingError(f"N = {N} exceeds the table ceiling {N_CEILING}")
    f = np.ones(N + 1, dtype=np.int64)
    f[0] = 0
    for _ in range(k - 1):
        f = _kernels.conv_with_ones(f)
    return f


@dataclass
class DivisorLedger:
    """Sieve tables, the weighted combination, and its running summatory."""

    ell: int
    a: float
    N: int
    d4_table: np.ndarray
    dell_table: np.ndarray
    combined: np.ndarray
    summatory: np.ndarray

    def summatory_at(self, X: float) -> float:
        """Sum of the weighted divisor values over n <= X (0 below 1)."""
        if X > self.N:
            raise DomainError(f"X = {X} beyond table ceiling N = {self.N}")
        idx = int(math.floor(X))
        if idx < 1:
            return 0.0
        return float(self.summatory[idx])


def weighted_divisor_table(ell: int, a, N: int) -> DivisorLedger:
    """Ledger for the weighted convolution with shift a in [0, 1/2).

    combined[n] = sum over n = q*e of d4(q) * dell(e) * e^(-a). At a = 0
    every weight is 1, so the table holds the (4+ell)-dimensional divisor
    counts exactly (integer-valued float64 sums).
    """
    if not (isinstance(ell, int) and ell >= 1):
        raise DomainError(f"ell must be a positive integer, got {ell!r}")
    a_f = float(a)
    if not (0.0 <= a_f < 0.5):
        raise DomainError(f"shift a must lie in [0, 1/2), got {a}")
    d4 = sieve_divisor_counts(4, N)
    dell = sieve_divisor_counts(ell, N)
    combined = _kernels.weighted_combine(d4, dell, a_f)
    summatory = _kernels.running_sum(combined)
    return DivisorLedger(
        ell=ell,
        a=a_f,
        N=N,
        d4_table=d4,
        dell_table=dell,
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


def _principal_part(b, order: int, d, power: int, dps: int) -> list[mpf]:
    """Principal-part coefficients f_{-1}..f_{-order} of
    zeta(s+b)^order * zeta(s+b+d)^power / s at its pole s = 1-b.

    In u = s - (1-b) the function is u^(-order) G(u), where G multiplies
    the truncated series (u zeta(1+u))^order from the Stieltjes constants,
    zeta(1+d+u)^power from the Taylor coefficients of zeta at 1+d, and
    1/(1-b+u) as a geometric series; f_{-i} is the u^(order-i) coefficient
    of G.
    """
    with _MP_LOCK:
        with workdps(dps + 10):
            pole = 1 - mpf(b)
            # u zeta(1+u) = 1 + sum over j of (-1)^j gamma_j / j! * u^(j+1)
            laurent = [mpf(1)] + [
                (-1) ** j * mp.stieltjes(j) / mp.factorial(j) for j in range(order - 1)
            ]
            g = [(-1) ** k / pole ** (k + 1) for k in range(order)]
            for _ in range(order):
                g = _series_product(g, laurent)
            if power:
                taylor = [mp.zeta(1 + mpf(d), 1, k) / mp.factorial(k) for k in range(order)]
                for _ in range(power):
                    g = _series_product(g, taylor)
            return [g[order - i] for i in range(1, order + 1)]


def _contour_moments(b, order: int, radius, ell: int, a, dps: int) -> list[mpc]:
    """Principal-part coefficients f_{-1}..f_{-order} of
    zeta(s)^4 * zeta(s+a)^ell / s at its pole s = 1-b, by contour.

    f_{-i} is the mean over the circle of the function times (s - pole)^i
    at CONTOUR_NODES nodes; trapezoid on a circle converges spectrally for
    the analytic integrand. Every value goes through zeta_eval, so this
    route does not share mpmath's zeta with _principal_part.
    """
    nodes = CONTOUR_NODES
    with _MP_LOCK:
        with workdps(dps + 10):
            p = 1 - mpf(b)
            r = mpf(radius)
            ring = []
            for jj in range(nodes):
                z = mp.e ** (mpc(0, 2) * mp.pi * jj / nodes)
                s = p + r * z
                Fv = zeta_eval(s, dps=dps) ** 4 * zeta_eval(s + a, dps=dps) ** ell / s
                ring.append((z, Fv))
            out = []
            for i in range(1, order + 1):
                acc = mpc(0)
                for z, Fv in ring:
                    acc += Fv * (r * z) ** i
                out.append(acc / nodes)
            return out


@dataclass(frozen=True)
class MainTermPolynomial:
    """Main-term coefficients: X * sum c_k log^k X over k = 0..3 plus
    X^(1-a) * sum cprime_k log^k X over k = 0..ell-1."""

    ell: int
    a: float
    c_coeffs: tuple
    cprime_coeffs: tuple
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, X: float) -> float:
        if X <= 0:
            raise DomainError(f"main terms need X > 0, got {X}")
        L = math.log(X)
        lead = sum(c * L**k for k, c in enumerate(self.c_coeffs))
        sub = sum(c * L**k for k, c in enumerate(self.cprime_coeffs))
        return X * lead + X ** (1.0 - self.a) * sub


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


def main_terms(ell: int, a, dps: int = 30) -> MainTermPolynomial:
    """Main-term polynomials from the principal parts at both poles.

    The coefficients come from truncated power series (_principal_part).
    One contour of CONTOUR_NODES nodes and radius r = min(a, 1-a, 1/4)/4
    around each pole checks them; any coefficient disagreeing by more than
    CONTOUR_REL_TOL relative raises PrecisionError with the advice to raise
    dps. a = 0 merges the poles and is rejected; use the unweighted divisor
    path (dimension 4+ell) instead.
    """
    if not (isinstance(ell, int) and ell >= 1):
        raise DomainError(f"ell must be a positive integer, got {ell!r}")
    a_f = float(a)
    if a_f == 0.0:
        raise DomainError(
            "a = 0 merges the two poles; use the unweighted divisor path "
            "of dimension 4+ell instead of main_terms"
        )
    if not (0.0 < a_f < 0.5):
        raise DomainError(f"shift a must lie in (0, 1/2), got {a}")
    r = min(a_f, 1.0 - a_f, 0.25) / 4.0
    coeffs = []
    worst = 0.0
    leak = 0.0
    # pole s = 1 of order 4, then pole s = 1 - a of order ell
    for b, order, d, power in ((0.0, 4, a_f, ell), (a_f, ell, -a_f, 4)):
        series = _moments_to_coeffs(_principal_part(b, order, d, power, dps))
        ring = _contour_moments(b, order, r, ell, a_f, dps)
        leak = max([leak] + [abs(float(mp.im(v))) for v in ring])
        for u, v in zip(series, _moments_to_coeffs(ring)):
            worst = max(worst, abs(u - v) / max(abs(u), abs(v), 1e-30))
        coeffs.append(tuple(series))
    if worst > CONTOUR_REL_TOL:
        raise PrecisionError(
            f"series and contour coefficients differ by {worst:.3g} relative "
            f"(contour radius {r:g}, tolerance {CONTOUR_REL_TOL:g}); raise dps"
        )
    return MainTermPolynomial(
        ell=ell,
        a=a_f,
        c_coeffs=coeffs[0],
        cprime_coeffs=coeffs[1],
        diagnostics={
            "radius": r,
            "nodes": CONTOUR_NODES,
            "dps": dps,
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

    @property
    def within_bound(self) -> bool:
        return self.residual <= self.tail_bound


@lru_cache(maxsize=None)
def _unweighted_main_coeffs(m: int) -> tuple:
    """Coefficients q_k with sum_{n<=x} d_m(n) ~ x * sum q_k log^k x, at 30 digits:
    the principal part of zeta(s)^m / s at s = 1."""
    if m < 4:
        raise DomainError(f"majorant dimension must be >= 4, got {m}")
    return tuple(_moments_to_coeffs(_principal_part(0.0, m, 0.0, 0, 30)))


def _log_power_integral(k: int, N: float, sigma: float) -> float:
    # I_k = integral over (N, inf) of log^k x * x^(-sigma) dx, sigma > 1
    lnN = math.log(N)
    I = N ** (1.0 - sigma) / (sigma - 1.0)
    for i in range(1, k + 1):
        I = N ** (1.0 - sigma) * lnN**i / (sigma - 1.0) + i * I / (sigma - 1.0)
    return I


def series_tail_bound(ell: int, a, s, N: int) -> float:
    """Computed bound for the tail sum beyond N of the weighted series at s.

    Majorizes the weighted values by unweighted counts of dimension 4+ell
    (the damping factor is <= 1), approximates their local density by the
    derivative of the main term, integrates it against x^(-Re s) in closed
    form, and applies a factor-3 margin for the fluctuation of the counts
    around that density.
    """
    sigma = float(mp.re(mpc(s)))
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
    residuals sit below it, typically within a small factor.
    """
    sC = mpc(s)
    if not float(mp.re(sC)) >= 1.5:  # written so that NaN fails
        raise DomainError(f"need Re s >= 1.5, got {mp.re(sC)}")
    if N < 10**4:
        raise DomainError(f"need N >= 10^4, got {N}")
    if ledger is None:
        ledger = weighted_divisor_table(ell, a, N)
    elif ledger.N < N or ledger.ell != ell or float(ledger.a) != float(a):
        raise DomainError("ledger does not match the requested configuration")
    n = np.arange(1, N + 1, dtype=np.float64)
    sc = complex(sC)
    lhs = complex(np.sum(ledger.combined[1 : N + 1] * np.exp(-sc * np.log(n))))
    with _MP_LOCK:
        with workdps(25):
            rhs_mp = zeta_eval(sC) ** 4 * zeta_eval(sC + float(a)) ** ell
    rhs = complex(rhs_mp)
    residual = abs(lhs - rhs)
    return IdentityCheck(
        residual=residual,
        tail_bound=series_tail_bound(ell, a, sc, N),
        lhs=lhs,
        rhs=rhs,
        s=sc,
        N=N,
    )


# ---------------------------------------------------------------------------
# Error term and trend reports.
# ---------------------------------------------------------------------------


def _summatory_and_main(ledger: DivisorLedger, poly: MainTermPolynomial, X: float) -> tuple:
    """Exact summatory and main term at X, after checking the arguments.

    X may sit below 1 (empty sum); X beyond the ledger ceiling is a range
    error. The polynomial must describe the same (ell, a) as the ledger.
    """
    if poly.ell != ledger.ell or float(poly.a) != float(ledger.a):
        raise DomainError(
            f"polynomial is for (ell={poly.ell}, a={poly.a}), ledger holds "
            f"(ell={ledger.ell}, a={ledger.a})"
        )
    if X <= 0:
        raise DomainError(f"X must be positive, got {X}")
    if X > ledger.N:
        raise DomainError(f"X = {X} beyond ledger ceiling N = {ledger.N}")
    return ledger.summatory_at(X), poly.evaluate(X)


def error_term(ledger: DivisorLedger, poly: MainTermPolynomial, X: float) -> float:
    """Exact summatory at X minus both main-term polynomials."""
    S, M = _summatory_and_main(ledger, poly, X)
    return S - M


def error_trend(
    ledger: DivisorLedger,
    poly: MainTermPolynomial,
    Xs: Sequence[float],
    eps: float = 0.05,
) -> list[dict]:
    """Rows (X, summatory, main_term, E, |E|/X^(1/2+eps)) for each X, with
    E equal to error_term at X and the same validation."""
    rows = []
    for X in Xs:
        S, M = _summatory_and_main(ledger, poly, X)
        E = S - M
        rows.append(
            {
                "X": float(X),
                "summatory": S,
                "main_term": M,
                "E": E,
                "normalized": abs(E) / float(X) ** (0.5 + eps),
            }
        )
    return rows
