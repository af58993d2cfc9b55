"""High-precision zeta evaluation and the functional-equation factor.

Two independent evaluation routes are exposed on purpose: the workhorse
Euler-Maclaurin path (zeta_eval) and an alternating-series path with
Cohen/Rodriguez Villegas/Zagier acceleration (zeta_eval_alternating). The
second exists so the first can be cross-checked without trusting shared
machinery; tests drive both over the strip and compare. zeta_eval has
one path: Euler-Maclaurin at s (Re s > 0) or at 1 - s (Re s <= 0), after
conjugating s when Im s < 0; the pole needs no special case.

mpmath's precision state is process-global, so every entry point works
inside _MP_LOCK and a workdps() context. Results are returned as ordinary
mpmath numbers, which are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Union

from mpmath import mp, mpc, mpf, workdps
from mpmath import (
    bernoulli,
    conj,
    exp,
    fabs,
    gamma,
    log,
    loggamma,
    pi,
    power,
    sqrt,
)

from .errors import CeilingError, DomainError, PrecisionError

Complexish = Union[int, float, complex, mpf, mpc]

DEFAULT_DPS = 25
IM_CEILING = 1.0e7
# The alternating route works at about 0.77 digits per term and needs
# about 0.9 |Im s| terms, so its cost grows steeply: on one Xeon core a
# 25-digit value takes 0.1 s at |Im s| = 300, 2 s at 1e3 and 10 s at 2e3.
_ALTERNATING_IM_CEILING = 1.0e3

_MP_LOCK = threading.RLock()


def _as_mpc(s: Complexish) -> mpc:
    try:
        return mpc(s)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a complex value: {s!r}") from exc


def _checked_args(
    s: Complexish, target_abs_error, dps: int, im_ceiling: float
) -> tuple[mpc, mpf]:
    """s as mpc and the absolute-error target, after the checks both routes share."""
    sC = _as_mpc(s)
    if sC == 1:
        raise DomainError("zeta has a pole at s = 1")
    if abs(mp.im(sC)) > im_ceiling:
        raise CeilingError(f"|Im s| = {abs(mp.im(sC))} exceeds ceiling {im_ceiling:g}")
    if target_abs_error is None:
        return sC, mpf(10) ** (-(dps - 4))
    target = mpf(target_abs_error)
    if not target > 0:
        raise DomainError(f"target_abs_error must be positive, got {target_abs_error}")
    floor = mpf(10) ** (-(dps - 2))
    if target < floor:
        raise PrecisionError(
            f"target_abs_error {target_abs_error} unattainable at dps={dps}; "
            f"raise dps above {dps} (floor at this precision is {mp.nstr(floor, 3)})"
        )
    return sC, target


def _euler_maclaurin(s: mpc, target: mpf) -> mpc:
    """Truncated Dirichlet sum plus tail corrections; caller sets precision.

    Requires Re s > 0 and s != 1. Near the pole the tail term N^(1-s)/(s-1)
    is about 1/(s-1) and its rounding error grows with it; the 10 guard
    digits the callers add keep that below the target down to |s - 1| =
    1e-12.
    """
    t = abs(mp.im(s))
    N = max(50, int(mp.ceil(t / 2)))
    acc = mp.zero * mpc(0)
    for n in range(1, N):
        acc += power(n, -s)
    NmS = power(N, -s)
    acc += NmS * N / (s - 1)
    acc += NmS / 2
    poch = s
    for k in range(1, 31):
        term = bernoulli(2 * k) / gamma(2 * k + 1) * poch * NmS / power(N, 2 * k - 1)
        acc += term
        if fabs(term) < target / 4:
            return acc
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
    raise PrecisionError(
        f"Euler-Maclaurin tail did not reach {mp.nstr(target, 3)} at s={s} "
        f"with N={N} and 30 correction terms; raise dps or target_abs_error"
    )


def zeta_eval(
    s: Complexish,
    target_abs_error: Optional[float] = None,
    dps: int = DEFAULT_DPS,
) -> mpc:
    """zeta(s) to the requested absolute error.

    Euler-Maclaurin with truncation N ~ max(|t|/2, 50) and up to 30 tail
    correction terms. Re s <= 0 goes through the functional equation. For
    Im s < 0 the value is conj(zeta(conj(s))), so zeta_eval(conj(s)) ==
    conj(zeta_eval(s)) structurally. At dps <= 30 the 30 tail terms reach
    the target for every Re s in [-100, 100] with |Im s| up to 1e5, and
    for |s - 1| down to 1e-12; at dps 35 and above they fall short inside
    the critical strip once |Im s| >= 1e3. For Re s <= 0 the target holds
    for zeta(1 - s), so the error of zeta(s) is that times |chi(s)|.

    Raises DomainError at the pole s = 1, CeilingError past the configured
    |Im s| ceiling, PrecisionError when the target cannot be certified.
    """
    sC, target = _checked_args(s, target_abs_error, dps, IM_CEILING)
    flip = mp.im(sC) < 0
    if flip:
        sC = conj(sC)
    with _MP_LOCK:
        with workdps(dps + 10):
            if sC == 0:
                value = mpc(mpf(-1) / 2)
            elif mp.re(sC) <= 0:
                # functional equation; zeta(1-s) converges comfortably there
                value = chi_factor(sC, dps) * _euler_maclaurin(1 - sC, target)
            else:
                value = _euler_maclaurin(sC, target)
            return conj(value) if flip else value


def zeta_eval_alternating(
    s: Complexish,
    target_abs_error: Optional[float] = None,
    dps: int = DEFAULT_DPS,
) -> mpc:
    """zeta(s) through the alternating series with CVZ acceleration.

    Completely independent of the Euler-Maclaurin route; used as its
    cross-check oracle. Valid for Re s > 0 away from s = 1 and from the
    zeros of 1 - 2^(1-s) on the line Re s = 1, and for |Im s| <= 1e3
    (_ALTERNATING_IM_CEILING): the term count and the working precision
    both grow linearly in |Im s|, and past the ceiling it raises
    CeilingError rather than start a run of seconds to hours.
    """
    sC, target = _checked_args(s, target_abs_error, dps, _ALTERNATING_IM_CEILING)
    if mp.re(sC) <= 0:
        raise DomainError("alternating route requires Re s > 0")
    with _MP_LOCK:
        with workdps(dps + 10):
            denom = 1 - power(2, 1 - sC)
            if fabs(denom) < mpf("1e-6"):
                raise PrecisionError(
                    f"1 - 2^(1-s) nearly vanishes at s={s}; use zeta_eval instead"
                )
            eff_target = target * fabs(denom) / 3
            t = abs(mp.im(sC))
            need = float(mp.pi) * t / 2 + float(-log(eff_target))
            n = int(need / math.log(3 + math.sqrt(8))) + 5
            with workdps(int(mp.dps + 0.766 * n + 10)):
                d = (3 + 2 * sqrt(2)) ** n
                d = (d + 1 / d) / 2
                b = mpf(-1)
                c = -d
                acc = mpc(0)
                for k in range(n):
                    c = b - c
                    acc += c * power(k + 1, -sC)
                    b = b * (k + n) * (k - n) / ((k + mpf(1) / 2) * (k + 1))
                eta = acc / d
                return eta / denom


def chi_factor(s: Complexish, dps: int = DEFAULT_DPS) -> mpc:
    """Functional-equation factor chi with zeta(s) = chi(s) * zeta(1-s).

    chi(s) = pi^(s - 1/2) * Gamma((1-s)/2) / Gamma(s/2), evaluated through
    log-Gamma so large |t| cannot overflow. Poles of Gamma((1-s)/2) sit at
    odd positive integers s and raise DomainError; at the poles of
    Gamma(s/2) (s = 0, -2, -4, ...) chi vanishes and 0 is returned.
    """
    sC = _as_mpc(s)
    if mp.im(sC) == 0:
        re2 = mp.re(sC)
        if re2 == int(re2):
            n = int(re2)
            if n >= 1 and n % 2 == 1:
                raise DomainError(f"chi has a pole at s = {n}")
            if n <= 0 and n % 2 == 0:
                return mpc(0)
    with _MP_LOCK:
        with workdps(dps + 10):
            return exp(
                (sC - mpf(1) / 2) * log(pi)
                + loggamma((1 - sC) / 2)
                - loggamma(sC / 2)
            )
