"""High-precision zeta evaluation and the functional-equation factor.

zeta_eval has one path: Euler-Maclaurin at s (Re s > 0) or at 1 - s
(Re s <= 0), after conjugating s when Im s < 0; the pole needs no special
case. Its independent cross-check, an alternating series with Cohen,
Rodriguez Villegas and Zagier's acceleration, lives with the tests.

mpmath's precision state is process-global, so every entry point works
inside _MP_LOCK and a workdps() context. Results are returned as ordinary
mpmath numbers, which are immutable and safe to share across threads.
"""

from __future__ import annotations

import threading
from typing import Union

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
)

from .errors import CeilingError, DomainError, PrecisionError

Complexish = Union[int, float, complex, mpf, mpc]

IM_CEILING = 1.0e5

_MP_LOCK = threading.RLock()


def _as_mpc(s: Complexish) -> mpc:
    try:
        sC = mpc(s)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a complex value: {s!r}") from exc
    if not mp.isfinite(sC):
        raise DomainError(f"s must be finite, got {s!r}")
    return sC


def _checked_args(s: Complexish, target_abs_error) -> tuple[mpc, mpf]:
    """s as mpc and the absolute-error target, after the argument checks."""
    sC = _as_mpc(s)
    if sC == 1:
        raise DomainError("zeta has a pole at s = 1")
    if abs(mp.im(sC)) > IM_CEILING:
        raise CeilingError(f"|Im s| = {abs(mp.im(sC))} exceeds ceiling {IM_CEILING:g}")
    target = mpf(target_abs_error)
    if not (target > 0 and mp.isfinite(target)):
        raise DomainError(
            f"target_abs_error must be positive and finite, got {target_abs_error}"
        )
    return sC, target


def _euler_maclaurin(s: mpc, target: mpf) -> mpc:
    """Truncated Dirichlet sum plus tail corrections; caller sets precision.

    Requires Re s > 0 and s != 1. Near the pole the tail term N^(1-s)/(s-1)
    is about 1/(s-1) and its rounding error grows with it; the 10 guard
    digits the callers add keep that below the target down to |s - 1| =
    1e-12. The tail gains about a digit per correction term, so up to
    max(30, digits of target + 10) of them are tried.
    """
    t = abs(mp.im(s))
    N = max(50, int(mp.ceil(t / 2)))
    terms = max(30, int(mp.ceil(-mp.log10(target))) + 10)
    acc = mp.zero * mpc(0)
    for n in range(1, N):
        acc += power(n, -s)
    NmS = power(N, -s)
    acc += NmS * N / (s - 1)
    acc += NmS / 2
    poch = s
    for k in range(1, terms + 1):
        term = bernoulli(2 * k) / gamma(2 * k + 1) * poch * NmS / power(N, 2 * k - 1)
        acc += term
        if fabs(term) < target / 4:
            return acc
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
    raise PrecisionError(
        f"Euler-Maclaurin tail did not reach {mp.nstr(target, 3)} at s={s} "
        f"with N={N} and {terms} correction terms"
    )


def zeta_eval(s: Complexish, target_abs_error: float = 1.0e-21) -> mpc:
    """zeta(s) to the requested absolute error.

    It works at d digits plus 10 guard digits, d the least integer >= 15
    with 10^-(d-4) <= target: 25 for the default 1e-21, 30 for 1e-26.
    Euler-Maclaurin with truncation N ~ max(|t|/2, 50) and up to
    max(30, digits of the target + 10) tail correction terms reaches the
    target for every Re s in [-100, 100] with |Im s| up to IM_CEILING =
    1e5, and for |s - 1| down to 1e-12; the tests cover targets from 1e-11
    to 1e-36, and the default one at |Im s| = 1e5. Re s <= 0 goes through
    the functional equation zeta(s) = chi(s) zeta(1 - s): where |chi(s)| > 1,
    zeta(1 - s) gets the target divided by |chi(s)| and both factors get
    log10 |chi(s)| more working digits, so the target holds for zeta(s).
    The cost grows with |Im s| and with those digits: 0.23 s at
    0.5 + 1e4 i, 2.4 s at 0.5 + 1e5 i, 1.5 s at -100 + 1e4 i and 27 s at
    -100 + 1e5 i on one Xeon core. For Im s < 0 the value is
    conj(zeta(conj(s))), conjugated at the working precision, so
    zeta_eval(conj(s)) == conj(zeta_eval(s)) bit for bit.

    Raises DomainError at the pole s = 1 and for a non-finite s or target,
    CeilingError past |Im s| = IM_CEILING, PrecisionError when the tail
    does not reach the target.
    """
    sC, target = _checked_args(s, target_abs_error)
    if sC == 0:
        return mpc(mpf(-1) / 2)
    flip = mp.im(sC) < 0
    if flip:
        sC = conj(sC)
    reflect = mp.re(sC) <= 0
    with _MP_LOCK:
        with workdps(15):  # the slack keeps the float 1e-26 at 30 digits, not 31
            dps = max(15, 4 + int(mp.ceil(-mp.log10(target) - mpf("1e-9"))))
        scale, extra = 1, 0
        if reflect:
            # functional equation; |chi| scales the error of zeta(1-s), so
            # both factors and the conjugation get log10 |chi| more digits
            with workdps(dps + 10):
                scale = max(fabs(chi_factor(sC, dps)), 1)
                extra = int(mp.ceil(mp.log10(scale)))
        with workdps(dps + 10 + extra):
            if reflect:
                value = chi_factor(sC, dps + extra) * _euler_maclaurin(1 - sC, target / scale)
            else:
                value = _euler_maclaurin(sC, target)
            return conj(value) if flip else value


def chi_factor(s: Complexish, dps: int = 25) -> mpc:
    """Functional-equation factor chi with zeta(s) = chi(s) * zeta(1-s).

    chi(s) = pi^(s - 1/2) * Gamma((1-s)/2) / Gamma(s/2), evaluated through
    log-Gamma so large |t| cannot overflow. Poles of Gamma((1-s)/2) sit at
    odd positive integers s and raise DomainError, as a non-finite s does;
    at the poles of Gamma(s/2) (s = 0, -2, -4, ...) chi vanishes and 0 is
    returned.
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
