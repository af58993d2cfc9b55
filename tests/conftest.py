"""Shared pytest wiring and oracles for the test suite."""

import math
import sys

import numpy as np
import pytest
from mpmath import exp, fabs, log, loggamma, mp, mpc, mpf, pi, power, sqrt, workdps

from zetalab.errors import CeilingError, DomainError, PrecisionError

# The alternating route works at about 0.77 digits per term and needs
# about 0.9 |Im s| terms, so its cost grows steeply: on one Xeon core a
# 25-digit value takes 0.1 s at |Im s| = 300, 2 s at 1e3 and 10 s at 2e3.
ALTERNATING_IM_CEILING = 1.0e3


def _dirichlet_convolution(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[n] = sum over n = q*e of f[q] * g[e] for n <= N, accumulated in
    ascending e, in the common dtype of f and g (entries 0 ignored)."""
    N = f.shape[0] - 1
    out = np.zeros(N + 1, dtype=np.result_type(f, g))
    for e in range(1, N + 1):
        if g[e]:
            out[e::e] += f[1 : N // e + 1] * g[e]
    return out


@pytest.fixture(scope="session")
def dirichlet_convolution():
    """The divisor-table oracle, independent of the prime-power sieve."""
    return _dirichlet_convolution


def _zeta_eval_alternating(s, target_abs_error=None, dps=25):
    """zeta(s) through the alternating series eta(s) / (1 - 2^(1-s)), with
    the acceleration of Cohen, Rodriguez Villegas and Zagier (Experiment.
    Math. 9, 2000), to the requested absolute error.

    Shares no machinery with zetanum.zeta_eval. Valid for Re s > 0 away from
    the zeros of 1 - 2^(1-s) on the line Re s = 1, and for |Im s| up to
    ALTERNATING_IM_CEILING: the term count and the working precision both
    grow linearly in |Im s|, so past the ceiling it raises CeilingError
    rather than start a run of seconds to hours.
    """
    sC = mpc(s)
    if abs(mp.im(sC)) > ALTERNATING_IM_CEILING:
        raise CeilingError(f"|Im s| = {abs(mp.im(sC))} exceeds {ALTERNATING_IM_CEILING:g}")
    if mp.re(sC) <= 0:
        raise DomainError("alternating route requires Re s > 0")
    target = mpf(10) ** (4 - dps) if target_abs_error is None else mpf(target_abs_error)
    with workdps(dps + 10):
        denom = 1 - power(2, 1 - sC)
        if fabs(denom) < mpf("1e-6"):
            raise PrecisionError(f"1 - 2^(1-s) nearly vanishes at s={s}")
        eff_target = target * fabs(denom) / 3
        need = float(mp.pi) * abs(float(mp.im(sC))) / 2 - float(mp.log(eff_target))
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
            return acc / d / denom


@pytest.fixture(scope="session")
def zeta_eval_alternating():
    """The zeta oracle, independent of the Euler-Maclaurin route."""
    return _zeta_eval_alternating


def _chi_factor(s, dps=25):
    """Functional-equation factor chi with zeta(s) = chi(s) * zeta(1-s).

    chi(s) = pi^(s - 1/2) * Gamma((1-s)/2) / Gamma(s/2), evaluated through
    log-Gamma so large |t| cannot overflow. Poles of Gamma((1-s)/2) sit at
    odd positive integers s and raise DomainError, as a non-finite s does;
    at the poles of Gamma(s/2) (s = 0, -2, -4, ...) chi vanishes and 0 is
    returned.
    """
    sC = mpc(s)
    if not mp.isfinite(sC):
        raise DomainError(f"s must be finite, got {s!r}")
    if mp.im(sC) == 0:
        re2 = mp.re(sC)
        if re2 == int(re2):
            n = int(re2)
            if n >= 1 and n % 2 == 1:
                raise DomainError(f"chi has a pole at s = {n}")
            if n <= 0 and n % 2 == 0:
                return mpc(0)
    with workdps(dps + 10):
        return exp((sC - mpf(1) / 2) * log(pi) + loggamma((1 - sC) / 2) - loggamma(sC / 2))


@pytest.fixture(scope="session")
def chi_factor():
    """The functional-equation factor, for the tests of zeta on both sides
    of the critical line and of the float kernels' chi."""
    return _chi_factor


def pytest_terminal_summary(terminalreporter):
    # Per-test capture hides the acceptance verdict prints for passing
    # criteria; re-emit the collected lines once capture is done so every
    # run shows one line per criterion.
    for name, mod in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            verdicts = getattr(mod, "VERDICTS", None)
            if verdicts:
                terminalreporter.section("acceptance criteria")
                for line in verdicts:
                    terminalreporter.write_line(line)
            break
