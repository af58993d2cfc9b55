"""Arbitrary-precision zeta evaluation: spot values, the functional
equation, the two independent summation routes, and the error surface."""

import cmath
import time

import numpy as np
import pytest
from mpmath import fabs, mp, mpc, mpf, pi, workdps

from zetalab import zetanum
from zetalab.errors import CeilingError, DomainError, PrecisionError

ZETA_HALF = "-1.4603545088095868128894991"  # zeta(1/2), 25 digits
FIRST_ZERO_T = "14.134725141734693790457252"


def test_zeta_two():
    with workdps(30):
        err = fabs(zetanum.zeta_eval(2) - pi**2 / 6)
        assert err < mpf("1e-21")


def test_zeta_half():
    with workdps(30):
        err = fabs(zetanum.zeta_eval(mpf("0.5")) - mpf(ZETA_HALF))
        assert err < mpf("1e-21")


def test_first_critical_zero():
    with workdps(30):
        val = zetanum.zeta_eval(mpc("0.5", FIRST_ZERO_T))
        assert fabs(val) < mpf("1e-20")


def test_special_points():
    with workdps(30):
        assert zetanum.zeta_eval(0) == mpf("-0.5")
        assert fabs(zetanum.zeta_eval(-2)) == 0
        assert fabs(zetanum.zeta_eval(-4)) == 0
        err = fabs(zetanum.zeta_eval(-1) - mpf(-1) / 12)
        assert err < mpf("1e-21")


def test_functional_equation_residual():
    """|zeta(s) - chi(s) zeta(1-s)| stays below 1e-20 across the strip."""
    rng = np.random.default_rng(20240819)
    with workdps(30):
        for _ in range(100):
            sig = 0.05 + 0.9 * rng.random()
            t = -30.0 + 60.0 * rng.random()
            s = mpc(sig, t)
            if fabs(s - 1) < mpf("0.1"):
                s = s + mpf("0.2")
            lhs = zetanum.zeta_eval(s)
            rhs = zetanum.chi_factor(s) * zetanum.zeta_eval(1 - s)
            assert fabs(lhs - rhs) < mpf("1e-20"), f"FE residual at {s}"


def test_conjugate_symmetry():
    with workdps(30):
        for sig, t in [(0.5, 7.3), (0.8, 21.9), (0.3, 3.1)]:
            up = zetanum.zeta_eval(mpc(sig, t))
            dn = zetanum.zeta_eval(mpc(sig, -t))
            assert fabs(dn - up.conjugate()) < mpf("1e-23")


def test_euler_maclaurin_vs_eta_grid():
    """Two structurally different summations agree to combined targets."""
    rng = np.random.default_rng(11)
    with workdps(30):
        for _ in range(60):
            sig = 0.1 + 1.9 * rng.random()
            t = 50.0 * rng.random()
            s = mpc(sig, t)
            if fabs(s - 1) < mpf("0.1"):
                continue
            a = zetanum.zeta_eval(s)
            b = zetanum.zeta_eval_alternating(s)
            assert fabs(a - b) < mpf("2e-21"), f"route mismatch at {s}"


def _near_pole_points():
    points = [complex(1 + 1e-12, 0), complex(1, 1e-12), complex(1 - 1e-9, 1e-9)]
    # the check-contour nodes of main_terms: radius a/4 around s = 1
    for a in (0.01, 0.05, 0.2):
        points += [1 + a / 4 * cmath.exp(2j * cmath.pi * k / 32) for k in range(32)]
    return points


def test_near_pole():
    # the tail term N^(1-s)/(s-1) is huge here, so the guard digits alone
    # must carry it; the references run 20 digits deeper: the eta route
    # where 1 - 2^(1-s) is safely away from 0, mpmath's own zeta where not
    for dps in (15, 30):
        for s in _near_pole_points():
            got = zetanum.zeta_eval(s, dps=dps)
            with workdps(dps + 20):
                if abs(1 - 2 ** (1 - s)) >= 1e-6:
                    ref = zetanum.zeta_eval_alternating(s, dps=dps + 20)
                else:
                    ref = mp.zeta(s)
                assert fabs(got - ref) < mpf(10) ** (4 - dps), f"dps={dps}, s={s}"


def test_pole_and_ceiling():
    with pytest.raises(DomainError):
        zetanum.zeta_eval(1)
    with pytest.raises(CeilingError):
        zetanum.zeta_eval(mpc(0.5, 2.0e7))


def test_alternating_ceiling():
    # past the ceiling the eta route must refuse before any work: its term
    # count and working digits grow linearly in |Im s|
    start = time.perf_counter()
    for t in (1.0e4, -1.0e4, 1.0e12):
        with pytest.raises(CeilingError):
            zetanum.zeta_eval_alternating(mpc(0.5, t))
    assert time.perf_counter() - start < 1.0
    s = mpc(0.5, zetanum._ALTERNATING_IM_CEILING)
    got = zetanum.zeta_eval_alternating(s)
    with workdps(45):
        assert fabs(got - mp.zeta(s)) < mpf("1e-21")


def test_target_floor():
    with pytest.raises(PrecisionError):
        zetanum.zeta_eval(mpc(0.5, 3.0), target_abs_error=1e-40, dps=25)


def test_eta_denominator_guard():
    # 2^(1-s) = 1 on a lattice of imaginary parts; nearby the eta route
    # must refuse rather than divide by almost zero
    t = float(2 * np.pi / np.log(2.0))
    with pytest.raises(PrecisionError):
        zetanum.zeta_eval_alternating(mpc(1.0, t))
    with pytest.raises(DomainError):
        zetanum.zeta_eval_alternating(mpc(-0.5, 3.0))


def test_chi_factor_values():
    with workdps(30):
        assert fabs(zetanum.chi_factor(mpf("0.5")) - 1) < mpf("1e-24")
        # chi has zeros at 0, -2, -4, ... and poles at 3, 5, ...
        assert zetanum.chi_factor(mpf(0)) == 0
        assert zetanum.chi_factor(mpf(-2)) == 0
        with pytest.raises(DomainError):
            zetanum.chi_factor(mpf(3))
        with pytest.raises(DomainError):
            zetanum.chi_factor(mpf(1))


def test_chi_modulus_asymptotics():
    # |chi(sigma + it)| ~ (t / 2 pi)^(1/2 - sigma) for large t
    with workdps(40):
        for sig in (0.3, 0.5, 0.75):
            s = mpc(sig, 4000.0)
            got = fabs(zetanum.chi_factor(s))
            ref = (mpf(4000.0) / (2 * pi)) ** (mpf(0.5) - mpf(sig))
            assert abs(float(got / ref) - 1.0) < 1e-3


def test_dps_controls_accuracy():
    with workdps(45):
        coarse = zetanum.zeta_eval(mpc(0.6, 9.0), dps=18)
        fine = zetanum.zeta_eval(mpc(0.6, 9.0), dps=40)
        assert fabs(coarse - fine) < mpf("1e-13")
        assert fabs(coarse - fine) > 0  # genuinely different truncations
