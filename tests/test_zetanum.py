"""Arbitrary-precision zeta evaluation on Re s > 0: spot values, the
functional equation, agreement with the alternating-series oracle, the
edges of the domain, and the error surface."""

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


def test_functional_equation_residual(chi_factor):
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
            rhs = chi_factor(s) * zetanum.zeta_eval(1 - s)
            assert fabs(lhs - rhs) < mpf("1e-20"), f"FE residual at {s}"


def test_conjugate_symmetry():
    # conjugate inputs take the same path, so the values agree bit for bit.
    # The test conjugates at 100 digits so its own rounding cannot hide a
    # lost digit. The last point is a main-terms contour node (a = 0.35,
    # k = 3).
    node = 1 + 0.35 / 4 * cmath.exp(2j * cmath.pi * 3 / 32)
    with workdps(100):
        for s in [mpc(0.5, 7.3), mpc(0.8, 21.9), mpc(0.3, 3.1), mpc(node)]:
            up = zetanum.zeta_eval(s)
            dn = zetanum.zeta_eval(s.conjugate())
            assert dn == up.conjugate(), f"s={s}"


def test_euler_maclaurin_vs_eta_grid(zeta_eval_alternating):
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
            b = zeta_eval_alternating(s)
            assert fabs(a - b) < mpf("2e-21"), f"route mismatch at {s}"


def _near_pole_points():
    points = [complex(1 + 1e-12, 0), complex(1, 1e-12), complex(1 - 1e-9, 1e-9)]
    # circles of radius a/4 around s = 1, inside the near-pole range that
    # zeta_eval documents (|s - 1| down to 1e-12)
    for a in (0.01, 0.05, 0.2):
        points += [1 + a / 4 * cmath.exp(2j * cmath.pi * k / 32) for k in range(32)]
    return points


def test_near_pole(zeta_eval_alternating):
    # the tail term N^(1-s)/(s-1) is huge here, so the guard digits alone
    # must carry it; the references run 20 digits deeper than the 25 of
    # zeta_eval: the eta route where 1 - 2^(1-s) is safely away from 0,
    # mpmath's own zeta where not
    for s in _near_pole_points():
        got = zetanum.zeta_eval(s)
        with workdps(45):
            if abs(1 - 2 ** (1 - s)) >= 1e-6:
                ref = zeta_eval_alternating(s, dps=45)
            else:
                ref = mp.zeta(s)
            assert fabs(got - ref) < mpf("1e-21"), f"s={s}"


def test_pole_and_ceiling():
    with pytest.raises(DomainError):
        zetanum.zeta_eval(1)
    for t in (1.0001e5, -1.0001e5, 2.0e7):
        with pytest.raises(CeilingError):
            zetanum.zeta_eval(mpc(0.5, t))


@pytest.mark.parametrize("s", [mpc(0.5, 1e5), mpc(0.75, -1e5)])
def test_default_target_at_im_ceiling(s):
    # the advertised range ends at |Im s| = IM_CEILING; check its edge
    assert abs(mp.im(s)) == zetanum.IM_CEILING
    value = zetanum.zeta_eval(s)
    with workdps(45):
        assert fabs(value - mp.zeta(s)) < mpf("1e-21")


def test_alternating_ceiling(zeta_eval_alternating):
    # past its ceiling of 1e3 the eta route must refuse before any work: its
    # term count and working digits grow linearly in |Im s|
    start = time.perf_counter()
    for t in (1.0e4, -1.0e4, 1.0e12):
        with pytest.raises(CeilingError):
            zeta_eval_alternating(mpc(0.5, t))
    assert time.perf_counter() - start < 1.0
    s = mpc(0.5, 1.0e3)
    got = zeta_eval_alternating(s)
    with workdps(45):
        assert fabs(got - mp.zeta(s)) < mpf("1e-21")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda chi: zetanum.zeta_eval(complex(0.5, NAN)),
        lambda chi: zetanum.zeta_eval(NAN),
        lambda chi: zetanum.zeta_eval(mpc(INF, 2.0)),
        lambda chi: chi(complex(0.5, NAN)),
        lambda chi: chi(mpc(-INF, 0.0)),
    ],
    ids=["nan-im", "nan", "inf-re", "chi-nan-im", "chi-inf"],
)
def test_non_finite_input_rejected(call, chi_factor):
    with pytest.raises(DomainError, match="finite"):
        call(chi_factor)


@pytest.mark.parametrize("s", [mpc(1e-6, 10), mpc(1e-6, -3e4), mpc(100), mpc(100, 10)])
def test_domain_edges(s):
    # both ends of Re s in (0, 100]; 1e-6 - 3e4 i also sits far down the
    # line, where the Dirichlet sum is longest and the conjugation applies
    value = zetanum.zeta_eval(s)
    with workdps(60):
        assert fabs(value - mp.zeta(s)) < mpf("1e-21")


@pytest.mark.parametrize("s", [0, -1, mpc(-40.5, 1.0), 5j])
def test_left_half_plane_rejected(s):
    with pytest.raises(DomainError, match=r"Re s > 0"):
        zetanum.zeta_eval(s)


def test_eta_denominator_guard(zeta_eval_alternating):
    # 2^(1-s) = 1 on a lattice of imaginary parts; nearby the eta route
    # must refuse rather than divide by almost zero
    t = float(2 * np.pi / np.log(2.0))
    with pytest.raises(PrecisionError):
        zeta_eval_alternating(mpc(1.0, t))
    with pytest.raises(DomainError):
        zeta_eval_alternating(mpc(-0.5, 3.0))


def test_chi_factor_values(chi_factor):
    with workdps(30):
        assert fabs(chi_factor(mpf("0.5")) - 1) < mpf("1e-24")
        # chi has zeros at 0, -2, -4, ... and poles at 3, 5, ...
        assert chi_factor(mpf(0)) == 0
        assert chi_factor(mpf(-2)) == 0
        with pytest.raises(DomainError):
            chi_factor(mpf(3))
        with pytest.raises(DomainError):
            chi_factor(mpf(1))


def test_chi_modulus_asymptotics(chi_factor):
    # |chi(sigma + it)| ~ (t / 2 pi)^(1/2 - sigma) for large t
    with workdps(40):
        for sig in (0.3, 0.5, 0.75):
            s = mpc(sig, 4000.0)
            got = fabs(chi_factor(s))
            ref = (mpf(4000.0) / (2 * pi)) ** (mpf(0.5) - mpf(sig))
            assert abs(float(got / ref) - 1.0) < 1e-3
