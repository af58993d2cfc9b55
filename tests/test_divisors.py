"""Divisor sieves, weighted tables, main terms, and the identity check."""

import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from zetalab import divisors
from zetalab.divisors import (
    N_CEILING,
    _unweighted_main_coeffs,
    dirichlet_identity_check,
    error_term,
    error_trend,
    main_terms,
    series_tail_bound,
    sieve_divisor_counts,
    weighted_divisor_table,
)
from zetalab.errors import CeilingError, DomainError, PrecisionError
from zetalab.zetanum import zeta_eval


@lru_cache(maxsize=None)
def _dk_brute(k: int, n: int) -> int:
    # ordered factorizations into k parts, by the divisor-sum recursion
    if k == 1:
        return 1
    return sum(_dk_brute(k - 1, d) for d in range(1, n + 1) if n % d == 0)


@pytest.fixture(scope="module")
def ledger_2_035():
    return weighted_divisor_table(2, 0.35, 10**5)


@pytest.fixture(scope="module")
def poly_2_035():
    return main_terms(2, 0.35)


@pytest.fixture(scope="module")
def poly_1_04():
    return main_terms(1, 0.4)


@pytest.fixture(scope="module")
def poly_20_035():
    return main_terms(20, 0.35)


# ---------------------------------------------------------------------------
# Sieve tables.
# ---------------------------------------------------------------------------


def test_sieve_small_values():
    d4 = sieve_divisor_counts(4, 50)
    assert d4[1] == 1
    assert d4[2] == 4
    assert d4[6] == 16
    assert d4[16] == 35  # binom(4+4-1, 4-1) for p^4
    d2 = sieve_divisor_counts(2, 1000)
    assert int(d2[12]) == 6
    assert int(np.sum(d2[1:])) == 7069


def test_sieve_against_brute_force():
    for k in (2, 3, 5, 6):
        table = sieve_divisor_counts(k, 600)
        for n in (1, 2, 17, 36, 97, 128, 360, 599, 600):
            assert table[n] == _dk_brute(k, n), (k, n)


def test_sieve_dimension_one_is_ones():
    t = sieve_divisor_counts(1, 20)
    assert t[0] == 0
    assert np.all(t[1:] == 1)


def test_sieve_validation():
    with pytest.raises(DomainError):
        sieve_divisor_counts(0, 10)
    with pytest.raises(DomainError):
        sieve_divisor_counts(2, 0)
    with pytest.raises(DomainError):
        sieve_divisor_counts(2.0, 10)
    with pytest.raises(CeilingError):
        sieve_divisor_counts(2, N_CEILING + 1)


def test_sieve_rejects_int64_overflow():
    # d_200(4096) = C(211, 199) ~ 1.18e19 does not fit in int64
    with pytest.raises(CeilingError):
        sieve_divisor_counts(200, 4096)
    assert sieve_divisor_counts(40, 2**17)[2**17] == math.comb(56, 39)


@pytest.mark.parametrize("N", [1, 2, 100, 5040, 10**5])
def test_largest_divisor_count_is_table_maximum(N):
    # the overflow guard's walk over sorted exponents finds the table maximum
    for k in range(2, 9):
        assert divisors._largest_divisor_count(k, N) == int(sieve_divisor_counts(k, N).max())


# ---------------------------------------------------------------------------
# Weighted tables and the summatory function.
# ---------------------------------------------------------------------------


def test_weighted_table_prime_values():
    # at a prime p the only splittings are p*1 and 1*p
    ledger = weighted_divisor_table(1, 0.3, 100)
    for p in (2, 3, 5, 7, 11, 97):
        expected = 4.0 + p ** (-0.3)
        assert math.isclose(ledger.combined[p], expected, rel_tol=1e-12)


def test_weighted_table_multiplicative():
    ledger = weighted_divisor_table(2, 0.25, 10**4)
    rng = np.random.default_rng(20260822)
    checked = 0
    while checked < 500:
        m = int(rng.integers(2, 100))
        n = int(rng.integers(2, 100))
        if math.gcd(m, n) != 1:
            continue
        lhs = ledger.combined[m * n]
        rhs = ledger.combined[m] * ledger.combined[n]
        assert math.isclose(lhs, rhs, rel_tol=1e-12), (m, n)
        checked += 1


def test_zero_shift_collapses_to_plain_counts():
    for ell in (1, 2, 3):
        ledger = weighted_divisor_table(ell, 0.0, 3000)
        plain = sieve_divisor_counts(4 + ell, 3000)
        assert np.array_equal(ledger.combined, plain.astype(np.float64))


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("a", [0.01, 0.35, 0.49])
def test_weighted_table_matches_convolution(ell, a, dirichlet_convolution):
    # the prime-power table against the ascending-divisor convolution
    N = 10**5
    ledger = weighted_divisor_table(ell, a, N)
    weights = np.zeros(N + 1)
    weights[1:] = sieve_divisor_counts(ell, N)[1:] * np.arange(1.0, N + 1) ** -a
    ref = dirichlet_convolution(sieve_divisor_counts(4, N), weights)
    assert ledger.combined[0] == 0.0
    rel = np.abs(ledger.combined[1:] - ref[1:]) / ref[1:]
    assert float(rel.max()) <= 1e-14


def test_weighted_table_prime_power_values():
    ell, a = 2, 0.35
    ledger = weighted_divisor_table(ell, a, 3**12)
    for p, v in ((2, 19), (3, 12)):
        want = math.fsum(
            math.comb(v - i + 3, 3) * math.comb(i + ell - 1, ell - 1) * p ** (-a * i)
            for i in range(v + 1)
        )
        assert math.isclose(ledger.combined[p**v], want, rel_tol=1e-14), (p, v)


def test_summatory_matches_fsum_at_one_million():
    N = 10**6
    ledger = weighted_divisor_table(2, 0.35, N)
    total = math.fsum(ledger.combined.tolist())
    assert abs(ledger.summatory[N] - total) <= 1e-13 * total


def test_summatory_matches_cumsum(ledger_2_035):
    direct = np.cumsum(ledger_2_035.combined)
    for X in (1, 17, 999, 10**4, 10**5):
        assert math.isclose(ledger_2_035.summatory_at(X), direct[X], rel_tol=1e-12)
    # floor semantics and the empty sum
    assert ledger_2_035.summatory_at(10.7) == ledger_2_035.summatory_at(10)
    assert ledger_2_035.summatory_at(0.3) == 0.0


def test_summatory_beyond_ceiling(ledger_2_035):
    with pytest.raises(DomainError):
        ledger_2_035.summatory_at(10**5 + 1)


def test_weighted_table_validation():
    with pytest.raises(DomainError):
        weighted_divisor_table(0, 0.3, 100)
    with pytest.raises(DomainError):
        weighted_divisor_table(1, -0.1, 100)
    with pytest.raises(DomainError):
        weighted_divisor_table(1, 0.5, 100)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((2, 0.35, 0), DomainError, "N must be a positive integer, got 0"),
        ((2, 0.35, 1.5), DomainError, "N must be a positive integer, got 1.5"),
        ((2, 0.35, "x"), DomainError, "N must be a positive integer, got 'x'"),
        ((2, 0.35, N_CEILING + 1), CeilingError, f"N = {N_CEILING + 1} exceeds the table ceiling {N_CEILING}"),
        ((200, 0.1, 10**6), CeilingError, "d_200(n) for n <= 1000000 exceeds the int64 range of the table"),
    ],
    ids=["N=0", "N=1.5", "N=x", "N=ceiling+1", "int64-guard"],
)
def test_weighted_table_typed_errors(args, error, message):
    # the ledger sieves no d_4 or d_ell table, yet a bad N or an ell whose
    # counts overflow int64 raises the error and message the sieves raised
    with pytest.raises(error) as raised:
        weighted_divisor_table(*args)
    assert type(raised.value) is error and str(raised.value) == message


def test_ledger_builds_one_table(monkeypatch):
    # one multiplicative table per ledger and no divisor-count sieve; the
    # d_4 and d_ell tables are sieved only when read
    tables, sieves = [], []
    table = divisors._kernels.multiplicative_table
    sieve = divisors.sieve_divisor_counts
    monkeypatch.setattr(divisors._kernels, "multiplicative_table", lambda *a: tables.append(a) or table(*a))
    monkeypatch.setattr(divisors, "sieve_divisor_counts", lambda *a: sieves.append(a) or sieve(*a))
    ledger = weighted_divisor_table(3, 0.2, 5000)
    assert len(tables) == 1 and sieves == []
    assert np.array_equal(ledger.d4_table, sieve(4, 5000))
    assert np.array_equal(ledger.dell_table, sieve(3, 5000))
    assert sieves == [(4, 5000), (3, 5000)]


# ---------------------------------------------------------------------------
# Main-term polynomials from the Laurent-series route.
# ---------------------------------------------------------------------------


def test_zeta_series_against_mpmath():
    # Stieltjes constants and Taylor coefficients from the one
    # Euler-Maclaurin pass, at the main terms' 40 digits, against mpmath's
    # own routines at 50 digits; measured worst relative error 2.2e-40
    # (gamma_10, whose coefficient is 5.7e-11, so 1.3e-50 absolute) and
    # 1.1e-41 (Taylor, at 1.4999); each bound has a margin of about 40
    with mpmath.workdps(40):
        regular = divisors._zeta_series(1, 11)
        centres = [1 + mpmath.mpf(d) for d in ("1e-12", "-1e-12", "1e-6", "-1e-6", "0.01", "-0.01")]
        centres += [mpmath.mpf("0.5001"), mpmath.mpf("1.4999")]
        taylor = {c: divisors._zeta_series(c, 40) for c in centres}
    with mpmath.workdps(50):
        worst = max(
            abs(regular[j] / ((-1) ** j * mpmath.stieltjes(j) / mpmath.factorial(j)) - 1) for j in range(11)
        )
        assert worst < 1e-38, worst
        worst = max(
            abs(got[k] / (mpmath.zeta(c, 1, k) / mpmath.factorial(k)) - 1)
            for c, got in taylor.items()
            for k in range(40)
        )
        assert worst < 5e-40, worst



def test_main_terms_frozen_coefficients(poly_1_04, poly_2_035):
    # frozen from an independent high-precision run of the residue expansion
    ref_c = [-23.838008, 10.577486, -1.058233, 0.517591]
    ref_cp = [24.230175]
    assert len(poly_1_04.c_coeffs) == 4
    assert len(poly_1_04.cprime_coeffs) == 1
    for got, want in zip(poly_1_04.c_coeffs, ref_c):
        assert abs(got - want) < 2e-5
    assert abs(poly_1_04.cprime_coeffs[0] - ref_cp[0]) < 2e-5

    ref_c2 = [-593.311313, 165.291488, -20.167760, 1.994387]
    ref_cp2 = [593.556836, 43.502719]
    assert len(poly_2_035.c_coeffs) == 4
    assert len(poly_2_035.cprime_coeffs) == 2
    for got, want in zip(poly_2_035.c_coeffs, ref_c2):
        assert abs(got - want) < 2e-4
    for got, want in zip(poly_2_035.cprime_coeffs, ref_cp2):
        assert abs(got - want) < 2e-4


def test_simple_pole_coefficient_closed_form(poly_1_04):
    # one secondary factor makes the lower pole simple, with residue
    # zeta(1-a)^4 / (1-a)
    want = float(zeta_eval(0.6, 1e-26).real ** 4) / 0.6
    assert abs(poly_1_04.cprime_coeffs[0] - want) < 1e-8


def test_main_terms_diagnostics(poly_2_035, poly_20_035):
    # the leak is each moment's imaginary part relative to its magnitude;
    # measured 8.2e-15 discrepancy and 1.9e-15 leak at (2, 0.35), 2.1e-13
    # and 4.1e-14 at (20, 0.35): each bound has a margin of about 10
    d = poly_2_035.diagnostics
    assert d["radii"] == (0.0875, 0.175) and d["nodes"] == 64
    assert d["max_rel_discrepancy"] < 1e-13
    assert d["max_imag_leak"] < 2e-14
    d = poly_20_035.diagnostics
    assert d["max_rel_discrepancy"] < 2e-12
    assert d["max_imag_leak"] < 5e-13


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("a", [1e-8, 1e-4, 0.01, 0.2, 0.49, 0.4999])
def test_leading_coefficients_closed_form(ell, a):
    # c_3 = zeta(1+a)^ell / 3! and c'_(ell-1) = zeta(1-a)^4 / ((1-a) (ell-1)!)
    # over the advertised shifts; the series must also pass its contour
    # check
    poly = main_terms(ell, a)
    with mpmath.workdps(30):
        am = mpmath.mpf(a)
        c3 = float(mpmath.zeta(1 + am) ** ell / 6)
        cp = float(mpmath.zeta(1 - am) ** 4 / ((1 - am) * math.factorial(ell - 1)))
    assert math.isclose(poly.c_coeffs[3], c3, rel_tol=1e-10)
    assert math.isclose(poly.cprime_coeffs[ell - 1], cp, rel_tol=1e-10)
    assert poly.diagnostics["max_rel_discrepancy"] < 1e-8


@pytest.mark.parametrize("m", range(5, 17))
def test_unweighted_coefficients_closed_form(m):
    # zeta(s)^m / s = u^(-m) (1 + (m gamma - 1) u + O(u^2)) at s = 1 + u
    q = _unweighted_main_coeffs(m)
    assert len(q) == m
    assert math.isclose(q[m - 1], 1 / math.factorial(m - 1), rel_tol=1e-13)
    want = (m * float(mpmath.euler) - 1) / math.factorial(m - 2)
    assert math.isclose(q[m - 2], want, rel_tol=1e-13)


def test_main_terms_zeta_eval_budget(monkeypatch):
    # the series route makes the main terms and the float64 contour checks
    # them; neither calls zeta_eval, also at large ell
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return zeta_eval(*args, **kwargs)

    monkeypatch.setattr(divisors, "zeta_eval", counting)
    for ell, a in ((2, 0.3), (16, 0.49), (20, 0.35)):
        main_terms(ell, a)
    _unweighted_main_coeffs.__wrapped__(7)
    assert calls == []


def test_main_terms_call_no_mpmath_zeta(monkeypatch):
    # the series data come from _zeta_series alone: neither the Stieltjes
    # constants nor the derivatives of mpmath's zeta are reached, also on a
    # cold series cache
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath special function reached")

    for name in ("stieltjes", "zeta"):
        monkeypatch.setattr(divisors.mp, name, refuse)
    divisors._regular_part.cache_clear()
    divisors._em_tables.cache_clear()
    for ell, a in ((2, 0.3), (16, 0.49), (20, 0.35)):
        main_terms(ell, a)
    _unweighted_main_coeffs.__wrapped__(7)


def test_main_terms_validation():
    with pytest.raises(DomainError, match=r"0 < a < 1/2, got 0.0; at a = 0 the two poles merge"):
        main_terms(1, 0.0)
    with pytest.raises(DomainError):
        main_terms(1, 0.6)
    with pytest.raises(DomainError):
        main_terms(0, 0.3)


def test_main_terms_gate_decides_as_before():
    # the last points that passed when a 30-digit contour of 32 nodes
    # decided past float64 must still pass, and (31, 0.35) passes now: its
    # 1.92e-8 miss came from that contour's trapezoid, not from the series
    for ell, a in ((14, 1e-8), (16, 0.25), (30, 0.35), (31, 0.35), (32, 0.49)):
        worst = main_terms(ell, a).diagnostics["max_rel_discrepancy"]
        assert worst < divisors.CONTOUR_REL_TOL, (ell, a, worst)


def test_float_contour_overflow_misses_the_gate():
    # at a = 1e-12, |zeta(1 + w)| ~ 1/r = 2e12 and its 22nd power overflows:
    # the float64 moments come out non-finite, with no warning, and must
    # read as an infinite discrepancy, never as a pass
    rings = divisors._float_contour_moments((2.5e-13, 5e-13), 22, 1e-12)
    assert not np.all(np.isfinite(rings[1]))
    worst, _ = divisors._check([[1.0] * 4, [1.0] * 22], rings)
    assert worst == math.inf


def test_main_terms_gate_names_the_point():
    # at a = 1e-12 the contour ring overflows float64 from ell = 22 on, so
    # the check misses its gate there; the message names the inputs and
    # both radii, not a digit count
    with pytest.raises(PrecisionError) as exc:
        main_terms(22, 1e-12)
    assert re.search(
        r"ell=22, a=1e-12: .* differ by \S+ relative at contour radii 2.5e-13 and 5e-13", str(exc.value)
    )
    assert "dps" not in str(exc.value)


def test_evaluate_rejects_nonpositive(poly_1_04):
    for X in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            poly_1_04.evaluate(X)


def test_fraction_shift_accepted():
    # exact input types for a must coerce cleanly
    poly = main_terms(1, Fraction(2, 5))
    assert poly.a == 0.4


# ---------------------------------------------------------------------------
# Identity check with the computed tail bound.
# ---------------------------------------------------------------------------


def test_identity_unweighted_case():
    chk = dirichlet_identity_check(1, 0.0, 3.0, 10**4)
    assert chk.residual <= chk.tail_bound
    assert chk.residual < 1e-4


def test_identity_weighted_case(ledger_2_035):
    chk = dirichlet_identity_check(2, 0.35, 2.0, 10**5, ledger=ledger_2_035)
    # s = 2 converges slowly; the residual sits at the 1e-2 scale while the
    # bound is an order of magnitude above it
    assert 0.01 < chk.residual < 0.05
    assert chk.tail_bound > chk.residual


def test_identity_third_case():
    chk = dirichlet_identity_check(3, 0.2, 2.5, 10**4)
    assert chk.residual <= chk.tail_bound
    assert chk.residual < 0.01


def test_identity_complex_s():
    chk = dirichlet_identity_check(1, 0.4, 2 + 1j, 10**4)
    assert chk.residual < chk.tail_bound


def test_identity_rhs_is_series_value():
    chk = dirichlet_identity_check(1, 0.0, 3.0, 10**4)
    want = complex(zeta_eval(3.0) ** 5)  # a = 0 merges the factors
    assert abs(chk.rhs - want) < 1e-12 * abs(want)


def test_identity_ledger_reuse_mismatch(ledger_2_035):
    with pytest.raises(DomainError):
        dirichlet_identity_check(1, 0.35, 2.0, 10**5, ledger=ledger_2_035)
    with pytest.raises(DomainError):
        dirichlet_identity_check(2, 0.2, 2.0, 10**5, ledger=ledger_2_035)


def test_identity_validation():
    with pytest.raises(DomainError):
        dirichlet_identity_check(1, 0.3, 1.2, 10**4)
    with pytest.raises(DomainError):
        dirichlet_identity_check(1, 0.3, 2.0, 5000)
    with pytest.raises(DomainError):
        dirichlet_identity_check(1, 0.3, math.nan, 10**4)
    ledger = weighted_divisor_table(1, 0.3, 20000)
    with pytest.raises(DomainError, match="integer N"):
        dirichlet_identity_check(1, 0.3, 2.0, 20000.0, ledger=ledger)


def test_tail_bound_shrinks_with_n():
    b1 = series_tail_bound(2, 0.35, 2.0, 10**4)
    b2 = series_tail_bound(2, 0.35, 2.0, 10**5)
    assert 0 < b2 < b1
    with pytest.raises(DomainError):
        series_tail_bound(2, 0.35, 1.0, 10**4)
    with pytest.raises(DomainError):
        series_tail_bound(2, 0.35, math.nan, 10**4)


@pytest.mark.parametrize(
    "check, args, name",
    [
        (series_tail_bound, (2, 0.35, 2.0, 0), "N"),
        (series_tail_bound, (2, 0.35, 2.0, -5), "N"),
        (series_tail_bound, (2, 0.35, 2.0, math.inf), "N"),
        (series_tail_bound, (1.5, 0.35, 2.0, 10**4), "ell"),
        (dirichlet_identity_check, (2, 0.35, "abc", 10**4), "s"),
    ],
    ids=["N=0", "N=-5", "N=inf", "ell=1.5", "s=abc"],
)
def test_identity_path_typed_errors(check, args, name):
    # each bad argument is named by a DomainError, not by a math domain
    # error, a TypeError or a silent NaN
    with pytest.raises(DomainError, match=rf"^{name} must be"):
        check(*args)


@pytest.mark.parametrize(
    "check, args",
    [
        (weighted_divisor_table, (1, "abc", 100)),
        (main_terms, (1, "abc")),
        (main_terms, (1, None)),
        (dirichlet_identity_check, (2, "abc", 2.0, 10**4)),
    ],
    ids=["weighted_divisor_table", "main_terms-str", "main_terms-None", "dirichlet_identity_check"],
)
def test_shift_must_be_a_number(check, args):
    # a shift that is not a number is named by a DomainError, not by the
    # ValueError or TypeError of float()
    with pytest.raises(DomainError, match=r"^a must be a real number"):
        check(*args)


# ---------------------------------------------------------------------------
# Error terms and trend reports.
# ---------------------------------------------------------------------------


def test_error_term_frozen_values(ledger_2_035, poly_2_035):
    # frozen magnitudes; anything drifting past a few units means the
    # contour coefficients or the sieve changed
    assert abs(error_term(ledger_2_035, poly_2_035, 10**3) - (-549.34)) < 5.0
    assert abs(error_term(ledger_2_035, poly_2_035, 10**4) - 1647.87) < 5.0
    assert abs(error_term(ledger_2_035, poly_2_035, 10**5) - 55050.39) < 5.0


def test_error_term_below_one(ledger_2_035, poly_2_035):
    # empty sum, so the error is minus the main term
    got = error_term(ledger_2_035, poly_2_035, 0.5)
    assert got == -poly_2_035.evaluate(0.5)


def test_error_term_validation(ledger_2_035, poly_2_035, poly_1_04):
    with pytest.raises(DomainError):
        error_term(ledger_2_035, poly_1_04, 100.0)
    with pytest.raises(DomainError):
        error_term(ledger_2_035, poly_2_035, 0.0)
    with pytest.raises(DomainError):
        error_term(ledger_2_035, poly_2_035, 10**5 + 1)
    with pytest.raises(DomainError):
        error_term(ledger_2_035, poly_2_035, math.nan)
    with pytest.raises(DomainError):
        error_trend(ledger_2_035, poly_2_035, [10.0, math.nan])
    for X in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            ledger_2_035.summatory_at(X)


def test_error_trend_rows(ledger_2_035, poly_2_035):
    Xs = [10**3, 10**4, 10**5]
    rows = error_trend(ledger_2_035, poly_2_035, Xs)
    assert [r["X"] for r in rows] == [float(x) for x in Xs]
    for r in rows:
        E = error_term(ledger_2_035, poly_2_035, r["X"])
        assert r["E"] == E
        assert math.isclose(r["normalized"], abs(E) / r["X"] ** 0.55, rel_tol=1e-12)
        assert r["summatory"] - r["main_term"] == r["E"]


def test_error_trend_validation(ledger_2_035, poly_2_035, poly_1_04):
    # the rows go through error_term's checks: a polynomial for another
    # (ell, a) and an X outside (0, N] are rejected, not tabulated
    with pytest.raises(DomainError):
        error_trend(ledger_2_035, poly_1_04, [10**3])
    with pytest.raises(DomainError):
        error_trend(ledger_2_035, poly_2_035, [0.0])
    with pytest.raises(DomainError):
        error_trend(ledger_2_035, poly_2_035, [10**5 + 1])
