"""Acceptance gate: numbered reference criteria, one test per criterion.

Each test prints one "[ACCEPTANCE n] PASS/FAIL: ..." line on the real
stdout before asserting, so every verdict is visible in any run mode.
Criterion 3 checks four closed-form thresholds exactly, with the j = 4
reference corrected from the misprinted 221/229 to 221/224. Criterion 11
checks that the RMS and the mean of E(x)/x fall across decade windows of x.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from zetalab import _kernels
from zetalab.bounds import (
    bounded_order_table,
    moment_excess_table,
    moment_threshold,
    pointwise_exponent,
    threshold_sequence,
    admissible_shift_range,
)
from zetalab.divisors import (
    dirichlet_identity_check,
    error_term,
    error_trend,
    main_terms,
    sieve_divisor_counts,
    weighted_divisor_table,
)
from zetalab.moments import hybrid_moment, hybrid_moment_trace
from zetalab.pairs import search_best_pair
from zetalab.zetanum import chi_factor, zeta_eval, zeta_eval_alternating

F = Fraction

# collected by the conftest terminal-summary hook so every verdict reaches
# the terminal even while per-test output is captured
VERDICTS: list = []


def _verdict(n: int, ok: bool, detail: str) -> str:
    line = f"[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICTS.append(line)
    print(line, flush=True)
    return line


# six-decimal reference values for the threshold sequence
REF_SEQ = {
    1: 0.8,
    2: 0.904391,
    3: 0.940001,
    4: 0.959084,
    5: 0.970734,
    6: 0.978286,
    7: 0.983536,
    8: 0.987254,
    9: 0.990005,
    10: 0.992046,
    11: 0.993616,
}

# reference lower ends of the admissible shift ranges, by dimension pair
REF_SHIFT = {
    (1, 2): 0.3,
    (3, 4): 0.404391,
    (5, 6): 0.440001,
    (7, 8): 0.459084,
    (9, 10): 0.470734,
    (11, 12): 0.478286,
}


@lru_cache(maxsize=1)
def _big_ledger():
    return weighted_divisor_table(2, 0.35, 10**6)


def test_criterion_1_sequence_head():
    t0 = time.perf_counter()
    seq = threshold_sequence(6)
    elapsed = time.perf_counter() - t0
    diffs = {r.j: abs(float(r.threshold) - REF_SEQ[r.j]) for r in seq if r.j >= 2}
    ok = all(d <= 1e-5 for d in diffs.values()) and elapsed < 1.0
    line = _verdict(
        1,
        ok,
        f"c_2..c_6 within 1e-5 of references (max diff {max(diffs.values()):.2e}) "
        f"in {elapsed:.3f}s (budget 1s)",
    )
    assert ok, line


def test_criterion_2_sequence_tail():
    t0 = time.perf_counter()
    seq = threshold_sequence(11)
    elapsed = time.perf_counter() - t0
    diffs = {r.j: abs(float(r.threshold) - REF_SEQ[r.j]) for r in seq if r.j >= 7}
    ok = all(d <= 1e-5 for d in diffs.values()) and elapsed < 1.0
    line = _verdict(
        2,
        ok,
        f"c_7..c_11 within 1e-5 of references (max diff {max(diffs.values()):.2e}) "
        f"in {elapsed:.3f}s (budget 1s)",
    )
    assert ok, line


def test_criterion_3_closed_form_thresholds():
    # (sigma0, j, order rule taken at sigma0, reference threshold). Each rule
    # is written out here rather than read from the bounds module, so the
    # closed form below is an independent route. 5/8, 35/54 and 5/6 are
    # breakpoints where both neighbouring rules agree; at 7/8 the order table
    # keeps the larger branch of its documented jump (184/5 over 98/3,
    # checked by criterion 7). The j = 4 reference is printed as 221/229 in
    # the source table, a misprint: the same construction gives 221/224 (same
    # numerator), and a scan of sigma0 over (1/2, 1) finds no j = 4
    # threshold below 361/366 (at 5/6), while 221/229 is about 0.96507.
    rows = (
        (F(5, 8), 1, lambda s: 4 / (3 - 4 * s), F(4, 5)),
        (F(35, 54), 2, lambda s: 10 / (5 - 6 * s), F(71, 78)),
        (F(5, 6), 3, lambda s: 12408 / (4537 - 4890 * s), F(659, 690)),
        (F(7, 8), 4, lambda s: 4324 / (1031 - 1044 * s), F(221, 224)),
    )
    outcomes = []
    ok = True
    for sigma0, j, order_rule, ref in rows:
        got = moment_threshold(sigma0, j).threshold
        A = order_rule(sigma0)
        # with 4p <= 12 (that is A >= 3j) the excess is (4p - 4)/8, so
        # x = excess(4p)/p = j/A and the threshold is (3j + sigma0 A)/(2j + A)
        closed = (3 * j + sigma0 * A) / (2 * j + A) if A >= 3 * j else None
        if got == closed == ref:
            outcomes.append(f"j={j}: {got} (exact, order {A})")
        else:
            ok = False
            outcomes.append(
                f"j={j}: reference {ref}, closed form {closed}, construction {got}"
            )
    line = _verdict(
        3,
        ok,
        "zero-tolerance closed forms, program = (3j + sigma0 A)/(2j + A) from the "
        "literal order rule = reference; " + "; ".join(outcomes)
        + " [j=4 reference corrected from the misprinted 221/229]",
    )
    assert ok, line


def test_criterion_4_pointwise_anchor():
    got = float(pointwise_exponent(F(4, 5)))
    diff = abs(got - 0.0438170952)
    ok = diff <= 1e-9
    line = _verdict(4, ok, f"curve value at 4/5 = {got!r}, reference 0.0438170952, diff {diff:.2e} (tol 1e-9)")
    assert ok, line


def test_criterion_5_pair_search():
    pair, bound = search_best_pair(2, 2)
    ok = bound == F(37, 38)
    # a deeper search may only improve on the depth-2 value
    _, deeper = search_best_pair(2, 4)
    ok = ok and deeper <= bound
    line = _verdict(
        5,
        ok,
        f"depth-2 search for the squared secondary factor attains {bound} "
        f"with pair ({pair.k}, {pair.l}); depth-4 best {deeper} does not regress",
    )
    assert ok, line


def test_criterion_6_shift_ranges():
    diffs = {}
    for pair_label, ref in REF_SHIFT.items():
        lo_a, hi_a = admissible_shift_range(pair_label[0])
        lo_b, hi_b = admissible_shift_range(pair_label[1])
        assert lo_a == lo_b and hi_a == hi_b == F(1, 2)
        diffs[pair_label] = abs(float(lo_a) - ref)
    ok = all(d <= 1e-5 for d in diffs.values())
    line = _verdict(
        6,
        ok,
        f"six admissible-shift lower ends within 1e-5 (max diff {max(diffs.values()):.2e})",
    )
    assert ok, line


def test_criterion_7_table_consistency():
    t0 = time.perf_counter()
    excess = moment_excess_table()
    exact_bps = excess.interior_breakpoints()
    excess_ok = all(
        excess.branch_values(bp)[0] == excess.branch_values(bp)[1] for bp in exact_bps
    )
    order = bounded_order_table()
    jump = F(7, 8)
    order_ok = True
    for bp in order.interior_breakpoints():
        left, right = order.branch_values(bp)
        if bp == jump:
            # documented jump: the table keeps the larger branch value here
            order_ok &= left == F(184, 5) and right == F(98, 3)
        else:
            order_ok &= abs(float(left - right)) <= 1e-9
    curve_ok = True
    lo, hi = F(5, 7), F(9999, 10000)
    npts = 10**4
    for i in range(npts):
        s = lo + (hi - lo) * i / (npts - 1)
        if not pointwise_exponent(s) < (1 - s) / 2:
            curve_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = excess_ok and order_ok and curve_ok and elapsed < 5.0
    line = _verdict(
        7,
        ok,
        f"excess table exactly continuous at {len(exact_bps)} interior breakpoints; "
        "order table continuous to 1e-9 at its breakpoints including the bisected "
        "root, apart from the documented jump at 7/8 (184/5 vs 98/3); curve below "
        f"(1-s)/2 on a {npts}-point grid; {elapsed:.2f}s (budget 5s)",
    )
    assert ok, line


def test_criterion_8_zeta_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst_fe = 0.0
    count = 0
    # the reflection 1 - s must be formed at extended precision, or its
    # rounding alone would swamp the residual
    with mpmath.mp.workdps(30):
        while count < 100:
            sig = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(-30.0, 30.0))
            s = mpmath.mpc(sig, t)
            if mpmath.fabs(s - 1) < 0.1:
                continue
            lhs = zeta_eval(s, dps=25)
            rhs = chi_factor(s, dps=25) * zeta_eval(1 - s, dps=25)
            worst_fe = max(worst_fe, float(mpmath.fabs(lhs - rhs)))
            count += 1
    with mpmath.mp.workdps(40):
        basel_ref = mpmath.mp.pi**2 / 6
        basel_diff = float(abs(zeta_eval(2.0, dps=25) - basel_ref))
    worst_pair = 0.0
    checked = 0
    while checked < 40:
        sig = float(rng.uniform(0.1, 2.0))
        t = float(rng.uniform(0.0, 50.0))
        s = complex(sig, t)
        if abs(s - 1.0) < 0.05:
            continue
        a = zeta_eval(s, target_abs_error=1e-21)
        b = zeta_eval_alternating(s, target_abs_error=1e-21)
        worst_pair = max(worst_pair, abs(complex(a - b)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_fe < 1e-20 and basel_diff < 1e-22 and worst_pair < 2e-21 and elapsed < 30.0
    line = _verdict(
        8,
        ok,
        f"functional-equation residual < 1e-20 on 100 strip points (worst {worst_fe:.2e}); "
        f"value at 2 matches pi^2/6 to {basel_diff:.2e}; summation routes agree within "
        f"combined targets (worst {worst_pair:.2e}); {elapsed:.1f}s (budget 30s)",
    )
    assert ok, line


def test_criterion_9_moment_quadrature():
    t0 = time.perf_counter()
    full = hybrid_moment(0.0, 5000.0, 0.5, 0, rel_tol=1e-3)
    asym = 5000.0 * math.log(5000.0) ** 4 / (2.0 * math.pi**2)
    ratio = full.value / asym
    ratio_ok = 1.0 / 3.0 < ratio < 3.0
    base = hybrid_moment(0.0, 800.0, 0.5, 0, rel_tol=1e-3)
    rng = np.random.default_rng(20260809)
    split_ok = True
    worst_excess = 0.0
    for _ in range(20):
        mid = float(rng.uniform(50.0, 750.0))
        left = hybrid_moment(0.0, mid, 0.5, 0, rel_tol=1e-3)
        right = hybrid_moment(mid, 800.0, 0.5, 0, rel_tol=1e-3)
        gap = abs(left.value + right.value - base.value)
        budget = left.error_estimate + right.error_estimate + base.error_estimate
        split_ok &= gap <= budget
        worst_excess = max(worst_excess, gap / budget)
    trace = hybrid_moment_trace(0.0, 1000.0, 0.75, 1, rel_tols=[1e-2, 1e-3, 1e-4])
    mono_ok = all(
        b.error_estimate <= a.error_estimate for a, b in zip(trace, trace[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and split_ok and mono_ok and elapsed < 600.0
    line = _verdict(
        9,
        ok,
        f"fourth-moment value over [0, 5000] is {ratio:.4f} times T log^4 T / (2 pi^2) "
        f"(factor-3 window); 20 random splits additive within summed error estimates "
        f"(worst gap/budget {worst_excess:.3f}); refinement trace error monotone; "
        f"{elapsed:.1f}s (budget 600s)",
    )
    assert ok, line


def test_criterion_10_divisor_tables():
    t0 = time.perf_counter()
    collapse_ok = True
    for ell in (1, 2, 3):
        d4 = sieve_divisor_counts(4, 10**5)
        dell = sieve_divisor_counts(ell, 10**5)
        conv = _kernels.weighted_combine(d4, dell, 0.0)
        plain = sieve_divisor_counts(4 + ell, 10**5).astype(np.float64)
        collapse_ok &= np.array_equal(conv, plain)
    # independent dynamic programme over divisor lists, for every n <= 2000
    N = 2000
    divs = [[] for _ in range(N + 1)]
    for d in range(1, N + 1):
        for mult in range(d, N + 1, d):
            divs[mult].append(d)
    prev = [0] + [1] * N
    sieve_ok = True
    for k in range(2, 7):
        cur = [0] * (N + 1)
        for n in range(1, N + 1):
            cur[n] = sum(prev[d] for d in divs[n])
        table = sieve_divisor_counts(k, N)
        sieve_ok &= all(cur[n] == table[n] for n in range(1, N + 1))
        prev = cur
    chk = dirichlet_identity_check(2, 0.35, 2.0, 10**5)
    identity_ok = chk.within_bound
    poly = main_terms(1, 0.4)
    stable_ok = poly.diagnostics["max_rel_discrepancy"] < 1e-8
    want = float(zeta_eval(0.6, dps=30).real ** 4) / 0.6
    residue_ok = abs(poly.cprime_coeffs[0] - want) < 1e-8
    ledger = _big_ledger()
    big_ok = ledger.N == 10**6 and math.isfinite(ledger.summatory_at(10**6))
    elapsed = time.perf_counter() - t0
    ok = collapse_ok and sieve_ok and identity_ok and stable_ok and residue_ok and big_ok and elapsed < 300.0
    line = _verdict(
        10,
        ok,
        f"zero-shift convolution equals plain counts to 1e5 for three weight dimensions; "
        f"sieve matches an independent divisor-list recursion to n=2000, k=6; series "
        f"identity residual {chk.residual:.3g} below computed tail bound {chk.tail_bound:.3g}; "
        f"series and contour agree to 1e-8 and the simple-pole residue matches its "
        f"closed form to 1e-8; 1e6 table built; {elapsed:.1f}s (budget 300s)",
    )
    assert ok, line


def _window_stats(ledger, poly, X):
    """RMS and mean of E(x)/x over every integer x in the window (X/10, X]."""
    xs = range(X // 10 + 1, X + 1)
    ratios = np.array([error_term(ledger, poly, x) / x for x in xs])
    return math.sqrt(float(np.mean(ratios**2))), float(np.mean(ratios))


def test_criterion_11_error_trend():
    # E(X) << X^(1/2+eps) is an asymptotic bound and E changes sign, so the
    # trend is judged by moments of E(x)/x over decade windows (X/10, X], not
    # at single points, where a zero crossing of E can make |E|/X jump.
    ledger = _big_ledger()
    poly = main_terms(2, 0.35)
    Xs = [10**3, 10**4, 10**5, 10**6]
    rows = error_trend(ledger, poly, Xs, eps=0.05)
    rows_ok = all(r["E"] == error_term(ledger, poly, X) for r, X in zip(rows, Xs))
    stats = [_window_stats(ledger, poly, X) for X in Xs]
    rms = [r for r, _ in stats]
    mean = [abs(m) for _, m in stats]
    rms_falls = all(b < a for a, b in zip(rms, rms[1:]))
    mean_falls = all(b < a for a, b in zip(mean, mean[1:]))
    ratios = [abs(r["E"]) / r["X"] for r in rows]
    soft = [r["normalized"] for r in rows]
    soft_ok = all(math.isfinite(v) for v in soft)
    ok = rows_ok and rms_falls and mean_falls and soft_ok
    line = _verdict(
        11,
        ok,
        "over the windows (X/10, X] for X = 1e3, 1e4, 1e5, 1e6, RMS of E(x)/x = "
        + ", ".join(f"{v:.3f}" for v in rms)
        + " and |mean| = "
        + ", ".join(f"{v:.4f}" for v in mean)
        + ", both strictly decreasing required; error_trend rows "
        + ("equal" if rows_ok else "differ from")
        + " the per-x error term; diagnostic pointwise |E|/X = "
        + ", ".join(f"{v:.3f}" for v in ratios)
        + ", |E|/X^0.55 = "
        + ", ".join(f"{v:.3f}" for v in soft),
    )
    assert ok, line
