"""Exact-table tests: branch values, continuity, the threshold recursion,
and the derived constants, all against independently frozen values."""

from fractions import Fraction

import mpmath
import pytest

from zetalab import bounds
from zetalab.errors import DomainError

F = Fraction

# Threshold sequence reference decimals (printed to 6-7 places); the exact
# values computed here agree with them to a few 1e-7.
REF_C = {
    1: "0.8",
    2: "0.9043914",
    3: "0.9400014",
    4: "0.9590840",
    5: "0.9707341",
    6: "0.9782859",
    7: "0.9835356",
    8: "0.9872540",
    9: "0.9900048",
    10: "0.9920463",
    11: "0.9936163",
}

ROOT_REF = 0.915911061797442  # crossing of the last two bounded-order rules


def test_moment_excess_spot_values():
    assert bounds.moment_excess(4) == 0
    assert bounds.moment_excess(F(16, 3)) == F(1, 6)
    assert bounds.moment_excess(8) == F(1, 2)
    assert bounds.moment_excess(12) == 1
    assert bounds.moment_excess(F(178, 13)) == F(16, 13)
    assert bounds.moment_excess(F(20028, 1313)) == F(1936, 1313)
    assert bounds.moment_excess(F(1836, 101)) == F(192, 101)
    assert bounds.moment_excess(20) == F(448, 205)


def _branch_values(table, k):
    """Left and right rule values at the interior breakpoint breaks[k]."""
    bp = table.breaks[k]
    return table.rules[k - 1](bp), table.rules[k](bp)


def test_moment_excess_continuity_exact():
    table = bounds.moment_excess_table()
    assert table.breaks[1:] == (F(12), F(178, 13), F(20028, 1313), F(1836, 101))
    for k in range(1, len(table.breaks)):
        left, right = _branch_values(table, k)
        assert left == right  # adjacent rules agree exactly


def test_moment_excess_monotone():
    lo, hi = F(4), F(40)
    grid = [lo + k * (hi - lo) / 2000 for k in range(2001)]
    vals = [bounds.moment_excess(x) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_moment_excess_domain():
    with pytest.raises(DomainError):
        bounds.moment_excess(F(39, 10))
    with pytest.raises(DomainError):
        bounds.moment_excess(float("nan"))


def test_bounded_order_spot_values():
    m = bounds.max_bounded_order
    assert m(F(5, 8)) == 8
    assert m(F(35, 54)) == 9
    assert m(F(41, 60)) == 10
    assert m(F(3, 4)) == F(528, 37)
    assert m(F(5, 6)) == F(4324, 161)
    assert m(F(7, 8)) == F(184, 5)  # jump point: max of the two branch values
    assert m(F(19, 20)) == F(690, 7)


def test_bounded_order_continuity():
    table = bounds.bounded_order_table()
    assert len(table.breaks) == 8
    for k in range(1, 6):
        left, right = _branch_values(table, k)
        assert left == right
    # 7/8 is a genuine discontinuity of the table: the two adjacent rules
    # are lower bounds from different methods and do not meet there
    assert table.breaks[6] == F(7, 8)
    assert _branch_values(table, 6) == (F(184, 5), F(98, 3))
    # the final breakpoint is the crossing root of the last two rules
    root = table.breaks[7]
    assert abs(float(root) - ROOT_REF) < 1e-12
    left, right = _branch_values(table, 7)
    assert abs(float(left - right)) < 1e-9


def test_bounded_order_root_is_rule_crossing():
    root = bounds.bounded_order_table().breaks[7]
    f = 98 * (4 * root - 1) * (1 - root) - (24 * root - 9) * (31 - 32 * root)
    assert abs(float(f)) < 1e-11
    # and it is the closed-form root (542 + sqrt(21540))/752, not a float near it
    with mpmath.workdps(40):
        exact = (542 + mpmath.sqrt(21540)) / 752
        assert abs(mpmath.mpf(root.numerator) / root.denominator - exact) < 1e-16


def test_bounded_order_domain():
    with pytest.raises(DomainError):
        bounds.max_bounded_order(F(1, 2))
    with pytest.raises(DomainError):
        bounds.max_bounded_order(1)
    with pytest.raises(DomainError):
        bounds.max_bounded_order(F(3, 4), variant="nope")


def test_bounded_order_improved_variant():
    # below 14/15 the variant changes nothing
    assert bounds.max_bounded_order(F(9, 10), variant="ivic-ouellet") == bounds.max_bounded_order(F(9, 10))
    # above it the improved rules dominate on both sides of their crossing
    # c0 = (171 + sqrt(1602))/222 = 0.950563..., between 0.95056 and 0.95057
    def below(s):
        return 258 / (63 - 64 * s)

    def beyond(s):
        return (30 * s - 12) / ((4 * s - 1) * (1 - s))

    eps = F(1, 10**12)
    for s, rule in ((F(94, 100), below), (F(95056, 10**5), below), (F(95057, 10**5), beyond),
                    (F(96, 100), beyond), (F(99, 100), beyond), (1 - eps, beyond)):
        improved = bounds.max_bounded_order(s, variant="ivic-ouellet")
        assert isinstance(improved, Fraction)
        assert improved == rule(s) >= bounds.max_bounded_order(s)
    assert bounds.max_bounded_order(F(94, 100), variant="ivic-ouellet") == F(6450, 71)
    assert bounds.max_bounded_order(F(96, 100), variant="ivic-ouellet") == F(10500, 71)
    # float arithmetic is off by 2.2e-5 relative here
    assert bounds.max_bounded_order(1 - eps, variant="ivic-ouellet") == 5999999999998 - F(2, 749999999999)


def test_interpolation_anchors():
    assert bounds.interpolation_anchor(3) == (F(5, 6), F(1, 30))
    assert bounds.interpolation_anchor(4) == (F(28, 31), F(1, 62))
    assert bounds.interpolation_anchor(5) == (F(119, 126), F(1, 126))
    with pytest.raises(DomainError):
        bounds.interpolation_anchor(2)
    with pytest.raises(DomainError):
        bounds.interpolation_anchor("3")


def test_convex_interpolate():
    assert bounds.convex_interpolate(0, 1, 1, 3, F(1, 2)) == 2
    assert bounds.convex_interpolate(0, 1, 1, 3, 0) == 1
    assert bounds.convex_interpolate(0, 1, 1, 3, 1) == 3
    with pytest.raises(DomainError):
        bounds.convex_interpolate(0, 1, 1, 3, 2)
    with pytest.raises(DomainError):
        bounds.convex_interpolate(1, 1, 0, 3, F(1, 2))


def test_pointwise_exponent_exact_spot():
    # interpolating between the leading anchor and the q=3 lattice anchor
    # at 4/5 reproduces the 10-digit reference decimal exactly
    assert bounds.pointwise_exponent(F(4, 5)) == F(438170952, 10**10)
    assert bounds.pointwise_exponent(F(5, 7)) == bounds.ANCHOR_LOW
    assert bounds.pointwise_exponent(F(5, 6)) == F(1, 30)
    assert bounds.pointwise_exponent(F(28, 31)) == F(1, 62)


def test_pointwise_exponent_below_convexity_line():
    # C(sigma) < (1-sigma)/2 across the domain
    lo, hi = F(5, 7), F(9999, 10**4)
    grid = [lo + k * (hi - lo) / 1500 for k in range(1501)]
    for s in grid:
        assert bounds.pointwise_exponent(s) < (1 - s) / 2


def test_pointwise_exponent_domain():
    with pytest.raises(DomainError):
        bounds.pointwise_exponent(F(7, 10))
    with pytest.raises(DomainError):
        bounds.pointwise_exponent(1)
    with pytest.raises(DomainError):
        bounds.pointwise_exponent(F(4, 5), variant="ivic-ouellet")


def test_pointwise_exponent_ford_variant():
    # far from 1 the explicit bound is weaker and the curve value stands
    base = float(bounds.pointwise_exponent(F(9, 10)))
    assert bounds.pointwise_exponent(F(9, 10), variant="ford") == pytest.approx(base)
    # close enough to 1 the explicit bound wins
    v = bounds.pointwise_exponent(F(9999, 10000), variant="ford")
    assert v == pytest.approx(4.45 * (1e-4) ** 1.5, rel=1e-12)
    assert v < float(bounds.pointwise_exponent(F(9999, 10000)))
    # next to 1, 1 - sigma must not be formed from a rounded sigma: that
    # is off by 3.3e-5 relative at 1 - 1e-12 and by 17% at 1 - 1e-16
    for e in (12, 16):
        v = bounds.pointwise_exponent(1 - F(1, 10**e), variant="ford")
        with mpmath.workdps(40):
            ref = mpmath.mpf(445) / 100 * mpmath.power(10, -1.5 * e)
            assert abs(v - ref) <= 1e-15 * ref, e


def test_threshold_closed_forms_exact():
    cases = [
        (F(5, 8), 1, F(4, 5)),
        (F(35, 54), 2, F(71, 78)),
        (F(5, 6), 3, F(659, 690)),
        # the construction gives 221/224 here; the reference table misprints
        # this row as 221/229, which the acceptance suite corrects
        (F(7, 8), 4, F(221, 224)),
    ]
    for sigma0, j, expected in cases:
        rec = bounds.moment_threshold(sigma0, j)
        assert rec.threshold == expected
        assert rec.provenance == "table-threshold"
        assert rec.p is not None and rec.p > 1


def test_threshold_domain():
    # order at 5/8 is 8, so j = 4 leaves no room (order must exceed 2j)
    with pytest.raises(DomainError):
        bounds.moment_threshold(F(5, 8), 4)
    with pytest.raises(DomainError):
        bounds.moment_threshold(F(5, 8), 0)
    with pytest.raises(DomainError):
        bounds.moment_threshold(F(2, 5), 1)


def test_threshold_outside_unit_interval_raises_domain_error():
    # order(5001/8000) = 40000/4997 only just exceeds 2j = 8, so p is large
    # and the closed form lands above 1: a typed error, not a ValueError
    with pytest.raises(DomainError, match="20472201/18430784"):
        bounds.moment_threshold(F(5001, 8000), 4)


def test_threshold_sequence_against_reference():
    seq = bounds.threshold_sequence(11)
    assert [r.j for r in seq] == list(range(1, 12))
    assert seq[0].threshold == F(4, 5)
    for rec in seq:
        assert abs(float(rec.threshold) - float(REF_C[rec.j])) < 1e-5
    vals = [r.threshold for r in seq]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(F(1, 2) < v < 1 for v in vals)


def test_threshold_sequence_provenance_and_sensitivity():
    seq = bounds.threshold_sequence(5)
    assert seq[0].provenance == "table-threshold"
    lo, hi = seq[0].sensitivity
    assert float(hi - lo) == 0.0
    for rec in seq[1:]:
        assert rec.provenance == "recursion"
        lo, hi = rec.sensitivity
        assert lo <= rec.threshold <= hi
        # the anchor truncation bracket is a few 1e-9 wide
        assert 0 < float(hi - lo) < 1e-7
        # sigma0 of each step is the previous threshold
    for prev, rec in zip(seq, seq[1:]):
        assert rec.sigma0 == prev.threshold


def test_threshold_sequence_domain():
    with pytest.raises(DomainError):
        bounds.threshold_sequence(0)
    with pytest.raises(DomainError):
        bounds.threshold_sequence("3")


def test_admissible_shift_range_values():
    refs = {
        (1, 2): "0.3",
        (3, 4): "0.4043914",
        (5, 6): "0.4400014",
        (7, 8): "0.4590840",
        (9, 10): "0.4707341",
        (11, 12): "0.4782859",
    }
    for (e1, e2), ref in refs.items():
        lo1, hi1 = bounds.admissible_shift_range(e1)
        lo2, hi2 = bounds.admissible_shift_range(e2)
        assert lo1 == lo2 and hi1 == hi2 == F(1, 2)
        assert abs(float(lo1) - float(ref)) < 1e-5
    # at ell = 1 the 1/2 - 1/ell arm is negative, so c_1 - 1/2 = 3/10 wins
    assert bounds.admissible_shift_range(1)[0] == F(3, 10)
    assert bounds.admissible_shift_range(2)[0] == F(3, 10)


def test_admissible_shift_range_domain():
    with pytest.raises(DomainError):
        bounds.admissible_shift_range(13)
    with pytest.raises(DomainError):
        bounds.admissible_shift_range(0)


def test_piecewise_bound_misuse():
    table = bounds.moment_excess_table()
    # below domain
    with pytest.raises(DomainError, match=r"argument 7/2 outside domain \[4, inf\]$"):
        table(F(7, 2))
    with pytest.raises(DomainError, match=r"argument 0.25 outside domain \[1/2, inf\]$"):
        bounds.bounded_order_table()(0.25)


def test_piecewise_bound_larger_branch_at_jump():
    # a jump from 1 + x to 3x at x = 2 (values 3 and 6): the table keeps the
    # larger branch there, and each rule holds inside its interval
    table = bounds.PiecewiseBound(
        label="toy",
        breaks=(F(0), F(2)),
        rules=(lambda x: 1 + x, lambda x: 3 * x),
    )
    assert _branch_values(table, 1) == (3, 6)
    assert table(2) == 6
    assert table(0) == 1
    assert table(F(3, 2)) == F(5, 2)
    assert table(F(5, 2)) == F(15, 2)
    assert table(100) == 300


def test_piecewise_bound_construction_errors():
    rule = lambda x: x  # noqa: E731
    with pytest.raises(ValueError, match="must increase"):
        bounds.PiecewiseBound("toy", (F(0), F(2), F(2)), (rule, rule, rule))
    with pytest.raises(ValueError, match="must increase"):
        bounds.PiecewiseBound("toy", (F(1), F(0)), (rule, rule))
    with pytest.raises(ValueError, match="rules"):
        bounds.PiecewiseBound("toy", (F(0), F(2)), (rule,))
    with pytest.raises(ValueError, match="rules"):
        bounds.PiecewiseBound("toy", (F(0), F(2)), (rule, rule, rule))

