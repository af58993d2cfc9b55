"""One rule per argument kind at every public entry point: numpy integers
count as integers, while bools, floats and strings do not; an exact s
such as Fraction(3, 2) is the point it denotes, while a string or a
non-finite s is refused."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zetalab import bounds, pairs
from zetalab.divisors import (
    dirichlet_identity_check,
    main_terms,
    series_tail_bound,
    sieve_divisor_counts,
    weighted_divisor_table,
)
from zetalab.errors import DomainError
from zetalab.moments import hybrid_moment
from zetalab.zetanum import zeta_eval

F = Fraction
PAIR = pairs.ExponentPair(F(1, 6), F(2, 3))

# (entry point at one integer argument v, the name its errors give that
# argument, a valid v); a ledger or table compares by its values
INTEGER_ARGUMENTS = {
    "sieve-k": (lambda v: sieve_divisor_counts(v, 100).tolist(), "k", 3),
    "sieve-N": (lambda v: sieve_divisor_counts(2, v).tolist(), "N", 100),
    "table-ell": (lambda v: weighted_divisor_table(v, 0.35, 100).summatory.tolist(), "ell", 2),
    "table-N": (lambda v: weighted_divisor_table(2, 0.35, v).summatory.tolist(), "N", 100),
    "main_terms-ell": (lambda v: main_terms(v, 0.35), "ell", 2),
    "tail-ell": (lambda v: series_tail_bound(v, 2.0, 10**4), "ell", 2),
    "tail-N": (lambda v: series_tail_bound(2, 2.0, v), "N", 10**4),
    "identity-ell": (lambda v: dirichlet_identity_check(v, 0.35, 2.0, 10**4), "ell", 2),
    "identity-N": (lambda v: dirichlet_identity_check(2, 0.35, 2.0, v), "N", 10**4),
    "moment-j": (lambda v: hybrid_moment(0, 10, 0.75, v), "j", 1),
    "sigma_bound-j": (lambda v: pairs.hybrid_sigma_bound(v, PAIR), "j", 1),
    "generate-max_word_length": (lambda v: pairs.generate_pairs(v), "max_word_length", 3),
    "rank-j": (lambda v: pairs.rank_pairs(v, 4), "j", 2),
    "rank-max_word_length": (lambda v: pairs.rank_pairs(2, v), "max_word_length", 4),
    "anchor-q": (lambda v: bounds.interpolation_anchor(v), "anchor index", 3),
    "threshold-j": (lambda v: bounds.moment_threshold(F(5, 8), v), "j", 1),
    "sequence-j_max": (lambda v: bounds.threshold_sequence(v), "j_max", 3),
    "shift_range-ell": (lambda v: bounds.admissible_shift_range(v), "ell", 2),
}


@pytest.mark.parametrize("call, name, v", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments(call, name, v):
    assert call(np.int64(v)) == call(v)
    for bad in (True, 2.0, "2"):
        with pytest.raises(DomainError, match=rf"^{name} must be .*, got {bad!r}$"):
            call(bad)


S_ARGUMENTS = {
    "zeta_eval": lambda s: zeta_eval(s),
    "series_tail_bound": lambda s: series_tail_bound(2, s, 10**4),
    "dirichlet_identity_check": lambda s: dirichlet_identity_check(2, 0.35, s, 10**4),
}


@pytest.mark.parametrize("call", S_ARGUMENTS.values(), ids=S_ARGUMENTS.keys())
def test_s_arguments(call):
    assert call(Fraction(3, 2)) == call(1.5)
    for bad in ("2", math.inf, math.nan, complex(2.0, math.nan)):
        with pytest.raises(DomainError, match=r"^s must be (a complex number|finite), got "):
            call(bad)


def test_rational_arguments_take_numpy_floats():
    # a real that is not rational converts at the binary value of float(x)
    assert bounds.max_bounded_order(np.float32(0.75)) == bounds.max_bounded_order(0.75)


def test_pair_fields_are_exact():
    pair = pairs.ExponentPair(0.25, "0.75")
    assert (type(pair.k), type(pair.l)) == (Fraction, Fraction)
    assert (pair.k, pair.l) == (F(1, 4), F(3, 4))
    with pytest.raises(DomainError, match=r"^k must be a real number, got None$"):
        pairs.ExponentPair(None, 1)
