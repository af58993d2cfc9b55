"""Exponent-pair calculus: the two processes, word generation, the abscissa
bound, and the search."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from zetalab import pairs
from zetalab.errors import DomainError

F = Fraction


def test_process_arithmetic():
    p = pairs.ExponentPair(F(1, 6), F(2, 3))
    a1 = pairs.process_A(p)
    assert (a1.k, a1.l) == (F(1, 14), F(11, 14))
    a2 = pairs.process_A(a1)
    assert (a2.k, a2.l) == (F(1, 30), F(13, 15))
    a3 = pairs.process_A(a2)
    assert (a3.k, a3.l) == (F(1, 62), F(57, 62))
    assert a3.word == "AAA"
    b = pairs.process_B(pairs.ExponentPair(F(0), F(1)))
    assert (b.k, b.l) == (F(1, 2), F(1, 2))
    assert pairs.process_B(a2).k == F(13, 15) - F(1, 2)


def test_process_B_involution():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = F(int(rng.integers(0, 500)), 1000)
        l = F(int(rng.integers(500, 1001)), 1000)
        p = pairs.ExponentPair(k, l)
        q = pairs.process_B(pairs.process_B(p))
        assert (q.k, q.l) == (p.k, p.l)


def test_process_B_fixes_base_pair():
    p = pairs.ExponentPair(F(1, 6), F(2, 3))
    q = pairs.process_B(p)
    assert (q.k, q.l) == (p.k, p.l)


def test_pair_domain_enforced():
    with pytest.raises(DomainError):
        pairs.ExponentPair(F(3, 5), F(2, 3))  # k > 1/2
    with pytest.raises(DomainError):
        pairs.ExponentPair(F(1, 6), F(2, 5))  # l < 1/2
    with pytest.raises(DomainError):
        pairs.ExponentPair(-F(1, 10), F(2, 3))


def test_processes_preserve_domain():
    # every value a word up to length 10 reaches from the base pairs is a
    # valid pair
    seen = pairs.generate_pairs(10)
    assert len(seen) > 20
    for p in seen:
        assert 0 <= p.k <= F(1, 2) <= p.l <= 1


def test_generate_pairs_dedupes_by_value():
    got = pairs.generate_pairs(2)
    keys = [(p.k, p.l) for p in got]
    assert len(keys) == len(set(keys))
    # the base pair is B-fixed, so it appears with the empty word, not "B"
    base = [p for p in got if (p.k, p.l) == (F(1, 6), F(2, 3))]
    assert len(base) == 1 and base[0].word == ""


def _replay_pairs(max_word_length):
    """Reference search: replay every A/B word over every base pair and keep,
    per value, the shortest word, then the lexicographically smallest."""
    best = {}
    for length in range(max_word_length + 1):
        for letters in product("AB", repeat=length):
            for k, l in pairs.BASE_PAIRS:
                p = pairs.ExponentPair(k, l)
                for letter in letters:
                    p = pairs.process_A(p) if letter == "A" else pairs.process_B(p)
                cur = best.get((p.k, p.l))
                if cur is None or (len(p.word), p.word) < (len(cur.word), cur.word):
                    best[(p.k, p.l)] = p
    return sorted(best.values(), key=lambda p: (len(p.word), p.word, p.k, p.l))


@pytest.mark.parametrize("depth", range(11))
def test_generate_pairs_matches_word_replay(depth):
    got = [(p.k, p.l, p.word) for p in pairs.generate_pairs(depth)]
    assert got == [(p.k, p.l, p.word) for p in _replay_pairs(depth)]


def test_search_best_pair_matches_word_replay():
    # a value is reachable within d letters exactly when its shortest word
    # has at most d letters, so one replay to depth 12 serves every depth
    replayed = _replay_pairs(12)
    for j in range(1, 5):
        for depth in range(13):
            ranked = []
            for p in replayed:
                bound = pairs.hybrid_sigma_bound(j, p)
                if len(p.word) <= depth and bound is not pairs.INFEASIBLE:
                    ranked.append((bound, len(p.word), p.word, p.k, p.l))
            if not ranked:
                with pytest.raises(DomainError):
                    pairs.search_best_pair(j, depth)
                continue
            best, bound = pairs.search_best_pair(j, depth)
            assert (bound, len(best.word), best.word, best.k, best.l) == min(ranked), (j, depth)


def test_generate_pairs_expands_each_value_once(monkeypatch):
    # each distinct value costs at most one A and one B application; replaying
    # every word from scratch costs about 180,000 at depth 12
    calls = []
    for name in ("process_A", "process_B"):
        step = getattr(pairs, name)
        monkeypatch.setattr(pairs, name, lambda p, step=step: calls.append(1) or step(p))
    found = pairs.generate_pairs(12)
    assert 0 < len(calls) <= 2 * len(found)


def test_hybrid_sigma_bound_values():
    base = pairs.ExponentPair(F(1, 6), F(2, 3))
    assert pairs.hybrid_sigma_bound(1, base) == F(9, 10)
    aa = pairs.process_A(pairs.process_A(base))
    assert pairs.hybrid_sigma_bound(2, aa) == F(37, 38)
    aaa = pairs.process_A(aa)
    assert pairs.hybrid_sigma_bound(2, aaa) == F(34, 35)
    # (0, 1) never satisfies the feasibility inequality
    trivial = pairs.ExponentPair(F(0), F(1))
    for j in (1, 2, 3):
        assert pairs.hybrid_sigma_bound(j, trivial) is pairs.INFEASIBLE
    with pytest.raises(DomainError):
        pairs.hybrid_sigma_bound(0, base)


def test_search_best_pair():
    best, bound = pairs.search_best_pair(2, 2)
    assert bound == F(37, 38)
    assert (best.k, best.l) == (F(1, 30), F(13, 15))
    assert best.word == "AA"
    # a deeper search may only improve the bound
    _, bound3 = pairs.search_best_pair(2, 3)
    assert bound3 == F(34, 35) <= bound
    _, bound1 = pairs.search_best_pair(1, 0)
    assert bound1 == F(9, 10)
    for depth in (1, 2, 4):
        _, b = pairs.search_best_pair(1, depth)
        assert b <= bound1


def test_search_infeasible_raises():
    # large j: the feasibility inequality l + (2j-1)k < 1 fails everywhere
    # reachable at depth 0 from the base pairs
    with pytest.raises(DomainError):
        pairs.search_best_pair(50, 0)


def test_search_deterministic():
    a = pairs.search_best_pair(2, 4)
    b = pairs.search_best_pair(2, 4)
    assert a[1] == b[1] and a[0].word == b[0].word


def test_pointwise_bound_from_pair():
    p = pairs.ExponentPair(F(1, 14), F(11, 14))
    assert pairs.pointwise_bound_from_pair(p, F(1, 2)) == F(5, 28)
    base = pairs.ExponentPair(F(1, 6), F(2, 3))
    assert pairs.pointwise_bound_from_pair(base, F(1, 2)) == F(1, 6)
    assert pairs.pointwise_bound_from_pair(pairs.ExponentPair(F(0), F(1)), 1) == 0
    # l - k >= sigma required
    with pytest.raises(DomainError):
        pairs.pointwise_bound_from_pair(pairs.ExponentPair(F(1, 2), F(1, 2)), F(1, 2))
    with pytest.raises(DomainError):
        pairs.pointwise_bound_from_pair(base, F(1, 4))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pairs.generate_pairs("3"), "max_word_length must be a nonnegative integer, got '3'"),
        (lambda: pairs.generate_pairs(2.5), "max_word_length must be a nonnegative integer, got 2.5"),
        (lambda: pairs.generate_pairs(-1), "max_word_length must be a nonnegative integer, got -1"),
        (lambda: pairs.pointwise_bound_from_pair(pairs.ExponentPair(F(0), F(1)), "x"),
         "sigma must be a real number, got 'x'"),
        (lambda: pairs.pointwise_bound_from_pair(pairs.ExponentPair(F(0), F(1)), float("nan")),
         "sigma must be a real number, got nan"),
    ],
    ids=["depth-str", "depth-float", "depth-negative", "sigma-str", "sigma-nan"],
)
def test_typed_errors(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message
