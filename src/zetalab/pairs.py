"""Exponent-pair calculus: the A and B processes, pair-driven bounds, and a
breadth-first search for the pair minimizing the hybrid-moment sigma bound.

Pairs are exact rationals with the generating word recorded for provenance.
The search walks distinct (k, l) values level by level, so a value costs two
process applications however many words reach it. Infeasibility of a pair
for a given bound is a value, not an error, so the search can rank
near-misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, int_arg, rational_arg

# Feasibility marker returned where a closed-form bound does not apply.
INFEASIBLE = "infeasible"

# Every A/B word starts from one of these pairs.
BASE_PAIRS = (
    (Fraction(0), Fraction(1)),
    (Fraction(1, 6), Fraction(2, 3)),
)


@dataclass(frozen=True)
class ExponentPair:
    """Exponent pair (k, l) with the A/B word that generated it.

    word is over {A, B}, leftmost letter applied first to the base pair;
    "" denotes a base pair itself. k and l are stored as exact Fractions.
    """

    k: Fraction
    l: Fraction
    word: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", rational_arg("k", self.k))
        object.__setattr__(self, "l", rational_arg("l", self.l))
        if not (0 <= self.k <= Fraction(1, 2) <= self.l <= 1):
            raise DomainError(
                f"not an exponent pair: k={self.k}, l={self.l} "
                "(need 0 <= k <= 1/2 <= l <= 1)"
            )


def process_A(pair: ExponentPair) -> ExponentPair:
    """A-process: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2)); word gains an A."""
    k, l = pair.k, pair.l
    d = 2 * k + 2
    return ExponentPair(k / d, (k + l + 1) / d, pair.word + "A")


def process_B(pair: ExponentPair) -> ExponentPair:
    """B-process: (k, l) -> (l - 1/2, k + 1/2); an involution."""
    return ExponentPair(pair.l - Fraction(1, 2), pair.k + Fraction(1, 2), pair.word + "B")


def hybrid_sigma_bound(j: int, pair: ExponentPair) -> Union[Fraction, str]:
    """Sigma bound (l + (6j-1)k)/(1 + 4jk) for the hybrid moment of index j.

    Applies only when l + (2j-1)k < 1; otherwise returns INFEASIBLE.
    """
    j = int_arg("j", j)
    k, l = pair.k, pair.l
    if not l + (2 * j - 1) * k < 1:
        return INFEASIBLE
    return (l + (6 * j - 1) * k) / (1 + 4 * j * k)


def pointwise_bound_from_pair(pair: ExponentPair, sigma) -> Fraction:
    """Exponent (k + l - sigma)/2 in the pair-driven pointwise zeta bound.

    Valid for sigma >= 1/2 with l - k >= sigma; violations name the failed
    inequality.
    """
    s = rational_arg("sigma", sigma)
    if not s >= Fraction(1, 2):
        raise DomainError(f"sigma >= 1/2 fails: sigma = {sigma}")
    if not pair.l - pair.k >= s:
        raise DomainError(
            f"l - k >= sigma fails: l - k = {pair.l - pair.k}, sigma = {sigma}"
        )
    return (pair.k + pair.l - s) / 2


def generate_pairs(max_word_length: int) -> list[ExponentPair]:
    """All pairs reachable by A/B words up to the given length, one per value.

    Each (k, l) value keeps its shortest word, then the lexicographically
    smallest; the list is ordered by word length, then word. Breadth-first
    over values: each level is taken in word order, and a pair is kept, and
    expanded by A and B, only if its value is new. The best word for a value
    extends the best word for its parent's value, so none is missed.
    Deterministic.
    """
    max_word_length = int_arg("max_word_length", max_word_length, 0)
    found: list[ExponentPair] = []
    seen: set[tuple[Fraction, Fraction]] = set()
    level = [ExponentPair(k, l) for k, l in BASE_PAIRS]
    for length in range(max_word_length + 1):
        if length:
            level = [step(p) for p in level for step in (process_A, process_B)]
        kept = []
        for p in sorted(level, key=lambda p: (p.word, p.k, p.l)):
            if (p.k, p.l) not in seen:
                seen.add((p.k, p.l))
                kept.append(p)
        found += kept
        level = kept
    return found


def rank_pairs(j: int, max_word_length: int) -> list[tuple[ExponentPair, Fraction]]:
    """Feasible (pair, hybrid_sigma_bound) entries at index j, best first.

    Ranks the pairs of generate_pairs, one per value reachable by an A/B
    word up to max_word_length. Order: smaller bound, then shorter word,
    then lexicographic word.
    Raises DomainError if no feasible pair exists at this depth.
    """
    ranked = []
    for p in generate_pairs(max_word_length):
        bound = hybrid_sigma_bound(j, p)
        if bound is not INFEASIBLE:
            ranked.append((p, bound))
    if not ranked:
        raise DomainError(
            f"no feasible exponent pair for j = {j} at word length <= {max_word_length}"
        )
    ranked.sort(key=lambda entry: (entry[1], len(entry[0].word), entry[0].word))
    return ranked


def search_best_pair(j: int, max_word_length: int) -> tuple[ExponentPair, Fraction]:
    """Feasible pair minimizing hybrid_sigma_bound at index j: the head of
    rank_pairs. Raises DomainError if no feasible pair exists at this depth.
    """
    return rank_pairs(j, max_word_length)[0]
