"""Exponent-pair calculus: the A and B processes, pair-driven bounds, and a
breadth-first search for the pair minimizing the hybrid-moment sigma bound.

Pairs are exact rationals with the generating word recorded for provenance.
Infeasibility of a pair for a given bound is a value, not an error, so the
search can rank near-misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Union

from .errors import DomainError

# Feasibility marker returned where a closed-form bound does not apply.
INFEASIBLE = "infeasible"

BASE_PAIRS_DEFAULT = (
    (Fraction(0), Fraction(1)),
    (Fraction(1, 6), Fraction(2, 3)),
)


@dataclass(frozen=True)
class ExponentPair:
    """Exponent pair (k, l) with the A/B word that generated it.

    word is over {A, B}, leftmost letter applied first to the base pair;
    "" denotes a base pair itself.
    """

    k: Fraction
    l: Fraction
    word: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.k <= Fraction(1, 2) <= self.l <= 1):
            raise DomainError(
                f"not an exponent pair: k={self.k}, l={self.l} "
                "(need 0 <= k <= 1/2 <= l <= 1)"
            )

    def as_floats(self) -> tuple[float, float]:
        return float(self.k), float(self.l)


def make_pair(k, l, word: str = "") -> ExponentPair:
    return ExponentPair(Fraction(k), Fraction(l), word)


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
    if not isinstance(j, int) or j < 1:
        raise DomainError(f"j must be a positive integer, got {j!r}")
    k, l = pair.k, pair.l
    if not l + (2 * j - 1) * k < 1:
        return INFEASIBLE
    return (l + (6 * j - 1) * k) / (1 + 4 * j * k)


def pointwise_bound_from_pair(pair: ExponentPair, sigma) -> Fraction:
    """Exponent (k + l - sigma)/2 in the pair-driven pointwise zeta bound.

    Valid for sigma >= 1/2 with l - k >= sigma; violations name the failed
    inequality.
    """
    s = Fraction(sigma)
    if not s >= Fraction(1, 2):
        raise DomainError(f"sigma >= 1/2 fails: sigma = {sigma}")
    if not pair.l - pair.k >= s:
        raise DomainError(
            f"l - k >= sigma fails: l - k = {pair.l - pair.k}, sigma = {sigma}"
        )
    return (pair.k + pair.l - s) / 2


def generate_pairs(
    max_word_length: int,
    base_pairs: Sequence[tuple[Fraction, Fraction]] = BASE_PAIRS_DEFAULT,
) -> list[ExponentPair]:
    """All pairs reachable by A/B words up to the given length, deduplicated.

    Deduplication keeps one pair per exact (k, l) value, preferring the
    shortest word and then the lexicographically smallest. Deterministic.
    """
    if max_word_length < 0:
        raise DomainError(f"max_word_length must be >= 0, got {max_word_length}")
    best: dict[tuple[Fraction, Fraction], ExponentPair] = {}

    def consider(p: ExponentPair) -> None:
        key = (p.k, p.l)
        cur = best.get(key)
        if cur is None or (len(p.word), p.word) < (len(cur.word), cur.word):
            best[key] = p

    for k, l in base_pairs:
        consider(ExponentPair(k, l))
    for length in range(1, max_word_length + 1):
        for letters in product("AB", repeat=length):
            for k, l in base_pairs:
                p = ExponentPair(k, l)
                for letter in letters:
                    p = process_A(p) if letter == "A" else process_B(p)
                consider(p)
    return sorted(best.values(), key=lambda p: (len(p.word), p.word, p.k, p.l))


def rank_pairs(
    j: int,
    max_word_length: int,
    base_pairs: Sequence[tuple[Fraction, Fraction]] = BASE_PAIRS_DEFAULT,
) -> list[tuple[ExponentPair, Fraction]]:
    """Feasible (pair, hybrid_sigma_bound) entries at index j, best first.

    Enumerates all A/B words up to max_word_length over the base pairs.
    Order: smaller bound, then shorter word, then lexicographic word.
    Raises DomainError if no feasible pair exists at this depth.
    """
    ranked = []
    for p in generate_pairs(max_word_length, base_pairs):
        bound = hybrid_sigma_bound(j, p)
        if bound is not INFEASIBLE:
            ranked.append((p, bound))
    if not ranked:
        raise DomainError(
            f"no feasible exponent pair for j = {j} at word length <= {max_word_length}"
        )
    ranked.sort(key=lambda entry: (entry[1], len(entry[0].word), entry[0].word))
    return ranked


def search_best_pair(
    j: int,
    max_word_length: int,
    base_pairs: Sequence[tuple[Fraction, Fraction]] = BASE_PAIRS_DEFAULT,
) -> tuple[ExponentPair, Fraction]:
    """Feasible pair minimizing hybrid_sigma_bound at index j: the head of
    rank_pairs. Raises DomainError if no feasible pair exists at this depth.
    """
    return rank_pairs(j, max_word_length, base_pairs)[0]
