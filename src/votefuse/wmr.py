"""Weighted majority rules as explicit decision functions.

A rule is represented extensionally: a table with one entry per vote profile,
holding +1 (alternative A wins), -1 (B wins), or 0 (no decision). Two
weight/bias presentations induce the same rule exactly when their tables are
equal, which turns questions like "how many distinct decisive rules exist for
n voters?" into plain table deduplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._exact import block_rows, check_work, pattern_outcomes
from .errors import CapacityError, DimensionError
from .jury import group_competence
from .model import (
    Coalition,
    DecisionProfile,
    VotingGame,
    _coerce_coalition,
    as_fraction,
    integer_form,
)
from .scoring import _sorted_rows

OUTCOME_A = 1
OUTCOME_B = -1
OUTCOME_ND = 0

#: Enumeration of all distinct decisive rules is only tractable for small n.
#: These weight bounds are the smallest that reach every rule: each smaller
#: bound misses a rule that the next one finds, and no larger bound finds a
#: new rule or an earlier weight vector for a known one.
DEFAULT_MAX_WEIGHT = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9}

#: Winning families are Python sets of bit masks, built and searched in plain
#: Python, so they are capped in players rather than priced in work units.
TRADE_ROBUST_MAX = 12


class DecisionRule:
    """A rule over n binary votes, given by its full outcome table.

    ``table[m]`` is the outcome for the profile whose index is ``m`` (player i
    votes for A exactly when bit i of m is set): +1 for A, -1 for B, 0 for no
    decision.
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table):
        t = np.asarray(table, dtype=np.int8).copy()
        if t.shape != (1 << n,):
            raise DimensionError(f"table must have 2^{n} = {1 << n} entries, got {t.shape}")
        if t.min() < -1 or t.max() > 1:
            raise ValueError("table entries must be -1, 0, or +1")
        t.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", t)

    def evaluate(self, profile: Union[DecisionProfile, int]) -> int:
        if isinstance(profile, DecisionProfile):
            if profile.n != self.n:
                raise DimensionError(f"profile has {profile.n} votes, rule expects {self.n}")
            m = profile.index
        else:
            m = int(profile)
        if not 0 <= m < 1 << self.n:
            raise ValueError(f"profile index {m} out of range for n={self.n}")
        return int(self.table[m])

    def is_decisive(self) -> bool:
        """True iff the rule never returns the no-decision outcome."""
        return not bool((self.table == 0).any())

    def is_monotone(self) -> bool:
        """True iff flipping any single vote from B to A never moves the outcome toward B."""
        for i in range(self.n):
            half = 1 << i
            paired = self.table.reshape(-1, 2 * half)
            if not (paired[:, half:] >= paired[:, :half]).all():
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DecisionRule)
            and self.n == other.n
            and np.array_equal(self.table, other.table)
        )

    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name, value):
        raise AttributeError("DecisionRule is immutable")

    def __repr__(self) -> str:
        if self.n <= 6:
            body = "".join({1: "A", -1: "B", 0: "."}[int(v)] for v in self.table)
            return f"DecisionRule(n={self.n}, table={body})"
        return f"DecisionRule(n={self.n}, 2^{self.n} entries)"


def rule_from_game(game: VotingGame, bias=0) -> DecisionRule:
    """The decision rule induced by weighted voting with a bias toward B.

    The signed weight sum S = sum_i w_i v_i (votes v_i in {+1, -1}) is
    compared against the bias: S > bias elects A, S < bias elects B, and
    S = bias is no decision. All comparisons are exact; weights, and the
    bias, may be rational.
    """
    n = game.n
    check_work("rule table", n << n, how="n*2^n outcomes")
    b = as_fraction(bias)
    if abs(b) > game.total_weight:
        raise ValueError(f"bias {b} exceeds the total weight {game.total_weight}")
    # rescale so weights and bias are integers, then every sum is exact int64
    ws, q = integer_form(VotingGame(game.weights, quota=abs(b)))
    return DecisionRule(n, pattern_outcomes(ws, q if b > 0 else -q))


def rule_distance(a: "RuleLike", b: "RuleLike") -> int:
    """Number of vote profiles on which two rules disagree."""
    ra, rb = _coerce_rule(a), _coerce_rule(b)
    if ra.n != rb.n:
        raise DimensionError(f"rules are over different voter counts: {ra.n} vs {rb.n}")
    return int(np.count_nonzero(ra.table != rb.table))


def rules_equivalent(a: "RuleLike", b: "RuleLike") -> bool:
    """True iff the two rules decide every profile identically."""
    return rule_distance(a, b) == 0


@dataclass(frozen=True)
class CanonicalWMR:
    """A decisive weighted majority rule named by its canonical integer weights.

    The canonical representative is the first weight vector reaching the
    rule's table in the enumeration order: non-increasing integer vectors
    with an odd total weight, in lexicographic order.
    """

    weights: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    def rule(self) -> DecisionRule:
        return DecisionRule(self.n, pattern_outcomes(np.array(self.weights, dtype=np.int64), 0))


RuleLike = Union[DecisionRule, CanonicalWMR]


def _coerce_rule(r: RuleLike) -> DecisionRule:
    return r.rule() if isinstance(r, CanonicalWMR) else r


def enumerate_unique_wmr(n: int, max_weight: Optional[int] = None) -> list[CanonicalWMR]:
    """All distinct decisive weighted majority rules on n voters.

    Scans the non-increasing integer weight vectors with entries up to
    ``max_weight`` and an odd total, all decisive as their signed sums are
    odd, and deduplicates them by decision table. An even total adds no rule:
    lowering the last positive entry of a decisive even-total vector moves its
    signed sums, even and nonzero, by 1 each, so the odd-total vector it gives
    decides alike and comes earlier, within the bound. An odd-total rule is
    self-dual, table[2^n - 1 - j] = -table[j], so its 2^(n-1) <= 64 profiles
    where player n-1 votes for A key it. The scan stops at n's
    :data:`DEFAULT_MAX_WEIGHT`, which reaches every rule, so a larger
    ``max_weight`` gets the default's list, as a full scan would: the vectors
    before a default canonical vector have no entry above its first. The
    largest scan, n = 7 at bound 9, takes 5,720 vectors; n above 7, with no
    such bound known, is refused with :class:`CapacityError`.

    The result is sorted by weight vector. Up to symmetry (rules for the
    remaining orderings follow by permuting players), this is the complete
    list of decisive weighted rules for n <= 7.
    """
    mw = _scan_bound(n, max_weight)
    # non-increasing vectors in lexicographic order: mw less the sorted rows, in reverse
    vectors = next(_sorted_rows(mw + 1, n, math.comb(n + mw, n)))[::-1]
    odd = vectors[:, 0] + n * mw  # its low bit is that of the total mw*n - sum(row)
    for j in range(1, n):  # by index: a column view left over would hold the whole table
        odd ^= vectors[:, j]
    vectors = mw - vectors[odd & 1 == 1]
    # float32 is exact: _scan_bound caps n at 7 and mw at 9, so |sums| <= 63
    signs = np.zeros((n, 64), dtype=np.float32)  # zero columns pad each key to 64 bits
    signs[:, : 1 << (n - 1)] = pattern_outcomes(np.eye(n), 0)[:, 1 << (n - 1) :]
    step = block_rows(64)  # weight vectors per block of BLAS products
    blocks = np.split(vectors.astype(np.float32), range(step, len(vectors), step))
    keys = [np.packbits(block @ signs > 0, axis=1, bitorder="little") for block in blocks]
    # the first vector in enumeration order reaching each distinct table
    _, first = np.unique(np.concatenate(keys).view(np.uint64), return_index=True)
    return [CanonicalWMR(tuple(w)) for w in sorted(vectors[first].tolist())]


def _scan_bound(n: int, max_weight: Optional[int]) -> int:
    """The bound the scan takes: ``max_weight`` (n's default if None), at most n's default."""
    if n < 1:
        raise DimensionError("at least one voter is required")
    if n not in DEFAULT_MAX_WEIGHT:
        beyond = f"no bound is known to reach every rule for n={n}"
        check_work("rule enumeration", 0, beyond=beyond)
    mw = DEFAULT_MAX_WEIGHT[n] if max_weight is None else int(max_weight)
    if mw < 1:
        raise ValueError("max_weight must be >= 1")
    return min(mw, DEFAULT_MAX_WEIGHT[n])


def enumeration_is_bound_stable(n: int, max_weight: Optional[int] = None) -> bool:
    """True iff raising the enumeration weight bound by one finds no new rules.

    A lookup, with no scan: the bound is stable exactly when it reaches n's
    :data:`DEFAULT_MAX_WEIGHT`, since every smaller bound misses a rule that
    the next one finds and every larger one finds the default's rules.
    """
    return _scan_bound(n, max_weight) == DEFAULT_MAX_WEIGHT[n]


def wmr_network(rules: Sequence[RuleLike]) -> np.ndarray:
    """Pairwise disagreement counts between rules, as a symmetric matrix.

    Entry (i, j) is the number of vote profiles on which rule i and rule j
    decide differently; the diagonal is zero.
    """
    coerced = [_coerce_rule(r) for r in rules]
    if not coerced:
        return np.zeros((0, 0), dtype=np.int64)
    n = coerced[0].n
    if any(r.n != n for r in coerced):
        raise DimensionError("all rules in a network must share the same voter count")
    stack = np.stack([r.table for r in coerced])
    # one rule against all at a time, so temporaries hold R * 2^n cells
    return np.array([np.count_nonzero(stack != t, axis=1) for t in stack], dtype=np.int64)


@dataclass(frozen=True)
class NearestRuleResult:
    candidate: CanonicalWMR
    disagreements: int
    competence: float


def nearest_simple_rule(
    target_weights: Sequence[float],
    candidates: Optional[Sequence[CanonicalWMR]] = None,
    skills=None,
    bias: float = 0.0,
) -> NearestRuleResult:
    """The candidate rule disagreeing with a real-weighted rule on fewest profiles.

    The target rule uses the given real weights (which may be negative, e.g.
    log-odds of a poor judge) with the given bias. Ties in disagreement count
    are broken by higher group competence under ``skills``; if no skills are
    given, by candidate order. ``candidates`` defaults to all distinct
    decisive rules for the target's voter count.
    """
    w = np.asarray(list(target_weights), dtype=np.float64)
    n = w.size
    check_work("nearest simple rule", n << n, how="n*2^n outcomes")
    if candidates is None:
        candidates = enumerate_unique_wmr(n)
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate list is empty")
    if any(c.n != n for c in cands):
        raise DimensionError("candidate rules must match the target's voter count")
    target = DecisionRule(n, pattern_outcomes(w, float(bias)))

    def scored(cand: CanonicalWMR) -> NearestRuleResult:
        comp = group_competence(cand.weights, 0.0, skills) if skills is not None else 0.0
        return NearestRuleResult(cand, rule_distance(target, cand), comp)

    # fewest disagreements, then highest competence, then the first candidate
    return min(map(scored, cands), key=lambda r: (r.disagreements, -r.competence))


@dataclass(frozen=True)
class WinningFamily:
    """A monotone simple game given extensionally by its winning coalitions.

    ``winning`` holds the bit masks of a family closed upward: its +1/-1 table
    is a monotone :class:`DecisionRule`. Use :meth:`from_minimal` to build the
    closure from minimal winning coalitions, or :meth:`from_game` to read the
    family of a weighted game off its rule table.
    """

    n: int
    winning: frozenset[int]

    def __post_init__(self):
        self._check_size(self.n)
        masks = sorted(self.winning)
        if masks and not 0 <= masks[0] <= masks[-1] < 1 << self.n:
            raise ValueError(f"winning masks {masks[0]}..{masks[-1]} pass 0..{(1 << self.n) - 1}")
        table = np.full(1 << self.n, OUTCOME_B, dtype=np.int8)
        table[masks] = OUTCOME_A
        if not DecisionRule(self.n, table).is_monotone():
            raise ValueError("family is not monotone: a superset of a winning coalition loses")

    @staticmethod
    def _check_size(n: int) -> None:
        if not 1 <= n <= TRADE_ROBUST_MAX:
            raise CapacityError(
                f"explicit winning families are capped at n={TRADE_ROBUST_MAX}; got n={n}"
            )

    @classmethod
    def from_minimal(cls, n: int, coalitions) -> "WinningFamily":
        cls._check_size(n)
        seeds = [_coerce_coalition(c, n).mask for c in coalitions]
        winning = {m for m in range(1 << n) if any(m & s == s for s in seeds)}
        return cls(n, frozenset(winning))

    @classmethod
    def from_game(cls, game: VotingGame) -> "WinningFamily":
        cls._check_size(game.n)
        # w(C) > q iff the signed sum 2w(C) - total passes 2q - total
        table = rule_from_game(game, 2 * game.quota - game.total_weight).table
        return cls(game.n, frozenset(np.flatnonzero(table == OUTCOME_A).tolist()))

    def is_winning(self, coalition) -> bool:
        """Whether a Coalition, a mask or members win; a member past the n players is refused."""
        if not (isinstance(coalition, int) and 0 <= coalition < 1 << self.n):
            coalition = _coerce_coalition(coalition, self.n).mask
        return coalition in self.winning

    def minimal_winning(self) -> list[int]:
        out = []
        for m in sorted(self.winning):
            if all(not m >> i & 1 or (m & ~(1 << i)) not in self.winning for i in range(self.n)):
                out.append(m)
        return out


@dataclass(frozen=True)
class TradeWitness:
    """A trade sequence turning two winning coalitions into two losing ones.

    Each trade ``(x, y)`` moves player x from the first coalition to the
    second and player y the other way; coalition sizes are preserved.
    """

    start: tuple[Coalition, Coalition]
    trades: tuple[tuple[int, int], ...]
    end: tuple[Coalition, Coalition]


@dataclass(frozen=True)
class TradeRobustness:
    robust: bool
    witness: Optional[TradeWitness] = None


def is_trade_robust(
    game: Union[VotingGame, WinningFamily], trade_size_cap: int = 3
) -> TradeRobustness:
    """Search for a pair of winning coalitions that member trades turn losing.

    Starting from every pair of minimal winning coalitions, a breadth-first
    search applies up to ``trade_size_cap`` single-member swaps and reports the
    first pair found where both coalitions lose, together with the trade
    sequence. Weighted games can never yield a witness (each swap conserves
    the combined weight, so both coalitions cannot drop to the losing side),
    and the search confirms this; a returned witness is always verified
    against the family before being reported.

    The search is bounded: only pair trades from minimal winning starting
    points are explored, so ``robust=True`` means no witness exists within
    those bounds.
    """
    family = WinningFamily.from_game(game) if isinstance(game, VotingGame) else game
    if trade_size_cap < 1:
        raise ValueError("trade_size_cap must be >= 1")
    mins = family.minimal_winning()
    # each entry: the pair, the pair it started from, and the trades since
    frontier = [((a, b), (a, b), ()) for i, a in enumerate(mins) for b in mins[i + 1 :]]
    seen = {frozenset(pair) for pair, _, _ in frontier}
    for _depth in range(trade_size_cap):
        next_frontier = []
        for (a, b), start, trades in frontier:
            for x in Coalition.from_mask(a & ~b):
                for y in Coalition.from_mask(b & ~a):
                    na = a & ~(1 << x) | 1 << y
                    nb = b & ~(1 << y) | 1 << x
                    key = frozenset((na, nb))
                    if key in seen:
                        continue
                    seen.add(key)
                    path = trades + ((x, y),)
                    if not family.is_winning(na) and not family.is_winning(nb):
                        pairs = [tuple(map(Coalition.from_mask, p)) for p in (start, (na, nb))]
                        return TradeRobustness(False, TradeWitness(pairs[0], path, pairs[1]))
                    next_frontier.append(((na, nb), start, path))
        frontier = next_frontier
    return TradeRobustness(True, None)
