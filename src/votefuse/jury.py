"""Collective competence of weighted votes, direct and through team tiers.

A group of n judges votes between two alternatives, one of which is correct.
Judge i votes correctly with probability p_i, independently; the group
answer is taken by a weighted rule: correct iff sum_i w_i v_i > bias, where
v_i is +1 for a correct vote and -1 otherwise. A stalemate (the sum hits the
bias exactly) counts as an incorrect group answer under the default policy,
or as a fair coin flip under ``nd_policy="coin-flip"``.

Exact routines share the kernel in :mod:`._exact`. Integer-valued weights
take a DP over the distribution of the signed sum, O(n * W) cells for total
absolute weight W, and every judge's decisiveness comes from prefix/suffix
distributions of the others in O(n log n * W). Other weights, such as
log-odds, meet in the middle: one half's 2^(n/2) signed sums are sorted, a
binary search settles the pairs of half patterns that are certainly won or
lost, and the pairs near the bias are decided by their sum in player order,
as an enumeration of all 2^n patterns decides them. Each half's expected
credit serves the competence and all n decisiveness values at once. One work
cap bounds both routes, the second at n*2^n, since every pair can lie near
the bias.

The Monte Carlo estimate draws each chunk in row blocks through
:func:`._rand.chunk_sums`, so its memory follows one block and not the
chunk times the judges. A block counts its wins and stalemates as ints,
exact numbers whose sums do not depend on the split into blocks; the credit
sums follow as wins + nd*ties, exact since nd is 0 or 1/2. With
integer-valued weights a trial's signed sum is twice the weight of the right
judges less the total weight, taken as one BLAS product of the votes with 2w
in float32 while 2*sum|w| stays below 2^24: a float sum of integers under
that bound is exact in any order, so it equals the elementwise sum to the
bit. Wider integer weights and other weights, such as log-odds, keep the
elementwise ``np.where`` sum and its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ._exact import (
    block_rows,
    check_work,
    enumerate_patterns,
    exact_in_float32,
    jury_values,
    nd_credit,
    outcome,
    pattern_outcomes,
)
from ._rand import chunk_sums
from .errors import DimensionError
from .model import SkillsLike, as_skills


def _checked(weights, bias, skills, nd_policy: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Check a jury's inputs; return its weights, skills and stalemate credit."""
    nd = nd_credit(nd_policy)
    w = np.asarray(list(weights), dtype=np.float64)
    p = np.asarray(as_skills(skills).p, dtype=np.float64)
    if w.size != p.size:
        raise DimensionError(f"{w.size} weights for {p.size} skills")
    if w.size == 0:
        raise DimensionError("at least one judge is required")
    if not np.isfinite(w).all() or not np.isfinite(float(bias)):
        raise ValueError("weights and bias must be finite")
    return w, p, nd


@dataclass(frozen=True)
class JuryReport:
    """Exact group competence and every judge's decisiveness, from one kernel run."""

    competence: float
    decisiveness: tuple[float, ...]


def jury_exact(
    weights: Sequence[float], bias: float, skills: SkillsLike, nd_policy: str = "incorrect"
) -> JuryReport:
    """Group competence and the decisiveness of every judge, from one kernel run.

    The kernel is a DP over the signed sum for integer-valued weights, or a
    meet in the middle over the two halves' 2^(n/2) signed sums that decides
    each vote pattern by its sum in player order, whichever is estimated
    cheaper.
    """
    w, p, nd = _checked(weights, bias, skills, nd_policy)
    competence, decisive = jury_values(w, p, bias, nd, range(w.size))
    return JuryReport(competence, tuple(decisive))


def group_competence(
    weights: Sequence[float], bias: float, skills: SkillsLike, nd_policy: str = "incorrect"
) -> float:
    """Exact probability that the weighted group vote is correct.

    Stalemates (signed sum equal to the bias, detected exactly for
    integer-valued weights and bias) contribute nothing under the default
    policy and half their probability under ``"coin-flip"``.
    """
    w, p, nd = _checked(weights, bias, skills, nd_policy)
    return jury_values(w, p, bias, nd, ())[0]


def decisiveness_probability(
    weights: Sequence[float],
    bias: float,
    skills: SkillsLike,
    player: int,
    nd_policy: str = "incorrect",
) -> float:
    """How much one judge's vote matters: P(correct | i right) - P(correct | i wrong).

    This equals the partial derivative of :func:`group_competence` with
    respect to p_i. With all skills at 1/2 and zero bias it reduces to the
    probability that i is a swing voter, i.e. the raw Banzhaf count divided
    by 2^(n-1) in the game with quota (total + bias)/2. To get every judge's
    value, :func:`jury_exact` runs the kernel once instead of n times.
    """
    w, p, nd = _checked(weights, bias, skills, nd_policy)
    if not 0 <= player < w.size:
        raise DimensionError(f"player {player} out of range for n={w.size}")
    return jury_values(w, p, bias, nd, (player,))[1][0]


@dataclass(frozen=True)
class CompetenceEstimate:
    value: float
    stderr: float
    trials: int
    seed: int


def competence_monte_carlo(
    weights: Sequence[float],
    bias: float,
    skills: SkillsLike,
    trials: int = 100_000,
    seed: int = 0,
    nd_policy: str = "incorrect",
) -> CompetenceEstimate:
    """Estimate group competence by simulation; deterministic for a given seed.

    Trials are drawn through :func:`._rand.chunk_sums`, so the estimate
    depends only on the seed and the trial budget. If every skill is 1 the
    estimate is exactly 1.0, not merely close.
    """
    w, p, nd = _checked(weights, bias, skills, nd_policy)
    product = (w == np.round(w)).all() and exact_in_float32(2 * sum(abs(int(x)) for x in w))
    if product:
        twice, weight_sum = (2 * w).astype(np.float32), w.sum()

    def wins_and_ties(rng: np.random.Generator, rows: int) -> tuple[int, int]:
        correct = rng.random((rows, w.size)) < p
        if product:
            # the signed sum is twice the weight of the right judges less the total
            sums = np.subtract(correct.astype(np.float32) @ twice, weight_sum, dtype=np.float64)
        else:
            sums = np.where(correct, w, -w).sum(axis=1)
        decided = outcome(sums, bias)
        return int(np.count_nonzero(decided > 0)), int(np.count_nonzero(decided == 0))

    wins, ties = chunk_sums(trials, seed, w.size, wins_and_ties)
    total, total_sq = wins + nd * ties, wins + nd * nd * ties
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0) * trials / max(trials - 1, 1)
    return CompetenceEstimate(mean, float(np.sqrt(var / trials)), trials, seed)


def optimal_weights(
    skills: SkillsLike, clip: float = 1e-6, nonnegative: bool = False
) -> np.ndarray:
    """Log-odds weights ln(p / (1-p)), the competence-maximizing assignment.

    Skills are clamped to [clip, 1-clip] before taking logs so certain judges
    get large finite weights. A judge below 1/2 receives a negative weight
    (the rule bets against them); ``nonnegative=True`` clamps such skills to
    1/2 instead, zeroing their weight.
    """
    if not 0.0 < clip < 0.5:
        raise ValueError(f"clip must be in (0, 0.5), got {clip}")
    p = np.asarray(as_skills(skills).p, dtype=np.float64)
    lo = 0.5 if nonnegative else clip
    p = np.clip(p, lo, 1.0 - clip)
    return np.log(p / (1.0 - p))


@dataclass(frozen=True)
class TeamStructure:
    """A two-tier voting arrangement: teams vote internally, then across teams.

    ``teams`` lists the player indices of each team; a player may sit on
    several teams, but not twice on the same one. Member weights, team
    biases, and top-level weights default to the simple-majority choice
    (all ones, zero biases).
    """

    teams: tuple[tuple[int, ...], ...]
    member_weights: Optional[tuple[tuple[float, ...], ...]] = None
    team_biases: Optional[tuple[float, ...]] = None
    top_weights: Optional[tuple[float, ...]] = None
    top_bias: float = 0.0

    def __post_init__(self):
        teams = tuple(tuple(int(i) for i in team) for team in self.teams)
        if not teams:
            raise DimensionError("at least one team is required")
        for t, team in enumerate(teams):
            if not team:
                raise DimensionError(f"team {t} is empty")
            if len(set(team)) != len(team):
                raise ValueError(f"team {t} lists a player twice")
            if min(team) < 0:
                raise ValueError(f"team {t} has a negative player index")
        k = len(teams)
        mw = self.member_weights
        mw = tuple(tuple(1.0 for _ in team) for team in teams) if mw is None else tuple(
            tuple(float(x) for x in row) for row in mw
        )
        if tuple(len(r) for r in mw) != tuple(len(t) for t in teams):
            raise DimensionError("member_weights shape does not match teams")
        tb = (0.0,) * k if self.team_biases is None else tuple(float(x) for x in self.team_biases)
        tw = (1.0,) * k if self.top_weights is None else tuple(float(x) for x in self.top_weights)
        if len(tb) != k or len(tw) != k:
            raise DimensionError("team_biases and top_weights must have one entry per team")
        if not np.isfinite([*chain.from_iterable(mw), *tb, *tw, float(self.top_bias)]).all():
            raise ValueError("member weights, biases and top weights must be finite")
        object.__setattr__(self, "teams", teams)
        object.__setattr__(self, "member_weights", mw)
        object.__setattr__(self, "team_biases", tb)
        object.__setattr__(self, "top_weights", tw)
        object.__setattr__(self, "top_bias", float(self.top_bias))

    @property
    def distinct_players(self) -> tuple[int, ...]:
        return tuple(sorted({i for team in self.teams for i in team}))


def indirect_competence(
    structure: TeamStructure, skills: SkillsLike, nd_policy: str = "incorrect"
) -> float:
    """Exact probability that the top-level vote over team outcomes is correct.

    Players appearing on several teams cast a single correct-or-not draw that
    all their teams see, so team outcomes are dependent; the computation
    enumerates the 2^d patterns of the d distinct players. A tied team votes
    -1 and a tied top level is an incorrect answer; under ``"coin-flip"``
    each team that can tie flips an independent fair coin (enumerated
    exactly), and a tied top level earns half credit.

    Each pattern's top sum, twice the top weight of the winning teams less
    the total, is taken once; each coin assignment adds 2*w_t for each tied
    team t whose coin is +1 and reduces its outcomes over all patterns at
    once, so blocks change no float. Float top weights, which only the API
    sets, may round a sum at an exact tie otherwise than a sum of +-w_t; the
    top weights 1.0 of team files sum exactly. Besides the probabilities and
    an int8 outcome per team and pattern, this holds a float64 top sum and an
    int8 top outcome per pattern, and a reduction gathers the won (or tied)
    probabilities; other temporaries fit one :func:`._exact.block_rows` block.
    The work is priced d*2^d + k*2^d*2^kc (kc tieable teams under
    ``"coin-flip"``, else 0) and refused beyond the one exact work cap.
    """
    nd = nd_credit(nd_policy)
    p_all = np.asarray(as_skills(skills).p, dtype=np.float64)
    players = structure.distinct_players
    if players and players[-1] >= p_all.size:
        raise DimensionError(
            f"structure names player {players[-1]} but only {p_all.size} skills were given"
        )
    d, k = len(players), len(structure.teams)

    def price(kc: int) -> None:
        how = f"d*2^d + k*2^d*2^kc, d={d} distinct players, k={k} teams, kc={kc} tieable"
        check_work("indirect competence", (d << d) + (k << d << kc), how=how)

    price(0)
    team_w = np.zeros((k, d))
    for t, (team, wrow) in enumerate(zip(structure.teams, structure.member_weights)):
        team_w[t, np.searchsorted(players, team)] = wrow
    codes = pattern_outcomes(team_w, np.asarray(structure.team_biases))
    pb = p_all[list(players)]
    probs = enumerate_patterns(1.0 - pb, pb, np.float64(1.0), np.multiply)
    top_w = np.asarray(structure.top_weights)
    coins = np.flatnonzero(~codes.all(axis=1)) if nd else np.empty(0, dtype=np.intp)
    price(coins.size)
    step = block_rows(k)
    decided = np.empty(1 << d)  # top sums with every tied team voting -1
    for lo in range(0, 1 << d, step):
        decided[lo : lo + step] = 2 * top_w @ (codes[:, lo : lo + step] > 0) - top_w.sum()
    out = np.empty(1 << d, dtype=np.int8)
    value = 0.0
    for assignment in range(1 << coins.size):
        up = coins[assignment >> np.arange(coins.size) & 1 == 1]  # the coins that say +1
        for lo in range(0, 1 << d, step):
            lift = 2 * top_w[up] @ (codes[up, lo : lo + step] == 0) if up.size else 0.0
            out[lo : lo + step] = outcome(decided[lo : lo + step] + lift, structure.top_bias)
        value += probs[out > 0].sum() + nd * probs[out == 0].sum()
    return float(value) / (1 << coins.size)
