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

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ._exact import (
    Route,
    add_judges,
    block_rows,
    cheapest,
    check_work,
    credit,
    enumerate_patterns,
    exact_in_float32,
    jury_routes,
    jury_values,
    lowest_terms,
    nd_credit,
    outcome,
    pattern_outcomes,
)
from ._rand import chunk_sums
from .errors import DimensionError
from .model import SkillsLike, skill_array


def _checked(weights, bias, skills, nd_policy: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Check a jury's inputs; return its weights, skills and stalemate credit."""
    nd = nd_credit(nd_policy)
    w = np.asarray(list(weights), dtype=np.float64)
    p = skill_array(skills)
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
    p = skill_array(skills)
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
    all their teams see, so team outcomes are dependent. A tied team votes -1
    and a tied top level is an incorrect answer; under ``"coin-flip"`` each
    tied team flips an independent fair coin, and a tied top level earns half
    credit.

    Given the votes of the s shared players, those on two or more teams, the
    teams are independent (Boland, Proschan & Tong 1989; Grofman, Owen & Feld
    1983). So each team t gets q_t = P(win) + c*P(tie) for each pattern of
    its shared members, taken over its own members' patterns, c = 1/2 under
    ``"coin-flip"`` and 0 otherwise (:func:`_team_skill`), and each of the
    2^s shared patterns is a top-level jury of skills q_t (:func:`_top_level`)
    whose expected credit is weighted by the pattern's probability. A team
    of shared players only keeps the outcome of each pattern of its members
    (:func:`._exact.pattern_outcomes`), and its vote is fixed in every
    pattern unless it can tie under ``"coin-flip"``. Its patterns are taken in
    :func:`._exact.block_rows` blocks and summed in fixed runs of 2^16, so no
    block size changes their floats; a team with no shared member is a jury,
    whose band sums follow the block (:func:`._exact._jury_halves`).

    The work is priced before any table is built: m*2^m for each team of m
    members with a shared one and one of its own, the jury's price for each
    team with no shared member, and for the teams of shared players only
    m*2^m each or u*2^u over the u players they cover, whichever is less;
    plus 2^s times the top level's price per pattern with no team voting at
    random. Once the tables show which teams do, the top level is priced
    again. Either price is refused beyond the one exact work cap. The u*2^u
    term prices no table that is built. It is kept from when one table over
    those u players was built, so that no structure answered then is
    refused, until one price in measured time replaces it (ROADMAP item 9).
    """
    nd = nd_credit(nd_policy)
    p_all = skill_array(skills)
    players = structure.distinct_players
    if players and players[-1] >= p_all.size:
        raise DimensionError(
            f"structure names player {players[-1]} but only {p_all.size} skills were given"
        )
    seats = Counter(chain.from_iterable(structure.teams))
    shared = [i for i in players if seats[i] > 1]
    s, k = len(shared), len(structure.teams)
    bit_of = {i: b for b, i in enumerate(shared)}
    # each team's members in player order, the order its sum takes them in, with
    # their weights and their bits among the shared players (-1 if on no other team)
    teams = [sorted(zip(team, w)) for team, w in zip(structure.teams, structure.member_weights)]
    weights = [np.array([x for _, x in team]) for team in teams]
    spots = [[bit_of.get(i, -1) for i, _ in team] for team in teams]
    biases = structure.team_biases
    # a team of shared players only holds the outcome of each pattern of its
    # members (m*2^m), priced at no more than u*2^u for the u players they cover
    pooled = [t for t, spot in enumerate(spots) if min(spot) >= 0]
    covered = len({b for t in pooled for b in spots[t]})
    alone = sum(weights[t].size << weights[t].size for t in pooled)
    tables = min(alone, covered << covered) + sum(
        cheapest(jury_routes(w.size, lowest_terms(w, 0.0))).units
        if max(spot) < 0
        else w.size << w.size
        for w, spot in zip(weights, spots)
        if min(spot) < 0
    )
    top_w = np.asarray(structure.top_weights)
    lowest = lowest_terms(top_w, structure.top_bias)

    def top_route(random: list[int]) -> Route:
        """The cheaper top level if the teams ``random`` vote at random, checked with the tables."""
        kr = len(random)
        dp = None if lowest is None else k + (kr + 1) * (sum(abs(lowest[0][t]) for t in random) + 1)
        top = cheapest([Route("dp", dp), Route("enumeration", (k + 1) << kr)])
        how = f"team tables {tables:,} + 2^s*{top.units:,}, s={s} shared players, k={k} teams"
        check_work("indirect competence", tables + (top.units << s), how=how)
        return top

    top_route([])  # before any table: no top level costs less
    coded = {t: pattern_outcomes(weights[t], biases[t]) for t in pooled}
    skill = [
        coded[t]
        if t in coded
        else _team_skill(w, bias, p_all[[i for i, _ in team]], [b < 0 for b in spot], nd)
        for t, (team, w, bias, spot) in enumerate(zip(teams, weights, biases, spots))
    ]
    # a vote left to chance in some pattern: a tie under coin-flip in an outcome
    # table, else a chance strictly between 0 and 1
    random = [
        t
        for t, q in enumerate(skill)
        if (nd and (q == 0).any() if t in coded else (q * (1.0 - q)).any())
    ]
    chance = set(random)
    fixed = [t for t in range(k) if t not in chance]
    route, per_row, _ = top_route(random)
    top_bias = structure.top_bias
    if route == "dp":  # on their lowest terms
        top_w, top_bias = np.array(lowest[0], dtype=np.float64), lowest[1]
    level = _top_level(route, top_w, top_bias, fixed, random, nd)

    summed_bits = min(s, 16)  # patterns per partial sum: a split no block size changes
    bits = min(summed_bits, block_rows(per_row).bit_length() - 1)  # patterns per block
    order = fixed + random
    # a block's patterns as a (2,)*bits array, axis bits-1-b for shared player b; each
    # team's q for a pattern of its high shared members (b >= bits) spans the same axes
    # over its low ones, in the same order, with length 1 along the others
    views = [
        q.reshape((-1,) + tuple(2 if bits - 1 - a in spot else 1 for a in range(bits)))
        for q, spot in zip(skill, spots)
    ]
    highs = [list(enumerate(b - bits for b in spot if b >= bits)) for spot in spots]
    p_shared = p_all[shared]
    p_low, p_high = (
        enumerate_patterns(1.0 - part, part, np.float64(1.0), np.multiply)
        for part in (p_shared[:summed_bits], p_shared[summed_bits:])
    )
    earned = np.empty(p_low.size)
    summed = np.empty(p_high.size)
    votes = np.empty((k, 1 << bits))  # fixed teams' votes (1 if right), then random teams' q
    for h in range(1 << (s - bits)):
        for row, t in zip(votes, order):
            q = views[t][sum((h >> b & 1) << j for j, b in highs[t])]
            if t in coded:  # an outcome: its credit, or 1 if right where no tie can occur
                q = credit(q, nd) if t in chance else q > 0
            row.reshape((2,) * bits)[...] = q
        lo = h << bits & p_low.size - 1
        earned[lo : lo + votes.shape[1]] = level(votes)
        if lo + votes.shape[1] == p_low.size:
            earned *= p_low
            summed[h >> summed_bits - bits] = earned.sum()
    return float((p_high * summed).sum())


def _team_skill(w, bias, p, mine, nd) -> np.ndarray:
    """q[c], the chance that a team votes right given its shared members' votes c.

    Bit j of c is set if the team's j-th shared member is right; ``mine``
    marks its members who sit on no other team, and ``p`` holds its members'
    skills. A team of such members only is a jury. Any other team decides
    each pattern of its m members by its signed sum in player order, the
    float :func:`._exact.pattern_outcomes` sums, held at once as its 2^m
    credits are. The sums over its own members can pass 1 by an ulp, and are
    clipped.
    """
    if all(mine):
        q = np.array([jury_values(w, p, bias, nd, ())[0]])
    else:
        m = len(mine)
        own = [i for i in range(m) if mine[i]]
        # axis m-1-i of the (2,)*m view holds member i: shared members go to the high bits
        axes = [m - 1 - i for i in (own + [i for i in range(m) if not mine[i]])[::-1]]
        earned = credit(outcome(enumerate_patterns(-w, w, np.float64(0.0)), bias), nd)
        grid = np.ascontiguousarray(earned.reshape((2,) * m).transpose(axes))
        grid = grid.reshape(-1, 1 << len(own))
        grid *= enumerate_patterns(1.0 - p[own], p[own], np.float64(1.0), np.multiply)
        q = grid.sum(axis=1)  # pairwise along contiguous rows: as accurate as one sum
    return np.minimum(q, 1.0, out=q)


def _top_level(route, w, bias, fixed, random, nd):
    """The top level's expected credit for each column of a block of votes.

    A column holds the fixed teams' votes (1 if right), then the random
    teams' chances of being right. The top sum is twice the top weight of
    the teams that are right less the total. Route 'dp', for integer weights
    on their lowest terms, runs the jury's DP (:func:`._exact.add_judges`)
    over the random teams' weight; 'enumeration' decides their 2^k_r signed
    sums in team order, built once, against each column's bias less the
    fixed teams' part.
    """
    kf = len(fixed)
    twice, total = 2 * w[fixed], w[fixed].sum()
    if route == "dp":
        ints = [int(x) for x in w[random]]
        width = sum(map(abs, ints)) + 1
        offsets = (2.0 * np.arange(width) - (width - 1))[:, None]

        def level(votes: np.ndarray) -> np.ndarray:
            dist = np.zeros((width, votes.shape[1]))  # dist[x]: P(random weight x is right)
            dist[0] = 1.0
            dist = add_judges(dist, ints, votes[kf:])
            sums = offsets + (twice @ votes[:kf] - total)
            return (dist * credit(outcome(sums, bias), nd)).sum(axis=0)

        return level

    sums = enumerate_patterns(-w[random], w[random], np.float64(0.0))

    def level(votes: np.ndarray) -> np.ndarray:
        cut = bias - (twice @ votes[:kf] - total)
        earned = credit(outcome(sums, cut[:, None]), nd)
        q = votes[kf:, :, None]
        chance = enumerate_patterns(1.0 - q, q, np.ones(votes.shape[1]), np.multiply)
        return (chance * earned).sum(axis=1)

    return level
