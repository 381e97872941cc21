"""Positional scoring rules, pairwise majorities, and Condorcet efficiency.

Ballot totals and pairwise tallies are exact sums of Fraction voter weights
(a float counts as its binary value), rounded to float only for output.
:func:`_decide` alone finds majority winners and top ties, for ballots and
for the efficiency kernel.

Condorcet efficiency of a scoring rule is the probability, conditional on a
strict pairwise-majority winner existing, that the rule elects that winner
when every voter draws a ranking independently and uniformly (the impartial
culture). Both methods score blocks of profiles with one kernel, each
profile a row of m!-ranking indices, and both take the same blocks: as many
rows as fit in :data:`._exact.OUTCOME_BLOCK` at the width, n + m! or n*m^2,
that the kernel's route holds per profile (:func:`_profile_width`). Both
build the m! ranking table first, priced at m!*m^2 units in the work units
of :mod:`._exact`, so neither goes past m = 10 candidates. The exact method
enumerates the C(n+m!-1, m!-1) ranking-count multisets as sorted rows, grown
a column at a time (:func:`_sorted_rows`), weights each by its multinomial
coefficient, and sums the credits as integers over lcm(1..m) before
building one Fraction; it is priced at n*m^2 units a multiset more, before
any table is built. The Monte Carlo method draws whole profiles through the
chunked driver of :mod:`._rand`, one row block at a time. The kernel sums
each profile's pairwise tallies and score totals as exact integers (see
:func:`_score_profiles`), and each block returns exact numbers: Python ints
counting the profiles with a winner and summing the same integer credits
over lcm(1..m), and their squares, that the exact method sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from ._exact import EXACT_WORK_MAX, block_rows, check_work, exact_in_float32
from ._rand import check_trials, chunk_sums
from .errors import BallotError, DataError, DimensionError, EvidenceError
from .model import as_fraction

_TIE_POLICIES = ("fail", "split-credit")


@dataclass(frozen=True)
class RankedBallot:
    """One voter's strict ranking, most preferred label first."""

    ranking: tuple[str, ...]

    def __post_init__(self):
        r = tuple(str(x) for x in self.ranking)
        if not r:
            raise BallotError("a ballot must rank at least one label")
        if len(set(r)) != len(r):
            raise BallotError(f"ballot repeats a label: {r}")
        object.__setattr__(self, "ranking", r)

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.ranking)


@dataclass(frozen=True)
class ScoringVector:
    """Points awarded per rank position, held exactly as Fractions.

    Entries must be non-increasing and not all equal. The induced ranking is
    unchanged by positive affine rescaling of the entries.
    """

    s: tuple[Fraction, ...]

    def __post_init__(self):
        s = tuple(as_fraction(x) for x in self.s)
        if len(s) < 2:
            raise DimensionError("a scoring vector needs at least two positions")
        if any(a < b for a, b in zip(s, s[1:])):
            raise ValueError(f"scoring vector must be non-increasing: {s}")
        if s[0] == s[-1]:
            raise ValueError("scoring vector must not be constant")
        object.__setattr__(self, "s", s)

    @property
    def m(self) -> int:
        return len(self.s)

    @classmethod
    def borda(cls, m: int) -> "ScoringVector":
        return cls(tuple(Fraction(m - 1 - k) for k in range(m)))

    @classmethod
    def plurality(cls, m: int) -> "ScoringVector":
        return cls((Fraction(1),) + (Fraction(0),) * (m - 1))

    def integer_form(self) -> tuple[int, ...]:
        """The entries rescaled by their common denominator, for exact int totals."""
        scale = math.lcm(*(x.denominator for x in self.s))
        return tuple(int(x * scale) for x in self.s)


def _tally(
    ballots: Sequence[RankedBallot], voter_weights, scoring: Optional[ScoringVector] = None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, object]:
    """Sorted labels, pairwise tallies, score totals and total voter weight, all exact.

    Weights are read by :func:`as_fraction` (a float counts as its binary
    value). ``pairs[a, b]`` is the weight ranking a above b; the totals are
    those of ``scoring``, or the Borda totals when it is None.
    """
    bs = list(ballots)
    if not bs:
        raise BallotError("empty profile")
    labels = tuple(sorted(bs[0].labels))
    for b in bs:
        if b.labels != bs[0].labels:
            raise BallotError(f"ballots rank different label sets: {labels} vs {b.ranking}")
    if scoring is not None and scoring.m != len(labels):
        raise DimensionError(f"scoring vector has {scoring.m} positions for {len(labels)} labels")
    ws = [1] * len(bs) if voter_weights is None else voter_weights
    try:
        w = np.array([as_fraction(x) for x in ws], dtype=object)
    except ValueError as exc:
        raise ValueError(f"voter weights must be finite numbers: {exc}") from None
    if w.size != len(bs):
        raise DimensionError(f"{w.size} voter weights for {len(bs)} ballots")
    if (w < 0).any():
        raise ValueError("voter weights must be non-negative")
    index = {lab: c for c, lab in enumerate(labels)}
    place = np.argsort([[index[lab] for lab in b.ranking] for b in bs], axis=1)  # [v, c]
    pairs = np.tensordot(w, place[:, :, None] < place[:, None, :], axes=1)
    if scoring is None:
        return labels, pairs, pairs.sum(axis=1), w.sum()
    return labels, pairs, w @ np.array(scoring.s, dtype=object)[place], w.sum()


def _decide(pairs: np.ndarray, totals: np.ndarray, weight) -> tuple[np.ndarray, ...]:
    """Per profile: the strict pairwise-majority winner, the top tie, and the winner's credit.

    ``pairs`` is (..., m, m) and ``totals`` (..., m), where pairs[a, b] +
    pairs[b, a] is at most ``weight``, so at most one candidate beats every
    other with more than half of it. Returns, over the leading axes, that
    candidate (-1 if none), how many candidates share the top total, and
    whether the winner is among them. Each is built one candidate column at a
    time, with no reduction over the short candidate axis; the diagonal of
    ``pairs`` is not read.
    """
    *lead, m = totals.shape
    strict = 2 * pairs > weight  # [..., a, b]: a beats b
    top = totals[..., 0]
    for a in range(1, m):
        top = np.maximum(top, totals[..., a])
    winner = np.full(lead, -1)
    tied = np.zeros(lead, dtype=np.intp)
    hit = np.zeros(lead, dtype=bool)
    for a in range(m):
        beats = np.ones(lead, dtype=bool)
        for b in range(m):
            if b != a:
                beats &= strict[..., a, b]
        at_top = totals[..., a] == top
        tied += at_top
        np.copyto(winner, a, where=beats)
        hit |= beats & at_top
    return winner, tied, hit


@dataclass(frozen=True)
class ScoreResult:
    """Scoring-rule totals with the lexicographic tie-break already applied."""

    labels: tuple[str, ...]
    totals: dict[str, float]
    ranking: tuple[str, ...]
    tied_top: bool

    @property
    def winner(self) -> str:
        return self.ranking[0]


def score_profile(
    ballots: Sequence[RankedBallot],
    scoring: ScoringVector,
    voter_weights: Optional[Sequence[float]] = None,
) -> ScoreResult:
    """Apply a positional scoring rule to a profile of ranked ballots.

    Ties anywhere in the ranking are broken label-lexicographically;
    ``tied_top`` reports whether the winning score was shared.
    """
    labels, pairs, totals, weight = _tally(ballots, voter_weights, scoring)
    _, tied, _ = _decide(pairs, totals, weight)
    order = sorted(range(len(labels)), key=lambda c: -totals[c])  # ties stay in label order
    floats = dict(zip(labels, map(float, totals)))
    return ScoreResult(labels, floats, tuple(labels[c] for c in order), bool(tied > 1))


@dataclass(frozen=True)
class PairwiseResult:
    """Entry (i, j) is the exact voter weight preferring labels[i] to labels[j], as float64."""

    labels: tuple[str, ...]
    matrix: np.ndarray


def pairwise_matrix(
    ballots: Sequence[RankedBallot],
    voter_weights: Optional[Sequence[float]] = None,
) -> PairwiseResult:
    labels, pairs, _, _ = _tally(ballots, voter_weights)
    return PairwiseResult(labels, pairs.astype(np.float64))


def condorcet_winner(
    ballots: Sequence[RankedBallot],
    voter_weights: Optional[Sequence[float]] = None,
) -> Optional[str]:
    """The label beating every other in strict pairwise majority, if one exists."""
    labels, pairs, totals, weight = _tally(ballots, voter_weights)
    winner, _, _ = _decide(pairs, totals, weight)
    return labels[int(winner)] if winner >= 0 else None


@dataclass(frozen=True)
class EfficiencyResult:
    """Condorcet efficiency, exact or estimated.

    ``profiles_with_winner`` counts profiles having a pairwise-majority
    winner: out of (m!)^n for the exact method, out of ``trials`` for Monte
    Carlo. ``exact`` carries the Fraction for the exact method; ``stderr``
    and ``ci95`` are conditional on a winner existing, for Monte Carlo.
    """

    value: float
    method: str
    tie_policy: str
    exact: Optional[Fraction] = None
    profiles_with_winner: int = 0
    stderr: Optional[float] = None
    ci95: Optional[tuple[float, float]] = None
    trials: Optional[int] = None
    seed: Optional[int] = None


def _ranking_tables(scoring: ScoringVector, n_voters: int) -> tuple[np.ndarray, np.ndarray]:
    """Score rows and pair rows (1 iff a is above b) of each ranking, in narrow int dtypes.

    Scores are the integer form shifted to end at 0 and divided by their gcd,
    which changes no comparison of totals: each candidate takes one position
    per voter. Row r is the r-th ranking of ``permutations(range(m))``.
    """
    s = scoring.integer_form()
    g = math.gcd(*(x - s[-1] for x in s))
    points = [(x - s[-1]) // g for x in s]
    if n_voters * points[0] > np.iinfo(np.int64).max:
        raise DataError(
            f"the scoring vector reduces to integer scores of up to {points[0].bit_length()} "
            f"bits, so totals over {n_voters} voters do not fit in 64 bits; round the "
            f"scores to fewer significant digits"
        )
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= points[0])
    rankings = np.array(list(permutations(range(scoring.m))), dtype=np.intp)
    place = np.argsort(rankings, axis=1)  # place[r, c]: position of candidate c in ranking r
    score_rows = np.array(points, dtype=dtype)[place]
    pair_rows = (place[:, :, None] < place[:, None, :]).astype(np.int8)
    return score_rows, pair_rows


#: The kernel tallies ranking counts when m! is at most this many times the
#: voter count n. Timed per profile at m = 4..7 on one core, the counts and
#: the gather break even near m! = 20n to 25n, and at 16n the counts are 1.4
#: to 1.8 times faster; their float32 (rows, m!) array then takes about the
#: memory of the gather's int8 rows, and more beyond.
_COUNTS_PER_VOTER = 16


def _tallies_counts(k: int, n_voters: int) -> bool:
    """Whether profiles of ``n_voters`` over ``k`` rankings are tallied by ranking counts."""
    return k <= _COUNTS_PER_VOTER * n_voters and exact_in_float32(n_voters)


def _profile_width(k: int, m: int, n_voters: int) -> int:
    """Elements one profile holds at once on the route :func:`_score_profiles` takes.

    Tallying ranking counts, a profile holds its voters' rankings and its
    ``k`` counts; gathering, it holds each voter's m*m pair entries. Callers
    take their blocks in rows of this width. Every other temporary of a
    profile takes at most 8 bytes per element of it, save the score gather
    that the counts route makes for totals from 2^24 up.
    """
    return n_voters + k if _tallies_counts(k, n_voters) else n_voters * m * m


def _ranking_counts(idx: np.ndarray, k: int) -> np.ndarray:
    """How often each of ``k`` rankings occurs in each row of ``idx``, as float32 (rows, k).

    Row r is counted in cells [r*k, (r+1)*k) of one ``np.bincount``.
    """
    rows = idx.shape[0]
    counts = np.bincount((idx + k * np.arange(rows)[:, None]).ravel(), minlength=rows * k)
    return counts.reshape(rows, k).astype(np.float32)


def _score_profiles(
    idx: np.ndarray, score_rows: np.ndarray, pair_rows: np.ndarray, tie_policy: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score a block of profiles, one per row of ranking indices ``idx`` (rows, voters).

    Callers pass blocks of at most :func:`._exact.block_rows` rows of
    :func:`_profile_width` elements, so the kernel's temporaries stay near
    one block.

    Returns per profile whether a strict pairwise-majority winner exists, how
    many candidates share the top score, and whether the rule earns credit
    (1/tied): the winner exists and is among them, alone under ``"fail"``.

    The pairwise tallies and score totals are integer sums over the voters.
    Where the m! rankings are few next to the voters (:func:`_tallies_counts`),
    they are BLAS products in float32 of the per-profile ranking counts with
    the pair and score rows: a tally is at most the voter count n, a total at
    most n times the top score, and a float32 sum of integers below 2^24 is
    exact in any order, so the products are the integers themselves. Totals
    from 2^24 up, which only a custom vector of wide scores reaches, and
    every sum where m! passes 16 times the voter count, are summed in int64
    from a gather of each voter's score and pair rows.
    """
    rows, n_voters = idx.shape
    k, m = score_rows.shape
    counts = None
    if _tallies_counts(k, n_voters):
        counts = _ranking_counts(idx, k)
        pairs = (counts @ pair_rows.reshape(k, m * m).astype(np.float32)).reshape(rows, m, m)
    else:
        pairs = pair_rows[idx].sum(axis=1, dtype=np.int64)
    if counts is not None and exact_in_float32(n_voters * int(score_rows.max())):
        totals = counts @ score_rows.astype(np.float32)
    else:
        totals = score_rows[idx].sum(axis=1, dtype=np.int64)
    winner, tied, hit = _decide(pairs, totals, n_voters)
    if tie_policy == "fail":
        hit &= tied == 1
    return winner >= 0, tied, hit


def _credit_lcm(m: int) -> int:
    """lcm(1..m): every credit 1/k of k tied leaders is an integer over it."""
    return math.lcm(*range(1, m + 1))


def _price_exact(m: int, n_voters: int) -> None:
    """Refuse exact efficiency over the work cap, or beyond the range of its int64 counts.

    A leaf costs the n*m^2 pair entries the kernel's gather writes; where it
    tallies ranking counts instead (:func:`_tallies_counts`), its m! counts
    and at most n*m gathered scores are fewer. Profile counts reach (m!)^n,
    the products ``coeff * (j + 1)`` stay below (m!)^n * n and the credit
    sums below (m!)^n * lcm(1..m).
    """
    rankings = math.factorial(m)
    leaves = math.comb(n_voters + rankings - 1, rankings - 1)
    units = leaves * n_voters * m * m + rankings * m * m
    # the range test takes a big power, so only where the work fits
    factor = max(_credit_lcm(m), n_voters)
    in_range = units > EXACT_WORK_MAX or rankings**n_voters * factor < 1 << 63
    how = f"leaves*n*m^2 + m!*m^2 for {leaves:,} leaves"
    beyond = "" if in_range else "its counts (m!)^n*max(lcm(1..m), n) pass 2^63"
    check_work("Condorcet efficiency", units, "method='monte-carlo'", how, beyond)


def _sorted_rows(k: int, n: int, rows: int):
    """Blocks of at most ``rows`` rows: ``combinations_with_replacement(range(k), n)`` in order.

    :func:`.wmr.enumerate_unique_wmr` takes its weight vectors from here too,
    in one block. Rows grow one column at a time: each row is repeated once
    for each entry from its last one up. A prefix of c columns that ends in
    v grows into C(n-c+k-v-1, n-c) rows. A run of prefixes that would grow
    past ``rows`` is cut in order where it passes each multiple of ``rows``,
    and a single such prefix takes one more column first; the pieces wait on
    a stack, the next one on top.
    """
    parts = [np.arange(k, dtype=np.intp)[:, None]]
    while parts:
        part = parts.pop()
        left = n - part.shape[1]  # columns to grow
        grown = np.cumsum([math.comb(left + k - v - 1, left) for v in part[:, -1].tolist()])
        if grown[-1] > rows:
            if len(part) == 1:
                parts.append(_grow_sorted(part, k))
            else:
                cuts = grown.searchsorted(np.arange(rows, grown[-1], rows), "right")
                parts.extend(reversed(np.split(part, np.unique(np.clip(cuts, 1, len(part) - 1)))))
            continue
        while part.shape[1] < n:
            part = _grow_sorted(part, k)
        yield part


def _grow_sorted(part: np.ndarray, k: int) -> np.ndarray:
    """Each row of ``part`` followed in turn by each index from its last entry to k - 1."""
    last = part[:, -1]
    reps = k - last
    column = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - last, reps)
    return np.column_stack([np.repeat(part, reps, axis=0), column])


def _efficiency_exact(
    scoring: ScoringVector, m: int, n_voters: int, tie_policy: str
) -> EfficiencyResult:
    score_rows, pair_rows = _ranking_tables(scoring, n_voters)
    k = score_rows.shape[0]
    lcm = _credit_lcm(m)
    hits = 0
    with_winner = 0
    # each ranking-count multiset is a sorted row of ranking indices
    for idx in _sorted_rows(k, n_voters, block_rows(_profile_width(k, m, n_voters))):
        coeff = run = np.ones(idx.shape[0], dtype=np.int64)
        for j in range(1, n_voters):
            # profiles per row, n!/prod(run length)!: each prefix is a multinomial
            run = np.where(idx[:, j] == idx[:, j - 1], run + 1, 1)
            coeff = coeff * (j + 1) // run
        has_cw, tied, hit = _score_profiles(idx, score_rows, pair_rows, tie_policy)
        with_winner += int(coeff[has_cw].sum())
        hits += int(coeff[hit] @ (lcm // tied[hit]))
    # n equal rankings elect their top candidate pairwise, so with_winner >= m!
    exact = Fraction(hits, lcm * with_winner)
    return EfficiencyResult(
        value=float(exact),
        method="exact",
        tie_policy=tie_policy,
        exact=exact,
        profiles_with_winner=with_winner,
    )


def _efficiency_mc(
    scoring: ScoringVector, m: int, n_voters: int, tie_policy: str, trials: int, seed: int
) -> EfficiencyResult:
    """Sampled efficiency from the integer credits lcm(1..m)/tied that the exact method sums.

    The m! ranking table is priced before it is built, at the m!*m^2 units
    of the exact method's table term: m <= 10 fits the work cap, and m >= 11
    is refused. A block of at most 2^16 profiles sums the credits and their
    squares in int64, exact while lcm(1..m)^2 * 2^16 < 2^63, that is up to
    m = 16.
    """
    k = math.factorial(m)
    how = f"m!*m^2 for {k:,} rankings"
    check_work("ranking table of method='monte-carlo' Condorcet efficiency", k * m * m, how=how)
    check_trials(trials)
    score_rows, pair_rows = _ranking_tables(scoring, n_voters)
    lcm = _credit_lcm(m)

    def credits(rng: np.random.Generator, rows: int) -> tuple[int, int, int]:
        draws = rng.integers(0, k, size=(rows, n_voters))
        has_cw, tied, hit = _score_profiles(draws, score_rows, pair_rows, tie_policy)
        share = lcm // tied[hit]  # the credit 1/tied over lcm(1..m)
        return int(np.count_nonzero(has_cw)), int(share.sum()), int(share @ share)

    width = _profile_width(k, m, n_voters)
    with_winner, hits, hits_sq = chunk_sums(trials, seed, width, credits)
    if with_winner == 0:
        raise EvidenceError("no sampled profile had a pairwise-majority winner")
    value = hits / (lcm * with_winner)
    var = max(hits_sq / (lcm * lcm * with_winner) - value * value, 0.0)
    var *= with_winner / max(with_winner - 1, 1)
    stderr = math.sqrt(var / with_winner)
    return EfficiencyResult(
        value=value,
        method="monte-carlo",
        tie_policy=tie_policy,
        profiles_with_winner=with_winner,
        stderr=stderr,
        ci95=(value - 1.96 * stderr, value + 1.96 * stderr),
        trials=trials,
        seed=seed,
    )


def condorcet_efficiency(
    scoring: ScoringVector,
    m: int,
    n_voters: int,
    method: str = "exact",
    tie_policy: str = "fail",
    trials: int = 100_000,
    seed: int = 0,
) -> EfficiencyResult:
    """Probability the scoring rule elects the pairwise-majority winner.

    Voters draw rankings of m candidates independently and uniformly; the
    result conditions on profiles where a strict pairwise winner exists.
    Under ``tie_policy="fail"`` a shared top score never counts as electing
    the winner; ``"split-credit"`` awards 1/k when the winner is among k
    tied leaders.
    """
    if m < 2:
        raise DimensionError("at least two candidates are required")
    if n_voters < 1:
        raise DimensionError("at least one voter is required")
    if scoring.m != m:
        raise DimensionError(f"scoring vector has {scoring.m} positions for m={m}")
    if tie_policy not in _TIE_POLICIES:
        raise ValueError(f"tie_policy must be one of {_TIE_POLICIES}, got {tie_policy!r}")
    if method == "exact":
        _price_exact(m, n_voters)
        return _efficiency_exact(scoring, m, n_voters, tie_policy)
    if method == "monte-carlo":
        return _efficiency_mc(scoring, m, n_voters, tie_policy, trials, seed)
    raise ValueError(f"method must be 'exact' or 'monte-carlo', got {method!r}")
