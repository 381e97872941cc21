"""Banzhaf and Shapley-Shubik voting power, exact and by Monte Carlo.

Exact routines count coalitions on rescaled integer weights, so no
floating-point comparison comes anywhere near the quota. They run the shared
kernel in :mod:`._exact`: a counting DP over weights up to the quota, in
O(n * q) cells for Banzhaf and O(n^2 * q) for Shapley-Shubik, or 2^n int8
outcomes when that is cheaper, refused beyond one work cap. Both indices at
once (:func:`power_exact`, ``power --kind both``) come from one table. The
Monte Carlo estimators draw through the chunked driver of :mod:`._rand`, so a
seed fixes their results to the bit, in row blocks, so their memory follows
one block and not the chunk times the players. A block's statistics are exact
numbers, integer counts, so their sums do not depend on the split into blocks.

An exact game is priced and counted on its lowest integer weights and on the
smaller side of its quota, q = min(quota, W-1-quota), so a rescaled game
costs the same.

A Banzhaf chunk's coalition weights and swing counts are integers. The
weights are summed in float32 while the total weight and the quota stay
below 2^24, and in int64 otherwise (``integer_form`` keeps them below 2^62);
the swing counts of each block, of at most 2^16 trials, and their cross
products, in float32. A float sum of integers under 2^24 is exact in any
order, so every coalition weight and every block count is exact; the counts
are returned as float64, where their sums over all blocks stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._exact import exact_in_float32, power_counts
from ._rand import check_trials, chunk_sums
from .model import VotingGame, integer_form


@dataclass(frozen=True)
class PowerReport:
    """Result of a power computation.

    ``raw`` holds absolute swing counts (Banzhaf) or pivot counts
    (Shapley-Shubik) for exact methods, and estimated expectations for Monte
    Carlo. ``normalized`` always sums to 1 unless the game has no swings at
    all. ``stderr`` is populated by Monte Carlo methods only and refers to the
    normalized index.
    """

    kind: str
    method: str
    raw: tuple[float, ...]
    normalized: tuple[float, ...]
    stderr: Optional[tuple[float, ...]] = None


def _exact_report(kind: str, raw: list[int]) -> PowerReport:
    """Raw counts normalized by their exact total, or all zero if nobody has power."""
    total = sum(raw)
    normalized = tuple(r / total for r in raw) if total else (0.0,) * len(raw)
    return PowerReport(kind, "exact", tuple(raw), normalized)


def banzhaf_exact(game: VotingGame) -> PowerReport:
    """Exact Banzhaf power: raw swing counts and their normalization.

    Raw values count, for each player, the coalitions of the other players
    that the player's joining turns from losing to winning. A dummy scores 0;
    a dictator is the only player with a positive count.
    """
    ws, quota = integer_form(game)
    return _exact_report("banzhaf", power_counts(ws.tolist(), quota, kinds=("banzhaf",))[0])


def shapley_shubik_exact(game: VotingGame) -> PowerReport:
    """Exact Shapley-Shubik power: pivot counts over all n! player orderings.

    Instead of walking orderings, each player's pivot count is assembled from
    the coalitions of the other players grouped by size k, weighting each
    qualifying coalition by k!(n-1-k)!. Raw counts sum to n! whenever the
    grand coalition wins, and are all 0 otherwise.
    """
    ws, quota = integer_form(game)
    return _exact_report("shapley", power_counts(ws.tolist(), quota, kinds=("shapley",))[0])


def power_exact(game: VotingGame) -> tuple[PowerReport, PowerReport]:
    """Exact Banzhaf and Shapley-Shubik power, both read off one table of swings by size."""
    ws, quota = integer_form(game)
    return tuple(map(_exact_report, ("banzhaf", "shapley"), power_counts(ws.tolist(), quota)))


def _banzhaf_mc(ws: np.ndarray, quota: int, n: int, trials: int, seed: int) -> PowerReport:
    # every weight sum and threshold below is an integer of at most this bound
    dtype = np.float32 if exact_in_float32(max(sum(map(int, ws)), quota)) else np.int64
    wf = ws.astype(dtype)

    def swings(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
        member = rng.integers(0, 2, size=(rows, n)).astype(dtype)
        totals = member @ wf
        # per player: sum over the *others*, shared across all players of one draw
        others = np.subtract(totals[:, None], np.multiply(member, wf, out=member), out=member)
        x = ((others > quota - wf) & (others <= quota)).astype(np.float32)
        # counts of at most 2^16 trials: exact in float32, summed in float64
        return x.sum(axis=0, dtype=np.float64), (x.T @ x).astype(np.float64)

    sum_x, sum_xx = chunk_sums(trials, seed, n, swings)
    t = trials
    p = sum_x / t
    raw = tuple(float(x) * 2.0 ** (n - 1) for x in p)
    s = p.sum()
    if s == 0.0:
        return PowerReport("banzhaf", "monte-carlo", raw, (0.0,) * n, (0.0,) * n)
    normalized = p / s
    # delta method: variance of p/s propagated through the normalization
    cov_mean = (sum_xx / t - np.outer(p, p)) / max(t - 1, 1)
    jac = (np.eye(n) * s - np.outer(p, np.ones(n))) / (s * s)
    var = np.einsum("ij,jk,ik->i", jac, cov_mean, jac)
    stderr = np.sqrt(np.clip(var, 0.0, None))
    return PowerReport(
        "banzhaf",
        "monte-carlo",
        raw,
        tuple(float(x) for x in normalized),
        tuple(float(x) for x in stderr),
    )


def _shapley_mc(ws: np.ndarray, quota: int, n: int, trials: int, seed: int) -> PowerReport:
    counts = np.zeros(n, dtype=np.int64)
    if int(ws.sum()) > quota:

        def pivots(rng: np.random.Generator, rows: int) -> tuple[np.ndarray]:
            perms = np.tile(np.arange(n), (rows, 1))
            rng.permuted(perms, axis=1, out=perms)
            cum = ws[perms]
            np.cumsum(cum, axis=1, out=cum)
            pivot = perms[np.arange(rows), np.argmax(cum > quota, axis=1)]
            return (np.bincount(pivot, minlength=n),)

        # a trial holds its ordering and the running weights along it
        (counts,) = chunk_sums(trials, seed, 2 * n, pivots)
    t = trials
    p = counts / t
    stderr = np.sqrt(p * (1.0 - p) / t)
    est = tuple(float(x) for x in p)
    return PowerReport(
        "shapley", "monte-carlo", est, est, tuple(float(x) for x in stderr)
    )


def power_monte_carlo(
    game: VotingGame, kind: str = "banzhaf", trials: int = 100_000, seed: int = 0
) -> PowerReport:
    """Estimate a power index by simulation, deterministically for a given seed.

    Banzhaf trials draw one random coalition per trial and test every player's
    swing against that shared draw; the reported stderr is for the normalized
    index (delta method across the correlated per-player estimates).
    Shapley-Shubik trials draw random orderings and record the pivot, so the
    normalized estimate is a plain multinomial proportion.

    Trials are drawn through :func:`._rand.chunk_sums`, so the result depends
    only on the seed and the trial budget.
    """
    check_trials(trials)
    if kind not in ("banzhaf", "shapley"):
        raise ValueError(f"kind must be 'banzhaf' or 'shapley', got {kind!r}")
    ws, quota = integer_form(game)
    if kind == "banzhaf":
        return _banzhaf_mc(ws, quota, game.n, trials, seed)
    return _shapley_mc(ws, quota, game.n, trials, seed)
