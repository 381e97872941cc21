"""The exact kernel behind power indices and jury competence, and the one work cap.

Every exact question here is a sum over the 2^n coalitions (or vote patterns)
of n players, taken one of two ways: a counting DP over integer weights, which
tabulates coalitions (or probability) by total weight in O(n * W) cells for
total weight W (Brams & Affuso 1976; Matsui & Matsui 2000; Uno 2012), or a
route for any weights priced at n*2^n: power indices read each coalition's
outcome off :func:`pattern_outcomes`, and the jury meets in the middle
(Horowitz & Sahni 1974), sorting one half's 2^(n/2) signed sums, settling the
pairs of half patterns that are certainly won or lost by binary search, and
deciding the band of near ties by their sum in player order (:func:`_jury_halves`).
Each kernel prices both routes and takes the cheaper. Both routes give
the same answers (counts exactly, probabilities up to float rounding), and
neither divides to take a player out: the power DP uses an exact alternating
identity, the jury kernels prefix/suffix summaries of the other judges.
The power DP holds running totals (coalitions up to each weight) from its
first cell, which counts the empty coalition at every weight; the recurrence
is linear, so adding a player keeps them running totals. It counts in a dtype
that bounds them and adds each player in column blocks from the top down, so
that no step copies more than one block of its table. The swings of every
player are read off the totals in one gather, not in a pass per player.

Every exact computation of the package prices itself in these work units,
and :func:`check_work` alone refuses one beyond :data:`EXACT_WORK_MAX`. A
question with more than one route lists them as :class:`Route` records, the
DP first, and the one chooser, :func:`choose`, runs the first of the fewest
units and prices it, naming every route: Banzhaf takes n*(q+1) DP cells and
Shapley-Shubik n*(n+1)*(q+1), on a game's lowest integer weights (over their
gcd) and the smaller side of its quota, q = min(quota, W-1-quota) for total
weight W; the jury n*(W+1)*(1 + bit length of n-1) for total absolute weight
W of its integer weights, also on their lowest terms; each or n*2^n by the
other route. Indirect competence prices a team with no shared member and its
top level by their :func:`cheapest` routes. A question with one route
prices it alone: a rule table or a nearest simple rule n*2^n; Condorcet
efficiency of m candidates and n voters leaves*n*m^2 + m!*m^2 for
C(n+m!-1, m!-1) leaves, and its Monte Carlo route m!*m^2 for the ranking
table it samples from. The enumeration of rules needs no price: it never
scans past the weight bound that reaches every rule, and its largest scan,
7 voters at bound 9, is 2% of the cap.

Every weighted vote of the package is decided here: :func:`outcome` turns
signed sums sum_i w_i v_i (v_i = +1 or -1) into 1 above the bias (A wins),
-1 below it (B wins) and 0 at a stalemate (no decision), and
:func:`pattern_outcomes` enumerates the +-w patterns that feed it. Power
swings, jury credit, rule tables and fused decisions all read these outcomes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapacityError
from .model import as_fraction

#: Largest estimated work, in DP cells or enumerated entries, that an exact
#: computation may take on; 24 players always fit by enumeration.
EXACT_WORK_MAX = 1 << 29

#: Elements in one block of temporaries held at once; see :func:`block_rows`.
OUTCOME_BLOCK = 1 << 17

#: What a jury earns for a stalemate under each no-decision policy.
ND_CREDIT = {"incorrect": 0.0, "coin-flip": 0.5}


def enumerate_patterns(off, on, start, op=np.add) -> np.ndarray:
    """Fold one of two values per player over all 2^n patterns.

    Entry j of the last axis is ``op(...op(op(start, x_0), x_1)..., x_{n-1})``
    where x_i is ``on[i]`` if bit i of j is set and ``off[i]`` otherwise.
    ``start`` may be an array; its shape becomes the leading axes.
    """
    start = np.asarray(start)
    out = np.empty(start.shape + (1 << len(off),), dtype=start.dtype)
    out[..., 0] = start
    half = 1
    for a, b in zip(off, on):
        low = out[..., :half]
        op(low, b, out=out[..., half : 2 * half])
        op(low, a, out=low)
        half *= 2
    return out


def outcome(sums, bias) -> np.ndarray:
    """Decide signed sums against ``bias``: int8 1 above it, -1 below it, 0 at a stalemate."""
    return np.subtract(sums > bias, sums < bias, dtype=np.int8)


def credit(outcomes: np.ndarray, nd: float) -> np.ndarray:
    """What each outcome earns: 1.0 for a win, ``nd`` for a stalemate, 0.0 for a loss."""
    return np.array((nd, 1.0, 0.0))[outcomes]  # indexed by the outcome, -1 from the end


def nd_credit(nd_policy: str) -> float:
    """The stalemate credit of a no-decision policy."""
    if nd_policy not in ND_CREDIT:
        raise ValueError(f"nd_policy must be one of {sorted(ND_CREDIT)}, got {nd_policy!r}")
    return ND_CREDIT[nd_policy]


def block_rows(width: int) -> int:
    """The most rows (at least one) of ``width`` elements that fit in one block."""
    return max(1, OUTCOME_BLOCK // width)


def pattern_outcomes(w, bias) -> np.ndarray:
    """The :func:`outcome` of every +-w pattern: (2^n,) for (n,) weights, (k, 2^n) for (k, n).

    In entry j player i adds +w_i iff bit i of j is set; ``bias`` is a scalar
    or has one entry per row. The sums are built in blocks of at most
    :data:`OUTCOME_BLOCK`: the low players vary inside a block, and the high
    players, fixed per block, are added after them in player order, so each
    sum is the float that ``enumerate_patterns(-w, w, 0)`` gives. Integer
    weights sum in their own dtype.
    """
    w = np.asarray(w)
    cols = np.atleast_2d(w).T[:, :, None]
    n, k = cols.shape[:2]
    bias = np.reshape(bias, (-1, 1))
    bits = min(n, block_rows(k).bit_length() - 1)  # low players varied inside a block
    low = enumerate_patterns(-cols[:bits], cols[:bits], np.zeros(k, dtype=w.dtype))
    out = np.empty((k, 1 << n), dtype=np.int8)
    sums = np.empty_like(low)
    for h in range(1 << (n - bits)):
        np.copyto(sums, low)
        for b, col in enumerate(cols[bits:]):
            np.add(sums, col if h >> b & 1 else -col, out=sums)
        out[:, h << bits : (h + 1) << bits] = outcome(sums, bias)
    return out.reshape(w.shape[:-1] + (1 << n,))


def exact_in_float32(bound: int) -> bool:
    """Whether float32 sums integers of at most ``bound`` exactly.

    A float sum of integers is exact in any order, as in a BLAS product,
    while every partial sum stays below 2^24 in float32; ``bound`` caps the
    absolute value of every term and partial sum.
    """
    return bound < 1 << 24


def check_work(
    what: str, units: int, sampler: Optional[str] = None, how: str = "", beyond: str = ""
) -> None:
    """Refuse an exact computation whose estimated work passes :data:`EXACT_WORK_MAX`.

    ``how`` says how it was priced, ``sampler`` names the Monte Carlo route if
    there is one, and ``beyond`` refuses within the cap, saying why.
    """
    if units > EXACT_WORK_MAX:
        verdict = f"over the limit of {EXACT_WORK_MAX:,}"
    elif beyond:
        verdict = f"within the limit of {EXACT_WORK_MAX:,}, but {beyond}"
    else:
        return
    priced = f" ({how})" if how else ""
    route = f" Use {sampler} instead." if sampler else ""
    raise CapacityError(
        f"exact {what} needs an estimated {units:,} work units{priced}, {verdict}.{route}"
    )


class Route(NamedTuple):
    """A route of an exact question: its name, its units (None if it cannot run), their text."""

    name: str
    units: Optional[int]
    text: str = ""


def cheapest(routes: Sequence[Route]) -> Route:
    """The first route with the fewest units: a DP listed first wins a tie."""
    return min((r for r in routes if r.units is not None), key=lambda r: r.units)


def choose(what: str, routes: Sequence[Route], sampler: str, route: Optional[str] = None) -> str:
    """The name of the cheapest of ``routes`` of ``what``, priced by :func:`check_work` once.

    A forced ``route`` skips the price, but must name a route that can run.
    """
    if route is None:
        best = cheapest(routes)
        check_work(what, best.units, sampler, ", ".join(r.text for r in routes))
        return best.name
    if route not in [r.name for r in routes if r.units is not None]:
        raise ValueError(f"exact {what} has no route {route!r} for these weights")
    return route


def _count_dtype(n: int):
    """int32, int64, then Python ints: the narrowest dtype for running totals of 2^n counts."""
    if n <= 30:
        return np.int32
    return np.int64 if n <= 62 else object


def _add_shifted(target: np.ndarray, source: np.ndarray, w: int) -> None:
    """``target[..., w:] += source[..., : width - w]``, as the source was before the update.

    ``source`` may overlap ``target`` one player back, as in a DP table. The
    columns are updated from the top down in blocks of at most
    :data:`OUTCOME_BLOCK` elements: a block reads only columns below it, which
    are not yet updated, so numpy's copy of an overlapping source holds at
    most one block instead of the whole table.
    """
    width = target.shape[-1]
    step = block_rows(target.size // width)  # columns per block
    for hi in range(width, w, -step):
        lo = max(w, hi - step)
        target[..., lo:hi] += source[..., lo - w : hi - w]


def _reduced_game(ws: Sequence[int], q: int) -> tuple[list[int], int]:
    """The same game on its lowest integer weights and the smaller side of its quota.

    Weights over their gcd g and the quota over g, rounded down, win and lose
    as before. Quota q and W-1-q give every player the same swings: the
    coalitions of the others with weight in (q - w_i, q] are the complements,
    among the others, of those with weight in (W-1-q - w_i, W-1-q], with size
    n-1-k for k, and the pivot factor k!(n-1-k)! is symmetric in k. A quota
    below 0 is left when no coalition wins (q >= W).
    """
    g = math.gcd(*ws) or 1
    ws = [w // g for w in ws]
    q //= g
    return ws, min(q, sum(ws) - 1 - q)


# ---------------------------------------------------------------- power


def power_counts(
    ws: Sequence[int], q: int, route: Optional[str] = None, kinds=("banzhaf", "shapley")
) -> list[list[int]]:
    """Raw counts of each of ``kinds``, 'banzhaf' or 'shapley', one list per kind.

    A coalition of the others with weight in (q - w_i, q] is a swing for i,
    and one of size k makes i pivotal in k!(n-1-k)! orderings. Shapley-Shubik
    thus takes a table of swings by size, whose rows summed over sizes are the
    Banzhaf counts (Bilbao et al. 2000); Banzhaf alone counts swings only.
    ``route`` forces 'dp' or 'enumeration', unpriced; by default each kind is
    priced in turn, and the last one's route runs.
    """
    n = len(ws)
    ws, q = _reduced_game(ws, q)
    if q < 0:
        return [[0] * n for _ in kinds]
    every = Route("enumeration", n << n, f"enumeration n*2^n = {n << n:,}")
    for kind in kinds:  # priced in turn
        what, size = {"banzhaf": ("Banzhaf", 1), "shapley": ("Shapley-Shubik", n + 1)}[kind]
        dp = Route("dp", n * size * (q + 1), f"counting DP {n * size * (q + 1):,} cells")
        chosen = choose(what, [dp, every], f"power_monte_carlo(game, kind='{kind}')", route)
    players = dict(zip(ws, range(n)))  # one player of each weight: equal weights, equal counts
    sized = "shapley" in kinds
    if chosen == "enumeration":
        # C wins iff w(C) > q, so iff its signed sum 2*w(C) - W passes 2q - W
        wins = pattern_outcomes(ws, 2 * q - sum(ws)) > 0
        sizes = enumerate_patterns([0] * n, [1] * n, np.int8(0)) if sized else None
        swings = []
        for i in players.values():
            pair = wins.reshape(-1, 2, 1 << i)  # the coalitions without i, then with i
            hit = pair[:, 1, :] > pair[:, 0, :]
            swings.append(
                np.bincount(sizes.reshape(-1, 2, 1 << i)[:, 0, :][hit], minlength=n)
                if sized else int(np.count_nonzero(hit))
            )
            del hit  # freed before the next player's comparisons
    elif sized:
        table = np.zeros((n + 1, q + 1), dtype=_count_dtype(n))  # [size, weight up to]
        table[0] = 1  # the empty coalition
        for m, w in enumerate(ws):
            if w <= q:
                _add_shifted(table[1 : m + 2], table[: m + 1], w)
        # as for Banzhaf below, with the j-th window taken j sizes down: window[k, d, j]
        # totals size k over (q - (j+1)w, q - jw] for the d-th distinct weight w;
        # a weight past q empties every window after the first, as q + 1 does
        ends = q - np.minimum(list(players), q + 1)[:, None] * np.arange(n + 1)
        at = np.where(ends < 0, 0, table[:, np.maximum(ends, 0)])  # 0 below weight 0
        window = at[..., :-1] - at[..., 1:]
        # swings of size s: sum over j <= s of (-1)^j window[s - j, :, j], summed by size
        s, j = np.tril_indices(n)
        terms = window[s - j, :, j] * (1 - 2 * (j & 1))[:, None]  # [(s, j), d], in int64 at least
        swings = np.add.reduceat(terms, np.flatnonzero(j == 0), axis=0).T
    else:
        counts = np.ones(q + 1, dtype=_count_dtype(n))  # coalitions up to each weight: the empty one
        for w in ws:
            if w <= q:
                _add_shifted(counts, counts, w)
        swings = _banzhaf_swings(counts, np.array(list(players)), q)
    by_kind = {"banzhaf": swings}  # by distinct weight
    if sized:  # swings by distinct weight and size, as Python ints
        swings = np.array(swings, dtype=object)
        fact = [math.factorial(k) for k in range(n)]
        orders = np.array([fact[k] * fact[n - 1 - k] for k in range(n)], dtype=object)
        by_kind = {"banzhaf": swings.sum(axis=1).tolist(), "shapley": (swings @ orders).tolist()}
    out = []
    for kind in kinds:
        count = dict(zip(players, by_kind[kind]))
        out.append([count[w] for w in ws])
    return out


def _banzhaf_swings(counts: np.ndarray, w: np.ndarray, q: int) -> list[int]:
    """The swings of a player of each weight in ``w``, from the running totals ``counts``.

    A player of weight w has c_w[x] = sum_j (-1)^j c[x - j*w] coalitions of
    the others at weight x, so its swings, the total of c_w over (q - w, q],
    are 2*A - E_0 for the alternating sum A = sum_j (-1)^j E_j of the totals
    E_j = counts[q - j*w], j <= q // w. A lies in [0, 2^n), so int64 sums
    (n <= 62) may wrap mod 2^64 on the way. The terms of every weight are
    gathered at once, in blocks of at most :data:`OUTCOME_BLOCK`; a dummy
    (w = 0) takes one term and has no swings.
    """
    step = np.where(w > 0, w, q + 1)
    size = q // step + 1
    ends = np.cumsum(size)  # where each weight's terms end in the gather
    alternating = np.zeros(w.size, dtype=np.result_type(counts, np.int64))
    for lo in range(0, int(ends[-1]), OUTCOME_BLOCK):
        g = np.arange(lo, min(lo + OUTCOME_BLOCK, int(ends[-1])))
        d = ends.searchsorted(g, "right")  # the weight of each term
        j = g - (ends - size)[d]
        terms = counts[q - j * step[d]] * (1 - 2 * (j & 1))
        first = np.flatnonzero(np.diff(d, prepend=-1))  # each weight's first term in the block
        alternating[d[first]] += np.add.reduceat(terms, first)
    return np.where(w > 0, 2 * alternating - counts[q], 0).tolist()


# ---------------------------------------------------------------- jury


def jury_values(
    w: np.ndarray,
    p: np.ndarray,
    bias: float,
    nd: float,
    players: Sequence[int],
    route: Optional[str] = None,
) -> tuple[float, list[float]]:
    """Group competence and the decisiveness of each of ``players``.

    Judge i is right with probability p_i; the group is right iff
    sum_i w_i v_i > bias (v_i = +1 if right, -1 if wrong), and a stalemate
    earns ``nd``. Decisiveness is P(right | i right) - P(right | i wrong).
    ``route`` forces 'dp' (integer-valued weights only) or 'halves', unpriced;
    by default the cheaper one runs.
    """
    lowest = lowest_terms(w, bias)
    routes = jury_routes(w.size, lowest)
    if lowest is not None:
        ints, bias = lowest
        w = np.array(ints, dtype=np.float64)
    if choose("jury competence", routes, "competence_monte_carlo", route) == "dp":
        return _jury_dp(ints, p, bias, nd, players)
    return _jury_halves(w, p, bias, nd, players)


def lowest_terms(w: np.ndarray, bias: float) -> Optional[tuple[list[int], float]]:
    """Integer-valued weights over their gcd g, and a bias that decides their sums alike.

    An integer sum compares with bias/g as with the mean of its floor and
    ceiling. Weights that are not all integer-valued give None.
    """
    values = w.tolist()
    if not all(float(x).is_integer() for x in values):
        return None
    ints = [int(x) for x in values]
    g = math.gcd(*ints) or 1
    cut = as_fraction(bias) / g
    return [x // g for x in ints], (math.floor(cut) + math.ceil(cut)) / 2


def jury_routes(n: int, lowest: Optional[tuple[list[int], float]]) -> list[Route]:
    """The routes of :func:`jury_values` for n weights whose :func:`lowest_terms` are ``lowest``."""
    halves = Route("halves", n << n, f"meet in the middle n*2^n = {n << n:,}")
    if lowest is None:
        return [Route("dp", None, "no counting DP (weights are not integers)"), halves]
    # priced for every judge's decisiveness, so that the competence does not
    # depend on which decisiveness values were asked for
    cells = n * (sum(map(abs, lowest[0])) + 1) * (1 + (n - 1).bit_length())
    return [Route("dp", cells, f"counting DP {cells:,} cells"), halves]


def _each_judge(n: int, players: Sequence[int], root, absorb, leaf) -> list[float]:
    """``leaf(i, state)`` for each of ``players``, where ``state`` covers every other judge.

    A state belongs to a range [lo, hi) of judges and summarises all judges
    outside it; ``absorb(state, lo, hi, a, b)`` moves the judges [a, b) (the
    lower or upper part of the range) into the summary. Halving the range,
    the left half absorbs the right and vice versa, so these are prefix and
    suffix summaries with each judge absorbed about log2(n) times and only
    log2(n) states alive at once.
    """
    want = set(players)
    out = {}

    def split(lo: int, hi: int, state):
        if want.isdisjoint(range(lo, hi)):
            return
        if hi - lo == 1:
            out[lo] = leaf(lo, state)
            return
        mid = (lo + hi) // 2
        split(lo, mid, absorb(state, lo, hi, mid, hi))
        split(mid, hi, absorb(state, lo, hi, lo, mid))

    split(0, n, root)
    return [out[i] for i in players]


def _jury_halves(w, p, bias, nd, players):
    """Competence and decisiveness by meet in the middle, deciding as in player order.

    A pattern is decided by its sum S = fl(...fl(x_0 + x_1)... + x_{n-1}) in
    player order, x_i = +-w_i, as :func:`pattern_outcomes` sums it. With
    h = n // 2, half A = [0, h) has the prefixes s of S, and half B the sums t
    of its own terms in order, sorted once.

    A sum of k terms in order is within gamma_(k-1) * sum|x_i| of the real
    sum, gamma_k = k*u / (1 - k*u), u = 2^-53 (Higham 2002, section 4.2), so S
    is within 2 * gamma_(n-1) * W of s + t, for W = sum|w_i|. Rounding
    d = fl(bias - s) and fl(d +- e) adds at most u * (|bias| + |s| + |d +- e|).
    All of this stays below e = 2 * gamma_(n+1) * (W + |bias|), so t > fl(d + e)
    means S > bias and t < fl(d - e) means S < bias; e is doubled for the
    rounding of W and e themselves. Two ``searchsorted`` calls thus settle the
    certain pairs of each A sum. The band between, ties and near ties, is
    decided by S itself: s continued with judges h, ..., n-1 in order, once
    per distinct s, in blocks of at most :data:`OUTCOME_BLOCK` pairs. If
    W + |bias| could overflow, every pair is in the band.

    C_A[a], the expected credit over B given A's pattern a, is the mass of its
    certain wins (a suffix sum of B's sorted probabilities) plus its band;
    C_B[b] is the mass of the A sums with which b certainly wins (a running
    total) plus the same band. The competence is q_A . C_A, and each half's
    table gives its judges' decisiveness. Every pair can fall in the band,
    so the work is priced at n*2^n. The band's credits are added to C_A and
    C_B in fixed runs of 2^17 pairs, one ``bincount`` a run, so no block size
    moves a float.
    """
    n, h = w.size, w.size // 2
    # the distinct sums; none is -0.0, as every sum starts at +0.0
    s, at = np.unique(enumerate_patterns(-w[:h], w[:h], np.float64(0.0)), return_inverse=True)
    q_a = enumerate_patterns(1.0 - p[:h], p[:h], np.float64(1.0), np.multiply)
    mass = np.bincount(at, weights=q_a, minlength=s.size)  # A's mass at each distinct sum
    t = enumerate_patterns(-w[h:], w[h:], np.float64(0.0))
    order = np.argsort(t, kind="stable")
    t = t[order]
    q_b = enumerate_patterns(1.0 - p[h:], p[h:], np.float64(1.0), np.multiply)[order]
    scale = abs(bias) + sum(np.abs(w).tolist())  # inf past the float range, with no warning
    if scale < np.finfo(np.float64).max / 2:
        u = 2.0**-53
        e = 4 * (n + 1) * u / (1 - (n + 1) * u) * scale
        lo = t.searchsorted((bias - s) - e, "left")  # B positions below lo: certain losses
        hi = t.searchsorted((bias - s) + e, "right")  # from hi up: certain wins
    else:
        lo, hi = np.zeros(s.size, dtype=np.intp), np.full(s.size, t.size)
    wins = np.zeros(t.size + 1)  # wins[r]: B's mass at sorted positions r and up
    q_b[::-1].cumsum(out=wins[-2::-1])
    c_a = wins[hi]
    c_b = np.bincount(hi, weights=mass, minlength=t.size + 1)[:-1].cumsum()
    ends = (hi - lo).cumsum()
    shift = hi - ends  # band pair g of A sum a is B position g + shift[a]
    band = int(ends[-1])
    if band:  # terms[j, r]: the term of judge h + j in the B pattern at sorted position r
        terms = np.where(order >> np.arange(n - h)[:, None] & 1, w[h:, None], -w[h:, None])
    run = 1 << 17  # pairs per band sum: a split no block size changes
    for start in range(0, band, run):
        g = np.arange(start, min(start + run, band))
        a = ends.searchsorted(g, "right")
        r = g + shift[a]
        earned = np.empty(g.size)
        for i in range(0, g.size, OUTCOME_BLOCK):
            sums = s[a[i : i + OUTCOME_BLOCK]]
            for row in terms:
                sums += row[r[i : i + OUTCOME_BLOCK]]
            earned[i : i + OUTCOME_BLOCK] = credit(outcome(sums, bias), nd)
        c_a += np.bincount(a, weights=earned * q_b[r], minlength=s.size)
        c_b += np.bincount(r, weights=earned * mass[a], minlength=t.size)
    c_a = c_a[at]
    c_b[order] = c_b.copy()
    want_a = [i for i in players if i < h]
    want_b = [i - h for i in players if i >= h]
    decisive = dict(zip(want_a, _decisiveness(c_a, p[:h], want_a)))
    decisive.update(zip((i + h for i in want_b), _decisiveness(c_b, p[h:], want_b)))
    return float(q_a @ c_a), [decisive[i] for i in players]


def _decisiveness(table: np.ndarray, p: np.ndarray, players: Sequence[int]) -> list[float]:
    """The decisiveness of each of ``players`` among judges of skills ``p``."""

    def absorb(table, lo, hi, a, b):
        # table[j]: expected credit when judge lo + k is right iff bit k of j
        # is set; averaging over judges [a, b) contracts their bits
        mid = b if a == lo else a
        grid = table.reshape(1 << (hi - mid), 1 << (mid - lo))
        odds = enumerate_patterns(1.0 - p[a:b], p[a:b], np.float64(1.0), np.multiply)
        return grid @ odds if a == lo else odds @ grid

    return _each_judge(p.size, players, table, absorb, lambda i, t: float(t[1] - t[0]))


def add_judges(dist: np.ndarray, w: Sequence[int], p) -> np.ndarray:
    """``dist``, over the right judges' weight on axis 0, with judges of weights ``w`` added.

    A judge of weight -a adds a when wrong. A chance ``p[i]`` is a scalar or
    one per column of ``dist``, each column taking the steps it takes alone.
    """
    width = dist.shape[0]
    for x, q in zip(w, p):
        a = abs(x)
        q = 1.0 - q if x < 0 else q
        out = dist * (1.0 - q)
        out[a:] += dist[: width - a] * q
        dist = out
    return dist


def _jury_dp(w: list[int], p, bias, nd, players):
    # the signed sum is 2X - sum|w| for the weight X that add_judges counts
    width = sum(map(abs, w)) + 1
    earned = credit(outcome(2.0 * np.arange(width) - (width - 1), bias), nd)

    def leaf(i, others):
        a = abs(w[i])
        right = float(others[: width - a] @ earned[a:])
        wrong = float(others @ earned)
        return wrong - right if w[i] < 0 else right - wrong

    def absorb(dist, lo, hi, a, b):
        return add_judges(dist, w[a:b], p[a:b])

    n = len(w)
    start = np.zeros(width)
    start[0] = 1.0
    competence = float(absorb(start, 0, n, 0, n) @ earned)
    return competence, _each_judge(n, players, start, absorb, leaf)
