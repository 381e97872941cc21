"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive: explicit loops over itertools, exact
fractions where the library uses rescaled integer arrays. Slow, but sharing
no code path with the package.
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np


def banzhaf_brute(weights, quota):
    """Swing counts by explicit enumeration of the other players' coalitions."""
    n = len(weights)
    counts = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        c = 0
        for r in range(n):
            for combo in combinations(others, r):
                s = sum((weights[j] for j in combo), Fraction(0))
                if not s > quota and s + weights[i] > quota:
                    c += 1
        counts.append(c)
    return counts


def shapley_brute(weights, quota):
    """Pivot shares over all orderings, as exact fractions.

    Weights and quota may be ints or Fractions; sums stay exact either way.
    """
    n = len(weights)
    counts = [0] * n
    for order in permutations(range(n)):
        s = 0
        for j in order:
            s += weights[j]
            if s > quota:
                counts[j] += 1
                break
    return [Fraction(c, math.factorial(n)) for c in counts]


def competence_brute(weights, bias, skills, nd_credit=0.0):
    """Group competence by enumerating every correctness pattern."""
    n = len(weights)
    value = 0.0
    for pattern in product((1, -1), repeat=n):
        prob = 1.0
        s = 0.0
        for v, w, p in zip(pattern, weights, skills):
            prob *= p if v == 1 else 1.0 - p
            s += w * v
        if s > bias:
            value += prob
        elif s == bias:
            value += nd_credit * prob
    return value


def decisiveness_brute(weights, bias, skills, player, nd_credit=0.0):
    """P(correct | player right) - P(correct | player wrong) by enumeration."""
    up = list(skills)
    up[player] = 1.0
    down = list(skills)
    down[player] = 0.0
    return competence_brute(weights, bias, up, nd_credit) - competence_brute(
        weights, bias, down, nd_credit
    )


def majority_competence_binomial(n, p):
    """Simple-majority competence from the binomial formula."""
    k0 = n // 2 + 1
    return sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(k0, n + 1))


def team_vote_competence(size, p, coin_flip):
    """Chance a simple-majority team of equally skilled members votes correctly."""
    value = sum(
        math.comb(size, k) * p**k * (1 - p) ** (size - k)
        for k in range(size // 2 + 1, size + 1)
    )
    if coin_flip and size % 2 == 0:
        half = size // 2
        value += 0.5 * math.comb(size, half) * p**half * (1 - p) ** half
    return value


def indirect_brute(
    teams,
    skills,
    nd_credit=0.0,
    member_weights=None,
    team_biases=None,
    top_weights=None,
    top_bias=0,
):
    """Two-tier competence by enumerating all player patterns and team coins.

    Member weights, team biases, top weights and the top bias default to
    simple majority (ones and zeros); every sum is taken exactly in
    Fractions. A tied team votes incorrectly when nd_credit is 0, otherwise
    each tied team's vote is a fair coin (enumerated exactly); a tied top
    level earns nd_credit.
    """
    k = len(teams)
    member_weights = member_weights or [[1] * len(team) for team in teams]
    mw = [[Fraction(w) for w in row] for row in member_weights]
    tb = [Fraction(b) for b in (team_biases or [0] * k)]
    tw = [Fraction(w) for w in (top_weights or [1] * k)]
    bias = Fraction(top_bias)
    players = sorted({i for t in teams for i in t})
    value = 0.0
    for pattern in product((1, -1), repeat=len(players)):
        vote = dict(zip(players, pattern))
        prob = 1.0
        for i, v in zip(players, pattern):
            prob *= skills[i] if v == 1 else 1.0 - skills[i]
        sums = [
            sum((w * vote[i] for i, w in zip(team, ws)), Fraction(0)) - b
            for team, ws, b in zip(teams, mw, tb)
        ]
        tied = [t for t, s in enumerate(sums) if s == 0]
        coins = product((1, -1), repeat=len(tied)) if nd_credit else [(-1,) * len(tied)]
        for assignment in coins:
            coin_of = dict(zip(tied, assignment))
            top = sum(
                (w * (coin_of[t] if s == 0 else (1 if s > 0 else -1))
                 for t, (s, w) in enumerate(zip(sums, tw))),
                Fraction(0),
            )
            credit = 1.0 if top > bias else (nd_credit if top == bias else 0.0)
            value += prob * credit / (2 ** len(tied) if nd_credit else 1)
    return value


def rule_table_brute(weights, bias=0):
    """Outcome per profile index by direct exact summation."""
    n = len(weights)
    weights = [Fraction(w) for w in weights]
    bias = Fraction(bias)
    table = []
    for m in range(1 << n):
        s = sum(
            (w if m >> i & 1 else -w for i, w in enumerate(weights)), Fraction(0)
        )
        table.append(1 if s > bias else -1 if s < bias else 0)
    return table


def efficiency_brute(score_vector, m, n_voters, tie_policy="fail"):
    """Condorcet efficiency by walking every one of the (m!)^n profiles.

    Returns (efficiency as a Fraction, number of profiles with a winner).
    """
    cands = range(m)
    rankings = list(permutations(cands))
    sv = [Fraction(x) for x in score_vector]
    hits = Fraction(0)
    with_cw = 0
    for profile in product(rankings, repeat=n_voters):
        cw = None
        for a in cands:
            if all(
                2 * sum(1 for r in profile if r.index(a) < r.index(b)) > n_voters
                for b in cands
                if b != a
            ):
                cw = a
                break
        if cw is None:
            continue
        with_cw += 1
        totals = [Fraction(0)] * m
        for r in profile:
            for pos, c in enumerate(r):
                totals[c] += sv[pos]
        top = max(totals)
        tied = [c for c in cands if totals[c] == top]
        if tie_policy == "fail":
            if len(tied) == 1 and tied[0] == cw:
                hits += 1
        elif cw in tied:
            hits += Fraction(1, len(tied))
    return hits / with_cw, with_cw


def ballots_brute(rankings, points, weights):
    """Weighted ranked ballots summed one ballot and one position at a time, in Fractions.

    ``rankings`` are label sequences, ``points`` the scoring entries by position
    and ``weights`` anything ``Fraction`` reads. Returns ``(totals, pairs,
    ranking, tied_top, champion)``: totals by label, ``pairs[a, b]`` the weight
    ranking a above b, the labels by falling total then label, whether the top
    total is shared, and the label beating every other head to head, or None.
    """
    labels = sorted(rankings[0])
    totals = {a: Fraction(0) for a in labels}
    pairs = {(a, b): Fraction(0) for a in labels for b in labels}
    for ranking, w in zip(rankings, weights):
        for pos, a in enumerate(ranking):
            totals[a] += Fraction(w) * Fraction(points[pos])
            for b in ranking[pos + 1 :]:
                pairs[a, b] += Fraction(w)
    ranking = sorted(labels, key=lambda a: (-totals[a], a))
    tied_top = sum(1 for a in labels if totals[a] == totals[ranking[0]]) > 1
    champion = None
    for a in labels:
        if all(pairs[a, b] > pairs[b, a] for b in labels if b != a):
            champion = a
    return totals, pairs, tuple(ranking), tied_top, champion


def score_profiles_gather(idx, score_rows, pair_rows, tie_policy):
    """``(has_cw, tied, hit)`` per profile row of ranking indices ``idx`` (rows, voters).

    The scoring kernel in its first form: it gathers every voter's score and
    pair rows and sums them in int64, with no ranking counts and no floats.
    """
    n_voters, m = idx.shape[1], score_rows.shape[1]
    totals = score_rows[idx].sum(axis=1, dtype=np.int64)
    pairs = pair_rows[idx].sum(axis=1, dtype=np.int64)
    is_cw = (2 * pairs > n_voters).sum(axis=2) == m - 1  # row a beats all others
    cw = np.argmax(is_cw, axis=1)
    at_top = totals == totals.max(axis=1, keepdims=True)
    tied = at_top.sum(axis=1)
    has_cw = is_cw.any(axis=1)
    hit = has_cw & np.take_along_axis(at_top, cw[:, None], axis=1)[:, 0]
    if tie_policy == "fail":
        hit &= tied == 1
    return has_cw, tied, hit


def decide_reduction(pairs, totals, weight):
    """``scoring._decide`` in its reduction form, over the candidate axis of (..., m) arrays.

    Returns per profile the candidate beating every other with more than half
    of ``weight`` (-1 if none), how many share the top total, and whether the
    winner is among them. A beaten-all row is found by summing the strict
    wins of each row, so the tallies' diagonal must not be a strict win.
    """
    beats_all = (2 * pairs > weight).sum(axis=-1) == pairs.shape[-1] - 1
    at_top = totals == totals.max(axis=-1, keepdims=True)
    cw = np.argmax(beats_all, axis=-1)
    has_cw = beats_all.any(axis=-1)
    hit = has_cw & np.take_along_axis(at_top, cw[..., None], axis=-1)[..., 0]
    return np.where(has_cw, cw, -1), at_top.sum(axis=-1), hit


def random_rational_game(rng: random.Random, n: int):
    """Random weights and quota as exact small fractions (quota below the total)."""
    weights = [
        Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4))) for _ in range(n)
    ]
    total = sum(weights, Fraction(0))
    if total == 0:
        weights[rng.randrange(n)] = Fraction(1)
        total = sum(weights, Fraction(0))
    quota = total * Fraction(rng.randint(1, 19), 20)
    return weights, quota


def unique_wmr_brute(n, max_weight):
    """Distinct decisive rules by a dict keyed on each vector's outcome table.

    Vectors are visited odd total first, then lexicographically; the first
    vector reaching a table names it. Returns the sorted weight tuples.
    """
    vectors = sorted(
        combinations_with_replacement(range(max_weight, -1, -1), n),
        key=lambda v: (sum(v) % 2 == 0, v),
    )
    seen = {}
    for v in vectors:
        sums = [0]
        for w in v:
            sums = [s - w for s in sums] + [s + w for s in sums]
        if 0 not in sums:
            seen.setdefault(tuple(s > 0 for s in sums), v)
    return sorted(seen.values())


def signed_vote_sum(votes, label, weights):
    """Sum of +w for each vote for ``label`` and -w for each other vote,
    added as Python floats in classifier order from 0.0."""
    s = 0.0
    for v, w in zip(votes, weights):
        s += float(w) if v == label else -float(w)
    return s


def wmr_brute(votes, labels, weights, bias=0.0):
    """Two-label weighted vote of one sample; None on an exact stalemate."""
    s = signed_vote_sum(votes, labels[0], weights)
    if s > bias:
        return labels[0]
    if s < bias:
        return labels[1]
    return None


def wmr_one_vs_rest_brute(votes, labels, class_weights):
    """One duel per label, weights ``class_weights[c]``; ties to the lowest label."""
    scores = [signed_vote_sum(votes, lab, class_weights[c]) for c, lab in enumerate(labels)]
    return labels[scores.index(max(scores))]


def output_scores_brute(kind, values, labels):
    """Hard-vote codes and per-class scores of one classifier's samples, scored one by one.

    ``values`` holds one label (``kind="hard"``), ranking (``"rank"``) or
    probability row (``"proba"``) per sample. A hard vote scores 1 for its
    label. A ranking must be a permutation of ``labels``; its place ``pos``
    scores Fraction(m - 1 - pos, m (m - 1) / 2), and its top is its vote. A
    probability row is its own score and votes for its first largest entry.
    Returns ``(codes, scores)``, or ``(sample, message)`` for the first bad
    sample; a proba output is first checked for a negative or non-finite
    entry on every row, and only then for a row whose sum is off 1 by more
    than 1e-9.
    """
    m = len(labels)
    codes, scores, bad = [], [], []
    for i, v in enumerate(values):
        if kind == "hard":
            if v not in labels:
                bad.append((0, i, f"predicts unknown label {v!r}"))
                continue
            codes.append(labels.index(v))
            scores.append([1.0 if lab == v else 0.0 for lab in labels])
        elif kind == "rank":
            if sorted(v) != sorted(labels):
                bad.append((0, i, f"ranking {tuple(v)} is not a permutation of the labels"))
                continue
            codes.append(labels.index(v[0]))
            scores.append([float(Fraction(m - 1 - list(v).index(lab), m * (m - 1) // 2))
                           for lab in labels])
        elif any(x < 0 or not math.isfinite(x) for x in v):
            bad.append((0, i, "has negative or non-finite probabilities"))
        elif abs(sum(v) - 1.0) > 1e-9:
            bad.append((1, i, "probability row does not sum to 1"))
        else:
            codes.append(list(v).index(max(v)))
            scores.append([float(x) for x in v])
    if bad:
        return min(bad)[1:]
    return codes, scores


def _csv_rows_rowwise(text, path):
    """(lineno, cells) of every non-comment, non-blank line, each read by the CSV reader.

    A row line that holds a NUL is refused, as the reader of Python 3.10
    refuses it (later readers take the NUL as text).
    """
    from votefuse.errors import ParseError

    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        try:
            if "\0" in raw:
                raise csv.Error("line contains NUL")
            rows.append((lineno, next(csv.reader([raw]))))
        except csv.Error as exc:
            raise ParseError(f"bad CSV row: {exc}", path=path, line=lineno, column=1) from None
    return rows


def report_rowwise(text, source="<string>"):
    """A report CSV parsed row by row: ``votefuse.io.parse_report`` in its plainest form.

    The rows are the CSV reader's, the comments every line that starts with
    ``#``, without it and the blanks after it. Errors carry the same message,
    line and column as the parser.
    """
    from votefuse.errors import ParseError
    from votefuse.io import Report

    rows = _csv_rows_rowwise(text, source)
    if not rows:
        raise ParseError("report has no header row", path=source, line=1, column=1)
    (_, header), body = rows[0], rows[1:]
    for lineno, cells in body:
        if len(cells) != len(header):
            message = f"row has {len(cells)} cells, header has {len(header)}"
            raise ParseError(message, path=source, line=lineno, column=1)
    comments = tuple(raw[1:].lstrip() for raw in text.splitlines() if raw.startswith("#"))
    return Report(comments, tuple(header), tuple(tuple(cells) for _, cells in body))


def predictions_rowwise(text, source="<string>"):
    """A predictions CSV parsed row by row, every cell on its own.

    The parser in its first form: it builds one Python list per row, then
    reads each classifier cell by itself and builds the outputs through the
    public ``ClassifierOutput.from_*`` constructors. Errors carry the same
    message, line and column as ``votefuse.io.parse_predictions``.
    """
    from votefuse.errors import ParseError, SampleError
    from votefuse.fusion import ClassifierOutput, PredictionSet

    rows = _csv_rows_rowwise(text, source)
    if not rows:
        raise ParseError("empty predictions file", path=source, line=1, column=1)
    header_line, header = rows[0]
    header = [h.strip() for h in header]
    if not header or header[0] != "sample_id":
        raise ParseError(
            "first header column must be sample_id", path=source, line=header_line, column=1
        )
    body = rows[1:]
    if not body:
        raise ParseError("no data rows", path=source, line=header_line, column=1)
    for lineno, cells in body:
        if len(cells) != len(header):
            raise ParseError(
                f"row has {len(cells)} cells, header has {len(header)}",
                path=source, line=lineno, column=1,
            )

    def fail(message, row, col):
        line = header_line if row is None else body[row][0]
        return ParseError(message, path=source, line=line, column=col + 1)

    classifiers = []  # [name, form, columns]
    truth_col = None
    feat_cols = []
    for i, h in enumerate(header):
        if h in header[:i]:
            raise fail(f"duplicate column {h!r}", None, i)
        if h == "sample_id":
            continue
        if h == "true_label":
            truth_col = i
        elif h.startswith("feat_"):
            feat_cols.append(i)
        else:
            form = "proba" if ":" in h else "vote"
            name = h.split(":", 1)[0]
            same = [c for c in classifiers if c[0] == name]
            if not same:
                classifiers.append([name, form, [i]])
            elif form == "proba" and same[0][1] == "proba":
                same[0][2].append(i)
            else:
                raise fail(f"duplicate classifier column {h!r}", None, i)
    if not classifiers:
        raise fail("no classifier columns found", None, 0)

    sample_ids = []
    for r, (_, cells) in enumerate(body):
        if not cells[0].strip():
            raise fail("empty sample_id", r, 0)
        sample_ids.append(cells[0].strip())
    truth = None
    if truth_col is not None:
        truth = [cells[truth_col].strip() or None for _, cells in body]

    numeric = {}
    for r, (_, cells) in enumerate(body):
        for i in sorted(feat_cols + [i for _, f, c in classifiers if f == "proba" for i in c]):
            try:
                numeric[r, i] = float(cells[i])
            except ValueError:
                raise fail(f"not a number: {cells[i]!r}", r, i) from None
            if not math.isfinite(numeric[r, i]):
                raise fail(f"not a finite number: {cells[i]!r}", r, i)

    def cell(raw):
        v = raw.strip()
        return tuple(p.strip() for p in v.split(">")) if ">" in v else v

    labels_seen = {t for t in truth or () if t is not None}
    for name, form, cols in classifiers:
        for i in cols:
            if form == "proba":
                labels_seen.add(header[i].split(":", 1)[1])
                continue
            for _, cells in body:
                v = cell(cells[i])
                labels_seen.update(v if isinstance(v, tuple) else (v,))
    labels_seen.discard("")
    labels = tuple(sorted(labels_seen))
    if len(labels) < 2:
        raise fail(f"found {len(labels)} distinct labels, need at least 2", None, 0)

    outputs = []
    for name, form, cols in classifiers:
        if form == "proba":
            suffix = {header[i].split(":", 1)[1]: i for i in cols}
            if tuple(sorted(suffix)) != labels:
                raise fail(
                    f"probability group {name!r} covers {sorted(suffix)}, expected {list(labels)}",
                    None, cols[0],
                )
            matrix = [[numeric[r, suffix[lab]] for lab in labels] for r in range(len(body))]
            outputs.append(ClassifierOutput.from_proba(matrix))
            continue
        values = [cell(cells[cols[0]]) for _, cells in body]
        kinds = [isinstance(v, tuple) for v in values]
        if all(kinds):
            outputs.append(ClassifierOutput.from_ranks(values))
            continue
        if any(kinds):
            raise fail(f"column {name!r} mixes plain labels and rankings", kinds.index(True),
                       cols[0])
        if "" in values:
            raise fail(f"empty vote in column {name!r}", values.index(""), cols[0])
        outputs.append(ClassifierOutput.from_hard(values))

    try:
        return PredictionSet(
            labels=labels,
            sample_ids=tuple(sample_ids),
            outputs=tuple(outputs),
            classifier_names=tuple(name for name, _, _ in classifiers),
            true_labels=None if truth is None else tuple(truth),
            features=(
                [[numeric[r, i] for i in feat_cols] for r in range(len(body))]
                if feat_cols else None
            ),
        )
    except SampleError as exc:
        col = truth_col if exc.classifier is None else classifiers[exc.classifier][2][0]
        raise fail(str(exc), exc.sample, col) from None
    except Exception as exc:
        raise fail(str(exc), None, 0) from None


def neighbors_argsort(features, queries, k):
    """The first k of each query's stable argsort of distances to the validation rows.

    ``features`` is (N, d), ``queries`` (B, d). The distance is the float
    sqrt(sum_i ((x_i - q_i) / s_i)^2) over the features of non-zero spread
    s (the standard deviation over the rows): each term is computed as
    (x - q) / s and squared, and the terms are added in feature order,
    starting from 0.0. Ties go to the lower index.
    """
    x = np.asarray(features, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    spread = x.std(axis=0)
    total = np.zeros((q.shape[0], x.shape[0]))
    for i in np.flatnonzero(spread > 0):
        z = (x[None, :, i] - q[:, None, i]) / spread[i]
        total += z * z
    return np.argsort(np.sqrt(total), axis=1, kind="stable")[:, :k]
