"""Output checks that do not trust the code under test.

``check_job(job, text, workdir)`` returns a list of problems with one
report. Every check is re-derived here from the job's input files and argv,
with separate code: invariants (index sums, probability ranges, echoed
trial counts), exact recounts where they are cheap (Banzhaf swing counts by
a counting DP over integer weights, integer-weight jury competence by a DP
over signed sums, exact Condorcet efficiency of m=4 by brute force over
all profiles, WMR tables, majority-vote fusion and every accuracy and risk
recount), and, for the default seed, stored reference values.

A reference keeps a digest of every exact token (integers, fractions,
labels, ``ND``, names) and the list of floats of each report. Exact tokens
must match byte for byte; floats within a relative tolerance of 1e-9, so a
change of summation order passes and a wrong answer fails.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12  # for values that are 0 up to rounding
CLIP = 1e-6  # the CLI's default --clip
FIXED_RULES = ("sum", "product", "min", "max", "median", "majority", "trimmed-mean")

_FLOAT = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+(?=[eE]))([eE][+-]?\d+)?$|^[+-]?(inf|nan)$")
_INT = re.compile(r"^[+-]?\d+$")
_FRACTION = re.compile(r"^[+-]?\d+(/\d+)?$")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def log_odds(p: float) -> float:
    """The optimal weight of a judge of skill ``p``, clipped as the CLI clips it."""
    q = min(max(p, CLIP), 1 - CLIP)
    return math.log(q / (1 - q))


# ---------------------------------------------------------------- parsing


class Report:
    """A votefuse CSV report: ``# key=value`` comments, a header and rows."""

    def __init__(self, text: str):
        self.comments: list[tuple[str, str]] = []
        body = []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                self.comments.append((key, value))
            else:
                body.append(line)
        rows = list(csv.reader(body))
        self.header = tuple(rows[0]) if rows else ()
        self.rows = [tuple(r) for r in rows[1:]]
        self.meta = dict(self.comments)

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [r[i] for r in self.rows]

    def tokens(self) -> list[str]:
        out = []
        for key, value in self.comments:
            out += [key, value]
        out += list(self.header)
        for row in self.rows:
            out += list(row)
        return out


def digest_tokens(tokens: list[str]) -> tuple[str, list[float]]:
    """Split report tokens into a digest of the exact ones and the list of floats."""
    h = hashlib.sha256()
    floats = []
    for tok in tokens:
        if _FLOAT.match(tok):
            floats.append(float(tok))
            h.update(b"\x00<float>")
        else:
            h.update(b"\x00" + tok.encode("utf-8"))
    return h.hexdigest(), floats


def _opt(argv: list[str], name: str, default=None):
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    return default


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def read_game(path: Path) -> tuple[list[Fraction], Fraction]:
    weights, quota = None, None
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "weights":
            weights = [Fraction(tok) for tok in value.split()]
        elif key.strip() == "quota":
            quota = Fraction(value.strip())
    return weights, (sum(weights) / 2 if quota is None else quota)


class PredictionTable:
    """A predictions CSV as label indices: hard votes (N, K), truth (N,) with -1 gaps."""

    def __init__(self, path: Path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        self.sample_ids = [r[0] for r in body]
        cols = {h: i for i, h in enumerate(header)}
        names: list[str] = []
        groups: dict[str, list[tuple[str, int]]] = {}
        for i, h in enumerate(header):
            if h in ("sample_id", "true_label") or h.startswith("feat_"):
                continue
            name, sep, label = h.partition(":")
            if name not in groups:
                names.append(name)
                groups[name] = []
            groups[name].append((label if sep else "", i))
        labels = set()
        truth_col = cols.get("true_label")
        if truth_col is not None:
            labels.update(r[truth_col] for r in body if r[truth_col])
        for name in names:
            for label, i in groups[name]:
                if label:
                    labels.add(label)
                else:
                    for r in body:
                        labels.update(r[i].split(">"))
        self.labels = tuple(sorted(labels))
        index = {lab: j for j, lab in enumerate(self.labels)}
        self.names = tuple(names)
        self.features = any(h.startswith("feat_") for h in header)
        votes = np.zeros((len(body), len(names)), dtype=np.int64)
        for k, name in enumerate(names):
            group = groups[name]
            if group[0][0]:  # probability columns: argmax, ties to the lowest label
                order = sorted(group)
                p = np.array([[float(r[i]) for _, i in order] for r in body])
                votes[:, k] = np.argmax(p, axis=1)
            else:
                i = group[0][1]
                votes[:, k] = [index[r[i].split(">")[0]] for r in body]
        self.votes = votes
        if truth_col is None:
            self.truth = np.full(len(body), -1)
        else:
            self.truth = np.array([index[r[truth_col]] if r[truth_col] else -1 for r in body])

    def accuracy(self, k: int) -> float:
        lab = self.truth >= 0
        return float(np.count_nonzero(self.votes[lab, k] == self.truth[lab])) / int(lab.sum())

    def majority(self, weights=None) -> np.ndarray:
        w = np.ones(self.votes.shape[1], dtype=np.int64) if weights is None else weights
        counts = np.zeros((self.votes.shape[0], len(self.labels)), dtype=np.int64)
        for k in range(self.votes.shape[1]):
            np.add.at(counts, (np.arange(self.votes.shape[0]), self.votes[:, k]), w[k])
        return np.argmax(counts, axis=1)


def read_cost(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0][1:]
    gains = {r[0]: dict(zip(cols, map(float, r[1:]))) for r in rows[1:]}
    labels = tuple(sorted(cols))
    return labels, np.array([[gains[t][p] for p in labels] for t in labels])


def risk(truth: np.ndarray, decided: np.ndarray, gains: np.ndarray) -> float:
    """Mean gain over labelled samples with a decision (decision index >= 0)."""
    keep = (truth >= 0) & (decided >= 0)
    return float(gains[truth[keep], decided[keep]].sum()) / int(keep.sum())


# ---------------------------------------------------------------- independent kernels


def banzhaf_counts(weights: list[Fraction], quota: Fraction) -> list[int]:
    """Swing counts from a counting DP over integer-scaled weights."""
    scale = math.lcm(*(w.denominator for w in weights), quota.denominator)
    ws = [int(w * scale) for w in weights]
    q = int(quota * scale)
    total = sum(ws)
    out = []
    for i, wi in enumerate(ws):
        counts = np.zeros(total + 1, dtype=np.int64)
        counts[0] = 1
        for j, w in enumerate(ws):
            if j != i and w:
                shifted = counts[:-w].copy()
                counts[w:] += shifted
            elif j != i:
                counts *= 2
        lo = max(q - wi + 1, 0)
        out.append(int(counts[lo : q + 1].sum()) if q >= lo else 0)
    return out


def _signed_sum_dist(weights: list[int], skills: list[float]) -> tuple[np.ndarray, int]:
    """P(sum_i w_i v_i = s) for integer weights, indexed by s + offset."""
    offset = sum(weights)
    dist = np.zeros(2 * offset + 1)
    dist[offset] = 1.0
    for w, p in zip(weights, skills):
        new = np.zeros_like(dist)
        if w:
            new[w:] += p * dist[:-w]
            new[:-w] += (1.0 - p) * dist[w:]
        else:
            new += dist
        dist = new
    return dist, offset


def _credit(dist: np.ndarray, offset: int, shift: int, bias: float, nd: float) -> float:
    s = np.arange(dist.size) - offset + shift
    return float(dist[s > bias].sum() + nd * dist[s == bias].sum())


@lru_cache(maxsize=None)
def efficiency_brute(m: int, voters: int, scores: tuple[int, ...], tie: str) -> tuple[str, int]:
    """Exact Condorcet efficiency and the count of profiles with a winner, over all profiles."""
    ranks = list(permutations(range(m)))
    score_rows = np.zeros((len(ranks), m), dtype=np.int64)
    pair_rows = np.zeros((len(ranks), m, m), dtype=np.int16)
    for r, perm in enumerate(ranks):
        for pos, cand in enumerate(perm):
            score_rows[r, cand] = scores[pos]
        for hi in range(m):
            for lo in range(hi + 1, m):
                pair_rows[r, perm[hi], perm[lo]] = 1
    profiles = np.array(list(product(range(len(ranks)), repeat=voters)), dtype=np.int64)
    totals = score_rows[profiles].sum(axis=1)
    pairs = pair_rows[profiles].sum(axis=1)
    beats = 2 * pairs > voters
    is_cw = beats.sum(axis=2) == m - 1
    has_cw = is_cw.any(axis=1)
    cw = np.argmax(is_cw, axis=1)
    at_top = totals == totals.max(axis=1, keepdims=True)
    n_top = at_top.sum(axis=1)
    cw_top = at_top[np.arange(len(profiles)), cw] & has_cw
    if tie == "fail":
        hits = Fraction(int(np.count_nonzero(cw_top & (n_top == 1))))
    else:
        hits = sum((Fraction(int(np.count_nonzero(cw_top & (n_top == k))), k)
                    for k in range(1, m + 1)), Fraction(0))
    with_winner = int(has_cw.sum())
    return str(hits / with_winner), with_winner


def _scoring(text: str, m: int) -> tuple[int, ...]:
    if text == "borda":
        return tuple(range(m - 1, -1, -1))
    if text == "plurality":
        return (1,) + (0,) * (m - 1)
    return tuple(int(x) for x in text.split(","))


# ---------------------------------------------------------------- per command


class _Problems(list):
    def need(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _check_power(job, rep: Report, wd: Path, bad: _Problems) -> None:
    argv = job["argv"]
    weights, quota = read_game(wd / _opt(argv, "--game"))
    n = len(weights)
    kind = _opt(argv, "--kind", "both")
    kinds = ("banzhaf", "shapley") if kind == "both" else (kind,)
    mc = job["method"] == "monte-carlo"
    bad.need(rep.header == ("kind", "player", "raw", "normalized", "stderr"), "power header")
    if not bad.need(len(rep.rows) == n * len(kinds), f"power: {len(rep.rows)} rows for n={n}"):
        return
    if mc:
        bad.need(rep.meta.get("trials") == str(job["trials"]), "power: trials not echoed")
    for b, k in enumerate(kinds):
        rows = rep.rows[b * n : (b + 1) * n]
        bad.need([r[0] for r in rows] == [k] * n, f"{k}: kind column")
        bad.need([r[1] for r in rows] == [str(i) for i in range(n)], f"{k}: player column")
        norm = [float(r[3]) for r in rows]
        if mc:
            bad.need(all(float(r[4]) > 0 for r in rows), f"{k}: a Monte Carlo stderr is not > 0")
            bad.need(all(0.0 <= x <= 1.0 for x in norm), f"{k}: normalized outside [0, 1]")
            bad.need(abs(sum(norm) - 1.0) < 1e-9, f"{k}: normalized sums to {sum(norm)}")
            continue
        if not bad.need(all(_INT.match(r[2]) for r in rows), f"{k}: exact raw is not an integer"):
            continue
        raw = [int(r[2]) for r in rows]
        bad.need(all(r[4] == "" for r in rows), f"{k}: exact rows carry a stderr")
        if k == "banzhaf":
            want = banzhaf_counts(weights, quota)
            bad.need(raw == want, f"banzhaf raw {raw} != recount {want}")
            total = sum(raw)
            bad.need(abs(sum(norm) - 1.0) < 1e-9, f"banzhaf normalized sums to {sum(norm)}")
            bad.need(all(close(x, r / total) for x, r in zip(norm, raw)), "banzhaf normalization")
        else:
            if sum(weights) > quota:
                bad.need(sum(raw) == math.factorial(n), "shapley raw counts do not sum to n!")
            bad.need(all(close(x, r / math.factorial(n)) for x, r in zip(norm, raw)),
                     "shapley normalization")


def _check_jury(job, rep: Report, wd: Path, bad: _Problems) -> None:
    argv = job["argv"]
    skills = _floats(_opt(argv, "--skills"))
    n = len(skills)
    weights_text = _opt(argv, "--weights")
    weights = [1.0] * n if weights_text is None else _floats(weights_text)
    nd = 0.5 if _opt(argv, "--nd-policy", "incorrect") == "coin-flip" else 0.0
    bias = float(_opt(argv, "--bias", "0"))
    rows = {}
    for metric, player, value, stderr in rep.rows:
        rows.setdefault(metric, []).append((player, value, stderr))
    comp = rows.get("competence", [])
    if not bad.need(len(comp) == 1, "jury: one competence row"):
        return
    value = float(comp[0][1])
    bad.need(0.0 <= value <= 1.0, f"jury: competence {value} outside [0, 1]")
    opt = rows.get("optimal_weight", [])
    bad.need(len(opt) == n and all(close(float(v), log_odds(p)) for (_, v, _), p in zip(opt, skills)),
             "jury: optimal weights differ from the log-odds of the skills")
    if job["method"] == "monte-carlo":
        bad.need(rep.meta.get("trials") == str(job["trials"]), "jury: trials not echoed")
        bad.need(float(comp[0][2]) > 0, "jury: Monte Carlo stderr is not > 0")
        return
    dec = rows.get("decisiveness", [])
    bad.need([p for p, _, _ in dec] == [str(i) for i in range(n)], "jury: decisiveness rows")
    bad.need(all(-1.0 <= float(v) <= 1.0 for _, v, _ in dec), "jury: decisiveness out of range")
    if _opt(argv, "--teams"):
        ind = rows.get("indirect_competence", [])
        bad.need(len(ind) == 1 and 0.0 <= float(ind[0][1]) <= 1.0,
                 "jury: indirect competence missing or outside [0, 1]")
    if all(w == int(w) for w in weights) and bias == int(bias):
        ints = [int(w) for w in weights]
        dist, off = _signed_sum_dist(ints, skills)
        want = _credit(dist, off, 0, bias, nd)
        bad.need(close(value, want), f"jury: competence {value} != recount {want}")
        for i, (_, v, _) in enumerate(dec):
            d_i, o_i = _signed_sum_dist(ints[:i] + ints[i + 1 :], skills[:i] + skills[i + 1 :])
            want = _credit(d_i, o_i, ints[i], bias, nd) - _credit(d_i, o_i, -ints[i], bias, nd)
            bad.need(close(float(v), want), f"jury: decisiveness {i} {v} != recount {want}")


def _check_efficiency(job, rep: Report, wd: Path, bad: _Problems) -> None:
    argv = job["argv"]
    m, voters = job["m"], job["voters"]
    header = ("value", "exact", "profiles_with_winner", "stderr", "ci_low", "ci_high",
              "trials", "method")
    if not bad.need(rep.header == header and len(rep.rows) == 1, "efficiency: report shape"):
        return
    row = dict(zip(header, rep.rows[0]))
    value = float(row["value"])
    bad.need(0.0 <= value <= 1.0, f"efficiency: value {value} outside [0, 1]")
    bad.need(_INT.match(row["profiles_with_winner"]) is not None, "efficiency: count not integer")
    with_winner = int(row["profiles_with_winner"])
    bad.need(row["method"] == job["method"], "efficiency: method column")
    if job["method"] == "monte-carlo":
        bad.need(row["trials"] == str(job["trials"]) == rep.meta.get("trials"),
                 "efficiency: trials not echoed")
        bad.need(float(row["stderr"]) > 0, "efficiency: Monte Carlo stderr is not > 0")
        bad.need(float(row["ci_low"]) <= value <= float(row["ci_high"]), "efficiency: ci")
        bad.need(0 < with_winner <= job["trials"], "efficiency: profiles_with_winner > trials")
        return
    if not bad.need(_FRACTION.match(row["exact"]) is not None, "efficiency: exact not p/q"):
        return
    bad.need(close(float(Fraction(row["exact"])), value), "efficiency: value != exact")
    bad.need(0 < with_winner <= math.factorial(m) ** voters, "efficiency: too many profiles")
    scores = _scoring(_opt(argv, "--scoring"), m)
    want, want_count = efficiency_brute(m, voters, scores, _opt(argv, "--tie-policy", "fail"))
    bad.need(row["exact"] == want, f"efficiency: exact {row['exact']} != brute force {want}")
    bad.need(with_winner == want_count, "efficiency: profiles_with_winner != brute force")


def _check_wmr(job, rep: Report, wd: Path, bad: _Problems) -> None:
    n = job["n"]
    bad.need(rep.meta.get("count") == str(len(rep.rows)), "wmr: count comment != rows")
    if not bad.need(rep.header == ("weights", "table") and rep.rows, "wmr: report shape"):
        return
    w = np.array([[int(x) for x in r[0].split()] for r in rep.rows], dtype=np.int64)
    bound = int(rep.meta.get("max_weight", "0"))
    bad.need(w.shape[1] == n and (w <= bound).all() and (w >= 0).all(), "wmr: weight bounds")
    bad.need(bool((np.diff(w, axis=1) <= 0).all()), "wmr: weights not non-increasing")
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    sums = (2 * bits - 1) @ w.T
    bad.need(bool((sums != 0).all()), "wmr: a listed rule can tie")
    want = ["".join("A" if s > 0 else "B" for s in col) for col in sums.T]
    tables = [r[1] for r in rep.rows]
    bad.need(tables == want, "wmr: a table differs from its weights")
    bad.need(len(set(tables)) == len(tables), "wmr: duplicate tables")


@lru_cache(maxsize=64)
def _table(path: Path) -> PredictionTable:
    return PredictionTable(path)


@lru_cache(maxsize=16)
def _cost(path: Path):
    return read_cost(path)


def _decisions(rep: Report, pred: PredictionTable, bad: _Problems):
    ids, decisions = rep.column("sample_id"), rep.column("decision")
    bad.need(ids == pred.sample_ids, "fuse: sample ids differ from the input order")
    index = {lab: j for j, lab in enumerate(pred.labels)}
    bad.need(all(d in index or d == "ND" for d in decisions), "fuse: unknown decision label")
    return np.array([index.get(d, -1) for d in decisions])


def _check_fuse(job, rep: Report, wd: Path, bad: _Problems) -> None:
    argv = job["argv"]
    pred = _table(wd / job["predictions"])
    if not bad.need(rep.header == ("sample_id", "decision"), "fuse: header"):
        return
    if not bad.need(len(rep.rows) == len(pred.sample_ids), "fuse: one decision per sample"):
        return
    dec = _decisions(rep, pred, bad)
    lab = pred.truth >= 0
    hits = int(np.count_nonzero(dec[lab] == pred.truth[lab]))
    acc = rep.meta.get("fused_accuracy")
    bad.need(acc is not None and close(float(acc), hits / int(lab.sum())),
             f"fuse: fused_accuracy {acc} != recount {hits / int(lab.sum())}")
    undecided = int(np.count_nonzero(dec[lab] < 0))
    bad.need(rep.meta.get("undecided") == (str(undecided) if undecided else None),
             "fuse: undecided count")
    if job["rule"] == "majority":
        w = _opt(argv, "--weights")
        want = pred.majority(None if w is None else np.array([int(x) for x in w.split(",")]))
        bad.need(bool((dec == want).all()), "fuse: majority decisions differ from a recount")
    if _opt(argv, "--cost"):
        _, gains = _cost(wd / _opt(argv, "--cost"))
        got = rep.meta.get("expected_risk")
        bad.need(got is not None and close(float(got), risk(pred.truth, dec, gains)),
                 "fuse: expected_risk differs from a recount")


def _check_report(job, rep: Report, wd: Path, bad: _Problems) -> None:
    argv = job["argv"]
    pred = _table(wd / job["predictions"])
    source = _table(wd / job["validation"]) if job.get("validation") else pred
    cost = _cost(wd / job["cost"])[1] if job.get("cost") else None
    rows: dict[str, dict[str, str]] = {}
    for section, key, value in rep.rows:
        rows.setdefault(section, {})[key] = value
    accs = [source.accuracy(k) for k in range(len(source.names))]
    got = rows.get("classifier_accuracy", {})
    bad.need(list(got) == list(source.names), "report: classifier rows")
    bad.need(all(close(float(got.get(nm, "nan")), a) for nm, a in zip(source.names, accs)),
             "report: classifier_accuracy differs from a recount")
    opt = rows.get("optimal_weight", {})
    bad.need(all(close(float(opt.get(nm, "nan")), log_odds(a)) for nm, a in zip(source.names, accs)),
             "report: optimal_weight")
    rules = list(FIXED_RULES) + ["wmr"]
    if len(pred.labels) == 2 and pred.features and source.features:
        rules.append("adaptive-wmr")
    fused = rows.get("fused_accuracy", {})
    bad.need(list(fused) == rules, f"report: fused rules {list(fused)} != {rules}")
    bad.need(all(0.0 <= float(v) <= 1.0 for v in fused.values()), "report: accuracy range")
    majority = pred.majority()
    lab = pred.truth >= 0
    want = int(np.count_nonzero(majority[lab] == pred.truth[lab])) / int(lab.sum())
    bad.need(close(float(fused.get("majority", "nan")), want), "report: majority accuracy")
    if cost is not None:
        crisk = rows.get("classifier_risk", {})
        bad.need(all(close(float(crisk.get(nm, "nan")), risk(source.truth, source.votes[:, k], cost))
                     for k, nm in enumerate(source.names)), "report: classifier_risk")
        frisk = rows.get("fused_risk", {})
        bad.need(close(float(frisk.get("majority", "nan")), risk(pred.truth, majority, cost)),
                 "report: majority fused_risk")


_CHECKS = {"power": _check_power, "jury": _check_jury, "efficiency": _check_efficiency,
           "wmr": _check_wmr, "fuse": _check_fuse, "report": _check_report}


def check_job(job: dict, text: str, workdir: Path) -> list[str]:
    """Problems with one job's report text; an empty list means the report passed."""
    bad = _Problems()
    rep = Report(text)
    command = "wmr enum" if job["command"] == "wmr" else job["command"]
    bad.need(rep.meta.get("command") == command, f"command comment {rep.meta.get('command')!r}")
    try:
        _CHECKS[job["command"]](job, rep, Path(workdir), bad)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        bad.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return bad


# ---------------------------------------------------------------- references


def inputs_digest(workdir: Path, jobs: list[dict]) -> str:
    """Digest of the job list and every input file, to tie references to the generator."""
    h = hashlib.sha256()
    h.update(repr([(j["id"], j["argv"]) for j in jobs]).encode("utf-8"))
    for path in sorted((Path(workdir) / "inputs").iterdir()):
        h.update(path.name.encode("utf-8") + b"\x00" + path.read_bytes())
    return h.hexdigest()


def reference_entry(text: str) -> dict:
    exact, floats = digest_tokens(Report(text).tokens())
    return {"exact": exact, "floats": floats}


def compare_reference(text: str, ref: dict) -> list[str]:
    exact, floats = digest_tokens(Report(text).tokens())
    if exact != ref["exact"]:
        return ["reference: an exact token (integer, fraction, label or name) differs"]
    if len(floats) != len(ref["floats"]):
        return ["reference: the number of floats differs"]
    wrong = [i for i, (a, b) in enumerate(zip(floats, ref["floats"])) if not close(a, b)]
    if wrong:
        i = wrong[0]
        return [f"reference: {len(wrong)} floats differ, first #{i}: {floats[i]!r} != "
                f"{ref['floats'][i]!r}"]
    return []
