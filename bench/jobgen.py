"""Seeded inputs and job lists for the three benchmark workloads.

``generate(workload, seed, root)`` writes every input file under
``root/inputs`` and returns the job list: one dict per ``votefuse`` CLI call,
holding an ``id``, the ``argv`` (paths relative to ``root``) and the facts
the output checks need. The same seed gives byte-identical files and argv
lists. Only values are drawn from the seed; the job grid (which commands, at
which sizes, how many of each) is fixed per workload, so every seed asks for
the same amount of work and run-to-run spread measures the program, not the
draw.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("exact", "sampling", "fusion")

#: Weight ranges for game files. The three ranges vary the total integer
#: weight W that a counting DP over weights would have to cover.
WEIGHT_KINDS = ("int49", "int999", "frac")
FRACTION_DENOMINATORS = (2, 3, 4, 5, 6)


def _game_text(rng: random.Random, n: int, kind: str, supermajority: bool = True) -> str:
    if kind == "int49":
        weights = [Fraction(rng.randint(1, 49)) for _ in range(n)]
    elif kind == "int999":
        weights = [Fraction(rng.randint(1, 999)) for _ in range(n)]
    else:
        weights = []
        for _ in range(n):
            den = rng.choice(FRACTION_DENOMINATORS)
            weights.append(Fraction(rng.randint(1, 9 * den), den))
    lines = ["weights = " + " ".join(map(str, weights))]
    if supermajority and rng.random() < 0.5:
        # below the total weight, so the grand coalition still wins
        share = rng.choice((Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)))
        lines.append(f"quota = {sum(weights) * share}")
    return "\n".join(lines) + "\n"


def _skills(rng: random.Random, n: int, lo: float, hi: float) -> list[str]:
    return [f"{rng.uniform(lo, hi):.4f}" for _ in range(n)]


def _log_odds(skills: list[str]) -> list[str]:
    return [f"{math.log(float(p) / (1.0 - float(p))):.6f}" for p in skills]


def _teams_text(rng: random.Random, n: int) -> str:
    pool = list(range(min(n, 18)))
    lines = []
    for _ in range(rng.randint(4, 6)):
        members = sorted(rng.sample(pool, rng.randint(3, 7)))
        lines.append("team = " + " ".join(map(str, members)))
    return "\n".join(lines) + "\n"


class _Jobs:
    """Collects jobs and input files for one workload."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.jobs: list[dict] = []
        (root / "inputs").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        rel = f"inputs/{name}"
        (self.root / rel).write_text(text, encoding="utf-8")
        return rel

    def add(self, command: str, argv: list[str], **facts) -> None:
        self.jobs.append({"command": command, "argv": argv, **facts})

    def finish(self) -> list[dict]:
        # grid order, the same for every seed: the heap history before each job,
        # and with it the worker's peak RSS, then does not depend on the seed
        for i, job in enumerate(self.jobs):
            job["id"] = f"j{i:03d}"
            job["argv"] = job["argv"] + ["-o", f"out/{job['id']}.csv"]
        return self.jobs


# ---------------------------------------------------------------- exact


def _exact(b: _Jobs) -> None:
    rng = b.rng
    # (count, n, --kind), cycling over the weight kinds. Job costs fall into
    # clusters, and the counts place both percentiles well inside one, not in
    # a gap between two: 35 jobs (jury n=16-17, power n=18) cost less than the
    # 30 jobs (jury n=18, power n=19-20) that hold the median; 26 jobs (power
    # n=20 both kinds, power n=21, efficiency with 3 voters) hold p90, with 4
    # jobs (wmr enum, power n=22) above them.
    power_grid = [(11, 18, "both"), (10, 19, "both"), (10, 20, "banzhaf"), (8, 20, "both"),
                  (8, 21, "banzhaf"), (1, 22, "banzhaf")]
    for count, n, kind in power_grid:
        for r in range(count):
            wkind = WEIGHT_KINDS[r % len(WEIGHT_KINDS)]
            path = b.write(f"game{len(b.jobs):03d}.txt", _game_text(rng, n, wkind))
            b.add("power", ["power", "--game", path, "--kind", kind], n=n, method="exact")
    # jury: (count, n); each cell cycles weights x nd-policy x teams
    for count, n in ((12, 16), (12, 17), (10, 18), (5, 19)):
        for r in range(count):
            weights = ("int", "logodds")[r % 2]
            nd = ("incorrect", "coin-flip")[r // 2 % 2]
            teams = r // 4 % 2 == 1
            skills = _skills(rng, n, 0.45, 0.8)
            argv = ["jury", "--method", "exact", "--skills", ",".join(skills),
                    "--nd-policy", nd]
            if weights == "int":
                argv += ["--weights", ",".join(str(rng.randint(1, 9)) for _ in range(n))]
            else:
                # '=' keeps a leading minus sign from reading as an option
                argv += ["--weights=" + ",".join(_log_odds(skills))]
            if teams:
                argv += ["--teams", b.write(f"teams{len(b.jobs):03d}.txt", _teams_text(rng, n))]
            b.add("jury", argv, n=n, method="exact")
    # efficiency: m=4 with 3 voters only; m=3 finishes in under 0.05 s even at its exact
    # cap of 8 voters, and 4 voters take 0.5 s, a sixth of a pass
    for r in range(10):
        scoring = ("borda", "plurality", "custom")[r % 3]
        if scoring == "custom":
            top = rng.randint(3, 9)
            mid = sorted((rng.randint(0, top) for _ in range(2)), reverse=True)
            scoring = f"{top},{mid[0]},{mid[1]},0"
        tie = ("fail", "split-credit")[r // 3 % 2]
        b.add("efficiency", ["efficiency", "--method", "exact", "-m", "4", "--voters", "3",
                             "--scoring", scoring, "--tie-policy", tie],
              m=4, voters=3, method="exact")
    # wmr enum: n=6 finishes in about 0.01 s, so only n=7 is in the mix
    for _ in range(3):
        b.add("wmr", ["wmr", "enum", "--n", "7"], n=7)


# ---------------------------------------------------------------- sampling

def _sampling(b: _Jobs) -> None:
    rng = b.rng
    # Trial budgets are 1 to 4 chunks of 2^16, and 100000 ends in a partial chunk.
    # Most are one or two chunks, so that a pass of 100 jobs fits three times
    # into a run. The counts place the median inside the cluster of 24
    # jobs of about equal cost (jury n=25 at 131072 trials, n=51 at 65536), with
    # 36 cheaper jobs below it and 40 dearer ones above.
    # power: (count, n, kind, trials)
    for count, n, kind, trials in ((3, 25, "both", 65536), (2, 25, "both", 100000),
                                   (3, 40, "banzhaf", 65536), (1, 40, "banzhaf", 100000),
                                   (1, 40, "banzhaf", 131072), (3, 40, "shapley", 65536),
                                   (1, 40, "shapley", 100000), (2, 60, "banzhaf", 65536),
                                   (2, 60, "shapley", 65536)):
        for r in range(count):
            path = b.write(f"game{len(b.jobs):03d}.txt", _game_text(rng, n, "int49", False))
            b.add("power", ["power", "--game", path, "--kind", kind, "--method", "monte-carlo",
                            "--trials", str(trials), "--seed", str(rng.randint(0, 10**6))],
                  n=n, method="monte-carlo", trials=trials)
    # jury: (count, n, trials)
    for count, n, trials in ((24, 25, 65536), (12, 25, 100000), (12, 25, 131072),
                             (4, 25, 262144), (12, 51, 65536), (3, 51, 100000),
                             (3, 101, 65536), (3, 101, 100000)):
        for r in range(count):
            skills = _skills(rng, n, 0.4, 0.62)
            argv = ["jury", "--method", "monte-carlo", "--skills", ",".join(skills),
                    "--trials", str(trials), "--seed", str(rng.randint(0, 10**6)),
                    "--nd-policy", ("incorrect", "coin-flip")[r % 2]]
            if r % 3 == 0:
                argv += ["--weights", ",".join(str(rng.randint(1, 5)) for _ in range(n))]
            b.add("jury", argv, n=n, method="monte-carlo", trials=trials)
    # efficiency: (count, m, voters); the (chunk, voters, m, m) temporaries of
    # m=5 with 41 voters take about 0.5 GB, which bounds the worker's peak RSS
    for count, m, voters in ((5, 3, 11), (1, 3, 51), (1, 4, 25), (1, 5, 11), (1, 5, 41)):
        for r in range(count):
            b.add("efficiency", ["efficiency", "--method", "monte-carlo", "-m", str(m),
                                 "--voters", str(voters), "--scoring", ("borda", "plurality")[r % 2],
                                 "--tie-policy", ("fail", "split-credit")[r // 2 % 2],
                                 "--trials", "65536", "--seed", str(rng.randint(0, 10**6))],
                  m=m, voters=voters, method="monte-carlo", trials=65536)


# ---------------------------------------------------------------- fusion


def _labels(count: int) -> list[str]:
    return [f"c{i}" for i in range(count)]


def _proba_rows(b: _Jobs, votes: np.ndarray, n_labels: int) -> np.ndarray:
    """Probability rows whose unique argmax is ``votes``; each row sums to 1 up to rounding."""
    g = b.np_rng
    raw = g.integers(0, 40, size=(votes.size, n_labels))
    raw[np.arange(votes.size), votes] = 41 + g.integers(0, 60, size=votes.size)
    return raw / raw.sum(axis=1, keepdims=True)


def _prediction_csv(b: _Jobs, rows: int, labels: list[str], kinds: list[str],
                    n_features: int, truth_gaps: float) -> str:
    g = b.np_rng
    m = len(labels)
    truth = g.integers(0, m, size=rows)
    feats = g.normal(size=(rows, n_features)) if n_features else None
    columns: list[list[str]] = []
    header = ["sample_id", "true_label"] + [f"feat_{j}" for j in range(n_features)]
    for k, kind in enumerate(kinds):
        # right with probability skill, else a uniformly drawn wrong label; with
        # features, skill depends on the region, so local accuracy matters
        skill = float(g.uniform(0.55, 0.85))
        if feats is not None:
            skill = np.where(feats[:, k % n_features] > 0, skill, 1.2 - skill)
        right = g.random(rows) < skill
        wrong = (truth + g.integers(1, m, size=rows)) % m
        votes = np.where(right, truth, wrong)
        name = f"clf{k}"
        if kind == "hard":
            header.append(name)
            columns.append([labels[v] for v in votes])
        elif kind == "rank":
            header.append(name)
            ranks = []
            for v in votes:
                rest = [labels[i] for i in g.permutation(m) if i != v]
                ranks.append(">".join([labels[v]] + rest))
            columns.append(ranks)
        else:
            header += [f"{name}:{lab}" for lab in labels]
            probs = _proba_rows(b, votes, m)
            for j in range(m):
                columns.append([repr(float(x)) for x in probs[:, j]])
    gaps = g.random(rows) < truth_gaps
    lines = [",".join(header)]
    for i in range(rows):
        cells = [f"s{i:05d}", "" if gaps[i] else labels[truth[i]]]
        if feats is not None:
            cells += [f"{x:.5f}" for x in feats[i]]
        cells += [col[i] for col in columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cost_csv(b: _Jobs, labels: list[str]) -> str:
    g = b.np_rng
    lines = ["," + ",".join(labels)]
    for t, lab in enumerate(labels):
        row = [repr(float(x)) for x in np.round(-g.uniform(0.0, 5.0, size=len(labels)), 2)]
        row[t] = repr(float(round(g.uniform(1.0, 3.0), 2)))
        lines.append(lab + "," + ",".join(row))
    return "\n".join(lines) + "\n"


OTHER_RULES = ("product", "min", "max", "median", "trimmed-mean")


def _fusion(b: _Jobs) -> None:
    rng = b.rng
    kinds_cycle = ("hard", "rank", "proba")
    # multiclass sets: (labels, rows, classifiers); fixed rules, wmr and one report each.
    # Rows are sized so that parsing, and so each fixed-rule job, costs about the same
    # on every set: those 42 jobs form the cluster that holds the median job time.
    for s, (n_labels, rows, k) in enumerate(((3, 1700, 5), (3, 1800, 6), (4, 1050, 7),
                                             (4, 900, 8), (5, 700, 9), (5, 1700, 5))):
        labels = _labels(n_labels)
        kinds = [kinds_cycle[(j + s) % 3] for j in range(k)]
        pred = b.write(f"multi{s}.csv", _prediction_csv(b, rows, labels, kinds, 0, 0.02))
        cost = b.write(f"multi{s}_cost.csv", _cost_csv(b, labels))
        facts = dict(predictions=pred, labels=labels)
        weights = ",".join(str(rng.randint(1, 4)) for _ in range(k))
        b.add("fuse", ["fuse", "--predictions", pred, "--rule", "majority"],
              rule="majority", **facts)
        b.add("fuse", ["fuse", "--predictions", pred, "--rule", "majority", "--weights", weights,
                       "--cost", cost], rule="majority", weights=weights, cost=cost, **facts)
        b.add("fuse", ["fuse", "--predictions", pred, "--rule", "sum", "--weights", weights],
              rule="sum", **facts)
        for rule in ["sum"] + [OTHER_RULES[(s + i) % len(OTHER_RULES)] for i in range(3)]:
            b.add("fuse", ["fuse", "--predictions", pred, "--rule", rule], rule=rule, **facts)
        wmr_cost = ["--cost", cost] if s % 2 else []
        b.add("fuse", ["fuse", "--predictions", pred, "--rule", "wmr", *wmr_cost], rule="wmr",
              cost=cost if wmr_cost else None, **facts)
        b.add("report", ["report", "--predictions", pred, "--cost", cost], cost=cost, **facts)
    # binary sets with features: (validation rows, query rows, classifiers, features)
    for s, (n_val, n_query, k, d) in enumerate(((560, 110, 5, 4), (800, 145, 5, 6),
                                                (1120, 110, 6, 8), (680, 170, 7, 5),
                                                (560, 225, 5, 4), (800, 110, 6, 5))):
        labels = ["no", "yes"]
        kinds = [("hard", "proba")[(j + s) % 2] for j in range(k)]
        val = b.write(f"bin{s}_val.csv", _prediction_csv(b, n_val, labels, kinds, d, 0.0))
        pred = b.write(f"bin{s}_query.csv", _prediction_csv(b, n_query, labels, kinds, d, 0.0))
        cost = b.write(f"bin{s}_cost.csv", _cost_csv(b, labels))
        facts = dict(predictions=pred, validation=val, labels=labels)
        common = ["--predictions", pred, "--validation", val]
        for rule in ("majority", "sum", "median"):
            b.add("fuse", ["fuse", *common, "--rule", rule], rule=rule, **facts)
        b.add("fuse", ["fuse", *common, "--rule", "wmr"], rule="wmr", **facts)
        for kn in (3, 5, 9):
            b.add("fuse", ["fuse", *common, "--rule", "adaptive-wmr", "--k", str(kn)],
                  rule="adaptive-wmr", **facts)
        b.add("fuse", ["fuse", *common, "--rule", "adaptive-wmr", "--cost", cost],
              rule="adaptive-wmr", cost=cost, **facts)
        b.add("report", ["report", *common, "--cost", cost], cost=cost, **facts)


_BUILDERS = {"exact": _exact, "sampling": _sampling, "fusion": _fusion}


def generate(workload: str, seed: int, root: Path) -> list[dict]:
    """Write the workload's inputs under ``root/inputs`` and return its job list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    b = _Jobs(Path(root), seed)
    _BUILDERS[workload](b)
    jobs = b.finish()
    (Path(root) / "jobs.json").write_text(json.dumps(jobs, indent=1) + "\n", encoding="utf-8")
    return jobs
