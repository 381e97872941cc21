"""SHA-256 digests of every CLI report of the benchmark's job lists.

Runs each job of ``bench/jobgen.generate(workload, seed, dir)`` in-process
through ``votefuse.cli.main``, in a temporary directory, and writes one JSON
line per job: its id (``workload/seed/job``), its exit code, the SHA-256
digests of its report and of its stderr, and the report split as the
benchmark's reference check splits it (``bench/checks.py``): the digest of
its exact tokens and the list of its floats. ``--compare A B`` lists the ids
whose lines differ between two such files, each with whether only floats
moved and by how much at most (relative), and exits 1 if any differ.
Run from the root of a source checkout::

    python tools/report_digests.py --src ../parent/src > parent.jsonl
    python tools/report_digests.py > change.jsonl
    python tools/report_digests.py --compare parent.jsonl change.jsonl

``--src`` (default: this checkout's ``src``) is the tree ``votefuse`` is
imported from; the job lists always come from this checkout's ``bench/``,
which the tool only imports from, and ``tools/``.

The pseudo-workload ``edge`` (run by default, once, whatever the seeds) is a
fixed list of jobs the benchmark never runs, ids ``edge/<job>``: ``wmr enum``
for n = -1, 0 and 8, and for n = 1..7 at the default bound and at every
``--max-weight`` from 1 to one past it; ``power --kind both|banzhaf|shapley``
on a game of each exact route (counting DP, fraction weights, enumeration of
12 and of 20 players), one that only Banzhaf answers and one refused by both;
``efficiency -m 12 --method monte-carlo``, refused before its ranking table
is built; exact ``efficiency -m 4 --voters 4`` under both tie policies, whose
17,550 ranking-count multisets take more than one block of sorted rows;
``jury`` under both tie policies on a team file priced as one table
over its shared players (three teams of players 0-11 and one of 10-12) and on
a one-team file, whose top level enumerates the team's votes; ``jury
--skills`` with no-break spaces, which separate no skills; and a game whose
quota is out of range and a team file that repeats a player, each refused
with exit code 3 at its token's line and column; and ``jury --teams`` on
eight teams of players 0-23, whose price, over the work cap, exits 4. Two
trial budgets are refused with exit code 3 before any work: 10^20 trials of
Shapley-Shubik Monte Carlo on a game that nothing wins, and 0 trials of
``efficiency -m 9``. ``fuse --rule wmr`` with a validation file that names
the query file's two classifiers in the other order exits 3. ``fuse --rule
sum`` reads prediction files in the CSV reader's other forms: a short row,
refused with exit code 3 at its line; a row that holds a NUL, refused with
exit code 3 on every Python; and comment, blank and all-blank lines and a
quoted label that holds a comma, with a cost file that has a comment line
and the same label (exit 0). It reads vote cells too: labels and rankings
padded with blanks (exit 0), and, each refused with exit code 3 at its cell,
a column that holds both a label and a ranking, a blank vote and the ranking
``a>a``. ``fuse --rule sum --weights 1e308,1e308,1e308`` on three
classifiers' probabilities, whose weight sum is past the float range, exits
3; ``fuse --rule product --weights 1,1,1`` on the same file exits 0 with one
``warning:`` line, as product ignores the weights.
``fuse --rule adaptive-wmr`` on samples whose two integer features stand on
six points, seven samples to a point, picks every neighbour from ties; ``fuse
--rule adaptive-wmr --k 3`` on 30 validation and 12 query samples whose two
features are drawn from {+-1e308, +-5e307, 0, 1}, whose spread overflows,
takes every index as a candidate and exits 0 with three ``warning:`` lines.

Each job runs with every warning shown (``simplefilter("always")``), so its
stderr does not depend on the jobs run before it: Python otherwise shows a
warning once per code location.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
sys.path.insert(0, str(ROOT / "bench"))
import jobgen  # noqa: E402
from checks import Report, digest_tokens  # noqa: E402


EDGE = "edge"

#: Each voter count's default bound in the rule scan, DEFAULT_MAX_WEIGHT.
SCAN_BOUNDS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9}


def _weights(ws) -> str:
    return "weights = " + " ".join(map(str, ws)) + "\n"


#: The games of the edge jobs, by name; the quota is half the total weight
#: where none is given.
EDGE_GAMES = {
    "dp": _weights([9, 7, 5, 5, 3, 2, 2, 1, 1, 0]) + "quota = 17\n",
    "fraction": _weights(f"1/{d}" for d in (2, 3, 4, 6, 12) * 2 + (3, 4)) + "quota = 5/2\n",
    # 12 weights near 10^6: 2^12 coalitions cost less than a DP up to the quota
    "enumeration": _weights(10**6 + 7919 * i for i in range(12)),
    "enumeration-20": _weights(10**9 + 7919 * i for i in range(20)),
    # 25 players and a quota near 10^6: the Banzhaf DP fits under the work
    # cap, the Shapley-Shubik DP and the 2^25 enumeration do not
    "banzhaf-only": _weights(80_000 + 37 * i for i in range(25)),
    "refused": _weights(10**9 + i for i in range(30)),
}


#: The team files of the edge jobs, by name, over 13 players.
EDGE_TEAMS = {
    "pooled": ("team = " + " ".join(map(str, range(12))) + "\n") * 3 + "team = 10 11 12\n",
    "one-team": "team = " + " ".join(map(str, range(13))) + "\n",
}


#: Files with a value out of range, by job id: the file and the argv that reads it.
EDGE_FAULTS = {
    "power-quota-out-of-range": ("weights = 1 2\nquota = 4\n", ["power", "--game"]),
    "jury-team-repeats-a-player": (
        "team = 0 1\nteam = 2 2\n",
        ["jury", "--skills", "0.6,0.7,0.8", "--teams"],
    ),
}


#: Prediction files of the ``fuse`` edge jobs, by job id: the file, and its cost file or None.
EDGE_CSV = {
    "fuse-ragged-row": ("sample_id,true_label,c1\ns1,a,a\ns2,b\ns3,a,b\n", None),
    "fuse-nul": ("sample_id,true_label,c1\ns1,a,b\ns2,b,a\0\n", None),
    "fuse-csv-forms": (
        '# by hand\nsample_id,true_label,c1,c2,c3\n\ns1,"y,1","y,1","y,1",n\n \t\ns2,n,n,n,"y,1"\n',
        '# gains\n,n,"y,1"\nn,1.0,0.0\n"y,1",-1.0,2.0\n',
    ),
    "fuse-padded-votes": (
        "sample_id,true_label,c1,c2,c3\ns1, a , a , a > b ,b>a\n"
        "s2,b,b ,  b>  a,b >a\ns3, a,  a, a>b,  a > b  \n",
        None,
    ),
    "fuse-mixed-votes": ("sample_id,true_label,c1\ns1,a,a\ns2,b,a>b\n", None),
    "fuse-empty-vote": ("sample_id,true_label,c1\ns1,a,a\ns2,b, \n", None),
    "fuse-bad-ranking": ("sample_id,true_label,c1\ns1,a,a>b\ns2,b,a>a\n", None),
}


def _feature_file(prefix: str, rows: int, features) -> str:
    """A prediction file of labelled samples, three hard votes each, and two features.

    Sample i is ``{prefix}{i}``, and ``features(i)`` gives its two features.
    """
    lines = ["sample_id,true_label,c1,c2,c3,feat_0,feat_1"]
    for i in range(rows):
        truth = "yn"[i // 2 % 2]
        votes = [truth if (i + j) % (3 + j) else "yn"[(i + 1) % 2] for j in range(3)]
        lines.append(f"{prefix}{i},{truth},{','.join(votes)},{','.join(features(i))}")
    return "\n".join(lines) + "\n"


#: The values of the features whose spread overflows: every distance is inf or NaN.
HUGE = ("1e308", "-1e308", "5e307", "-5e307", "0", "1")


def edge_jobs(root: Path) -> list[dict]:
    """The edge jobs, each an id and an argv; the games they read are written into ``root``."""
    jobs = [{"id": f"wmr-n{n}", "argv": ["wmr", "enum", "--n", str(n)]} for n in (-1, 0, 8)]
    for n, default in SCAN_BOUNDS.items():
        argv = ["wmr", "enum", "--n", str(n)]
        jobs.append({"id": f"wmr-n{n}", "argv": argv})
        for bound in range(1, default + 2):
            jobs.append({"id": f"wmr-n{n}-mw{bound}", "argv": argv + ["--max-weight", str(bound)]})
    for name, text in EDGE_GAMES.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
        for kind in ("both", "banzhaf", "shapley"):
            argv = ["power", "--game", f"{name}.txt", "--kind", kind]
            jobs.append({"id": f"power-{name}-{kind}", "argv": argv})
    argv = ["efficiency", "-m", "12", "--voters", "5", "--scoring", "borda", "--method", "monte-carlo"]
    jobs.append({"id": "efficiency-m12-monte-carlo", "argv": argv})
    for policy in ("fail", "split-credit"):
        argv = ["efficiency", "-m", "4", "--voters", "4", "--scoring", "borda", "--tie-policy", policy]
        jobs.append({"id": f"efficiency-m4-v4-{policy}", "argv": argv})
    skills = ",".join(f"0.{55 + 3 * i}" for i in range(13))
    for name, text in EDGE_TEAMS.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
        for policy in ("incorrect", "coin-flip"):
            argv = ["jury", "--skills", skills, "--teams", f"{name}.txt", "--nd-policy", policy]
            jobs.append({"id": f"jury-{name}-{policy}", "argv": argv})
    argv = ["jury", "--skills", "0.6\u00a00.7\u00a00.8"]
    jobs.append({"id": "jury-skills-no-break-space", "argv": argv})
    for name, (text, argv) in EDGE_FAULTS.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
        jobs.append({"id": name, "argv": argv + [f"{name}.txt"]})
    team = "team = " + " ".join(map(str, range(24))) + "\n"
    (root / "eight-teams.txt").write_text(team * 8, encoding="utf-8")
    argv = ["jury", "--skills", ",".join(["0.6"] * 24), "--teams", "eight-teams.txt"]
    jobs.append({"id": "jury-eight-teams-of-24", "argv": argv})
    (root / "losing.txt").write_text("weights = 1 2\nquota = 3\n", encoding="utf-8")
    argv = ["power", "--game", "losing.txt", "--kind", "shapley", "--method", "monte-carlo"]
    jobs.append({"id": "power-shapley-losing-budget", "argv": argv + ["--trials", str(10**20)]})
    argv = ["efficiency", "-m", "9", "--voters", "3", "--scoring", "borda", "--method",
            "monte-carlo", "--trials", "0"]
    jobs.append({"id": "efficiency-zero-trials", "argv": argv})
    (root / "query.csv").write_text("sample_id,true_label,c1,c2\ns1,y,y,y\ns2,n,n,y\n",
                                    encoding="utf-8")
    (root / "reordered.csv").write_text("sample_id,true_label,c2,c1\nv1,y,y,n\nv2,n,n,n\n",
                                        encoding="utf-8")
    argv = ["fuse", "--predictions", "query.csv", "--validation", "reordered.csv", "--rule", "wmr"]
    jobs.append({"id": "fuse-validation-reordered", "argv": argv})
    for name, (text, cost) in EDGE_CSV.items():
        (root / f"{name}.csv").write_text(text, encoding="utf-8")
        argv = ["fuse", "--predictions", f"{name}.csv", "--rule", "sum"]
        if cost:
            (root / f"{name}-cost.csv").write_text(cost, encoding="utf-8")
            argv += ["--cost", f"{name}-cost.csv"]
        jobs.append({"id": name, "argv": argv})
    (root / "three-probas.csv").write_text(
        "sample_id,true_label,c1:a,c1:b,c2:a,c2:b,c3:a,c3:b\n"
        "s1,a,0.45,0.55,0.4,0.6,0.45,0.55\ns2,b,0.1,0.9,0.45,0.55,0.3,0.7\n",
        encoding="utf-8",
    )
    argv = ["fuse", "--predictions", "three-probas.csv", "--rule", "sum", "--weights", "1e308,1e308,1e308"]
    jobs.append({"id": "fuse-weights-overflow", "argv": argv})
    argv = ["fuse", "--predictions", "three-probas.csv", "--rule", "product", "--weights", "1,1,1"]
    jobs.append({"id": "fuse-weights-ignored", "argv": argv})
    # 42 samples on 6 points, 7 to a point: the neighbours at k = 5 come from ties
    tied = _feature_file("s", 42, lambda i: (str(i % 3), str(i // 3 % 2)))
    (root / "tied-features.csv").write_text(tied, encoding="utf-8")
    argv = ["fuse", "--predictions", "tied-features.csv", "--rule", "adaptive-wmr"]
    jobs.append({"id": "adaptive-wmr-tied-features", "argv": argv})
    huge = _feature_file("v", 30, lambda i: (HUGE[i % 3], HUGE[(i + 1) % 3]))
    (root / "huge-validation.csv").write_text(huge, encoding="utf-8")
    huge = _feature_file("q", 12, lambda i: (HUGE[(i + 1) % 6], HUGE[(5 * i) % 6]))
    (root / "huge-query.csv").write_text(huge, encoding="utf-8")
    argv = ["fuse", "--predictions", "huge-query.csv", "--validation", "huge-validation.csv",
            "--rule", "adaptive-wmr", "--k", "3"]
    jobs.append({"id": "adaptive-wmr-huge-features", "argv": argv})
    return jobs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workloads, seeds):
    """One dict per job: id, exit code, digests of the report and stderr, exact tokens, floats."""
    from votefuse.cli import main

    home = os.getcwd()
    for workload in workloads:
        for seed in [None] if workload == EDGE else seeds:
            with tempfile.TemporaryDirectory() as tmp:
                if workload == EDGE:
                    jobs, prefix = edge_jobs(Path(tmp)), EDGE
                else:
                    jobs, prefix = jobgen.generate(workload, seed, Path(tmp)), f"{workload}/{seed}"
                os.chdir(tmp)
                try:
                    for job in jobs:
                        out, err = io.StringIO(), io.StringIO()
                        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            warnings.simplefilter("always")
                            code = main(job["argv"])
                        # the report is the -o file the job names, or stdout without one
                        path = Path("out", f"{job['id']}.csv")
                        report = path.read_bytes() if path.exists() else out.getvalue().encode()
                        exact, floats = digest_tokens(Report(report.decode()).tokens())
                        yield {
                            "id": f"{prefix}/{job['id']}",
                            "exit": code,
                            "report": _sha256(report),
                            "stderr": _sha256(err.getvalue().encode()),
                            "exact": exact,
                            "floats": floats,
                        }
                finally:
                    os.chdir(home)


def _load(path: str) -> dict:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {d["id"]: d for d in map(json.loads, lines)}


def _run(line):
    """A line's exit code and digests: its tokens follow from the report digest.

    Jobs are compared on these, not on the float lists, because NaN != NaN.
    """
    return line and (line["exit"], line["report"], line["stderr"])


def _relative(x: float, y: float) -> float:
    if x == y or math.isnan(x) and math.isnan(y):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _how(a, b) -> str:
    """How one job's lines differ: in floats only, by their largest relative change, or not."""
    if a is None or b is None:
        return "missing"
    # the exact digest holds a placeholder for each float, so equal digests
    # mean the floats stand at the same places
    if "exact" not in a or any(a.get(k) != b.get(k) for k in ("exit", "stderr", "exact")):
        return "exit, stderr or exact tokens differ"
    worst = max(map(_relative, a["floats"], b["floats"]), default=0.0)
    if worst == 0.0:
        return "same tokens, other bytes"
    return f"floats only, max relative difference {worst:.2g}"


def compare(a: str, b: str) -> int:
    """Print the ids whose lines differ between two digest files, and how; 1 if any do."""
    left, right = _load(a), _load(b)
    ids = left.keys() | right.keys()
    differ = sorted(i for i in ids if _run(left.get(i)) != _run(right.get(i)))
    hows = [_how(left.get(i), right.get(i)) for i in differ]
    for i, how in zip(differ, hows):
        print(f"{i}\t{how}")
    floats = sum(how.startswith("floats only") for how in hows)
    print(f"{len(differ)} of {len(ids)} jobs differ, {floats} in floats only", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="import votefuse from this tree")
    p.add_argument("--workload", action="append", choices=(*jobgen.WORKLOADS, EDGE),
                   help="a workload to run (repeatable; default: all, and the edge jobs)")
    p.add_argument("--seed", action="append", type=int,
                   help="a job-list seed (repeatable; default: 0 and 5)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, str(Path(args.src).resolve()))
    for line in digests(args.workload or (*jobgen.WORKLOADS, EDGE), args.seed or [0, 5]):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
