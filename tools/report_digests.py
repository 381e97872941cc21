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
which the tool only imports from.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
sys.path.insert(0, str(ROOT / "bench"))
import jobgen  # noqa: E402
from checks import Report, digest_tokens  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workloads, seeds):
    """One dict per job: id, exit code, digests of the report and stderr, exact tokens, floats."""
    from votefuse.cli import main

    home = os.getcwd()
    for workload in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                jobs = jobgen.generate(workload, seed, Path(tmp))
                os.chdir(tmp)
                try:
                    for job in jobs:
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = main(job["argv"])
                        # the report is the -o file the job names, or stdout without one
                        path = Path("out", f"{job['id']}.csv")
                        report = path.read_bytes() if path.exists() else out.getvalue().encode()
                        exact, floats = digest_tokens(Report(report.decode()).tokens())
                        yield {
                            "id": f"{workload}/{seed}/{job['id']}",
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
    p.add_argument("--workload", action="append", choices=jobgen.WORKLOADS,
                   help="a workload to run (repeatable; default: all)")
    p.add_argument("--seed", action="append", type=int,
                   help="a job-list seed (repeatable; default: 0 and 5)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, str(Path(args.src).resolve()))
    for line in digests(args.workload or jobgen.WORKLOADS, args.seed or [0, 5]):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
