"""``tools/report_digests.py``: the byte check between two source trees, and its edge jobs."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from votefuse.wmr import DEFAULT_MAX_WEIGHT

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
#: The tool's output for ``--seed 0``; a change that alters a report regenerates it.
DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests_seed0.jsonl"


def write(path: Path, lines) -> Path:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return path


def compare(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(a), str(b)],
        capture_output=True,
        text=True,
        check=False,
    )


def test_the_seed_0_reports_match_the_committed_digests(tmp_path):
    fresh = tmp_path / "digests.jsonl"
    with fresh.open("w", encoding="utf-8") as out:
        subprocess.run([sys.executable, str(TOOL), "--seed", "0"], stdout=out, check=True, cwd=tmp_path)
    result = compare(DIGESTS, fresh)
    assert result.returncode == 0, result.stdout + result.stderr


def test_compare_names_every_job_that_differs(tmp_path):
    jobs = [
        {"id": f"exact/0/job{i}", "exit": 0, "report": f"r{i}", "stderr": "e", "exact": f"x{i}",
         "floats": [0.5, 2.0]}
        for i in range(4)
    ]
    parent = write(tmp_path / "parent.jsonl", jobs)
    same = compare(parent, write(tmp_path / "same.jsonl", jobs[::-1]))
    assert (same.returncode, same.stdout) == (0, "")
    assert "0 of 4 jobs differ, 0 in floats only" in same.stderr
    changed = [jobs[0], {**jobs[1], "exit": 3}, {**jobs[2], "report": "x", "exact": "y"}]
    differ = compare(parent, write(tmp_path / "change.jsonl", changed))  # job3 is gone
    assert differ.returncode == 1
    assert differ.stdout == (
        "exact/0/job1\texit, stderr or exact tokens differ\n"
        "exact/0/job2\texit, stderr or exact tokens differ\n"
        "exact/0/job3\tmissing\n"
    )
    assert "3 of 4 jobs differ, 0 in floats only" in differ.stderr


def test_compare_says_when_only_floats_moved_and_by_how_much(tmp_path):
    job = {"id": "exact/5/j049", "exit": 0, "report": "r", "stderr": "e", "exact": "x",
           "floats": [0.25, 1.0, float("nan")]}
    parent = write(tmp_path / "parent.jsonl", [job])
    moved = {**job, "report": "s", "floats": [0.25, 1.0 + 2.0**-40, float("nan")]}
    differ = compare(parent, write(tmp_path / "change.jsonl", [moved]))
    assert differ.returncode == 1
    assert differ.stdout == "exact/5/j049\tfloats only, max relative difference 9.1e-13\n"
    assert "1 of 1 jobs differ, 1 in floats only" in differ.stderr
    assert compare(parent, parent).returncode == 0  # a NaN float is equal to itself here
    # equal tokens in other bytes, and a line without token digests
    respelled = compare(parent, write(tmp_path / "respelled.jsonl", [{**job, "report": "s"}]))
    assert respelled.stdout == "exact/5/j049\tsame tokens, other bytes\n"
    bare = {k: job[k] for k in ("id", "exit", "report", "stderr")}
    old = compare(write(tmp_path / "old.jsonl", [bare]), write(tmp_path / "b.jsonl", [moved]))
    assert old.stdout == "exact/5/j049\texit, stderr or exact tokens differ\n"


def test_each_line_splits_the_report_into_exact_tokens_and_floats(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "exact", "--seed", "0"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout.splitlines()
    lines = [json.loads(line) for line in out]
    jury = next(d for d in lines if d["floats"] and d["exit"] == 0)
    assert len(jury["exact"]) == 64 and all(isinstance(x, float) for x in jury["floats"])


def test_the_edge_jobs_cover_both_kernels_at_their_edges(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "edge"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout.splitlines()
    lines = {d["id"]: d for d in map(json.loads, out)}
    wmr = ["wmr-n-1", "wmr-n0", "wmr-n8"]
    for n, default in DEFAULT_MAX_WEIGHT.items():
        wmr += [f"wmr-n{n}"] + [f"wmr-n{n}-mw{b}" for b in range(1, default + 2)]
    games = ("dp", "fraction", "enumeration", "enumeration-20", "banzhaf-only", "refused")
    power = [f"power-{g}-{k}" for g in games for k in ("both", "banzhaf", "shapley")]
    efficiency = ["efficiency-m12-monte-carlo"]
    jury = [f"jury-{t}-{p}" for t in ("pooled", "one-team") for p in ("incorrect", "coin-flip")]
    usage = "jury-skills-no-break-space"
    faults = ["power-quota-out-of-range", "jury-team-repeats-a-player"]
    teams = ["jury-eight-teams-of-24"]
    budgets = ["power-shapley-losing-budget", "efficiency-zero-trials"]
    fusion = ["fuse-validation-reordered", "fuse-ragged-row", "fuse-nul"]
    csv_forms = ["fuse-csv-forms", "fuse-padded-votes"]
    votes = ["fuse-mixed-votes", "fuse-empty-vote", "fuse-bad-ranking"]
    overflow = ["fuse-weights-overflow"]
    ignored = ["fuse-weights-ignored"]
    tied = ["adaptive-wmr-tied-features", "adaptive-wmr-huge-features"]
    assert list(lines) == [
        f"edge/{i}"
        for i in wmr + power + efficiency + jury + [usage] + faults + teams + budgets + fusion
        + csv_forms + votes + overflow + ignored + tied
    ]
    refused = {"power-banzhaf-only-both", "power-banzhaf-only-shapley", "wmr-n8",
               "power-refused-both", "power-refused-banzhaf", "power-refused-shapley",
               *efficiency, *teams}
    for i, line in lines.items():
        job = i.removeprefix("edge/")
        want = 3 if job in ("wmr-n-1", "wmr-n0", *faults, *budgets, *fusion, *votes, *overflow) else (
            4 if job in refused else 2 if job == usage else 0
        )
        assert line["exit"] == want
    # a rule that ignores the weights says so in one line that names no path
    warning = b"warning: rule 'product' ignores classifier weights\n"
    assert lines["edge/fuse-weights-ignored"]["stderr"] == hashlib.sha256(warning).hexdigest()
    # under --kind both, a refusal is the refusal of the first kind refused
    for game, first in (("refused", "banzhaf"), ("banzhaf-only", "shapley")):
        stderr = lines[f"edge/power-{game}-{first}"]["stderr"]
        assert lines[f"edge/power-{game}-both"]["stderr"] == stderr
