"""``tools/report_digests.py --compare``, the byte check between two source trees."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


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
