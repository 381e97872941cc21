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
        {"id": f"exact/0/job{i}", "exit": 0, "report": f"r{i}", "stderr": "e"} for i in range(4)
    ]
    parent = write(tmp_path / "parent.jsonl", jobs)
    same = compare(parent, write(tmp_path / "same.jsonl", jobs[::-1]))
    assert (same.returncode, same.stdout) == (0, "")
    assert "0 of 4 jobs differ" in same.stderr
    changed = [jobs[0], {**jobs[1], "exit": 3}, {**jobs[2], "report": "x"}]  # job3 is gone
    differ = compare(parent, write(tmp_path / "change.jsonl", changed))
    assert differ.returncode == 1
    assert differ.stdout == "exact/0/job1\nexact/0/job2\nexact/0/job3\n"
    assert "3 of 4 jobs differ" in differ.stderr
