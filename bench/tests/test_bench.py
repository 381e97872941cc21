"""Tests of the benchmark itself: generator, checks, span arithmetic, traced runs.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import jobgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from votefuse import cli  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = jobgen.generate(workload, 7, tmp_path / "a")
    second = jobgen.generate(workload, 7, tmp_path / "b")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    other = jobgen.generate(workload, 8, tmp_path / "c")
    assert [j["argv"] for j in other] != [j["argv"] for j in first]
    assert len(first) >= 100, "a pass needs 100 jobs for ten samples beyond p90"


def _small_jobs(root: Path) -> list[dict]:
    """A few quick jobs of every command, with the inputs the checks read."""
    fusion = jobgen.generate("fusion", 3, root)
    picked = {}
    for job in fusion:
        if "bin0" in job["predictions"] or "multi4" in job["predictions"]:
            key = (job["command"], job.get("rule"), job["predictions"])
            picked.setdefault(key, job)
    jobs = list(picked.values())
    (root / "inputs" / "g.txt").write_text("weights = 3 2 2 3/2 1\nquota = 9/2\n")
    jobs += [
        {"command": "power", "method": "exact", "n": 5,
         "argv": ["power", "--game", "inputs/g.txt", "--kind", "both"]},
        {"command": "power", "method": "monte-carlo", "n": 5, "trials": 5000,
         "argv": ["power", "--game", "inputs/g.txt", "--method", "monte-carlo",
                  "--trials", "5000", "--seed", "4"]},
        {"command": "jury", "method": "exact", "n": 5,
         "argv": ["jury", "--skills", "0.6,0.7,0.55,0.8,0.65", "--weights", "1,2,1,3,1",
                  "--nd-policy", "coin-flip"]},
        {"command": "efficiency", "method": "exact", "m": 4, "voters": 2,
         "argv": ["efficiency", "-m", "4", "--voters", "2", "--scoring", "borda",
                  "--tie-policy", "split-credit"]},
        {"command": "wmr", "n": 4, "argv": ["wmr", "enum", "--n", "4"]},
    ]
    for i, job in enumerate(jobs[-5:]):
        job["id"] = f"x{i}"
        job["argv"] = job["argv"] + ["-o", f"out/x{i}.csv"]
    return jobs


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    jobs = _small_jobs(root)
    return root, jobs


def _run(root: Path, jobs: list[dict], out_dir: str, monkeypatch, min_passes: int = 1) -> dict:
    monkeypatch.chdir(root)
    return worker.run_jobs(cli, jobs, out_dir, 0.0, min_passes)


def test_small_jobs_pass_their_checks(small, monkeypatch):
    root, jobs = small
    result = _run(root, jobs, "out", monkeypatch)
    assert all(r["rc"] == 0 and r["error"] is None for r in result["records"])
    problems = run.check_outputs(jobs, root, "out", None)
    assert problems == {}


def test_traced_and_untraced_reports_are_byte_identical(small, monkeypatch):
    root, jobs = small
    monkeypatch.chdir(root)
    tracer = spans.Tracer()
    plain, traced = worker.run_paired(cli, jobs, "paired", tracer)
    assert all(r["rc"] == 0 for r in plain["records"] + traced["records"])
    assert plain["digests"] == traced["digests"]
    for job in jobs:
        name = f"{job['id']}.csv"
        assert (root / "paired" / name).read_bytes() == (root / "paired_traced" / name).read_bytes()
    assert {s.job for s in tracer.spans} == {job["id"] for job in jobs}
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "power.banzhaf_exact", "jury.optimal_weights",
            "fusion.fuse_dataset.adaptive-wmr", "fusion.ValidationIndex.neighbors",
            "model.VotingGame.__post_init__", "io.Report.to_text"} <= names
    # uninstall restored every binding
    from votefuse import fusion, jury
    assert fusion.optimal_weights is jury.optimal_weights
    assert not hasattr(jury.optimal_weights, "__wrapped__")


@pytest.mark.parametrize("command", ["power", "jury", "efficiency", "wmr", "fuse", "report"])
def test_checker_counts_a_corrupted_report_as_an_error(small, monkeypatch, command):
    root, jobs = small
    _run(root, jobs, "out", monkeypatch)
    job = next(j for j in jobs if j["command"] == command)
    path = root / "out" / f"{job['id']}.csv"
    text = path.read_text()
    assert checks.check_job(job, text, root) == []
    lines = text.splitlines(keepends=True)
    row = len(lines) - 1
    if command == "report":
        row = next(i for i, line in enumerate(lines) if line.startswith("classifier_accuracy"))
    cells = lines[row].rstrip("\n").split(",")
    if command == "wmr":
        cells[1] = cells[1][::-1]
    elif command == "fuse":
        labels = checks.PredictionTable(root / job["predictions"]).labels
        cells[1] = labels[0] if cells[1] != labels[0] else labels[1]
    elif command == "efficiency":
        cells[2] = str(int(cells[2]) + 1)
    else:
        value_col = {"power": 2, "jury": 2, "report": 2}[command]
        cells[value_col] = repr(float(cells[value_col]) + 0.01)
    lines[row] = ",".join(cells) + "\n"
    corrupted = "".join(lines)
    assert checks.check_job(job, corrupted, root), f"{command}: corruption went unnoticed"
    ref = checks.reference_entry(text)
    assert checks.compare_reference(text, ref) == []
    assert checks.compare_reference(corrupted, ref)
    # the run counts the job as failed
    path.write_text(corrupted)
    problems = run.check_outputs([job], root, "out", None)
    record = {"records": [{"job": 0, "s": 0.1, "rc": 0, "error": None, "same_bytes": True}]}
    passed, _, failures = run.tally([job], record, problems)
    assert passed == 0 and len(failures) == 1
    path.write_text(text)


def test_reference_tolerates_rounding_but_not_wrong_values():
    text = "# command=power\n# game=g.txt\nkind,player,raw,normalized\nbanzhaf,0,7,0.3333333333333333\n"
    ref = checks.reference_entry(text)
    assert checks.compare_reference(text.replace("0.3333333333333333", "0.33333333333333337"), ref) == []
    assert checks.compare_reference(text.replace("0.3333333333333333", "0.3333334"), ref)
    assert checks.compare_reference(text.replace(",7,", ",8,"), ref)


def test_a_crashing_job_is_recorded_and_the_stream_goes_on(tmp_path, monkeypatch):
    # scaled weights past 2^62 make integer_form raise OverflowError, which
    # cli.main does not catch
    (tmp_path / "big.txt").write_text("weights = 1/1000000007 1/1000000009 1/998244353 5\n")
    (tmp_path / "ok.txt").write_text("weights = 1 1 1\n")
    jobs = [{"id": "a", "argv": ["power", "--game", "big.txt", "-o", "out/a.csv"]},
            {"id": "b", "argv": ["power", "--game", "ok.txt", "-o", "out/b.csv"]}]
    result = _run(tmp_path, jobs, "out", monkeypatch)
    by_job = {r["job"]: r for r in result["records"]}
    first, second = by_job[0], by_job[1]
    assert first["rc"] is None and "OverflowError" in first["error"]
    assert second["rc"] == 0 and second["error"] is None
    jobs[0]["command"] = jobs[1]["command"] = "power"
    passed, _, failures = run.tally(jobs, result, {})
    assert passed == 1 and failures[0]["job"] == "a"


def test_each_pass_runs_every_job_once_in_its_own_fixed_order(tmp_path, monkeypatch):
    (tmp_path / "ok.txt").write_text("weights = 2 1 1\n")
    jobs = [{"id": f"j{i}", "argv": ["power", "--game", "ok.txt", "-o", f"out/j{i}.csv"]}
            for i in range(8)]
    result = _run(tmp_path, jobs, "out", monkeypatch, min_passes=3)
    assert result["passes"] == 3
    order = [r["job"] for r in result["records"]]
    assert [order[8 * k:8 * (k + 1)] for k in range(3)] == [worker.pass_order(8, k)
                                                            for k in range(3)]
    assert sorted(worker.pass_order(8, 1)) == list(range(8))
    assert worker.pass_order(8, 0) != worker.pass_order(8, 1)
    assert all(r["rc"] == 0 and r["same_bytes"] for r in result["records"])


def test_a_job_time_is_its_median_over_the_passes():
    jobs = [{"id": "a", "argv": []}, {"id": "b", "argv": []}]
    times = [(0.10, 0.30), (0.50, 0.20), (0.12, 0.25)]  # one pass per row; pass 1 hit job a
    records = [{"job": j, "s": t, "wall_s": t, "rc": 0, "error": None, "same_bytes": True}
               for row in times for j, t in enumerate(row)]
    passed, medians, failures = run.tally(jobs, {"records": records}, {})
    assert passed == 6 and failures == []
    assert medians == pytest.approx([0.12, 0.25])
    plain = {"records": records, "wall_s": 1.5, "passes": 3,
             "reference_s": [run.NOMINAL_REFERENCE_S]}
    setup = [{"setup_s": 0.1, "setup_wall_s": 0.1, "reference_s": run.NOMINAL_REFERENCE_S}]
    metrics, samples, _ = run.plain_metrics(plain, 50.0, passed, medians, setup, 1.0)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(2 / 0.37)
    assert samples["job_s.p50"] == 2 and samples["jobs_per_s"] == 6


def _span(sid, parent, name, start, end, work=0.0):
    return spans.Span(sid, parent, name, "j0", start, end, work)


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span(0, -1, "cli.main", 0.0, 10.0),
        _span(1, 0, "io.load_game", 1.0, 4.0),
        _span(2, 1, "model.VotingGame.__post_init__", 2.0, 3.0),
        _span(3, 0, "power.banzhaf_exact", 5.0, 9.0),
        _span(4, 3, "model.integer_form", 5.5, 6.5),
        _span(5, 3, "model.integer_form", 6.0, 7.0),  # overlaps its sibling
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0, 5: 1.0})
    metrics = spans.per_layer_metrics(tree, [{"command": "power", "method": "exact"}])
    assert metrics["cli.self_share"][0] == pytest.approx(0.3)
    assert metrics["io.self_share"][0] == pytest.approx(0.2)
    assert metrics["model.self_share"][0] == pytest.approx(0.3)
    assert metrics["power.self_share"][0] == pytest.approx(0.25)
    assert metrics["model.integer_form.calls"] == (2.0, "count")
    assert metrics["power.banzhaf_exact.ms_per_call"][0] == pytest.approx(4000.0)
    assert metrics["fusion.self_share"] == (0.0, "ratio")


def test_timings_are_scaled_to_the_nominal_reference_speed():
    nominal = run.NOMINAL_REFERENCE_S
    records = [{"job": i, "s": t, "wall_s": t * 1.5, "rc": 0, "error": None, "same_bytes": True}
               for i, t in enumerate([0.1, 0.2, 0.3, 0.4])]
    # the machine ran at half speed: the reference took twice its nominal time
    plain = {"records": records, "wall_s": 2.0, "passes": 1, "reference_s": [2 * nominal] * 3}
    setup = [{"setup_s": 0.3, "setup_wall_s": 0.3, "reference_s": 3 * nominal}] * 3
    times = [r["s"] for r in records]
    metrics, samples, unscaled = run.plain_metrics(plain, 50.0, 4, times, setup, 1.0)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(4 / 0.5)
    assert metrics["job_s.p50"]["value"] == pytest.approx(0.125)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert unscaled["busy"]["jobs_per_s"] == pytest.approx(4.0)
    assert unscaled["wall_clock"]["jobs_per_s"] == pytest.approx(2.0)
    assert samples["job_s.p90"] == 4
    # a workload that follows the reference half as strongly, in log terms
    half, _, _ = run.plain_metrics(plain, 50.0, 4, times, setup, 0.5)
    assert half["job_s.p50"]["value"] == pytest.approx(0.25 / 2 ** 0.5)
    assert half["setup_s"]["value"] == pytest.approx(0.1)


def test_reference_takes_a_steady_time():
    ref = worker.Reference()
    times = sorted(ref.run() for _ in range(9))
    assert len(ref.samples) == 9
    assert times[4] < 5 * times[0]
