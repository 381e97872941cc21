"""votefuse benchmark: seeded streams of CLI jobs, checked, with per-layer timings.

    python3 bench/run.py --workload exact|sampling|fusion --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``votefuse`` from
``src/``. The run generates its inputs from ``--seed`` into a scratch
directory under ``bench/_work``, then:

* measures set-up (``import votefuse.cli`` plus ``build_parser()``) in
  several fresh processes and reports the median;
* times everything as busy time, CPU time capped by wall time (see
  ``worker._stop``), scaled to a nominal machine speed read from a reference
  computation run in the same process (see ``worker.Reference``); the detail
  line keeps the unscaled and the wall-clock figures;
* runs the job list in one fresh worker process, one client in a closed
  loop, in whole passes, each in its own fixed shuffled order: at least
  three, and no more than fit in ``--seconds``; a job's time is its median
  over the passes;
* with ``--trace 1``, makes one pass instead in which every job runs both
  untraced and traced, back to back, and reports per-layer metrics from the
  traced calls' spans, with the tracing overhead;
* checks every report (see ``checks.py``), and against the stored reference
  values when the seed is the default.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment and the sample count of every metric. A detailed
result also goes to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"
DEFAULT_SEED = 0
SETUP_PROBES = 9
BLAS_THREADS = 1
#: median time of worker.Reference on the machine this benchmark was built on
#: (2-vCPU Xeon VM, Python 3.11, numpy 2.4); job and set-up times are scaled to it
NOMINAL_REFERENCE_S = 0.0135
#: How strongly each workload's job times follow the reference's: job times are
#: scaled by (nominal / measured reference time) to this power. When the shared
#: 2-vCPU machine slowed, the reference (part interpreted Python) slowed about
#: as much as the exact and fusion jobs, but the sampling jobs, mostly
#: vectorized numpy, only about 0.6 times as much in log terms. Over ten
#: sampling runs whose reference speed varied by a third, the quartile spread
#: of job_s.p90 was 0.157 with the full power and 0.064 with 0.6.
SPEED_SENSITIVITY = {"exact": 1.0, "sampling": 0.6, "fusion": 1.0}
#: every worker must end before this many seconds into the run
RUN_DEADLINE_S = 170

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobgen  # noqa: E402
import spans  # noqa: E402


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    # a fixed string-hash seed removes one source of run-to-run timing spread
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], workdir: Path, log_name: str,
            deadline: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; past ``deadline`` (monotonic) it is killed and the run fails."""
    remaining = max(1.0, deadline - time.monotonic())
    with open(workdir / log_name, "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              stdout=subprocess.PIPE, stderr=log, text=True,
                              env=_worker_env(), timeout=remaining)
    if proc.returncode != 0:
        tail = (workdir / log_name).read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"worker {args} exited with {proc.returncode}:\n{tail}")
    return proc


def measure_setup(workdir: Path, deadline: float) -> list[dict]:
    """Set-up times in fresh processes; the first, untimed, fills the bytecode cache."""
    probes = []
    for i in range(SETUP_PROBES + 1):
        proc = _worker(["--setup"], workdir, "setup.log", deadline)
        if i:
            probes.append(json.loads(proc.stdout))
    return probes


def run_worker(workdir: Path, seconds: float, trace: bool, deadline: float) -> dict:
    """The job list in one fresh worker; reports go to ``out/`` (and ``out_traced/``)."""
    result_path = workdir / "result.json"
    args = ["--jobs", str(workdir / "jobs.json"), "--seconds", repr(seconds),
            "--result", str(result_path)]
    if trace:
        args += ["--trace", str(workdir / "spans.jsonl")]
    _worker(args, workdir, "worker.log", deadline)
    return json.loads(result_path.read_text(encoding="utf-8"))


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "worker_processes": 1,
        "clients": 1,
    }


def check_outputs(jobs: list[dict], workdir: Path, out_dir: str, reference) -> dict:
    """Problems per job id, from the checks and, if given, the reference."""
    problems = {}
    for job in jobs:
        path = workdir / out_dir / f"{job['id']}.csv"
        if not path.is_file():
            problems[job["id"]] = ["no report written"]
            continue
        text = path.read_text(encoding="utf-8")
        found = checks.check_job(job, text, workdir)
        if reference is not None:
            found += checks.compare_reference(text, reference["reports"][job["id"]])
        if found:
            problems[job["id"]] = found
    return problems


def tally(jobs: list[dict], result: dict, problems: dict) -> tuple[int, list[float], list]:
    """Passed executions, each job's median busy time over its passes, and the failures.

    The median over passes drops the pass that a slow spell of the machine hit.
    """
    passed, by_job, failures = 0, {}, []
    for rec in result["records"]:
        job_id = jobs[rec["job"]]["id"]
        by_job.setdefault(rec["job"], []).append(rec["s"])
        reason = None
        if rec["error"]:
            reason = rec["error"].strip().splitlines()[-1]
        elif rec["rc"] != 0:
            reason = f"exit code {rec['rc']}"
        elif not rec["same_bytes"]:
            reason = "report bytes changed between passes"
        elif job_id in problems:
            reason = "; ".join(problems[job_id])
        if reason is None:
            passed += 1
        else:
            failures.append({"job": job_id, "argv": jobs[rec["job"]]["argv"], "reason": reason})
    return passed, [statistics.median(t) for t in by_job.values()], failures


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def load_reference(workload: str, seed: int, workdir: Path, jobs: list[dict]):
    if seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref["inputs"] != checks.inputs_digest(workdir, jobs):
        raise SystemExit(f"{path} was made from other inputs; the generator changed, "
                         f"so write the reference again with --write-reference")
    return ref


def write_reference(workload: str, workdir: Path, jobs: list[dict], problems: dict) -> None:
    if problems:
        raise SystemExit(f"refusing to write a reference from failing reports: {problems}")
    reports = {job["id"]: checks.reference_entry(
        (workdir / "out" / f"{job['id']}.csv").read_text(encoding="utf-8")) for job in jobs}
    REFERENCE_DIR.mkdir(exist_ok=True)
    ref = {"workload": workload, "seed": DEFAULT_SEED,
           "inputs": checks.inputs_digest(workdir, jobs), "reports": reports}
    (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(ref, indent=0) + "\n",
                                                     encoding="utf-8")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timings(passed: float, times: list[float], setup: list[float]) -> dict:
    """``passed`` counts the passing jobs of one pass; ``times`` holds one time per job."""
    return {"jobs_per_s": passed / sum(times), "job_s.p50": statistics.median(times),
            "job_s.p90": percentile(times, 90), "setup_s": statistics.median(setup)}


def plain_metrics(plain: dict, peak_rss_mb: float, passed: int, times: list[float],
                  setup: list[dict], sensitivity: float):
    """End-to-end metrics of an untraced run and the sample count behind each.

    ``times`` holds each job's median time over the passes, and ``jobs_per_s``
    is the passing share of one pass's jobs over the sum of those times.
    Times are busy times scaled to the nominal machine speed: each is multiplied
    by NOMINAL_REFERENCE_S over the reference time measured in the same process
    (the worker's median for jobs, to the power ``sensitivity``; each probe's
    own for set-up). The detail keeps the unscaled busy times and the
    wall-clock ones.
    """
    attempted = len(plain["records"])
    per_pass = passed * len(times) / attempted
    scale = (NOMINAL_REFERENCE_S / statistics.median(plain["reference_s"])) ** sensitivity
    scaled = _timings(per_pass, [t * scale for t in times],
                      [p["setup_s"] * NOMINAL_REFERENCE_S / p["reference_s"] for p in setup])
    metrics = {
        "jobs_per_s": _metric(scaled["jobs_per_s"], "jobs/s"),
        "job_s.p50": _metric(scaled["job_s.p50"], "s"),
        "job_s.p90": _metric(scaled["job_s.p90"], "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "setup_s": _metric(scaled["setup_s"], "s"),
        "success_rate": _metric(passed / attempted, "ratio"),
    }
    samples = {"jobs_per_s": attempted, "job_s.p50": len(times), "job_s.p90": len(times),
               "passes": plain["passes"],
               "peak_rss_mb": 1, "setup_s": len(setup), "success_rate": attempted,
               "reference": len(plain["reference_s"])}
    unscaled = {
        "speed_scale": scale,
        "busy": _timings(per_pass, times, [p["setup_s"] for p in setup]),
        "wall_clock": _timings(per_pass, [r["wall_s"] for r in plain["records"]],
                               [p["setup_wall_s"] for p in setup]),
    }
    unscaled["wall_clock"]["jobs_per_s"] = passed / plain["wall_s"]
    return metrics, samples, unscaled


def traced_metrics(workdir: Path, jobs: list[dict], plain: dict, passed: int,
                   traced: dict, traced_passed: int):
    """Per-layer metrics from the traced calls' spans, with the tracing overhead."""
    rows = [json.loads(line) for line in
            (workdir / "spans.jsonl").read_text(encoding="utf-8").splitlines()]
    layer = spans.per_layer_metrics([spans.Span.from_row(r) for r in rows], jobs)
    untraced_jps = passed / sum(r["s"] for r in plain["records"])
    traced_jps = traced_passed / sum(r["s"] for r in traced["records"])
    layer["trace.jobs_per_s"] = (traced_jps, "jobs/s")
    layer["trace.untraced_jobs_per_s"] = (untraced_jps, "jobs/s")
    layer["trace.overhead_share"] = (
        1.0 - traced_jps / untraced_jps if untraced_jps else 0.0, "ratio")
    metrics = {name: _metric(v, unit) for name, (v, unit) in layer.items()}
    return metrics, {"traced_jobs": len(traced["records"]), "spans": len(rows)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help=f"store the reports of seed {DEFAULT_SEED} as the reference")
    args = p.parse_args(argv)
    if not (SRC / "votefuse" / "cli.py").is_file():
        print(f"error: no votefuse sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        p.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = BENCH / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        jobs = jobgen.generate(args.workload, args.seed, workdir)
        detail = {"workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
                  "generate_s": time.perf_counter() - t0, "environment": environment()}
        reference = None if args.write_reference else load_reference(
            args.workload, args.seed, workdir, jobs)
        setup = [] if args.trace else measure_setup(workdir, deadline)
        result = run_worker(workdir, args.seconds, bool(args.trace), deadline)
        plain, traced = result["plain"], result["traced"]
        t0 = time.perf_counter()
        problems = check_outputs(jobs, workdir, "out", reference)
        detail["check_s"] = time.perf_counter() - t0
        if args.write_reference:
            write_reference(args.workload, workdir, jobs, problems)
        passed, times, failures = tally(jobs, plain, problems)
        attempted = len(plain["records"])
        if traced is None:
            metrics, detail["samples"], detail["unscaled"] = plain_metrics(
                plain, result["peak_rss_mb"], passed, times, setup,
                SPEED_SENSITIVITY[args.workload])
        else:
            traced_problems = check_outputs(jobs, workdir, "out_traced", reference)
            for job in jobs:
                if plain["digests"][job["id"]] != traced["digests"][job["id"]]:
                    traced_problems.setdefault(job["id"], []).append(
                        "traced report differs from the untraced one")
            traced_passed, _, traced_failures = tally(jobs, traced, traced_problems)
            attempted += len(traced["records"])
            failures += traced_failures
            metrics, detail["samples"] = traced_metrics(workdir, jobs, plain, passed,
                                                        traced, traced_passed)
        detail.update({"passes": plain["passes"], "wall_s": plain["wall_s"],
                       "setup_probes": setup, "error_rate": len(failures) / attempted,
                       "failures": failures[:20],
                       "job_s": {}})
        for r in plain["records"]:
            detail["job_s"].setdefault(jobs[r["job"]]["id"], []).append((r["s"], r["wall_s"]))
        out = {"correct": not failures, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
        (BENCH / "_out").mkdir(exist_ok=True)
        suffix = "trace" if args.trace else "plain"
        (BENCH / "_out" / f"{args.workload}-s{args.seed}-{suffix}.json").write_text(
            json.dumps({**detail, "result": out}, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({k: v for k, v in detail.items() if k != "job_s"}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
