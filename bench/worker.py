"""One benchmark worker: a fresh process that runs a job list through ``votefuse.cli.main``.

``--setup`` only times the import of ``votefuse.cli`` and one ``build_parser()``
call and prints it. Otherwise the worker runs the job list in a closed loop,
one job after the other, in whole passes: at least MIN_PASSES, and no pass
is started that would end after ``--seconds``. Each pass runs the jobs in
its own fixed shuffled order, the same for every seed, so that a slow spell
of the machine falls on a mix of jobs, and one shorter than a pass on at
most one run of each job. Each job's report goes to ``out/``; later passes must write the same
bytes as the first. With ``--trace`` the worker instead
makes one pass in which each job runs untraced and then traced, or the other
way round, recording spans around the package's public functions during the
traced calls; it writes the spans out at the end. The result, with the
process's peak RSS, goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE_EVERY = 4
#: a job's time is the median over its passes, so it needs three
MIN_PASSES = 3
SETUP_REFERENCE_RUNS = 5


def _start() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _stop(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and busy seconds since ``start``.

    Busy time is the process's CPU time, capped by the wall time so that work
    spread over several threads counts once. On a shared virtual machine it
    leaves out the time the hypervisor gave this CPU to someone else, which
    wall time counts; the jobs here are single-threaded and wait on no I/O, so
    on an unshared machine the two agree.
    """
    wall = time.perf_counter() - start[0]
    return wall, min(wall, time.process_time() - start[1])


class Reference:
    """A fixed computation, timed between jobs, that reads the machine's current speed.

    On a shared virtual machine the speed of a CPU changes by a quarter or more
    from minute to minute, with what its neighbours run. The reference mixes
    the two kinds of work the jobs do, interpreted Python (CSV parsing, float
    conversion, sorting) and numpy passes over arrays larger than the L2 cache,
    on buffers made once, so that it allocates little and the heap a job leaves
    behind does not change its time. The run divides its job times by the
    reference's median time, so machine drift cancels and program changes,
    which leave the reference alone, show in full.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._text = "\n".join(",".join(repr((i * 31 + j * 17) % 997 / 7.0) for j in range(8))
                                for i in range(1200))
        self._a = np.arange(1 << 19, dtype=np.int64)
        self._b = np.empty_like(self._a)
        self._mask = np.empty(self._a.shape, dtype=bool)
        self.samples: list[float] = []
        self.run()  # warm-up
        self.samples.clear()

    def run(self) -> float:
        np = self._np
        start = _start()
        rows = list(csv.reader(io.StringIO(self._text)))
        values = sorted(float(x) for row in rows for x in row)
        for shift in range(1, 9):
            np.add(self._a, shift, out=self._b)
            np.greater(self._b, values[len(values) // 2], out=self._mask)
            np.count_nonzero(self._mask)
        busy = _stop(start)[1]
        self.samples.append(busy)
        return busy


def _import_cli():
    sys.path.insert(0, str(SRC))
    start = _start()
    import votefuse.cli as cli

    cli.build_parser()
    setup = _stop(start)
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported votefuse from {cli.__file__}, not from {SRC}")
    return cli, setup


def _retarget(argv: list[str], out_dir: str) -> list[str]:
    """Point the job's ``-o out/<id>.csv`` at ``out_dir``."""
    argv = list(argv)
    i = argv.index("-o")
    argv[i + 1] = f"{out_dir}/{Path(argv[i + 1]).name}"
    return argv


def _digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return ""


def _execute(cli, job: dict, argv: list[str], output: Path, tracer=None) -> tuple[dict, str]:
    """One timed ``cli.main`` call; returns its record and the digest of its report."""
    error = None
    start = _start()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.run_job(job["id"], cli.main, argv)
    except Exception:  # a crash is a failed job; the stream goes on
        rc = None
        error = traceback.format_exc(limit=-3)
    wall, busy = _stop(start)
    return {"s": busy, "wall_s": wall, "rc": rc, "error": error}, _digest(output)


def _plan(jobs: list[dict], out_dir: str) -> tuple[list[list[str]], list[Path]]:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return ([_retarget(job["argv"], out_dir) for job in jobs],
            [Path(out_dir) / f"{job['id']}.csv" for job in jobs])


def pass_order(count: int, pass_index: int) -> list[int]:
    """The job order of one pass: a shuffle fixed by the pass index alone."""
    order = list(range(count))
    random.Random(pass_index).shuffle(order)
    return order


def run_jobs(cli, jobs: list[dict], out_dir: str, seconds: float,
             min_passes: int = MIN_PASSES) -> dict:
    """Run whole passes over ``jobs`` while they fit in ``seconds``; cwd holds the inputs.

    After ``min_passes``, a pass starts only if a pass as long as the longest
    so far would end within ``seconds``. The reference computation runs
    before every REFERENCE_EVERY-th job of a pass, outside the job's timing;
    its times come back as ``reference_s``.
    """
    argvs, outputs = _plan(jobs, out_dir)
    reference = Reference()
    first: dict[int, str] = {}
    records = []
    passes = 0
    longest = 0.0
    t_run = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for k, i in enumerate(pass_order(len(jobs), passes)):
            if k % REFERENCE_EVERY == 0:
                reference.run()
            record, digest = _execute(cli, jobs[i], argvs[i], outputs[i])
            first.setdefault(i, digest)
            records.append({"job": i, **record, "same_bytes": digest == first[i]})
        passes += 1
        now = time.perf_counter()
        longest = max(longest, now - t_pass)
        if passes >= min_passes and now - t_run + longest > seconds:
            break
    wall = time.perf_counter() - t_run
    return {"records": records, "wall_s": wall, "passes": passes,
            "digests": {job["id"]: first[i] for i, job in enumerate(jobs)},
            "reference_s": reference.samples}


def run_paired(cli, jobs: list[dict], out_dir: str, tracer) -> tuple[dict, dict]:
    """One pass in which every job runs untraced and traced back to back.

    The order within a pair alternates from job to job, so neither side always
    meets warm caches, and a slow spell of the machine hits both sides alike:
    the difference of the two sides is the tracing overhead. Each side's
    ``wall_s`` is the sum of its jobs' wall times. Traced reports go to
    ``<out_dir>_traced``.
    """
    sides = {False: _plan(jobs, out_dir), True: _plan(jobs, f"{out_dir}_traced")}
    results = {side: {"records": [], "digests": {}, "passes": 1} for side in sides}
    for i, job in enumerate(jobs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            argvs, outputs = sides[traced]
            if traced:
                tracer.install()
            try:
                record, digest = _execute(cli, job, argvs[i], outputs[i],
                                          tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            results[traced]["records"].append({"job": i, **record, "same_bytes": True})
            results[traced]["digests"][job["id"]] = digest
    for result in results.values():
        result["wall_s"] = sum(r["wall_s"] for r in result["records"])
    return results[False], results[True]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--setup", action="store_true")
    p.add_argument("--jobs", help="jobs.json written by jobgen.generate")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", help="run paired untraced and traced calls; write spans here")
    p.add_argument("--result", help="write the result JSON to this file")
    args = p.parse_args(argv)

    cli, (setup_wall_s, setup_s) = _import_cli()
    if args.setup:
        reference = Reference()
        for _ in range(SETUP_REFERENCE_RUNS):
            reference.run()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                          "reference_s": statistics.median(reference.samples)}))
        return 0
    jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    os.chdir(Path(args.jobs).parent)
    if args.trace:
        sys.path.insert(0, str(BENCH))
        from spans import Tracer

        tracer = Tracer()
        plain, traced = run_paired(cli, jobs, "out", tracer)
        with open(args.trace, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_row()) + "\n")
    else:
        plain, traced = run_jobs(cli, jobs, "out", args.seconds), None
    result = {"plain": plain, "traced": traced,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
