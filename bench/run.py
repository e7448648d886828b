#!/usr/bin/env python3
"""mumkit benchmark: seeded CLI workloads, end-to-end metrics, layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload mirror --seed 1 --seconds 35 --trace 0

With --trace 0 it measures the end-to-end metrics: it starts SETUP_RUNS
fresh interpreters that import mumkit and build the workload's inputs
(`setup_s` is their median time to ready), then one worker process that
builds the inputs once and runs the job list through `mumkit.cli.main`
again and again, one job at a time, until --seconds is used up.  With
--trace 1 the worker runs the job list once untraced and once under
`spans.Tracer`, and reports the per-layer metrics.  Every report is
checked by the oracles in `workloads.py`.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

    python3 bench/run.py --record-digests

runs every workload once at the default seed and writes the report
digests to bench/digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SETUP_RUNS = 7
RUN_LIMIT_S = 170  # a run must end within 180 s

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "max_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# in the worker: run jobs and check their reports
# ---------------------------------------------------------------------------


def import_mumkit():
    sys.path.insert(0, str(SRC))
    import mumkit.cli

    return mumkit.cli


class JobRunner:
    """Runs jobs in order, times each `cli.main` call and checks the
    report; a job fails if it raised, exited with an unexpected status or
    its report was rejected by an oracle."""

    def __init__(self, cli, jobs, digests=None):
        self.cli = cli
        self.jobs = jobs
        self.digests = digests  # job id -> report digest, or None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.num_bits = 0
        self.den_bits = 0

    def run_once(self, recorder=None) -> list[float]:
        """One pass over the job list; returns each job's time in seconds.
        With a recorder, each job's spans carry its index as job id."""
        times = []
        for index, job in enumerate(self.jobs):
            if recorder is not None:
                recorder.job = index
            Path(job.out).unlink(missing_ok=True)
            self.attempted += 1
            started = time.perf_counter()
            try:
                status = self.cli.main(list(job.argv))
            except Exception:
                times.append(time.perf_counter() - started)
                self._fail(job, ["raised " + traceback.format_exc(limit=3)])
                continue
            times.append(time.perf_counter() - started)
            try:
                doc = json.loads(Path(job.out).read_text())
            except (OSError, ValueError) as exc:
                self._fail(job, [f"no readable report: {exc}"])
                continue
            digest = None if self.digests is None else self.digests.get(job.id, "missing")
            problems = workloads.check_job(job, status, doc, digest)
            if problems:
                self._fail(job, problems)
            self._measure_heights(doc)
        return times

    def _fail(self, job, problems):
        self.failed += 1
        self.problems += [f"{job.id}: {p}" for p in problems]

    def _measure_heights(self, node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                self._measure_heights(item)
        elif isinstance(node, str) and _RATIONAL.fullmatch(node):
            num, _, den = node.lstrip("-").partition("/")
            self.num_bits = max(self.num_bits, int(num).bit_length())
            self.den_bits = max(self.den_bits, int(den or 1).bit_length())


def load_digests(workload: str, seed: int):
    """Recorded report digests (job id -> SHA-256) when `seed` is the
    seed they were recorded for, else None."""
    recorded = json.loads(DIGESTS.read_text())
    if seed != recorded["seed"]:
        return None
    return recorded["digests"][workload]


def in_workdir(fn):
    """Run fn(workdir) inside a fresh directory under .bench_work, so report
    paths are relative and identical from run to run."""
    workdir = WORK / f"{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return fn(workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def setup_role(args):
    """Fresh interpreter to ready: import mumkit, build the inputs."""
    import_mumkit()
    in_workdir(lambda workdir: workloads.build_jobs(args.workload, args.seed, workdir))
    print("ready", flush=True)


def worker_role(args):
    cli = import_mumkit()

    def run(workdir):
        jobs = workloads.build_jobs(args.workload, args.seed, workdir)
        runner = JobRunner(cli, jobs, load_digests(args.workload, args.seed))
        out = {"jobs": [job.id for job in jobs]}
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv"
            out["layers"] = traced_pass(runner, spans_path)
        else:
            out["times"] = timed_passes(runner, args.seconds)
        out.update(
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
            num_bits=runner.num_bits,
            den_bits=runner.den_bits,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        return out

    print(json.dumps(in_workdir(run)), flush=True)


def timed_passes(runner: JobRunner, seconds: float) -> list[list[float]]:
    """Whole passes over the job list while the next one still fits."""
    started = time.perf_counter()
    passes = []
    while True:
        pass_started = time.perf_counter()
        passes.append(runner.run_once())
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return passes


def traced_pass(runner: JobRunner, spans_path: Path) -> dict:
    untraced = sum(runner.run_once())
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        traced = sum(runner.run_once(recorder))
    recorder.dump(spans_path)
    return spans.layer_metrics(recorder, traced, untraced)


# ---------------------------------------------------------------------------
# in the parent: start the processes and report
# ---------------------------------------------------------------------------


def child_argv(args, role):
    return [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def run_child(args, role, on_ready=None) -> str:
    """Run this script in `role` and return its standard output.  With
    `on_ready`, it is called as soon as the child prints its first line.
    The child is killed if it is still running at the deadline."""
    with subprocess.Popen(child_argv(args, role), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            first = ""
            if on_ready is not None:
                if not select.select([proc.stdout], [], [], remaining(args))[0]:
                    raise subprocess.TimeoutExpired(proc.args, remaining(args))
                first = proc.stdout.readline()
                on_ready()
            rest, _ = proc.communicate(timeout=remaining(args))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{role} process exceeded the run time limit") from None
    if proc.returncode != 0:
        raise SystemExit(f"{role} process failed with status {proc.returncode}")
    return first + rest


def remaining(args) -> float:
    return max(1.0, args.deadline - time.monotonic())


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    started = time.perf_counter()
    ready = []
    out = run_child(args, "setup", lambda: ready.append(time.perf_counter()))
    if out.strip() != "ready":
        raise SystemExit(f"setup process printed {out!r}")
    return ready[0] - started


def run_worker(args) -> dict:
    return json.loads(run_child(args, "worker").strip().splitlines()[-1])


def end_to_end(result: dict, setup_times: list[float]) -> dict[str, float]:
    """wall_s sums each job's mean time over the passes, max_job_s is the
    largest of those means, setup_s the median of the set-up times.

    The mean, not the median, of the passes: the speed of a shared
    machine drifts in phases that last seconds to minutes, so consecutive
    passes are slow together, and with three to eight passes the mean
    averages over a phase where the median picks one side of it."""
    per_job = [statistics.fmean(ts) for ts in zip(*result["times"])]
    return {
        "wall_s": sum(per_job),
        "max_job_s": max(per_job),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main_role(args) -> int:
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        result = run_worker(args)
        units = spans.metric_units()
        metrics = {name: (value, units[name]) for name, value in result["layers"].items()}
    else:
        setup_times = [time_setup(args) for _ in range(SETUP_RUNS)]
        result = run_worker(args)
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(result, setup_times).items()}
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    passes = "an untraced and a traced" if args.trace else len(result["times"])
    print(f"workload {args.workload} seed {args.seed}: {passes} passes over "
          f"{len(result['jobs'])} jobs ({', '.join(result['jobs'])})")
    print(f"coefficient height: {result['num_bits']} numerator bits, "
          f"{result['den_bits']} denominator bits")
    for job_id, times in zip(result["jobs"], zip(*result.get("times", []))):
        print(f"  job {job_id:<32} {statistics.fmean(times):>14.6g} s (mean)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<36} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_digests() -> int:
    cli = import_mumkit()
    digests = {}
    for workload in workloads.WORKLOADS:
        def run(workdir):
            jobs = workloads.build_jobs(workload, workloads.DEFAULT_SEED, workdir)
            runner = JobRunner(cli, jobs)
            runner.run_once()
            if runner.failed:
                raise SystemExit("\n".join(runner.problems))
            return {job.id: workloads.report_digest(json.loads(Path(job.out).read_text()))
                    for job in jobs}
        digests[workload] = in_workdir(run)
    DIGESTS.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mumkit" / "cli.py").is_file():
        print(f"no mumkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.role == "setup":
        setup_role(args)
    elif args.role == "worker":
        worker_role(args)
    else:
        return main_role(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
