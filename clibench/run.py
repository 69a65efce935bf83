"""End-to-end benchmark of the sintdyn CLI.

    python3 clibench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run repeats the workload's job list
until ``--seconds`` have passed, each time in a fresh worker process
(worker.py) so that the package's caches start cold, and checks every
document the jobs print.  Times are scaled to a host of fixed speed
(``REFERENCE_S``).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates plain and traced workers and prints the
per-layer metrics of the fastest traced one (tracer.py) plus the tracing
overhead.  A run is correct only if every job exits 0 with a
valid document, except that a job in ``jobs.KNOWN_FAILING`` may fail with
its one listed exit status.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
# set-up-only workers started before each repetition, on top of the
# repetition's own worker, so that the set-up median rests on enough
# samples taken over the same minutes as the repetitions
SETUP_SAMPLES = 2
WORKER_TIMEOUT_S = 120
# worker.reference_s() on a quiet 2-vCPU x86-64 host with Python 3.11 (its
# fastest tenth).  wall_s and setup_s are seconds of a host at that speed:
# each time is scaled by REFERENCE_S over the reference loop's time next to
# it.  Other tenants of a shared host slow it by half or more within
# seconds, and its speed drifts over minutes; the scaling takes both out.
REFERENCE_S = 0.016

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
# the same times as measured, not scaled; printed for information
UNSCALED = {"wall_unscaled_s": "s", "setup_unscaled_s": "s"}
# fail_ratio is 0 on a healthy workload, so it travels to the JSON line as
# attempted/failed rather than as a metric
JSON_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
TRACE_WALL = {"trace.wall_s": "s"}
# per-layer metrics of the JSON line: those that are non-zero on every
# workload.  The others (zero where a workload does not reach the layer)
# are printed as text lines only.
JSON_PER_LAYER = (
    "kernel.gcd.calls",
    "kernel.gcd.self_s",
    "kernel.gcd.calls.deglt32",
    "kernel.gcd.self_s.deglt32",
    "kernel.pow_mod.calls",
    "kernel.pow_mod.self_s",
    "kernel.pow_mod.calls.deglt32",
    "kernel.pow_mod.self_s.deglt32",
    "kernel.pow_mod.exp_bits",
    "ffpoly.factorize.calls",
    "ffpoly.factorize.self_s",
    "system.periodic_exponent.calls",
    "system.periodic_exponent.self_s",
    "cli.self_s",
    "cli.doc_bytes",
    "trace.wall_s",
)


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def spawn(job_list: list, trace: bool) -> tuple[float, dict]:
    """Run the jobs in a fresh worker; return its set-up time and report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    request = json.dumps({"jobs": job_list, "trace": trace}).encode()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    ) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.stdin.write(request)
            proc.stdin.close()
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            body = proc.stdout.read()
            status = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
    if ready != b"ready\n" or status != 0:
        raise BenchError(f"worker failed (exit status {status})")
    return setup_s, json.loads(body)


class Run:
    """Samples and checks gathered over the workers of one run."""

    def __init__(self, job_list: list, digests: dict):
        self.job_list = job_list
        self.digests = digests
        self.setup_s, self.wall_s, self.peak_rss_mb = [], [], []
        self.setup_unscaled_s, self.wall_unscaled_s = [], []
        self.traced_wall_s, self.layers = [], []
        self.attempted = self.failed = 0
        self.correct = True
        self.backends = set()
        self.problems = {}
        self._first_stdout = None

    def add_setup(self, setup_s: float, report: dict):
        self.setup_unscaled_s.append(setup_s)
        self.setup_s.append(setup_s * REFERENCE_S / report["reference_s"][0])

    def add(self, setup_s: float, report: dict, traced: bool):
        self.backends.add(report["backend"])
        seconds = [job["seconds"] for job in report["jobs"]]
        if traced:
            self.traced_wall_s.append(sum(seconds))
            self.layers.append(report["layers"])
        else:
            self.add_setup(setup_s, report)
            references = report["reference_s"]
            self.wall_s.append(sum(
                s * 2 * REFERENCE_S / (before + after)
                for s, before, after in zip(seconds, references, references[1:])
            ))
            self.wall_unscaled_s.append(sum(seconds))
            self.peak_rss_mb.append(report["peak_rss_kb"] / 1024)
        if self._first_stdout is None:
            self._first_stdout = [job["stdout"] for job in report["jobs"]]
        for argv, job, first in zip(self.job_list, report["jobs"], self._first_stdout):
            self.attempted += 1
            problem = jobs.check_job(argv, job["status"], job["stdout"], self.digests)
            if problem is None and job["stdout"] != first:
                problem = "document differs between runs of the same job"
            if problem is None:
                continue
            self.failed += 1
            known = jobs.KNOWN_FAILING.get(jobs.job_key(argv)) == job["status"]
            if not known:
                self.correct = False
            stderr = job["stderr"].strip().splitlines()
            detail = f"{problem}: {stderr[-1]}" if stderr else problem
            self.problems[jobs.job_key(argv)] = ("known defect: " if known else "") + detail

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.wall_s),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(self.peak_rss_mb),
            "fail_ratio": self.failed / self.attempted,
        }

    def unscaled(self) -> dict[str, float]:
        return {
            "wall_unscaled_s": statistics.median(self.wall_unscaled_s),
            "setup_unscaled_s": statistics.median(self.setup_unscaled_s),
        }

    def per_layer(self) -> dict[str, float]:
        # from the fastest traced repetition, so that self times add up to
        # its wall time
        fastest = min(range(len(self.traced_wall_s)), key=self.traced_wall_s.__getitem__)
        values = dict(self.layers[fastest])
        values["trace.wall_s"] = self.traced_wall_s[fastest]
        return values


def run_workload(job_list: list, seconds: float, trace: bool, digests: dict) -> Run:
    """Repeat the job list in fresh workers until ``seconds`` have passed."""
    run = Run(job_list, digests)
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_SAMPLES):
            run.add_setup(*spawn([], False))
        traced = trace and len(run.traced_wall_s) < len(run.wall_s)
        setup_s, report = spawn(job_list, traced)
        run.add(setup_s, report, traced)
        if time.perf_counter() >= deadline and (run.traced_wall_s or not trace):
            return run


def commit_hash() -> str:
    # the ceiling keeps git from taking the hash of a repository that
    # merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sintdyn" / "cli.py").is_file():
        print(f"error: no sintdyn sources under {SRC}", file=sys.stderr)
        return 2
    try:
        digests = json.loads(DIGESTS.read_text())
        job_list = jobs.workload_jobs(args.workload, args.seed)
        run = run_workload(job_list, args.seconds, bool(args.trace), digests)
    except (OSError, ValueError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": ",".join(sorted(run.backends)),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_hash(),
        "runs": len(run.wall_s),
        "traced_runs": len(run.traced_wall_s),
        "jobs_per_run": len(job_list),
    }
    print("meta " + json.dumps(meta))
    for key, problem in run.problems.items():
        print(f"failed job: {key}: {problem}")
    end_to_end = run.end_to_end()
    for name, unit in END_TO_END.items():
        print(f"{name} {end_to_end[name]:.6g} {unit}")
    unscaled = run.unscaled()
    for name, unit in UNSCALED.items():
        print(f"{name} {unscaled[name]:.6g} {unit}")
    if args.trace:
        layers = run.per_layer()
        units = {**tracer.metric_units(), **TRACE_WALL}
        for name, unit in units.items():
            print(f"{name} {layers[name]:.6g} {unit}")
        # for information only: noise makes it negative at times
        overhead = layers["trace.wall_s"] - min(run.wall_unscaled_s)
        print(f"trace.overhead_s {overhead:.6g} s")
        values = {name: layers[name] for name in JSON_PER_LAYER}
    else:
        values = {name: end_to_end[name] for name in JSON_END_TO_END}
        units = END_TO_END
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
