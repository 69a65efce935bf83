"""Paired end-to-end comparison of a git revision and the working tree on
the CLI benchmark (clibench).

    python3 benchmarks/pairs.py --output BENCH.json [--rev HEAD] [--seed 1]

Run from anywhere inside the checkout.  The revision (default HEAD) is
exported with ``git archive`` and the working tree (tracked and untracked
files that git does not ignore, no ``__pycache__``) is copied, into two
temporary directories of equal path length.  For every workload that the
revision's clibench/jobs.py defines, each of PAIRS = 10 pairs then runs

    python3 clibench/run.py --workload W --seed N --seconds 5 --trace 0

once in each tree (N is --seed, the workload seed, 1 by default, which the
record keeps), the revision first in even pairs and the working tree
first in odd ones, with PYTHONDONTWRITEBYTECODE=1 so that no run reads
bytecode another one wrote.  Any run that is not correct or has a failed
job stops the comparison with exit status 1.  For each workload and
end-to-end metric it prints both medians, both interquartile ranges and
the number of pairs in which the working tree is better, and writes the
record to --output.  Each row also says whether it meets the rule for
claiming a gain: the working tree better in at least nine tenths of the
pairs, and the medians apart by more than the revision's interquartile
range.  And it gives the no-regression check that a change claiming no
gain must pass: the relative change of the working tree's median against
the revision's (positive is worse), and whether it stays within the
metric's "bound" in the working tree's BENCHMARK.json, which is only read.
The record's "claim" is left null for a change to fill in.  Nothing under
clibench/ is edited.
"""

import argparse
import io
import json
import os
import platform
import runpy
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # all lower-is-better
SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 5


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(("git", *args), cwd=root, check=True, capture_output=True).stdout


def export_revision(root: Path, rev: str, dest: Path):
    archive = git(root, "archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(root: Path, dest: Path):
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        source = root / name
        if name and source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def src_lines(tree: Path) -> int:
    """Lines of Python in tree/src/sintdyn, _kernel/*.py included (not the
    .pyx or the generated .c)."""
    return sum(len(path.read_text().splitlines()) for path in tree.glob("src/sintdyn/**/*.py"))


def workload_names(tree: Path) -> list[str]:
    # run_path compiles from source and writes no bytecode into the tree
    return list(runpy.run_path(str(tree / "clibench" / "jobs.py"))["WORKLOADS"])


def run_once(tree: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=5 * SECONDS + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: {workload} in {tree.name}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {workload} in {tree.name}: correct={result['correct']}, "
                         f"failed={result['failed']}\n{proc.stdout}")
    values = {name: result["metrics"][name]["value"] for name in METRICS}
    return {"attempted": result["attempted"], "backend": meta["backend"], **values}


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def bounds(root: Path) -> dict:
    # the largest relative worsening BENCHMARK.json allows per metric
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    if any(m["better"] != "lower" for m in metrics if m["name"] in METRICS):
        raise SystemExit("error: BENCHMARK.json: every compared metric must be lower-is-better")
    return {m["name"]: m["bound"] for m in metrics if m["name"] in METRICS}


def compare(runs: dict, bound: dict) -> dict:
    # runs[side] is the list of run records of one workload, pair by pair
    out = {
        "correct": True,
        "failed_jobs": {side: 0 for side in SIDES},
        "attempted_jobs": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
    }
    for name in METRICS:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, q3 = quartiles(parent)
        wins = sum(c < p for p, c in zip(parent, change))
        gap = statistics.median(parent) - statistics.median(change)
        worse = -gap / statistics.median(parent)
        out[name] = {
            "parent_median": round(statistics.median(parent), 6),
            "change_median": round(statistics.median(change), 6),
            "parent_quartiles": [q1, q3],
            "change_quartiles": quartiles(change),
            "change_better_pairs": wins,
            "pairs": len(parent),
            "gain_rule_met": 10 * wins >= 9 * len(parent) and gap > q3 - q1,
            "relative_change": round(worse, 6),
            "bound": bound[name],
            "within_bound": worse <= bound[name],
            "parent_runs": [round(x, 6) for x in parent],
            "change_runs": [round(x, 6) for x in change],
        }
    return out


def host() -> str:
    model = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"{len(os.sched_getaffinity(0))}-vCPU {platform.machine()}, {model}, "
            f"{platform.system()} {platform.release()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True, help="path of the JSON record")
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1, help="workload seed of clibench/run.py")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    rev_sha = git(root, "rev-parse", "--verify", f"{args.rev}^{{commit}}").decode().strip()
    head_sha = git(root, "rev-parse", "HEAD").decode().strip()
    dirty = bool(git(root, "status", "--porcelain").strip())
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        export_revision(root, rev_sha, trees["parent"])
        copy_working_tree(root, trees["change"])
        bound = bounds(root)
        results = {}
        for workload in workload_names(trees["parent"]):
            runs = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_once(trees[side], workload, args.seed))
            results[workload] = compare(runs, bound)
            backends = {side: sorted({r["backend"] for r in runs[side]}) for side in SIDES}
            results[workload]["backend"] = backends
            for name in METRICS:
                row = results[workload][name]
                print(f"{workload} {name}: parent {row['parent_median']:.6g} "
                      f"IQR {row['parent_quartiles']}, change {row['change_median']:.6g} "
                      f"IQR {row['change_quartiles']}, change better in "
                      f"{row['change_better_pairs']}/{row['pairs']} pairs"
                      + (", gain rule met" if row["gain_rule_met"] else "")
                      + f"; median {row['relative_change']:+.2%}, "
                      + ("within" if row["within_bound"] else "OUTSIDE")
                      + f" the bound {row['bound']:+.0%}", flush=True)
        lines = {side: src_lines(trees[side]) for side in SIDES}

    backends = sorted({b for w in results.values() for side in SIDES for b in w["backend"][side]})
    record = {
        "host": host(),
        "python": platform.python_version(),
        "kernel": ",".join(backends),
        "commit": {
            "parent": rev_sha,
            "change": f"working tree at {head_sha}" + (" with uncommitted changes" if dirty else ""),
        },
        "claim": None,
        "within_bounds": all(w[name]["within_bound"] for w in results.values() for name in METRICS),
        "src_lines": lines,
        "clibench": {
            "seed": args.seed,
            "command": (f"PYTHONDONTWRITEBYTECODE=1 python3 clibench/run.py --workload W "
                        f"--seed {args.seed} --seconds {SECONDS} --trace 0; {PAIRS} pairs per "
                        "workload, alternating which side runs "
                        "first; the parent exported with git archive and the change copied "
                        "without __pycache__ to directories of equal path length"),
            "workloads": results,
        },
    }
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
