"""Record the stdout digest of every job of every workload at the default seed.

    python3 clibench/record_digests.py

Run from the root of a checkout whose documents are the reference: later
commits must print the same bytes (run.py counts a differing document as a
failed job).  A job that fails its document check is not recorded and is
named on stderr.
"""

import json
import sys

import jobs
import run


def main() -> int:
    digests = {}
    for name in jobs.WORKLOADS:
        job_list = jobs.workload_jobs(name, jobs.DEFAULT_SEED)
        _, report = run.spawn(job_list, trace=False)
        for argv, job in zip(job_list, report["jobs"]):
            problem = jobs.check_job(argv, job["status"], job["stdout"], {})
            if problem is None:
                digests[jobs.job_key(argv)] = jobs.digest(job["stdout"])
            else:
                print(f"not recorded: {jobs.job_key(argv)}: {problem}", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
