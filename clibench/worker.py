"""One benchmark worker: a fresh interpreter that runs CLI jobs in order.

    PYTHONPATH=src python3 clibench/worker.py SRC_DIR < request.json

The worker imports ``sintdyn.cli``, writes ``ready`` on a line of its own
(the parent times set-up up to that line), reads the request
``{"jobs": [argv, ...], "trace": bool}`` from stdin, calls
``sintdyn.cli.main(argv)`` for each job with stdout and stderr captured, and
writes one JSON result as the rest of its stdout.  It times a fixed
reference loop before the first job and after every job, so that the parent
can take out the host's changing speed.  It is started fresh for
every run, so the package's caches start cold.  It never changes
``sys.set_int_max_str_digits``: the CLI must meet the interpreter's default.
"""

import io
import json
import os
import resource
import sys
import time
import traceback

REFERENCE_LOOPS = 200_000


def reference_s() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    out, err = sys.stdout, sys.stderr
    from sintdyn import cli

    import sintdyn

    src_dir = os.path.realpath(sys.argv[1])
    if not os.path.realpath(sintdyn.__file__).startswith(src_dir + os.sep):
        err.write(f"worker: sintdyn was imported from {sintdyn.__file__}, not {src_dir}\n")
        return 1
    out.write("ready\n")
    out.flush()

    request = json.load(sys.stdin)
    run_job = cli.main
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_job = tracer.trace_job(cli.main)

    results = []
    references = [reference_s()]
    for argv in request["jobs"]:
        job_out, job_err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = job_out, job_err
        start = time.perf_counter()
        try:
            status = run_job(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            status = "exception"
            job_err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - start
            sys.stdout, sys.stderr = out, err
        results.append(
            {
                "status": status,
                "seconds": seconds,
                "stdout": job_out.getvalue(),
                "stderr": job_err.getvalue()[-2000:],
            }
        )
        references.append(reference_s())

    report = {
        "jobs": results,
        "reference_s": references,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": sintdyn.kernel_backend(),
    }
    if tracer is not None:
        doc_bytes = sum(len(job["stdout"].encode()) for job in results)
        report["layers"] = tracer.metrics(doc_bytes)
    json.dump(report, out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
