"""Fast self-test of run.py and worker.py on a tiny job list.

    python3 clibench/selftest.py

Run from the root of a checkout; takes a few seconds.
"""

import contextlib
import io
import json
import unittest

import jobs
import run
import tracer

TINY = [
    ["count", "--p", "2", "--system", "full", "--n", "10"],
    ["factor", "--p", "2", "--n", "15"],
    ["growth", "--p", "3", "--system", "example85", "--max-n", "6"],
]


def run_main(*argv) -> list[str]:
    jobs.WORKLOADS["tiny"] = lambda rng: TINY
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", "tiny", "--seconds", "0", *argv])
    finally:
        del jobs.WORKLOADS["tiny"]
    if status != 0:
        raise AssertionError(f"run.main exited {status}")
    return out.getvalue().splitlines()


class RunTest(unittest.TestCase):
    def test_prints_every_end_to_end_metric_with_unit(self):
        lines = run_main("--trace", "0")
        for name, unit in run.END_TO_END.items():
            self.assertTrue(
                any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
                f"{name} is not printed with unit {unit}",
            )
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for name in run.JSON_END_TO_END:
            self.assertEqual(result["metrics"][name]["unit"], run.END_TO_END[name])
            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        lines = run_main("--trace", "1")
        units = {**tracer.metric_units(), **run.TRACE_WALL, "trace.overhead_s": "s"}
        for name, unit in units.items():
            self.assertEqual(
                sum(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
                1, f"{name} is not printed once with unit {unit}",
            )
        result = json.loads(lines[-1])
        self.assertEqual(list(result["metrics"]), list(run.JSON_PER_LAYER))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
            self.assertGreater(metric["value"], 0, name)

    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {name: run.END_TO_END[name] for name in run.JSON_END_TO_END},
        )
        units = {**tracer.metric_units(), **run.TRACE_WALL}
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: units[name] for name in run.JSON_PER_LAYER},
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(jobs.WORKLOADS))

    def test_tampered_digest_counts_as_failed_job(self):
        _, report = run.spawn(TINY, trace=False)
        digests = {jobs.job_key(argv): jobs.digest(job["stdout"])
                   for argv, job in zip(TINY, report["jobs"])}
        self.assertEqual(run.run_workload(TINY, 0, False, digests).failed, 0)
        digests[jobs.job_key(TINY[1])] = "0" * 64
        tampered = run.run_workload(TINY, 0, False, digests)
        self.assertEqual((tampered.attempted, tampered.failed), (len(TINY), 1))
        self.assertFalse(tampered.correct)

    def test_any_failure_but_the_known_defect_is_incorrect(self):
        known = ["count", "--p", "2", "--system", "full", "--n", "20000"]
        self.assertIn(jobs.job_key(known), jobs.KNOWN_FAILING)
        cases = [
            (known, 2, True),
            (known, 1, False),
            (known, "exception", False),
            (TINY[0], 1, False),
            (TINY[0], 2, False),
            (TINY[0], "exception", False),
        ]
        for argv, status, correct in cases:
            run_ = run.Run([argv], {})
            job = {"status": status, "seconds": 0.1, "stdout": "", "stderr": ""}
            report = {"backend": "python", "jobs": [job], "peak_rss_kb": 1,
                      "reference_s": [run.REFERENCE_S] * 2}
            run_.add(0.1, report, traced=False)
            self.assertEqual((run_.attempted, run_.failed, run_.correct), (1, 1, correct),
                             (argv, status))

    def test_times_are_scaled_by_the_reference_loop(self):
        run_ = run.Run(TINY[:2], {})
        jobs_ = [{"status": 0, "seconds": 1.0, "stdout": "", "stderr": ""}] * 2
        slow = 2 * run.REFERENCE_S
        report = {"backend": "python", "jobs": jobs_, "peak_rss_kb": 1024,
                  "reference_s": [slow, slow, run.REFERENCE_S]}
        run_.add(0.2, report, traced=False)
        self.assertAlmostEqual(run_.end_to_end()["wall_s"], 0.5 + 1 / 1.5)
        self.assertAlmostEqual(run_.end_to_end()["setup_s"], 0.1)
        self.assertEqual(run_.unscaled(), {"wall_unscaled_s": 2.0, "setup_unscaled_s": 0.2})

    def test_invalid_job_in_a_worker_is_incorrect(self):
        invalid = [TINY[0], ["count", "--p", "4", "--system", "full", "--n", "10"]]
        result = run.run_workload(invalid, 0, False, {})
        self.assertEqual((result.attempted, result.failed), (2, 1))
        self.assertFalse(result.correct)

    def test_traced_and_untraced_documents_are_identical(self):
        _, plain = run.spawn(TINY, trace=False)
        _, traced = run.spawn(TINY, trace=True)
        self.assertEqual(
            [job["stdout"] for job in plain["jobs"]], [job["stdout"] for job in traced["jobs"]]
        )
        self.assertTrue(all(job["status"] == 0 for job in plain["jobs"]))

    def test_count_check_needs_the_exact_full_shift_count(self):
        argv = ["count", "--p", "2", "--system", "full", "--n", "5000"]
        good = json.dumps({"n": 5000, "e": 5000, "count": jobs._decimal(2**5000)},
                          separators=(",", ":"))
        self.assertIsNone(jobs.check_job(argv, 0, good, {}))
        self.assertIsNotNone(jobs.check_job(argv, 0, good.replace('"e":5000', '"e":4999'), {}))
        self.assertIsNotNone(jobs.check_job(argv, 2, "", {}))


if __name__ == "__main__":
    unittest.main(verbosity=2)
