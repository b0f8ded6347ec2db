"""Self-tests of the benchmark: oracles, smoke runs, corrupted outputs.

    python3 perfbench/selftest.py        (from the root of a checkout)

The file name keeps pytest from collecting it with the program's own
suite; the smoke runs take about half a minute.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def cli_output(argv: list[str]) -> dict:
    """A genuine output of capbound's CLI, as the worker records it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from capbound.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "error": None, "stdout": buf.getvalue()}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


class OracleTest(unittest.TestCase):
    def test_rows_three_ways(self):
        for q in (2, 3, 5, 8):
            for n in range(0, 12):
                r = oracles.row(n, q)
                self.assertEqual(sum(r), q**n)
                self.assertEqual(r, r[::-1])
                self.assertEqual(list(r), [oracles.coeff(n, k, q)
                                           for k in range(len(r))])
                self.assertEqual(oracles.prefix(n, len(r) // 2, q),
                                 sum(r[:len(r) // 2 + 1]))

    def test_known_values(self):
        self.assertEqual(oracles.sharp_value(3), 24)
        self.assertEqual(oracles.optimal_value(6), (7, 324))
        self.assertEqual(oracles.mpmath.nstr(oracles.alpha(19), 20),
                         "2.7551046130236330002")

    def test_cap_check(self):
        self.assertEqual(oracles.cap_problems([(0, 0), (0, 1), (1, 0),
                                               (1, 1)], 2), [])
        self.assertTrue(oracles.cap_problems([(0, 0), (1, 1), (2, 2)], 2))


class CorruptedOutputTest(unittest.TestCase):
    """A wrong answer must count as a failed job, not as a fast one."""

    def fail_share(self, jobs, outputs) -> float:
        problems = oracles.check_round(jobs, outputs)
        return sum(1 for p in problems if p) / len(jobs)

    def test_wrong_coefficient(self):
        jobs = [{"kind": "proc", "argv": ["qnomial", "--n", "12", "--k", "9",
                                          "--q", "4"]}]
        good = cli_output(jobs[0]["argv"])
        self.assertEqual(self.fail_share(jobs, [good]), 0)
        report = json.loads(good["stdout"])
        report["result"]["value"] = str(int(report["result"]["value"]) + 1)
        bad = dict(good, stdout=json.dumps(report))
        self.assertGreater(self.fail_share(jobs, [bad]), 0)

    def test_asymmetric_row(self):
        jobs = workloads.rows_cold_jobs(7, smoke=True)[1:3]
        jobs = [dict(j, pair=1 - i) for i, j in enumerate(jobs)]
        outputs = [cli_output(j["argv"]) for j in jobs]
        self.assertEqual(self.fail_share(jobs, outputs), 0)
        report = json.loads(outputs[1]["stdout"])
        report["result"]["value"] = "0"
        outputs[1] = dict(outputs[1], stdout=json.dumps(report))
        self.assertGreater(self.fail_share(jobs, outputs), 0)

    def test_non_cap_witness(self):
        jobs = [{"kind": "cli", "argv": ["search", "--n", "2"]}]
        good = cli_output(jobs[0]["argv"])
        self.assertEqual(self.fail_share(jobs, [good]), 0)
        report = json.loads(good["stdout"])
        report["result"]["witness"] = ["0 0", "1 1", "2 2", "0 1"]
        bad = dict(good, stdout=json.dumps(report))
        self.assertGreater(self.fail_share(jobs, [bad]), 0)

    def test_wrong_library_value_and_errors(self):
        job = {"kind": "lib", "fn": "sharp_bound", "args": [6]}
        good = {"exit": 0, "error": None,
                "value": {"value": hex(oracles.sharp_value(6)),
                          "identities": [["a", True], ["b", True]]}}
        self.assertEqual(self.fail_share([job], [good]), 0)
        wrong = {**good, "value": {**good["value"],
                                   "value": hex(oracles.sharp_value(6) - 1)}}
        for bad in (wrong, {**good, "error": "timeout"},
                    {"exit": None, "error": "ValueError: boom"}):
            self.assertGreater(self.fail_share([job], [bad]), 0)


class LayerMetricsTest(unittest.TestCase):
    def test_deleted_function_drops_its_stage_only(self):
        summary = {"self_s": {"verifier": 1.0}, "calls": {"verifier": 3},
                   "stage_s": {"verifier.vanishing_space_basis": 0.5,
                               "verifier.verify_support_bound": 1.0},
                   "counters": {"dim_v_total": 4, "eval_count": 10,
                                "nullspace_cells": 7}, "startup_s": 0.1}
        m = run.layer_metrics([summary], 0)
        self.assertEqual(m["verifier.nullspace_s"], 0.5)
        self.assertNotIn("verifier.rank_s", m)
        self.assertEqual(m["verifier.dim_v_total"], 4)


class SpeedSampleTest(unittest.TestCase):
    def test_samples_fall_inside_the_work_and_are_taken_off(self):
        import time
        from worker import CAL_PERIOD_S, SpeedSampler
        sampler = SpeedSampler()
        sampler.start()
        t0, c0 = time.perf_counter(), time.process_time()
        while time.process_time() - c0 < 20 * CAL_PERIOD_S:
            pass
        elapsed = time.perf_counter() - t0
        sampler.stop()
        # One sample at start, one at stop, and about one per period
        # between (the timer runs on clock ticks, so a few fewer).
        self.assertGreaterEqual(len(sampler.samples), 8)
        self.assertGreater(sampler.wall, 0.0)
        self.assertLess(sampler.wall, 0.5 * elapsed)

    def test_reference_speed(self):
        self.assertAlmostEqual(run.at_ref_speed(2.0, [run.CAL_REF_S] * 3),
                               2.0)
        self.assertAlmostEqual(run.at_ref_speed(2.0, [2 * run.CAL_REF_S]),
                               1.0)


class SmokeRunTest(unittest.TestCase):
    def result(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_untraced_and_traced(self):
        names = declared()
        self.assertEqual(names["workloads"], list(workloads.NAMES))
        for name in workloads.NAMES:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    out = self.result(bench("--workload", name, "--seed", "3",
                                            "--seconds", "1", "--trace", trace,
                                            "--smoke"))
                    self.assertEqual(set(out), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    wanted = names["per_layer" if trace == "1"
                                   else "end_to_end"]
                    self.assertEqual({k: m["unit"] for k, m in
                                      out["metrics"].items()}, wanted)

    def test_same_seed_same_inputs(self):
        work = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(work, exist_ok=True)
        for name in workloads.NAMES:
            first = workloads.make_jobs(name, 11, False, work)
            self.assertEqual(first, workloads.make_jobs(name, 11, False, work))

    def test_refuses_without_the_program(self):
        empty = os.path.join(ROOT, ".bench_build", "perfbench-empty")
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        try:
            proc = bench("--workload", "sweep", "--seed", "1", "--seconds",
                         "1", "--trace", "0", cwd=empty)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(empty, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
