"""capbound benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a capbound checkout; it imports the program from
`src` and writes scratch files and a record of the run under
`.bench_build/perfbench`.  Workloads: oracle, rows-cold, sweep,
proof-core (see NOTES.md).  `--smoke` shrinks every workload to a few
seconds, for the self-tests.

A run is a sequence of rounds.  Each round builds the workload's inputs,
starts a fresh worker interpreter (worker.py) that runs every job one at
a time, and then checks every output against the oracles (oracles.py),
outside the timed span.  Rounds repeat while another one fits in
--seconds; the metrics are medians over rounds.  Set-up is also measured
by a few extra set-up-only starts, so its median has several samples even
when a round is long.

Times are stated at a fixed reference speed.  The worker samples the
machine's speed all through the jobs (worker.SpeedSampler); a round's
wall and CPU time, less what the samples cost, are scaled by
CAL_REF_S / (mean sample time), that is, to the speed at which the
reference loop takes CAL_REF_S.  Set-up time is scaled in the same way
by speed samples the worker takes during its set-up.  The plain times
are printed as comments and kept in the run's record.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics of the traced ones,
plus the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import now  # noqa: E402

SETUP_PROBES = 5
CAL_REF_S = 0.001  # reference-loop time that defines the reference speed
RUN_LIMIT_S = 165.0

LAYERS = ("qnomial", "capsearch", "verifier", "bounds", "asymptotics",
          "fixedpoint", "cli")
COUNTED_LAYERS = ("qnomial", "capsearch", "verifier", "bounds")
STAGES = (("verifier.nullspace_s", "verifier.vanishing_space_basis"),
          ("verifier.pair_matrix_s", "verifier.product_matrix"),
          ("verifier.rank_s", "verifier.rank_mod_p"),
          ("verifier.support_s", "verifier.support_size"),
          ("asymptotics.saddle_s", "asymptotics.saddle_point"),
          ("asymptotics.recurrence_s", "asymptotics.verify_recurrence"),
          ("asymptotics.ratio_s", "asymptotics.growth_constant_ratio"),
          ("asymptotics.normalized_s", "asymptotics.normalized_sharp_bound"))
UNITS = {"peak_rss_mb": "MB", "coeff_bits": "bits", "nodes_per_s": "1/s",
         "report_bytes": "bytes"}


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.work, exist_ok=True)
        self.deadline = now() + RUN_LIMIT_S

    def jobs(self) -> list[dict]:
        return workloads.make_jobs(self.args.workload, self.args.seed,
                                   self.args.smoke, self.work)

    def spawn(self, jobs: list[dict], traced: bool, setup_only: bool):
        """Run one worker round; None if it crashed or ran out of time."""
        tag = self.args.workload
        spec_path = os.path.join(self.work, f"spec_{tag}.json")
        result_path = os.path.join(self.work, f"result_{tag}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {"jobs": jobs, "trace": traced, "setup_only": setup_only,
                "src": self.src, "root": self.root,
                "deadline": self.deadline,
                "span_path": os.path.join(self.work, f"spans_{tag}.json"),
                "t_spawn": now()}
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        # A process group of its own, so a timeout kills the worker and any
        # CLI child of it.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             result_path], cwd=self.root, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(
                timeout=max(self.deadline - now() + 5.0, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "worker timed out"
        if proc.returncode != 0 or not os.path.exists(result_path):
            return None, f"worker exit {proc.returncode}: {err[-500:]}"
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), None

    def setup_probe(self) -> float | None:
        start = now()
        result, _ = self.spawn(self.jobs(), False, True)
        if result is None:
            return None
        return at_ref_speed(result["t_ready"] - start,
                            result["setup_samples"])

    def round(self, traced: bool) -> dict:
        start = now()
        jobs = self.jobs()
        result, error = self.spawn(jobs, traced, False)
        if result is None:
            return {"traced": traced, "attempted": len(jobs),
                    "failed": len(jobs), "problems": {"all": [error]},
                    "duration": now() - start}
        outputs = result["jobs"]
        problems = oracles.check_round(jobs, outputs)
        bad = {i: p for i, p in enumerate(problems) if p}
        report_bytes = sum(len(o.get("stdout") or "") for o in outputs)
        cal = result["cal"]
        wall = result["t_last"] - result["t_first"] - cal["wall"]
        cpu = result["cpu_s"] - cal["wall"]
        return {"traced": traced, "attempted": len(jobs), "failed": len(bad),
                "problems": {describe(jobs[i]): p for i, p in bad.items()},
                "setup_s": at_ref_speed(result["t_first"] - start,
                                        result["setup_samples"]),
                "wall_s": wall, "cpu_s": cpu,
                "speed_samples": cal["samples"],
                "wall_ref_s": at_ref_speed(wall, cal["samples"]),
                "cpu_ref_s": at_ref_speed(cpu, cal["samples"]),
                "peak_rss_mb": result["peak_rss_kb"] / 1024,
                "job_s": [o["t1"] - o["t0"] for o in outputs],
                "layers": (layer_metrics(result["trace"], report_bytes)
                           if traced else None),
                "duration": now() - start}

    def run(self) -> tuple[list[dict], list[float]]:
        setups = [s for s in (self.setup_probe() for _ in range(SETUP_PROBES))
                  if s is not None]
        rounds: list[dict] = []
        started = now()
        for traced in itertools.cycle([False, True] if self.args.trace
                                      else [False]):
            rounds.append(self.round(traced))
            last = max(r["duration"] for r in rounds[-2:])
            missing = self.args.trace and len(rounds) < 2
            if not missing and now() - started + last > self.args.seconds:
                break
            if now() + last > self.deadline:
                break
        return rounds, setups


def at_ref_speed(seconds: float, samples: list[float]) -> float:
    """A time at the speed where the reference loop takes CAL_REF_S."""
    return seconds * CAL_REF_S / statistics.fmean(samples)


def describe(job: dict) -> str:
    if job["kind"] == "lib":
        return f"{job['fn']}{tuple(job['args'])}"
    return " ".join(job["argv"])


def layer_metrics(summaries: list[dict], report_bytes: int) -> dict:
    """Per-layer metrics of one traced round, summed over its processes."""
    self_s, calls, stage_s, counters = {}, {}, {}, {}
    startup = 0.0
    for s in summaries:
        for key, total in (("self_s", self_s), ("calls", calls),
                           ("stage_s", stage_s), ("counters", counters)):
            for name, value in s[key].items():
                total[name] = total.get(name, 0) + value
        startup += s["startup_s"]
    m = {}
    for layer in LAYERS:
        if layer in self_s:
            m[f"{layer}.self_s"] = self_s[layer]
    for layer in COUNTED_LAYERS:
        if layer in calls:
            m[f"{layer}.calls"] = calls[layer]
    requests = counters.get("row_requests", 0)
    if "qnomial.qnomial_row" in stage_s:
        m["qnomial.row_requests"] = requests
        m["qnomial.row_reuse_share"] = (counters["row_reused"] / requests
                                        if requests else 0.0)
        m["qnomial.ascending_share"] = (counters["row_ascending"] / requests
                                        if requests else 0.0)
        m["qnomial.coeff_bits"] = counters["coeff_bits"]
    if "capsearch.max_capset" in stage_s:
        m["capsearch.nodes"] = counters["nodes"]
        busy = self_s.get("capsearch", 0.0)
        m["capsearch.nodes_per_s"] = counters["nodes"] / busy if busy else 0.0
    for metric, fn in STAGES:
        if fn in stage_s:
            m[metric] = stage_s[fn]
    if "verifier.verify_support_bound" in stage_s:
        for key in ("dim_v_total", "eval_count", "nullspace_cells"):
            m[f"verifier.{key}"] = counters[key]
    m["cli.startup_s"] = startup
    m["cli.report_bytes"] = report_bytes
    return m


def unit_of(name: str) -> str:
    base = name.rsplit(".", 1)[-1]
    if base in UNITS:
        return UNITS[base]
    if base.endswith("_share"):
        return "share"
    return "s" if base.endswith("_s") else "count"


def summarize(args, rounds: list[dict], setups: list[float]) -> dict:
    plain = [r for r in rounds if not r["traced"] and "wall_s" in r]
    traced = [r for r in rounds if r["traced"] and "wall_s" in r]
    metrics = {}
    if not args.trace and plain:
        setups = setups + [r["setup_s"] for r in plain]
        values = {"wall_ref_s": [r["wall_ref_s"] for r in plain],
                  "cpu_ref_s": [r["cpu_ref_s"] for r in plain],
                  "setup_s": setups,
                  "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        metrics = {k: statistics.median(v) for k, v in values.items()}
    elif args.trace and plain and traced:
        names = sorted(set().union(*(r["layers"] for r in traced)))
        metrics = {k: statistics.median(r["layers"][k] for r in traced
                                        if k in r["layers"]) for k in names}
        metrics["trace.overhead_share"] = (
            statistics.median(r["wall_ref_s"] for r in traced)
            / statistics.median(r["wall_ref_s"] for r in plain) - 1.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, for self-tests")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "capbound", "cli.py")):
        print("error: run from the root of a capbound checkout "
              "(src/capbound/cli.py not found)", file=sys.stderr)
        return 2

    bench = Bench(args, root)
    rounds, setups = bench.run()
    metrics = summarize(args, rounds, setups)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    provenance = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "smoke": args.smoke,
                  "seconds": args.seconds, "commit": git_commit(root),
                  "python": platform.python_version(),
                  "nproc": os.cpu_count(), "platform": platform.platform()}
    record = {"provenance": provenance, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "setup_probes_s": setups,
              "rounds": rounds}
    with open(os.path.join(bench.work, f"BENCH_{args.workload}_seed{args.seed}"
                                 f"_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"# rounds={len(rounds)} "
          f"(traced {sum(r['traced'] for r in rounds)}), "
          f"jobs per round={rounds[0]['attempted']}")
    for r in rounds:
        if "wall_s" in r:
            print(f"# round traced={int(r['traced'])} wall_s={r['wall_s']:.4f} "
                  f"cpu_s={r['cpu_s']:.4f} wall_ref_s={r['wall_ref_s']:.4f} "
                  f"cpu_ref_s={r['cpu_ref_s']:.4f} "
                  f"speed_samples={len(r['speed_samples'])} mean_sample_s="
                  f"{statistics.fmean(r['speed_samples']):.6f}")
        for job, problems in r["problems"].items():
            print(f"# FAIL {job}: {'; '.join(problems)}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:28s} {shown} {unit_of(name)}")
    print(f"{'fail_share':28s} {failed / attempted:.6g} share "
          f"({failed} failed of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics), "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
