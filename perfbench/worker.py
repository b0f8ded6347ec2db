"""One round of benchmark jobs, in a fresh interpreter.

    python3 worker.py SPEC.json RESULT.json
    python3 worker.py --cli SUMMARY.json T_SPAWN TRACE ARGV...

The first form is started by run.py once per round.  It imports capbound
from the checkout's `src`, runs the jobs of SPEC one at a time (closed
loop) and writes timings, resource use and raw outputs to RESULT.  With
"trace" set it wraps the capbound modules in spans first.  With
"setup_only" set it stops once it is ready to run the first job.

The second form stands in for `python -m capbound.cli ARGV` in a workload
that starts one CLI process per job: it imports capbound.cli and runs
`main(ARGV)` under the speed sampler (and the tracer when TRACE is 1),
then writes the samples (and the tracer summary) to SUMMARY.

While jobs run, `SpeedSampler` times a fixed reference loop every
CAL_PERIOD_S of CPU time.  CPU speed on a shared host drifts by a quarter
or more within seconds, as other tenants come and go; the samples say how
fast the machine ran while the jobs ran, so run.py can state job time at
one fixed reference speed.

Outputs are converted to JSON only after the last job ends.  Integers
travel as hex strings, which have no length limit.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

CAL_PERIOD_S = 0.05  # CPU seconds between two speed samples


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def reference_loop() -> int:
    """Fixed pure-Python work (about 1 ms), timed to sample CPU speed."""
    total = 0
    table = {}
    for i in range(6000):
        total += i * i % 7
        table[i & 255] = total
    return total


def speed_sample() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times reference_loop every CAL_PERIOD_S of this process's CPU time.

    SIGVTALRM interrupts whatever job is running, so the samples fall
    inside the jobs, spread evenly over their CPU time.  `wall` totals the
    samples taken between start() and stop(), for the caller to take off
    the jobs' wall and CPU time (the loop is pure CPU; the process CPU
    clock ticks too coarsely to time a 1 ms sample by itself).  The
    sample taken at start() and the one at stop() lie outside that span
    and count only as samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        took = speed_sample()
        self.wall += took
        self.samples.append(took)

    def start(self) -> None:
        self._sample()
        self.wall = 0.0
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        wall = self.wall
        self._sample()
        self.wall = wall

    def merge(self, summary: dict) -> None:
        """Add the samples of a CLI child, whose time lies inside a job."""
        self.samples += summary["samples"]
        self.wall += summary["wall"]

    def summary(self) -> dict:
        return {"samples": self.samples, "wall": self.wall}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


def to_json(value):
    if isinstance(value, bool) or value is None or isinstance(value,
                                                              (str, float)):
        return value
    if isinstance(value, int):
        return hex(value)
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return repr(value)


def resolve(name: str):
    """A public capbound function by name, from the package or any of its
    submodules, so a job survives functions moving between modules."""
    package = importlib.import_module("capbound")
    for info in [None, *pkgutil.iter_modules(package.__path__)]:
        module = package if info is None else importlib.import_module(
            f"capbound.{info.name}")
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type):
            return obj
    raise AttributeError(f"capbound has no function {name}")


def _install_tracer():
    sys.path.insert(0, HERE)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def run_round(spec: dict) -> dict:
    t_spawn = spec["t_spawn"]
    # Set-up gets speed samples of its own: two before the imports and two
    # after them.
    setup_samples = [speed_sample(), speed_sample()]
    jobs = spec["jobs"]
    in_process = any(job["kind"] != "proc" for job in jobs)
    if in_process:
        sys.path.insert(0, spec["src"])
        import capbound  # noqa: F401
        if any(job["kind"] == "cli" for job in jobs):
            import capbound.cli  # noqa: F401
    t_imported = now()
    tracer = _install_tracer() if spec["trace"] and in_process else None
    # Looked up after the tracer is installed, so traced rounds call the
    # wrapped functions.
    cli = sys.modules.get("capbound.cli")
    funcs = {job["fn"]: resolve(job["fn"]) for job in jobs
             if job["kind"] == "lib"}
    setup_samples += [speed_sample(), speed_sample()]
    if spec["setup_only"]:
        return {"t_ready": now(), "setup_samples": setup_samples}
    env = dict(os.environ, PYTHONPATH=spec["src"])
    signal.signal(signal.SIGALRM, _alarm)
    deadline = spec["deadline"]
    raw, records, summaries = [], [], []
    sampler = SpeedSampler()

    sampler.start()
    cpu0 = cpu_seconds()
    t_first = now()
    for index, job in enumerate(jobs):
        record = {"exit": None, "error": None}
        start = now()
        remaining = deadline - start
        if remaining <= 0:
            record["error"] = "timeout"
            raw.append(None)
            records.append(dict(record, t0=start, t1=start))
            continue
        if tracer is not None:
            tracer.job = index
        try:
            if job["kind"] == "proc":
                out = _run_proc(job, spec, env, remaining, index, summaries,
                                sampler)
                record["exit"], record["stdout"], record["stderr"] = out
                raw.append(None)
            else:
                signal.setitimer(signal.ITIMER_REAL, remaining)
                try:
                    if job["kind"] == "cli":
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            try:
                                record["exit"] = cli.main(job["argv"])
                            except SystemExit as exc:
                                record["exit"] = exc.code
                        record["stdout"] = out.getvalue()
                        record["stderr"] = err.getvalue()[-2000:]
                        raw.append(None)
                    else:
                        raw.append(funcs[job["fn"]](*job["args"]))
                        record["exit"] = 0
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (JobTimeout, subprocess.TimeoutExpired):
            record["error"] = "timeout"
            raw.append(None)
        except Exception as exc:  # a raising job is a failed job
            record["error"] = f"{type(exc).__name__}: {exc}"
            raw.append(None)
        records.append(dict(record, t0=start, t1=now()))
    t_last = now()
    cpu1 = cpu_seconds()
    sampler.stop()

    for record, value in zip(records, raw):
        if value is not None:
            record["value"] = to_json(value)
    result = {"t_spawn": t_spawn, "t_imported": t_imported,
              "t_first": t_first, "t_last": t_last, "cpu_s": cpu1 - cpu0,
              "peak_rss_kb": peak_rss_kb(), "cal": sampler.summary(),
              "setup_samples": setup_samples,
              "jobs": records}
    if tracer is not None:
        tracer.finish_rows()
        tracer.write_spans(spec["span_path"])
        summaries.append(dict(tracer.summary(),
                              startup_s=t_imported - t_spawn))
    if spec["trace"]:
        result["trace"] = summaries
    return result


def _run_proc(job, spec, env, remaining, index, summaries, sampler):
    path = f"{spec['span_path']}.{index}.json"
    if os.path.exists(path):
        os.remove(path)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--cli", path,
            repr(now()), "1" if spec["trace"] else "0", *job["argv"]]
    done = subprocess.run(argv, env=env, cwd=spec["root"], capture_output=True,
                          text=True, timeout=remaining)
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    sampler.merge(child["cal"])
    if spec["trace"]:
        summaries.append(child["trace"])
    return done.returncode, done.stdout, done.stderr[-2000:]


def cli_child(summary_path: str, t_spawn: float, traced: bool,
              argv: list[str]) -> int:
    sampler = SpeedSampler()
    sampler.start()
    code, tracer = 1, None
    try:
        import capbound.cli
        t_imported = now()
        if traced:
            tracer = _install_tracer()
            tracer.job = 0
        try:
            code = capbound.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    finally:
        sampler.stop()
        # The whole child lies inside the worker's job, so every sample's
        # time, the first and the last too, comes off that job.
        summary = {"cal": {"samples": sampler.samples,
                           "wall": sum(sampler.samples)}}
        if tracer is not None:
            tracer.finish_rows()
            tracer.write_spans(summary_path + ".spans")
            summary["trace"] = dict(tracer.summary(),
                                    startup_s=t_imported - t_spawn)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


def main() -> int:
    if sys.argv[1] == "--cli":
        return cli_child(sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1",
                         sys.argv[5:])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_round(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
