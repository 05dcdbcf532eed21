"""rfharvest benchmark: one workload, timed through the package's CLI.

Run from the repository root:

    python3 perfbench/run.py --workload pt-wide --seed 1 --seconds 30 --trace 0

The workload's command set is repeated until ``--seconds`` have passed.
Each repeat runs in a fresh interpreter (``session.py``) that imports the
package from ``src`` (as ``PYTHONPATH=src`` does), reports when it is ready,
and calls the entry point ``rfharvest.cli.main`` once per command, timing
each part of the workload on its own.  Outputs are checked after the first
repeat; later repeats must reproduce its files byte for byte.  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` spends half the time
untraced and half with every layer wrapped in spans, and prints the
per-layer metrics.  The last line of standard output is one JSON object;
the line before it records the environment, the inputs and a digest of the
outputs.  README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracer import ESTIMATORS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")
WORK_ROOT = ".bench_work"
SESSION_TIMEOUT_S = 170.0
RSS_POLL_S = 0.1  # how often the pool workers' peak resident sets are read
ANALYTICS_FNS = ("transmission_probability", "zone_probabilities", "outage_primary",
                 "outage_secondary")
SOLVERS = ("optimize.solve_p1_closed_form", "optimize.solve_p1_numeric", "optimize.solve_p2")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    watched = ("RFH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "vars": {k: os.environ[k] for k in watched if k in os.environ},
            "malloc_vars": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")}}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_children_hwm(pid: int, peaks: dict[int, int]) -> None:
    """Record the peak resident set (kB) of each live child of ``pid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid != pid:
                continue
            with open(f"/proc/{entry}/status", encoding="ascii") as fh:
                hwm = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
        except (OSError, StopIteration, ValueError, IndexError):
            continue  # the process ended while it was read
        peaks[int(entry)] = max(peaks.get(int(entry), 0), hwm)


class Runner:
    """Repeats one workload's command set and keeps per-repeat figures."""

    def __init__(self, work, trace_dir: str):
        self.work = work
        self.parts = work.parts
        self.trace_dir = trace_dir
        n = len(self.parts)
        self.outcomes = [None] * n
        self.digests = [None] * n
        self.attempted = [0] * n
        self.failed = [0] * n
        self.reasons: list[str] = []
        self.totals = Tracer(trace_dir)  # sums the span files of traced repeats

    def repeat(self, traced: bool) -> dict:
        for path in self.work.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        request = {"parts": [part.commands() for part in self.parts],
                   "trace_dir": self.trace_dir if traced else None}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p))
        worker_peaks: dict[int, int] = {}
        start = time.monotonic()
        with subprocess.Popen([sys.executable, SESSION, json.dumps(request)], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready = json.loads(proc.stdout.readline() or "{}").get("ready")
                while True:
                    try:
                        proc.wait(timeout=RSS_POLL_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() - start > SESSION_TIMEOUT_S:
                            raise
                        _read_children_hwm(proc.pid, worker_peaks)
                lines = proc.stdout.read().strip().splitlines()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or ready is None or not lines:
            raise RuntimeError(f"session exited with code {proc.returncode}")
        rep = json.loads(lines[-1])
        rep["setup"] = ready - start
        rep["rss_kb"] += sum(worker_peaks.values())
        if traced:
            self.totals.merge_workers()
        for i, part in enumerate(rep["parts"]):
            self._account(i, part["ok"])
        return rep

    def _account(self, i: int, ran: bool) -> None:
        part = self.parts[i]
        if not ran:
            return self._fail_all(i, f"{part.name}: command failed")
        try:
            digest = _digest(part.outputs)
        except OSError as exc:
            return self._fail_all(i, f"{part.name}: output missing: {exc}")
        if self.outcomes[i] is None:
            try:
                self.outcomes[i] = part.check()
            except Exception:  # malformed output fails this part's operations
                traceback.print_exc()
                return self._fail_all(i, f"{part.name}: output check raised")
            self.digests[i] = digest
            self.reasons += self.outcomes[i].reasons
        elif digest != self.digests[i]:
            return self._fail_all(i, f"{part.name}: outputs differ from the first repeat")
        self.attempted[i] += self.outcomes[i].attempted
        self.failed[i] += self.outcomes[i].failed

    def _fail_all(self, i: int, reason: str) -> None:
        self.attempted[i] += self.parts[i].ops
        self.failed[i] += self.parts[i].ops
        self.reasons.append(reason)

    def loop(self, seconds: float, traced: bool = False) -> list[dict]:
        """Repeat until the next repeat would overrun ``seconds`` (at least once)."""
        deadline = time.perf_counter() + seconds
        reps = []
        while True:
            t0 = time.perf_counter()
            reps.append(self.repeat(traced))
            reps[-1]["elapsed"] = time.perf_counter() - t0
            typical = statistics.median(r["elapsed"] for r in reps)
            if time.perf_counter() + typical > deadline:
                return reps

    def info(self) -> dict:
        """The check details of every part, merged."""
        merged = {}
        for outcome in self.outcomes:
            if outcome is not None:
                merged.update(outcome.info)
        return merged

    def rate(self, reps: list[dict], key: str) -> float:
        """``key`` delivered per second of the parts that deliver it."""
        idx = [i for i, o in enumerate(self.outcomes) if o is not None and o.info.get(key)]
        if not idx:
            return 0.0
        wall = statistics.median(sum(r["parts"][i]["wall"] for i in idx) for r in reps)
        return sum(self.outcomes[i].info[key] for i in idx) / wall


def _total(rep: dict, key: str) -> float:
    return sum(part[key] for part in rep["parts"])


def end_to_end(runner: Runner, reps: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(r["setup"] for r in reps), "s"),
        "wall_s": (statistics.median(_total(r, "wall") for r in reps), "s"),
        "samples_per_s": (runner.rate(reps, "samples"), "1/s"),
        "points_per_s": (runner.rate(reps, "points"), "1/s"),
        "cpu_s": (statistics.median(_total(r, "cpu") for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in reps) / 1024.0, "MiB"),
        # The worst part: a part with few operations (figure 9) is not
        # outweighed by one with many (the design sweep).
        "ok_frac": (min(1.0 - f / a for a, f in zip(runner.attempted, runner.failed)), "frac"),
    }


def per_layer(runner: Runner, plain: list[dict], traced: list[dict]) -> dict:
    spans, counters = runner.totals.spans, runner.totals.counters
    n = len(traced)

    def per_call_us(name):
        s = spans.get(name)
        return s.total_s / s.calls * 1e6 if s and s.calls else 0.0

    step = spans.get("sim.step")
    steps = step.calls if step else 0
    pairs = counters.get("sim.step.pairs", 0.0)
    measured = counters.get("sim.rejection_slots_measured", 0.0)
    pool_s = counters.get("cli.pool.worker_s", 0.0)
    solver_calls = sum(spans[s].calls for s in SOLVERS if s in spans)
    main = spans.get("cli.main")
    m = {
        "sim.step.us_per_call": (per_call_us("sim.step"), "us"),
        "sim.step.ns_per_pair": (step.total_s / pairs * 1e9 if pairs else 0.0, "ns"),
        "sim.step.pairs": (pairs / steps if steps else 0.0, "count"),
        "sim.step.bytes_computed": (8.0 * pairs / steps if steps else 0.0, "B"),
        "sim.step.minflt_per_call": (counters.get("sim.step.minflt", 0.0) / steps
                                     if steps else 0.0, "count"),
        "proc.sys_s": (statistics.median(_total(r, "sys") for r in plain), "s"),
        "sim.estimator.self_s": (sum(spans[f"sim.{e}"].self_s for e in ESTIMATORS
                                     if f"sim.{e}" in spans) / n, "s"),
        "sim.warmup_frac": (1.0 - counters.get("sim.slots_measured", 0.0) / steps
                            if steps else 0.0, "frac"),
        "sim.accept_frac": (counters.get("sim.rejection_slots_kept", 0.0) / measured
                            if measured else 1.0, "frac"),
        "cli.pool.util": (counters.get("cli.pool.child_cpu_s", 0.0) / pool_s
                          if pool_s else 0.0, "frac"),
        "cli.main.self_s": (main.self_s / n if main else 0.0, "s"),
    }
    for fn in ANALYTICS_FNS:
        m[f"analytics.{fn}.us_per_call"] = (per_call_us(f"analytics.{fn}"), "us")
    m["optimize.solve_p1_numeric.us_per_call"] = (per_call_us("optimize.solve_p1_numeric"), "us")
    m["optimize.infeasible_frac"] = (sum(spans[s].errors for s in SOLVERS if s in spans)
                                     / solver_calls if solver_calls else 0.0, "frac")
    geometry = spans.get("params.charging_geometry")
    m["params.charging_geometry.calls"] = (geometry.calls / n if geometry else 0.0, "count")
    m["trace.overhead_frac"] = (statistics.median(_total(r, "wall") for r in traced)
                                / statistics.median(_total(r, "wall") for r in plain) - 1.0,
                                "frac")
    m["sim.outage_secondary.max_gap_hw"] = (runner.info().get("secondary_max_gap_hw", 0.0),
                                            "ratio")
    return m


def battery_probe(runner: Runner) -> tuple[float, str]:
    """``battery.build_chain`` per call, from the C1 check's library calls.

    The CLI does not call the chain solver; the design sweep's check does, so
    the checks are run once more in this process under the tracer.
    """
    tracer = runner.totals
    tracer.install()
    try:
        for part, outcome in zip(runner.parts, runner.outcomes):
            if outcome is not None:
                part.check()
    finally:
        tracer.uninstall()
    s = tracer.spans.get("battery.build_chain")
    return (s.total_s / s.calls * 1e6 if s and s.calls else 0.0, "us")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "rfharvest", "cli.py")):
        print("perfbench: src/rfharvest not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = environment()
    if env["malloc_vars"]:
        # Allocator tuning halves simulator wall time; it must not pass for a code gain.
        print(f"perfbench: refusing to run with {sorted(env['malloc_vars'])} set",
              file=sys.stderr)
        return 3
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(work_dir, "spans")
    os.makedirs(trace_dir)
    try:
        work = WORKLOADS[args.workload](args.seed, work_dir)
        os.environ.update(work.env)
        env["vars"].update(work.env)
        runner = Runner(work, trace_dir)
        if args.trace:
            plain = runner.loop(args.seconds / 2)
            traced = runner.loop(args.seconds / 2, traced=True)
            metrics = per_layer(runner, plain, traced)
            metrics["battery.build_chain.us_per_call"] = battery_probe(runner)
            reps = plain + traced
        else:
            reps = runner.loop(args.seconds)
            metrics = end_to_end(runner, reps)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    digest = hashlib.sha256("".join(d or "" for d in runner.digests).encode()).hexdigest()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs": work.describe(), "repeats": len(reps),
            "setups_s": [r["setup"] for r in reps],
            "part_walls_s": [[p["wall"] for p in r["parts"]] for r in reps],
            "rss_mb": [r["rss_kb"] / 1024.0 for r in reps],
            "digest": digest, "check": runner.info(), "failures": runner.reasons[:5],
            "env": env}
    failed = sum(runner.failed)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": sum(runner.attempted),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
