"""Span tracing for the benchmark, installed from outside the package.

Every public function of the traced layers is wrapped, and the wrapper is
written into every ``rfharvest`` module namespace that holds the original,
because ``cli`` and ``sim`` bind names such as ``estimate_p_t`` and
``charging_geometry`` at import time.  ``SlotSimulator.step`` is wrapped on
the class.  Spans keep their totals in memory.  The traced session writes
its totals to its own file when its commands end, a pool worker (a forked
child) whenever its outermost span ends, and ``run.py`` merges those files
after each repeat of the workload.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import resource
import time
from collections import defaultdict

LAYERS = ("params", "analytics", "battery", "optimize", "sim", "cli")
ESTIMATORS = ("estimate_p_t", "estimate_outage", "outage_curve", "interference_samples")


class Span:
    """Totals of one span name: calls, inclusive time, time in traced children."""

    __slots__ = ("calls", "total_s", "child_s", "errors")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.errors = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def merge(self, data) -> None:
        self.calls += data["calls"]
        self.total_s += data["total_s"]
        self.child_s += data["child_s"]
        self.errors += data["errors"]


class Tracer:
    """In-memory span totals plus named counters for one process."""

    def __init__(self, flush_dir: str):
        self.flush_dir = flush_dir
        self.owner_pid = os.getpid()
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        # A forked pool worker starts with its parent's totals and open spans;
        # it must report only what it does itself.  Cleared in place, because
        # the wrappers hold references to these containers.
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    # -- spans -------------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                s = tracer.spans[name]
                s.calls += 1
                s.total_s += dt
                s.child_s += frame[0]
                s.errors += failed
                if after is not None and not failed:
                    after(result, args, kwargs)
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                elif os.getpid() != tracer.owner_pid:
                    tracer.flush()

        return traced

    def flush(self) -> None:
        """Write this worker's totals to its own file (overwriting earlier ones)."""
        path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.json")
        data = {"spans": {k: {"calls": v.calls, "total_s": v.total_s,
                              "child_s": v.child_s, "errors": v.errors}
                          for k, v in self.spans.items()},
                "counters": dict(self.counters)}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)

    def merge_workers(self) -> int:
        """Fold every worker file into this process's totals; returns the count."""
        paths = sorted(glob.glob(os.path.join(self.flush_dir, "worker-*.json")))
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            for name, s in data["spans"].items():
                self.spans[name].merge(s)
            for name, v in data["counters"].items():
                self.counters[name] += v
            os.remove(path)
        return len(paths)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer and ``SlotSimulator.step``."""
        modules = {layer: importlib.import_module(f"rfharvest.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("rfharvest")
        sim, cli = modules["sim"], modules["cli"]

        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.span(f"{layer}.{attr}", fn,
                                            self._after_hook(layer, attr, fn))
        wrapped[cli._pooled_map] = self._pool_span(cli)

        # Rebind every name that points at an original, wherever it was imported.
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

        step = sim.SlotSimulator.step
        self._saved.append((sim.SlotSimulator, "step", step))
        sim.SlotSimulator.step = self._step_span(step)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # -- layer-specific counters -------------------------------------------------

    def _after_hook(self, layer: str, attr: str, fn):
        if layer == "sim" and attr in ("estimate_p_t", "outage_curve", "interference_samples"):
            return self._count_slots(attr, fn)
        return None

    def _count_slots(self, attr: str, fn):
        """Measured and kept slots of one estimator call (warm-up is the rest)."""
        counters = self.counters
        signature = inspect.signature(fn)

        def after(result, args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            config = bound["config"]
            measured = config.n_replications * config.n_slots
            if attr == "interference_samples" and bound["mode"] in ("approx", "hppp-approx"):
                return  # draws fresh patterns; no dynamics run
            counters["sim.slots_measured"] += measured
            if (attr == "outage_curve" and bound["side"] == "secondary"
                    and bound.get("conditioning") in (None, "rejection")):
                counters["sim.rejection_slots_measured"] += measured
                counters["sim.rejection_slots_kept"] += result[0].n_samples

        return after

    def _step_span(self, step):
        """``SlotSimulator.step`` with pair counts and minor page faults."""
        counters = self.counters
        traced = self.span("sim.step", step)

        @functools.wraps(step)
        def step_with_counts(sim_self):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            traced(sim_self)
            counters["sim.step.minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            n_src = int(sim_self.pt_active.sum()) + (sim_self.dedicated_pt is not None)
            counters["sim.step.pairs"] += sim_self.n_st * n_src

        return step_with_counts

    def _pool_span(self, cli):
        """``cli._pooled_map`` with the CPU time its workers spent."""
        original = cli._pooled_map
        traced = self.span("cli.pool", original)
        tracer = self

        def pooled_map(fn, jobs):
            workers = min(cli._n_workers(), len(jobs))
            c0 = _children_cpu()
            t0 = time.perf_counter()
            result = traced(fn, jobs)
            wall = time.perf_counter() - t0
            if workers > 1:
                if not glob.glob(os.path.join(tracer.flush_dir, "worker-*.json")):
                    raise RuntimeError("pool workers left no spans; they must be forked "
                                       "with the spans installed")
                tracer.counters["cli.pool.worker_s"] += workers * wall
                tracer.counters["cli.pool.child_cpu_s"] += _children_cpu() - c0
            return result

        return pooled_map


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
