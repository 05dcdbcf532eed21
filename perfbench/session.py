"""One repeat of a workload's command set, in a fresh interpreter.

    python3 perfbench/session.py '<request JSON>'

``run.py`` starts one session per repeat, so every repeat begins, as a
user's ``rfharvest`` run does, with a fresh interpreter and a fresh heap;
the commands of one repeat share them.  The request lists the CLI argument lists of each part of the
workload and, for a traced repeat, the directory the span totals go to.
The session imports the package and loads the example config, prints
``ready`` with the monotonic clock, runs the commands through
``rfharvest.cli.main`` and prints one JSON line: per part, the wall, CPU
and system time of its commands (pool workers included) and whether every
command succeeded, and its own peak resident set.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_usage() -> tuple[float, float]:
    """(user+sys, sys) seconds of this process plus its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime, s.ru_stime + c.ru_stime


def _peak_rss_kb() -> int:
    """This process's peak resident set since exec.

    ``ru_maxrss`` is not used: after exec it still holds the peak of the
    forked copy of the parent, i.e. of ``run.py``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def main() -> int:
    request = json.loads(sys.argv[1])
    import rfharvest.cli as cli
    from rfharvest import load_params

    load_params("configs/example.json", warn=False)
    print(json.dumps({"ready": time.monotonic()}), flush=True)

    tracer = None
    if request["trace_dir"]:
        from tracer import Tracer

        tracer = Tracer(request["trace_dir"])
        tracer.install()
    parts = []
    for commands in request["parts"]:
        cpu0, sys0 = _cpu_usage()
        t0 = time.perf_counter()
        ok = True
        for argv in commands:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    ok = cli.main(argv) == 0 and ok
            except Exception:  # a crash fails this part's operations, not the run
                traceback.print_exc()
                ok = False
        wall = time.perf_counter() - t0
        cpu1, sys1 = _cpu_usage()
        parts.append({"wall": wall, "cpu": cpu1 - cpu0, "sys": sys1 - sys0, "ok": ok})
    if tracer is not None:
        tracer.flush()
    print(json.dumps({"parts": parts, "rss_kb": _peak_rss_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
