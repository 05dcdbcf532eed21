"""Run every workload over several seeds and summarise the metrics.

    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this runs ``run.py`` untraced once per
seed 1..``--seeds`` and traced once with seed 1, then writes each metric's
values, median, quartiles and spread (interquartile distance over the
median) to ``--out``.  A change that
claims a gain quotes this file for its parent and for itself, measured on
the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--tier1-wall-s", type=float, default=None,
                    help="tier-1 test wall time measured separately, recorded as given")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.seeds + 1)
    report = {"seconds": args.seconds, "seeds": list(seeds), "workloads": {}}
    for name in workloads:
        runs = []
        for seed in seeds:
            info, result = run_once(name, seed, args.seconds, 0)
            runs.append(result)
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  file=sys.stderr)
        info_t, traced = run_once(name, seeds[0], args.seconds, 1)
        report["env"] = info["env"]
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "digest_first_seed": info_t["digest"],
            "end_to_end": {m["name"]: dict(summarise([r["metrics"][m["name"]]["value"]
                                                      for r in runs]), unit=m["unit"])
                           for m in bench["end_to_end"]},
            "per_layer": {k: v for k, v in traced["metrics"].items()},
        }
    if args.tier1_wall_s is not None:
        report["tier1_wall_s"] = args.tier1_wall_s
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, w in report["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:13s} {metric:12s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
