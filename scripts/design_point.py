#!/usr/bin/env python3
"""Solve one deployment design point and sanity-check it by simulation.

Given a parameter file, finds the throughput-optimal transmit power and
density, then re-simulates the transmit probability at the optimal power to
show how tight the analytic value is.
"""

import argparse
import dataclasses
import sys

from rfharvest import SimConfig, estimate_p_t, load_params, solve, transmission_probability


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--replications", type=int, default=6)
    ap.add_argument("--slots", type=int, default=80)
    args = ap.parse_args()

    p = load_params(args.config)
    res = solve(p)

    print(f"optimal transmit power : {res.p_s_star:.6g}")
    print(f"active density         : {res.active_density:.6g}")
    print(f"deployment density     : {res.lambda_s_star:.6g}"
          + (f"  (interval {res.lambda_s_interval})" if res.lambda_s_interval else ""))
    print(f"throughput             : {res.throughput:.6g} bps/Hz/unit-area")
    print(f"binding constraints    : {', '.join(res.binding)}")

    at_opt = dataclasses.replace(p, power_s=res.p_s_star)
    tp = transmission_probability(at_opt)
    cfg = SimConfig(master_seed=args.seed, n_replications=args.replications,
                    n_slots=args.slots)
    est = estimate_p_t(at_opt, cfg)
    analytic = f"{tp.value:.5g}" if tp.exact else f"[{tp.lower:.5g}, {tp.upper:.5g}]"
    print(f"transmit probability   : analytic {analytic}, "
          f"simulated {est.mean:.5g} ± {est.half_width:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
