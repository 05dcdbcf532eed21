#!/usr/bin/env python3
"""Solve one deployment design point and sanity-check it by simulation.

Given a parameter file, finds the throughput-optimal transmit power and
density, then simulates the design (the optimal power at the optimal
density): the transmit probability against its analytic value, and each
outage constraint against its budget.  With guard zones (P1) those are the
primary outage against eps_p and the secondary outage, conditioned on the
transmitter being clear of guard zones, against eps_s; with dedicated
chargers (P2) the wit outage against eps_s.

The simulated outages come from a probe receiver at a typical location, as
the paper's forms describe them.  The outage at the receivers of the
transmitters that are actually active is not simulated yet (ROADMAP item
14(b)).
"""

import argparse
import dataclasses
import sys

from rfharvest import (SimConfig, estimate_outage, estimate_p_t, load_params, solve,
                       transmission_probability)


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

    at_opt = dataclasses.replace(p, power_s=res.p_s_star, lambda_s=res.lambda_s_star)
    tp = transmission_probability(at_opt)
    cfg = SimConfig(master_seed=args.seed, n_replications=args.replications,
                    n_slots=args.slots)
    est = estimate_p_t(at_opt, cfg)
    analytic = f"{tp.value:.5g}" if tp.exact else f"[{tp.lower:.5g}, {tp.upper:.5g}]"
    print(f"transmit probability   : analytic {analytic}, "
          f"simulated {est.mean:.5g} ± {est.half_width:.2g}")
    sides = ([("primary", "eps_p", p.eps_p), ("secondary", "eps_s", p.eps_s)] if p.r_g > 0
             else [("wit", "eps_s", p.eps_s)])
    for side, name, budget in sides:
        est = estimate_outage(at_opt, cfg, side)
        print(f"{side + ' outage':<23}: simulated {est.mean:.3g} ± {est.half_width:.2g}, "
              f"budget {name} {budget:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
