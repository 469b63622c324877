"""Long-run statistics from a single long trajectory.

A long embedded-chain trace under the solved policy yields the empirical
stationary distribution, the time spent in each server activity, the
work-fraction measure, and the share of visits that land on the
integerised optimal limit cycle.
"""

import numpy as np

from pollsys import (
    TabularPolicy,
    analyze_limit_cycle,
    build_smdp,
    exhaustive_start,
    limit_cycle_cells,
    occupancy,
    overall_stationary,
    policy_iteration,
    simulate_trace,
    validate_scenario,
)
from pollsys.cli import load_scenario

X = 20
cfg = load_scenario("asym_var", {"X1": X, "X2": X, "N1": X, "N2": X})
rep = validate_scenario(cfg)

smdp = build_smdp(cfg)
table = smdp.decision_table(policy_iteration(smdp, exhaustive_start(smdp)).actions)
trace = simulate_trace(cfg, TabularPolicy(table, X, X), T=100000.0, seed=7,
                       x0=(0, 0, 0))
print(f"trace: {len(trace)} embedded epochs over {trace.t[-1]:.0f} time units")

cycle = analyze_limit_cycle(cfg)
shares, freq = occupancy(trace, cfg, limit_cycle_cells(cycle))
print(f"\ntime shares: idle {shares['phi_idle']:.4f}  serve {shares['phi_serve']:.4f}  "
      f"switch {shares['phi_switch']:.4f}")
print(f"the serving share equals the utilisation rho = {rep.rho:.4f} "
      "for any stable policy")
print(f"work fraction (serve-share-weighted service times): "
      f"{shares['work_fraction']:.4f} > rho")

at_q1 = sum(f for (_, _, l1), f in freq.items() if l1 == 0)
print(f"\nembedded chain: {len(freq)} distinct states visited; "
      f"server at queue 1 for {at_q1:.4f} of the epochs, queue 2 for {1 - at_q1:.4f}")
top = sorted(freq.items(), key=lambda kv: -kv[1])[:8]
for state, f in top:
    print(f"  {state}: {f:.4f}")

print(f"\nlimit cycle: {cycle.kind.value}")
print(f"share of embedded visits on the integerised cycle: {shares['phi_star']:.4f}")

# embedded -> time-stationary conversion on a two-state toy
phi_time = overall_stationary(np.array([0.5, 0.5]), np.array([1.0, 3.0]))
print(f"\nembedded (0.5, 0.5) with mean holding times (1, 3) occupies "
      f"time shares {phi_time.round(4)}")
