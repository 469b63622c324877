"""Long-run statistics from a single long trajectory.

A long embedded-chain trace under the solved policy yields the empirical
stationary distribution, the time spent in each server activity, the
work-fraction measure, and the share of visits that land on the
integerised optimal limit cycle.
"""

import numpy as np

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    TabularPolicy,
    action_time_fractions,
    analyze_limit_cycle,
    build_smdp,
    embedded_stationary,
    exhaustive_start,
    limit_cycle_occupancy,
    overall_stationary,
    policy_iteration,
    simulate_trace,
    validate_scenario,
)
from pollsys.cli import load_scenario
from pollsys.simulate import work_fraction

X = 20
cfg = load_scenario("asym_var", {"X1": X, "X2": X, "N1": X, "N2": X})
rep = validate_scenario(cfg)

smdp = build_smdp(cfg)
table = smdp.decision_table(policy_iteration(smdp, exhaustive_start(smdp)).actions)
trace = simulate_trace(cfg, TabularPolicy(table, X, X), T=100000.0, seed=7,
                       x0=(0, 0, 0))
print(f"trace: {len(trace)} embedded epochs over {trace.t[-1]:.0f} time units")

phi, total, T1, T2 = action_time_fractions(trace)
print(f"\ntime shares: idle {phi[IDLE]:.4f}  serve {phi[SERVE]:.4f}  "
      f"switch {phi[SWITCH]:.4f}")
print(f"the serving share equals the utilisation rho = {rep.rho:.4f} "
      "for any stable policy")
print(f"work fraction (serve-share-weighted service times): "
      f"{work_fraction(trace, cfg):.4f} > rho")

freq, visits_q1, visits_q2 = embedded_stationary(trace)
print(f"\nembedded chain: {len(freq)} distinct states visited; "
      f"server at queue 1 for {visits_q1} epochs, queue 2 for {visits_q2}")
top = sorted(freq.items(), key=lambda kv: -kv[1])[:8]
for state, f in top:
    print(f"  {state}: {f:.4f}")

cycle = analyze_limit_cycle(cfg)
print(f"\nlimit cycle: {cycle.kind.value}")
print(f"share of embedded visits on the integerised cycle: "
      f"{limit_cycle_occupancy(freq, cycle):.4f}")

# embedded -> time-stationary conversion on a two-state toy
phi_time = overall_stationary(np.array([0.5, 0.5]), np.array([1.0, 3.0]))
print(f"\nembedded (0.5, 0.5) with mean holding times (1, 3) occupies "
      f"time shares {phi_time.round(4)}")
