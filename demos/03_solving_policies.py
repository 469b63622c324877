"""Solving the decision models: policy iteration vs sparse value iteration.

The embedded semi-Markov model is solved by exact policy iteration; the
uniformised continuous-time model both by policy iteration over its linked
sparse system and by asynchronous value iteration on its state-action graph.
With all durations exponential the two formulations describe the same
process, so their optimal interior actions coincide.
"""

import numpy as np

from pollsys import (
    build_nonpreemptive,
    build_smdp,
    build_value_graph,
    exhaustive_start,
    policy_iteration,
    value_iterate,
)
from pollsys.cli import load_scenario
from pollsys.model import triple_indexer

X = 14
cfg = load_scenario("slow_mode", {"X1": X, "X2": X, "N1": X, "N2": X})
cfg = cfg.with_exponential_durations()

smdp = build_smdp(cfg)
pol_s = policy_iteration(smdp, exhaustive_start(smdp))
print(f"semi-Markov model: {smdp.n_states} states, "
      f"policy iteration converged in {pol_s.iterations} iterations")

npm = build_nonpreemptive(cfg)
pol_pi = policy_iteration(npm, exhaustive_start(npm))
graph = build_value_graph(npm)
pol_vi = value_iterate(graph)
print(f"uniformised model: {npm.n_states} states, {graph.n_nodes} Q-nodes; "
      f"policy iteration {pol_pi.iterations} iterations, "
      f"value iteration {pol_vi.iterations} sweeps (residual {pol_vi.residual:.2e})")

d = npm.graph.decision_mask
print("value iteration == policy iteration on every decision state:",
      bool(np.array_equal(pol_vi.actions[d], pol_pi.actions[d])))

tab_s = smdp.decision_table(pol_s.actions)
tab_c = npm.decision_table(pol_pi.actions)
tri = triple_indexer(cfg)
letters = {0: ".", 1: "s", 2: "w"}  # idle, serve, switch

for which, tab in (("semi-Markov", tab_s), ("uniformised", tab_c)):
    print(f"\n{which} policy, server at queue 1 (rows n1=0..{X}, cols n2=0..{X}):")
    for n1 in range(X + 1):
        print("  " + "".join(letters[int(tab[tri.flatten(n1, n2, 0)])]
                             for n2 in range(X + 1)))

diff = sum(1 for x in range(tri.size) if tab_s[x] != tab_c[x])
print(f"\nactions differ at {diff} of {tri.size} states (truncation-edge cells)")
