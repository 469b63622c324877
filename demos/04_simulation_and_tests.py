"""Performance sampling with common random numbers and hypothesis tests.

Each policy is rolled out on identical random-number substreams.  Student's
t compares the sampled discounted costs paired by seed, through their
differences; shuffled per policy (``decouple``) to break the pairing, they
are compared with Welch's t and the Mann-Whitney U.
"""

import numpy as np

from pollsys import (
    ExhaustivePolicy,
    HeuristicPolicy,
    StateIndexer,
    TabularPolicy,
    analyze_limit_cycle,
    build_smdp,
    decouple,
    exhaustive_start,
    mann_whitney_u,
    pearson_r,
    policy_iteration,
    sample_performance,
    t_test_one_sample,
    truncation_bounds,
    welch_t_test,
)
from pollsys.cli import load_scenario

X, M, T = 20, 400, 200.0
cfg = load_scenario("slow_mode", {"X1": X, "X2": X, "N1": X, "N2": X})

smdp = build_smdp(cfg)
table = smdp.decision_table(policy_iteration(smdp, exhaustive_start(smdp)).actions)

# initial states: uniform over the limit cycle's envelope
b1, b2 = truncation_bounds(analyze_limit_cycle(cfg), margin=1.0)
tri = StateIndexer((cfg.X1, cfg.X2, 1))
p0 = np.zeros(tri.size)
for n1 in range(min(b1, X) + 1):
    for n2 in range(min(b2, X) + 1):
        for l1 in (0, 1):
            p0[tri.flatten(n1, n2, l1)] = 1.0
p0 /= p0.sum()

policies = {
    "smdp": TabularPolicy(table, cfg.X1, cfg.X2),
    "exhaustive": ExhaustivePolicy(),
    "heuristic": HeuristicPolicy(cfg),
}
# one common-random-number batch steps every policy's rollouts together, in
# seed order; decouple then gives each policy's samples its own order
paired = sample_performance(cfg, list(policies.values()), p0, 0, T, M)
etas = dict(zip(policies, decouple(paired, 0)))
paired = dict(zip(policies, paired))
for name, eta in etas.items():
    print(f"{name:>10}: mean {eta.mean():8.3f}  std {eta.std(ddof=1):8.3f}")

print("\none-sided tests of 'row performs better (smaller) than column':")
names = list(etas)
for a in names:
    for b in names:
        if a == b:
            continue
        w = welch_t_test(etas[a], etas[b])
        u = mann_whitney_u(etas[a], etas[b])
        t = t_test_one_sample(paired[a] - paired[b], 0.0)
        verdict = "reject" if w.p_less <= 0.05 else "      "
        print(f"  {a:>10} < {b:<10} welch p {w.p_less:8.2e}  U p {u.p_less:8.2e}  "
              f"t p {t.p_less:8.2e}  {verdict}")

print("\ncommon random numbers correlate the pairs; shuffled, they are not:")
for a, b in (("smdp", "exhaustive"), ("exhaustive", "heuristic")):
    print(f"  pearson({a}, {b}) = {pearson_r(paired[a], paired[b]):+.4f} paired, "
          f"{pearson_r(etas[a], etas[b]):+.4f} shuffled")
