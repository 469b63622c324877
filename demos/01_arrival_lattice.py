"""Arrival-count lattice: truncation modes and exact transient probabilities.

Within one committed action the two classes arrive as independent Poisson
streams, so the pair of arrival counts within one duration is a thinned
mixed Poisson with closed-form probabilities.  This script evaluates them
on the truncated lattice in both truncation modes (a point-mass duration at
t gives the exact p(t)), checks them against the independent-Poisson
product, and shows how the absorbing lattice equals the pooled version of
a much larger one.
"""

from scipy import stats

from pollsys import (
    Deterministic,
    Exponential,
    ScenarioConfig,
    StateIndexer,
    expected_arrival_probs,
    pool_lattice,
    snapshot_lattice,
)

lam = 1.0


def make_cfg(N, mode):
    return ScenarioConfig(
        lambda1=lam, lambda2=lam,
        serve1=Exponential(4.0), serve2=Exponential(4.0),
        switch12=Exponential(2.0), switch21=Exponential(2.0),
        c1=1.0, c2=1.0, beta=0.05, X1=N, X2=N, N1=N, N2=N,
        truncation_mode=mode,
    )


print("=== transient probabilities at t = 0.5 vs the Poisson product ===")
phi = expected_arrival_probs(make_cfg(8, "absorbing"), Deterministic(0.5))
idx = StateIndexer((8, 8))
print(f"{'cell':>8} {'lattice':>10} {'poisson':>10} {'abs err':>9}")
for cell in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 3)]:
    got = phi[idx.flatten(*cell)]
    want = stats.poisson.pmf(cell[0], lam * 0.5) * stats.poisson.pmf(cell[1], lam * 0.5)
    print(f"{str(cell):>8} {got:10.6f} {want:10.6f} {abs(got - want):9.1e}")

print()
print("=== mass bookkeeping of the two truncation modes (t = 6) ===")
for mode in ("absorbing", "unassigned"):
    cfg = make_cfg(3, mode)
    sums = [expected_arrival_probs(cfg, Deterministic(t)).sum() for t in (0.0, 6.0)]
    print(f"{mode:>10}: total mass at t=0: {sums[0]:.6f}   at t=6: {sums[1]:.6f}")
print(f"unassigned oracle at t=6, P(Pois(6) <= 3)^2: {stats.poisson.cdf(3, 6.0) ** 2:.6f}")

print()
print("=== expected arrival probabilities over an Exp(1) event ===")
dist = Exponential(1.0)
vecs = {}
for mode, N in (("absorbing", 3), ("unassigned", 3), ("unassigned", 12)):
    vecs[(mode, N)] = expected_arrival_probs(make_cfg(N, mode), dist)

pooled = pool_lattice(vecs[("unassigned", 12)], (12, 12), (3, 3))
snap = snapshot_lattice(vecs[("unassigned", 12)], (12, 12), (3, 3))
small = StateIndexer((3, 3))
print(f"{'idx':>4} {'absorbing':>11} {'unassigned':>11} {'snapshot':>11} {'pooled':>11}")
for i in range(small.size):
    print(f"{i:>4} {vecs[('absorbing', 3)][i]:11.6f} {vecs[('unassigned', 3)][i]:11.6f} "
          f"{snap[i]:11.6f} {pooled[i]:11.6f}")
lost = 1.0 - vecs[("unassigned", 12)].sum()
print("note: the absorbing column reproduces the pooled large-lattice column up to")
print(f"the {lost:.1e} of mass that leaves the 12 x 12 window; the unassigned")
print("column equals the snapshot column exactly.")
