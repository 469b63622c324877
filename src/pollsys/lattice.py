"""Truncated bi-variate arrival lattice in closed form.

Within one non-preemptive action interval of duration t_e the arrivals of
the two classes come from independent Poisson streams of rates lambda1 and
lambda2.  Their total is a Poisson stream of rate lambda = lambda1 + lambda2
whose arrivals are of class 1 with probability p = lambda1 / lambda and of
class 2 with q = lambda2 / lambda, so the pair of counts is a thinned mixed
Poisson:

    E[e^{-beta t_e} P(A1 = a1, A2 = a2)] = m_beta(a1 + a2) C(a1 + a2, a1) p^a1 q^a2,

with m_beta(n) = E[e^{-beta t_e} Pois(n; lambda t_e)] the closed-form
mixed-Poisson pmf of the duration (:meth:`DurationDist.poisson_mixture`),
so no time mesh, step size or quadrature is involved.  The form is
evaluated on the triangle a1 + a2 < K, K the fewest terms that leave at
most ``TAIL_EPS`` of m_0 out, and that weight is reported as the event's
tail mass.  The triangle is then mapped onto the box [0, N1] x [0, N2]:
absorbing truncation pools the cell (a1, a2) onto (min(a1, N1),
min(a2, N2)); unassigned truncation keeps only the cells inside, and drops
the others before it evaluates them.  This is
the uniformised transient sum of the truncated birth-process generator
(Jensen 1953; Gross & Miller, Oper. Res. 32(2), 1984) summed in closed
form; the tests keep that generator as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DurationDist
from .model import EVENTS, ScenarioConfig, StateIndexer, Truncation

TAIL_EPS = 1e-13  # mixed-Poisson weight left beyond the last term


@dataclass(frozen=True)
class ArrivalSummary:
    """Per-event arrival probabilities and holding-cost scalars."""

    P: np.ndarray  # expected arrival probabilities over the lattice
    P_beta: np.ndarray  # discounted counterpart (not a pmf)
    C_H: float  # discounted unit holding cost of customers present at entry
    C_I: float  # expected discounted holding cost of in-interval arrivals
    tail_mass: float  # mixed-Poisson weight beyond the last term: 1 - sum(w_k)


def _poisson_terms(f_e: DurationDist, rate: float) -> int:
    """Fewest terms K whose omitted weight P(N >= K) is at most ``TAIL_EPS``,
    N being the number of rate-``rate`` Poisson events within one duration."""
    n = 32
    while True:
        tail = f_e.poisson_tail(rate, np.arange(1, n + 1))
        if tail[-1] <= TAIL_EPS:
            return int(np.argmax(tail <= TAIL_EPS)) + 1
        n *= 2


def expected_arrival_probs(
    cfg: ScenarioConfig, f_e: DurationDist, beta: Optional[float] = None
) -> np.ndarray:
    """Expected arrival probabilities E[e^{-beta t_e} p(t_e)] over one event,
    on the scenario's (N1+1)x(N2+1) count lattice and truncation mode.

    With ``beta`` None this is E[p(t_e)], a pmf up to the tail mass; an exact
    p(t) is ``expected_arrival_probs(cfg, Deterministic(t))``.  A pooled cell
    adds its terms in the order of a1 + a2.
    """
    from scipy import special

    lam1, lam2 = float(cfg.lambda1), float(cfg.lambda2)
    lam = lam1 + lam2
    terms = _poisson_terms(f_e, lam)
    n = np.repeat(np.arange(terms), np.arange(1, terms + 1))
    a1 = np.arange(n.size) - n * (n + 1) // 2
    a2 = n - a1
    if cfg.truncation_mode is Truncation.UNASSIGNED:
        inside = (a1 <= cfg.N1) & (a2 <= cfg.N2)
        n, a1, a2 = n[inside], a1[inside], a2[inside]
    # C(n, a1) p^a1 q^a2 in logs, which neither overflows at a large n nor
    # divides by a zero lam (which leaves the origin only, with log 1 = 0)
    w = f_e.poisson_mixture(lam, np.arange(terms), 0.0 if beta is None else beta)
    mass = w[n] * np.exp(special.gammaln(n + 1.0) - special.gammaln(a1 + 1.0)
                         - special.gammaln(a2 + 1.0) + special.xlogy(a1, lam1)
                         + special.xlogy(a2, lam2) - special.xlogy(n, lam))
    if cfg.truncation_mode is Truncation.ABSORBING:
        a1, a2 = np.minimum(a1, cfg.N1), np.minimum(a2, cfg.N2)
    box = StateIndexer((cfg.N1, cfg.N2))
    return np.bincount(box.flatten(a1, a2), weights=mass, minlength=box.size)


def holding_cost_existing(f_e: DurationDist, beta: float) -> float:
    """Discounted unit holding cost over one event duration,
    E[(1 - e^{-beta t_e}) / beta]; the caller scales by (c1 n1 + c2 n2)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    return (1.0 - f_e.discount_factor(beta)) / beta


def holding_cost_arrivals(f_e: DurationDist, cfg: ScenarioConfig) -> float:
    """Expected discounted holding cost of the arrivals within one event.

    A customer arriving at time tau accrues cost from tau until the event
    completes, so the cost is int_0^inf e^{-beta s} P(t_e > s) c.E[a(s)] ds.
    The expected counts grow linearly, and this collapses to the closed form
    (c1 l1 + c2 l2) * (1 - E[e^{-bt}] - b E[t e^{-bt}]) / b^2, free of lattice
    truncation.
    """
    beta = cfg.beta
    weight = cfg.c1 * cfg.lambda1 + cfg.c2 * cfg.lambda2
    if weight == 0.0:
        return 0.0
    return weight * (1.0 - f_e.discount_factor(beta) - beta * f_e.discounted_mean(beta)) / beta**2


def build_arrival_summaries(cfg: ScenarioConfig) -> dict:
    """Arrival summaries for the four serial events of the polling model.

    Keys: 'serve1', 'serve2', 'switch12', 'switch21'.
    """
    lam = float(cfg.lambda1) + float(cfg.lambda2)
    out = {}
    for name in EVENTS:
        dist = getattr(cfg, name)
        w = dist.poisson_mixture(lam, np.arange(_poisson_terms(dist, lam)))
        out[name] = ArrivalSummary(
            P=expected_arrival_probs(cfg, dist),
            P_beta=expected_arrival_probs(cfg, dist, cfg.beta),
            C_H=holding_cost_existing(dist, cfg.beta),
            C_I=holding_cost_arrivals(dist, cfg),
            tail_mass=1.0 - float(w.sum()),
        )
    return out


def pool_lattice(vec: np.ndarray, fine_dims, coarse_dims) -> np.ndarray:
    """Pool a fine-lattice vector onto a coarser lattice.

    Mass at fine cell (a1, a2) lands on (min(a1, N1), min(a2, N2)); edge and
    corner cells therefore accumulate everything beyond the coarse bounds.
    """
    Nf1, Nf2 = fine_dims
    N1, N2 = coarse_dims
    fine = StateIndexer((Nf1, Nf2))
    coarse = StateIndexer((N1, N2))
    if len(vec) != fine.size:
        raise ValueError("vector length does not match fine lattice")
    out = np.zeros(coarse.size, dtype=float)
    a1, a2 = fine.unflatten(np.arange(fine.size))
    tgt = coarse.flatten(np.minimum(a1, N1), np.minimum(a2, N2))
    np.add.at(out, tgt, vec)
    return out


def snapshot_lattice(vec: np.ndarray, fine_dims, coarse_dims) -> np.ndarray:
    """Restrict a fine-lattice vector to the cells of a coarser lattice."""
    Nf1, Nf2 = fine_dims
    N1, N2 = coarse_dims
    if len(vec) != (Nf1 + 1) * (Nf2 + 1):
        raise ValueError("vector length does not match fine lattice")
    if N1 > Nf1 or N2 > Nf2:
        raise ValueError("coarse lattice exceeds the fine lattice")
    return np.asarray(vec, dtype=float).reshape(Nf1 + 1, Nf2 + 1)[:N1 + 1, :N2 + 1].flatten()
