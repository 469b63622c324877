"""Truncated bi-variate arrival lattice and its uniformised transient sums.

Within one non-preemptive action interval the pair of accumulated arrival
counts is a bi-variate birth process.  This module builds its truncated
generator Q and computes the expected (optionally discounted) arrival
probabilities plus the two holding-cost components that the decision-model
builders consume.

The transient probabilities come from uniformisation (Jensen 1953; Gross &
Miller, Oper. Res. 32(2), 1984): with Lambda the largest row outflow,
p(t) = sum_k Pois(k; Lambda t) v_k where v_{k+1} = v_k (I + Q/Lambda) and
v_0 is the origin.  Averaged over an event duration t_e the Poisson pmf
becomes the closed-form mixed-Poisson pmf of the duration
(:meth:`DurationDist.poisson_mixture`), so no time mesh, step size or
quadrature is involved.  A sum stops after the fewest terms that leave at
most ``TAIL_EPS`` of the weight out, and that weight is reported as the
event's tail mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .distributions import DurationDist
from .model import ScenarioConfig, StateIndexer, Truncation

TAIL_EPS = 1e-13  # mixed-Poisson weight left out of a uniformised sum


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse generator of the truncated arrival-count birth process."""

    Q: sparse.csr_matrix
    mode: Truncation
    N1: int
    N2: int
    indexer: StateIndexer
    gamma_max: float  # largest row outflow, the uniformisation rate Lambda

    @property
    def size(self) -> int:
        return self.indexer.size


@dataclass(frozen=True)
class ArrivalSummary:
    """Per-event arrival probabilities and holding-cost scalars."""

    event: str
    dist: DurationDist
    P: np.ndarray  # expected arrival probabilities over the lattice
    P_beta: np.ndarray  # discounted counterpart (not a pmf)
    C_H: float  # discounted unit holding cost of customers present at entry
    C_I: float  # expected discounted holding cost of in-interval arrivals
    tail_mass: float  # mixed-Poisson weight beyond the last term: 1 - sum(w_k)


def _cell_rates(cfg: ScenarioConfig, a1: np.ndarray, a2: np.ndarray):
    """Arrival rates of the lattice cells (a1, a2), as two float arrays."""
    if cfg.rate_fn is None:
        return np.full(a1.shape, float(cfg.lambda1)), np.full(a1.shape, float(cfg.lambda2))
    rates = np.array([cfg.rate_fn(x, y) for x, y in zip(a1.tolist(), a2.tolist())],
                     dtype=float).reshape(-1, 2)
    negative = np.flatnonzero((rates < 0).any(axis=1))
    if negative.size:
        j = negative[0]
        raise ValueError(f"rate_fn returned negative rates at ({a1[j]}, {a2[j]})")
    return rates[:, 0], rates[:, 1]


def build_generator(cfg: ScenarioConfig) -> GeneratorMatrix:
    """Assemble the truncated generator over the (N1+1)x(N2+1) count lattice.

    Absorbing mode keeps every row conservative and funnels all overflow into
    the corner cell; unassigned-outflow mode keeps the full diagonal and
    simply drops flows past the edges, leaving boundary rows sub-conservative.
    """
    N1, N2 = cfg.N1, cfg.N2
    indexer = StateIndexer((N1, N2))
    cell = np.arange(indexer.size)
    a1, a2 = indexer.unflatten(cell)
    lam1, lam2 = _cell_rates(cfg, a1, a2)
    out1 = np.where(a1 < N1, lam1, 0.0)
    out2 = np.where(a2 < N2, lam2, 0.0)
    if cfg.truncation_mode is Truncation.ABSORBING:
        diag = -(out1 + out2)
    else:
        diag = -(lam1 + lam2)
    s1, s2 = indexer.strides
    vals = np.stack([out1, out2, diag], axis=1)
    keep = np.stack([out1 > 0, out2 > 0, diag != 0.0], axis=1)
    rows = np.broadcast_to(cell[:, None], keep.shape)[keep]
    cols = np.stack([cell + s1, cell + s2, cell], axis=1)[keep]
    Q = sparse.csr_matrix(
        (vals[keep], (rows, cols)), shape=(indexer.size, indexer.size), dtype=float
    )
    gamma_max = max(0.0, float(-diag.min()))
    return GeneratorMatrix(Q=Q, mode=cfg.truncation_mode, N1=N1, N2=N2,
                           indexer=indexer, gamma_max=gamma_max)


def _poisson_terms(f_e: DurationDist, rate: float) -> int:
    """Fewest terms K whose omitted weight P(N >= K) is at most ``TAIL_EPS``,
    N being the number of rate-``rate`` Poisson events within one duration."""
    n = 32
    while True:
        tail = f_e.poisson_tail(rate, np.arange(1, n + 1))
        if tail[-1] <= TAIL_EPS:
            return int(np.argmax(tail <= TAIL_EPS)) + 1
        n *= 2


def _uniformised_steps(gen: GeneratorMatrix, terms: int) -> np.ndarray:
    """Rows v_0..v_{terms-1} with v_0 the origin and v_{k+1} = v_k (I + Q/Lambda).

    Lambda = ``gen.gamma_max``, so I + Q/Lambda is entrywise non-negative and
    every v_k is a probability vector (sub-stochastic in unassigned mode).
    """
    steps = np.zeros((terms, gen.size))
    steps[0, 0] = 1.0
    if terms > 1:  # a zero Lambda needs one term only
        step = (sparse.identity(gen.size, format="csr") + gen.Q / gen.gamma_max).T.tocsr()
        for k in range(1, terms):
            steps[k] = step @ steps[k - 1]
    return steps


def _weighted_sum(w: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """sum_k w_k v_k, added in k order at every cell, so that a cell's value
    does not depend on the size of the lattice."""
    return (w[:, None] * steps[:len(w)]).sum(axis=0)


def expected_arrival_probs(
    gen: GeneratorMatrix, f_e: DurationDist, beta: Optional[float] = None
) -> np.ndarray:
    """Expected arrival probabilities E[e^{-beta t_e} p(t_e)] over one event.

    With ``beta`` None this is E[p(t_e)], a pmf up to the tail mass; an exact
    p(t) is ``expected_arrival_probs(gen, Deterministic(t))``.
    """
    terms = _poisson_terms(f_e, gen.gamma_max)
    w = f_e.poisson_mixture(gen.gamma_max, np.arange(terms), 0.0 if beta is None else beta)
    return _weighted_sum(w, _uniformised_steps(gen, terms))


def holding_cost_existing(f_e: DurationDist, beta: float) -> float:
    """Discounted unit holding cost over one event duration,
    E[(1 - e^{-beta t_e}) / beta]; the caller scales by (c1 n1 + c2 n2)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    return (1.0 - f_e.discount_factor(beta)) / beta


def holding_cost_arrivals(
    gen: Optional[GeneratorMatrix], f_e: DurationDist, cfg: ScenarioConfig
) -> float:
    """Expected discounted holding cost of the arrivals within one event.

    A customer arriving at time tau accrues cost from tau until the event
    completes, so the cost is int_0^inf e^{-beta s} P(t_e > s) c.E[a(s)] ds.
    With homogeneous rates the expected counts grow linearly and this
    collapses to the closed form
    (c1 l1 + c2 l2) * (1 - E[e^{-bt}] - b E[t e^{-bt}]) / b^2, free of lattice
    truncation.  Non-homogeneous rates use the uniformised lattice ``gen``:
    the cost is sum_k u_k c.v_k with
    u_k = int e^{-beta s} P(t_e > s) Pois(k; Lambda s) ds
        = Lambda^k / (Lambda+beta)^(k+1) P(N_{Lambda+beta}(t_e) >= k+1).
    """
    beta = cfg.beta
    if cfg.rate_fn is None:
        weight = cfg.c1 * cfg.lambda1 + cfg.c2 * cfg.lambda2
        if weight == 0.0:
            return 0.0
        return (
            weight
            * (1.0 - f_e.discount_factor(beta) - beta * f_e.discounted_mean(beta))
            / beta**2
        )
    if gen is None:
        raise ValueError("non-homogeneous arrival costs require the lattice generator")
    lam = gen.gamma_max
    k = np.arange(_poisson_terms(f_e, lam))
    u = (lam / (lam + beta)) ** k / (lam + beta) * f_e.poisson_tail(lam + beta, k + 1)
    a1, a2 = gen.indexer.unflatten(np.arange(gen.size))
    cell_cost = cfg.c1 * np.asarray(a1, dtype=float) + cfg.c2 * np.asarray(a2, dtype=float)
    return float(u @ (_uniformised_steps(gen, len(k)) @ cell_cost))


def build_arrival_summaries(cfg: ScenarioConfig) -> dict:
    """Arrival summaries for the four serial events of the polling model.

    One generator and one run of uniformised steps (long enough for the
    event with the most terms) are shared by all events.  Keys: 'serve1',
    'serve2', 'switch12', 'switch21'.
    """
    events = {
        "serve1": cfg.serve1,
        "serve2": cfg.serve2,
        "switch12": cfg.switch12,
        "switch21": cfg.switch21,
    }
    gen = build_generator(cfg)
    lam = gen.gamma_max
    terms = {name: _poisson_terms(dist, lam) for name, dist in events.items()}
    steps = _uniformised_steps(gen, max(terms.values()))
    out = {}
    for name, dist in events.items():
        k = np.arange(terms[name])
        w = dist.poisson_mixture(lam, k)
        out[name] = ArrivalSummary(
            event=name,
            dist=dist,
            P=_weighted_sum(w, steps),
            P_beta=_weighted_sum(dist.poisson_mixture(lam, k, cfg.beta), steps),
            C_H=holding_cost_existing(dist, cfg.beta),
            C_I=holding_cost_arrivals(gen, dist, cfg),
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
