"""Uniformised continuous-time decision model of the polling system.

All event durations must be exponential here; ``uniformisation`` checks
them and gives the uniformisation constants, which the tests' preemptive
model shares.  The non-preemptive model tracks the server activity
explicitly, connects decision states to in-progress dynamics through
instantaneous, undiscounted linking rows, and therefore needs
state-action-dependent discount factors.  It reads the decision-model
rules from :mod:`pollsys.model`: the holding rate, the clip of an arrival
at the cap and the serve test from ``box_rules``, the idle row from
``idle_row``.  Each action's rows are built with array operations and
stacked into the solvers' state-action graph
(:func:`pollsys.solver.stack_actions`), which exposes the (at most four
entries per row) sparsity; a row's discounted probabilities are its plain
ones times the row's discount factor.
"""

from __future__ import annotations

import numpy as np

from .distributions import Exponential
from .model import (
    EVENTS,
    DecisionModel,
    ScenarioConfig,
    box_rules,
    idle_row,
    quad_indexer,
)
from .solver import csr_rows, stack_actions


class ModelError(ValueError):
    pass


def _action(valid, cost, cols, probs, disc):
    """One action's entry in :func:`pollsys.solver.stack_actions`: row r
    lists its transitions as ``cols[r]``, ``probs[r]`` and is kept where
    ``valid[r]``, each kept row discounted by its ``disc[r]``."""
    indptr, cols, probs = csr_rows(cols, np.where(valid[:, None], probs, 0.0))
    return valid, cost, indptr, cols, probs, np.repeat(disc, np.diff(indptr)) * probs


def uniformisation(cfg: ScenarioConfig):
    """``(rates, gamma, alpha)``: the event rates in EVENTS order, gamma =
    lambda1 + lambda2 + the largest rate and the discount alpha = gamma /
    (gamma + beta) per uniformised step (Puterman, *Markov Decision
    Processes*, 1994, §11.5); a non-exponential duration raises ModelError."""
    dists = [getattr(cfg, event) for event in EVENTS]
    for d in dists:
        if not isinstance(d, Exponential):
            raise ModelError("uniformised models require exponential durations; "
                             f"got {type(d).__name__}")
    gamma = cfg.lambda1 + cfg.lambda2 + max(d.rate for d in dists)
    return np.array([d.rate for d in dists]), gamma, gamma / (gamma + cfg.beta)


def build_nonpreemptive(cfg: ScenarioConfig) -> DecisionModel:
    """Uniformised model over (n1, n2, l1, l2) with linking transitions.

    Rows for in-progress states (l2 in {1, 2}) are fixed once; decision rows
    (l2 = 0) depend on the chosen action.  Committing to serve or switch is a
    linking transition: probability one, zero cost, no discounting.  Idling
    waits for the next arrival (``idle_row``) and lands in another decision
    state.
    """
    rates, g, alpha = uniformisation(cfg)
    (idle1, idle2), alpha_idle, idle_divisor = idle_row(cfg)
    lam1, lam2 = cfg.arrival_rates
    indexer = quad_indexer(cfg)
    n = indexer.size
    (_, _, l1, l2), held, (arr1, arr2), busy = box_rules(cfg, indexer)
    x = np.arange(n)
    s_n1, s_n2, s_l1, _ = indexer.strides
    decision = l2 == 0
    zeros, ones = np.zeros(n), np.ones(n)

    # in progress: the service or switch-over ends, an arrival comes, or nothing
    rate = rates[np.where(l2 == 1, l1, 2 + l1)]
    served = x - l2 - np.where(l1 == 0, s_n1, s_n2) * busy
    switched = x - l2 + np.where(l1 == 0, s_l1, -s_l1)
    dynamics_cols = np.stack([np.where(l2 == 1, served, switched), arr1, arr2, x], axis=1)
    dynamics_probs = np.stack([rate / g, np.full(n, lam1 / g), np.full(n, lam2 / g),
                               1.0 - (rate + lam1 + lam2) / g], axis=1)
    # idling waits for the next arrival, so its row has no self-loop
    idle_cols = np.stack([arr1, arr2, x, x], axis=1)
    idle_probs = np.stack([np.full(n, idle1), np.full(n, idle2), zeros, zeros], axis=1)
    idles = decision[:, None]
    return DecisionModel(cfg, indexer, stack_actions([
        _action(np.ones(n, dtype=bool),
                np.where(decision, held / idle_divisor, held / (g + cfg.beta)),
                np.where(idles, idle_cols, dynamics_cols),
                np.where(idles, idle_probs, dynamics_probs),
                np.where(decision, alpha_idle, alpha)),
        # serve and switch link to (n1, n2, l1, 1) and (n1, n2, l1, 2), undiscounted
        _action(decision & busy, zeros, (x + 1)[:, None], ones[:, None], ones),
        _action(decision, zeros, (x + 2)[:, None], ones[:, None], ones),
    ]))
