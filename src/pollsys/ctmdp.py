"""Uniformised continuous-time decision models of the polling system.

All event durations must be exponential here.  The preemptive model leaves
the server state out and re-decides every sampled epoch; the non-preemptive
model tracks the server activity explicitly, connects decision states to
in-progress dynamics through instantaneous, undiscounted linking rows, and
therefore needs state-action-dependent discount factors.  Both models are
built with array operations straight into the solvers' state-action graph
(:class:`pollsys.solver.ValueGraph`), which exposes the (at most four
entries per row) sparsity; a row's discounted probabilities are its plain
ones times the row's discount factor.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .distributions import Exponential
from .model import IDLE, SERVE, SWITCH, ScenarioConfig, quad_indexer, triple_indexer
from .solver import ValueGraph


class ModelError(ValueError):
    pass


def _exponential_rates(cfg: ScenarioConfig) -> Tuple[float, float, float, float]:
    dists = (cfg.serve1, cfg.serve2, cfg.switch12, cfg.switch21)
    for d in dists:
        if not isinstance(d, Exponential):
            raise ModelError(
                "uniformised models require exponential durations; "
                f"got {type(d).__name__}"
            )
    return tuple(d.rate for d in dists)


def _csr_rows(cols: np.ndarray, probs: np.ndarray):
    """CSR pieces ``(indptr, cols, probs)`` of rows given as entry lists.

    Row r lists its transitions as ``cols[r, j]``, ``probs[r, j]`` in entry
    order.  Zero entries are dropped; entries that share a column (capacity
    folding sends an arrival back to the state itself) are summed in entry
    order; each row's columns come out ascending.
    """
    m, k = cols.shape
    rows = np.arange(m)
    # first entry of the row that carries the same column
    first = (cols[:, :, None] == cols[:, None, :]).argmax(axis=1)
    total = np.zeros((m, k))
    nonzero = np.zeros((m, k), dtype=bool)
    for j in range(k):
        total[rows, first[:, j]] += probs[:, j]
        nonzero[rows, first[:, j]] |= probs[:, j] != 0.0
    order = np.argsort(np.where(nonzero, cols, np.iinfo(np.int64).max), axis=1, kind="stable")
    nonzero = np.take_along_axis(nonzero, order, axis=1)
    indptr = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    return (indptr,
            np.take_along_axis(cols, order, axis=1)[nonzero],
            np.take_along_axis(total, order, axis=1)[nonzero])


def _graph_from_slots(cols, probs, valid, action, cost, disc) -> ValueGraph:
    """State-action graph from three action slots per state (idle, serve, switch).

    ``cols``/``probs`` have shape (n_states, 3, entries); ``valid``,
    ``action``, ``cost`` and ``disc`` (the row's discount factor) have shape
    (n_states, 3).  A dynamics state uses slot 0 alone, with action -1.
    Taking the valid slots in row-major order groups each state's nodes
    contiguously, in state order, with its actions ascending.
    """
    n, _, k = cols.shape
    keep = valid.ravel()
    q_indptr, q_cols, q_probs = _csr_rows(cols.reshape(-1, k)[keep], probs.reshape(-1, k)[keep])
    return ValueGraph(
        n_states=n,
        q_state=np.repeat(np.arange(n), valid.sum(axis=1)),
        q_action=action.ravel()[keep].astype(np.int64),
        q_cost=cost.ravel()[keep],
        q_indptr=q_indptr,
        q_cols=q_cols,
        q_probs=q_probs,
        q_dprobs=np.repeat(disc.ravel()[keep], np.diff(q_indptr)) * q_probs,
    )


class PreemptiveModel:
    """Uniformised model over (n1, n2, l1); every state is a decision state."""

    def __init__(self, cfg: ScenarioConfig):
        mu1, mu2, s12, s21 = _exponential_rates(cfg)
        lam1, lam2 = cfg.lambda1, cfg.lambda2
        self.cfg = cfg
        self.gamma = lam1 + lam2 + max(mu1, mu2, s12, s21)
        self.alpha = self.gamma / (self.gamma + cfg.beta)
        self.indexer = triple_indexer(cfg)
        self.n_states = self.indexer.size

        g, n = self.gamma, self.n_states
        x = np.arange(n)
        n1, n2, l1 = self.indexer.unflatten(x)
        s_n1, s_n2, s_l1 = self.indexer.strides
        arr1 = x + s_n1 * (n1 < cfg.X1)
        arr2 = x + s_n2 * (n2 < cfg.X2)
        p1, p2 = np.full(n, lam1 / g), np.full(n, lam2 / g)

        def stay(rate):
            return 1.0 - (rate + lam1 + lam2) / g

        serve_rate = np.array([mu1, mu2])[l1]
        switch_rate = np.array([s12, s21])[l1]
        served = x - np.where(l1 == 0, s_n1, s_n2)  # used only where the queue is non-empty
        switched = x + np.where(l1 == 0, s_l1, -s_l1)
        # slots (idle, serve, switch) x entries (arrival 1, arrival 2, completion, stay)
        cols = np.stack([
            np.stack([arr1, arr2, x, x], axis=1),
            np.stack([arr1, arr2, served, x], axis=1),
            np.stack([arr1, arr2, switched, x], axis=1),
        ], axis=1)
        probs = np.stack([
            np.stack([p1, p2, np.full(n, stay(0.0)), np.zeros(n)], axis=1),
            np.stack([p1, p2, serve_rate / g, stay(serve_rate)], axis=1),
            np.stack([p1, p2, switch_rate / g, stay(switch_rate)], axis=1),
        ], axis=1)
        ones = np.ones(n, dtype=bool)
        current = np.where(l1 == 0, n1, n2)
        held = (cfg.c1 * n1.astype(float) + cfg.c2 * n2.astype(float)) / (self.gamma + cfg.beta)
        self.graph = _graph_from_slots(
            cols, probs,
            valid=np.stack([ones, current > 0, ones], axis=1),  # serve needs a customer
            action=np.tile([IDLE, SERVE, SWITCH], (n, 1)),
            cost=np.stack([held] * 3, axis=1),
            disc=np.full((n, 3), self.alpha),
        )

    def decision_table(self, actions: np.ndarray) -> np.ndarray:
        return np.asarray(actions, dtype=int).copy()


class NonPreemptiveModel:
    """Uniformised model over (n1, n2, l1, l2) with linking transitions.

    Rows for in-progress states (l2 in {1, 2}) are fixed once; decision rows
    (l2 = 0) depend on the chosen action.  Committing to serve or switch is a
    linking transition: probability one, zero cost, no discounting.  Idling
    is sampled at the total arrival rate and lands in another decision state.
    """

    def __init__(self, cfg: ScenarioConfig):
        mu1, mu2, s12, s21 = _exponential_rates(cfg)
        lam1, lam2 = cfg.lambda1, cfg.lambda2
        self.cfg = cfg
        self.gamma = lam1 + lam2 + max(mu1, mu2, s12, s21)
        self.alpha = self.gamma / (self.gamma + cfg.beta)
        self.gamma_idle = lam1 + lam2
        self.alpha_idle = self.gamma_idle / (self.gamma_idle + cfg.beta)
        self.indexer = quad_indexer(cfg)
        self.n_states = self.indexer.size

        g, gi, n = self.gamma, self.gamma_idle, self.n_states
        x = np.arange(n)
        n1, n2, l1, l2 = self.indexer.unflatten(x)
        s_n1, s_n2, s_l1, _ = self.indexer.strides
        fixed = (l2 != 0)[:, None]
        arr1 = x + s_n1 * (n1 < cfg.X1)
        arr2 = x + s_n2 * (n2 < cfg.X2)
        zeros, ones = np.zeros(n), np.ones(n)

        # in progress: the service or switch-over ends, an arrival comes, or nothing
        rate = np.where(l2 == 1, np.array([mu1, mu2])[l1], np.array([s12, s21])[l1])
        served = x - l2 - np.where(l1 == 0, s_n1 * (n1 > 0), s_n2 * (n2 > 0))
        switched = x - l2 + np.where(l1 == 0, s_l1, -s_l1)
        dynamics_cols = np.stack([np.where(l2 == 1, served, switched), arr1, arr2, x], axis=1)
        dynamics_probs = np.stack([rate / g, np.full(n, lam1 / g), np.full(n, lam2 / g),
                                   1.0 - (rate + lam1 + lam2) / g], axis=1)
        # idling waits for the next arrival, so its row has no self-loop
        idle_cols = np.stack([arr1, arr2, x, x], axis=1)
        idle_probs = np.stack([np.full(n, lam1 / gi if lam1 > 0 else 0.0),
                               np.full(n, lam2 / gi if lam2 > 0 else 0.0), zeros, zeros], axis=1)
        link_probs = np.stack([ones, zeros, zeros, zeros], axis=1)
        cols = np.stack([
            np.where(fixed, dynamics_cols, idle_cols),
            np.stack([x + 1, x, x, x], axis=1),  # serve: link to (n1, n2, l1, 1)
            np.stack([x + 2, x, x, x], axis=1),  # switch: link to (n1, n2, l1, 2)
        ], axis=1)
        probs = np.stack([np.where(fixed, dynamics_probs, idle_probs), link_probs, link_probs],
                         axis=1)

        decision = l2 == 0
        current = np.where(l1 == 0, n1, n2)
        held = cfg.c1 * n1.astype(float) + cfg.c2 * n2.astype(float)
        self.graph = _graph_from_slots(
            cols, probs,
            valid=np.stack([np.ones(n, dtype=bool), decision & (current > 0), decision],
                           axis=1),  # serve needs a customer
            action=np.stack([np.where(decision, IDLE, -1), np.full(n, SERVE), np.full(n, SWITCH)],
                            axis=1),
            cost=np.stack([np.where(decision, held / (cfg.beta + gi), held / (g + cfg.beta)),
                           zeros, zeros], axis=1),
            disc=np.stack([np.where(decision, self.alpha_idle, self.alpha), ones, ones],
                          axis=1),  # linking rows: discount 1
        )

    def decision_table(self, actions: np.ndarray) -> np.ndarray:
        """Project decision-state actions onto the (n1, n2, l1) box."""
        tri = triple_indexer(self.cfg)
        table = np.full(tri.size, -1, dtype=int)
        decision = np.flatnonzero(self.graph.decision_mask)
        n1, n2, l1, _ = self.indexer.unflatten(decision)
        table[tri.flatten(n1, n2, l1)] = np.asarray(actions)[decision]
        return table


def build_preemptive(cfg: ScenarioConfig) -> PreemptiveModel:
    return PreemptiveModel(cfg)


def build_nonpreemptive(cfg: ScenarioConfig) -> NonPreemptiveModel:
    return NonPreemptiveModel(cfg)
