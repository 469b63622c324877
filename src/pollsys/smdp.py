"""Embedded semi-Markov decision model of the polling system.

Each action gets plain transition rows (for stationary analysis),
discounted rows (for the Bellman equations) and a cost vector over the
flattened (n1, n2, l1) state space.  Serve and switch rows spread the
pooled arrival probabilities of their event; idling is uniformised on the
total arrival rate and resolves to the first arrival of either class.  The
rows are built with array operations over the state indexer.  A discounted
entry carries its own factor (the discount over the event's duration, given
the arrivals in it), and ``build_smdp`` stacks the three action models into
the solvers' state-action graph (:class:`pollsys.solver.ValueGraph`), whose
nodes hold per-entry discounted probabilities.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from scipy import sparse

from .lattice import ArrivalSummary, build_arrival_summaries
from .model import (
    ACTIONS,
    IDLE,
    SERVE,
    SWITCH,
    ScenarioConfig,
    StateIndexer,
    triple_indexer,
)
from .solver import ValueGraph

EVENT_BY_ACTION = {SERVE: ("serve1", "serve2"), SWITCH: ("switch12", "switch21")}

# dense (row, column) cells pooled per np.bincount call when building rows
_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class ActionModel:
    """Sparse transition rows, discounted rows and costs for one action."""

    action: int
    P: sparse.csr_matrix
    P_beta: sparse.csr_matrix
    C: np.ndarray
    feasible_mask: np.ndarray  # rows where the action may be chosen


class SmdpModel:
    """The embedded decision model as one state-action graph over (n1, n2, l1)."""

    def __init__(self, cfg: ScenarioConfig, graph: ValueGraph):
        self.cfg = cfg
        self.indexer = triple_indexer(cfg)
        self.n_states = self.indexer.size
        self.graph = graph

    def decision_table(self, actions: np.ndarray) -> np.ndarray:
        """Actions over the (n1, n2, l1) box; identity for this model."""
        return np.asarray(actions, dtype=int).copy()


def build_cost_vector(cfg: ScenarioConfig, summaries: Dict[str, ArrivalSummary],
                      action: int) -> np.ndarray:
    """Cost of committing to ``action`` in every state (0 where infeasible)."""
    indexer = triple_indexer(cfg)
    n1, n2, l1 = indexer.unflatten(np.arange(indexer.size))
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    l1 = np.asarray(l1)
    held = cfg.c1 * n1 + cfg.c2 * n2
    if action == IDLE:
        gamma_l = sum(cfg.arrival_rates if cfg.rate_fn is None else cfg.rate_fn(0, 0))
        return held / (cfg.beta + gamma_l)
    C = np.zeros(indexer.size)
    for loc in (0, 1):
        s = summaries[EVENT_BY_ACTION[action][loc]]
        at_loc = l1 == loc
        C[at_loc] = held[at_loc] * s.C_H + s.C_I
        if action == SWITCH:
            C[at_loc] += cfg.switch_costs[loc]
    if action == SERVE:
        infeasible = np.where(l1 == 0, n1, n2) == 0
        C[infeasible] = 0.0
    return C


def _pooled_rows(states: np.ndarray, n_cols: int, entries):
    """Sparse rows of ``states`` whose entries are pooled onto columns.

    ``entries(chunk)`` returns ``dest`` and one or more weight arrays, each
    of shape (len(chunk), K): row r adds ``w[r, k]`` at column
    ``dest[r, k]``.  Entries that share a column are summed in k order, as
    ``np.bincount`` sums a single row, and a column is kept where the first
    weight's sum is non-zero.  Rows are pooled a chunk of about
    ``_CHUNK_CELLS`` dense cells at a time.  Returns the number of entries
    of each row, their columns (ascending within a row) and one value array
    per weight.
    """
    per = max(1, _CHUNK_CELLS // n_cols)
    counts, cols, values = [], [], []
    for lo in range(0, len(states), per):
        dest, *weights = entries(states[lo:lo + per])
        rows = len(dest)
        keys = (dest + n_cols * np.arange(rows)[:, None]).ravel()
        sums = [np.bincount(keys, weights=w.ravel(), minlength=rows * n_cols) for w in weights]
        moved = sums[0].reshape(rows, n_cols).sum(axis=1)
        if np.abs(moved - weights[0].sum(axis=1)).max() > 1e-12:
            raise AssertionError("pooling lost transition mass")
        keep = np.flatnonzero(sums[0])
        row, col = np.divmod(keep, n_cols)
        counts.append(np.bincount(row, minlength=rows))
        cols.append(col)
        values.append([s[keep] for s in sums])
    return np.concatenate(counts), np.concatenate(cols), [np.concatenate(v) for v in zip(*values)]


def build_action_model(cfg: ScenarioConfig, summaries: Dict[str, ArrivalSummary],
                       action: int) -> ActionModel:
    """Assemble one action's transition matrices and cost vector.

    Serve decrements the served queue and adds the event's pooled arrivals;
    switch flips the server location and adds its event's arrivals plus the
    lump switching cost; idle has the two uniformised arrival successors.
    Arrival mass that would exceed a queue bound pools onto the capped state.
    """
    indexer = triple_indexer(cfg)
    n_states = indexer.size
    s_n1, s_n2, _ = indexer.strides
    n1, n2, l1 = indexer.unflatten(np.arange(n_states))
    C = build_cost_vector(cfg, summaries, action)
    feasible_mask = np.ones(n_states, dtype=bool)
    if action == SERVE:
        feasible_mask = np.where(l1 == 0, n1, n2) > 0
    states = np.flatnonzero(feasible_mask)

    if action == IDLE:
        lam1, lam2 = cfg.arrival_rates if cfg.rate_fn is None else cfg.rate_fn(0, 0)
        gamma_l = lam1 + lam2
        # idling never ends without arrivals; its rows then stay empty
        probs = np.array([lam1, lam2]) / gamma_l if gamma_l > 0 else np.zeros(2)
        # each row has its two arrival successors, pooled in place where both
        # are capped, then ordered by column; zero entries are dropped
        dest = np.stack([states + s_n1 * (n1 < cfg.X1), states + s_n2 * (n2 < cfg.X2)], axis=1)
        w = np.tile(probs, (n_states, 1))
        same = dest[:, 0] == dest[:, 1]
        w[same] = [0.0 + probs[0] + probs[1], 0.0]
        swap = dest[:, 1] < dest[:, 0]
        dest[swap], w[swap] = dest[swap, ::-1], w[swap, ::-1]
        keep = w != 0.0
        counts, cols, pvals = keep.sum(axis=1), dest[keep], w[keep]
        alpha = gamma_l / (gamma_l + cfg.beta)
        pbvals = alpha * pvals
    else:
        lat = StateIndexer((cfg.N1, cfg.N2))
        arr1, arr2 = lat.unflatten(np.arange(lat.size))
        events = [summaries[name] for name in EVENT_BY_ACTION[action]]
        P = np.stack([s.P for s in events])  # row l1: the event leaving queue l1
        P_beta = np.stack([s.P_beta for s in events])
        # serve takes one customer from the current queue, switch flips l1
        leave1 = ((action == SERVE) & (l1 == 0)).astype(int)
        leave2 = ((action == SERVE) & (l1 == 1)).astype(int)
        new_l1 = l1 if action == SERVE else 1 - l1

        def entries(x):
            q1 = np.clip((n1[x] - leave1[x])[:, None] + arr1, 0, cfg.X1)
            q2 = np.clip((n2[x] - leave2[x])[:, None] + arr2, 0, cfg.X2)
            return s_n1 * q1 + s_n2 * q2 + new_l1[x, None], P[l1[x]], P_beta[l1[x]]

        counts, cols, (pvals, pbvals) = _pooled_rows(states, n_states, entries)

    indptr = np.zeros(n_states + 1, dtype=np.int64)
    indptr[states + 1] = counts
    np.cumsum(indptr, out=indptr)
    P = sparse.csr_matrix((pvals, cols, indptr), shape=(n_states, n_states))
    P_beta = sparse.csr_matrix((pbvals, cols.copy(), indptr.copy()),
                               shape=(n_states, n_states))
    return ActionModel(action=action, P=P, P_beta=P_beta, C=C, feasible_mask=feasible_mask)


def _stack_action_models(models: List[ActionModel]) -> ValueGraph:
    """One Q node per feasible (state, action): state-major, actions ascending.

    ``models[a]`` is the model of action a.  A feasible row's entries are
    contiguous in its model and an infeasible row is empty, so each model's
    entries are scattered, in order, to its nodes' ranges.
    """
    q_state, q_action = np.nonzero(np.stack([m.feasible_mask for m in models], axis=1))
    lengths = np.stack([np.diff(m.P.indptr) for m in models], axis=1)[q_state, q_action]
    q_indptr = np.concatenate(([0], np.cumsum(lengths)))
    q_cost = np.empty(len(q_state))
    q_cols = np.empty(q_indptr[-1], dtype=np.int64)
    q_probs, q_dprobs = np.empty(q_indptr[-1]), np.empty(q_indptr[-1])
    for a, m in enumerate(models):
        nodes = np.flatnonzero(q_action == a)
        x = q_state[nodes]
        at = np.repeat(q_indptr[nodes] - m.P.indptr[x], lengths[nodes]) + np.arange(m.P.nnz)
        q_cols[at] = m.P.indices
        q_probs[at] = m.P.data
        q_dprobs[at] = m.P_beta.data
        q_cost[nodes] = m.C[x]
    return ValueGraph(n_states=len(models[0].C), q_state=q_state, q_action=q_action,
                      q_cost=q_cost, q_indptr=q_indptr, q_cols=q_cols, q_probs=q_probs,
                      q_dprobs=q_dprobs)


def build_smdp(cfg: ScenarioConfig,
               summaries: Optional[Dict[str, ArrivalSummary]] = None) -> SmdpModel:
    """Build the embedded decision model of a scenario as one state-action
    graph, whose nodes at each state are its feasible actions in the order
    idle < serve < switch."""
    if summaries is None:
        summaries = build_arrival_summaries(cfg)
    return SmdpModel(cfg, _stack_action_models(
        [build_action_model(cfg, summaries, a) for a in ACTIONS]))


def write_action_model_csv(model: ActionModel, path) -> None:
    """Dump one action model as rows (idx_from, idx_to, p, p_beta, cost)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["idx_from", "idx_to", "p", "p_beta", "cost"])
        P = model.P
        for x in range(P.shape[0]):
            lo, hi = P.indptr[x], P.indptr[x + 1]
            for k in range(lo, hi):
                writer.writerow([
                    x,
                    int(P.indices[k]),
                    repr(float(P.data[k])),
                    repr(float(model.P_beta.data[k])),
                    repr(float(model.C[x])),
                ])
