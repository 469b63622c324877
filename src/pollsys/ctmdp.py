"""Uniformised continuous-time decision models of the polling system.

All event durations must be exponential here.  The preemptive model leaves
the server state out and re-decides every sampled epoch; the non-preemptive
model tracks the server activity explicitly, connects decision states to
in-progress dynamics through instantaneous, undiscounted linking rows, and
therefore needs state-action-dependent discount factors.  Both models are
built with array operations straight into a flattened state-value graph,
which exposes the (at most four entries per row) sparsity to the value
iteration solver; the per-row accessors that policy iteration uses are
slices of that graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .distributions import Exponential
from .model import IDLE, SERVE, SWITCH, ScenarioConfig, quad_indexer, triple_indexer


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


@dataclass(frozen=True)
class ValueGraph:
    """Flattened state-value graph: Q nodes grouped contiguously per state."""

    n_states: int
    q_state: np.ndarray  # state index of each Q node
    q_action: np.ndarray  # action id, -1 for dynamics continuation nodes
    q_cost: np.ndarray
    q_disc: np.ndarray  # scalar discount per node
    q_indptr: np.ndarray  # neighbour ranges
    q_cols: np.ndarray
    q_probs: np.ndarray
    state_nq: np.ndarray  # number of Q nodes per state
    decision_mask: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.q_cost)


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
    """Value graph from three action slots per state (idle, serve, switch).

    ``cols``/``probs`` have shape (n_states, 3, entries); ``valid``,
    ``action``, ``cost`` and ``disc`` have shape (n_states, 3).  A dynamics
    state uses slot 0 alone, with action -1.  Taking the valid slots in
    row-major order groups each state's nodes contiguously, in state order,
    with its actions ascending.
    """
    n, _, k = cols.shape
    keep = valid.ravel()
    q_indptr, q_cols, q_probs = _csr_rows(cols.reshape(-1, k)[keep], probs.reshape(-1, k)[keep])
    state_nq = valid.sum(axis=1)
    return ValueGraph(
        n_states=n,
        q_state=np.repeat(np.arange(n), state_nq),
        q_action=action.ravel()[keep].astype(np.int64),
        q_cost=cost.ravel()[keep],
        q_disc=disc.ravel()[keep],
        q_indptr=q_indptr,
        q_cols=q_cols,
        q_probs=q_probs,
        state_nq=state_nq,
        decision_mask=action[:, 0] >= 0,
    )


class _GraphRows:
    """Per-row model protocol served from the stored value graph ``graph``.

    Policy iteration calls these accessors once per state and action, so the
    node and entry offsets and the node costs are also kept as Python lists,
    which index faster than numpy arrays one element at a time, and the
    discounted probabilities are formed once.
    """

    def _use_graph(self, graph: ValueGraph) -> None:
        self.graph = graph
        self.decision_states = np.flatnonzero(graph.decision_mask)
        self.fixed_states = np.flatnonzero(~graph.decision_mask)
        # node of (x, a) at 3 * x + a; a dynamics state's node sits at a = 0
        node_at = np.full(3 * graph.n_states, -1, dtype=np.int64)
        node_at[3 * graph.q_state + np.maximum(graph.q_action, 0)] = np.arange(graph.n_nodes)
        self._node_at = node_at.tolist()
        self._node_action = graph.q_action.tolist()
        self._node_start = np.concatenate(([0], np.cumsum(graph.state_nq))).tolist()
        self._entry_start = graph.q_indptr.tolist()
        self._node_cost = graph.q_cost.tolist()
        self._disc_probs = np.repeat(graph.q_disc, np.diff(graph.q_indptr)) * graph.q_probs

    def _node(self, x: int, a: int) -> int:
        node = self._node_at[3 * x + max(a, 0)]
        if node < 0 or self._node_action[node] != a:
            raise KeyError(f"action {a} is not available at state {x}")
        return node

    def _row(self, node: int):
        lo, hi = self._entry_start[node], self._entry_start[node + 1]
        return (self.graph.q_cols[lo:hi], self.graph.q_probs[lo:hi], self._disc_probs[lo:hi],
                self._node_cost[node])

    def actions_at(self, x: int):
        acts = tuple(self._node_action[self._node_start[x]:self._node_start[x + 1]])
        if acts[0] < 0:
            raise KeyError(f"state {x} has no choice")
        return acts

    def action_row(self, x: int, a: int):
        if a < 0:
            raise KeyError(f"state {x} has no action {a}")
        return self._row(self._node(x, a))

    def fixed_row(self, x: int):
        return self._row(self._node(x, -1))

    def discount_of(self, x: int, a: int) -> float:
        """State-action discount: 1 on linking rows, else a uniformised factor."""
        if self._node_action[self._node_start[x]] < 0:
            a = -1
        return float(self.graph.q_disc[self._node(x, a)])


class PreemptiveModel(_GraphRows):
    """Uniformised model over (n1, n2, l1); every state is a decision state."""

    def __init__(self, cfg: ScenarioConfig):
        mu1, mu2, s12, s21 = _exponential_rates(cfg)
        if cfg.rate_fn is not None:
            raise ModelError("uniformised models require homogeneous arrival rates")
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
        self._use_graph(_graph_from_slots(
            cols, probs,
            valid=np.stack([ones, current > 0, ones], axis=1),  # serve needs a customer
            action=np.tile([IDLE, SERVE, SWITCH], (n, 1)),
            cost=np.stack([held] * 3, axis=1),
            disc=np.full((n, 3), self.alpha),
        ))

    def decision_table(self, actions: np.ndarray) -> np.ndarray:
        return np.asarray(actions, dtype=int).copy()


class NonPreemptiveModel(_GraphRows):
    """Uniformised model over (n1, n2, l1, l2) with linking transitions.

    Rows for in-progress states (l2 in {1, 2}) are fixed once; decision rows
    (l2 = 0) depend on the chosen action.  Committing to serve or switch is a
    linking transition: probability one, zero cost, no discounting.  Idling
    is sampled at the total arrival rate and lands in another decision state.
    """

    def __init__(self, cfg: ScenarioConfig):
        mu1, mu2, s12, s21 = _exponential_rates(cfg)
        if cfg.rate_fn is not None:
            raise ModelError("uniformised models require homogeneous arrival rates")
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
        self._use_graph(_graph_from_slots(
            cols, probs,
            valid=np.stack([np.ones(n, dtype=bool), decision & (current > 0), decision],
                           axis=1),  # serve needs a customer
            action=np.stack([np.where(decision, IDLE, -1), np.full(n, SERVE), np.full(n, SWITCH)],
                            axis=1),
            cost=np.stack([np.where(decision, held / (cfg.beta + gi), held / (g + cfg.beta)),
                           zeros, zeros], axis=1),
            disc=np.stack([np.where(decision, self.alpha_idle, self.alpha), ones, ones],
                          axis=1),  # linking rows: discount 1
        ))

    def decision_table(self, actions: np.ndarray) -> np.ndarray:
        """Project decision-state actions onto the (n1, n2, l1) box."""
        tri = triple_indexer(self.cfg)
        table = np.full(tri.size, -1, dtype=int)
        n1, n2, l1, _ = self.indexer.unflatten(self.decision_states)
        table[tri.flatten(n1, n2, l1)] = np.asarray(actions)[self.decision_states]
        return table


def build_preemptive(cfg: ScenarioConfig) -> PreemptiveModel:
    return PreemptiveModel(cfg)


def build_nonpreemptive(cfg: ScenarioConfig) -> NonPreemptiveModel:
    return NonPreemptiveModel(cfg)


def build_value_graph(model) -> ValueGraph:
    """One Q node per feasible (state, action), one per dynamics state.

    Node order groups same-state nodes contiguously in state order, with a
    state's actions ascending (idle < serve < switch); value iteration relies
    on this ordering.  The uniformised models store their graph and return
    it here; any other model is read through its per-row protocol and must
    discount each row by a single factor.
    """
    graph = getattr(model, "graph", None)
    if graph is not None:
        return graph
    fixed = set(np.asarray(model.fixed_states).tolist())
    nodes = [(x, a) + tuple(model.fixed_row(x) if a < 0 else model.action_row(x, a))
             for x in range(model.n_states)
             for a in ((-1,) if x in fixed else model.actions_at(x))]
    q_state, q_action, cols, probs, disc, q_cost = zip(*nodes)
    lengths = np.array([len(c) for c in cols], dtype=np.int64)
    node_of = np.repeat(np.arange(len(nodes)), lengths)
    q_probs, disc = np.concatenate(probs).astype(float), np.concatenate(disc).astype(float)
    total = np.bincount(node_of, weights=q_probs, minlength=len(nodes))
    scale = np.divide(np.bincount(node_of, weights=disc, minlength=len(nodes)), total,
                      out=np.zeros(len(nodes)), where=total > 0)
    off = np.abs(disc - scale[node_of] * q_probs) > 1e-9
    if np.any(off & (total[node_of] > 0)):
        raise ModelError(
            "value graph needs a scalar discount per row; this model "
            "carries per-entry discounting"
        )
    q_state = np.array(q_state, dtype=np.int64)
    return ValueGraph(
        n_states=model.n_states,
        q_state=q_state,
        q_action=np.array(q_action, dtype=np.int64),
        q_cost=np.array(q_cost, dtype=float),
        q_disc=scale,
        q_indptr=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        q_cols=np.concatenate(cols).astype(np.int64),
        q_probs=q_probs,
        state_nq=np.bincount(q_state, minlength=model.n_states).astype(np.int64),
        decision_mask=~np.isin(np.arange(model.n_states), list(fixed)),
    )
