"""Policy evaluation, policy iteration and asynchronous value iteration.

Solvers are generic over a small model protocol: ``n_states``,
``decision_states``, ``fixed_states``, ``actions_at(x)``,
``action_row(x, a) -> (cols, plain, discounted, cost)`` and
``fixed_row(x)`` for states without a choice.  Ties in the greedy step are
broken by the fixed action order idle < serve < switch, which makes every
solve bit-reproducible.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .ctmdp import ValueGraph
from .model import ACTION_NAMES, triple_indexer

class SingularSystemError(RuntimeError):
    """Policy evaluation hit a cycle of undiscounted linking transitions."""


@dataclass
class Policy:
    """Action table plus solver diagnostics.

    ``actions[x]`` is -1 at states without a choice; ``J`` carries the
    discounted state values from the final evaluation or sweep.
    ``residual`` is set by value iteration only: the largest value change
    in its last sweep.  It is not a bound on the error of ``J``: at
    slow_mode X=40 a stop at residual <= 6.2e-7 leaves ``J`` up to 9.7e-5
    from the exact policy-iteration values.
    """

    actions: np.ndarray
    J: np.ndarray
    iterations: int
    converged: bool
    residual: float = 0.0
    J_history: Optional[List[np.ndarray]] = field(default=None, repr=False)


def _assemble(model, actions):
    """Stack the policy's discounted rows into (I-ready) CSR pieces."""
    n = model.n_states
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols_parts, disc_parts = [], []
    plain_parts = []
    cost = np.zeros(n)
    link_next = np.full(n, -1, dtype=np.int64)
    fixed = set(int(x) for x in model.fixed_states)
    for x in range(n):
        if x in fixed:
            cols, plain, disc, c = model.fixed_row(x)
        else:
            a = int(actions[x])
            feas = model.actions_at(x)
            if a not in feas:
                raise ValueError(f"policy assigns infeasible action {a} at state {x}")
            cols, plain, disc, c = model.action_row(x, a)
        if len(cols) == 1 and disc[0] >= 1.0 - 1e-15 and len(plain) == 1:
            link_next[x] = cols[0]
        cols_parts.append(np.asarray(cols, dtype=np.int64))
        disc_parts.append(np.asarray(disc, dtype=float))
        plain_parts.append(np.asarray(plain, dtype=float))
        cost[x] = c
        indptr[x + 1] = indptr[x] + len(cols)
    cols = np.concatenate(cols_parts) if cols_parts else np.zeros(0, dtype=np.int64)
    disc = np.concatenate(disc_parts) if disc_parts else np.zeros(0)
    plain = np.concatenate(plain_parts) if plain_parts else np.zeros(0)
    A = sparse.csr_matrix((disc, cols, indptr), shape=(n, n))
    P = sparse.csr_matrix((plain, cols.copy(), indptr.copy()), shape=(n, n))
    return A, P, cost, link_next


def _check_linking_cycles(link_next: np.ndarray) -> None:
    n = len(link_next)
    for start in range(n):
        x, steps = start, 0
        while x >= 0 and link_next[x] >= 0:
            x = int(link_next[x])
            steps += 1
            if x == start or steps > n:
                raise SingularSystemError(
                    f"cycle of undiscounted linking transitions through state {start}"
                )


def assemble_policy_matrix(model, actions, discounted: bool = True):
    """Policy transition matrix (discounted or plain) and its cost vector."""
    A, P, cost, _ = _assemble(model, actions)
    return (A if discounted else P), cost


def policy_evaluate(model, actions) -> np.ndarray:
    """Solve (I - P_pi^beta) J = C_pi exactly for the policy's state values."""
    A, _, cost, link_next = _assemble(model, actions)
    _check_linking_cycles(link_next)
    n = model.n_states
    eye = sparse.identity(n, format="csr")
    system = (eye - A).tocsc()
    density = A.nnz / max(n * n, 1)
    if density > 0.02 and n <= 6000:
        J = np.linalg.solve(system.toarray(), cost)
    else:
        J = spsolve(system, cost)
    resid = np.abs(system @ J - cost).max()
    scale = max(np.abs(cost).max(), 1.0)
    if not np.isfinite(J).all() or resid > 1e-8 * scale:
        raise SingularSystemError(
            f"policy evaluation residual {resid:.3e} exceeds tolerance"
        )
    return J


def policy_improve(model, J, actions=None):
    """Greedy one-step look-ahead; returns (new_actions, changed)."""
    n = model.n_states
    new_actions = np.full(n, -1, dtype=int)
    for x in model.decision_states:
        x = int(x)
        best_a, best_q = -1, np.inf
        for a in model.actions_at(x):
            cols, _, disc, cost = model.action_row(x, a)
            q = cost + float(disc @ J[cols])
            if q < best_q:
                best_q, best_a = q, a
        if best_a < 0:
            raise ValueError(f"no feasible action at decision state {x}")
        new_actions[x] = best_a
    changed = actions is None or bool(
        np.any(new_actions[model.decision_states] != np.asarray(actions)[model.decision_states])
    )
    return new_actions, changed


def initial_policy(model) -> np.ndarray:
    """First feasible action per state (idle, for the polling models)."""
    actions = np.full(model.n_states, -1, dtype=int)
    for x in model.decision_states:
        actions[int(x)] = model.actions_at(int(x))[0]
    return actions


def policy_iteration(model, pi0=None, maxiter: int = 100,
                     keep_history: bool = False) -> Policy:
    """Alternate exact evaluation and greedy improvement until stable."""
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    actions = initial_policy(model) if pi0 is None else np.asarray(pi0, dtype=int).copy()
    history = [] if keep_history else None
    J = np.zeros(model.n_states)
    converged = False
    iterations = 0
    for _ in range(maxiter):
        iterations += 1
        J = policy_evaluate(model, actions)
        if keep_history:
            history.append(J.copy())
        new_actions, changed = policy_improve(model, J, actions)
        actions = new_actions
        if not changed:
            converged = True
            break
    return Policy(actions=actions, J=J, iterations=iterations,
                  converged=converged, J_history=history)


def _vi_phases(graph: ValueGraph):
    """Per-phase sweep data: dynamics states first, then decision states.

    Each phase is ``(states, P, cost, disc, starts, actions)``: the states it
    updates, the plain rows of their Q nodes as one CSR matrix, the nodes'
    costs, discounts and actions, and where each state's nodes start.
    """
    P = sparse.csr_matrix((graph.q_probs, graph.q_cols, graph.q_indptr),
                          shape=(graph.n_nodes, graph.n_states))
    node_is_decision = graph.decision_mask[graph.q_state]
    phases = []
    for decision in (False, True):
        states = np.flatnonzero(graph.decision_mask == decision)
        if len(states) == 0:
            continue
        nodes = np.flatnonzero(node_is_decision == decision)
        starts = np.concatenate(([0], np.cumsum(graph.state_nq[states])[:-1]))
        phases.append((states, P[nodes], graph.q_cost[nodes], graph.q_disc[nodes], starts,
                       graph.q_action[nodes]))
    return phases


def value_iterate(graph: ValueGraph, eps: Optional[float] = None,
                  maxiter: int = 100000) -> Policy:
    """Two-phase asynchronous value iteration over the state-value graph.

    Each sweep first updates every dynamics state (a state without a choice,
    one Q node) from the current values, then every decision state, as the
    minimum over its Q nodes, from the values the first phase just wrote.
    Each phase is one sparse matrix-vector product over its Q nodes; the
    decision phase adds one segment minimum.  The order is chosen for the
    non-preemptive model, whose linking rows (commit to serve or switch)
    carry discount 1: a decision state reads the in-progress state it links
    to after that state's update in the same sweep, so every sweep contracts
    by the largest uniformised discount, where a Jacobi sweep would pass the
    update through a linking row only one sweep later.  Every state is
    updated once per sweep in a fixed order, so the iteration converges like
    any asynchronous value iteration (Bertsekas & Tsitsiklis, *Parallel and
    Distributed Computation*, 1989, section 6.3).

    Starts from J = 0 and stops when the largest value change in a sweep is
    at most ``eps`` (default 1e-8 * max cost); that change is returned as
    ``residual``.  It is not an error bound: with discounts near 1 the
    values can still be far more than ``eps`` from the fixed point (9.7e-5
    against eps = 6.2e-7 at slow_mode X=40).  The greedy actions are
    re-read from the final values; a tie goes to the first Q node of the
    state, i.e. the lowest action id (idle < serve < switch).
    """
    if eps is None:
        eps = 1e-8 * float(np.abs(graph.q_cost).max())
    if eps < 0:
        raise ValueError("eps must be non-negative")
    phases = _vi_phases(graph)
    J = np.zeros(graph.n_states)
    converged = False
    sweeps = 0
    delta = np.inf
    while sweeps < maxiter:
        sweeps += 1
        delta = 0.0
        for states, P, cost, disc, starts, _ in phases:
            best = np.minimum.reduceat(cost + disc * (P @ J), starts)
            delta = max(delta, float(np.abs(best - J[states]).max()))
            J[states] = best
        if delta <= eps:
            converged = True
            break

    actions = np.full(graph.n_states, -1, dtype=int)
    if graph.decision_mask.any():  # the decision phase is the last one
        states, P, cost, disc, starts, node_action = phases[-1]
        q = cost + disc * (P @ J)
        best = np.repeat(np.minimum.reduceat(q, starts), graph.state_nq[states])
        node = np.where(q == best, np.arange(len(q)), len(q))
        actions[states] = node_action[np.minimum.reduceat(node, starts)]
    return Policy(actions=actions, J=J, iterations=sweeps,
                  converged=converged, residual=float(delta))


def export_policy_csv(table: np.ndarray, cfg, out_dir, name: str):
    """Write the (n1, n2, l1, action) table, one CSV per server location."""
    import os

    indexer = triple_indexer(cfg)
    n1, n2 = np.divmod(np.arange((cfg.X1 + 1) * (cfg.X2 + 1)), cfg.X2 + 1)
    paths = []
    for loc in (0, 1):
        codes = np.asarray(table)[indexer.flatten(n1, n2, loc)].astype(int).tolist()
        path = os.path.join(out_dir, f"policy_{name}_q{loc + 1}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n1", "n2", "l1", "action"])
            writer.writerows(zip(n1.tolist(), n2.tolist(), itertools.repeat(loc),
                                 [ACTION_NAMES.get(a, str(a)) for a in codes]))
        paths.append(path)
    return paths


class TabularModel:
    """Explicit model container for small hand-built decision processes."""

    def __init__(self, n_states, rows, feasible, fixed_rows=None):
        """``rows[(x, a)] = (cols, plain, discounted, cost)``;
        ``feasible[x]`` lists actions; ``fixed_rows[x]`` covers states
        without a choice."""
        self.n_states = n_states
        self._rows = {
            k: (np.asarray(c, dtype=np.int64), np.asarray(p, float),
                np.asarray(d, float), float(cost))
            for k, (c, p, d, cost) in rows.items()
        }
        self._feasible = {x: tuple(a) for x, a in feasible.items()}
        self._fixed = {}
        if fixed_rows:
            self._fixed = {
                x: (np.asarray(c, dtype=np.int64), np.asarray(p, float),
                    np.asarray(d, float), float(cost))
                for x, (c, p, d, cost) in fixed_rows.items()
            }
        self.decision_states = np.array(sorted(self._feasible), dtype=np.int64)
        self.fixed_states = np.array(sorted(self._fixed), dtype=np.int64)

    def actions_at(self, x):
        return self._feasible[x]

    def action_row(self, x, a):
        return self._rows[(x, a)]

    def fixed_row(self, x):
        return self._fixed[x]

    def decision_table(self, actions):
        return np.asarray(actions, dtype=int).copy()
