from dataclasses import dataclass

import numpy as np
import pytest

from pollsys import IDLE, SERVE, SWITCH, Exponential, Gamma, ScenarioConfig
from pollsys import solver
from pollsys.simulate import _costs
from pollsys.solver import ValueGraph, _policy_nodes, policy_improve


def asym_var_config(**kw):
    """Symmetric-mean scenario whose queue 1 has the high-variance service
    and whose switch into queue 2 is the long switch-over."""
    base = dict(
        lambda1=0.8, lambda2=0.8,
        serve1=Gamma(1, 0.4), serve2=Gamma(30, 0.4 / 30),
        switch12=Gamma(30, 4 / 30), switch21=Gamma(1, 0.4),
        c1=1.0, c2=1.0, beta=0.05,
        X1=12, X2=12, N1=12, N2=12,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def slow_mode_config(**kw):
    """Priority-queue scenario with a fluid slow mode at queue 1."""
    base = dict(
        lambda1=1.5, lambda2=0.4,
        serve1=Gamma(30, 0.1 / 30), serve2=Gamma(20, 0.5 / 20),
        switch12=Gamma(30, 2 / 30), switch21=Gamma(20, 3 / 20),
        c1=2.0, c2=1.0, beta=0.05,
        X1=12, X2=12, N1=12, N2=12,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def exp_config(**kw):
    """Small all-exponential scenario, handy for closed-form checks."""
    base = dict(
        lambda1=1.0, lambda2=1.0,
        serve1=Exponential(4.0), serve2=Exponential(4.0),
        switch12=Exponential(2.0), switch21=Exponential(2.0),
        c1=1.0, c2=1.0, beta=0.05,
        X1=6, X2=6, N1=6, N2=6,
    )
    base.update(kw)
    return ScenarioConfig(**base)


@dataclass(frozen=True)
class PollingState:
    """Queue lengths, server location and server activity."""

    n1: int
    n2: int
    l1: int
    l2: int = 0

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("queue lengths must be non-negative")
        if self.l1 not in (0, 1):
            raise ValueError("server location must be 0 or 1")
        if self.l2 not in (0, 1, 2):
            raise ValueError("server activity must be 0, 1 or 2")

    @property
    def current_queue_length(self) -> int:
        return self.n1 if self.l1 == 0 else self.n2


def feasible_actions(state: PollingState):
    """Feasible decisions at a free server, ordered idle < serve < switch.

    Serving is only allowed when the queue at the server's location is
    non-empty; idling and switching are always allowed.
    """
    if state.l2 != 0:
        raise ValueError("actions are only consulted when the server is free (l2=0)")
    if state.current_queue_length > 0:
        return (IDLE, SERVE, SWITCH)
    return (IDLE, SWITCH)


class TabularModel:
    """Explicit model container for small hand-built decision processes."""

    def __init__(self, n_states, rows, feasible, fixed_rows=None):
        """``rows[(x, a)] = (cols, plain, discounted, cost)``;
        ``feasible[x]`` lists actions, whose nodes follow that order;
        ``fixed_rows[x]`` covers states without a choice."""
        fixed_rows = fixed_rows or {}
        nodes = []
        for x in range(n_states):
            if x in fixed_rows:
                nodes.append((x, -1, fixed_rows[x]))
            else:
                nodes.extend((x, a, rows[(x, a)]) for a in feasible.get(x, ()))
        q_state, q_action, entries = zip(*nodes)
        cols, plain, disc, cost = zip(*entries)
        self.n_states = n_states
        self.graph = ValueGraph(
            n_states=n_states,
            q_state=np.array(q_state, dtype=np.int64),
            q_action=np.array(q_action, dtype=np.int64),
            q_cost=np.array(cost, dtype=float),
            q_indptr=np.concatenate(([0], np.cumsum([len(c) for c in cols]))).astype(np.int64),
            q_cols=np.concatenate(cols).astype(np.int64),
            q_probs=np.concatenate(plain).astype(float),
            q_dprobs=np.concatenate(disc).astype(float),
        )

    def decision_table(self, actions):
        return np.asarray(actions, dtype=int).copy()


def assemble_policy_matrix(model, actions, discounted: bool = True):
    """Policy transition matrix (discounted or plain) and its cost vector."""
    graph = model.graph
    nodes = _policy_nodes(graph, actions)
    if discounted:
        rows = graph.discounted
    else:
        from scipy import sparse

        rows = sparse.csr_matrix((graph.q_probs, graph.q_cols, graph.q_indptr),
                                 shape=(graph.n_nodes, graph.n_states))
    return rows[nodes], graph.q_cost[nodes]


def step_wise_cost(n1, n2, arrivals, dt, c1, c2, beta):
    """Locally discounted holding cost of one embedded transition.

    ``arrivals`` holds (class, time) pairs with times in [0, dt].  Customers
    present at entry accrue cost over the whole interval; each arrival from
    its arrival time to the interval end.  This is one step of the
    simulator's `_costs`, so it gives the simulator's step cost bit for bit.
    """
    arr = np.array(arrivals, dtype=float).reshape(-1, 2)
    step = _costs(np.zeros(1), np.zeros(1, dtype=int), np.zeros(1), np.array([dt], dtype=float),
                  np.array([c1 * n1 + c2 * n2]), np.zeros(1), np.zeros(len(arr), dtype=int),
                  arr[:, 1], arr[:, 0].astype(int), c1, c2, beta)
    return float(step[0])


def dense_policy_iteration(model, actions):
    """Policy iteration in plain float64 from ``actions``, the oracle of the
    solver's factored evaluations: each policy's values by np.linalg.solve
    on the dense I - A_pi, then policy_improve.  Returns the final actions."""
    changed = True
    while changed:
        A, cost = assemble_policy_matrix(model, actions)
        J = np.linalg.solve(np.eye(A.shape[0]) - A.toarray(), cost)
        actions, changed = policy_improve(model, J, actions)
    return actions


def record_policy_evaluations(monkeypatch) -> list:
    """A list that receives a copy of the J of every `policy_evaluate` call
    that `policy_iteration` makes from now on, in order."""
    evaluate, history = solver.policy_evaluate, []

    def recording(*args, **kwargs):
        J = evaluate(*args, **kwargs)
        history.append(J.copy())
        return J

    monkeypatch.setattr(solver, "policy_evaluate", recording)
    return history


def exhaustive_action(n1, n2, l1):
    """The exhaustive rule at one state, the scalar oracle of the tables."""
    current = n1 if l1 == 0 else n2
    other = n2 if l1 == 0 else n1
    if current > 0:
        return SERVE
    if other > 0:
        return SWITCH
    return IDLE


def heuristic_action(cfg, n1, n2, l1, served):
    """The priority-queue heuristic at one state with the served flag, the
    scalar oracle of the tables; returns (action, served').

    ``served`` records whether a queue-2 job has been served during the
    current visit; served' is ``action == SERVE`` at queue 2 and ``served``
    at queue 1.  The scenario's preconditions are not checked here.
    """
    mu1 = 1.0 / cfg.serve1.mean()
    mu2 = 1.0 / cfg.serve2.mean()
    rho = cfg.lambda1 / mu1 + cfg.lambda2 / mu2
    t12, t21 = cfg.switch12.mean(), cfg.switch21.mean()
    threshold = cfg.c1 * mu1 * rho + cfg.c2 * mu2 * (1.0 - rho)
    if l1 == 0:  # at the priority queue
        if n1 > 0:
            return SERVE, served
        if n2 > cfg.lambda2 * t21:
            return SWITCH, served
        return IDLE, served
    if n2 > 0:
        ratio = (n1 + cfg.lambda1 * t12) / (n1 + mu1 * t12 + (mu1 - cfg.lambda1) * t21)
        if ratio <= threshold or not served:
            return SERVE, True
        return SWITCH, False
    if n1 > cfg.lambda1 * t12:
        return SWITCH, False
    return IDLE, False


@pytest.fixture
def asym_cfg():
    return asym_var_config()


@pytest.fixture
def slow_cfg():
    return slow_mode_config()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240810))
