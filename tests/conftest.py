from dataclasses import dataclass

import numpy as np
import pytest

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    ArrivalSummary,
    Exponential,
    Gamma,
    ScenarioConfig,
    StateIndexer,
    Truncation,
    holding_cost_arrivals,
    holding_cost_existing,
)
from pollsys import solver
from pollsys.ctmdp import _action, uniformisation
from pollsys.lattice import _poisson_terms
from pollsys.model import EVENTS, DecisionModel, box_rules, triple_indexer
from pollsys.simulate import _costs
from pollsys.solver import ValueGraph, _policy_nodes, policy_improve, stack_actions


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


def scipy_pdf(dist):
    """The density of an exponential or gamma duration from ``scipy.stats``,
    independent of the code under test: the quadrature oracles' weight."""
    from scipy import stats

    if isinstance(dist, Exponential):
        return stats.expon(scale=1.0 / dist.rate).pdf
    return stats.gamma(dist.shape, scale=dist.scale).pdf


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


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse generator of the truncated arrival-count birth process."""

    Q: object  # scipy.sparse.csr_matrix
    indexer: StateIndexer
    gamma_max: float  # largest row outflow, the uniformisation rate Lambda

    @property
    def size(self) -> int:
        return self.indexer.size


def build_generator(cfg: ScenarioConfig) -> GeneratorMatrix:
    """Assemble the truncated generator over the (N1+1)x(N2+1) count lattice,
    the definition of the arrival lattice that `pollsys.lattice` sums in
    closed form.

    Absorbing mode keeps every row conservative and funnels all overflow into
    the corner cell; unassigned-outflow mode keeps the full diagonal and
    simply drops flows past the edges, leaving boundary rows sub-conservative.
    """
    from scipy import sparse

    N1, N2 = cfg.N1, cfg.N2
    indexer = StateIndexer((N1, N2))
    cell = np.arange(indexer.size)
    a1, a2 = indexer.unflatten(cell)
    lam1, lam2 = float(cfg.lambda1), float(cfg.lambda2)
    out1 = np.where(a1 < N1, lam1, 0.0)
    out2 = np.where(a2 < N2, lam2, 0.0)
    if cfg.truncation_mode is Truncation.ABSORBING:
        diag = -(out1 + out2)
    else:
        diag = np.full(indexer.size, -(lam1 + lam2))
    s1, s2 = indexer.strides
    vals = np.stack([out1, out2, diag], axis=1)
    keep = np.stack([out1 > 0, out2 > 0, diag != 0.0], axis=1)
    rows = np.broadcast_to(cell[:, None], keep.shape)[keep]
    cols = np.stack([cell + s1, cell + s2, cell], axis=1)[keep]
    Q = sparse.csr_matrix(
        (vals[keep], (rows, cols)), shape=(indexer.size, indexer.size), dtype=float
    )
    gamma_max = max(0.0, float(-diag.min()))
    return GeneratorMatrix(Q=Q, indexer=indexer, gamma_max=gamma_max)


def _uniformised_steps(gen: GeneratorMatrix, terms: int) -> np.ndarray:
    """Rows v_0..v_{terms-1} with v_0 the origin and v_{k+1} = v_k (I + Q/Lambda).

    Lambda = ``gen.gamma_max``, so I + Q/Lambda is entrywise non-negative and
    every v_k is a probability vector (sub-stochastic in unassigned mode).
    """
    steps = np.zeros((terms, gen.size))
    steps[0, 0] = 1.0
    if terms > 1:  # a zero Lambda needs one term only
        from scipy import sparse

        step = (sparse.identity(gen.size, format="csr") + gen.Q / gen.gamma_max).T.tocsr()
        for k in range(1, terms):
            steps[k] = step @ steps[k - 1]
    return steps


def _weighted_sum(w: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """sum_k w_k v_k, added in k order at every cell."""
    return (w[:, None] * steps[:len(w)]).sum(axis=0)


def uniformised_arrival_probs(gen: GeneratorMatrix, f_e, beta=None) -> np.ndarray:
    """The uniformised transient sum, the oracle of
    `pollsys.expected_arrival_probs`: E[e^{-beta t_e} p(t_e)] with p(t) =
    sum_k Pois(k; Lambda t) v_k, whose Poisson weights averaged over the
    duration are its mixed-Poisson pmf."""
    terms = _poisson_terms(f_e, gen.gamma_max)
    w = f_e.poisson_mixture(gen.gamma_max, np.arange(terms), 0.0 if beta is None else beta)
    return _weighted_sum(w, _uniformised_steps(gen, terms))


def oracle_summaries(cfg: ScenarioConfig) -> dict:
    """`pollsys.build_arrival_summaries` with every lattice summed by
    uniformisation: one generator and one run of uniformised steps, long
    enough for the event with the most terms, shared by all events."""
    gen = build_generator(cfg)
    lam = gen.gamma_max
    events = {name: getattr(cfg, name) for name in EVENTS}
    terms = {name: _poisson_terms(dist, lam) for name, dist in events.items()}
    steps = _uniformised_steps(gen, max(terms.values()))
    out = {}
    for name, dist in events.items():
        k = np.arange(terms[name])
        w = dist.poisson_mixture(lam, k)
        out[name] = ArrivalSummary(
            P=_weighted_sum(w, steps),
            P_beta=_weighted_sum(dist.poisson_mixture(lam, k, cfg.beta), steps),
            C_H=holding_cost_existing(dist, cfg.beta),
            C_I=holding_cost_arrivals(dist, cfg),
            tail_mass=1.0 - float(w.sum()),
        )
    return out


def build_preemptive(cfg: ScenarioConfig) -> DecisionModel:
    """Uniformised model over (n1, n2, l1); every state is a decision state.

    A state-action graph without dynamics states: each action's row holds
    the two arrivals, the event's completion and a self-loop.
    """
    rates, g, alpha = uniformisation(cfg)
    lam1, lam2 = cfg.arrival_rates
    indexer = triple_indexer(cfg)
    n = indexer.size
    (_, _, l1), held, (arr1, arr2), busy = box_rules(cfg, indexer)
    x = np.arange(n)
    s_n1, s_n2, s_l1 = indexer.strides
    p1, p2 = np.full(n, lam1 / g), np.full(n, lam2 / g)

    def stay(rate):
        return 1.0 - (rate + lam1 + lam2) / g

    serve_rate, switch_rate = rates[l1], rates[2 + l1]
    served = x - np.where(l1 == 0, s_n1, s_n2) * busy
    switched = x + np.where(l1 == 0, s_l1, -s_l1)
    ones = np.ones(n, dtype=bool)
    cost, disc = held / (g + cfg.beta), np.full(n, alpha)
    # entries: arrival 1, arrival 2, completion, stay
    return DecisionModel(cfg, indexer, stack_actions([
        _action(ones, cost, np.stack([arr1, arr2, x, x], axis=1),
                np.stack([p1, p2, np.full(n, stay(0.0)), np.zeros(n)], axis=1), disc),
        _action(busy, cost, np.stack([arr1, arr2, served, x], axis=1),
                np.stack([p1, p2, serve_rate / g, stay(serve_rate)], axis=1), disc),
        _action(ones, cost, np.stack([arr1, arr2, switched, x], axis=1),
                np.stack([p1, p2, switch_rate / g, stay(switch_rate)], axis=1), disc),
    ]))


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
    zero = np.zeros(1, dtype=int)  # rollout, server location and action (IDLE)
    step = _costs(exp_config(c1=c1, c2=c2, beta=beta), np.zeros(1), zero, np.zeros(1),
                  np.array([dt], dtype=float), np.array([n1]), np.array([n2]), zero, zero,
                  np.zeros(len(arr), dtype=int), arr[:, 1], arr[:, 0].astype(int))
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
