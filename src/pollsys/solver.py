"""Policy evaluation, policy iteration and asynchronous value iteration.

Every model reaches the solvers as one state-action graph, a
:class:`ValueGraph`: one Q node per feasible (state, action) pair and a
single node with action -1 per state without a choice, grouped by state in
state order, which every model assembles with :func:`stack_actions` from
its actions' masks, costs and CSR rows.  Each node carries its cost and its
transition row with plain and with discounted probabilities, so each entry
may have its own discount (the semi-Markov model) or a row may share one
(the uniformised models).
Policy evaluation selects one node per state and solves one linear system;
policy improvement and each value-iteration sweep are a sparse
matrix-vector product over the nodes followed by a per-state minimum, over
each state's contiguous nodes (:func:`_greedy_actions`) or down a padded
table with one column per state (:class:`_Sweep`).  A tie in that minimum
goes to the state's first node, which for the polling models is the lowest
action id (idle < serve < switch), so every solve is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, List, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


class SingularSystemError(RuntimeError):
    """Policy evaluation hit a cycle of undiscounted linking transitions."""


@dataclass(frozen=True)
class ValueGraph:
    """State-action graph: Q nodes grouped contiguously per state, in state order.

    Node i belongs to state ``q_state[i]``, takes action ``q_action[i]``
    (-1 at a state without a choice), costs ``q_cost[i]`` and moves to the
    states ``q_cols[q_indptr[i]:q_indptr[i + 1]]`` with the plain
    probabilities ``q_probs`` and the discounted probabilities ``q_dprobs``
    of that range.  Every state has at least one node.
    """

    n_states: int
    q_state: np.ndarray
    q_action: np.ndarray
    q_cost: np.ndarray
    q_indptr: np.ndarray
    q_cols: np.ndarray
    q_probs: np.ndarray
    q_dprobs: np.ndarray

    def __post_init__(self):
        empty = np.flatnonzero(self.state_nq == 0)
        if len(empty):
            raise ValueError(f"state {empty[0]} has no Q node")

    @property
    def n_nodes(self) -> int:
        return len(self.q_cost)

    @cached_property
    def state_nq(self) -> np.ndarray:
        """Number of Q nodes per state."""
        return np.bincount(self.q_state, minlength=self.n_states)

    @cached_property
    def node_start(self) -> np.ndarray:
        """First Q node of each state."""
        return np.concatenate(([0], np.cumsum(self.state_nq)[:-1]))

    @cached_property
    def decision_mask(self) -> np.ndarray:
        """States with a choice, i.e. whose nodes carry actions."""
        return self.q_action[self.node_start] >= 0

    @cached_property
    def discounted(self) -> sparse.csr_matrix:
        """The discounted rows as an (n_nodes, n_states) CSR matrix."""
        from scipy import sparse

        return sparse.csr_matrix((self.q_dprobs, self.q_cols, self.q_indptr),
                                 shape=(self.n_nodes, self.n_states))

    def row(self, x: int, a: int = -1):
        """``(cols, plain, discounted, cost)`` of state x's node for action a
        (-1 at a state without a choice)."""
        lo = self.node_start[x]
        hit = np.flatnonzero(self.q_action[lo:lo + self.state_nq[x]] == a)
        if len(hit) == 0:
            raise KeyError(f"action {a} is not available at state {x}")
        node = lo + hit[0]
        entries = slice(self.q_indptr[node], self.q_indptr[node + 1])
        return (self.q_cols[entries], self.q_probs[entries], self.q_dprobs[entries],
                float(self.q_cost[node]))


def csr_rows(cols: np.ndarray, probs: np.ndarray):
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


def stack_actions(actions) -> ValueGraph:
    """The state-action graph of a model given action by action.

    ``actions[a]`` is ``(valid, cost, indptr, cols, probs, dprobs)`` for
    action a: the states where it may be taken, its cost at every state,
    and its plain and discounted rows in CSR form over all states, empty
    where it is not valid.  Each valid (state, action) pair is one node,
    state-major with the actions ascending; a state with a single node has
    no choice, and its node takes action -1.  A row's entries are
    contiguous, so each action's entries are scattered, in order, to its
    nodes' ranges.
    """
    valid, cost, indptr, cols, probs, dprobs = zip(*actions)
    q_state, q_action = np.nonzero(np.stack(valid, axis=1))
    lengths = np.stack([np.diff(p) for p in indptr], axis=1)[q_state, q_action]
    q_indptr = np.concatenate(([0], np.cumsum(lengths)))
    q_cost = np.empty(len(q_state))
    q_cols = np.empty(q_indptr[-1], dtype=np.int64)
    q_probs, q_dprobs = np.empty(q_indptr[-1]), np.empty(q_indptr[-1])
    for a in range(len(actions)):
        nodes = np.flatnonzero(q_action == a)
        x = q_state[nodes]
        at = np.repeat(q_indptr[nodes] - indptr[a][x], lengths[nodes]) + np.arange(len(cols[a]))
        q_cols[at], q_probs[at], q_dprobs[at] = cols[a], probs[a], dprobs[a]
        q_cost[nodes] = cost[a][x]
    n_states = len(valid[0])
    q_action[np.bincount(q_state, minlength=n_states)[q_state] == 1] = -1
    return ValueGraph(n_states=n_states, q_state=q_state, q_action=q_action, q_cost=q_cost,
                      q_indptr=q_indptr, q_cols=q_cols, q_probs=q_probs, q_dprobs=q_dprobs)


def build_value_graph(model) -> ValueGraph:
    """The model's state-action graph, which every solver reads."""
    return model.graph


@dataclass
class Policy:
    """Action table plus solver diagnostics.

    ``actions[x]`` is -1 at states without a choice; ``J`` carries the
    discounted state values from the final evaluation or sweep.
    ``residual`` and ``error_bound`` are set by value iteration only: the
    largest value change in its last sweep, and a bound on the largest
    distance of ``J`` from the optimal values that it implies (see
    :func:`value_iterate`).  The residual alone bounds nothing: at
    slow_mode X=40 a stop at residual <= 6.2e-7 leaves ``J`` up to 4.8e-5
    from the exact policy-iteration values.  ``changes`` (the number of
    decision actions each improvement changed), ``factorizations`` (the
    dense LU factorisations made, float32 or float64) and
    ``float64_factorizations`` (those of them in float64, made only where a
    float32 factor missed the residual check; see :func:`policy_evaluate`)
    are set by policy iteration only.
    """

    actions: np.ndarray
    J: np.ndarray
    iterations: int
    converged: bool
    residual: float = 0.0
    error_bound: float = 0.0
    changes: List[int] = field(default_factory=list)
    factorizations: int = 0
    float64_factorizations: int = 0


def _policy_nodes(graph: ValueGraph, actions) -> np.ndarray:
    """The node each state follows under ``actions``; a state without a
    choice follows its only node whatever ``actions`` holds there."""
    actions = np.asarray(actions)
    follows = ((graph.q_action == actions[graph.q_state])
               | ~graph.decision_mask[graph.q_state])
    missing = np.flatnonzero(np.bincount(graph.q_state[follows], minlength=graph.n_states) == 0)
    if len(missing):
        x = missing[0]
        raise ValueError(f"policy assigns infeasible action {actions[x]} at state {x}")
    return np.flatnonzero(follows)


def _check_finite(graph: ValueGraph) -> None:
    """Reject a NaN or infinite cost or discounted probability, naming the
    state of the first node that has one."""
    bad = ~np.isfinite(graph.q_cost)
    bad[np.searchsorted(graph.q_indptr, np.flatnonzero(~np.isfinite(graph.q_dprobs)),
                        side="right") - 1] = True
    if bad.any():
        x = graph.q_state[np.argmax(bad)]
        raise ValueError(f"a Q node of state {x} has a non-finite cost or discounted probability")


def _greedy_actions(graph: ValueGraph, J: np.ndarray) -> np.ndarray:
    """Per state, the action of the node minimising cost + discounted row @ J.

    A tie goes to the state's first node, a NaN value is rejected, and a
    state without a choice gets the action -1 of its only node.
    """
    q = graph.q_cost + graph.discounted @ J
    low = np.minimum.reduceat(q, graph.node_start)
    bad = np.flatnonzero(np.isnan(low))
    if len(bad):
        raise ValueError(f"action values at state {bad[0]} are NaN")
    hit = np.flatnonzero(q == low[graph.q_state])
    return graph.q_action[hit[np.searchsorted(hit, graph.node_start)]]


def _check_linking_cycles(A) -> None:
    """Reject a policy whose linking rows (one entry, discounted probability
    1) form a cycle, which makes I - A singular."""
    n = A.shape[0]
    single = np.flatnonzero(np.diff(A.indptr) == 1)
    linking = single[A.data[A.indptr[single]] >= 1.0 - 1e-15]
    link = np.full(n + 1, n)  # state n is a sink for chains that end
    link[linking] = A.indices[A.indptr[linking]]
    # a chain without a cycle ends within n links, and 2**bit_length(n) > n
    for _ in range(n.bit_length()):
        link = link[link]
    cyclic = np.flatnonzero(link[:n] != n)
    if len(cyclic):
        raise SingularSystemError(
            f"cycle of undiscounted linking transitions through state {cyclic[0]}"
        )


# A dense policy whose nodes differ from the factored policy's in more than
# n // UPDATE_RANK_DIVISOR rows is factored afresh instead of updated.
UPDATE_RANK_DIVISOR = 4

# A solve takes at most MAX_REFINEMENTS refinement steps.  A step shrinks
# the error by a factor of at most about cond(I - A_pi) * 6e-8, float32's
# unit roundoff (Higham, *Accuracy and Stability of Numerical Algorithms*,
# 2nd ed., section 12.2): 1e-2 at the SMDP policies' 1-norm condition
# numbers, which reach about 1.3e5.  Their first float32 solve misses the
# float64-level stop by a factor of at most about 5e7, so four steps reach
# it even at that bound; two do in every measured solve.  A system that
# needs more is close to float32's limit; it stops at the cap, and the
# residual check decides whether it is factored again in float64.
MAX_REFINEMENTS = 4

# The dense path holds a float32 LU (4 n^2 bytes) and its Woodbury block Z
# (n x n/UPDATE_RANK_DIVISOR float32s, n^2 bytes); a policy takes it only
# while those 5 n^2 bytes fit this budget, up to n = 10362.
DENSE_BUDGET_BYTES = 512 << 20


def _dense(n: int, nnz: int) -> bool:
    """Whether the policy system with ``n`` states and ``nnz`` entries in
    A_pi takes the dense LU: more than 2% of its entries set, and its
    float32 factor and update block within DENSE_BUDGET_BYTES."""
    return nnz / max(n * n, 1) > 0.02 and 5 * n * n <= DENSE_BUDGET_BYTES


class _Factorization:
    """Dense LU of I - A_base for one factored policy, kept across policy
    iteration so that later policies are solved by low-rank updates.

    The LU is float32 unless the float32 factor of that policy missed the
    residual check (see :func:`policy_evaluate`); then it is float64.  The
    LAPACK routines and the Fortran block ``Z`` take the LU's precision.
    ``rows`` lists every state whose node has differed from the factored
    policy's since the factorisation; column j of ``Z`` holds LU^-1
    e_rows[j].  ``count`` is the number of factorisations of either
    precision, ``float64_count`` those in float64.
    """

    def __init__(self):
        self.count = self.float64_count = 0
        self.drop()

    def drop(self):
        self.lu = self.piv = self.nodes = self.Z = self.getrf = self.getrs = None
        self.rows = np.empty(0, dtype=np.int64)

    def factor(self, system, nodes, dtype) -> bool:
        """Factor the dense ``system`` in ``dtype``, in place; False if it is
        singular.  The dense matrix is built in ``dtype`` directly."""
        from scipy.linalg import lapack

        self.drop()  # release the old factor before building the new one
        self.getrf, self.getrs = lapack.get_lapack_funcs(("getrf", "getrs"), dtype=dtype)
        self.lu, self.piv, info = self.getrf(system.astype(dtype).toarray(order="F"),
                                             overwrite_a=True)
        self.nodes = nodes
        self.count += 1
        self.float64_count += self.lu.dtype == np.float64
        return info == 0

    def _lu_solve(self, b):
        return self.getrs(self.lu, self.piv, b, overwrite_b=True)[0]

    def update(self, nodes) -> bool:
        """Extend ``rows`` and ``Z`` to the states where ``nodes`` differs
        from the factored policy; False if that makes more than n //
        UPDATE_RANK_DIVISOR rows."""
        n = len(nodes)
        new = np.setdiff1d(np.flatnonzero(nodes != self.nodes), self.rows)
        k0, k = len(self.rows), len(self.rows) + len(new)
        if k > n // UPDATE_RANK_DIVISOR:
            return False
        if len(new):
            if self.Z is None:  # pages are only touched as columns are filled
                self.Z = np.empty((n, n // UPDATE_RANK_DIVISOR), dtype=self.lu.dtype, order="F")
            block = self.Z[:, k0:k]
            block[:] = 0.0
            block[new, np.arange(len(new))] = 1.0
            self._lu_solve(block)
            self.rows = np.concatenate((self.rows, new))
        return True

    def solve(self, system, cost):
        """Solve ``system @ J = cost`` in float64 by iterative refinement.

        Each step applies the approximate inverse, the factor corrected on
        ``rows`` by the capacitance matrix K = system[rows] @ Z, in the
        factor's precision, to the float64 residual cost - system @ J.  The
        steps stop once that residual is at most sqrt(n) * eps * |J| *
        |system| in the max and infinity norms, eps being float64's machine
        epsilon, as in LAPACK's DSGESV, so that J is as accurate as a
        float64 solve's; or after ``MAX_REFINEMENTS`` steps.  Returns
        ``(J, max |system @ J - cost|)``.
        """
        rows = self.rows
        if len(rows):
            Z = self.Z[:, :len(rows)]
            S_rows = system[rows].astype(Z.dtype)
            K_lu, K_piv, info = self.getrf(S_rows @ Z, overwrite_a=True)
            if info != 0:
                return np.full(len(cost), np.nan), np.inf

        def apply(rhs):
            rhs = rhs.astype(self.lu.dtype)
            top = rhs[rows]
            y = self._lu_solve(rhs)
            if len(rows):
                y += Z @ self.getrs(K_lu, K_piv, top - S_rows @ y, overwrite_b=True)[0]
            return y

        scale = np.sqrt(len(cost)) * np.finfo(float).eps * abs(system).sum(axis=1).max()
        J = np.zeros(len(cost))
        r = cost
        for _ in range(1 + MAX_REFINEMENTS):
            J += apply(r)
            r = cost - system @ J
            resid = float(np.abs(r).max())
            if resid <= scale * np.abs(J).max():
                break
        return J, resid


def _residual(system, J, cost) -> float:
    return float(np.abs(system @ J - cost).max()) if np.isfinite(J).all() else np.inf


def policy_evaluate(model, actions, factorization: Optional[_Factorization] = None) -> np.ndarray:
    """Solve (I - A_pi) J = C_pi exactly for the policy's state values.

    A cycle of undiscounted linking rows raises :class:`SingularSystemError`.
    A sparse policy (at most 2% of A_pi's entries set), or one whose dense
    float32 LU and update block would not fit DENSE_BUDGET_BYTES (`_dense`),
    takes a sparse LU.  A dense one is solved from the dense LU of
    I - A_base held in ``factorization``, A_base being the policy factored
    last (policy iteration passes one holder to all its evaluations; a
    standalone call factors every dense policy afresh).  Let ``rows`` be
    the states whose node has differed from A_base's since that
    factorisation.  While there are at most n / UPDATE_RANK_DIVISOR of
    them, J is the Sherman-Morrison-Woodbury solution

        J = y + Z K^-1 (C_pi[rows] - (I - A_pi)[rows] y),

    with y = LU^-1 C_pi, Z = LU^-1 E_rows and the capacitance matrix
    K = (I - A_pi)[rows] Z (Golub & Van Loan, *Matrix Computations*, 4th
    ed., section 2.1.4).  The check is on the true system:
    max |(I - A_pi) J - C_pi| <= 1e-8 * max(max |C_pi|, 1).

    The LU, Z and K are float32, which halves the dense memory and cuts the
    factorisation's time; each solve is refined in float64 against the
    sparse I - A_pi until its residual is at float64's level, at most
    MAX_REFINEMENTS steps (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 12.2; see :meth:`_Factorization.solve`).
    Two steps do it on every measured SMDP policy, and J is then within
    3e-12 of a float64 solve's at X=40.  Past n / UPDATE_RANK_DIVISOR rows,
    or when the updated J misses the check, the policy is factored afresh in
    float32, and once more in float64 when that factor misses it too (the
    fallback of LAPACK's DSGESV).  Only a sparse solve or the float64
    factorisation that misses it raises :class:`SingularSystemError`.
    """
    graph = model.graph
    nodes = _policy_nodes(graph, actions)
    A, cost = graph.discounted[nodes], graph.q_cost[nodes]
    _check_linking_cycles(A)
    n = A.shape[0]
    from scipy import sparse

    system = sparse.identity(n, format="csr") - A
    tol = 1e-8 * max(np.abs(cost).max(), 1.0)
    if not _dense(n, A.nnz):
        from scipy.sparse.linalg import spsolve

        J = spsolve(system.tocsc(), cost)
        resid = _residual(system, J, cost)
    else:
        factor = _Factorization() if factorization is None else factorization
        resid = np.inf
        if factor.lu is not None and factor.update(nodes):
            J, resid = factor.solve(system, cost)
        # a fresh float32 factor, then a float64 one if that misses the check
        for dtype in (np.float32, np.float64):
            if not resid <= tol:
                if factor.factor(system, nodes, dtype):
                    J, resid = factor.solve(system, cost)
                elif dtype == np.float64:
                    raise SingularSystemError("policy evaluation matrix is singular")
    if not resid <= tol:
        raise SingularSystemError(f"policy evaluation residual {resid:.3e} exceeds tolerance")
    return J


def policy_improve(model, J, actions=None):
    """Greedy one-step look-ahead; returns (new_actions, changed)."""
    graph = model.graph
    new_actions = _greedy_actions(graph, J)
    decision = graph.decision_mask
    changed = actions is None or bool(
        np.any(new_actions[decision] != np.asarray(actions)[decision])
    )
    return new_actions, changed


def initial_policy(model) -> np.ndarray:
    """Each state's first node's action (idle, for the polling models)."""
    graph = model.graph
    return graph.q_action[graph.node_start]


def policy_iteration(model, pi0=None, maxiter: int = 100) -> Policy:
    """Alternate exact evaluation and greedy improvement until stable
    (Howard's policy iteration; Puterman, *Markov Decision Processes*,
    1994, section 6.4).

    ``pi0`` is the first policy, one action per state (its entries at
    states without a choice are ignored); by default each state's first
    node's action (:func:`initial_policy`).

    One dense factorisation is kept across the iterations: each later
    dense policy is evaluated by a low-rank update of it until more than
    n / UPDATE_RANK_DIVISOR rows have changed since it was made (see
    :func:`policy_evaluate`).  ``changes`` records the decision actions
    each improvement changed, the first against ``pi0``,
    ``factorizations`` the dense factorisations made and
    ``float64_factorizations`` those of them that fell back to float64.
    ``J`` is the last evaluation's; each evaluation calls this module's
    `policy_evaluate` as looked up then, which a caller may wrap to record J.
    """
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    _check_finite(model.graph)
    n = model.graph.n_states
    actions = initial_policy(model) if pi0 is None else np.array(pi0, dtype=int)
    if actions.shape != (n,):
        raise ValueError(f"pi0 has shape {actions.shape}; the model has {n} states, "
                         f"so it needs shape ({n},)")
    decision = model.graph.decision_mask
    factor = _Factorization()
    changes = []
    J = np.zeros(n)
    converged = False
    iterations = 0
    for _ in range(maxiter):
        iterations += 1
        J = policy_evaluate(model, actions, factor)
        new_actions, changed = policy_improve(model, J, actions)
        changes.append(int(np.count_nonzero(new_actions[decision] != actions[decision])))
        actions = new_actions
        if not changed:
            converged = True
            break
    return Policy(actions=actions, J=J, iterations=iterations, converged=converged,
                  changes=changes, factorizations=factor.count,
                  float64_factorizations=factor.float64_count)


class _Sweep(NamedTuple):
    """Value iteration's sweep, laid out once before the first sweep.

    Inside the loop J is ordered [dynamics | decision]: ``order`` lists the
    states in that order and ``n_dynamics`` counts the dynamics states.  The
    product ``cost + rows @ J`` has one entry per dynamics node, then one
    per slot of the decision states' padded table of ``depth`` rows, one
    column per state holding its nodes in order; a free slot is an empty
    row of cost +inf, and the table's first row follows the dynamics
    entries.  Its rows are every node but the linking ones, with their
    self-loops divided out (see :func:`_vi_phases`).  Each ``(dst, src)``
    of ``links`` fills the slots ``dst`` of linking nodes with the entries
    ``src`` that the product gave the dynamics states they link to.
    ``modulus`` is the largest discounted row sum over the divided rows of
    the nodes that are not linking.
    """

    order: np.ndarray
    n_dynamics: int
    depth: int
    rows: sparse.csr_matrix
    cost: np.ndarray
    links: list
    modulus: float


def _vi_phases(graph: ValueGraph) -> _Sweep:
    """Lay out value iteration's two phases as one product and slice copies
    for the linking nodes (see :class:`_Sweep`).

    Each decision node must read decision states only or be a linking node:
    one entry, of discounted probability exactly 1 and cost 0, into a
    dynamics state that no other node links to.  The three polling models
    build only such graphs; any other raises ``ValueError`` naming the
    state of the first node that breaks the rule.

    In the padded table each decision state's linking nodes take the rows
    after those of its other nodes, and the states are ordered by falling
    number of linking nodes, so the r-th linking nodes of all states fill a
    prefix of one table row.  The dynamics states are ordered as those
    prefixes link them, so each prefix is one slice copy of the product's
    leading entries.

    A node's self-loop of discounted probability 0 < p < 1 is divided out:
    cost c / (1 - p), other entries d / (1 - p), no self entry (Jacobi
    splitting; Puterman, *Markov Decision Processes*, 1994, section 6.3.3).
    J = c + p J + r holds exactly when J = (c + r) / (1 - p), and as
    1 - p > 0, Q >= J exactly when the divided Q >= J, so the fixed point
    stays; a row summing to s + p <= 1 divides to s / (1 - p) <= s + p.  A
    self-loop with p >= 1 stays as it is; linking nodes have none.
    """
    from scipy import sparse

    n, n_nodes = graph.n_states, graph.n_nodes
    decision = graph.decision_mask
    nnz = np.diff(graph.q_indptr)
    entry_node = np.repeat(np.arange(n_nodes), nnz)
    node_is_decision = decision[graph.q_state]
    linking = node_is_decision & (np.bincount(entry_node[~decision[graph.q_cols]],
                                              minlength=n_nodes) > 0)
    link = np.flatnonzero(linking)
    entry = graph.q_indptr[link]
    shaped = (nnz[link] == 1) & (graph.q_dprobs[entry] == 1.0) & (graph.q_cost[link] == 0.0)
    target = graph.q_cols[entry]
    bad = ~shaped | (np.bincount(target[shaped], minlength=n)[target] > 1)
    if bad.any():
        raise ValueError(f"a decision node of state {graph.q_state[link[np.argmax(bad)]]} reads "
                         "a dynamics state but is not a linking node")
    loop = ((graph.q_cols == graph.q_state[entry_node])
            & (graph.q_dprobs > 0.0) & (graph.q_dprobs < 1.0))
    rest = 1.0 - np.bincount(entry_node[loop], weights=graph.q_dprobs[loop], minlength=n_nodes)
    node_cost = graph.q_cost / rest
    entry_node = entry_node[~loop]
    dprobs = graph.q_dprobs[~loop] / rest[entry_node]
    nnz = np.bincount(entry_node, minlength=n_nodes)
    divided = sparse.csr_matrix((dprobs, graph.q_cols[~loop], np.cumsum(np.append(0, nnz))),
                                shape=(n_nodes, n))

    def per_state(nodes):
        """Each of ``nodes``' rank among those of its state, and their
        number per state."""
        states = graph.q_state[nodes]
        count = np.bincount(states, minlength=n)
        return np.arange(len(nodes)) - np.searchsorted(states, states), count

    lead = np.flatnonzero(node_is_decision & ~linking)
    lead_rank, lead_count = per_state(lead)
    link_rank, link_count = per_state(link)
    lead_depth = int(lead_count.max())
    dec_states = np.flatnonzero(decision)
    dec_states = dec_states[np.argsort(-link_count[dec_states], kind="stable")]
    n_dec = len(dec_states)
    n_dyn = n - n_dec
    column = np.empty(n, dtype=np.int64)
    column[dec_states] = np.arange(n_dec)
    slot = np.empty(n_nodes, dtype=np.int64)
    slot[lead] = n_dyn + lead_rank * n_dec + column[graph.q_state[lead]]
    slot[link] = n_dyn + (lead_depth + link_rank) * n_dec + column[graph.q_state[link]]
    by_slot = np.argsort(slot[link])
    link, link_rank, target = link[by_slot], link_rank[by_slot], target[by_slot]

    order = np.concatenate((target, np.setdiff1d(np.flatnonzero(~decision), target), dec_states))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    dynamic = np.flatnonzero(~node_is_decision)
    slot[dynamic] = position[graph.q_state[dynamic]]

    bounds = np.flatnonzero(np.diff(link_rank, prepend=-1, append=-1))
    links = [(slice(slot[link[lo]], slot[link[lo]] + hi - lo), slice(lo, hi))
             for lo, hi in zip(bounds[:-1], bounds[1:])]

    depth = lead_depth + int(link_count.max())
    cost = np.full(n_dyn + depth * n_dec, np.inf)
    cost[slot] = node_cost
    # the product's rows, columns in sweep order, each row's entries in graph order
    nodes = np.flatnonzero(~linking)
    indptr = np.zeros(len(cost) + 1, dtype=graph.q_indptr.dtype)
    indptr[slot[nodes] + 1] = nnz[nodes]
    picked = divided[nodes[np.argsort(slot[nodes])]]
    row_sum = np.bincount(entry_node, weights=dprobs, minlength=n_nodes)
    return _Sweep(
        order=order, n_dynamics=n_dyn, depth=depth,
        rows=sparse.csr_matrix((picked.data, position[picked.indices], np.cumsum(indptr)),
                               shape=(len(cost), n)),
        cost=cost, links=links, modulus=float(row_sum[~linking].max()),
    )


def value_iterate(graph: ValueGraph, eps: Optional[float] = None,
                  maxiter: int = 100000) -> Policy:
    """Two-phase asynchronous value iteration over the state-action graph.

    Each sweep first updates every dynamics state (a state without a choice,
    one Q node) from the current values, then every decision state, as the
    minimum over its Q nodes, from the values the first phase just wrote.
    The order is chosen for the non-preemptive model, whose linking rows
    (commit to serve or switch) carry discount 1: a decision state reads the
    in-progress state it links to after that state's update in the same
    sweep, so every sweep contracts by the largest uniformised discount,
    where updating all states at once from the previous sweep's values
    would pass the update through a linking row only one sweep later.
    Every state is updated once per sweep in a fixed order, so the
    iteration converges like any asynchronous value iteration (Bertsekas &
    Tsitsiklis, *Parallel and Distributed Computation*, 1989, section 6.3).

    A sweep is one sparse matrix-vector product, laid out before the first
    sweep with each self-loop divided out of its row, which keeps the fixed
    point and halves the sweeps at slow_mode X=40 (:func:`_vi_phases`).
    Its rows are the dynamics nodes and every decision node that reads
    decision states only, whose values the first phase does not change, so
    the product may read the previous sweep's values.  A linking node then
    copies the value the product gave the in-progress state it links to.
    Any other decision node that reads a dynamics state, which the polling
    models never build, raises ``ValueError`` before the first sweep
    (:func:`policy_iteration` solves any graph).  The decision nodes sit in
    a padded table with one column per state, whose minimum down the
    columns is written over its first row, so the product's leading entries
    are the new J.  Each entry sums the same products in the same order as
    a phase-by-phase sweep over the divided rows, so the values are
    bit-identical to it.

    Starts from J = 0 and stops when the largest value change in a sweep is
    at most ``eps`` (default 1e-8 * max cost); that change is returned as
    ``residual``.  A sweep contracts the distance to the fixed point by the
    modulus rho, the largest discounted row sum over the divided rows of the
    nodes that are not linking (a linking node passes on its in-progress
    state's update), so the returned values are within ``error_bound`` =
    rho / (1 - rho) * ``residual`` of it in every state (Puterman, *Markov
    Decision Processes*, 1994, chapter 6); the bound is infinite when
    rho >= 1.
    The stop rule does not use the bound.

    The largest change is measured only on a sweep that may stop.  One
    watched state's change is a lower bound on it, so while that change
    exceeds ``eps`` the sweep cannot be the stopping one and the full pass
    over J is skipped.  Once it is at most ``eps``, and on the sweep that
    reaches ``maxiter``, the full pass runs: the iteration stops if its
    maximum is at most ``eps``, and otherwise the watch moves to the state
    of that maximum.  Every sweep that could stop is measured in full, so
    the stop sweep, the values and ``residual`` are those of measuring
    every sweep.
    The greedy actions are re-read from the final values by policy
    improvement's step; a tie goes to the first Q node of the state, i.e.
    the lowest action id (idle < serve < switch).
    """
    _check_finite(graph)
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if eps is None:
        eps = 1e-8 * float(np.abs(graph.q_cost).max())
    if eps < 0:
        raise ValueError("eps must be non-negative")
    sweep = _vi_phases(graph)
    n, n_dyn = graph.n_states, sweep.n_dynamics
    rows, cost, links = sweep.rows, sweep.cost, sweep.links
    ranks = [slice(n_dyn + r * (n - n_dyn), n_dyn + (r + 1) * (n - n_dyn))
             for r in range(1, sweep.depth)]
    J = np.zeros(n)
    watch = 0
    converged = False
    sweeps = 0
    while sweeps < maxiter:
        sweeps += 1
        q = rows @ J
        q += cost
        for dst, src in links:
            q[dst] = q[src]
        head = q[n_dyn:n]
        for rank in ranks:
            np.minimum(head, q[rank], out=head)
        new = q[:n]
        delta = abs(new[watch] - J[watch])
        if delta <= eps or sweeps == maxiter:
            change = np.abs(new - J)
            watch = int(change.argmax())
            delta = float(change[watch])
        J = new
        if delta <= eps:
            converged = True
            break
    values = np.empty(n)
    values[sweep.order] = J
    rho = sweep.modulus
    return Policy(actions=_greedy_actions(graph, values), J=values, iterations=sweeps,
                  converged=converged, residual=delta,
                  error_bound=rho / (1.0 - rho) * delta if rho < 1.0 else np.inf)

