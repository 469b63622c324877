"""Embedded semi-Markov decision model of the polling system.

Each action gets plain transition rows (for stationary analysis),
discounted rows (for the Bellman equations) and a cost vector over the
flattened (n1, n2, l1) state space.  Serve and switch rows spread the
pooled arrival probabilities of their event; idling follows the idle rule
that the non-preemptive uniformised model shares (``idle_row`` in
:mod:`pollsys.model`, which also holds the holding rate, the clip of an
arrival at the cap and the serve test, ``box_rules``).  The rows are built
with array operations over the state indexer; a serve or switch row is
copied from row segments pooled once per action, which rows with the same
clip at the caps share.  A discounted entry carries its own factor (the
discount over the event's duration, given the arrivals in it), and
``build_smdp`` stacks the three action models into the solvers'
state-action graph (:func:`pollsys.solver.stack_actions`), whose nodes hold
per-entry discounted probabilities, and returns it as a
:class:`pollsys.model.DecisionModel` over (n1, n2, l1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .lattice import ArrivalSummary, build_arrival_summaries
from .model import (
    ACTIONS,
    IDLE,
    SERVE,
    SWITCH,
    DecisionModel,
    ScenarioConfig,
    StateIndexer,
    box_rules,
    idle_row,
    triple_indexer,
)
from .solver import csr_rows, stack_actions

if TYPE_CHECKING:
    from scipy import sparse

EVENT_BY_ACTION = {SERVE: ("serve1", "serve2"), SWITCH: ("switch12", "switch21")}


@dataclass(frozen=True)
class ActionModel:
    """Sparse transition rows, discounted rows and costs for one action."""

    P: sparse.csr_matrix
    P_beta: sparse.csr_matrix
    C: np.ndarray
    feasible_mask: np.ndarray  # rows where the action may be chosen


def build_cost_vector(cfg: ScenarioConfig, summaries: Dict[str, ArrivalSummary],
                      action: int) -> np.ndarray:
    """Cost of committing to ``action`` in every state (0 where infeasible)."""
    (_, _, l1), held, _, busy = box_rules(cfg, triple_indexer(cfg))
    if action == IDLE:
        _, _, divisor = idle_row(cfg)
        return held / divisor
    C = np.zeros(len(l1))
    for loc in (0, 1):
        s = summaries[EVENT_BY_ACTION[action][loc]]
        at_loc = l1 == loc
        C[at_loc] = held[at_loc] * s.C_H + s.C_I
        if action == SWITCH:
            C[at_loc] += cfg.switch_costs[loc]
    if action == SERVE:
        C[~busy] = 0.0
    return C


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integer runs starts[i], ..., starts[i] + lengths[i] - 1, end to end."""
    ends = np.cumsum(lengths)
    out = np.repeat(starts - (ends - lengths), lengths)
    out += np.arange(len(out))
    return out


def _segments(cfg: ScenarioConfig, events: List[ArrivalSummary]):
    """The serve or switch events' arrival pmfs pooled into the row segments
    that the action's rows are made of.

    A row with entry queues (m1, m2) and the server at queue l1 adds event
    ``events[l1]``: arrival cell (a1, a2) lands on local cell
    (min(a1, k1), min(a2, k2)) with k_i = min(X_i - m_i, N_i), i.e. on queue
    lengths min(m_i + a_i, X_i).  In column order the row is one segment of
    cells b2 = 0..k2 per b1 = 0..k1.  With K_i = min(X_i, N_i), segment
    (j, k2) pools band j of the lattice (a1 = j if j < K1, else a1 >= j - K1)
    onto b2 = min(a2, k2): local row b1 < k1 is segment (b1, k2) and row k1
    is (K1 + k1, k2).  Its id is ((2 K1 + 1) l1 + j) (K2 + 1) + k2, so one
    segment serves every row of the same l1, band and k2.

    ``np.bincount`` adds each cell's contributions one at a time in lattice
    order, over the support (where P or P_beta is non-zero): bit for bit the
    sum that pooling each state's row over the whole lattice makes, since
    the cells left out add exact zeros.  Any other order, such as a reversed
    cumulative sum, moves entries in their last bits.  A cell is kept where
    its pooled P is non-zero.  Returns the segments' CSR layout over the kept
    cells, each cell's column offset s_n2 b2, pooled P and P_beta, and each
    segment's pooled P mass.
    """
    K1, W = min(cfg.X1, cfg.N1), min(cfg.X2, cfg.N2) + 1
    a1, a2 = StateIndexer((cfg.N1, cfg.N2)).unflatten(np.arange((cfg.N1 + 1) * (cfg.N2 + 1)))
    k2 = np.arange(W)
    pooled = []
    for s in events:
        sup = np.flatnonzero((s.P != 0) | (s.P_beta != 0))
        c1 = np.minimum(a1[sup], K1)
        # each cell's bands: j = a1 if a1 < K1, and the tails j = K1..K1 + c1;
        # each band's cells stay in lattice order
        single = sup[a1[sup] < K1]
        cell = np.concatenate((single, np.repeat(sup, c1 + 1)))
        j = np.concatenate((a1[single], K1 + _runs(np.zeros_like(c1), c1 + 1)))
        target = ((j[:, None] * W + k2) * W + np.minimum(a2[cell, None], k2)).ravel()
        pooled.append([np.bincount(target, np.repeat(v[cell], W), (2 * K1 + 1) * W * W)
                       for v in (s.P, s.P_beta)])
    # cell b2 of segment id is entry id * W + b2 (empty for b2 > k2)
    p, p_beta = (np.concatenate(v) for v in zip(*pooled))
    keep = np.flatnonzero(p)
    seg, b2 = np.divmod(keep, W)
    n_segs = len(p) // W
    seg_ptr = np.concatenate(([0], np.cumsum(np.bincount(seg, minlength=n_segs))))
    return (seg_ptr, triple_indexer(cfg).strides[1] * b2, p[keep], p_beta[keep],
            np.bincount(seg, p[keep], minlength=n_segs))


def build_action_model(cfg: ScenarioConfig, summaries: Dict[str, ArrivalSummary],
                       action: int) -> ActionModel:
    """Assemble one action's transition matrices and cost vector.

    Serve decrements the served queue and adds the event's pooled arrivals;
    switch flips the server location and adds its event's arrivals plus the
    lump switching cost; idle has the two uniformised arrival successors.
    Arrival mass that would exceed a queue bound pools onto the capped state,
    in the sum order of pooling each row on its own (see :func:`_segments`);
    a row whose pooled mass is not its event's raises ``AssertionError``.
    """
    indexer = triple_indexer(cfg)
    n_states = indexer.size
    s_n1, s_n2, _ = indexer.strides
    (n1, n2, l1), _, arrived, busy = box_rules(cfg, indexer)
    C = build_cost_vector(cfg, summaries, action)
    feasible_mask = busy if action == SERVE else np.ones(n_states, dtype=bool)
    states = np.flatnonzero(feasible_mask)

    if action == IDLE:
        probs, discount, _ = idle_row(cfg)
        # each row has its two arrival successors, as the uniformised model's idle rows
        indptr, cols, pvals = csr_rows(np.stack(arrived, axis=1), np.tile(probs, (n_states, 1)))
        counts = np.diff(indptr)
        pbvals = discount * pvals
    else:
        events = [summaries[name] for name in EVENT_BY_ACTION[action]]
        seg_ptr, seg_off, seg_p, seg_pb, seg_mass = _segments(cfg, events)
        K1 = min(cfg.X1, cfg.N1)
        # serve takes one customer from the current queue, switch flips l1
        l1 = l1[states]
        m1 = n1[states] - ((action == SERVE) & (l1 == 0))
        m2 = n2[states] - ((action == SERVE) & (l1 == 1))
        k1, k2 = np.minimum(cfg.X1 - m1, cfg.N1), np.minimum(cfg.X2 - m2, cfg.N2)
        base = s_n1 * m1 + s_n2 * m2 + (l1 if action == SERVE else 1 - l1)
        # a row is its segments b1 = 0..k1, shifted to its columns
        first = np.cumsum(k1 + 1) - (k1 + 1)
        r = np.repeat(np.arange(len(states)), k1 + 1)
        b1 = np.arange(len(r)) - first[r]
        seg = ((2 * K1 + 1) * l1[r] + b1 + K1 * (b1 == k1[r])) * (min(cfg.X2, cfg.N2) + 1) + k2[r]
        mass = np.array([s.P.sum() for s in events])[l1]
        lost = np.flatnonzero(np.abs(np.add.reduceat(seg_mass[seg], first) - mass) > 1e-12)
        if len(lost):
            raise AssertionError(f"pooling lost transition mass at state {states[lost[0]]}")
        lens = np.diff(seg_ptr)[seg]
        counts = np.add.reduceat(lens, first)
        src = _runs(seg_ptr[seg], lens)
        cols = np.repeat(base[r] + s_n1 * b1, lens) + seg_off[src]
        pvals, pbvals = seg_p[src], seg_pb[src]

    from scipy import sparse

    indptr = np.zeros(n_states + 1, dtype=np.int64)
    indptr[states + 1] = counts
    np.cumsum(indptr, out=indptr)
    P = sparse.csr_matrix((pvals, cols, indptr), shape=(n_states, n_states))
    # shares P's int32 index arrays rather than converting cols and indptr again
    P_beta = sparse.csr_matrix((pbvals, P.indices, P.indptr), shape=(n_states, n_states))
    return ActionModel(P=P, P_beta=P_beta, C=C, feasible_mask=feasible_mask)


def build_smdp(cfg: ScenarioConfig,
               summaries: Optional[Dict[str, ArrivalSummary]] = None) -> DecisionModel:
    """Build the embedded decision model of a scenario as one state-action
    graph, whose nodes at each state are its feasible actions in the order
    idle < serve < switch."""
    if summaries is None:
        summaries = build_arrival_summaries(cfg)
    models = [build_action_model(cfg, summaries, a) for a in ACTIONS]
    return DecisionModel(cfg, triple_indexer(cfg),
                         stack_actions([(m.feasible_mask, m.C, m.P.indptr, m.P.indices,
                                         m.P.data, m.P_beta.data) for m in models]))
