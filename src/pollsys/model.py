"""Core domain types for the two-queue polling model.

The server sits at one of two queues (``l1``, 0-based) and is either free,
serving, or switching (``l2`` in {0, 1, 2}).  Decisions are taken only when
the server is free; the feasible decisions are idle, serve, and switch,
encoded as the integers 0, 1, 2 so that action codes coincide with the
server-activity codes.

Every decision model is a ``DecisionModel`` (a scenario, the indexer of
its states and its state-action graph) and reads its rules here, so the
SMDP and the uniformised model truncate, charge, serve and idle alike:
``box_rules`` (the holding rate, the clip of an arrival at the cap X, the
serve test) and ``idle_row``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

from .distributions import DurationDist, Exponential

IDLE, SERVE, SWITCH = 0, 1, 2
ACTIONS = (IDLE, SERVE, SWITCH)
ACTION_NAMES = {IDLE: "idle", SERVE: "serve", SWITCH: "switch"}
EVENTS = ("serve1", "serve2", "switch12", "switch21")


class Truncation(str, Enum):
    """How the arrival-count lattice handles outflow past its edges."""

    ABSORBING = "absorbing"
    UNASSIGNED = "unassigned"


class ScenarioError(ValueError):
    """Raised when a scenario is malformed or unstable."""


class StateIndexer:
    """Mixed-radix flattening of integer coordinates with inclusive bounds.

    ``dims`` lists the largest admissible value of each coordinate, so
    coordinate j ranges over 0..dims[j] and the flat index ranges over
    ``[0, prod(dims[j] + 1))``.  Inclusive place values avoid the index
    collisions that occur when a coordinate sits exactly at its bound.
    """

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise ValueError("dims must be non-negative")
        self.dims = dims
        sizes = [d + 1 for d in dims]
        strides = [1] * len(dims)
        for j in range(len(dims) - 2, -1, -1):
            strides[j] = strides[j + 1] * sizes[j + 1]
        self.strides = tuple(strides)
        self.size = strides[0] * sizes[0] if dims else 1

    def flatten(self, *coords):
        if len(coords) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} coordinates, got {len(coords)}")
        idx = 0
        for c, d, s in zip(coords, self.dims, self.strides):
            c = np.asarray(c)
            if np.any(c < 0) or np.any(c > d):
                raise IndexError(f"coordinate {c} outside [0, {d}]")
            idx = idx + c * s
        return idx if isinstance(idx, np.ndarray) else int(idx)

    def unflatten(self, idx):
        idx = np.asarray(idx)
        if np.any(idx < 0) or np.any(idx >= self.size):
            raise IndexError(f"index {idx} outside [0, {self.size})")
        coords = []
        rem = idx
        for s in self.strides:
            coords.append(rem // s)
            rem = rem % s
        if coords and isinstance(coords[0], np.ndarray) and coords[0].ndim > 0:
            return tuple(c.astype(int) for c in coords)
        return tuple(int(c) for c in coords)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterisation of a polling-model scenario.

    ``X1``/``X2`` bound the tracked queue lengths of the decision model and
    ``N1``/``N2`` bound the number of arrivals counted within one action
    interval.  Arrivals are homogeneous Poisson at ``lambda1``/``lambda2``.
    Rates, costs and ``beta`` must be finite real numbers, the bounds integers.
    """

    lambda1: float
    lambda2: float
    serve1: DurationDist
    serve2: DurationDist
    switch12: DurationDist
    switch21: DurationDist
    c1: float
    c2: float
    K12: float = 0.0
    K21: float = 0.0
    beta: float = 0.05
    X1: int = 20
    X2: int = 20
    N1: int = 20
    N2: int = 20
    truncation_mode: Truncation = Truncation.ABSORBING

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "c1", "c2", "K12", "K21", "beta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ScenarioError(f"{name} must be a finite number, got {value!r}")
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value!r}")
        for name in ("X1", "X2", "N1", "N2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer breaks json.dump
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ScenarioError("arrival rates must be non-negative")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ScenarioError("holding-cost rates must be positive")
        if self.K12 < 0 or self.K21 < 0:
            raise ScenarioError("switching costs must be non-negative")
        if not self.beta > 0:
            raise ScenarioError("discount rate beta must be positive")
        if min(self.X1, self.X2, self.N1, self.N2) < 1:
            raise ScenarioError("X1, X2, N1, N2 must all be >= 1")
        object.__setattr__(self, "truncation_mode", Truncation(self.truncation_mode))

    @property
    def serve_dists(self):
        return (self.serve1, self.serve2)

    @property
    def switch_dists(self):
        # switch_dists[l1] is the switch-over leaving queue l1 (0-based)
        return (self.switch12, self.switch21)

    @property
    def switch_costs(self):
        return (self.K12, self.K21)

    @property
    def arrival_rates(self):
        return (self.lambda1, self.lambda2)

    def with_exponential_durations(self) -> "ScenarioConfig":
        """Replace every duration by an exponential of equal mean; a zero mean raises."""
        def expize(event):
            mean = getattr(self, event).mean()
            if not mean > 0:
                raise ScenarioError(f"{event} has mean duration {mean!r}, which no exponential has")
            return Exponential(rate=1.0 / mean)

        return replace(self, **{event: expize(event) for event in EVENTS})

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update({event: doc[event].to_json() for event in EVENTS},
                   truncation_mode=self.truncation_mode.value)
        return doc

    @staticmethod
    def from_json(doc) -> "ScenarioConfig":
        """The scenario of a `to_json` document; a ScenarioError names a
        document that is not an object, an unknown or a missing field, or
        a duration's error after its event (``serve1: ...``)."""
        if not isinstance(doc, dict):
            raise ScenarioError(f"a scenario must be a JSON object, got {type(doc).__name__}")
        names = [f.name for f in fields(ScenarioConfig)]
        unknown = [key for key in doc if key not in names]
        if unknown:
            raise ScenarioError(f"unknown scenario field(s) {unknown}, expected some of {names}")
        missing = [f.name for f in fields(ScenarioConfig)
                   if f.default is MISSING and f.name not in doc]
        if missing:
            raise ScenarioError(f"missing scenario field(s) {missing}")
        args = dict(doc)
        for event in EVENTS:
            try:
                args[event] = DurationDist.from_json(doc[event])
            except ValueError as exc:
                raise ScenarioError(f"{event}: {exc}") from None
        return ScenarioConfig(**args)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class StabilityReport:
    rho1: float
    rho2: float
    rho: float
    priority_queue: Optional[int]  # 1-based queue number, None if symmetric


def validate_scenario(cfg: ScenarioConfig) -> StabilityReport:
    """Check the necessary stability condition and identify the priority queue.

    Raises :class:`ScenarioError` when the utilisation is >= 1; a server that
    can never be free cannot pay for switch-overs.
    """
    rho1 = cfg.lambda1 * cfg.serve1.mean()
    rho2 = cfg.lambda2 * cfg.serve2.mean()
    rho = rho1 + rho2
    if rho >= 1.0:
        raise ScenarioError(
            f"unstable scenario: rho = {rho1:.4f} + {rho2:.4f} = {rho:.4f} >= 1"
        )
    w1, w2 = cfg.c1 * cfg.lambda1, cfg.c2 * cfg.lambda2
    priority = 1 if w1 > w2 else 2 if w2 > w1 else None
    return StabilityReport(rho1=rho1, rho2=rho2, rho=rho, priority_queue=priority)


def triple_indexer(cfg: ScenarioConfig) -> StateIndexer:
    """Indexer over decision states (n1, n2, l1)."""
    return StateIndexer((cfg.X1, cfg.X2, 1))


def quad_indexer(cfg: ScenarioConfig) -> StateIndexer:
    """Indexer over expanded states (n1, n2, l1, l2)."""
    return StateIndexer((cfg.X1, cfg.X2, 1, 2))


def box_rules(cfg: ScenarioConfig, indexer: StateIndexer):
    """``(coords, held, arrived, busy)`` at each state of ``indexer``, whose
    leading coordinates are (n1, n2, l1): the coordinates, the holding-cost
    rate c1 n1 + c2 n2, the states after an arrival of class 1 and of class
    2, where an arrival at a full queue (n_i = X_i) leaves the state as it
    is, and whether the queue at the server holds a customer, which serving
    needs."""
    x = np.arange(indexer.size)
    coords = indexer.unflatten(x)
    n1, n2, l1 = coords[:3]
    s_n1, s_n2 = indexer.strides[:2]
    held = cfg.c1 * n1.astype(float) + cfg.c2 * n2.astype(float)
    arrived = (x + s_n1 * (n1 < cfg.X1), x + s_n2 * (n2 < cfg.X2))
    return coords, held, arrived, np.where(l1 == 0, n1, n2) > 0


def idle_row(cfg: ScenarioConfig):
    """Idling, uniformised on the total arrival rate, as ``(probs, discount,
    divisor)``: it lasts until the first arrival, of class i with
    probability ``probs[i]``, its row is discounted by ``discount`` and it
    costs the holding rate over ``divisor``.  Without arrivals nothing ends
    it: its row is empty and it costs holding the queues for ever."""
    lam1, lam2 = cfg.arrival_rates
    rate = lam1 + lam2
    probs = (lam1 / rate, lam2 / rate) if rate > 0 else (0.0, 0.0)
    return probs, rate / (rate + cfg.beta), cfg.beta + rate


class DecisionModel:
    """A decision model of the polling system: its scenario, the indexer of
    its states, whose leading coordinates are (n1, n2, l1), and its
    state-action graph (:class:`pollsys.solver.ValueGraph`) over those
    states, which every solver reads."""

    def __init__(self, cfg: ScenarioConfig, indexer: StateIndexer, graph):
        if graph.n_states != indexer.size:
            raise ValueError(f"the graph has {graph.n_states} states, the indexer {indexer.size}")
        self.cfg = cfg
        self.indexer = indexer
        self.graph = graph
        self.n_states = indexer.size

    def decision_table(self, actions: np.ndarray) -> np.ndarray:
        """The actions of the decision states projected onto the (n1, n2,
        l1) box, -1 where no decision state lies; the identity on a model
        over that box whose every state is a decision state."""
        tri = triple_indexer(self.cfg)
        table = np.full(tri.size, -1, dtype=int)
        decision = np.flatnonzero(self.graph.decision_mask)
        n1, n2, l1 = self.indexer.unflatten(decision)[:3]
        table[tri.flatten(n1, n2, l1)] = np.asarray(actions)[decision]
        return table
