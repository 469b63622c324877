"""Baseline policies and the fluid limit-cycle screening analysis.

The exhaustive policy and the priority-queue heuristic require little or no
model computation and serve as performance baselines.  The limit-cycle
analysis treats the two queues as deterministic fluids and yields the
optimal cycle's corner coordinates, which both classify the scenario (pure
vs truncated bow-tie) and lower-bound the queue truncation sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .model import IDLE, SERVE, SWITCH, ScenarioConfig, ScenarioError, validate_scenario


class CycleKind(str, Enum):
    PURE_BOW_TIE = "pure-bow-tie"
    TRUNCATED_BOW_TIE = "truncated-bow-tie"


@dataclass(frozen=True)
class LimitCycle:
    """Corner coordinates of the optimal fluid cycle, (x1, x2) pairs.

    The cycle starts at the exhausted priority queue (C1), idles there until
    C2 (C2 == C1 for a pure bow-tie), switches and arrives at the other
    queue at C3, exhausts it at C4, and returns at C5.
    """

    c1: Tuple[float, float]
    c2: Tuple[float, float]
    c3: Tuple[float, float]
    c4: Tuple[float, float]
    c5: Tuple[float, float]
    alpha1: float
    kind: CycleKind
    slow_mode_value: float
    priority_queue: int  # 1-based; 1 when the scenario is symmetric

    @property
    def coordinates(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c5)


# action codes as int8, so that action tables over large boxes stay small
_IDLE8, _SERVE8, _SWITCH8 = np.int8(IDLE), np.int8(SERVE), np.int8(SWITCH)


def exhaustive_actions(n1, n2, l1):
    """The exhaustive rule over broadcast coordinates: serve the current
    queue to depletion; switch only when it is empty and the other queue is
    not; idle in an empty system."""
    current = np.where(l1 == 0, n1 > 0, n2 > 0)
    other = np.where(l1 == 0, n2 > 0, n1 > 0)
    return np.where(current, _SERVE8, np.where(other, _SWITCH8, _IDLE8))


def exhaustive_start(model) -> np.ndarray:
    """The exhaustive rule as one action per state of a polling decision
    model (the SMDP or either uniformised model), -1 at a state without a
    choice: a first policy for :func:`pollsys.solver.policy_iteration`.

    Its action is feasible at every decision state, since it serves only a
    non-empty queue.  Policy iteration converges from any start; from this
    one its first improvement changes far fewer actions than from all-idle.
    """
    n1, n2, l1 = model.indexer.unflatten(np.arange(model.n_states))[:3]
    return np.where(model.graph.decision_mask, exhaustive_actions(n1, n2, l1), -1)


def _heuristic_params(cfg: ScenarioConfig):
    """Validated constants of the heuristic: (mu1, serve threshold, t12, t21)."""
    mu1 = 1.0 / cfg.serve1.mean()
    mu2 = 1.0 / cfg.serve2.mean()
    rho = cfg.lambda1 / mu1 + cfg.lambda2 / mu2
    if not rho < 1:
        raise ValueError("heuristic requires a stable scenario (rho < 1)")
    if not cfg.c1 * cfg.lambda1 > cfg.c2 * cfg.lambda2:
        raise ValueError("heuristic requires queue 1 to be the priority queue")
    t12 = cfg.switch12.mean()
    t21 = cfg.switch21.mean()
    if not t12 + t21 > 0:
        raise ValueError("heuristic requires a positive mean switch-over time")
    threshold = cfg.c1 * mu1 * rho + cfg.c2 * mu2 * (1.0 - rho)
    return mu1, threshold, t12, t21


def heuristic_actions(cfg: ScenarioConfig, n1, n2, l1, served):
    """Priority-queue heuristic: the action at broadcast coordinates
    (n1, n2, l1) with the served flag ``served``.

    Queue 1 must be the priority queue (c1*lambda1 > c2*lambda2), the
    scenario stable and some switch-over time positive.  ``served`` records
    whether at least one queue-2 job has been served during the current
    visit: the caller carries it between decisions as ``action == SERVE``
    at queue 2, unchanged at queue 1.
    """
    mu1, threshold, t12, t21 = _heuristic_params(cfg)
    ratio = (n1 + cfg.lambda1 * t12) / (n1 + mu1 * t12 + (mu1 - cfg.lambda1) * t21)
    at_queue1 = np.where(n1 > 0, _SERVE8, np.where(n2 > cfg.lambda2 * t21, _SWITCH8, _IDLE8))
    serve2 = (ratio <= threshold) | ~served
    at_queue2 = np.where(n2 > 0, np.where(serve2, _SERVE8, _SWITCH8),
                         np.where(n1 > cfg.lambda1 * t12, _SWITCH8, _IDLE8))
    return np.where(l1 == 0, at_queue1, at_queue2)


def analyze_limit_cycle(cfg: ScenarioConfig) -> LimitCycle:
    """Classify the optimal fluid cycle and compute its corner coordinates.

    The cycle is worked out in the priority queue's frame: queue ``p``
    (0-based) is the priority queue, queue 2 when `validate_scenario` names
    it and queue 1 otherwise, and ``q`` the other.  A slow mode (idling at
    the priority queue before switching) exists only when
    c_p l_p rho - (c_p l_p - c_q l_q)(1 - rho_q) < 0; symmetric scenarios
    always yield a pure bow-tie.  One zero arrival rate raises ScenarioError.
    """
    report = validate_scenario(cfg)
    if (cfg.lambda1 == 0) != (cfg.lambda2 == 0):
        zero = "lambda1" if cfg.lambda1 == 0 else "lambda2"
        raise ScenarioError(f"{zero} is 0 beside a positive arrival rate: no fluid limit cycle")
    p, q = (1, 0) if report.priority_queue == 2 else (0, 1)

    def frame(pair):
        """(queue p's, queue q's) of a per-queue pair; its own inverse, it
        also reads a corner (x_p, x_q) back as (x1, x2)."""
        return pair[p], pair[q]

    lam_p, lam_q = frame(cfg.arrival_rates)
    w_p, w_q = frame((cfg.c1 * cfg.lambda1, cfg.c2 * cfg.lambda2))
    rho_p, rho_q = frame((report.rho1, report.rho2))
    t_pq, t_qp = frame([d.mean() for d in cfg.switch_dists])  # switch leaving p, leaving q
    rho, ts = report.rho, t_pq + t_qp

    slow_value = w_p * rho - (w_p - w_q) * (1.0 - rho_q)
    if w_p > w_q and slow_value < 0:
        a = w_p * rho_q**2 * (1.0 - rho_p) + w_q * (1.0 - rho_p) ** 2 * (1.0 - rho_q)
        b = 2.0 * w_p * rho_q**2 + 2.0 * w_q * (1.0 - rho_p) * (1.0 - rho_q)
        # c = slow_value < 0 < a: the roots of a x^2 + b x + c have opposite
        # signs, and the larger one is the idle fraction, taken as
        # 2c / (-b - sqrt(b^2 - 4ac)), which adds two numbers of one sign,
        # where (-b + sqrt(b^2 - 4ac)) / 2a cancels when 4ac is small
        alpha1 = 2.0 * slow_value / (-b - math.sqrt(b * b - 4.0 * a * slow_value))
        kind = CycleKind.TRUNCATED_BOW_TIE
    else:
        alpha1 = 0.0
        kind = CycleKind.PURE_BOW_TIE

    one = 1.0 - rho
    corners = (
        (0.0, lam_q * (t_qp + rho_p * ts * (1.0 + alpha1 * rho_q) / one)),
        (0.0, lam_q * (t_qp + ts * (alpha1 * (1.0 - rho_p) * (1.0 - rho_q) + rho_p) / one)),
        (lam_p * t_pq, lam_q * ts * (1.0 + alpha1 * (1.0 - rho_p)) * (1.0 - rho_q) / one),
        (lam_p * (t_pq + rho_q * ts * (1.0 + alpha1 * (1.0 - rho_p)) / one), 0.0),
        (lam_p * ts * (1.0 + alpha1 * rho_q) * (1.0 - rho_q) / one, lam_q * t_qp),
    )
    return LimitCycle(*map(frame, corners), alpha1=alpha1, kind=kind,
                      slow_mode_value=slow_value, priority_queue=p + 1)


def truncation_bounds(cycle: LimitCycle, margin: float = 4.0) -> Tuple[int, int]:
    """Queue bounds covering the cycle with headroom: ceil(margin * extent),
    at least 1; ``margin`` must be finite and > 0, and its product with
    each queue's extent finite."""
    if not (math.isfinite(margin) and margin > 0):
        raise ValueError(f"margin must be finite and > 0, got {margin!r}")
    spans = [margin * max(corner[i] for corner in cycle.coordinates) for i in (0, 1)]
    if not all(map(math.isfinite, spans)):
        raise ValueError(f"margin {margin!r} times the cycle's extent is not finite")
    return tuple(max(math.ceil(span), 1) for span in spans)


def limit_cycle_report(cycle: LimitCycle, margin: float = 4.0) -> dict:
    """JSON-ready screening report: kind, idle fraction, corners, bounds."""
    bounds = truncation_bounds(cycle, margin)
    return {
        "kind": cycle.kind.value,
        "alpha1": cycle.alpha1,
        "slow_mode_value": cycle.slow_mode_value,
        "priority_queue": cycle.priority_queue,
        **{f"C{i}": list(corner) for i, corner in enumerate(cycle.coordinates, 1)},
        **{f"recommended_X{i}": bound for i, bound in enumerate(bounds, 1)},
    }
