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

from .model import IDLE, SERVE, SWITCH, PollingState, ScenarioConfig, validate_scenario


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


def exhaustive_policy(state: PollingState) -> int:
    """Serve the current queue to depletion; switch only when it is empty
    and the other queue is not; idle in an empty system."""
    if state.current_queue_length > 0:
        return SERVE
    if state.other_queue_length > 0:
        return SWITCH
    return IDLE


# action codes as int8, so that action tables over large boxes stay small
_IDLE8, _SERVE8, _SWITCH8 = np.int8(IDLE), np.int8(SERVE), np.int8(SWITCH)


def exhaustive_actions(n1, n2, l1):
    """Array form of :func:`exhaustive_policy` over broadcast coordinates."""
    current = np.where(l1 == 0, n1 > 0, n2 > 0)
    other = np.where(l1 == 0, n2 > 0, n1 > 0)
    return np.where(current, _SERVE8, np.where(other, _SWITCH8, _IDLE8))


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


def heuristic_policy(cfg: ScenarioConfig, state: PollingState, served_flag: bool):
    """Priority-queue heuristic; returns (action, served_flag').

    Queue 1 must be the priority queue (c1*lambda1 > c2*lambda2), the
    scenario stable and some switch-over time positive.  ``served_flag``
    records whether at least one queue-2 job has been served during the
    current visit; the caller threads it between decisions.  The returned
    flag is ``action == SERVE`` at queue 2 and unchanged at queue 1.
    """
    mu1, threshold, t12, t21 = _heuristic_params(cfg)
    n1, n2 = state.n1, state.n2
    if state.l1 == 0:  # at the priority queue
        if n1 > 0:
            return SERVE, served_flag
        if n2 > cfg.lambda2 * t21:
            return SWITCH, served_flag
        return IDLE, served_flag
    if n2 > 0:
        ratio = (n1 + cfg.lambda1 * t12) / (n1 + mu1 * t12 + (mu1 - cfg.lambda1) * t21)
        if ratio <= threshold:
            return SERVE, True
        if not served_flag:
            return SERVE, True
        return SWITCH, False
    if n1 > cfg.lambda1 * t12:
        return SWITCH, False
    return IDLE, False


def heuristic_actions(cfg: ScenarioConfig, n1, n2, l1, served):
    """Array form of :func:`heuristic_policy`: the action at broadcast
    coordinates (n1, n2, l1) with the served flag ``served``."""
    mu1, threshold, t12, t21 = _heuristic_params(cfg)
    ratio = (n1 + cfg.lambda1 * t12) / (n1 + mu1 * t12 + (mu1 - cfg.lambda1) * t21)
    at_queue1 = np.where(n1 > 0, _SERVE8, np.where(n2 > cfg.lambda2 * t21, _SWITCH8, _IDLE8))
    serve2 = (ratio <= threshold) | ~served
    at_queue2 = np.where(n2 > 0, np.where(serve2, _SERVE8, _SWITCH8),
                         np.where(n1 > cfg.lambda1 * t12, _SWITCH8, _IDLE8))
    return np.where(l1 == 0, at_queue1, at_queue2)


def _swap(pair):
    return (pair[1], pair[0])


def analyze_limit_cycle(cfg: ScenarioConfig) -> LimitCycle:
    """Classify the optimal fluid cycle and compute its corner coordinates.

    A slow mode (idling at the priority queue before switching) exists only
    when c1 l1 rho - (c1 l1 - c2 l2)(1 - rho2) < 0 with queue 1 as the
    priority queue; symmetric scenarios always yield a pure bow-tie.  When a
    queue-2 priority is detected the queues are relabelled internally and
    the coordinates mirrored back.
    """
    report = validate_scenario(cfg)
    if report.priority_queue == 2:
        mirrored = analyze_limit_cycle(_mirror(cfg))
        return LimitCycle(
            c1=_swap(mirrored.c1),
            c2=_swap(mirrored.c2),
            c3=_swap(mirrored.c3),
            c4=_swap(mirrored.c4),
            c5=_swap(mirrored.c5),
            alpha1=mirrored.alpha1,
            kind=mirrored.kind,
            slow_mode_value=mirrored.slow_mode_value,
            priority_queue=2,
        )

    lam1, lam2 = cfg.lambda1, cfg.lambda2
    c1r, c2r = cfg.c1, cfg.c2
    rho1, rho2, rho = report.rho1, report.rho2, report.rho
    t12 = cfg.switch12.mean()
    t21 = cfg.switch21.mean()
    ts = t12 + t21

    w1, w2 = c1r * lam1, c2r * lam2
    slow_value = w1 * rho - (w1 - w2) * (1.0 - rho2)
    has_priority = w1 > w2
    if has_priority and slow_value < 0:
        a = w1 * rho2**2 * (1.0 - rho1) + w2 * (1.0 - rho1) ** 2 * (1.0 - rho2)
        b = 2.0 * w1 * rho2**2 + 2.0 * w2 * (1.0 - rho1) * (1.0 - rho2)
        c = slow_value
        disc = b * b - 4.0 * a * c
        roots = [(-b + sgn * math.sqrt(max(disc, 0.0))) / (2.0 * a) for sgn in (1.0, -1.0)]
        positive = [r for r in roots if r > 0]
        if not positive:
            raise ValueError("no positive root for the idle fraction alpha1")
        alpha1 = positive[0]
        kind = CycleKind.TRUNCATED_BOW_TIE
    else:
        alpha1 = 0.0
        kind = CycleKind.PURE_BOW_TIE

    one = 1.0 - rho
    c1_ = (0.0, lam2 * (t21 + rho1 * ts * (1.0 + alpha1 * rho2) / one))
    c2_ = (0.0, lam2 * (t21 + ts * (alpha1 * (1.0 - rho1) * (1.0 - rho2) + rho1) / one))
    c3_ = (lam1 * t12, lam2 * ts * (1.0 + alpha1 * (1.0 - rho1)) * (1.0 - rho2) / one)
    c4_ = (lam1 * (t12 + rho2 * ts * (1.0 + alpha1 * (1.0 - rho1)) / one), 0.0)
    c5_ = (lam1 * ts * (1.0 + alpha1 * rho2) * (1.0 - rho2) / one, lam2 * t21)
    return LimitCycle(
        c1=c1_, c2=c2_, c3=c3_, c4=c4_, c5=c5_,
        alpha1=alpha1, kind=kind, slow_mode_value=slow_value, priority_queue=1,
    )


def _mirror(cfg: ScenarioConfig) -> ScenarioConfig:
    from dataclasses import replace

    return replace(
        cfg,
        lambda1=cfg.lambda2,
        lambda2=cfg.lambda1,
        serve1=cfg.serve2,
        serve2=cfg.serve1,
        switch12=cfg.switch21,
        switch21=cfg.switch12,
        c1=cfg.c2,
        c2=cfg.c1,
        K12=cfg.K21,
        K21=cfg.K12,
        X1=cfg.X2,
        X2=cfg.X1,
        N1=cfg.N2,
        N2=cfg.N1,
    )


def truncation_bounds(cycle: LimitCycle, margin: float = 4.0) -> Tuple[int, int]:
    """Queue bounds covering the cycle with headroom: ceil(margin * extent)."""
    max1 = max(c[0] for c in cycle.coordinates)
    max2 = max(c[1] for c in cycle.coordinates)
    return (
        max(int(math.ceil(margin * max1)), 1),
        max(int(math.ceil(margin * max2)), 1),
    )


def limit_cycle_report(cycle: LimitCycle, margin: float = 4.0) -> dict:
    """JSON-ready screening report: kind, idle fraction, corners, bounds."""
    bounds = truncation_bounds(cycle, margin)
    return {
        "kind": cycle.kind.value,
        "alpha1": cycle.alpha1,
        "slow_mode_value": cycle.slow_mode_value,
        "priority_queue": cycle.priority_queue,
        "C1": list(cycle.c1),
        "C2": list(cycle.c2),
        "C3": list(cycle.c3),
        "C4": list(cycle.c4),
        "C5": list(cycle.c5),
        "recommended_X1": bounds[0],
        "recommended_X2": bounds[1],
    }
