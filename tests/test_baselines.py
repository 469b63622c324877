from dataclasses import replace

import numpy as np
import pytest

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    CycleKind,
    Deterministic,
    Exponential,
    HeuristicPolicy,
    analyze_limit_cycle,
    limit_cycle_report,
    truncation_bounds,
)
from pollsys.baselines import LimitCycle, exhaustive_actions, heuristic_actions
from pollsys.model import validate_scenario

from conftest import asym_var_config, exp_config, slow_mode_config


def heuristic(cfg, n1, n2, l1, served):
    """The heuristic's action at one state and the served flag that the
    simulator carries from it: ``action == SERVE`` at queue 2, unchanged at
    queue 1."""
    a = heuristic_actions(cfg, n1, n2, l1, np.bool_(served))
    return a, bool(a == SERVE) if l1 == 1 else served


def test_exhaustive_policy_cases():
    assert exhaustive_actions(3, 0, 0) == SERVE
    assert exhaustive_actions(0, 2, 0) == SWITCH
    assert exhaustive_actions(0, 0, 1) == IDLE


def test_exhaustive_never_idles_in_nonempty_system():
    n1, n2, l1 = np.ogrid[0:5, 0:5, 0:2]
    a = exhaustive_actions(n1, n2, l1)
    assert a.shape == (5, 5, 2)
    assert np.all(a[np.broadcast_to(n1 + n2 > 0, a.shape)] != IDLE)


def test_heuristic_serves_priority_queue():
    cfg = slow_mode_config()
    a, flag = heuristic(cfg, 4, 0, 0, False)
    assert a == SERVE and flag is False


def test_heuristic_switch_threshold_at_empty_priority_queue():
    cfg = slow_mode_config()
    # threshold lambda2 * mean(switch21) = 0.4 * 3 = 1.2
    a, _ = heuristic(cfg, 0, 2, 0, False)
    assert a == SWITCH
    a, _ = heuristic(cfg, 0, 1, 0, False)
    assert a == IDLE


def test_heuristic_ratio_test_serves_queue_two():
    cfg = slow_mode_config()
    a, flag = heuristic(cfg, 1, 3, 1, False)
    assert a == SERVE and flag is True


def test_heuristic_queue_two_empty_branch():
    cfg = slow_mode_config()
    # switch back when n1 > lambda1 * mean(switch12) = 3
    a, flag = heuristic(cfg, 4, 0, 1, True)
    assert a == SWITCH and flag is False
    a, flag = heuristic(cfg, 2, 0, 1, True)
    assert a == IDLE and flag is False


def test_heuristic_requires_a_switch_over_time():
    # with both switch-over times zero the queue-2 ratio is 0/0 at n1 = 0
    cfg = slow_mode_config(switch12=Deterministic(0.0), switch21=Deterministic(0.0))
    with pytest.raises(ValueError, match="switch-over"):
        HeuristicPolicy(cfg)


def test_heuristic_preconditions():
    cfg = asym_var_config()  # symmetric: no priority queue
    with pytest.raises(ValueError, match="priority"):
        HeuristicPolicy(cfg)
    unstable = exp_config(lambda1=3.0, lambda2=0.1, serve1=Exponential(2.0),
                          c1=5.0)
    with pytest.raises(ValueError, match="stable"):
        HeuristicPolicy(unstable)


def test_limit_cycle_asym_var_pure_bow_tie():
    cycle = analyze_limit_cycle(asym_var_config())
    assert cycle.kind is CycleKind.PURE_BOW_TIE
    assert cycle.alpha1 == 0.0
    assert cycle.c2 == pytest.approx(cycle.c1)
    # hand evaluation with switch means 4 and 0.4, rho = 0.64
    want = 0.8 * (0.4 + 0.32 * 4.4 / 0.36)
    assert cycle.c1[1] == pytest.approx(want, abs=1e-9)
    assert cycle.c1[1] == pytest.approx(3.4489, abs=1e-4)
    assert cycle.c1[0] == 0.0


def test_limit_cycle_slow_mode_truncated():
    cycle = analyze_limit_cycle(slow_mode_config())
    assert cycle.kind is CycleKind.TRUNCATED_BOW_TIE
    assert cycle.slow_mode_value == pytest.approx(-1.03, abs=1e-9)
    assert cycle.alpha1 > 0
    assert cycle.c2[1] > cycle.c1[1]  # idling lets queue 2 grow


def test_alpha1_satisfies_quadratic():
    cfg = slow_mode_config()
    cycle = analyze_limit_cycle(cfg)
    rho1, rho2 = 0.15, 0.2
    w1, w2 = cfg.c1 * cfg.lambda1, cfg.c2 * cfg.lambda2
    a = w1 * rho2**2 * (1 - rho1) + w2 * (1 - rho1) ** 2 * (1 - rho2)
    b = 2 * w1 * rho2**2 + 2 * w2 * (1 - rho1) * (1 - rho2)
    c = cycle.slow_mode_value
    resid = a * cycle.alpha1**2 + b * cycle.alpha1 + c
    assert abs(resid) <= 1e-9


def slow_mode_quadratic(cfg, cycle):
    """(a, b, c) of a x^2 + b x + c, whose positive root is alpha1, in the
    priority queue's frame."""
    report = validate_scenario(cfg)
    rho_p, rho_q = report.rho1, report.rho2
    w_p, w_q = cfg.c1 * cfg.lambda1, cfg.c2 * cfg.lambda2
    if cycle.priority_queue == 2:
        rho_p, rho_q, w_p, w_q = rho_q, rho_p, w_q, w_p
    a = w_p * rho_q**2 * (1 - rho_p) + w_q * (1 - rho_p) ** 2 * (1 - rho_q)
    b = 2 * w_p * rho_q**2 + 2 * w_q * (1 - rho_p) * (1 - rho_q)
    return a, b, cycle.slow_mode_value


def test_alpha1_is_a_root_on_random_slow_modes():
    """a alpha1^2 + b alpha1 + c vanishes to the last bits of its largest
    term on random slow modes with either queue as the priority queue."""
    rng = np.random.default_rng(11)
    slow = 0
    for _ in range(2000):
        lam1, lam2 = rng.uniform(0.05, 2.0, size=2)
        rho1 = rng.uniform(0.01, 0.9)
        rho2 = rng.uniform(0.01, 0.99 * (1.0 - rho1))
        c1, c2 = rng.uniform(0.1, 5.0, size=2)
        cfg = exp_config(lambda1=lam1, lambda2=lam2, c1=c1, c2=c2,
                         serve1=Exponential(lam1 / rho1), serve2=Exponential(lam2 / rho2),
                         switch12=Exponential(1.0 / rng.uniform(0.1, 5.0)),
                         switch21=Exponential(1.0 / rng.uniform(0.1, 5.0)))
        cycle = analyze_limit_cycle(cfg)
        if cycle.kind is not CycleKind.TRUNCATED_BOW_TIE:
            continue
        slow += 1
        a, b, c = slow_mode_quadratic(cfg, cycle)
        x = cycle.alpha1
        assert x > 0
        assert abs(a * x * x + b * x + c) <= 4 * np.finfo(float).eps * (a * x * x + b * x - c)
    assert slow >= 100


def test_alpha1_without_cancellation_at_a_vanishing_slow_mode():
    """At this c1 the slow-mode value is -2.8e-17: 4ac is below the last
    bit of b^2, where (-b + sqrt(b^2 - 4ac)) / 2a gives 0.0, and the idle
    fraction is still the small positive root."""
    cfg = slow_mode_config(c1=0.47407407407407415)
    cycle = analyze_limit_cycle(cfg)
    assert cycle.kind is CycleKind.TRUNCATED_BOW_TIE
    a, b, c = slow_mode_quadratic(cfg, cycle)
    assert -1e-16 < c < 0
    assert cycle.alpha1 > 0
    assert cycle.alpha1 == pytest.approx(-c / b, rel=1e-12, abs=0.0)
    assert cycle.c2[1] >= cycle.c1[1]


def test_symmetric_scenario_coordinates_mirror():
    cfg = exp_config(lambda1=0.8, lambda2=0.8, serve1=Exponential(2.5),
                     serve2=Exponential(2.5), switch12=Exponential(2.5),
                     switch21=Exponential(2.5))
    cycle = analyze_limit_cycle(cfg)
    assert cycle.kind is CycleKind.PURE_BOW_TIE
    assert cycle.c1[::-1] == pytest.approx(cycle.c4)
    assert cycle.c3[::-1] == pytest.approx(cycle.c5)


def test_priority_queue_two_is_mirrored():
    """Relabelling the queues reverses every corner and leaves the rest of
    the cycle as it is, bit for bit, on a truncated and on a pure bow-tie."""
    for cfg, kind in ((slow_mode_config(), CycleKind.TRUNCATED_BOW_TIE),
                      (exp_config(c1=2.0), CycleKind.PURE_BOW_TIE)):  # priority, no slow mode
        mirrored = replace(
            cfg,
            lambda1=cfg.lambda2, lambda2=cfg.lambda1,
            serve1=cfg.serve2, serve2=cfg.serve1,
            switch12=cfg.switch21, switch21=cfg.switch12,
            c1=cfg.c2, c2=cfg.c1,
        )
        base = analyze_limit_cycle(cfg)
        swapped = analyze_limit_cycle(mirrored)
        assert (base.kind, base.priority_queue, swapped.priority_queue) == (kind, 1, 2)
        assert swapped.coordinates == tuple(corner[::-1] for corner in base.coordinates)
        assert (swapped.alpha1, swapped.slow_mode_value, swapped.kind) == (
            base.alpha1, base.slow_mode_value, base.kind)


def test_truncation_bounds():
    cycle = LimitCycle(
        c1=(0.0, 3.45), c2=(0.0, 3.45), c3=(1.0, 3.45), c4=(3.45, 0.0),
        c5=(3.45, 1.0), alpha1=0.0, kind=CycleKind.PURE_BOW_TIE,
        slow_mode_value=0.0, priority_queue=1,
    )
    assert truncation_bounds(cycle, margin=4) == (14, 14)
    assert truncation_bounds(cycle, margin=1) == (4, 4)
    degenerate = LimitCycle(
        c1=(0.0, 0.0), c2=(0.0, 0.0), c3=(0.0, 0.0), c4=(0.0, 0.0),
        c5=(0.0, 0.0), alpha1=0.0, kind=CycleKind.PURE_BOW_TIE,
        slow_mode_value=0.0, priority_queue=1,
    )
    assert truncation_bounds(degenerate) == (1, 1)


def test_limit_cycle_report_fields():
    doc = limit_cycle_report(analyze_limit_cycle(slow_mode_config()))
    assert doc["kind"] == "truncated-bow-tie"
    assert set(doc) >= {"alpha1", "C1", "C2", "C3", "C4", "C5",
                        "recommended_X1", "recommended_X2"}
    assert doc["recommended_X1"] >= doc["C5"][0]
