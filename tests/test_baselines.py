import pytest

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    CycleKind,
    Deterministic,
    Exponential,
    PollingState,
    analyze_limit_cycle,
    exhaustive_policy,
    heuristic_policy,
    limit_cycle_report,
    truncation_bounds,
)
from pollsys.baselines import LimitCycle

from conftest import asym_var_config, exp_config, slow_mode_config


def test_exhaustive_policy_cases():
    assert exhaustive_policy(PollingState(3, 0, 0)) == SERVE
    assert exhaustive_policy(PollingState(0, 2, 0)) == SWITCH
    assert exhaustive_policy(PollingState(0, 0, 1)) == IDLE


def test_exhaustive_never_idles_in_nonempty_system():
    for n1 in range(5):
        for n2 in range(5):
            for l1 in (0, 1):
                a = exhaustive_policy(PollingState(n1, n2, l1))
                if n1 + n2 > 0:
                    assert a != IDLE


def test_heuristic_serves_priority_queue():
    cfg = slow_mode_config()
    a, flag = heuristic_policy(cfg, PollingState(4, 0, 0), False)
    assert a == SERVE and flag is False


def test_heuristic_switch_threshold_at_empty_priority_queue():
    cfg = slow_mode_config()
    # threshold lambda2 * mean(switch21) = 0.4 * 3 = 1.2
    a, _ = heuristic_policy(cfg, PollingState(0, 2, 0), False)
    assert a == SWITCH
    a, _ = heuristic_policy(cfg, PollingState(0, 1, 0), False)
    assert a == IDLE


def test_heuristic_ratio_test_serves_queue_two():
    cfg = slow_mode_config()
    a, flag = heuristic_policy(cfg, PollingState(1, 3, 1), False)
    assert a == SERVE and flag is True


def test_heuristic_queue_two_empty_branch():
    cfg = slow_mode_config()
    # switch back when n1 > lambda1 * mean(switch12) = 3
    a, flag = heuristic_policy(cfg, PollingState(4, 0, 1), True)
    assert a == SWITCH and flag is False
    a, flag = heuristic_policy(cfg, PollingState(2, 0, 1), True)
    assert a == IDLE and flag is False


def test_heuristic_requires_a_switch_over_time():
    # with both switch-over times zero the queue-2 ratio is 0/0 at n1 = 0
    cfg = slow_mode_config(switch12=Deterministic(0.0), switch21=Deterministic(0.0))
    with pytest.raises(ValueError, match="switch-over"):
        heuristic_policy(cfg, PollingState(0, 1, 1), False)


def test_heuristic_preconditions():
    cfg = asym_var_config()  # symmetric: no priority queue
    with pytest.raises(ValueError, match="priority"):
        heuristic_policy(cfg, PollingState(1, 1, 0), False)
    unstable = exp_config(lambda1=3.0, lambda2=0.1, serve1=Exponential(2.0),
                          c1=5.0)
    with pytest.raises(ValueError, match="stable"):
        heuristic_policy(unstable, PollingState(1, 1, 0), False)


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


def test_symmetric_scenario_coordinates_mirror():
    cfg = exp_config(lambda1=0.8, lambda2=0.8, serve1=Exponential(2.5),
                     serve2=Exponential(2.5), switch12=Exponential(2.5),
                     switch21=Exponential(2.5))
    cycle = analyze_limit_cycle(cfg)
    assert cycle.kind is CycleKind.PURE_BOW_TIE
    assert cycle.c1[::-1] == pytest.approx(cycle.c4)
    assert cycle.c3[::-1] == pytest.approx(cycle.c5)


def test_priority_queue_two_is_mirrored():
    cfg = slow_mode_config()
    mirrored = slow_mode_config(
        lambda1=cfg.lambda2, lambda2=cfg.lambda1,
        serve1=cfg.serve2, serve2=cfg.serve1,
        switch12=cfg.switch21, switch21=cfg.switch12,
        c1=cfg.c2, c2=cfg.c1,
    )
    base = analyze_limit_cycle(cfg)
    swapped = analyze_limit_cycle(mirrored)
    assert swapped.priority_queue == 2
    assert swapped.kind is base.kind
    assert swapped.alpha1 == pytest.approx(base.alpha1)
    assert swapped.c1 == pytest.approx(base.c1[::-1])
    assert swapped.c4 == pytest.approx(base.c4[::-1])


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
