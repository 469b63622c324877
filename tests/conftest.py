import numpy as np
import pytest

from pollsys import IDLE, SERVE, SWITCH, Exponential, Gamma, ScenarioConfig
from pollsys.solver import assemble_policy_matrix, policy_improve


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
