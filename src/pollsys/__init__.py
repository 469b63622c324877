"""Optimal control of a two-queue polling system with switch-over durations.

Builds discounted semi-Markov and uniformised continuous-time decision
models, solves them by policy or value iteration, screens scenarios through
a fluid limit-cycle analysis, evaluates policies on a common-random-number
semi-Markov simulator, and compares them with parametric and non-parametric
hypothesis tests.
"""

from .distributions import Deterministic, DurationDist, Exponential, Gamma
from .model import (
    ACTION_NAMES,
    ACTIONS,
    IDLE,
    SERVE,
    SWITCH,
    ScenarioConfig,
    ScenarioError,
    StabilityReport,
    StateIndexer,
    Truncation,
    validate_scenario,
)
from .lattice import (
    ArrivalSummary,
    GeneratorMatrix,
    build_arrival_summaries,
    build_generator,
    expected_arrival_probs,
    holding_cost_arrivals,
    holding_cost_existing,
    pool_lattice,
    snapshot_lattice,
)
from .smdp import ActionModel, SmdpModel, build_action_model, build_cost_vector, build_smdp
from .ctmdp import NonPreemptiveModel, PreemptiveModel, build_nonpreemptive, build_preemptive
from .solver import (
    Policy,
    ValueGraph,
    build_value_graph,
    policy_evaluate,
    policy_improve,
    policy_iteration,
    value_iterate,
)
from .baselines import (
    CycleKind,
    LimitCycle,
    analyze_limit_cycle,
    exhaustive_start,
    limit_cycle_report,
    truncation_bounds,
)
from .simulate import (
    ExhaustivePolicy,
    HeuristicPolicy,
    QueueOverflowError,
    RolloutTrace,
    SeedStream,
    TabularPolicy,
    action_time_fractions,
    decouple,
    embedded_stationary,
    limit_cycle_occupancy,
    overall_stationary,
    rollout,
    sample_performance,
    simulate_trace,
    work_fraction,
)
from .stats import (
    TestResult,
    dagostino_k2,
    mann_whitney_u,
    pearson_r,
    t_test_one_sample,
    welch_t_test,
)

__version__ = "0.1.0"
