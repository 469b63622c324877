import itertools
import json
import re
from importlib import resources

import numpy as np
import pytest

from pollsys import (
    IDLE,
    SERVE,
    SWITCH,
    Exponential,
    ScenarioConfig,
    ScenarioError,
    StateIndexer,
    Truncation,
    validate_scenario,
)
from pollsys.cli import load_scenario

from conftest import PollingState, asym_var_config, feasible_actions, slow_mode_config


def test_flatten_zero_and_hand_value():
    idx = StateIndexer((3, 3))
    assert idx.flatten(0, 0) == 0
    # stride of the first coordinate is N2 + 1 = 4
    assert idx.flatten(1, 2) == 1 * 4 + 2 == 6
    with pytest.raises(ValueError):
        idx.flatten((1, 2))  # one coordinate per argument


def test_flatten_roundtrip_small():
    idx = StateIndexer((3, 3))
    seen = set()
    for c in itertools.product(range(4), repeat=2):
        flat = idx.flatten(*c)
        assert idx.unflatten(flat) == c
        seen.add(flat)
    assert seen == set(range(16))


def test_flatten_roundtrip_exhaustive_large():
    idx = StateIndexer((50, 50, 2, 3))
    flats = np.arange(idx.size)
    coords = idx.unflatten(flats)
    back = idx.flatten(*coords)
    assert np.array_equal(back, flats)
    assert idx.size == 51 * 51 * 3 * 4


def test_flatten_bounds_checked():
    idx = StateIndexer((3, 3))
    with pytest.raises(IndexError):
        idx.flatten(4, 0)
    with pytest.raises(IndexError):
        idx.unflatten(16)


def test_feasible_actions_cases():
    assert set(feasible_actions(PollingState(2, 0, 0))) == {IDLE, SERVE, SWITCH}
    assert set(feasible_actions(PollingState(0, 5, 0))) == {IDLE, SWITCH}
    assert set(feasible_actions(PollingState(0, 0, 1))) == {IDLE, SWITCH}
    with pytest.raises(ValueError):
        feasible_actions(PollingState(1, 1, 0, l2=1))


def test_feasible_actions_never_serves_empty_queue():
    for n1 in range(4):
        for n2 in range(4):
            for l1 in (0, 1):
                acts = feasible_actions(PollingState(n1, n2, l1))
                assert IDLE in acts and SWITCH in acts
                current = n1 if l1 == 0 else n2
                assert (SERVE in acts) == (current > 0)


def test_validate_asym_var_scenario():
    rep = validate_scenario(asym_var_config())
    assert rep.rho == pytest.approx(0.64)
    assert rep.priority_queue is None


def test_validate_slow_mode_scenario():
    rep = validate_scenario(slow_mode_config())
    assert rep.rho == pytest.approx(0.35)
    assert rep.rho1 == pytest.approx(0.15)
    assert rep.priority_queue == 1


def test_validate_rejects_unstable():
    cfg = ScenarioConfig(
        lambda1=2.0, lambda2=0.1,
        serve1=Exponential(1 / 0.6), serve2=Exponential(10.0),
        switch12=Exponential(1.0), switch21=Exponential(1.0),
        c1=1.0, c2=1.0, beta=0.05,
    )
    with pytest.raises(ScenarioError, match="unstable"):
        validate_scenario(cfg)


def test_validate_never_raises_when_stable(rng):
    for _ in range(25):
        lam1, lam2 = rng.uniform(0.05, 1.0, size=2)
        m1, m2 = rng.uniform(0.01, 0.9 / (lam1 + lam2), size=2)
        cfg = ScenarioConfig(
            lambda1=lam1, lambda2=lam2,
            serve1=Exponential(1 / m1), serve2=Exponential(1 / m2),
            switch12=Exponential(1.0), switch21=Exponential(1.0),
            c1=1.0, c2=2.0, beta=0.05,
        )
        rep = validate_scenario(cfg)
        assert rep.rho < 1


def test_config_validation_errors():
    ok = asym_var_config()
    with pytest.raises(ScenarioError):
        asym_var_config(beta=0.0)
    with pytest.raises(ScenarioError):
        asym_var_config(X1=0)
    with pytest.raises(ScenarioError):
        asym_var_config(c1=-1.0)
    assert ok.truncation_mode is Truncation.ABSORBING


BOUNDS = ("X1", "X2", "N1", "N2")


@pytest.mark.parametrize("field", ["lambda1", "lambda2", "c1", "c2", "K12", "K21", "beta",
                                   *BOUNDS])
def test_config_rejects_non_finite_and_non_integer_fields(field):
    bad = ((6.5, 4.0, True, "8") if field in BOUNDS
           else (float("nan"), float("inf"), -np.inf, "1.0", None, True))
    for value in bad:
        with pytest.raises(ScenarioError, match=re.escape(f"{field} must be ") + ".* got "
                           + re.escape(repr(value))):
            asym_var_config(**{field: value})
    if field in BOUNDS:
        cfg = asym_var_config(**{field: np.int64(8)})
        assert json.loads(json.dumps(cfg.to_json()))[field] == 8


def test_scenario_json_round_trip(tmp_path):
    cfg = slow_mode_config(truncation_mode="unassigned")
    doc = cfg.to_json()
    assert doc["serve1"] == {"kind": "gamma", "shape": 30, "scale": 0.1 / 30}
    assert doc["truncation_mode"] == "unassigned"
    path = tmp_path / "scenario.json"
    cfg.save(path)
    again = load_scenario(str(path))
    assert again == cfg
    # field names are exactly the constructor names
    assert set(json.loads(path.read_text())) == {
        "lambda1", "lambda2", "serve1", "serve2", "switch12", "switch21",
        "c1", "c2", "K12", "K21", "beta", "X1", "X2", "N1", "N2",
        "truncation_mode",
    }
    # a bundled scenario writes its file's document back: keys in the same
    # order, durations included, and the same values
    for name in ("asym_var", "slow_mode"):
        text = resources.files("pollsys").joinpath("scenarios", f"{name}.json").read_text()
        assert json.dumps(load_scenario(name).to_json()) == json.dumps(json.loads(text))


def test_exponentialised_config_keeps_means():
    cfg = slow_mode_config()
    exp_cfg = cfg.with_exponential_durations()
    assert isinstance(exp_cfg.serve1, Exponential)
    assert exp_cfg.serve1.mean() == pytest.approx(cfg.serve1.mean())
    assert exp_cfg.switch21.mean() == pytest.approx(cfg.switch21.mean())
