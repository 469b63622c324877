"""Semi-Markov simulation with common random numbers.

Each rollout consults a policy at the embedded-chain epochs, draws the
committed event's duration from its own deterministic substream, superposes
the Poisson arrivals inside the interval, and accumulates locally discounted
step costs.  Running two policies with the same base seed reuses identical
event samples, which is what makes paired performance comparisons fair.

`rollout` and `simulate_trace` step one rollout at a time.
`sample_performance` steps all its rollouts together as arrays over the
policy's action table and gives the same values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    IDLE,
    SERVE,
    SWITCH,
    PollingState,
    ScenarioConfig,
    triple_indexer,
)
from .baselines import (
    exhaustive_actions,
    exhaustive_policy,
    heuristic_actions,
    heuristic_policy,
)
from .distributions import Exponential

# substream tags: one per event type, plus bookkeeping streams
TAG_LAMBDA = (0, 1)
TAG_SERVE = (2, 3)
TAG_SWITCH = (4, 5)
TAG_INIT = 6
TAG_SHUFFLE = 7


class QueueOverflowError(RuntimeError):
    """A queue exceeded the simulator cap; the policy is destabilising."""


class SeedStream:
    """Deterministic per-event-type substreams derived from one base seed.

    Every event type owns an independent counter-based (Philox) stream keyed
    by (base seed, event tag), so equal seeds reproduce identical event
    samples across policies and platforms.
    """

    def __init__(self, base_seed: int):
        self.base_seed = int(base_seed)
        self._gens = {}

    def generator(self, tag: int) -> np.random.Generator:
        gen = self._gens.get(tag)
        if gen is None:
            key = (self.base_seed << 6) + tag
            gen = np.random.Generator(np.random.Philox(key=key))
            self._gens[tag] = gen
        return gen


@dataclass
class RolloutTrace:
    """Embedded-chain trajectory: entry states, actions, costs and times."""

    n1: np.ndarray
    n2: np.ndarray
    l1: np.ndarray
    action: np.ndarray
    cost: np.ndarray  # locally discounted step cost c_k^beta
    dt: np.ndarray
    t: np.ndarray  # entry times, t[0] = 0
    horizon: float
    arrivals: Optional[list] = None  # per interval: ((class, time), ...)

    def __len__(self):
        return len(self.t)


def _cap_grid(cfg: ScenarioConfig):
    """Broadcastable (served, n1, n2, l1) coordinates of the simulator's cap box."""
    served, n1, n2, l1 = np.ogrid[0:2, 0:10 * cfg.X1 + 1, 0:10 * cfg.X2 + 1, 0:2]
    return served.astype(bool), n1, n2, l1


class ExhaustivePolicy:
    """Stateless adapter around the exhaustive rule."""

    def start(self):
        return None

    def act(self, n1, n2, l1, carry):
        return exhaustive_policy(PollingState(n1, n2, l1)), carry

    def action_table(self, cfg):
        """Actions over the cap box, broadcastable to (served, n1, n2, l1)."""
        _, n1, n2, l1 = _cap_grid(cfg)
        return exhaustive_actions(n1, n2, l1)


class HeuristicPolicy:
    """Priority-queue heuristic with its served-one-queue-2-job flag."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        # fail fast on inapplicable scenarios
        heuristic_policy(cfg, PollingState(0, 0, 0), False)

    def start(self):
        return False

    def act(self, n1, n2, l1, carry):
        return heuristic_policy(self.cfg, PollingState(n1, n2, l1), carry)

    def action_table(self, cfg):
        """Actions over the cap box; the next flag is ``action == SERVE`` at
        queue 2 and unchanged at queue 1, as `heuristic_policy` returns it."""
        served, n1, n2, l1 = _cap_grid(cfg)
        return heuristic_actions(self.cfg, n1, n2, l1, served)


class TabularPolicy:
    """Policy table over the (n1, n2, l1) box; clamps beyond-box lookups."""

    def __init__(self, table: np.ndarray, X1: int, X2: int):
        self.table = np.asarray(table, dtype=int)
        self.X1 = X1
        self.X2 = X2

    def start(self):
        return None

    def act(self, n1, n2, l1, carry):
        a = self.table[
            (min(n1, self.X1) * (self.X2 + 1) + min(n2, self.X2)) * 2 + l1
        ]
        if a < 0:
            raise ValueError(f"policy undefined at state ({n1},{n2},{l1})")
        return int(a), carry

    def action_table(self, cfg):
        """The table over the cap box, clamped to the (X1, X2) box like `act`."""
        _, n1, n2, l1 = _cap_grid(cfg)
        box = self.table.reshape(self.X1 + 1, self.X2 + 1, 2)
        return box[np.minimum(n1, self.X1), np.minimum(n2, self.X2), l1]


def step_wise_cost(n1, n2, arrivals, dt, c1, c2, beta):
    """Locally discounted holding cost of one embedded transition.

    ``arrivals`` holds (class, time) pairs with times in [0, dt].  Customers
    present at entry accrue cost over the whole interval; each arrival from
    its arrival time to the interval end.
    """
    base = c1 * n1 + c2 * n2
    total = (base / beta) * (1.0 - math.exp(-beta * dt)) if base else 0.0
    edt = math.exp(-beta * dt)
    for cls, ta in arrivals:
        c = c1 if cls == 0 else c2
        total += (c / beta) * (math.exp(-beta * ta) - edt)
    return total


def _draw_arrivals(lam, gen, dt):
    """Arrival times of one class within [0, dt) by exponential gaps."""
    times = []
    if lam <= 0:
        return times
    t = gen.exponential(1.0 / lam)
    while t < dt:
        times.append(t)
        t += gen.exponential(1.0 / lam)
    return times


def _run(cfg: ScenarioConfig, policy, x0, seeds: SeedStream, T: float,
         collect: bool = False):
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    c1, c2, beta = cfg.c1, cfg.c2, cfg.beta
    cap1, cap2 = 10 * cfg.X1, 10 * cfg.X2
    serve_dists = cfg.serve_dists
    switch_dists = cfg.switch_dists
    switch_costs = cfg.switch_costs
    gen_lam = (seeds.generator(TAG_LAMBDA[0]), seeds.generator(TAG_LAMBDA[1]))
    gen_serve = (seeds.generator(TAG_SERVE[0]), seeds.generator(TAG_SERVE[1]))
    gen_switch = (seeds.generator(TAG_SWITCH[0]), seeds.generator(TAG_SWITCH[1]))

    n1, n2, l1 = x0
    t = 0.0
    total = 0.0
    carry = policy.start()
    rec_n1, rec_n2, rec_l1, rec_a, rec_c, rec_dt, rec_t = [], [], [], [], [], [], []
    rec_arr = []

    while t < T:
        a, carry = policy.act(n1, n2, l1, carry)
        if a == IDLE:
            if lam1 <= 0 and lam2 <= 0:
                break  # empty of randomness: idling would last forever
            t1 = gen_lam[0].exponential(1.0 / lam1) if lam1 > 0 else math.inf
            t2 = gen_lam[1].exponential(1.0 / lam2) if lam2 > 0 else math.inf
            if t1 <= t2:
                dt, winner = t1, 0
            else:
                dt, winner = t2, 1
            step = step_wise_cost(n1, n2, (), dt, c1, c2, beta)
            arr = ()
            nxt = (n1 + 1, n2, l1) if winner == 0 else (n1, n2 + 1, l1)
        elif a == SERVE:
            if (n1 if l1 == 0 else n2) <= 0:
                raise ValueError(f"policy serves an empty queue at ({n1},{n2},{l1})")
            dt = serve_dists[l1].sample(gen_serve[l1])
            arr = [(0, ta) for ta in _draw_arrivals(lam1, gen_lam[0], dt)]
            arr += [(1, ta) for ta in _draw_arrivals(lam2, gen_lam[1], dt)]
            arr.sort(key=lambda pair: pair[1])
            step = step_wise_cost(n1, n2, arr, dt, c1, c2, beta)
            a1 = sum(1 for cls, _ in arr if cls == 0)
            a2 = len(arr) - a1
            if l1 == 0:
                nxt = (n1 - 1 + a1, n2 + a2, l1)
            else:
                nxt = (n1 + a1, n2 - 1 + a2, l1)
        elif a == SWITCH:
            dt = switch_dists[l1].sample(gen_switch[l1])
            arr = [(0, ta) for ta in _draw_arrivals(lam1, gen_lam[0], dt)]
            arr += [(1, ta) for ta in _draw_arrivals(lam2, gen_lam[1], dt)]
            arr.sort(key=lambda pair: pair[1])
            step = step_wise_cost(n1, n2, arr, dt, c1, c2, beta)
            step += switch_costs[l1]
            a1 = sum(1 for cls, _ in arr if cls == 0)
            a2 = len(arr) - a1
            nxt = (n1 + a1, n2 + a2, 1 - l1)
        else:
            raise ValueError(f"unknown action {a}")
        total += math.exp(-beta * t) * step
        if collect:
            rec_n1.append(n1)
            rec_n2.append(n2)
            rec_l1.append(l1)
            rec_a.append(a)
            rec_c.append(step)
            rec_dt.append(dt)
            rec_t.append(t)
            rec_arr.append(tuple(arr))
        n1, n2, l1 = nxt
        if n1 > cap1 or n2 > cap2:
            raise QueueOverflowError(
                f"queue exceeded simulator cap at t={t:.2f}: "
                f"({n1},{n2}) vs caps ({cap1},{cap2}); policy-induced instability"
            )
        t += dt

    trace = None
    if collect:
        trace = RolloutTrace(
            n1=np.array(rec_n1, dtype=np.int32),
            n2=np.array(rec_n2, dtype=np.int32),
            l1=np.array(rec_l1, dtype=np.int32),
            action=np.array(rec_a, dtype=np.int32),
            cost=np.array(rec_c),
            dt=np.array(rec_dt),
            t=np.array(rec_t),
            horizon=T,
            arrivals=rec_arr,
        )
    return total, trace


def _initial_cdf(cfg: ScenarioConfig, initial_dist) -> np.ndarray:
    """Cumulative initial distribution over the (n1, n2, l1) box."""
    size = triple_indexer(cfg).size
    if initial_dist is None:
        p = np.full(size, 1.0 / size)
    else:
        p = np.asarray(initial_dist, dtype=float)
        if len(p) != size or p.min() < 0:
            raise ValueError("initial distribution must be a pmf over the state box")
        p = p / p.sum()
    return np.cumsum(p)


def _initial_states(cfg: ScenarioConfig, cdf: np.ndarray, u):
    """The (n1, n2, l1) state(s) that the uniform draw(s) ``u`` pick from ``cdf``."""
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return triple_indexer(cfg).unflatten(idx)


def rollout(cfg: ScenarioConfig, policy, initial_dist, seed: int, T: float) -> float:
    """One discounted Monte-Carlo rollout from a sampled initial state."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    seeds = SeedStream(seed)
    u = seeds.generator(TAG_INIT).random()
    x0 = _initial_states(cfg, _initial_cdf(cfg, initial_dist), u)
    total, _ = _run(cfg, policy, x0, seeds, T, collect=False)
    return total


def simulate_trace(cfg: ScenarioConfig, policy, T: float, seed: int = 0,
                   x0=(0, 0, 0)) -> RolloutTrace:
    """Record a full embedded-chain trajectory from a fixed initial state."""
    seeds = SeedStream(seed)
    _, trace = _run(cfg, policy, tuple(x0), seeds, T, collect=True)
    return trace


# Lockstep batch of rollouts.  Every rollout keeps its own substreams; their
# values are pre-drawn in blocks, which Philox returns exactly as the same
# number of single draws, so a batch reproduces the scalar rollouts bit for bit.
_DURATION_BLOCK = 128  # values pre-drawn per duration substream and rollout
_GAP_BLOCK = 256  # values pre-drawn per arrival substream and rollout
_GAP_RESERVE = 64  # arrival gaps a row holds whenever it is read
_WINDOW = 4  # arrival gaps first examined per interval
_CHUNK = 1 << 12  # rollout steps whose costs are added in one pass

# codes in a batch action table for decisions the scalar path rejects
_UNDEFINED, _EMPTY_SERVE, _UNKNOWN = -1, -2, -3


def _philox_words(key: int) -> list:
    """State of ``np.random.Philox(key=key)`` before its first draw, as the
    words counter (4), key (2), buffer (4), buffer_pos, has_uint32, uinteger."""
    if not 0 <= key < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    return [0, 0, 0, 0, key & (1 << 64) - 1, key >> 64, 0, 0, 0, 0, 4, 0, 0]


def _philox_state(words: list) -> dict:
    """The ``Philox.state`` dict of a list of state words."""
    return {"bit_generator": "Philox", "state": {"counter": words[:4], "key": words[4:6]},
            "buffer": words[6:10], "buffer_pos": words[10], "has_uint32": words[11],
            "uinteger": words[12]}


def _philox_state_words(state: dict) -> list:
    """Inverse of `_philox_state`."""
    return [*state["state"]["counter"].tolist(), *state["state"]["key"].tolist(),
            *state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"]]


def _exp(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp``, which the scalar path uses; ``np.exp`` can
    differ from it in the last bit."""
    return np.fromiter(map(math.exp, x.tolist()), dtype=float, count=len(x))


class _Blocks:
    """Pre-drawn values of a set of substreams, one row per (substream, rollout).

    Row ``s * M + k`` holds the next values of substream ``s`` of rollout
    ``k`` from ``pos[row]`` on.  Before a row is read it is topped up to at
    least ``reserve`` values: the unused ones move to the front and the rest
    are drawn from the row's Philox stream, resumed from its saved state.
    A row starts empty at the start of its stream, so a substream that is
    never read is never drawn.  One bit generator serves every row, so the
    memory is O(rows x width).
    """

    def __init__(self, philox, dists, keys, width: int, reserve: int):
        self.philox = philox
        self.gen = np.random.Generator(philox)
        self.dists = dists
        self.M = len(keys[0]) if keys else 0
        self.width = width
        self.reserve = reserve
        self.buf = np.empty((len(dists) * self.M, width))
        self.flat = self.buf.reshape(-1)
        self.pos = np.full(len(dists) * self.M, width, dtype=np.intp)
        self.states = [_philox_words(key) for row in keys for key in row]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next value of each (distinct) row."""
        self._top_up(rows)
        vals = self.flat[rows * self.width + self.pos[rows]]
        self.pos[rows] += 1
        return vals

    def window(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next ``count <= reserve`` values of each row, one column per
        row, not consumed."""
        self._top_up(rows)
        start = rows * self.width + self.pos[rows]
        return self.flat[start + np.arange(count)[:, None]]

    def next(self, row: int) -> float:
        if self.pos[row] == self.width:
            self._refill(row)
        self.pos[row] += 1
        return float(self.buf[row, self.pos[row] - 1])

    def _top_up(self, rows: np.ndarray):
        for row in rows[self.pos[rows] > self.width - self.reserve]:
            self._refill(row)

    def _refill(self, row: int):
        used = self.pos[row]
        values = self.buf[row]
        values[:self.width - used] = values[used:].copy()
        self.philox.state = _philox_state(self.states[row])
        values[self.width - used:] = self.dists[row // self.M].sample(self.gen, used)
        self.states[row] = _philox_state_words(self.philox.state)
        self.pos[row] = 0


def _arrivals(gaps: _Blocks, rows: np.ndarray, dt: np.ndarray, width: int = _WINDOW):
    """Arrivals in each interval [0, dt) of the substreams ``rows``: the row
    position and time of each arrival, in no set order, and the count per row.

    As in `_draw_arrivals`, the gaps are summed from 0 in the order drawn
    and the gap that overshoots ``dt`` is consumed and thrown away.  Rows
    with ``width`` arrivals or more are redone with four times the gaps, up
    to ``gaps.reserve``, and past that one gap at a time.
    """
    sums = gaps.window(rows, width)
    for j in range(1, width):
        sums[j] += sums[j - 1]
    inside = sums < dt
    count = inside.sum(axis=0)
    long = (count == width).nonzero()[0]
    if long.size:
        inside[:, long] = False
        count[long] = -1  # consumes nothing here
    where = inside.nonzero()[1]
    times = sums[inside]
    gaps.pos[rows] += count + 1
    if not long.size:
        return where, times, count
    where, times = [where], [times]
    if width < gaps.reserve:
        w, t, count[long] = _arrivals(gaps, rows[long], dt[long], min(4 * width, gaps.reserve))
        where.append(long[w])
        times.append(t)
    else:
        for j in long:
            run = []
            t = gaps.next(rows[j])
            while t < dt[j]:
                run.append(t)
                t += gaps.next(rows[j])
            count[j] = len(run)
            where.append(np.full(len(run), j))
            times.append(run)
    return np.concatenate(where), np.concatenate(times), count


def _action_codes(cfg: ScenarioConfig, policy) -> np.ndarray:
    """The policy's actions over the cap box, flat over (served, n1, n2, l1),
    with the decisions the scalar path rejects replaced by error codes."""
    table = getattr(policy, "action_table", None)
    if table is None:
        raise TypeError("sample_performance needs a policy with action_table(cfg); "
                        "use rollout() for other policies")
    _, n1, n2, l1 = _cap_grid(cfg)
    codes = np.clip(table(cfg), _UNDEFINED, SWITCH + 1).astype(np.int8)
    codes[codes > SWITCH] = _UNKNOWN
    empty = ((l1 == 0) & (n1 == 0)) | ((l1 == 1) & (n2 == 0))
    codes[(codes == SERVE) & empty] = _EMPTY_SERVE
    return np.broadcast_to(codes, (2, n1.size, n2.size, 2)).reshape(-1)


def _charge(total, cfg: ScenarioConfig, log):
    """Add the discounted costs of the logged steps to ``total``.

    Each log entry holds, per step i: rollout ``k[i]``, start ``t[i]``,
    length ``dt[i]``, ``base[i] = c1 n1 + c2 n2``, switch cost ``extra[i]``
    (or None when there are none), and per arrival: its step ``event``
    (numbered across the log), time ``when`` and class ``cls``.  Every sum
    runs in the order `step_wise_cost` and `_run` use: ``np.add.at`` adds
    in index order, and the arrivals are sorted by time, class 0 first on
    a tie.
    """
    if not log:
        return
    k, t, dt, base, extra, event, when, cls = (
        None if part[0] is None else np.concatenate(part) for part in zip(*log))
    beta = cfg.beta
    e = _exp(np.concatenate([-beta * dt, -beta * t, -beta * when]))
    edt, discount, e_arr = e[:len(t)], e[len(t):2 * len(t)], e[2 * len(t):]
    step = (base / beta) * (1.0 - edt)
    weight = np.array([cfg.c1 / beta, cfg.c2 / beta])[cls]
    order = np.lexsort((cls, when))
    np.add.at(step, event[order], (weight * (e_arr - edt[event]))[order])
    if extra is not None:
        step += extra
    np.add.at(total, k, discount * step)


def _lockstep(cfg: ScenarioConfig, codes: np.ndarray, x0, seeds, T: float) -> np.ndarray:
    """Discounted costs of rollouts from states ``x0`` on ``seeds``, all
    stepped together as arrays.

    Rollout k equals ``_run`` from ``x0[:, k]`` with ``SeedStream(seeds[k])``
    bit for bit: it draws the same values from the same substreams and sums
    its costs in the same order with ``math.exp``.  The dynamics advance
    one step of every live rollout at a time; the costs of about ``_CHUNK``
    logged rollout steps at a time are added afterwards in one pass
    (`_charge`), which bounds the log's memory whatever M is.
    """
    M = len(seeds)
    lam = cfg.arrival_rates
    c1, c2 = cfg.c1, cfg.c2
    cap1, cap2 = 10 * cfg.X1, 10 * cfg.X2
    philox = np.random.Philox(key=0)
    durations = _Blocks(
        philox, cfg.serve_dists + cfg.switch_dists,
        [[(s << 6) + tag for s in seeds] for tag in TAG_SERVE + TAG_SWITCH],
        _DURATION_BLOCK, 1,
    )
    classes = np.array([c for c in (0, 1) if lam[c] > 0], dtype=int)
    gaps = _Blocks(
        philox, [Exponential(lam[c]) for c in classes],
        [[(s << 6) + TAG_LAMBDA[c] for s in seeds] for c in classes],
        _GAP_BLOCK, _GAP_RESERVE,
    )
    switch_costs = np.array(cfg.switch_costs) if any(cfg.switch_costs) else None
    strides = np.array([(cap1 + 1) * (cap2 + 1) * 2, (cap2 + 1) * 2, 2, 1])

    total = np.zeros(M)
    k = np.arange(M)
    state = np.array([np.zeros(M, dtype=int), *x0])  # rows: served, n1, n2, l1
    t = np.zeros(M)
    log = []
    logged = 0
    while k.size:
        served, n1, n2, l1 = state
        a = codes[strides @ state]
        if a.min() < 0:
            j = int(np.flatnonzero(a < 0)[0])
            where = f"({n1[j]},{n2[j]},{l1[j]}) in the rollout with seed {seeds[k[j]]}"
            raise ValueError({
                _UNDEFINED: f"policy undefined at state {where}",
                _EMPTY_SERVE: f"policy serves an empty queue at {where}",
                _UNKNOWN: f"unknown action at state {where}",
            }[int(a[j])])
        idle = a == IDLE
        if not classes.size and idle.any():
            # empty of randomness: idling would last forever, the rollout ends
            keep = ~idle
            k, state, t, a, idle = k[keep], state[:, keep], t[keep], a[keep], idle[keep]
            served, n1, n2, l1 = state
            if not k.size:
                break
        busy = (~idle).nonzero()[0]
        rest = idle.nonzero()[0]
        m = k.size

        dt = np.empty(m)
        arrived = np.zeros((2, m), dtype=int)
        if rest.size:
            first = np.full((2, rest.size), np.inf)
            first[classes] = gaps.take((classes[:, None] * M + k[rest]).reshape(-1)).reshape(
                len(classes), rest.size)
            dt[rest] = np.minimum(first[0], first[1])
            second = first[1] < first[0]  # class 0 wins a tie
            arrived[0, rest] = ~second
            arrived[1, rest] = second
        event, when, cls = np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int)
        if busy.size:
            stream = (a[busy] - SERVE) * 2 + l1[busy]  # serve at 0/1, then switch from 0/1
            dt[busy] = durations.take(stream * M + k[busy])
        if busy.size and classes.size:
            rows = (classes[:, None] * M + k[busy]).reshape(-1)
            where, when, count = _arrivals(gaps, rows, np.concatenate([dt[busy]] * len(classes)))
            arrived[classes[:, None], busy] = count.reshape(len(classes), busy.size)
            event = logged + busy[where % busy.size]
            cls = classes[where // busy.size]
        extra = None
        if switch_costs is not None:
            extra = np.where(a == SWITCH, switch_costs[l1], 0.0)
        log.append((k, t, dt, c1 * n1 + c2 * n2, extra, event, when, cls))
        logged += m

        serve = a == SERVE
        state[1:3] += arrived
        at = serve.nonzero()[0]
        state[1 + l1[at], at] -= 1  # the job served leaves
        state[0] = np.where(l1 == 1, serve, served)
        l1 ^= a == SWITCH
        if n1.max() > cap1 or n2.max() > cap2:
            j = int(np.flatnonzero((n1 > cap1) | (n2 > cap2))[0])
            raise QueueOverflowError(
                f"queue exceeded simulator cap at t={t[j]:.2f}: "
                f"({n1[j]},{n2[j]}) vs caps ({cap1},{cap2}) in the rollout with "
                f"seed {seeds[k[j]]}; policy-induced instability"
            )
        t = t + dt
        live = t < T
        if not live.all():
            k, state, t = k[live], state[:, live], t[live]
        if logged >= _CHUNK:
            _charge(total, cfg, log)
            log = []
            logged = 0
    _charge(total, cfg, log)
    return total


def sample_performance(cfg: ScenarioConfig, policy, initial_dist, seed0: int,
                       T: float, M: int, shuffle_seed: Optional[int] = None) -> np.ndarray:
    """M rollouts on consecutive seeds, returned in shuffled order.

    The rollouts run in lockstep as arrays over the policy's action table
    (``policy.action_table(cfg)``); before the shuffle, entry k equals
    ``rollout(cfg, policy, initial_dist, seed0 + k, T)`` bit for bit.  The
    shuffle decouples the pairing that common random numbers would
    otherwise induce between two policies sampled from the same seed block;
    pass distinct ``shuffle_seed`` values per policy.
    """
    if M < 2:
        raise ValueError("need at least two rollouts (M >= 2)")
    if T <= 0:
        raise ValueError("horizon T must be positive")
    codes = _action_codes(cfg, policy)
    seeds = [int(seed0) + k for k in range(M)]
    philox = np.random.Philox(key=0)
    gen = np.random.Generator(philox)
    u = np.empty(M)
    for k, seed in enumerate(seeds):
        philox.state = _philox_state(_philox_words((seed << 6) + TAG_INIT))
        u[k] = gen.random()
    x0 = _initial_states(cfg, _initial_cdf(cfg, initial_dist), u)
    eta = _lockstep(cfg, codes, x0, seeds, T)
    key = (int(shuffle_seed if shuffle_seed is not None else seed0) << 6) + TAG_SHUFFLE
    rng = np.random.Generator(np.random.Philox(key=key))
    return eta[rng.permutation(M)]


def embedded_stationary(trace: RolloutTrace, burn_in: Optional[int] = None):
    """Empirical stationary distribution of the embedded chain.

    Returns (frequency table keyed by (n1, n2, l1), visits at queue 1,
    visits at queue 2) after discarding the first ``burn_in`` entries
    (default: 10% of the trace).
    """
    K = len(trace)
    B = K // 10 if burn_in is None else int(burn_in)
    if K - B <= 0:
        raise ValueError("trace too short for the requested burn-in")
    n1 = trace.n1[B:]
    n2 = trace.n2[B:]
    l1 = trace.l1[B:]
    count = len(n1)
    freq = {}
    keys, counts = np.unique(
        np.stack([n1, n2, l1], axis=1), axis=0, return_counts=True
    )
    for (a, b, c), m in zip(keys, counts):
        freq[(int(a), int(b), int(c))] = m / count
    visits_q1 = int(np.sum(l1 == 0))
    visits_q2 = int(np.sum(l1 == 1))
    return freq, visits_q1, visits_q2


def action_time_fractions(trace: RolloutTrace, burn_in: Optional[int] = None):
    """Time-weighted fraction spent in each server activity.

    Returns (fractions dict action -> share of time, total time, per-queue
    duration tables T1 and T2 keyed by action).
    """
    K = len(trace)
    B = K // 10 if burn_in is None else int(burn_in)
    if K - B <= 0:
        raise ValueError("trace too short for the requested burn-in")
    act = trace.action[B:]
    dt = trace.dt[B:]
    l1 = trace.l1[B:]
    T1 = {a: float(dt[(l1 == 0) & (act == a)].sum()) for a in (IDLE, SERVE, SWITCH)}
    T2 = {a: float(dt[(l1 == 1) & (act == a)].sum()) for a in (IDLE, SERVE, SWITCH)}
    total = sum(T1.values()) + sum(T2.values())
    if total <= 0:
        raise ValueError("trace carries no elapsed time after burn-in")
    phi = {a: (T1[a] + T2[a]) / total for a in (IDLE, SERVE, SWITCH)}
    return phi, total, T1, T2


def _integer_hull(cycle, grid: int):
    cells = set()
    corners = list(cycle.coordinates)
    kind = getattr(cycle, "kind", None)
    if kind is not None and getattr(kind, "value", kind) == "pure-bow-tie":
        # a pure bow-tie is drawn without its switch-arrival corner: the
        # crossing diagonals run straight between the exhaustion points
        corners = [cycle.c1, cycle.c2, cycle.c4, cycle.c5]
    segments = list(zip(corners, corners[1:] + corners[:1]))
    for (x1a, x2a), (x1b, x2b) in segments:
        for w in np.linspace(0.0, 1.0, max(int(grid), 2)):
            x1 = (1.0 - w) * x1a + w * x1b
            x2 = (1.0 - w) * x2a + w * x2b
            for f1 in (math.floor(x1), math.ceil(x1)):
                for f2 in (math.floor(x2), math.ceil(x2)):
                    cells.add((int(f1), int(f2)))
    return cells


def limit_cycle_occupancy(freq_table: dict, cycle, grid: int = 100) -> float:
    """Share of embedded visits whose queue pair lies on the integerised cycle.

    The queue-marginal frequency sums over both server locations; each cycle
    segment is sampled on ``grid`` points and every floor/ceil combination of
    a sampled point counts as part of the cycle.
    """
    marginal = {}
    for (n1, n2, _), f in freq_table.items():
        marginal[(n1, n2)] = marginal.get((n1, n2), 0.0) + f
    cells = _integer_hull(cycle, grid)
    return float(sum(marginal.get(cell, 0.0) for cell in cells))


def work_fraction(trace: RolloutTrace, cfg: ScenarioConfig,
                  burn_in: Optional[int] = None) -> float:
    """Serve-share-weighted mean service time, the reported work measure.

    Sums phi~(serve | at queue i) * mean(serve_i) over the two queues, where
    phi~ are embedded-chain action shares.  Unlike the raw serving time
    fraction, which equals the utilisation rho for every stable policy, this
    measure exceeds rho and reflects how decisively a policy serves.
    """
    K = len(trace)
    B = K // 10 if burn_in is None else int(burn_in)
    if K - B <= 0:
        raise ValueError("trace too short for the requested burn-in")
    act = trace.action[B:]
    l1 = trace.l1[B:]
    total = 0.0
    for loc, dist in ((0, cfg.serve1), (1, cfg.serve2)):
        at = l1 == loc
        if at.any():
            total += float((act[at] == SERVE).mean()) * dist.mean()
    return total


def overall_stationary(embedded_freqs: np.ndarray, mean_durations: np.ndarray) -> np.ndarray:
    """Convert embedded-chain frequencies to time-stationary probabilities.

    phi_j = embedded_j * E[dt_j] / sum_i embedded_i * E[dt_i].
    """
    embedded_freqs = np.asarray(embedded_freqs, dtype=float)
    mean_durations = np.asarray(mean_durations, dtype=float)
    w = embedded_freqs * mean_durations
    denom = w.sum()
    if denom <= 0:
        raise ValueError("total expected duration must be positive")
    return w / denom
