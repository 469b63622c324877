"""Semi-Markov simulation with common random numbers.

Each rollout reads its policy's action at the embedded-chain epochs, draws the
committed event's duration from its own deterministic substream, superposes
the Poisson arrivals inside the interval, and accumulates locally discounted
step costs.  Running two policies with the same base seed reuses identical
event samples, which is what makes paired performance comparisons fair.

A policy is its action table over the simulator's cap box
(``policy.action_table(cfg)``), read as one flat code table
(`_action_codes`) by both paths.  `rollout` and `simulate_trace` step one
rollout at a time; `sample_performance` steps the rollouts of all its
policies together as arrays and gives the same values bit for bit.
Both paths draw each substream in blocks, which Philox returns exactly as
the same number of single draws, and both charge the steps they logged by
one routine, `_costs`, whose exponentials are ``np.exp`` over the whole log.
Both log the arrivals flat, one (step, class, time) entry each, in no set
order within a step: `_costs` takes them in time order itself, and a
trace's per-step ``arrivals`` are built from its flat log when first read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import IDLE, SERVE, SWITCH, ScenarioConfig, triple_indexer
from .baselines import CycleKind, _heuristic_params, exhaustive_actions, heuristic_actions
from .distributions import Exponential

# substream tags: one per event type, plus bookkeeping streams
TAG_LAMBDA = (0, 1)
TAG_SERVE = (2, 3)
TAG_SWITCH = (4, 5)
TAG_INIT = 6
TAG_SHUFFLE = 7


# values drawn at a time from one substream; a batch row draws at least these
_DURATION_BLOCK = 128
_GAP_BLOCK = 256


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
    """Embedded-chain trajectory: entry states, actions, costs and times.

    The arrivals inside the intervals are one flat log, in no set order
    within a step: the step, class and time in [0, dt) of each.
    """

    n1: np.ndarray
    n2: np.ndarray
    l1: np.ndarray
    action: np.ndarray
    cost: np.ndarray  # locally discounted step cost c_k^beta
    dt: np.ndarray
    t: np.ndarray  # entry times, t[0] = 0
    horizon: float
    arrival_step: Optional[np.ndarray] = None
    arrival_class: Optional[np.ndarray] = None
    arrival_time: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.t)

    @functools.cached_property
    def arrivals(self) -> Optional[list]:
        """Per interval: ((class, time), ...) in time order, class 0 first
        on a tie; built from the flat log when first read."""
        if self.arrival_step is None:
            return None
        order = np.lexsort((self.arrival_class, self.arrival_time, self.arrival_step))
        steps = [[] for _ in range(len(self))]
        for k, cls, when in zip(self.arrival_step[order].tolist(),
                                self.arrival_class[order].tolist(),
                                self.arrival_time[order].tolist()):
            steps[k].append((cls, when))
        return [tuple(arr) for arr in steps]


def _over_cap_box(cfg: ScenarioConfig, rule) -> np.ndarray:
    """``rule(served, n1, n2, l1)`` over the simulator's cap box, broadcastable
    to (served, n1, n2, l1).

    The rule sees broadcastable (served, n1, n2) coordinates at l1 = 0 and
    at l1 = 1, and the two results are stacked last: numpy broadcasts over
    a long last axis several times faster than over one of length 2.
    """
    served, n1, n2 = np.ogrid[0:2, 0:10 * cfg.X1 + 1, 0:10 * cfg.X2 + 1]
    served = served.astype(bool)
    return np.stack(np.broadcast_arrays(*(rule(served, n1, n2, l1) for l1 in (0, 1))), axis=-1)


# codes in an action table for the decisions that the simulator rejects
_UNDEFINED, _EMPTY_SERVE, _UNKNOWN = -1, -2, -3
_ERRORS = {
    _UNDEFINED: "policy undefined at state {}",
    _EMPTY_SERVE: "policy serves an empty queue at {}",
    _UNKNOWN: "unknown action at state {}",
}


def _strides(cfg: ScenarioConfig):
    """Strides of (served, n1, n2, l1) in a flat code table (`_action_codes`)."""
    cap2 = 10 * cfg.X2
    return ((10 * cfg.X1 + 1) * (cap2 + 1) * 2, (cap2 + 1) * 2, 2, 1)


class ExhaustivePolicy:
    """The exhaustive rule: serve the current queue to depletion, switch
    when it is empty and the other queue is not, idle in an empty system."""

    def action_table(self, cfg):
        """Actions over the cap box, broadcastable to (served, n1, n2, l1)."""
        return _over_cap_box(cfg, lambda served, n1, n2, l1: exhaustive_actions(n1, n2, l1))


class HeuristicPolicy:
    """Priority-queue heuristic with its served-one-queue-2-job flag."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        _heuristic_params(cfg)  # fails fast on inapplicable scenarios

    def action_table(self, cfg):
        """Actions over the cap box, broadcastable to (served, n1, n2, l1);
        the simulator carries the flag as ``action == SERVE`` at queue 2,
        unchanged at queue 1."""
        return _over_cap_box(
            cfg, lambda served, n1, n2, l1: heuristic_actions(self.cfg, n1, n2, l1, served))


class TabularPolicy:
    """Policy table over the (n1, n2, l1) box; clamps beyond-box lookups."""

    def __init__(self, table: np.ndarray, X1: int, X2: int):
        self.table = np.asarray(table, dtype=int)
        self.X1 = X1
        self.X2 = X2

    def action_table(self, cfg):
        """The table over the cap box, each state clamped to the (X1, X2) box."""
        box = self.table.reshape(self.X1 + 1, self.X2 + 1, 2)
        return _over_cap_box(cfg, lambda served, n1, n2, l1:
                             box[np.minimum(n1, self.X1), np.minimum(n2, self.X2), l1])


def _costs(total, k, t, dt, base, extra, event, when, cls, c1, c2, beta) -> np.ndarray:
    """The locally discounted cost of each logged step, whose cost
    discounted to time 0 is added to its rollout's ``total``.

    Per step i: rollout ``k[i]``, start ``t[i]``, length ``dt[i]``,
    ``base[i] = c1 n1 + c2 n2`` and switch cost ``extra[i]`` (0 when it
    has none); per arrival: its step ``event`` (numbered across the log),
    time ``when`` in [0, dt] and class ``cls``.  Step i costs
    ``base/beta (1 - e^(-beta dt))``, plus ``c/beta (e^(-beta t_a) - e^(-beta dt))``
    per arrival in time order, class 0 first on a tie, plus its switch
    cost.  ``np.add.at`` adds in index order, so each rollout's total sums
    its steps in order.  Every exponential is taken by one ``np.exp`` over
    the log; ``np.exp`` is elementwise, so a step's cost does not depend on
    what else is logged with it, and every caller gets the same bits.
    """
    edt = np.exp(-beta * dt)
    step = (base / beta) * (1.0 - edt)
    weight = np.array([c1 / beta, c2 / beta])[cls]
    order = np.lexsort((cls, when))
    np.add.at(step, event[order], (weight * (np.exp(-beta * when) - edt[event]))[order])
    step += extra
    np.add.at(total, k, np.exp(-beta * t) * step)
    return step


def _draws(dist, gen: np.random.Generator, block: int):
    """The values of ``dist`` drawn from ``gen`` in order, one at a time.

    They are drawn ``block`` at a time, which Philox returns exactly as the
    same number of single draws.
    """
    while True:
        yield from dist.sample(gen, block).tolist()


def _run(cfg: ScenarioConfig, codes: np.ndarray, x0, seeds: SeedStream, T: float):
    """Step one rollout of the policy with code table ``codes``
    (`_action_codes`) from ``x0`` until time ``T``.

    This is one lane of `_lockstep`: the served flag starts at 0 and
    becomes ``a == SERVE`` at queue 2, the action is
    ``codes[served s0 + n1 s1 + n2 s2 + l1]`` with the strides of
    `_strides`, and an error code raises its `_ERRORS` message.  Each
    substream of ``seeds`` is read through a `_draws` iterator; a class
    without arrivals reads an endless gap.  A busy step sums each class's
    gaps from 0 until one overshoots its length, which is consumed, and
    appends every arrival to one flat log (step, class, time), class 0's
    first: `_costs` orders the log by time and class itself.  The loop
    records each step's entry state, action, start and length; the costs
    are charged once at the end by `_costs`.  Returns the discounted cost
    and the `RolloutTrace`.
    """
    cap1, cap2 = 10 * cfg.X1, 10 * cfg.X2
    s0, s1, s2, _ = _strides(cfg)
    gap1, gap2 = [_draws(Exponential(lam), seeds.generator(tag), _GAP_BLOCK) if lam > 0
                  else itertools.repeat(math.inf)
                  for lam, tag in zip(cfg.arrival_rates, TAG_LAMBDA)]
    serve = [_draws(dist, seeds.generator(tag), _DURATION_BLOCK)
             for dist, tag in zip(cfg.serve_dists, TAG_SERVE)]
    switch = [_draws(dist, seeds.generator(tag), _DURATION_BLOCK)
              for dist, tag in zip(cfg.switch_dists, TAG_SWITCH)]
    no_arrivals = cfg.lambda1 <= 0 and cfg.lambda2 <= 0

    n1, n2, l1 = x0
    t = 0.0
    served = False
    rec_n1, rec_n2, rec_l1, rec_a, rec_dt, rec_t = [], [], [], [], [], []
    arr_step, arr_cls, arr_when = [], [], []

    while t < T:
        a = codes.item(served * s0 + n1 * s1 + n2 * s2 + l1)
        if a == IDLE:
            if no_arrivals:
                break  # empty of randomness: idling would last forever
            t1, t2 = next(gap1), next(gap2)
            dt = min(t1, t2)
            nxt = (n1 + 1, n2, l1) if t1 <= t2 else (n1, n2 + 1, l1)
        else:
            if a < 0:
                raise ValueError(_ERRORS[a].format(f"({n1},{n2},{l1})"))
            dt = next(serve[l1] if a == SERVE else switch[l1])
            k = len(rec_t)
            a1 = 0
            ta = next(gap1)
            while ta < dt:
                arr_step.append(k)
                arr_cls.append(0)
                arr_when.append(ta)
                a1 += 1
                ta += next(gap1)
            a2 = 0
            ta = next(gap2)
            while ta < dt:
                arr_step.append(k)
                arr_cls.append(1)
                arr_when.append(ta)
                a2 += 1
                ta += next(gap2)
            if a == SWITCH:
                nxt = (n1 + a1, n2 + a2, 1 - l1)
            elif l1 == 0:
                nxt = (n1 - 1 + a1, n2 + a2, l1)
            else:
                nxt = (n1 + a1, n2 - 1 + a2, l1)
        if l1 == 1:
            served = a == SERVE
        rec_n1.append(n1)
        rec_n2.append(n2)
        rec_l1.append(l1)
        rec_a.append(a)
        rec_dt.append(dt)
        rec_t.append(t)
        n1, n2, l1 = nxt
        if n1 > cap1 or n2 > cap2:
            raise QueueOverflowError(
                f"queue exceeded simulator cap at t={t:.2f}: "
                f"({n1},{n2}) vs caps ({cap1},{cap2}); policy-induced instability"
            )
        t += dt

    n1, n2, l1, action = (np.array(v, dtype=np.int32) for v in (rec_n1, rec_n2, rec_l1, rec_a))
    dt, t = np.array(rec_dt, dtype=float), np.array(rec_t, dtype=float)
    step, cls = np.array(arr_step, dtype=int), np.array(arr_cls, dtype=int)
    when = np.array(arr_when, dtype=float)
    extra = np.where(action == SWITCH, np.array(cfg.switch_costs)[l1], 0.0)
    total = np.zeros(1)
    cost = _costs(total, np.zeros(len(t), dtype=int), t, dt, cfg.c1 * n1 + cfg.c2 * n2, extra,
                  step, when, cls, cfg.c1, cfg.c2, cfg.beta)
    trace = RolloutTrace(n1=n1, n2=n2, l1=l1, action=action, cost=cost, dt=dt, t=t,
                         horizon=T, arrival_step=step, arrival_class=cls, arrival_time=when)
    return float(total[0]), trace


def _initial_cdf(cfg: ScenarioConfig, initial_dist) -> np.ndarray:
    """Cumulative initial distribution over the (n1, n2, l1) box."""
    size = triple_indexer(cfg).size
    if initial_dist is None:
        p = np.full(size, 1.0 / size)
    else:
        p = np.asarray(initial_dist, dtype=float)
        # a NaN or inf entry, or a zero total, fails the test of the sum
        if len(p) != size or p.min() < 0 or not 0 < p.sum() < math.inf:
            raise ValueError("initial distribution must be a pmf over the state box")
        p = p / p.sum()
    return np.cumsum(p)


def _initial_states(cfg: ScenarioConfig, cdf: np.ndarray, u):
    """The (n1, n2, l1) state(s) that the uniform draw(s) ``u`` pick from ``cdf``."""
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return triple_indexer(cfg).unflatten(idx)


def _check_horizon(T: float):
    """The horizon check of every entry point, made before any draw."""
    if not 0 < T < math.inf:  # NaN fails too
        raise ValueError(f"horizon T must be finite and positive, got {T!r}")


def rollout(cfg: ScenarioConfig, policy, initial_dist, seed: int, T: float) -> float:
    """One discounted Monte-Carlo rollout from a sampled initial state."""
    _check_horizon(T)
    seeds = SeedStream(seed)
    u = seeds.generator(TAG_INIT).random()
    x0 = _initial_states(cfg, _initial_cdf(cfg, initial_dist), u)
    total, _ = _run(cfg, _action_codes(cfg, policy), x0, seeds, T)
    return total


def simulate_trace(cfg: ScenarioConfig, policy, T: float, seed: int = 0,
                   x0=(0, 0, 0)) -> RolloutTrace:
    """Record a full embedded-chain trajectory from a fixed initial state.

    ``x0`` holds integers (n1, n2, l1) within the simulator's cap box
    [0, 10 X1] x [0, 10 X2] x {0, 1}.
    """
    _check_horizon(T)
    x0 = tuple(x0)
    caps = (10 * cfg.X1, 10 * cfg.X2, 1)
    if len(x0) != 3 or not all(isinstance(v, (int, np.integer)) and 0 <= v <= cap
                               for v, cap in zip(x0, caps)):
        raise ValueError(f"initial state {x0} is not integers (n1, n2, l1) in "
                         f"[0, {caps[0]}] x [0, {caps[1]}] x {{0, 1}}")
    codes = _action_codes(cfg, policy)
    _, trace = _run(cfg, codes, tuple(int(v) for v in x0), SeedStream(seed), T)
    return trace


# Lockstep batch of rollouts.  Every seed keeps its own substreams; their
# values are read by the policies' rollouts of that seed from one pre-drawn
# row each, so a batch reproduces the scalar rollouts bit for bit.
_WINDOW = 4  # arrival gaps first examined per interval
_CHUNK = 1 << 12  # rollout steps whose costs are added in one pass
_LANES = 1 << 12  # about the most (policy, seed) rollouts stepped together


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


class _Blocks:
    """Pre-drawn values of a set of substreams, one row per (substream, seed).

    Of ``L`` lanes on ``B`` seeds, lane ``j`` runs on seed ``j % B``, and
    index ``s * L + j`` names substream ``s`` of lane ``j``.  Its next value
    is ``buf[s * B + j % B, pos[s * L + j]]``: the policy lanes of a seed read
    one row, each at its own position.  A row only grows.  A read past its
    end draws as many values again as the row holds (at least ``block``)
    from the row's Philox stream, resumed from its saved state, and the
    buffer widens to any row that outgrows it.  A row starts empty at
    the start of its stream, so a substream that is never read is never
    drawn.  One bit generator serves every row; the memory is
    O(rows x the longest row).
    """

    def __init__(self, philox, dists, keys, lanes: int, block: int):
        self.philox = philox
        self.gen = np.random.Generator(philox)
        self.dists = dists
        self.seeds = len(keys[0]) if keys else 0
        self.block = block
        self.buf = np.empty((len(dists) * self.seeds, block))
        self.size = np.zeros(len(dists) * self.seeds, dtype=np.intp)
        self.pos = np.zeros(len(dists) * lanes, dtype=np.intp)
        idx = np.arange(len(dists) * lanes)
        self.row = idx // lanes * self.seeds + idx % self.seeds  # index -> its row
        self.states = [_philox_words(key) for row in keys for key in row]

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The next value at each (distinct) index."""
        start = self._start(idx, 1)
        self.pos[idx] += 1
        return self.buf.reshape(-1)[start]

    def window(self, idx: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` values at each index, one column per index of
        a new array, not consumed."""
        start = self._start(idx, count)
        return self.buf.reshape(-1)[start + np.arange(count)[:, None]]

    def _start(self, idx: np.ndarray, count: int) -> np.ndarray:
        """Flat buffer offsets of the next value at each index, once its row
        holds ``count`` values from there."""
        rows = self.row[idx]
        pos = self.pos[idx]
        short = pos + count > self.size[rows]
        if short.any():
            self._grow(rows[short], pos[short] + count)
        return rows * self.buf.shape[1] + pos

    def _grow(self, rows: np.ndarray, ends: np.ndarray):
        """Draw on each row until it holds ``ends`` values."""
        for row, end in zip(rows.tolist(), ends.tolist()):
            lo = hi = int(self.size[row])
            while hi < end:
                hi = max(2 * hi, self.block)
            if hi == lo:
                continue  # grown for another lane of its seed
            if hi > self.buf.shape[1]:  # rows hold block * 2**k values
                buf = np.empty((len(self.buf), hi))
                buf[:, :self.buf.shape[1]] = self.buf
                self.buf = buf
            self.philox.state = _philox_state(self.states[row])
            self.buf[row, lo:hi] = self.dists[row // self.seeds].sample(self.gen, hi - lo)
            self.states[row] = _philox_state_words(self.philox.state)
            self.size[row] = hi


def _arrivals(gaps: _Blocks, idx: np.ndarray, dt: np.ndarray, width: int = _WINDOW):
    """Arrivals in each interval [0, dt) of the substream indices ``idx``:
    the position in ``idx`` and time of each arrival, in no set order, and
    the count per index.

    As in `_run`, the gaps are summed from 0 in the order drawn and the
    gap that overshoots ``dt`` is consumed and thrown away.  The
    window's rows are added in place, one after the other, which gives the
    bits of ``np.cumsum(axis=0)`` without its walk down each column.
    Indices with ``width`` arrivals or more are redone with four times the
    gaps.
    """
    sums = gaps.window(idx, width)
    for r in range(1, width):
        sums[r] += sums[r - 1]
    inside = sums < dt
    count = inside.sum(axis=0)
    long = (count == width).nonzero()[0]
    if long.size:
        inside[:, long] = False
        count[long] = -1  # consumes nothing here
    where = inside.nonzero()[1]
    times = sums[inside]
    gaps.pos[idx] += count + 1
    if not long.size:
        return where, times, count
    w, t, count[long] = _arrivals(gaps, idx[long], dt[long], 4 * width)
    return np.concatenate([where, long[w]]), np.concatenate([times, t]), count


def _action_codes(cfg: ScenarioConfig, policy) -> np.ndarray:
    """The policy's actions over the cap box, flat over (served, n1, n2, l1),
    with the decisions that the simulator rejects replaced by error codes."""
    table = getattr(policy, "action_table", None)
    if table is None:
        raise TypeError("the simulator needs a policy with action_table(cfg)")
    codes = np.clip(table(cfg), _UNDEFINED, SWITCH + 1).astype(np.int8)
    codes[codes > SWITCH] = _UNKNOWN
    empty = _over_cap_box(cfg, lambda served, n1, n2, l1: (n2 if l1 else n1) == 0)
    codes[(codes == SERVE) & empty] = _EMPTY_SERVE
    return np.broadcast_to(codes, (2, *empty.shape[1:])).reshape(-1)


def _charge(total, cfg: ScenarioConfig, log):
    """Add the discounted costs of the logged steps to ``total``: each log
    entry holds `_costs`' arguments from ``k`` to ``cls`` for its steps, with
    the arrivals' steps numbered across the log."""
    if log:
        _costs(total, *(np.concatenate(part) for part in zip(*log)), cfg.c1, cfg.c2, cfg.beta)


def _lockstep(cfg: ScenarioConfig, codes: np.ndarray, x0, seeds, T: float) -> np.ndarray:
    """Discounted costs of every policy's rollouts from states ``x0`` on
    ``seeds``, all stepped together as arrays; row p holds policy p's.

    ``codes[p]`` is the code table of policy p (`_action_codes`).  A lane is
    one (policy, seed) pair: lane ``p * B + k`` runs policy p on seed k with
    its own slice of the stacked tables and its own read position in each
    substream of its seed.  Each substream is drawn once per seed into one
    row that every policy's lane of the seed reads (`_Blocks`).  Lane
    (p, k) equals ``_run`` of ``codes[p]`` from ``x0[:, k]`` with
    ``SeedStream(seeds[k])`` bit for bit: it reads the same actions, the
    same values of the same substreams, and charges its steps by the same
    routine, `_costs`.
    The dynamics advance one step of every live lane at a time; the costs
    of about ``_CHUNK`` logged rollout steps at a time are added afterwards
    in one pass (`_charge`), which bounds the log's memory whatever the
    number of lanes is.  The pre-drawn rows grow with ``T``.
    """
    P, B = codes.shape[0], len(seeds)
    L = P * B
    table = codes.reshape(-1)
    offset = np.repeat(np.arange(P) * codes.shape[1], B)
    lam = cfg.arrival_rates
    c1, c2 = cfg.c1, cfg.c2
    cap1, cap2 = 10 * cfg.X1, 10 * cfg.X2
    philox = np.random.Philox(key=0)
    durations = _Blocks(
        philox, cfg.serve_dists + cfg.switch_dists,
        [[(s << 6) + tag for s in seeds] for tag in TAG_SERVE + TAG_SWITCH],
        L, _DURATION_BLOCK,
    )
    classes = np.array([c for c in (0, 1) if lam[c] > 0], dtype=int)
    gaps = _Blocks(
        philox, [Exponential(lam[c]) for c in classes],
        [[(s << 6) + TAG_LAMBDA[c] for s in seeds] for c in classes],
        L, _GAP_BLOCK,
    )
    switch_costs = np.array(cfg.switch_costs)
    strides = np.array(_strides(cfg))

    def rollout_of(j):
        p, seed = divmod(int(k[j]), B)
        return f"in the rollout of policy {p} with seed {seeds[seed]}"

    total = np.zeros(L)
    k = np.arange(L)
    state = np.array([np.zeros(L, dtype=int), *np.tile(x0, P)])  # rows: served, n1, n2, l1
    t = np.zeros(L)
    log = []
    logged = 0
    while k.size:
        served, n1, n2, l1 = state
        a = table[strides @ state + offset[k]]
        if a.min() < 0:
            j = int(np.flatnonzero(a < 0)[0])
            where = f"({n1[j]},{n2[j]},{l1[j]}) {rollout_of(j)}"
            raise ValueError(_ERRORS[int(a[j])].format(where))
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
            first[classes] = gaps.take((classes[:, None] * L + k[rest]).reshape(-1)).reshape(
                len(classes), rest.size)
            dt[rest] = np.minimum(first[0], first[1])
            second = first[1] < first[0]  # class 0 wins a tie
            arrived[0, rest] = ~second
            arrived[1, rest] = second
        event, when, cls = np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int)
        if busy.size:
            stream = (a[busy] - SERVE) * 2 + l1[busy]  # serve at 0/1, then switch from 0/1
            dt[busy] = durations.take(stream * L + k[busy])
        if busy.size and classes.size:
            rows = (classes[:, None] * L + k[busy]).reshape(-1)
            where, when, count = _arrivals(gaps, rows, np.concatenate([dt[busy]] * len(classes)))
            arrived[classes[:, None], busy] = count.reshape(len(classes), busy.size)
            event = logged + busy[where % busy.size]
            cls = classes[where // busy.size]
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
                f"({n1[j]},{n2[j]}) vs caps ({cap1},{cap2}) {rollout_of(j)}; "
                "policy-induced instability"
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
    return total.reshape(P, B)


def sample_performance(cfg: ScenarioConfig, policies, initial_dist, seed0: int,
                       T: float, M: int) -> list:
    """M rollouts of each policy on consecutive seeds, one array per policy,
    in seed order.

    Every policy's rollouts run in lockstep as arrays over the policies'
    action tables (``policy.action_table(cfg)``), a block of seeds at a
    time with every policy of its seeds, about ``_LANES`` rollouts at most.
    Each substream of a seed is drawn once for all the policies
    (`_lockstep`); the draws held grow with ``T``.  Entry k of policy p's
    array equals ``rollout(cfg, policies[p], initial_dist, seed0 + k, T)``
    bit for bit, so the arrays are paired (`decouple` unpairs them); errors
    name the policy by its position p.
    """
    if M < 2:
        raise ValueError("need at least two rollouts (M >= 2)")
    _check_horizon(T)
    policies = list(policies)
    if not policies:
        raise ValueError("need at least one policy")
    codes = np.stack([_action_codes(cfg, pol) for pol in policies])
    seeds = [int(seed0) + k for k in range(M)]
    philox = np.random.Philox(key=0)
    gen = np.random.Generator(philox)
    u = np.empty(M)
    for k, seed in enumerate(seeds):
        philox.state = _philox_state(_philox_words((seed << 6) + TAG_INIT))
        u[k] = gen.random()
    x0 = np.array(_initial_states(cfg, _initial_cdf(cfg, initial_dist), u))
    blocks = np.array_split(np.arange(M), -(-M * len(policies) // _LANES))
    return list(np.concatenate(
        [_lockstep(cfg, codes, x0[:, b], seeds[b[0]:b[-1] + 1], T) for b in blocks], axis=1))


def decouple(etas, seed0: int) -> list:
    """`sample_performance`'s arrays, each in its own random order (policy p's
    from seed ``seed0 + 7919 (p + 1)``), unpaired for independent-sample tests."""
    return [eta[SeedStream(seed0 + 7919 * (p + 1)).generator(TAG_SHUFFLE).permutation(len(eta))]
            for p, eta in enumerate(etas)]


def _burn_in(trace: RolloutTrace, burn_in: Optional[int]) -> int:
    """The number of leading trace entries to discard: ``burn_in``, by
    default 10% of the trace.  It must be non-negative and leave at least
    one entry."""
    B = len(trace) // 10 if burn_in is None else int(burn_in)
    if B < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if len(trace) - B <= 0:
        raise ValueError("trace too short for the requested burn-in")
    return B


def embedded_stationary(trace: RolloutTrace, burn_in: Optional[int] = None):
    """Empirical stationary distribution of the embedded chain.

    Returns (frequency table keyed by (n1, n2, l1), visits at queue 1,
    visits at queue 2) after discarding the first ``burn_in`` entries
    (default: 10% of the trace).
    """
    B = _burn_in(trace, burn_in)
    n1 = trace.n1[B:]
    n2 = trace.n2[B:]
    l1 = trace.l1[B:]
    count = len(n1)
    # visits per flat (n1, n2, l1) index, whose order is the keys' sort order
    shape = (int(n1.max(initial=0)) + 1, int(n2.max(initial=0)) + 1, 2)
    counts = np.bincount(np.ravel_multi_index((n1, n2, l1), shape))
    flat = np.flatnonzero(counts)
    keys = zip(*(k.tolist() for k in np.unravel_index(flat, shape)))
    freq = dict(zip(keys, counts[flat] / count))
    visits_q1 = int(np.sum(l1 == 0))
    visits_q2 = int(np.sum(l1 == 1))
    return freq, visits_q1, visits_q2


def action_time_fractions(trace: RolloutTrace, burn_in: Optional[int] = None):
    """Time-weighted fraction spent in each server activity.

    Returns (fractions dict action -> share of time, total time, per-queue
    duration tables T1 and T2 keyed by action).
    """
    B = _burn_in(trace, burn_in)
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


def limit_cycle_cells(cycle) -> set:
    """The (n1, n2) cells of the integerised cycle: each cycle segment is
    sampled on 100 points and every floor/ceil combination of a sampled
    point counts as part of the cycle."""
    cells = set()
    corners = list(cycle.coordinates)
    if cycle.kind is CycleKind.PURE_BOW_TIE:
        # a pure bow-tie is drawn without its switch-arrival corner: the
        # crossing diagonals run straight between the exhaustion points
        corners = [cycle.c1, cycle.c2, cycle.c4, cycle.c5]
    segments = list(zip(corners, corners[1:] + corners[:1]))
    for (x1a, x2a), (x1b, x2b) in segments:
        for w in np.linspace(0.0, 1.0, 100):
            x1 = (1.0 - w) * x1a + w * x1b
            x2 = (1.0 - w) * x2a + w * x2b
            for f1 in (math.floor(x1), math.ceil(x1)):
                for f2 in (math.floor(x2), math.ceil(x2)):
                    cells.add((int(f1), int(f2)))
    return cells


def cells_occupancy(freq_table: dict, cells: set) -> float:
    """Share of embedded visits whose queue pair is one of ``cells``; the
    queue-marginal frequency sums over both server locations."""
    marginal = {}
    for (n1, n2, _), f in freq_table.items():
        marginal[(n1, n2)] = marginal.get((n1, n2), 0.0) + f
    return float(sum(marginal.get(cell, 0.0) for cell in cells))


def limit_cycle_occupancy(freq_table: dict, cycle) -> float:
    """Share of embedded visits whose queue pair lies on the integerised
    cycle (`limit_cycle_cells`), summed over both server locations."""
    return cells_occupancy(freq_table, limit_cycle_cells(cycle))


def work_fraction(trace: RolloutTrace, cfg: ScenarioConfig,
                  burn_in: Optional[int] = None) -> float:
    """Serve-share-weighted mean service time, the reported work measure.

    Sums phi~(serve | at queue i) * mean(serve_i) over the two queues, where
    phi~ are embedded-chain action shares.  Unlike the raw serving time
    fraction, which equals the utilisation rho for every stable policy, this
    measure exceeds rho and reflects how decisively a policy serves.
    """
    B = _burn_in(trace, burn_in)
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
