"""Semi-Markov simulation with common random numbers.

Each rollout reads its policy's action at the embedded-chain epochs, draws the
committed event's duration from its own deterministic substream, superposes
the Poisson arrivals inside the interval, and accumulates locally discounted
step costs.  Running two policies with the same base seed reuses identical
event samples, which is what makes paired performance comparisons fair.

`rollout` and `simulate_trace` step one rollout at a time;
`sample_performance` steps the rollouts of all its policies together as
arrays and gives the same values bit for bit.  Both step by one rule: a
step first reads each class's next gap, its first arrival time; an idle step
ends at the earlier one (class 0's on a tie, none when both are +inf), and a
busy step lasts its drawn duration and adds each class's later gaps to its
first until they overshoot it.  Each rule the two paths share has one home:
`SeedStream` keys the substreams and makes their generators (Philox on a
fixed-key `_philox_key` sequence, which draws no OS entropy),
`_durations` and `_gaps` list the duration and inter-arrival ones (a
class without arrivals draws endless gaps), `_caps` bounds the box over
which a policy is one flat code table (`_action_codes`), and `_costs`
charges the logged steps, with every exponential one ``np.exp`` over the
log and the arrivals put in time order by one single-key sort.  Both draw
each substream in blocks, which Philox returns exactly as the same number
of single draws, and log the arrivals flat, one (step, class, time) entry
each, in no set order within a step; a trace's per-step ``arrivals`` are
built from that log when first read.
"""

from __future__ import annotations

import functools
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
    """A queue exceeded the simulator cap: the policy may be unstable, or the
    cap box, ten times the model bounds, too small for it."""


@functools.cache
def _philox_key():
    """The seed sequence that hands Philox one fixed 128-bit key.

    ``Philox(key=k)`` first seeds itself from OS entropy and then overrides
    the key; Philox built on this sequence derives the same key and state
    from ``generate_state(2, np.uint64)``, the key's low and high words,
    without that pull.  Any other request raises, so that a numpy that
    derives its key otherwise fails instead of changing the streams.  The
    class is made on first use: ``numpy.random`` loads lazily, and
    importing the package does not import it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: int):
            self.words = (key & ((1 << 64) - 1), key >> 64)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a Philox key is two uint64 words, not {n_words} {np.dtype(dtype)}")
            return np.array(self.words, dtype=np.uint64)

    return PhiloxKey


class SeedStream:
    """Deterministic per-event-type substreams derived from one base seed.

    Every event type owns an independent counter-based (Philox) stream keyed
    by (base seed, event tag), so equal seeds reproduce identical event
    samples across policies and platforms.  Only this class derives a key,
    ``(seed << 6) + tag``, below Philox's 2**128 for seeds in [0, 2**122),
    and only `generator` makes a generator: one per tag, kept, so that each
    read of a substream, scalar or batch, goes on from the last.  Its
    stream is ``Philox(key=(seed << 6) + tag)``'s bit for bit, built from
    a `_philox_key` sequence without drawing OS entropy.
    """

    SEED_LIMIT = 1 << 122

    def __init__(self, base_seed: int):
        self.base_seed = int(base_seed)
        if not 0 <= self.base_seed < self.SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**122), got {self.base_seed}")
        self._key0 = self.base_seed << 6  # tag's key: _key0 + tag
        self._gens = {}

    def generator(self, tag: int) -> np.random.Generator:
        if tag not in self._gens:
            key = _philox_key()(self._key0 + tag)
            self._gens[tag] = np.random.Generator(np.random.Philox(key))
        return self._gens[tag]


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


def _caps(cfg: ScenarioConfig) -> tuple:
    """The queue caps of the simulator's box, 10 X1 and 10 X2."""
    return 10 * cfg.X1, 10 * cfg.X2


def _overflow(cfg: ScenarioConfig, t: float, n1: int, n2: int, rollout: str = ""):
    """The QueueOverflowError of a rollout that reached (n1, n2) past the
    cap box at time t; ``rollout`` names the rollout of a batch."""
    return QueueOverflowError(
        f"queue exceeded simulator cap at t={t:.2f}: ({n1},{n2}) vs caps "
        f"(10*X1, 10*X2) = {_caps(cfg)}{rollout}; the policy may be unstable "
        f"or the box X1={cfg.X1}, X2={cfg.X2} too small")


def _over_cap_box(cfg: ScenarioConfig, rule) -> np.ndarray:
    """``rule(served, n1, n2, l1)`` over the simulator's cap box, broadcastable
    to (served, n1, n2, l1).

    The rule sees broadcastable (served, n1, n2) coordinates at l1 = 0 and
    at l1 = 1, and the two results are stacked last: numpy broadcasts over
    a long last axis several times faster than over one of length 2.
    """
    cap1, cap2 = _caps(cfg)
    served, n1, n2 = np.ogrid[0:2, 0:cap1 + 1, 0:cap2 + 1]
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
    cap1, cap2 = _caps(cfg)
    return ((cap1 + 1) * (cap2 + 1) * 2, (cap2 + 1) * 2, 2, 1)


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


def _costs(cfg, total, k, t, dt, n1, n2, l1, action, event, when, cls) -> np.ndarray:
    """The locally discounted cost of each logged step, whose cost
    discounted to time 0 is added to its rollout's ``total``.

    Per step: rollout ``k``, start ``t``, length ``dt``, entry state
    (n1, n2, l1) and ``action``; per arrival: its step ``event`` (numbered
    across the log), time ``when`` in [0, dt] and class ``cls``.  With
    ``cfg``'s constants a step costs ``(c1 n1 + c2 n2)/beta (1 - e^(-beta dt))``,
    plus ``c/beta (e^(-beta t_a) - e^(-beta dt))`` per arrival in time
    order, class 0 first on a tie, plus a switch's cost at the queue it
    leaves.  ``np.add.at`` sums each rollout's steps in order, and every
    exponential is one elementwise ``np.exp`` over the log, so every caller
    gets the same bits.  The log may come in any order: one ``np.argsort``
    orders it by a single key, the time's bits then the class bit, which
    for times >= 0 is the order of ``np.lexsort((cls, when))``.  Entries
    that tie on that key are one class at one time: in one step they add
    the same value, in different steps they add to different sums, so
    however the sort orders them the bits do not change.
    """
    c1, c2, beta = cfg.c1, cfg.c2, cfg.beta
    edt = np.exp(-beta * dt)
    step = ((c1 * n1 + c2 * n2) / beta) * (1.0 - edt)
    weight = np.array([c1 / beta, c2 / beta])[cls]
    # a double >= 0 orders as its bits; the shift drops -0.0's sign bit
    order = np.argsort((when.view(np.uint64) << 1) | cls.astype(np.uint64))
    np.add.at(step, event[order], (weight * (np.exp(-beta * when) - edt[event]))[order])
    step += np.where(action == SWITCH, np.array(cfg.switch_costs)[l1], 0.0)
    np.add.at(total, k, np.exp(-beta * t) * step)
    return step


def _durations(cfg: ScenarioConfig):
    """Tags and distributions of the duration substreams, action ``a``'s at
    queue ``l1`` at index ``(a - SERVE) * 2 + l1``."""
    return TAG_SERVE + TAG_SWITCH, cfg.serve_dists + cfg.switch_dists


class _Endless:
    """The gaps of a class without arrivals: every one +inf."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, math.inf)


def _gaps(cfg: ScenarioConfig):
    """Tags and distributions of the inter-arrival substreams, class ``c``'s
    at index ``c``; a class without arrivals draws endless gaps."""
    return TAG_LAMBDA, [Exponential(lam) if lam > 0 else _Endless() for lam in cfg.arrival_rates]


def _draws(dist, gen: np.random.Generator, block: int):
    """The values of ``dist`` drawn from ``gen`` in order, one at a time;
    drawn ``block`` at a time, which gives Philox's single draws exactly."""
    while True:
        yield from dist.sample(gen, block).tolist()


def _run(cfg: ScenarioConfig, codes: np.ndarray, x0, seeds: SeedStream, T: float):
    """Step one rollout of the policy with code table ``codes``
    (`_action_codes`) from ``x0`` until time ``T``.

    This is one lane of `_lockstep`: the served flag starts at 0 and becomes
    ``a == SERVE`` at queue 2, the action is ``codes[served s0 + n1 s1 + n2
    s2 + l1]`` with the strides of `_strides`, and an error code raises its
    `_ERRORS` message.  Each substream of ``seeds`` is read through a
    `_draws` iterator, in `_durations`' and `_gaps`' order, by the
    module's step rule.  Without arrivals both first gaps are +inf, so an
    idle step lasts for ever and ends the rollout, charged as `_costs`
    charges it.  A busy step consumes the sum that overshoots its length
    and appends every arrival to one flat log (step, class, time), class
    0's first.  The loop records each step's entry state, action, start
    and length; `_costs` charges them once at the end.  Returns the
    discounted cost and the `RolloutTrace`.
    """
    cap1, cap2 = _caps(cfg)
    s0, s1, s2, _ = _strides(cfg)
    gap1, gap2 = [_draws(dist, seeds.generator(tag), _GAP_BLOCK) for tag, dist in zip(*_gaps(cfg))]
    durations = [_draws(dist, seeds.generator(tag), _DURATION_BLOCK)
                 for tag, dist in zip(*_durations(cfg))]

    n1, n2, l1 = x0
    t = 0.0
    served = False
    rec_n1, rec_n2, rec_l1, rec_a, rec_dt, rec_t = [], [], [], [], [], []
    arr_step, arr_cls, arr_when = [], [], []

    while t < T:
        a = codes.item(served * s0 + n1 * s1 + n2 * s2 + l1)
        t1, t2 = next(gap1), next(gap2)  # each class's first arrival time
        if a == IDLE:
            dt = min(t1, t2)
            if dt == math.inf:
                nxt = (n1, n2, l1)  # no arrival ends it
            else:
                nxt = (n1 + 1, n2, l1) if t1 <= t2 else (n1, n2 + 1, l1)
        else:
            if a < 0:
                raise ValueError(_ERRORS[a].format(f"({n1},{n2},{l1})"))
            dt = next(durations[(a - SERVE) * 2 + l1])
            k = len(rec_t)
            a1 = 0
            ta = t1
            while ta < dt:
                arr_step.append(k)
                arr_cls.append(0)
                arr_when.append(ta)
                a1 += 1
                ta += next(gap1)
            a2 = 0
            ta = t2
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
            raise _overflow(cfg, t, n1, n2)
        t += dt

    n1, n2, l1, action = (np.array(v, dtype=np.int32) for v in (rec_n1, rec_n2, rec_l1, rec_a))
    dt, t = np.array(rec_dt, dtype=float), np.array(rec_t, dtype=float)
    step, cls = np.array(arr_step, dtype=int), np.array(arr_cls, dtype=int)
    when = np.array(arr_when, dtype=float)
    total = np.zeros(1)
    cost = _costs(cfg, total, np.zeros(len(t), dtype=int), t, dt, n1, n2, l1, action,
                  step, when, cls)
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
    return _run(cfg, _action_codes(cfg, policy), x0, seeds, T)[0]


def simulate_trace(cfg: ScenarioConfig, policy, T: float, seed: int = 0,
                   x0=(0, 0, 0)) -> RolloutTrace:
    """Record a full embedded-chain trajectory from a fixed initial state.

    ``x0`` holds integers (n1, n2, l1) within the simulator's cap box
    [0, 10 X1] x [0, 10 X2] x {0, 1}.
    """
    _check_horizon(T)
    x0 = tuple(x0)
    caps = (*_caps(cfg), 1)
    if len(x0) != 3 or not all(isinstance(v, (int, np.integer)) and 0 <= v <= cap
                               for v, cap in zip(x0, caps)):
        raise ValueError(f"initial state {x0} is not integers (n1, n2, l1) in "
                         f"[0, {caps[0]}] x [0, {caps[1]}] x {{0, 1}}")
    codes = _action_codes(cfg, policy)
    return _run(cfg, codes, tuple(int(v) for v in x0), SeedStream(seed), T)[1]


# Lockstep batch of rollouts.  Every seed keeps its own `SeedStream`; each
# substream's values are read by the policies' rollouts of that seed from one
# pre-drawn row, so a batch reproduces the scalar rollouts bit for bit.
_WINDOW = 4  # arrival gaps first examined per interval
_CHUNK = 1 << 12  # rollout steps whose costs are added in one pass
_LANES = 1 << 12  # about the most (policy, seed) rollouts stepped together


class _Blocks:
    """Pre-drawn values of a set of substreams, one row per (substream, seed).

    Substream ``s`` draws ``dists[s]`` on tag ``tags[s]`` of each seed's
    `SeedStream` in ``streams``.  Of ``L`` lanes on ``B`` seeds, lane ``j``
    runs on seed ``j % B``, and index ``s * L + j`` names substream ``s`` of
    lane ``j``.  Its next value is ``buf[s * B + j % B, pos[s * L + j]]``:
    the policy lanes of a seed read one row, each at its own position.  A
    row starts empty and only grows: a read past its end draws as many
    values again as it holds (at least ``block``) from its stream's
    `SeedStream.generator`, and the buffer widens to any row that outgrows
    it.  The memory is O(rows x the longest row).  Each step reads a lane's
    duration and a window of its gaps, whose first row holds its classes'
    first arrival times, and moves ``pos`` past what it used.
    """

    def __init__(self, streams, tags, dists, lanes: int, block: int):
        self.gens = [stream.generator(tag) for tag in tags for stream in streams]
        self.dists = dists
        self.seeds = len(streams)
        self.block = block
        self.buf = np.empty((len(self.gens), block))
        self.size = np.zeros(len(self.gens), dtype=np.intp)
        self.pos = np.zeros(len(dists) * lanes, dtype=np.intp)
        idx = np.arange(len(dists) * lanes)
        self.row = idx // lanes * self.seeds + idx % self.seeds  # index -> its row

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
            self.buf[row, lo:hi] = self.dists[row // self.seeds].sample(self.gens[row], hi - lo)
            self.size[row] = hi


def _arrivals(gaps: _Blocks, idx: np.ndarray, dt: np.ndarray, sums: np.ndarray):
    """Arrivals in each interval [0, dt) of the substream indices ``idx``,
    given the window ``sums`` of their next gaps: the position in ``idx``
    and time of each arrival, in no set order, and the count per index.

    As in `_run`, the gaps are summed from the first arrival time in the
    order drawn and the sum that overshoots ``dt`` is consumed; an idle
    step's ``dt``, its earlier first gap, consumes one gap per class and
    counts none.  The window's rows after the first are summed in place,
    one after the other, which gives the bits of ``np.cumsum(axis=0)``
    without its walk down each column.  Indices with ``width`` arrivals or
    more are redone with four times the gaps.
    """
    width = len(sums)
    for r in range(1, width):
        sums[r] += sums[r - 1]
    inside = sums < dt
    count = inside.sum(axis=0)
    long = (count == width).nonzero()[0]
    if long.size:
        inside[:, long] = False
        count[long] = -1  # consumes nothing here
    flat = np.flatnonzero(inside)  # row-major, as inside.nonzero()
    where = flat % inside.shape[1]
    times = sums.reshape(-1)[flat]
    gaps.pos[idx] += count + 1
    if not long.size:
        return where, times, count
    w, t, count[long] = _arrivals(gaps, idx[long], dt[long], gaps.window(idx[long], 4 * width))
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
        _costs(cfg, total, *(np.concatenate(part) for part in zip(*log)))


def _lockstep(cfg: ScenarioConfig, codes: np.ndarray, x0, streams, T: float) -> np.ndarray:
    """Discounted costs of every policy's rollouts from states ``x0`` on
    ``streams``, all stepped together as arrays; row p holds policy p's.

    ``codes[p]`` is the code table of policy p (`_action_codes`).  A lane is
    one (policy, seed) pair: lane ``p * B + k`` runs policy p on seed k with
    its own slice of the stacked tables and its own read position in each
    substream of its seed, drawn once per seed into one row that every
    policy's lane of the seed reads (`_Blocks`).  Lane (p, k) equals
    ``_run`` of ``codes[p]`` from ``x0[:, k]`` with ``streams[k]``
    bit for bit: the same actions, draws, step rule and cost routine, idle
    and busy lanes going through one `_arrivals` call.  Each step of
    every live lane logs a copy of its (n1, n2, l1) rows and actions, and
    `_charge` charges about ``_CHUNK`` logged steps at a time in one pass,
    which bounds the log's memory whatever the number of lanes is.
    """
    P, B = codes.shape[0], len(streams)
    L = P * B
    table = codes.reshape(-1)
    offset = np.repeat(np.arange(P) * codes.shape[1], B)
    cap1, cap2 = _caps(cfg)
    durations = _Blocks(streams, *_durations(cfg), L, _DURATION_BLOCK)
    gaps = _Blocks(streams, *_gaps(cfg), L, _GAP_BLOCK)
    strides = np.array(_strides(cfg))

    def rollout_of(j):
        p, seed = divmod(int(k[j]), B)
        return f"in the rollout of policy {p} with seed {streams[seed].base_seed}"

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
        busy = (~idle).nonzero()[0]
        m = k.size

        rows = np.concatenate([k, k + L])  # class c of lane j at c * L + j
        window = gaps.window(rows, _WINDOW)
        first = window[0].reshape(2, m)  # each class's first arrival time
        dt = np.minimum(first[0], first[1])  # an idle step's length
        drawn = ((a[busy] - SERVE) * 2 + l1[busy]) * L + k[busy]  # serve at 0/1, switch from 0/1
        dt[busy] = durations.window(drawn, 1)[0]
        durations.pos[drawn] += 1
        where, when, count = _arrivals(gaps, rows, np.concatenate([dt, dt]), window)
        arrived = count.reshape(2, m)  # an idle lane's are 0: no first gap is below dt
        arrived[0] += idle & (first[0] <= first[1]) & (dt < np.inf)  # class 0 wins a tie
        arrived[1] += idle & (first[1] < first[0])
        event = logged + where % m
        cls = where // m
        log.append((k, t, dt, *state[1:].copy(), a, event, when, cls))
        logged += m

        serve = a == SERVE
        state[1:3] += arrived
        at = serve.nonzero()[0]
        state[1 + l1[at], at] -= 1  # the job served leaves
        state[0] = np.where(l1 == 1, serve, served)
        l1 ^= a == SWITCH
        if n1.max() > cap1 or n2.max() > cap2:
            j = int(np.flatnonzero((n1 > cap1) | (n2 > cap2))[0])
            raise _overflow(cfg, t[j], n1[j], n2[j], f" {rollout_of(j)}")
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
    Each seed's `SeedStream` gives its initial state, as in `rollout`, and
    each of its substreams is drawn once for all the policies
    (`_lockstep`); the draws held grow with ``T``.
    Entry k of policy p's array equals ``rollout(cfg, policies[p],
    initial_dist, seed0 + k, T)`` bit for bit, so the arrays are paired
    (`decouple` unpairs them); errors name the policy by its position p.
    """
    if M < 2:
        raise ValueError("need at least two rollouts (M >= 2)")
    _check_horizon(T)
    policies = list(policies)
    if not policies:
        raise ValueError("need at least one policy")
    codes = np.stack([_action_codes(cfg, pol) for pol in policies])
    cdf = _initial_cdf(cfg, initial_dist)

    def block(ks):
        streams = [SeedStream(int(seed0) + k) for k in ks.tolist()]
        u = [stream.generator(TAG_INIT).random() for stream in streams]
        return _lockstep(cfg, codes, np.array(_initial_states(cfg, cdf, u)), streams, T)

    blocks = np.array_split(np.arange(M), -(-M * len(policies) // _LANES))
    return list(np.concatenate([block(ks) for ks in blocks], axis=1))


_SHUFFLE_STRIDE = 7919  # seed offset between the policies' orders in `decouple`


def decouple(etas, seed0: int) -> list:
    """`sample_performance`'s arrays, each in its own random order (policy p's
    from seed ``seed0 + 7919 (p + 1)``), unpaired for independent-sample tests."""
    return [eta[SeedStream(seed0 + _SHUFFLE_STRIDE * p).generator(TAG_SHUFFLE).permutation(len(eta))]
            for p, eta in enumerate(etas, 1)]


def largest_seed(M: int, policies: int) -> int:
    """The largest ``seed0`` whose M samples' seeds and `decouple`'s seeds
    for ``policies`` policies all lie in `SeedStream`'s range."""
    return SeedStream.SEED_LIMIT - 1 - max(M - 1, _SHUFFLE_STRIDE * policies)


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
    if not 0 < total < math.inf:  # inf: an idle step without arrivals lasts for ever
        raise ValueError(f"trace's elapsed time after burn-in is {total}, not finite and positive")
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
