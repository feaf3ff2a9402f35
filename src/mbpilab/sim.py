"""Exact event-driven simulation of the branching process with immigration.

The population is a continuous-time Markov chain on the nonnegative
integers.  In state X the total event rate is X*a + b with a = -a_1 and
b = -b_0; a branching event (probability X*a / (X*a + b)) replaces one
individual by j drawn with probability a_j / a over j != 1, an immigration
event adds j drawn with probability b_j / b over j >= 1.  The simulated law
is exactly the truncated, re-balanced law carried by the model, so kernel
cross-checks against the same truncated law are free of truncation bias.

Randomness: counter-based Philox streams, so that replicates are
independent and bit-reproducible in any order.  An event draws one
exponential and two uniforms: one for its type, one for its alias pick,
which takes the column and the accept test from the same uniform.
Replicates 256b .. 256b+255 form block b.  Its stream, keyed (seed, b) with
the counter at (0, 0, 0, 1), gives a (256, 16) exponential draw and then a
(256, 16, 2) uniform draw: row r mod 256 holds the first 16 events of
replicate r.  A path that goes past them continues on its own stream, keyed
(seed, r) with the counter at 0, in chunks of 128 exponentials and then
128 x 2 uniforms.  The two kinds of stream never overlap, as they start
2**192 counter steps apart.  Since a Philox stream is a pure function of its
key and counter, a generator whose state is reset reproduces any stream
exactly, without building a generator per replicate.  ``RNG_SCHEME`` states
this layout in one line.

``simulate_path`` runs the scalar event loop on the chunks of any
generator.  ``estimate_pmf`` runs the streams above in two phases, both
with the scalar loop's floating-point operations, so that both give every
replicate the same path.  The block phase takes a group of blocks through
their first 16 draws, one numpy pass per draw position over every
replicate of the group; most paths end there.  The paths that need a 17th
draw go on in numpy lanes, each on its own stream: one step takes every
lane through up to 64 events, guessed to be branching events and accepted
up to the first that is not.  Its memory does not grow with the replicate
count.  The result is arrays (the pmf and its standard errors), and
``zscore_table`` gives the rows that compare them with kernel probabilities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import telemetry
from .errors import ModelError
from .laws import ModelSpec

# Chunk sizes and block layout fix every stream: changing one changes the
# simulated paths.
_CHUNK = 128  # events per refill from a replicate's own stream
_BLOCK = 256  # replicates whose first chunks come from one bulk draw
_FIRST = 16  # events in a replicate's first chunk, drawn with its block
_UNIFORMS = 2  # uniforms per event: its type, then its alias pick
_LANES = 256  # replicates advanced together by one numpy step
_GROUP = 4  # blocks the block phase runs at a time
_WINDOW = 64  # draws of its chunk one numpy step may take a lane through
_ZERO_WORDS = (0, 0, 0, 0)
_BLOCK_COUNTER = (0, 0, 0, 1)  # 2**192 steps past any replicate stream
RNG_SCHEME = ("philox: events 1-16 from key=(seed, replicate // 256)"
              " counter=2**192 row replicate % 256, then "
              "key=(seed, replicate) in 128-event chunks; an event draws"
              " an exponential, then uniforms for its type and its alias pick")


class AliasTable:
    """Vose alias sampler over a nonnegative weight vector.

    One uniform u makes a pick: v = u * n gives the column i = floor(v)
    (at most n - 1) and the accept test v - i < prob[i], which takes i,
    else alias[i]."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ModelError("alias table needs a 1-d weight vector")
        if np.any(w < 0) or not np.any(w > 0):
            raise ModelError("alias weights must be nonnegative with positive total")
        n = w.size
        # Vose's loop on Python lists: indexing a list of floats is several
        # times cheaper than indexing a numpy array, with the same IEEE
        # operations.  The scalar event loop reads the lists too.
        p = (w * (n / w.sum())).tolist()
        prob, alias = [0.0] * n, [0] * n
        small = [i for i in range(n) if p[i] < 1.0]
        large = [i for i in range(n) if p[i] >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            prob[lo] = p[lo]
            alias[lo] = hi
            p[hi] = (p[hi] + p[lo]) - 1.0
            (small if p[hi] < 1.0 else large).append(hi)
        for rest in (small, large):
            while rest:
                i = rest.pop()
                prob[i] = 1.0
                alias[i] = i
        self.n = n
        self.prob = np.array(prob)
        self.alias = np.array(alias, dtype=np.int64)
        self._prob, self._alias = prob, alias

    def pick_many(self, u):
        v = np.multiply(u, self.n)
        i = v.astype(np.int64)
        np.minimum(i, self.n - 1, out=i)
        v -= i  # the accept fraction v - i, in place
        accept = v < self.prob.take(i)
        pick = self.alias.take(i)
        np.copyto(pick, i, where=accept)
        return pick


@dataclass(frozen=True)
class SimConfig:
    model: ModelSpec
    horizon: float
    replicates: int
    seed: int
    initial: int = 0
    state_cap: int = 10 ** 6

    def __post_init__(self):
        if self.replicates < 1:
            raise ModelError("need at least one replicate")
        if self.initial < 0:
            raise ModelError("initial state must be nonnegative")
        if self.state_cap < self.initial + 1:
            raise ModelError("state cap must exceed the initial state")
        if not self.horizon >= 0:
            raise ModelError("horizon must be nonnegative")

    def digest(self) -> str:
        law_o, law_i = self.model.offspring, self.model.immigration
        text = "|".join([
            f"off:{law_o.coefficients.tobytes().hex()}",
            f"imm:{law_i.coefficients.tobytes().hex()}",
            f"i0:{self.initial}", f"t:{self.horizon!r}",
            f"n:{self.replicates}", f"seed:{self.seed}",
            f"cap:{self.state_cap}",
        ])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PathResult:
    state: int
    capped: bool
    events: int
    time: float
    log: Optional[list] = None


def _samplers(model: ModelSpec):
    a_coef = model.offspring.coefficients
    b_coef = model.immigration.coefficients
    a_rate = float(-a_coef[1])
    b_rate = float(-b_coef[0])
    off_w = a_coef.copy()
    off_w[1] = 0.0
    imm_w = b_coef.copy()
    imm_w[0] = 0.0
    return a_rate, b_rate, AliasTable(off_w), AliasTable(imm_w)


def simulate_path(model: ModelSpec, initial: int, horizon: float,
                  rng: np.random.Generator, state_cap: int = 10 ** 6,
                  collect_events: bool = False,
                  _samplers_cache=None) -> PathResult:
    """Simulate one trajectory to the horizon (or to the state cap) by the
    scalar event loop: advance from ``initial`` at time 0 until the next
    event would pass the horizon or the state reaches the cap.

    Draws come from ``rng`` in chunks of whatever size it returns for a
    request of ``_CHUNK``, as Python floats: Python floats and ints carry
    the same IEEE operations as numpy scalars at a fraction of the cost per
    event.
    """
    log = [] if collect_events else None
    a_rate, b_rate, off, imm = _samplers_cache or _samplers(model)
    n_off, off_prob, off_alias = off.n, off._prob, off._alias
    n_imm, imm_prob, imm_alias = imm.n, imm._prob, imm._alias
    x, t, events, ptr, end = int(initial), 0.0, 0, 0, 0
    capped = x >= state_cap
    while not capped:
        if ptr == end:  # refill at the end of whatever chunk rng gave
            exps = rng.standard_exponential(_CHUNK).tolist()
            unis = rng.random((_CHUNK, _UNIFORMS)).tolist()
            ptr, end = 0, len(exps)
        branch_rate = x * a_rate
        rate = branch_rate + b_rate
        try:
            t_next = t + exps[ptr] / rate
        except ZeroDivisionError:
            break  # a zero total rate: the next event lies past any horizon
        if t_next > horizon:
            break
        t = t_next
        u_type, u_pick = unis[ptr]
        ptr += 1
        events += 1
        # The alias-table pick, inlined: a method call would cost about a
        # fifth of the loop's time per event.
        if u_type * rate < branch_rate:
            v = u_pick * n_off
            i = int(v)
            if i >= n_off:
                i = n_off - 1
            jump = (i if v - i < off_prob[i] else off_alias[i]) - 1
        else:
            v = u_pick * n_imm
            i = int(v)
            if i >= n_imm:
                i = n_imm - 1
            jump = i if v - i < imm_prob[i] else imm_alias[i]
        x += jump
        if log is not None:
            log.append((t, jump, x))
        capped = x >= state_cap
    return PathResult(state=x, capped=capped, events=events,
                      time=min(t, horizon), log=log)


@dataclass
class SimResult:
    """Replicate-averaged empirical pmf with binomial standard errors.

    Capped replicates are excluded from the per-state estimates and reported
    through ``capped_fraction``; the pmf plus the capped fraction sums to 1.
    The run is named by its :class:`SimConfig` (``digest()``) and the stream
    layout by ``RNG_SCHEME``, which the caller holds.
    """

    pmf: np.ndarray
    se: np.ndarray
    n: int
    capped_count: int

    @property
    def capped_fraction(self) -> float:
        return self.capped_count / self.n


def _rekey(bit_generator, seed_word: int, index: int,
           counter=_ZERO_WORDS) -> None:
    """Put a Philox bit generator at ``counter`` on the stream keyed
    (seed, index).  Python ints set the state at a third of the cost of
    numpy arrays, with the same draws."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": (seed_word, index)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _quantile(histogram: np.ndarray, q: float) -> int:
    """Nearest-rank q-quantile of the values counted in ``histogram``
    (``histogram[v]`` paths took v events)."""
    cum = np.cumsum(histogram)
    return int(np.searchsorted(cum, q * cum[-1]))


def _tally(histogram: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``histogram`` plus the bincount of ``values``, grown as needed."""
    more = np.bincount(values)
    if more.size > histogram.size:
        histogram, more = more, histogram
    histogram[:more.size] += more
    return histogram


def _step(x, t, ptr, row, exps_flat, unis_rows, samplers, horizon, cap):
    """One numpy step of the lanes (see ``estimate_pmf``): take each lane,
    at state ``x`` and time ``t``, through up to ``_WINDOW`` of the draws
    left in its chunk, from draw ``ptr`` of the slot rows that start at
    ``row``.  Returns the lanes' states and times, the draws each took and
    whether its path ended before an event past the horizon or at a zero
    rate.  The (lanes, window) temporaries die on return, before any ended
    lane takes a new path and maybe runs the block phase."""
    a_rate, b_rate, off, imm = samplers
    lane = np.arange(x.size)
    window = np.arange(_WINDOW)
    room = _CHUNK - ptr  # draws left in each lane's chunk
    at = np.minimum(ptr[:, None] + window, _CHUNK - 1)
    at += row[:, None]
    u = unis_rows.take(at, axis=0)
    # xs[:, k] is the state before event k if events 0..k-1 branch
    xs = np.concatenate((x[:, None], off.pick_many(u[..., 1]) - 1),
                        axis=1).cumsum(axis=1)
    branch_rate = xs[:, :-1] * a_rate
    rate = branch_rate + b_rate
    u_type = u[..., 0]
    u_type *= rate  # u_type * rate, in place
    branch = u_type < branch_rate
    # each array is freed once read: a step's peak memory grows with the
    # number of (lanes, window) arrays alive at once
    del u, u_type, branch_rate
    # ts[:, k + 1] is the time of event k; cumsum adds left to right
    ts = np.concatenate((t[:, None], exps_flat.take(at) / rate),
                        axis=1).cumsum(axis=1)
    del at
    stop = (ts[:, 1:] > horizon) | (rate == 0.0) | (window >= room[:, None])
    end = stop | ~branch | (xs[:, 1:] >= cap)
    first = np.where(end.any(axis=1), end.argmax(axis=1), _WINDOW)
    hit = first < _WINDOW
    at_first = np.minimum(first, _WINDOW - 1)
    halt = hit & stop[lane, at_first]
    taken = first + (hit & ~halt)
    x = xs[lane, taken]
    arrive = (hit & ~halt & ~branch[lane, at_first]).nonzero()[0]
    if arrive.size:
        x[arrive] = xs[arrive, first[arrive]] + imm.pick_many(
            unis_rows[row[arrive] + ptr[arrive] + first[arrive], 1])
    return x, ts[lane, taken], taken, halt & (first < room)


def estimate_pmf(config: SimConfig) -> SimResult:
    """Empirical transition pmf from the configured initial state, in two
    exact phases.

    A chunk of C events is ``standard_exponential(C)`` and then
    ``random((C, 2))``: a block draws the (256, 16) first chunks of its
    replicates at once, and a lane draws C = ``_CHUNK`` = 128 at a time.

    The block phase takes ``_GROUP`` blocks at a time.  It draws each
    block's first chunks in one bulk draw, makes every draw's offspring and
    immigration alias picks once, and runs every replicate of the group
    through draws 0 .. ``_FIRST - 1`` in one numpy pass per draw position,
    with the scalar loop's IEEE operations.  The paths that end there are
    tallied at once.  Those that need one more draw wait for a lane.

    Up to ``_LANES`` of them advance together in lane slots.  A path that
    enters a slot re-keys the slot's Philox generator to its replicate's
    own stream, which draws each chunk straight into the slot's rows.  One
    numpy step takes every live lane through up to ``_WINDOW`` of its
    chunk's draws: it guesses that every event branches, takes the states
    as ``x`` plus a running sum of the branching jumps and the times as a
    left-to-right running sum from ``t``, recomputes each decision on those
    states, and accepts the events up to the first immigration, stopping
    before an event past the horizon or at a zero rate and after one that
    reaches the cap.  Each accepted event makes the scalar loop's IEEE
    operations on the same draws.  Ended lanes are tallied by ``bincount``
    and take the next waiting path, running the block phase on the next
    group when none waits.  Memory is O(lanes * chunk + group * block *
    first chunk + lanes * window + largest state + longest path): at the
    defaults the fixed buffers take about 1.3 MB, 0.79 MB of it the lanes'
    chunks.
    """
    samplers = a_rate, b_rate, off, imm = _samplers(config.model)
    n, horizon, cap, x0 = (config.replicates, config.horizon,
                           config.state_cap, config.initial)
    seed_word = config.seed & 0xFFFFFFFFFFFFFFFF
    width = min(_LANES, n)
    n_blocks = -(-n // _BLOCK)
    # a slot's generator is built when its first path enters (none when
    # every path ends in the block phase); key 0 is a placeholder that
    # _rekey replaces, and giving one spares a draw of OS entropy
    gens = [None] * width
    block = np.random.Generator(np.random.Philox(key=0))
    exps = np.empty((width, _CHUNK))
    unis = np.empty((width, _CHUNK, _UNIFORMS))
    group = min(_GROUP, n_blocks)
    block_exps = np.empty((_BLOCK, _FIRST))
    block_unis = np.empty((_BLOCK, _FIRST, _UNIFORMS))
    # row k of the group's (draw, replicate) arrays holds draw k of every
    # replicate, so that the block phase reads it from contiguous memory;
    # each draw's jump if the event branches and if it is an immigration
    first_e, first_u = np.empty((2, _FIRST, group * _BLOCK))
    branch_jump, arrive_jump = np.empty((2, _FIRST, group * _BLOCK),
                                        dtype=np.int32)
    # one view per slot row, made once: a draw into a stored view costs a
    # third less than into a fresh one
    exp_rows, uni_rows = list(exps), list(unis)
    counts = np.zeros(x0 + 1, dtype=np.int64)  # uncapped paths by end state
    lengths = np.zeros(_FIRST + 1, dtype=np.int64)  # paths by number of events
    empty = np.empty(0, dtype=np.int64)
    waiting = (empty, empty, np.empty(0))  # replicate, state, time
    blocks = capped = refills = steps = lane_paths = 0

    def block_phase():
        """Run the next group of blocks through their first chunks; tally
        the paths that end there and return the others' (replicate, state,
        time)."""
        nonlocal blocks, counts, capped
        size = min(group, n_blocks - blocks)
        for g in range(size):
            _rekey(block.bit_generator, seed_word, blocks + g, _BLOCK_COUNTER)
            block.standard_exponential(out=block_exps)
            block.random(out=block_unis)
            u_pick = block_unis[..., 1]
            cols = slice(g * _BLOCK, (g + 1) * _BLOCK)
            first_e[:, cols] = block_exps.T
            first_u[:, cols] = block_unis[..., 0].T
            branch_jump[:, cols] = (off.pick_many(u_pick) - 1).T
            arrive_jump[:, cols] = imm.pick_many(u_pick).T
        rep = np.arange(min(size * _BLOCK, n - blocks * _BLOCK))
        x = np.full(rep.size, x0, dtype=np.int64)
        t = np.zeros(rep.size)
        ended = []
        for k in range(_FIRST):
            branch_rate = x * a_rate
            rate = branch_rate + b_rate
            t_next = t + first_e[k].take(rep) / rate
            # the negation of the scalar loop's t_next > horizon, and a zero
            # rate, where the scalar loop's division raises, ends the path
            go = (t_next <= horizon) & (rate != 0.0)
            if not go.all():
                ended.append(x[~go])
                lengths[k] += ended[-1].size
                rep, x, branch_rate, rate, t_next = (
                    a[go] for a in (rep, x, branch_rate, rate, t_next))
            t = t_next
            branch = first_u[k].take(rep) * rate < branch_rate
            x = x + np.where(branch, branch_jump[k].take(rep),
                             arrive_jump[k].take(rep))
            over = x >= cap
            reached = int(over.sum())
            if reached:
                capped += reached
                lengths[k + 1] += reached
                rep, x, t = rep[~over], x[~over], t[~over]
        counts = _tally(counts, np.concatenate(ended or [empty]))
        rep += blocks * _BLOCK
        blocks += size
        return rep, x, t

    def enter(free):
        """Give the next waiting paths to the slots ``free``, one each while
        any path is left, running the block phase as the waiting paths run
        out; re-key each taken slot to its path's own stream and draw the
        path's first own chunk into the slot's rows.  Returns the taken
        slots and their paths' states and times."""
        nonlocal waiting, refills, lane_paths
        taken = [(empty, empty, np.empty(0))]
        while free.size and (waiting[0].size or blocks < n_blocks):
            if not waiting[0].size:
                waiting = block_phase()
                continue
            m = min(free.size, waiting[0].size)
            slots, free = free[:m], free[m:]
            rep, x, t = (a[:m] for a in waiting)
            waiting = tuple(a[m:] for a in waiting)
            for s, r in zip(slots.tolist(), rep.tolist()):
                if gens[s] is None:
                    gens[s] = np.random.Generator(np.random.Philox(key=0))
                _rekey(gens[s].bit_generator, seed_word, r)
                gens[s].standard_exponential(out=exp_rows[s])
                gens[s].random(out=uni_rows[s])
            taken.append((slots, x, t))
            refills += m
            lane_paths += m
        return (np.concatenate(a) for a in zip(*taken))

    # a zero total rate (no immigration, empty state) divides by zero: the
    # path then ends, as in the scalar loop, and the quotient is never used
    with np.errstate(divide="ignore", invalid="ignore"):
        slot, x, t = enter(np.arange(width))
        # flat views: gathering with take on one index is cheaper than 2-d
        # fancy indexing
        exps_flat, unis_rows = exps.reshape(-1), unis.reshape(-1, _UNIFORMS)
        row = slot * _CHUNK
        ptr = np.zeros(slot.size, dtype=np.int64)
        events = np.full(slot.size, _FIRST, dtype=np.int64)
        while slot.size:
            steps += 1
            x, t, taken, halted = _step(x, t, ptr, row, exps_flat, unis_rows,
                                        samplers, horizon, cap)
            ptr += taken
            events += taken
            is_capped = x >= cap
            done = (halted | is_capped).nonzero()[0]
            if done.size:
                capped += int(is_capped[done].sum())
                ended = done[~is_capped[done]]
                counts = _tally(counts, x[ended])
                lengths = _tally(lengths, events[done])
                new, new_x, new_t = enter(slot[done])
                fresh = done[:new.size]
                x[fresh], t[fresh], ptr[fresh] = new_x, new_t, 0
                events[fresh] = _FIRST
                if new.size < done.size:
                    live = np.ones(slot.size, dtype=bool)
                    live[done[new.size:]] = False
                    slot, row, x, t, ptr, events = (
                        a[live] for a in (slot, row, x, t, ptr, events))
            for k in (ptr == _CHUNK).nonzero()[0].tolist():
                s = slot[k]
                gens[s].standard_exponential(out=exp_rows[s])
                gens[s].random(out=uni_rows[s])
                ptr[k] = 0
                refills += 1
    telemetry.add("sim.replicates", n)
    telemetry.add("sim.blocks", blocks)
    telemetry.add("sim.event_free", int(lengths[0]))
    telemetry.add("sim.events", int(lengths @ np.arange(lengths.size)))
    telemetry.add("sim.capped", capped)
    telemetry.add("sim.refills", refills)
    telemetry.add("sim.draws", (blocks * _BLOCK * _FIRST + refills * _CHUNK)
                  * (1 + _UNIFORMS))
    telemetry.add("sim.steps", steps)
    telemetry.add("sim.lane_paths", lane_paths)
    telemetry.put("sim.events_p50", _quantile(lengths, 0.5))
    telemetry.put("sim.events_p99", _quantile(lengths, 0.99))
    kept = counts.nonzero()[0]
    pmf = counts[:kept[-1] + 1 if kept.size else 1] / n
    se = np.sqrt(pmf * (1.0 - pmf) / n)
    return SimResult(pmf=pmf, se=se, n=n, capped_count=capped)


def zscore_table(result: SimResult, kernel_probs: np.ndarray,
                 min_prob: float = 1e-2) -> list:
    """Rows (j, p_hat, se, p_kernel, z) for states with kernel mass >= min_prob.

    z uses the null-hypothesis binomial deviation sqrt(p (1-p) / n), which is
    well defined even when a state was never observed.
    """
    rows = []
    for j, p in enumerate(kernel_probs):
        if p < min_prob:
            continue
        p_hat = result.pmf[j] if j < result.pmf.size else 0.0
        se_hat = result.se[j] if j < result.se.size else 0.0
        var = p * (1.0 - p) / result.n
        if var > 0:
            z = (p_hat - p) / np.sqrt(var)
        else:  # p is 0 or 1 (roundoff outside [0, 1] goes to the nearer end)
            gap = p_hat - min(max(p, 0.0), 1.0)
            z = np.copysign(np.inf, gap) if gap else 0.0
        rows.append((j, p_hat, se_hat, p, z))
    return rows

