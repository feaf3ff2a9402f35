"""Exact event-driven simulation of the branching process with immigration.

The population is a continuous-time Markov chain on the nonnegative
integers.  In state X the total event rate is X*a + b with a = -a_1 and
b = -b_0; a branching event (probability X*a / (X*a + b)) replaces one
individual by j drawn with probability a_j / a over j != 1, an immigration
event adds j drawn with probability b_j / b over j >= 1.  The simulated law
is exactly the truncated, re-balanced law carried by the model, so kernel
cross-checks against the same truncated law are free of truncation bias.

Randomness: one counter-based Philox stream per replicate, keyed by
(seed, replicate_index) with the counter at 0.  Replicates are therefore
independent and bit-reproducible in any order.  A path draws its stream in
chunks: 64 exponentials, then 64 x 3 uniforms.  Since a Philox stream is a
pure function of its key and counter, a generator whose state is reset
reproduces any stream exactly, without building a generator per replicate.

``estimate_pmf`` runs replicates in lock-step numpy lanes, one event per
step, on the same streams and with the same floating-point operations as
the scalar loop of ``simulate_path``; its memory does not grow with the
replicate count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import telemetry
from .errors import ModelError
from .laws import ModelSpec

_CHUNK = 64  # random numbers drawn per refill; fixed for reproducibility
_LANES = 256  # replicates advanced together by one numpy step
_DRAIN = 64  # live lanes left to the scalar loop once every replicate started
_ZERO_WORDS = (0, 0, 0, 0)


class AliasTable:
    """Vose alias sampler over a nonnegative weight vector."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ModelError("alias table needs a 1-d weight vector")
        if np.any(w < 0) or not np.any(w > 0):
            raise ModelError("alias weights must be nonnegative with positive total")
        n = w.size
        p = w * (n / w.sum())
        prob = np.zeros(n)
        alias = np.zeros(n, dtype=np.int64)
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
        self.prob = prob
        self.alias = alias
        # Python lists for the scalar event loop: indexing a list of floats
        # is several times cheaper than indexing a numpy array.
        self._prob = prob.tolist()
        self._alias = alias.tolist()

    def pick_many(self, u_index, u_accept):
        i = np.minimum((np.asarray(u_index) * self.n).astype(np.int64), self.n - 1)
        return np.where(np.asarray(u_accept) < self.prob.take(i), i,
                        self.alias.take(i))


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


def _advance(x, t, events, exps, unis, ptr, rng, horizon, state_cap,
             samplers, log=None):
    """The scalar event loop: advance one path from state ``x`` at time ``t``
    until its next event would pass the horizon or it reaches the state cap.

    ``exps`` and ``unis`` are the current chunk of draws as Python floats,
    with ``ptr`` the next unused row; further chunks come from ``rng``.
    Python floats and ints carry the same IEEE operations as numpy scalars
    at a fraction of the cost per event.  Returns (x, t, events, capped,
    refills), with ``events`` counted on from the value passed in.
    """
    a_rate, b_rate, off, imm = samplers
    n_off, off_prob, off_alias = off.n, off._prob, off._alias
    n_imm, imm_prob, imm_alias = imm.n, imm._prob, imm._alias
    refills = 0
    capped = x >= state_cap
    while not capped:
        if ptr == _CHUNK:
            exps = rng.standard_exponential(_CHUNK).tolist()
            unis = rng.random((_CHUNK, 3)).tolist()
            ptr = 0
            refills += 1
        branch_rate = x * a_rate
        rate = branch_rate + b_rate
        try:
            t_next = t + exps[ptr] / rate
        except ZeroDivisionError:
            break  # a zero total rate: the next event lies past any horizon
        if t_next > horizon:
            break
        t = t_next
        u_type, u_idx, u_acc = unis[ptr]
        ptr += 1
        events += 1
        # The alias-table pick, inlined: a method call would cost about a
        # fifth of the loop's time per event.
        if u_type * rate < branch_rate:
            i = int(u_idx * n_off)
            if i >= n_off:
                i = n_off - 1
            jump = (i if u_acc < off_prob[i] else off_alias[i]) - 1
        else:
            i = int(u_idx * n_imm)
            if i >= n_imm:
                i = n_imm - 1
            jump = i if u_acc < imm_prob[i] else imm_alias[i]
        x += jump
        if log is not None:
            log.append((t, jump, x))
        capped = x >= state_cap
    return x, t, events, capped, refills


def simulate_path(model: ModelSpec, initial: int, horizon: float,
                  rng: np.random.Generator, state_cap: int = 10 ** 6,
                  collect_events: bool = False,
                  _samplers_cache=None) -> PathResult:
    """Simulate one trajectory to the horizon (or to the state cap)."""
    log = [] if collect_events else None
    exps = rng.standard_exponential(_CHUNK).tolist()
    unis = rng.random((_CHUNK, 3)).tolist()
    x, t, events, capped, _ = _advance(
        int(initial), 0.0, 0, exps, unis, 0, rng, horizon, state_cap,
        _samplers_cache or _samplers(model), log)
    return PathResult(state=x, capped=capped, events=events,
                      time=min(t, horizon), log=log)


@dataclass
class SimResult:
    """Replicate-averaged empirical pmf with binomial standard errors.

    Capped replicates are excluded from the per-state estimates and reported
    through ``capped_fraction``; the pmf plus the capped fraction sums to 1.
    """

    pmf: np.ndarray
    se: np.ndarray
    n: int
    capped_count: int
    seed: int
    config_digest: str
    rng_scheme: str = "philox key=(seed, replicate)"
    meta: dict = field(default_factory=dict)

    @property
    def capped_fraction(self) -> float:
        return self.capped_count / self.n

    def total_mass(self) -> float:
        return float(self.pmf.sum()) + self.capped_fraction


def _rekey(bit_generator, seed_word: int, rep: int) -> None:
    """Put a Philox bit generator at the start of the stream keyed
    (seed, rep).  Python ints set the state at a third of the cost of numpy
    arrays, with the same draws."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed_word, rep)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _quantile(histogram: dict, q: float) -> int:
    """Nearest-rank q-quantile of the values counted in ``histogram``."""
    rank = q * sum(histogram.values())
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return value
    return 0


def estimate_pmf(config: SimConfig) -> SimResult:
    """Empirical transition pmf from the configured initial state.

    Up to ``_LANES`` replicates advance together, one event per numpy step.
    Each lane slot owns a Philox generator that draws its chunks straight
    into the slot's rows of ``exps`` and ``unis``; a lane whose path ends is
    tallied at once and its slot re-keyed to the next replicate, so the
    vector stays full.  The step makes the same IEEE operations on the same
    draws as the scalar loop, so every replicate ends in the state
    ``simulate_path`` gives it.  Once every replicate has started and at
    most ``_DRAIN`` lanes are live, the scalar loop finishes them one by
    one.  Memory is O(lanes * chunk + largest state), whatever the number
    of replicates.
    """
    model = config.model
    samplers = _samplers(model)
    a_rate, b_rate, off, imm = samplers
    n, horizon, cap, x0 = (config.replicates, config.horizon,
                           config.state_cap, config.initial)
    seed_word = config.seed & 0xFFFFFFFFFFFFFFFF
    width = min(_LANES, n)
    # key 0 is a placeholder that _rekey replaces; giving one spares the
    # construction a draw of OS entropy
    gens = [np.random.Generator(np.random.Philox(key=0)) for _ in range(width)]
    exps = np.empty((width, _CHUNK))
    unis = np.empty((width, _CHUNK, 3))

    def draw(s):
        """Slot s's next chunk, in the scalar loop's order."""
        gens[s].standard_exponential(out=exps[s])
        gens[s].random(out=unis[s])

    for rep, gen in enumerate(gens):
        _rekey(gen.bit_generator, seed_word, rep)
        draw(rep)
    started = width
    # flat views: gathering with take on one index is cheaper than 2-d
    # fancy indexing
    exps_flat, unis_rows = exps.reshape(-1), unis.reshape(-1, 3)
    slot = np.arange(width)
    row = slot * _CHUNK
    x = np.full(width, x0, dtype=np.int64)
    t = np.zeros(width)
    ptr = np.zeros(width, dtype=np.int64)
    events = np.zeros(width, dtype=np.int64)
    counts, path_events = {}, {}
    capped = refills = 0

    def finish(state, n_events, is_capped):
        nonlocal capped
        if is_capped:
            capped += 1
        else:
            counts[state] = counts.get(state, 0) + 1
        path_events[n_events] = path_events.get(n_events, 0) + 1

    # a zero total rate (no immigration, empty state) divides by zero: the
    # path then ends, as in the scalar loop, and the quotient is never used
    with np.errstate(divide="ignore", invalid="ignore"):
        while slot.size > _DRAIN or started < n:
            at = row + ptr
            e = exps_flat.take(at)
            u = unis_rows.take(at, axis=0)
            branch_rate = x * a_rate
            rate = branch_rate + b_rate
            t_next = t + e / rate
            stop = (t_next > horizon) | (rate == 0.0)
            jump = np.where(u[:, 0] * rate < branch_rate,
                            off.pick_many(u[:, 1], u[:, 2]) - 1,
                            imm.pick_many(u[:, 1], u[:, 2]))
            x_old, x = x, x + jump
            t = t_next
            ptr += 1
            events += 1
            ended = (stop | (x >= cap)).nonzero()[0]
            live = None
            for k, stopped, state, n_events in zip(
                    ended.tolist(), stop[ended].tolist(),
                    x_old[ended].tolist(), events[ended].tolist()):
                # a stopped lane took no event this step
                finish(state, n_events - stopped, not stopped)
                if started < n:
                    _rekey(gens[slot[k]].bit_generator, seed_word, started)
                    draw(slot[k])
                    started += 1
                    x[k], t[k], ptr[k], events[k] = x0, 0.0, 0, 0
                else:
                    if live is None:
                        live = np.ones(slot.size, dtype=bool)
                    live[k] = False
            if live is not None:
                slot, row, x, t, ptr, events = (
                    slot[live], row[live], x[live], t[live], ptr[live],
                    events[live])
            for k in (ptr == _CHUNK).nonzero()[0].tolist():
                draw(slot[k])
                ptr[k] = 0
                refills += 1
    drained = slot.size
    for s, state, time_, n_events, p in zip(slot.tolist(), x.tolist(),
                                            t.tolist(), events.tolist(),
                                            ptr.tolist()):
        state, _, n_events, is_capped, more = _advance(
            state, time_, n_events, exps[s].tolist(), unis[s].tolist(), p,
            gens[s], horizon, cap, samplers)
        finish(state, n_events, is_capped)
        refills += more
    telemetry.add("sim.replicates", n)
    telemetry.add("sim.events", sum(k * c for k, c in path_events.items()))
    telemetry.add("sim.capped", capped)
    telemetry.add("sim.refills", refills)
    telemetry.add("sim.drained", drained)
    telemetry.put("sim.events_p50", _quantile(path_events, 0.5))
    telemetry.put("sim.events_p99", _quantile(path_events, 0.99))
    max_state = max(counts) if counts else 0
    pmf = np.zeros(max_state + 1)
    for state, cnt in counts.items():
        pmf[state] = cnt / n
    se = np.sqrt(pmf * (1.0 - pmf) / n)
    return SimResult(pmf=pmf, se=se, n=n, capped_count=capped,
                     seed=config.seed, config_digest=config.digest(),
                     meta={"initial": config.initial, "horizon": config.horizon,
                           "state_cap": config.state_cap})


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
        z = (p_hat - p) / np.sqrt(p * (1.0 - p) / result.n)
        rows.append((j, p_hat, se_hat, p, z))
    return rows


def sim_csv(result: SimResult) -> str:
    """Comma-separated (j, p_hat, se, n) plus a manifest comment block."""
    lines = [
        f"# seed = {result.seed}",
        f"# config_hash = {result.config_digest}",
        f"# rng = {result.rng_scheme}",
        f"# capped_fraction = {result.capped_fraction:.17g}",
        "j,p_hat,se,n",
    ]
    for j, (p, s) in enumerate(zip(result.pmf, result.se)):
        lines.append(f"{j},{p:.17g},{s:.17g},{result.n}")
    return "\n".join(lines) + "\n"
