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
independent and bit-reproducible in any order.  Since a Philox stream is a
pure function of its key and counter, one generator whose state is reset
for each replicate reproduces every stream exactly, without building a
generator per replicate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelError
from .laws import ModelSpec

_CHUNK = 64  # random numbers drawn per refill; fixed for reproducibility


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

    def pick(self, u_index: float, u_accept: float) -> int:
        i = min(int(u_index * self.n), self.n - 1)
        return i if u_accept < self._prob[i] else self._alias[i]

    def pick_many(self, u_index, u_accept):
        i = np.minimum((np.asarray(u_index) * self.n).astype(np.int64), self.n - 1)
        return np.where(np.asarray(u_accept) < self.prob[i], i, self.alias[i])


@dataclass(frozen=True)
class SimConfig:
    model: ModelSpec
    horizon: float
    replicates: int
    seed: int
    initial: int = 0
    state_cap: int = 10 ** 6
    threads: int = 1  # accepted, but changes neither results nor speed

    def __post_init__(self):
        if self.replicates < 1:
            raise ModelError("need at least one replicate")
        if self.state_cap < self.initial + 1:
            raise ModelError("state cap must exceed the initial state")
        if self.horizon < 0:
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
    """Simulate one trajectory to the horizon (or to the state cap).

    Each chunk of draws is converted to Python floats once, and the event
    loop runs on Python floats and ints: the same IEEE operations as numpy
    scalars, at a fraction of the cost per event.
    """
    a_rate, b_rate, off, imm = _samplers_cache or _samplers(model)
    n_off, off_prob, off_alias = off.n, off._prob, off._alias
    n_imm, imm_prob, imm_alias = imm.n, imm._prob, imm._alias
    x = int(initial)
    t = 0.0
    events = 0
    log = [] if collect_events else None
    exps = rng.standard_exponential(_CHUNK).tolist()
    unis = rng.random((_CHUNK, 3)).tolist()
    ptr = 0
    capped = x >= state_cap
    while not capped:
        if ptr == _CHUNK:
            exps = rng.standard_exponential(_CHUNK).tolist()
            unis = rng.random((_CHUNK, 3)).tolist()
            ptr = 0
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
        # AliasTable.pick, inlined: the method call alone costs about a
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
    return PathResult(state=x, capped=capped, events=events,
                      time=min(t, horizon), log=log)


def _replicate_streams(seed: int, n: int):
    """Yield, for rep = 0..n-1, a generator on the Philox stream keyed
    (seed, rep) with its counter at 0.

    The same generator object is yielded every time, its state reset in
    place: that costs less than half of building a new bit generator and
    generator per replicate, and gives the same draws.
    """
    bit_generator = np.random.Philox()
    rng = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    seed_word = seed & 0xFFFFFFFFFFFFFFFF
    for rep in range(n):
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros,
                      "key": np.array([seed_word, rep], dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield rng


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


def estimate_pmf(config: SimConfig) -> SimResult:
    """Empirical transition pmf from the configured initial state.

    ``config.threads`` changes neither the result nor the speed: the
    replicates run in one thread, because under the interpreter lock
    worker threads buy nothing for this pure-Python loop.
    """
    model = config.model
    samplers = _samplers(model)
    n = config.replicates
    counts = {}
    capped = 0
    for rng in _replicate_streams(config.seed, n):
        path = simulate_path(model, config.initial, config.horizon, rng,
                             state_cap=config.state_cap,
                             _samplers_cache=samplers)
        if path.capped:
            capped += 1
        else:
            counts[path.state] = counts.get(path.state, 0) + 1
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
