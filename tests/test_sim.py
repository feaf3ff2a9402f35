import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbpilab import (AliasTable, ModelError, SimConfig, estimate_pmf,
                     simulate_path, stable_model, transition_grid)
from mbpilab import sim, telemetry
from mbpilab.sim import _samplers, sim_csv, zscore_table
from oracles import per_replicate_pmf, replicate_rngs


def _rng(seed=1, rep=0):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, rep], dtype=np.uint64)))


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),
                min_size=1, max_size=200).filter(any))
@example([0.0, 3.0, 1.0, 0.0, 2.0, 6.0])
def test_alias_table_implied_distribution(weights):
    # the construction must reproduce the weights to rounding: the
    # probability of drawing j is (prob_j + sum over cells aliased to j of
    # (1 - prob_i)) / n
    table = AliasTable(weights)
    n = table.n
    implied = table.prob.copy()
    np.add.at(implied, table.alias, 1.0 - table.prob)
    w = np.asarray(weights)
    error = np.max(np.abs(implied / n - w / w.sum()))
    assert error <= 4 * n * np.finfo(float).eps


def test_alias_table_sampling_agrees(rng):
    w = np.array([0.2, 0.0, 0.5, 0.3])
    table = AliasTable(w)
    u1, u2 = rng.random(200_000), rng.random(200_000)
    draws = table.pick_many(u1, u2)
    freq = np.bincount(draws, minlength=4) / draws.size
    assert np.max(np.abs(freq - w)) < 5e-3


def test_alias_table_validation():
    with pytest.raises(ModelError):
        AliasTable(np.zeros(3))
    with pytest.raises(ModelError):
        AliasTable(np.array([1.0, -0.5]))


def test_samplers_use_truncated_law(g025_small):
    a_rate, b_rate, off, imm = _samplers(g025_small)
    a = g025_small.offspring.coefficients
    b = g025_small.immigration.coefficients
    assert a_rate == -a[1] and b_rate == -b[0]
    # offspring alias table weights match a_j (j != 1) exactly
    implied = off.prob.copy()
    for i in range(off.n):
        if off.alias[i] != i:
            implied[off.alias[i]] += 1.0 - off.prob[i]
    w = a.copy()
    w[1] = 0.0
    assert np.allclose(implied / off.n, w / w.sum(), atol=1e-12)


def test_path_zero_horizon(g025_small):
    path = simulate_path(g025_small, 3, 0.0, _rng())
    assert path.state == 3 and path.events == 0 and not path.capped


def test_path_event_log(g025_small):
    # seed 2 from state 0 takes three events (+1, +2, -1) before t = 3
    path = simulate_path(g025_small, 0, 3.0, _rng(seed=2), collect_events=True)
    assert path.events > 0
    assert path.log is not None and len(path.log) == path.events
    times = [entry[0] for entry in path.log]
    assert all(a < b for a, b in zip(times, times[1:])) and times[-1] <= 3.0
    assert path.log[-1][2] == path.state
    assert sum(jump for _, jump, _ in path.log) == path.state


def test_path_event_log_pinned(g025_small):
    # 1004 events: fifteen refills of the 64-draw chunk, both jump kinds.
    path = simulate_path(g025_small, 3, 20.0, _rng(seed=11, rep=3),
                         collect_events=True)
    assert path.events == len(path.log) == 1004
    assert path.log[-1][2] == path.state
    assert 3 + sum(jump for _, jump, _ in path.log) == path.state
    text = ";".join(f"{float(t)!r},{jump},{x}" for t, jump, x in path.log)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a8ea064737c004de1ef406b4abad919605c1136a0ba147932b192ddd2820eab3")


# sha256 of sim_csv(estimate_pmf(config)) for fixed configs on g025_small,
# taken from the scalar oracle (oracles.per_replicate_pmf: simulate_path on
# generators built afresh from the description of the block layout, one
# replicate at a time), not from the lanes.  Any change of stream, chunk
# layout, draw order or floating-point operation changes a digest.
GOLDEN_SIM = [
    (dict(horizon=2.0, replicates=2000, seed=123),
     "5c7edbb226a0729f26bccb001e7a5b629b099a524040b3946302b25618bd603b"),
    (dict(horizon=4.0, replicates=1500, seed=7, initial=5),
     "1ef538a51ab5074fcddcce05ffdc48e8e3ef2c412e1893d781b0fc6648709a40"),
    (dict(horizon=5.0, replicates=500, seed=3, initial=1, state_cap=2),
     "3821df07bc23c079ab409f200f71eb6611e4ed8785946357c089a334c43540a4"),
    (dict(horizon=5.0, replicates=800, seed=2 ** 63 + 5, initial=2,
          state_cap=40),
     "9710b6a1578499d8969b963cadd419096f3ac1e2812eb3d1aa5bccfc353b0879"),
]


@pytest.mark.parametrize("fields,digest", GOLDEN_SIM)
def test_sim_csv_pinned(g025_small, fields, digest):
    res = estimate_pmf(SimConfig(model=g025_small, **fields))
    if fields.get("state_cap"):
        assert res.capped_count > 0
    assert hashlib.sha256(sim_csv(res).encode()).hexdigest() == digest


def test_point_mass_at_initial_state(g025_small):
    cfg = SimConfig(model=g025_small, horizon=0.0, replicates=50, seed=9,
                    initial=3)
    res = estimate_pmf(cfg)
    assert res.pmf[3] == 1.0 and res.pmf.sum() == 1.0


def test_reproducibility_bit_exact(g025_small):
    cfg = SimConfig(model=g025_small, horizon=2.0, replicates=3000, seed=123)
    r1, r2 = estimate_pmf(cfg), estimate_pmf(cfg)
    assert np.array_equal(r1.pmf, r2.pmf)
    assert r1.config_digest == r2.config_digest
    other = estimate_pmf(SimConfig(model=g025_small, horizon=2.0,
                                   replicates=3000, seed=124))
    assert not np.array_equal(r1.pmf[:5], other.pmf[:5])


def test_threads_start_no_thread(g025_small, monkeypatch):
    def refuse(self):
        raise AssertionError("estimate_pmf started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = SimConfig(model=g025_small, horizon=1.0, replicates=300, seed=5)
    assert estimate_pmf(cfg).n == 300


def test_se_scaling(g025_small):
    r1 = estimate_pmf(SimConfig(model=g025_small, horizon=2.0,
                                replicates=4000, seed=11))
    r2 = estimate_pmf(SimConfig(model=g025_small, horizon=2.0,
                                replicates=8000, seed=11))
    n = min(r1.se.size, r2.se.size)
    mask = (r1.pmf[:n] > 1e-2) & (r2.pmf[:n] > 1e-2)
    ratio = np.mean(r2.se[:n][mask] / r1.se[:n][mask])
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)


def test_state_cap_reported(g025_small):
    cfg = SimConfig(model=g025_small, horizon=5.0, replicates=500, seed=3,
                    initial=1, state_cap=2)
    res = estimate_pmf(cfg)
    assert res.capped_count > 0
    assert res.pmf.sum() + res.capped_fraction == pytest.approx(1.0, abs=1e-12)
    assert res.pmf.size <= 2


def test_config_validation(g025_small):
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=1.0, replicates=0, seed=1)
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=1.0, replicates=10, seed=1,
                  initial=5, state_cap=5)
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=-1.0, replicates=10, seed=1)


def test_config_refuses_nan_horizon_and_negative_initial(g025_small):
    # A NaN horizon never stops a path, so estimate_pmf would never return;
    # only the config is built here.  An infinite horizon stays valid.
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=float("nan"), replicates=10, seed=1)
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=1.0, replicates=10, seed=1,
                  initial=-1)
    SimConfig(model=g025_small, horizon=float("inf"), replicates=10, seed=1,
              state_cap=100)


def test_cross_check_against_kernel(g025_small):
    # desk-scale version of the full acceptance cross-check
    cfg = SimConfig(model=g025_small, horizon=2.0, replicates=20_000, seed=42)
    res = estimate_pmf(cfg)
    series = transition_grid(g025_small, [0], [2.0], 32, r=0.9, M=256,
                             method="series", clamp=True).row((0, 0))
    rows = zscore_table(res, series.values, min_prob=2e-3)
    assert len(rows) >= 8
    worst = max(abs(z) for _, _, _, _, z in rows)
    assert worst <= 4.0


def test_zscore_where_the_kernel_is_certain(g025_small):
    # a kernel mass of 0 or 1 (or roundoff past 1) leaves no null deviation:
    # an estimate that contradicts it scores |z| = inf, not nan
    res = estimate_pmf(SimConfig(model=g025_small, horizon=2.0,
                                 replicates=200, seed=3))
    assert 0.0 < res.pmf[0] < 1.0 and res.pmf[1] > 0.0
    rows = zscore_table(res, np.array([1.0, 0.0]), min_prob=0.0)
    assert [z for *_, z in rows] == [-np.inf, np.inf]
    (_, _, _, _, z), = zscore_table(res, np.array([1.0 + 2.0 ** -52]))
    assert z == -np.inf


def test_sim_csv_manifest(g025_small):
    cfg = SimConfig(model=g025_small, horizon=1.0, replicates=200, seed=5)
    res = estimate_pmf(cfg)
    text = sim_csv(res)
    lines = text.splitlines()
    assert lines[0] == "# seed = 5"
    assert any(line.startswith("# config_hash = ") for line in lines)
    assert any(line.startswith("# capped_fraction = ") for line in lines)
    assert "j,p_hat,se,n" in lines


@pytest.fixture(scope="module")
def gneg_pert_small():
    """Transient law with an immigration-tail remainder, short truncation:
    immigration stays frequent at x > 0."""
    return stable_model(nu=0.75, c=1.0, delta=0.5, d=0.25,
                        kappa_immigration=1.0, J=500)


# The lane engine against the per-replicate loop.  (lanes, window) sets the
# lane width and the number of draws one step may take a lane through:
# window 0 keeps the default _WINDOW, 64 lets a step run to the chunk's
# end.  A case runs on g025_small unless it names another model fixture.
LANE_SETTINGS = [(1, 64), (3, 64), (256, 64), (3, 0), (256, 0)]
LANE_CASES = {
    "no_events": dict(horizon=0.0, replicates=301, seed=4, initial=2),
    "few_events": dict(horizon=1e-3, replicates=301, seed=4, initial=2),
    "refills": dict(horizon=20.0, replicates=6, seed=11, initial=5),
    "cap_next_state": dict(horizon=5.0, replicates=301, seed=3, initial=3,
                           state_cap=4),
    "fewer_than_lanes": dict(horizon=2.0, replicates=100, seed=8),
    "not_a_multiple": dict(horizon=2.0, replicates=1000, seed=9),
    # long branching runs: windows end at the chunk's last draw and go on
    # after the refill
    "window_crosses_refill": dict(horizon=3.0, replicates=40, seed=12,
                                  initial=40),
    "cap_mid_window": dict(horizon=5.0, replicates=301, seed=13, initial=30,
                           state_cap=40),
    "immigration_mid_window": dict(model="gneg_pert_small", horizon=20.0,
                                   replicates=40, seed=14, initial=5),
    "infinite_horizon": dict(horizon=np.inf, replicates=40, seed=15,
                             state_cap=200),
    # one full block of 256 first chunks and one replicate of the next
    "partial_last_block": dict(horizon=2.0, replicates=257, seed=10),
    # three paths take exactly the 16 events of their first chunk, so
    # they enter the lanes and draw a chunk of their own stream that they
    # do not use; four take more
    "first_refill_at_16": dict(horizon=3.0, replicates=40, seed=20,
                               initial=2),
    # every path ends within its first chunk, by event 12 at most: the
    # block phase does all the work
    "all_end_in_block": dict(horizon=0.2, replicates=301, seed=3, initial=2),
    # many paths reach the cap within their first chunk, one of them at
    # its 16th event
    "cap_in_block": dict(horizon=5.0, replicates=301, seed=1, initial=3,
                         state_cap=8),
}


@pytest.mark.parametrize("lanes,window", LANE_SETTINGS)
@pytest.mark.parametrize("case", LANE_CASES)
def test_lanes_match_per_replicate_loop(request, monkeypatch, case, lanes,
                                        window):
    monkeypatch.setattr(sim, "_LANES", lanes)
    monkeypatch.setattr(sim, "_WINDOW", window or sim._WINDOW)
    fields = dict(LANE_CASES[case])
    model = request.getfixturevalue(fields.pop("model", "g025_small"))
    config = SimConfig(model=model, **fields)
    expected = per_replicate_pmf(config)
    with telemetry.recording() as record:
        result = estimate_pmf(config)
    assert np.array_equal(result.pmf, expected.pmf)
    assert result.capped_count == expected.capped_count
    assert record.counters["sim.replicates"] == expected.replicates
    assert record.counters["sim.events"] == expected.events
    if case in ("refills", "window_crosses_refill", "first_refill_at_16"):
        assert record.counters["sim.refills"] > 0
    if case == "first_refill_at_16":
        assert 16 in expected.lengths
    assert record.counters["sim.blocks"] == -(-config.replicates // 256)
    assert record.counters["sim.event_free"] == expected.lengths.count(0)
    assert record.counters["sim.lane_paths"] == expected.own_stream
    if case == "all_end_in_block":
        assert record.counters["sim.steps"] == 0
        assert record.counters["sim.refills"] == 0
    if case == "cap_in_block":
        # some path of 16 events did not go on to its own stream: the cap
        # ended it
        assert expected.lengths.count(16) > expected.own_stream - sum(
            events > 16 for events in expected.lengths)
    if case in ("cap_next_state", "cap_mid_window", "infinite_horizon",
                "cap_in_block"):
        assert result.capped_count > 0


def test_slot_generators_built_on_first_entry(g025_small, monkeypatch):
    # a lane slot's generator is built when its first path enters: at
    # horizon 0 no path leaves the block phase and only the block's
    # generator is built.  Wrapping Generator counts the builds; a Philox
    # subclass would fail _rekey's state check.
    built = []
    generator = np.random.Generator

    def counting(bit_generator):
        built.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counting)
    for horizon in (0.0, 2.0):
        built.clear()
        with telemetry.recording() as record:
            estimate_pmf(SimConfig(model=g025_small, horizon=horizon,
                                   replicates=600, seed=9))
        lane_paths = record.counters["sim.lane_paths"]
        assert (lane_paths == 0) == (horizon == 0.0)
        assert len(built) == 1 + min(sim._LANES, lane_paths)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 64 - 1),
       horizon=st.one_of(st.floats(0.0, 3.0), st.just(np.inf)),
       initial=st.integers(0, 40), headroom=st.integers(1, 60),
       replicates=st.integers(1, 600), lanes=st.sampled_from([1, 3, 256]),
       group=st.sampled_from([1, 2, sim._GROUP]))
def test_lanes_match_per_replicate_loop_property(g025_small, seed, horizon,
                                                 initial, headroom,
                                                 replicates, lanes, group):
    # an infinite horizon ends every path at the cap
    config = SimConfig(model=g025_small, horizon=horizon,
                       replicates=replicates, seed=seed, initial=initial,
                       state_cap=initial + headroom)
    expected = per_replicate_pmf(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_LANES", lanes)
        patch.setattr(sim, "_GROUP", group)
        with telemetry.recording() as record:
            result = estimate_pmf(config)
    assert np.array_equal(result.pmf, expected.pmf)
    assert result.capped_count == expected.capped_count
    assert record.counters["sim.events"] == expected.events
    assert record.counters["sim.lane_paths"] == expected.own_stream


@pytest.mark.parametrize("lanes", [3, 256])
def test_zero_total_rate_ends_the_path(g025_small, monkeypatch, lanes):
    # With no immigration the empty state has total rate 0: the path ends
    # there, in the lanes as in the scalar loop, with no warning (the suite
    # turns RuntimeWarning into an error).
    a_rate, _, off, imm = _samplers(g025_small)
    monkeypatch.setattr(sim, "_samplers", lambda model: (a_rate, 0.0, off, imm))
    monkeypatch.setattr(sim, "_LANES", lanes)
    for fields in (dict(horizon=np.inf, replicates=300, seed=6,
                        state_cap=50),
                   dict(horizon=50.0, replicates=300, seed=6, initial=2,
                        state_cap=1000)):
        config = SimConfig(model=g025_small, **fields)
        expected = per_replicate_pmf(config)
        result = estimate_pmf(config)
        assert np.array_equal(result.pmf, expected.pmf)
        assert result.capped_count == expected.capped_count
        assert result.pmf[0] > 0


def test_events_quantiles_reported(g025_small):
    # five paths took no event, four took 3 and one took 10
    lengths = np.bincount([0] * 5 + [3] * 4 + [10])
    assert sim._quantile(lengths, 0.5) == 0
    assert sim._quantile(lengths, 0.6) == 3
    assert sim._quantile(lengths, 0.99) == 10
    config = SimConfig(model=g025_small, horizon=2.0, replicates=2000, seed=5)
    with telemetry.recording() as record:
        estimate_pmf(config)
    counters = dict(record.counters)
    assert counters["sim.replicates"] == 2000
    assert 0 <= counters["sim.events_p50"] < counters["sim.events_p99"]
    estimate_pmf(config)  # outside a recording: nothing is kept
    assert record.counters == counters


def test_horizon_on_an_event_time(g025_small):
    # A horizon equal to an event time, as the scalar loop sums it, takes
    # that event; one ulp earlier does not.  Times summed in another order,
    # or a first event tested other than as t + e / rate, miss by an ulp.
    def end_state(horizon, seed):
        res = estimate_pmf(SimConfig(model=g025_small, horizon=horizon,
                                     replicates=1, seed=seed, initial=3))
        return int(np.flatnonzero(res.pmf)[0])

    # the first event of 40 paths, and every 56th of a 4036-event path with
    # the last event of its first chunk and the first of its own stream
    logs = [simulate_path(g025_small, 3, 20.0, next(replicate_rngs(seed, 1)),
                          collect_events=True).log for seed in range(40)]
    checks = ([(seed, 0) for seed in range(40)]
              + [(8, k) for k in [15, 16, *range(1, 4036, 56)]])
    for seed, k in checks:
        time, _, state = logs[seed][k]
        before = logs[seed][k - 1][2] if k else 3
        assert end_state(time, seed) == state
        assert end_state(np.nextafter(time, 0.0), seed) == before


def test_lane_steps_take_many_events(g025_small):
    # A step takes a lane through up to _WINDOW events: here 196 steps for
    # 69,645 events (0.0028 a step).  Steps of one event each take 6151
    # (0.088), so the bound of 1/100 fails them.
    config = SimConfig(model=g025_small, horizon=5.0, replicates=2000, seed=7)
    with telemetry.recording() as record:
        estimate_pmf(config)
    counters = record.counters
    assert counters["sim.steps"] < counters["sim.events"] / 100


def test_memory_flat_in_replicates(g025_small, monkeypatch):
    # 16 lanes and one-block groups keep the fixed buffers near 260 kB and
    # the peak near 450 kB, so one 8-byte word per replicate (320 kB at
    # 40k) would show; the default four-block groups peak near 740 kB,
    # where it would not
    monkeypatch.setattr(sim, "_LANES", 16)
    monkeypatch.setattr(sim, "_GROUP", 1)

    def peak(replicates):
        config = SimConfig(model=g025_small, horizon=0.1,
                           replicates=replicates, seed=21)
        tracemalloc.start()
        try:
            estimate_pmf(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40_000) <= 1.5 * peak(5_000)
