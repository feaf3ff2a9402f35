import hashlib
import threading
import tracemalloc

import numpy as np
import pytest

from mbpilab import (AliasTable, ModelError, SimConfig, estimate_pmf,
                     simulate_path, transition_probs)
from mbpilab import sim, telemetry
from mbpilab.sim import _samplers, sim_csv, zscore_table
from oracles import per_replicate_pmf


def _rng(seed=1, rep=0):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, rep], dtype=np.uint64)))


def test_alias_table_implied_distribution():
    # the construction must reproduce the weights exactly: the probability of
    # drawing j is (prob_j + sum over cells aliased to j of (1-prob_i)) / n
    w = np.array([0.0, 3.0, 1.0, 0.0, 2.0, 6.0])
    table = AliasTable(w)
    implied = table.prob.copy()
    for i in range(table.n):
        if table.alias[i] != i:
            implied[table.alias[i]] += 1.0 - table.prob[i]
    assert np.allclose(implied / table.n, w / w.sum(), atol=1e-13)


def test_alias_table_sampling_agrees(rng):
    w = np.array([0.2, 0.0, 0.5, 0.3])
    table = AliasTable(w)
    u1, u2 = rng.random(200_000), rng.random(200_000)
    draws = table.pick_many(u1, u2)
    freq = np.bincount(draws, minlength=4) / draws.size
    assert np.max(np.abs(freq - w)) < 5e-3
    assert table.pick(u1[0], u2[0]) == draws[0]


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
# taken from the per-replicate generator build (one Philox and one
# Generator per replicate) with numpy-scalar event arithmetic.  Any change
# of stream, draw order or floating-point operation changes a digest.
GOLDEN_SIM = [
    (dict(horizon=2.0, replicates=2000, seed=123),
     "30b092ffcecfe6474ccbc34579756f56b0fd21136ee7cdb138dcd94d9b491da2"),
    (dict(horizon=4.0, replicates=1500, seed=7, initial=5),
     "5e02357771eeef0efe9d8b5fb9d4b00382e06cdc3304a275999ad6f279816602"),
    (dict(horizon=5.0, replicates=500, seed=3, initial=1, state_cap=2),
     "f6310d5646ba2ff54751c9d0e5d3b01e438e2425136afa176a7c0cb203714a3d"),
    (dict(horizon=5.0, replicates=800, seed=2 ** 63 + 5, initial=2,
          state_cap=40),
     "f30a91f2e6a16e00a2d8b534e05e930f96e00728cf4e73a3116453318a16d14f"),
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


def test_threading_does_not_change_results(g025_small):
    base = estimate_pmf(SimConfig(model=g025_small, horizon=2.0,
                                  replicates=2000, seed=77))
    threaded = estimate_pmf(SimConfig(model=g025_small, horizon=2.0,
                                      replicates=2000, seed=77, threads=4))
    assert np.array_equal(base.pmf, threaded.pmf)
    assert base.capped_count == threaded.capped_count


def test_threads_start_no_thread(g025_small, monkeypatch):
    def refuse(self):
        raise AssertionError("estimate_pmf started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = SimConfig(model=g025_small, horizon=1.0, replicates=300, seed=5)
    many = SimConfig(model=g025_small, horizon=1.0, replicates=300, seed=5,
                     threads=100_000)
    assert np.array_equal(estimate_pmf(many).pmf, estimate_pmf(cfg).pmf)


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
    assert res.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert res.pmf.size <= 2


def test_config_validation(g025_small):
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=1.0, replicates=0, seed=1)
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=1.0, replicates=10, seed=1,
                  initial=5, state_cap=5)
    with pytest.raises(ModelError):
        SimConfig(model=g025_small, horizon=-1.0, replicates=10, seed=1)


def test_cross_check_against_kernel(g025_small):
    # desk-scale version of the full acceptance cross-check
    cfg = SimConfig(model=g025_small, horizon=2.0, replicates=20_000, seed=42)
    res = estimate_pmf(cfg)
    series = transition_probs(g025_small, 0, 2.0, 32, r=0.9, M=256,
                              method="series")
    rows = zscore_table(res, series.values, min_prob=2e-3)
    assert len(rows) >= 8
    worst = max(abs(z) for _, _, _, _, z in rows)
    assert worst <= 4.0


def test_sim_csv_manifest(g025_small):
    cfg = SimConfig(model=g025_small, horizon=1.0, replicates=200, seed=5)
    res = estimate_pmf(cfg)
    text = sim_csv(res)
    lines = text.splitlines()
    assert lines[0] == "# seed = 5"
    assert any(line.startswith("# config_hash = ") for line in lines)
    assert any(line.startswith("# capped_fraction = ") for line in lines)
    assert "j,p_hat,se,n" in lines


# The lane engine against the per-replicate loop.  (lanes, drain) sets the
# lane width and the live-lane count at which the scalar loop takes over;
# drain 0 keeps every path in the lanes to its end.
LANE_SETTINGS = [(1, 64), (3, 64), (256, 64), (3, 0), (256, 0)]
LANE_CASES = {
    "no_events": dict(horizon=0.0, replicates=301, seed=4, initial=2),
    "few_events": dict(horizon=1e-3, replicates=301, seed=4, initial=2),
    "refills": dict(horizon=20.0, replicates=6, seed=11, initial=5),
    "cap_next_state": dict(horizon=5.0, replicates=301, seed=3, initial=3,
                           state_cap=4),
    "fewer_than_lanes": dict(horizon=2.0, replicates=100, seed=8),
    "not_a_multiple": dict(horizon=2.0, replicates=1000, seed=9),
}


@pytest.mark.parametrize("lanes,drain", LANE_SETTINGS)
@pytest.mark.parametrize("case", LANE_CASES)
def test_lanes_match_per_replicate_loop(g025_small, monkeypatch, case, lanes,
                                        drain):
    monkeypatch.setattr(sim, "_LANES", lanes)
    monkeypatch.setattr(sim, "_DRAIN", drain)
    config = SimConfig(model=g025_small, **LANE_CASES[case])
    expected = per_replicate_pmf(config)
    with telemetry.recording() as record:
        result = estimate_pmf(config)
    assert np.array_equal(result.pmf, expected.pmf)
    assert result.capped_count == expected.capped_count
    assert record.counters["sim.replicates"] == expected.replicates
    assert record.counters["sim.events"] == expected.events
    if case == "refills":
        assert record.counters["sim.refills"] > 0
    if case == "cap_next_state":
        assert result.capped_count > 0


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
    assert sim._quantile({0: 5, 3: 4, 10: 1}, 0.5) == 0
    assert sim._quantile({0: 5, 3: 4, 10: 1}, 0.6) == 3
    assert sim._quantile({0: 5, 3: 4, 10: 1}, 0.99) == 10
    config = SimConfig(model=g025_small, horizon=2.0, replicates=2000, seed=5)
    with telemetry.recording() as record:
        estimate_pmf(config)
    counters = dict(record.counters)
    assert counters["sim.replicates"] == 2000
    assert 0 <= counters["sim.events_p50"] < counters["sim.events_p99"]
    assert counters["sim.drained"] <= sim._DRAIN
    estimate_pmf(config)  # outside a recording: nothing is kept
    assert record.counters == counters


def test_memory_flat_in_replicates(g025_small, monkeypatch):
    # 16 lanes keep the fixed buffers near 150 kB, so one 8-byte word per
    # replicate (320 kB at 40k) would show
    monkeypatch.setattr(sim, "_LANES", 16)

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
