"""Host population sampling, summaries, calibration, and file round trips."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st_h
from oracles import calibrate_lognormal, gibrat_trajectory

from gridsweep.errors import ParameterError, ScenarioParseError
from gridsweep.hosts import (
    CPU_STEPS,
    PRESETS,
    HostSpec,
    PopulationParams,
    population_summary,
    read_params_file,
    read_population_csv,
    sample_hosts,
    snap_cpus,
    write_population_csv,
)


def _skew(v):
    v = np.asarray(v, dtype=float)
    c = v - v.mean()
    m2 = np.mean(c**2)
    return float(np.mean(c**3) / m2**1.5)


# --- HostSpec / params validation ----------------------------------------


def test_host_spec_rejects_off_grid_cpus():
    with pytest.raises(ParameterError):
        HostSpec(id=0, gflops=2.0, n_cpus=3, ram_gb=4, hdd_gb=100,
                 on_rate=0.1, off_rate=0.1)


def test_host_spec_rejects_nonpositive_resources():
    for field, value in (("gflops", 0.0), ("ram_gb", -1.0), ("hdd_gb", 0.0),
                         ("gflops", math.nan), ("ram_gb", math.inf), ("hdd_gb", math.nan)):
        kwargs = dict(id=0, gflops=2.0, n_cpus=4, ram_gb=4, hdd_gb=100,
                      on_rate=0.1, off_rate=0.1)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            HostSpec(**kwargs)


def test_params_reject_negative_sd_and_counts():
    with pytest.raises(ParameterError):
        PopulationParams(gflops_sd=-0.1)
    with pytest.raises(ParameterError):
        PopulationParams(n_hosts=-1)
    for rate in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            PopulationParams(on_rate=rate)


# --- snapping ------------------------------------------------------------


def test_snap_hits_members_exactly():
    assert list(snap_cpus(np.array(CPU_STEPS, dtype=float))) == list(CPU_STEPS)


def test_snap_ties_go_to_the_smaller_step():
    # midpoints of (2,4), (4,6), (8,16) are 3, 5, 12
    assert list(snap_cpus([3.0, 5.0, 12.0])) == [2, 4, 8]
    assert list(snap_cpus([3.0001, 5.0001, 12.0001])) == [4, 6, 16]


def test_snap_clamps_to_extremes():
    assert list(snap_cpus([0.01, 1e6])) == [1, 128]


# --- sampling ------------------------------------------------------------


def test_empty_population():
    pop = sample_hosts(PopulationParams(n_hosts=0))
    assert len(pop) == 0
    summary = population_summary(pop)
    assert summary.count == 0
    assert math.isnan(summary.attributes["gflops"].mean)


def test_sampling_is_deterministic():
    params = PopulationParams(n_hosts=64, seed=7)
    a = sample_hosts(params)
    b = sample_hosts(params)
    assert a == b
    c = sample_hosts(replace(params, seed=8))
    assert c != a


def test_degenerate_cpu_lognormal_snaps_to_constant():
    params = PopulationParams(n_hosts=50, cpu_logmu=math.log(4), cpu_logsigma=0.0)
    pop = sample_hosts(params)
    assert all(h.n_cpus == 4 for h in pop)


def test_gflops_floor_and_cpu_grid_always_hold():
    params = PopulationParams(n_hosts=2000, gflops_mean=1.0, gflops_sd=1.5,
                              gflops_floor=0.3, seed=5)
    pop = sample_hosts(params)
    g = np.array([h.gflops for h in pop])
    assert (g >= 0.3).all()
    assert all(h.n_cpus in CPU_STEPS for h in pop)


def test_registered_fleet_mean_gflops():
    pop = sample_hosts(PRESETS["registered"])
    mean = np.array([h.gflops for h in pop]).mean()
    # three standard errors of the n=4161 sample
    assert abs(mean - 2.25) < 3 * 0.76 / math.sqrt(4161)


def test_worker_pool_summary_matches_published_band():
    pop = sample_hosts(PRESETS["pool"])
    summary = population_summary(pop)
    assert summary.count == 189
    assert 2.0 <= summary.attributes["gflops"].mean <= 2.6


def test_gflops_mean_converges_at_large_n():
    params = PopulationParams(n_hosts=10_000, seed=2)
    pop = sample_hosts(params)
    mean = np.array([h.gflops for h in pop]).mean()
    assert abs(mean - params.gflops_mean) < 4 * params.gflops_sd / math.sqrt(10_000)


def test_log_of_presnap_attributes_is_symmetric():
    params = PopulationParams(n_hosts=10_000, seed=3)
    pop = sample_hosts(params)
    # ram/hdd are emitted un-snapped; cpu is checked pre-snap from the same law
    assert abs(_skew(np.log(np.array([h.ram_gb for h in pop])))) < 0.1
    assert abs(_skew(np.log(np.array([h.hdd_gb for h in pop])))) < 0.1
    rng = np.random.default_rng(3)
    cpu_raw = rng.lognormal(params.cpu_logmu, params.cpu_logsigma, size=10_000)
    assert abs(_skew(np.log(cpu_raw))) < 0.1


# --- gibrat --------------------------------------------------------------


def test_gibrat_unit_factor():
    assert list(gibrat_trajectory(4.0, 5, 0.0, 0.0)) == [4.0] * 6


def test_gibrat_deterministic_doubling():
    assert list(gibrat_trajectory(1.0, 3, math.log(2), 0.0)) == [1.0, 2.0, 4.0, 8.0]


def test_gibrat_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        gibrat_trajectory(0.0, 5, 0.0, 0.1)
    with pytest.raises(ParameterError):
        gibrat_trajectory(1.0, -1, 0.0, 0.1)


@given(initial=st_h.floats(0.01, 1e6), logmu=st_h.floats(-1.0, 1.0),
       n_steps=st_h.integers(0, 40))
def test_gibrat_sigma_zero_is_exactly_geometric(initial, logmu, n_steps):
    path = gibrat_trajectory(initial, n_steps, logmu, 0.0)
    factor = math.exp(logmu)
    expect = initial
    for t in range(n_steps + 1):
        assert path[t] == expect
        expect *= factor


def test_gibrat_log_of_products_is_normal_shaped():
    rng = np.random.default_rng(11)
    finals = [gibrat_trajectory(1.0, 50, 0.0, 0.1, seed=rng)[-1]
              for _ in range(10_000)]
    assert abs(_skew(np.log(finals))) < 0.1


# --- summaries -----------------------------------------------------------


def _pop_of(gflops_values):
    return [HostSpec(id=i, gflops=g, n_cpus=4, ram_gb=8, hdd_gb=100,
                     on_rate=0.0, off_rate=0.0)
            for i, g in enumerate(gflops_values)]


def test_summary_two_point_closed_form():
    s = population_summary(_pop_of([2.0, 4.0])).attributes["gflops"]
    assert s.mean == 3.0 and s.sd == 1.0 and s.min == 2.0 and s.max == 4.0


def test_summary_single_host_sd_zero():
    s = population_summary(_pop_of([2.5])).attributes["gflops"]
    assert s.sd == 0.0 and s.mean == 2.5


def test_summary_ordering_invariant():
    pop = sample_hosts(PopulationParams(n_hosts=100, seed=9))
    for attr in population_summary(pop).attributes.values():
        assert attr.min <= attr.mean <= attr.max
        assert attr.sd >= 0


# --- calibration ---------------------------------------------------------


def test_calibration_search_hits_unsnapped_targets():
    mu, sig = calibrate_lognormal(2.0, 1.0)
    draws = np.random.default_rng(0).lognormal(mu, sig, size=200_000)
    assert abs(draws.mean() - 2.0) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_frozen_registered_cpu_constants_match_search():
    mu, sig = calibrate_lognormal(4.30, 4.95, snap=True)
    params = PRESETS["registered"]
    draws = snap_cpus(np.random.default_rng(1).lognormal(mu, sig, size=50_000))
    frozen = snap_cpus(np.random.default_rng(1).lognormal(
        params.cpu_logmu, params.cpu_logsigma, size=50_000))
    # fresh search output and shipped constants describe the same law
    assert abs(draws.mean() - frozen.mean()) < 0.15 * 4.30
    assert abs(frozen.mean() - 4.30) < 0.15 * 4.30


def test_frozen_pool_cpu_constants_reproduce_moments():
    params = PRESETS["pool"]
    draws = snap_cpus(np.random.default_rng(2).lognormal(
        params.cpu_logmu, params.cpu_logsigma, size=50_000))
    assert abs(draws.mean() - 6.7) < 0.15 * 6.7
    assert abs(draws.std() - 10.0) < 0.25 * 10.0


def test_calibration_rejects_bad_targets():
    with pytest.raises(ParameterError):
        calibrate_lognormal(-1.0, 1.0)


# --- files ---------------------------------------------------------------


def test_population_csv_round_trip(tmp_path):
    pop = sample_hosts(PopulationParams(n_hosts=30, seed=4))
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    back = read_population_csv(path)
    assert back == pop


def test_params_file_round_trip(tmp_path):
    params = replace(PRESETS["pool"], seed=11)
    path = tmp_path / "pool.params"
    path.write_text("".join(f"{f.name} = {getattr(params, f.name)}\n"
                            for f in fields(params)))
    assert read_params_file(path) == params


def test_params_file_rejects_junk(tmp_path):
    path = tmp_path / "bad.params"
    path.write_text("n_hosts = 10\nwat = 3\n")
    with pytest.raises(ScenarioParseError):
        read_params_file(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ScenarioParseError):
        read_params_file(path)
