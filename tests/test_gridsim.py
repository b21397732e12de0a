"""Discrete-event grid simulator: scheduling, speedups, regimes, traces."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h
from oracles import (
    oracle_segment_regimes,
    oracle_speedup_table,
    oracle_write_trace_csv,
    segment_regimes,
)

from gridsweep.errors import ParameterError, SimulationStallError
from gridsweep.gridsim import (
    COMPLETE,
    DISPATCH,
    HOST_DOWN,
    HOST_UP,
    REF_GFLOPS,
    REGIMES_CSV_HEADER,
    SPEEDUP_CSV_HEADER,
    TRACE_CSV_HEADER,
    RegimeSegmentation,
    SimTrace,
    TaskSpec,
    TraceEvent,
    _host_rngs,
    _scaled_runtime,
    run_scenario,
    speedup_table,
    write_regimes_csv,
    write_speedup_csv,
    write_trace_csv,
)
from gridsweep.hosts import HostSpec


def ideal_host(i, gflops=REF_GFLOPS, n_cpus=1, on_rate=0.0, off_rate=0.0):
    return HostSpec(id=i, gflops=gflops, n_cpus=n_cpus, ram_gb=8, hdd_gb=100,
                    on_rate=on_rate, off_rate=off_rate)


def row(trace, name):
    """The speedup_table row of a task, or of 'Subtotal' or 'TOTAL'."""
    return next(r for r in speedup_table(trace) if r.name == name)


def makespan(trace, name):
    """T_dg of one task: its window."""
    return row(trace, name).t_dg_s


# --- runtime scaling -----------------------------------------------------


def test_scaled_runtime_identity_host():
    assert _scaled_runtime(TaskSpec("t", 15 * 60, 1), ideal_host(0)) == 15 * 60


def test_scaled_runtime_linear():
    h = ideal_host(0, gflops=2 * REF_GFLOPS)
    assert _scaled_runtime(TaskSpec("t", 15 * 60, 1), h) == pytest.approx(7.5 * 60)


def test_scaled_runtime_published_row():
    # 4 h of reference work on a half-speed host takes 8 h
    h = ideal_host(0, gflops=1.257)
    assert _scaled_runtime(TaskSpec("t", 4 * 3600, 1), h) == pytest.approx(8 * 3600)


def test_published_total_row_arithmetic():
    # printed speedup 12.1 is consistent with the rounded durations 3.5 / 0.3
    assert 3.5 / 0.3 == pytest.approx(11.67, abs=0.01)
    assert 3.45 / 0.35 <= 12.1 <= 3.55 / 0.25


# --- trivial exact scenarios ---------------------------------------------


def test_single_job_single_host():
    trace = run_scenario([TaskSpec("t", 3600, 1)], [ideal_host(0)])
    assert [(e.time, e.kind) for e in trace.events] == [(0.0, DISPATCH),
                                                        (3600.0, COMPLETE)]
    assert makespan(trace, "t") == 3600.0
    assert abs(row(trace, "t").speedup - 1.0) < 1e-9


@pytest.mark.parametrize("n", [2, 8, 32])
def test_n_ideal_hosts_give_speedup_n(n):
    hosts = [ideal_host(i) for i in range(n)]
    trace = run_scenario([TaskSpec("t", 3600, n)], hosts)
    completes = [e for e in trace.events if e.kind == COMPLETE]
    assert len(completes) == n
    assert all(e.time == 3600.0 for e in completes)
    assert row(trace, "t").speedup == n


def test_multi_cpu_host_runs_jobs_concurrently():
    trace = run_scenario([TaskSpec("t", 3600, 4)],
                         [ideal_host(0, n_cpus=4)])
    assert makespan(trace, "t") == 3600.0


def test_incomplete_task_queries_raise():
    trace = run_scenario([TaskSpec("t", 3600, 1)], [ideal_host(0)])
    with pytest.raises(ParameterError, match="unknown task 'missing'"):
        segment_regimes(trace, "missing")


# --- oracle comparison ---------------------------------------------------


def oracle_makespan(n_jobs, t_ref_s, hosts):
    """Independent greedy pull-scheduler for always-up hosts, one task.

    Every free CPU slot takes the next queued job; earliest-finishing slot
    (ties broken by dispatch order) frees first.
    """
    heap = []
    seq = 0
    remaining = n_jobs
    for h in hosts:
        for _ in range(h.n_cpus):
            if remaining == 0:
                break
            runtime = t_ref_s * REF_GFLOPS / h.gflops
            heapq.heappush(heap, (runtime, seq, h))
            seq += 1
            remaining -= 1
    makespan = 0.0
    while heap:
        t, _, h = heapq.heappop(heap)
        makespan = max(makespan, t)
        if remaining:
            runtime = t_ref_s * REF_GFLOPS / h.gflops
            heapq.heappush(heap, (t + runtime, seq, h))
            seq += 1
            remaining -= 1
    return makespan


@settings(max_examples=60, deadline=None)
@given(n_jobs=st_h.integers(1, 4),
       speeds=st_h.lists(st_h.floats(0.5, 8.0), min_size=1, max_size=3),
       cpus=st_h.lists(st_h.sampled_from([1, 2, 4]), min_size=3, max_size=3))
def test_always_up_schedule_matches_oracle(n_jobs, speeds, cpus):
    hosts = [ideal_host(i, gflops=g, n_cpus=c)
             for i, (g, c) in enumerate(zip(speeds, cpus))]
    trace = run_scenario([TaskSpec("t", 3600, n_jobs)], hosts)
    assert makespan(trace, "t") == pytest.approx(
        oracle_makespan(n_jobs, 3600, hosts), rel=1e-12)


def exhaustive_optimal_makespan(n_jobs, t_ref_s, hosts):
    """Minimal makespan over every split of equal jobs among CPU slots."""
    runtimes = [t_ref_s * REF_GFLOPS / h.gflops
                for h in hosts for _ in range(h.n_cpus)]

    def best(slot, remaining):
        if slot == len(runtimes) - 1:
            return remaining * runtimes[slot]
        return min(max(k * runtimes[slot], best(slot + 1, remaining - k))
                   for k in range(remaining + 1))

    return best(0, n_jobs)


@settings(max_examples=40, deadline=None)
@given(n_jobs=st_h.integers(1, 4),
       speeds=st_h.lists(st_h.floats(0.5, 8.0), min_size=1, max_size=2),
       extra=st_h.floats(0.5, 8.0))
def test_optimal_schedule_is_monotone_and_bounds_the_sim(n_jobs, speeds, extra):
    # Greedy pull dispatch is NOT monotone in the host set (a second job can
    # land on a newly added slow host), so monotonicity is asserted on the
    # exhaustive-schedule optimum, which lower-bounds the simulator.
    hosts = [ideal_host(i, gflops=g) for i, g in enumerate(speeds)]
    more = hosts + [ideal_host(len(hosts), gflops=extra)]
    opt_base = exhaustive_optimal_makespan(n_jobs, 3600, hosts)
    opt_grown = exhaustive_optimal_makespan(n_jobs, 3600, more)
    assert opt_grown <= opt_base + 1e-9
    for pool, opt in ((hosts, opt_base), (more, opt_grown)):
        sim = makespan(run_scenario([TaskSpec("t", 3600, n_jobs)], pool), "t")
        assert sim >= opt - 1e-9


# --- invariants on churny traces -----------------------------------------


def churny_population(n=12, seed_gflops=None):
    hosts = []
    for i in range(n):
        g = 1.0 + (i % 5) * 0.8
        hosts.append(ideal_host(i, gflops=g, n_cpus=(1, 2, 4)[i % 3],
                                on_rate=0.5, off_rate=0.5))
    return hosts


def validate_trace(trace, pop):
    """Replay the event list and check the scheduling contract."""
    cpus = {h.id: h.n_cpus for h in pop}
    down = set()
    running = {}  # host_id -> {job_id}
    dispatches = {t.name: 0 for t in trace.tasks}
    completes = {t.name: 0 for t in trace.tasks}
    requeued = {t.name: 0 for t in trace.tasks}
    last_time = 0.0
    for e in trace.events:
        assert e.time >= last_time
        last_time = e.time
        if e.kind == DISPATCH:
            assert e.host_id not in down, "dispatch to a detached host"
            slots = running.setdefault(e.host_id, set())
            assert len(slots) < cpus[e.host_id], "host over capacity"
            slots.add(e.job_id)
            dispatches[e.task] += 1
        elif e.kind == COMPLETE:
            assert e.job_id in running.get(e.host_id, set()), \
                "completion without a matching open dispatch"
            running[e.host_id].remove(e.job_id)
            completes[e.task] += 1
        elif e.kind == HOST_DOWN:
            down.add(e.host_id)
            lost = running.pop(e.host_id, set())
            for _ in lost:
                pass
            # jobs lost here are requeued; attribute them by scanning tasks
            for t in trace.tasks:
                base = sum(x.n_jobs for x in trace.tasks[:trace.tasks.index(t)])
                n_lost = sum(1 for j in lost if base <= j < base + t.n_jobs)
                requeued[t.name] += n_lost
        elif e.kind == HOST_UP:
            down.discard(e.host_id)
    for t in trace.tasks:
        assert completes[t.name] == t.n_jobs
        assert dispatches[t.name] == completes[t.name] + requeued[t.name]


def test_churny_trace_respects_contract():
    tasks = [TaskSpec("a", 1800, 25), TaskSpec("b", 900, 25),
             TaskSpec("d", 600, 10, mode="dedicated")]
    pop = churny_population()
    trace = run_scenario(tasks, pop, seed=5)
    validate_trace(trace, pop)


def test_speedup_bound():
    tasks = [TaskSpec("a", 1800, 25)]
    hosts = [ideal_host(i, gflops=1.0 + i, n_cpus=2) for i in range(4)]
    trace = run_scenario(tasks, hosts)
    slots = sum(h.n_cpus for h in hosts)
    bound = min(slots, 25) * max(h.gflops for h in hosts) / REF_GFLOPS
    assert row(trace, "a").speedup <= bound + 1e-9


def test_determinism_and_seed_sensitivity():
    tasks = [TaskSpec("a", 1800, 30)]
    pop = churny_population()
    t1 = run_scenario(tasks, pop, seed=3)
    t2 = run_scenario(tasks, pop, seed=3)
    t3 = run_scenario(tasks, pop, seed=4)
    assert t1.events == t2.events
    assert t1.events != t3.events


@pytest.mark.parametrize("seed", [0, 233, 2**32 - 1, 2**32 + 5, 2**63 - 1, 2**64 + 3])
def test_host_streams_equal_numpy_seedsequence_streams(seed):
    # the seed is one entropy word below 2^32, two above, and 2^64 + 3 is
    # folded to 3 by the mask; numpy's own SeedSequence is the reference
    for n in (0, 1, 4161):
        rngs = _host_rngs(seed, n)
        assert len(rngs) == n
        for i, ours in enumerate(rngs):
            ref = np.random.default_rng([seed & (2**63 - 1), 1, i])
            assert ours.bit_generator.state == ref.bit_generator.state
            assert (ours.random(), ours.exponential()) == (ref.random(), ref.exponential())


def test_hosts_keep_their_ids_and_must_not_share_one():
    trace = run_scenario([TaskSpec("t", 3600, 4)], [ideal_host(9), ideal_host(3)])
    assert {e.host_id for e in trace.events} == {9, 3}
    with pytest.raises(ParameterError, match="host ids must be unique"):
        run_scenario([TaskSpec("t", 3600, 4)], [ideal_host(9), ideal_host(9)])


def test_stall_when_no_host_ever_up():
    dead = [ideal_host(0, on_rate=0.0, off_rate=1.0)]
    with pytest.raises(SimulationStallError):
        run_scenario([TaskSpec("t", 3600, 1)], dead)


def test_stall_past_horizon():
    # one reference hour takes about 1,047 days here, past the 400-day horizon
    slow = [ideal_host(0, gflops=0.0001)]
    with pytest.raises(SimulationStallError, match="passed horizon"):
        run_scenario([TaskSpec("t", 3600, 1)], slow)


def test_dedicated_waits_for_all_shared_work():
    tasks = [TaskSpec("a", 1800, 6), TaskSpec("b", 900, 6),
             TaskSpec("d", 600, 4, mode="dedicated")]
    trace = run_scenario(tasks, [ideal_host(0, n_cpus=2), ideal_host(1)])
    last_shared_complete = max(e.time for e in trace.events
                               if e.kind == COMPLETE and e.task in ("a", "b"))
    first_dedicated = min(e.time for e in trace.events
                          if e.kind == DISPATCH and e.task == "d")
    assert first_dedicated >= last_shared_complete


def test_shared_tasks_interleave_round_robin():
    tasks = [TaskSpec("a", 600, 3), TaskSpec("b", 600, 3)]
    trace = run_scenario(tasks, [ideal_host(0)])
    order = [e.task for e in trace.events if e.kind == DISPATCH]
    assert order == ["a", "b", "a", "b", "a", "b"]


# --- regimes -------------------------------------------------------------


def test_regimes_single_job_degenerate():
    trace = run_scenario([TaskSpec("t", 3600, 1)], [ideal_host(0)])
    r = segment_regimes(trace, "t")
    assert r.degenerate
    assert r.t_start == r.t_initial_end == r.t_active_end == 0.0
    assert r.t_end == 3600.0


def test_regimes_ten_jobs_five_hosts():
    hosts = [ideal_host(i) for i in range(5)]
    trace = run_scenario([TaskSpec("t", 3600, 10)], hosts)
    r = segment_regimes(trace, "t")
    # initial ends at the 5th dispatch (t=0), active at the 10th (t=3600)
    assert r.t_initial_end == 0.0
    assert r.t_active_end == 3600.0
    assert r.t_end == 7200.0
    assert r.max_inflight == 5


def test_regime_boundaries_are_ordered():
    tasks = [TaskSpec("a", 1800, 25), TaskSpec("b", 900, 25)]
    trace = run_scenario(tasks, churny_population(), seed=2)
    for name in ("a", "b"):
        r = segment_regimes(trace, name)
        assert r.t_start <= r.t_initial_end <= r.t_active_end <= r.t_end
        for rate in (r.rate_initial, r.rate_active, r.rate_final):
            assert rate >= 0


# --- CSV output ----------------------------------------------------------


def test_csv_writers(tmp_path):
    tasks = [TaskSpec("a", 1800, 5), TaskSpec("b", 900, 5),
             TaskSpec("d", 600, 2, mode="dedicated")]
    trace = run_scenario(tasks, [ideal_host(0, n_cpus=2)])

    write_trace_csv(trace, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_CSV_HEADER)
    assert len(lines) == 1 + len(trace.events)

    write_speedup_csv(trace, tmp_path / "speedup.csv")
    lines = (tmp_path / "speedup.csv").read_text().splitlines()
    assert lines[0] == ",".join(SPEEDUP_CSV_HEADER)
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["a", "b", "Subtotal", "d", "TOTAL"]

    write_regimes_csv(trace, tmp_path / "regimes.csv")
    lines = (tmp_path / "regimes.csv").read_text().splitlines()
    assert lines[0] == ",".join(REGIMES_CSV_HEADER)
    assert len(lines) == 1 + len(tasks)


def assert_trace_csv_matches_oracle(trace, tmp_path):
    write_trace_csv(trace, tmp_path / "bulk.csv")
    oracle_write_trace_csv(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_trace_csv_quotes_names_like_csv_writer(tmp_path):
    names = ["a,b", 'say "hi"', " lead", "trail ", "S=16x16x16,V=1", "plain"]
    events = [TraceEvent(0.0, HOST_UP, -1, "", 3)]
    for k, name in enumerate(names):
        events += [TraceEvent(0.1 * k, DISPATCH, k, name, k % 2),
                   TraceEvent(1e-5 + 3600.0 * k, COMPLETE, k, name, k % 2)]
    events.append(TraceEvent(7286337.295507298, HOST_DOWN, -1, "", 0))
    trace = SimTrace(events, [TaskSpec(name, 60.0, 1) for name in names])
    assert_trace_csv_matches_oracle(trace, tmp_path)
    text = (tmp_path / "bulk.csv").read_bytes().decode()
    assert '"a,b"' in text and '"say ""hi"""' in text and ", lead," in text
    assert text.endswith("7286337.295507298,host_down,,,0\r\n")


def test_trace_csv_keeps_negative_zero_apart(tmp_path):
    times = [-0.0, 0.0, -0.0, 0.5, 0.0, 0.5, 1e-300]
    events = [TraceEvent(t, DISPATCH, k, "a", 0) for k, t in enumerate(times)]
    trace = SimTrace(events, [TaskSpec("a", 60.0, len(times))])
    assert_trace_csv_matches_oracle(trace, tmp_path)
    lines = (tmp_path / "bulk.csv").read_bytes().decode().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [repr(t) for t in times]


def test_trace_csv_of_a_churny_run_matches_oracle(tmp_path):
    tasks = [TaskSpec("S=4x6x4,V=0.1", 1800, 25), TaskSpec(' b "x"', 900, 25),
             TaskSpec("d", 600, 5, mode="dedicated")]
    trace = run_scenario(tasks, churny_population(), seed=2)
    assert {e.kind for e in trace.events} == {DISPATCH, COMPLETE, HOST_UP, HOST_DOWN}
    assert_trace_csv_matches_oracle(trace, tmp_path)


def test_total_speedup_uses_subtotal_convention(tmp_path):
    tasks = [TaskSpec("a", 1800, 4), TaskSpec("b", 900, 4),
             TaskSpec("d", 600, 2, mode="dedicated")]
    trace = run_scenario(tasks, [ideal_host(0)])
    shared_dg = max(makespan(trace, "a"), makespan(trace, "b"))
    total_dg = shared_dg + makespan(trace, "d")
    total_seq = sum(t.n_jobs * t.t_job_ref_s for t in tasks)
    assert row(trace, "TOTAL").speedup == pytest.approx(total_seq / total_dg)
    write_speedup_csv(trace, tmp_path / "speedup.csv")
    last = (tmp_path / "speedup.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "TOTAL"
    assert float(last[-1]) == pytest.approx(total_seq / total_dg)


# --- one-pass accounting against the per-task rescans ---------------------


def assert_accounts_match_oracle(trace):
    for t in trace.tasks:
        assert segment_regimes(trace, t.name) == oracle_segment_regimes(trace, t.name)
    assert speedup_table(trace) == oracle_speedup_table(trace)


@settings(max_examples=60, deadline=None)
@given(jobs=st_h.lists(st_h.integers(1, 12), min_size=1, max_size=4),
       last_dedicated=st_h.booleans(),
       n_hosts=st_h.integers(2, 12),
       churn=st_h.floats(0.2, 4.0),
       seed=st_h.integers(0, 2**31 - 1))
def test_one_pass_accounts_match_rescanning_oracle(jobs, last_dedicated, n_hosts, churn, seed):
    tasks = [TaskSpec(f"t{k}", 600.0 * (k + 1), n,
                      mode="dedicated" if last_dedicated and k == len(jobs) - 1 else "shared")
             for k, n in enumerate(jobs)]
    pop = [ideal_host(i, gflops=1.0 + (i % 5) * 0.8, n_cpus=(1, 2, 4)[i % 3],
                      on_rate=churn, off_rate=churn) for i in range(n_hosts)]
    assert_accounts_match_oracle(run_scenario(tasks, pop, seed=seed))


def test_completion_recorded_after_its_host_went_down_matches_oracle():
    # job 0 left flight when host 0 went down, so its later completion does
    # not leave flight again: the dispatch at t=5 is the 3-in-flight peak
    events = [TraceEvent(t, kind, job, "" if job < 0 else "t", host)
              for t, kind, job, host in (
                  (0.0, DISPATCH, 0, 0), (1.0, DISPATCH, 1, 1), (2.0, HOST_DOWN, -1, 0),
                  (3.0, COMPLETE, 0, 0), (4.0, DISPATCH, 2, 1), (5.0, DISPATCH, 3, 2),
                  (6.0, COMPLETE, 1, 1), (7.0, COMPLETE, 2, 1), (8.0, COMPLETE, 3, 2))]
    trace = SimTrace(events, [TaskSpec("t", 1.0, 4)])
    assert_accounts_match_oracle(trace)
    r = segment_regimes(trace, "t")
    assert (r.max_inflight, r.t_initial_end) == (3, 5.0)


def test_first_regime_counts_completions_at_the_window_start():
    # a zero-length job completes at t_start; only the first regime counts it
    events = [TraceEvent(t, kind, job, "t", host) for t, kind, job, host in (
        (0.0, DISPATCH, 0, 0), (0.0, COMPLETE, 0, 0), (0.0, DISPATCH, 1, 0),
        (4.0, DISPATCH, 2, 1), (6.0, COMPLETE, 1, 0), (8.0, DISPATCH, 3, 0),
        (10.0, COMPLETE, 2, 1), (12.0, COMPLETE, 3, 0))]
    trace = SimTrace(events, [TaskSpec("t", 1.0, 4)])
    expected = RegimeSegmentation("t", 0.0, 4.0, 8.0, 12.0, 0.25, 0.25, 0.5, 2, False)
    assert segment_regimes(trace, "t") == oracle_segment_regimes(trace, "t") == expected


def cut_before_last_completion(trace):
    """The trace up to (not including) its last completion, and that job's task."""
    k = max(i for i, e in enumerate(trace.events) if e.kind == COMPLETE)
    return SimTrace(trace.events[:k], trace.tasks), trace.events[k].task


def test_unfinished_task_makes_every_query_raise(tmp_path):
    tasks = [TaskSpec("a", 1800, 3), TaskSpec("b", 900, 3)]
    whole = run_scenario(tasks, [ideal_host(0), ideal_host(1)])
    trace, unfinished = cut_before_last_completion(whole)
    message = f"task {unfinished!r} incomplete"
    with pytest.raises(ParameterError, match=message):
        speedup_table(trace)
    for t in tasks:  # the finished task's queries too
        with pytest.raises(ParameterError, match=message):
            segment_regimes(trace, t.name)
    with pytest.raises(ParameterError, match=message):
        write_regimes_csv(trace, tmp_path / "regimes.csv")
    assert not (tmp_path / "regimes.csv").exists()
